import hashlib
import json
from fractions import Fraction as Q

import pytest

from jordanlie import kkt, rootdata, verify
from jordanlie.cli import main, parse_jordan_descriptor, parse_root_descriptor
from jordanlie.errors import InvalidParameter


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def test_jordan_descriptor_grammar():
    assert parse_jordan_descriptor("jordan:H2:field").dim == 3
    assert parse_jordan_descriptor("jordan:H3:octonion:split").dim == 27
    assert parse_jordan_descriptor("jordan:H2:quaternion:1,1").dim == 6
    j2 = parse_jordan_descriptor("jordan:J2:dim=3:gram=I")
    assert j2.variant == "quadratic" and j2.v_dim == 3
    assert parse_jordan_descriptor("jordan:J2:dim=4:gram=split").v_dim == 4
    assert parse_jordan_descriptor("jordan:J2:dim=2:gram=1,-1").v_dim == 2
    for bad in (
        "jordan:H9",
        "jordan:Hx:field",
        "jordan:J2:dim=0",
        "jordan:J2",
        "jordan:X:field",
    ):
        with pytest.raises((InvalidParameter, ValueError)):
            parse_jordan_descriptor(bad)


def test_root_descriptor_grammar():
    assert parse_root_descriptor("root:C:3") == ("C", 3, None)
    assert parse_root_descriptor("root:E7:7:node=7") == ("E7", 7, 7)
    with pytest.raises(InvalidParameter):
        parse_root_descriptor("root:G:2")


# ---------------------------------------------------------------------------
# build / export
# ---------------------------------------------------------------------------


def test_build_sp4(capsys):
    code, out, _ = run(capsys, "build", "jordan:H2:field")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["basis"]) == 10
    degrees = [b["degree"] for b in obj["basis"]]
    assert degrees.count(-2) == 3 and degrees.count(0) == 4 and degrees.count(2) == 3
    assert obj["triple"] is not None


def test_build_root_c3(capsys):
    code, out, _ = run(capsys, "build", "root:C:3")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["basis"]) == 21
    assert all(b["degree"] is None for b in obj["basis"])


def test_build_e7_both_paths(capsys):
    code, out, _ = run(capsys, "build", "root:E7:7")
    assert code == 0
    assert len(json.loads(out)["basis"]) == 133
    code, out, _ = run(capsys, "build", "jordan:H3:octonion:split")
    assert code == 0
    obj = json.loads(out)
    degrees = [b["degree"] for b in obj["basis"]]
    assert len(degrees) == 133
    assert degrees.count(-2) == 27 and degrees.count(0) == 79 and degrees.count(2) == 27


def test_build_bad_descriptor(capsys):
    code, _, err = run(capsys, "build", "jordan:H5:octonion:split")
    assert code == 2
    assert "error" in err


def test_export_report(capsys):
    code, out, _ = run(capsys, "export", "root:B:3", "--format", "report")
    assert code == 0
    assert "(r, d) = (2, 3)" in out


# SHA-256 of the `build` and `verify` stdout for every table instance, along
# the matrix road (jordan:) and the Chevalley road (root:, graded and plain);
# any refactor of the construction or the suites must leave these unchanged
GOLDEN_BUILD_SHA256 = {
    "jordan:H2:field": "8d304389119ca704627e2bc7ef0a97f38245380b3bd04f6e19d2d4f2e95f553a",
    "jordan:H3:field": "a0b17b806090fc18c7d977b0229780d7f56a448608a1898041ebde6ee69964c6",
    "jordan:H2:split-complex": "f1f584e3c8dcf5eb1fd7a70d41f58742b3b040caad8ceb9cb40a0ebc65439bba",
    "jordan:H3:split-complex": "24f7b7bb0656f6b49e7d533c065154964baf72443918e6cca280b5552d667561",
    "jordan:J2:dim=3:gram=split": "1e998e061cb2d5e41fd8b01503143fe1450b24beb9a467275b23fb434586e75a",
    "jordan:J2:dim=4:gram=split": "b8854ad8e8d7aefa477a0ab4d7ecd12b7ca0cd9add4496266e72099434a8e7b0",
    "jordan:H3:octonion:split": "a21f97831146e88aa667c793bce1dac0c6d1ced479bf9a40441c1d658e4482c6",
    "root:C:2:node=2": "e95add5dca6a0e47c8e5660f2e82c48a04841fe0b1a5bf6695abe8b1183e9d3d",
    "root:C:3:node=3": "5719819b2be1bbd0f4dcb74904e309f7486232039acc22f084ed42411e32721f",
    "root:A:3:node=2": "83e04e1005a8bd24d4114b5ec2f2cb5639f0a8004dacd215f712003cdae0e724",
    "root:A:5:node=3": "384a534da5f77a72449cefd1ca33dde9086b65f5ebdc71b39c5ae3c751cea2b6",
    "root:B:3:node=1": "3b371862a849a3aa48bb1e505f8fa65ac15d39ecc0f623bb1dc533d8ba0b951b",
    "root:D:4:node=1": "d4237c15efb7a955af6bd133cb39f87372eb360d0241cf396401627e593f94fa",
    "root:E7:7:node=7": "678ac984d22c84a498bf98aa0547d7894f2e32a593d45322528c7e6b203785ac",
    "root:C:2": "969d61ecea7c39da0e83cbbde55d45e649f18754547b754bb437301a5972ee8e",
    "root:C:3": "2ad7eeb97da51887d125e939902762ae7a7fb2e5a1fbdea37cf044776e1c4685",
    "root:A:3": "5a31e079717cdf5322576d1123e1914cad3431b9680182a3e5743fc3489b46d4",
    "root:A:5": "bd15257dd93bcda832767d5295e9bdb690b88ff8d3a6d72aa805b4425bf3d2da",
    "root:B:3": "6b88d7840e114399bd5ab5d531c76b1d0edcdc1a76a4e7ac5146b7026ec75d76",
    "root:D:4": "32001474bd88ee0a1c67ce1240801432b3de3b6f3f213645fe7fe89b907326d7",
    "root:E7:7": "7ec1558e89222dbd71119fb12da933c38280891d5cac2227e29e6265ffd50c60",
}
GOLDEN_VERIFY_SHA256 = {
    "jordan:H2:field": "269c0cb7d8bf17c1e8a33893c342355d61cd8287f9576de05f79f90661121d2d",
    "jordan:H3:field": "0584ef0be06809cc7a6e1e9642b93871194904528ca396d37f73f1162ec7f340",
    "jordan:H2:split-complex": "fd2c58f2dc7963b2e2f92d526e0e40a0d5b31c8b8186375ffaa7fd99fc0cd7b8",
    "jordan:H3:split-complex": "bd3d24a7ed0319e2bb7e52e9ed27c0638e27c82bbf79de938f5a2b7563b7e54b",
    "jordan:J2:dim=3:gram=split": "2fdb4342fdd3521d726adc9e1ce3807e41169b636f3fda33907902c23317ef38",
    "jordan:J2:dim=4:gram=split": "96d7977288a01775b18a27143d8ae00da303df7d629d8c67b98539a6a14147ab",
    "jordan:H3:octonion:split": "ddb77e065ac01393d63a5dfd451c13dc61854182dabc75efde33190743e79ea2",
    "root:C:2:node=2": "e42042f5a6bfe51a87f7b230f5610aa1d973412913846d6b94364d449b7fce79",
    "root:C:3:node=3": "817b948247acd55e5579fb6190b49ced932c4bbb46a2ef51bac1ea6fa2e4f3db",
    "root:A:3:node=2": "5b01402898cb8b48a351769cf754f1cd66710b6f961df3d01eb05574efb6ab8c",
    "root:A:5:node=3": "fc381a6c91c30c88268c8ee25e98aef5448e75e6a87952d703ab54513b9fbf63",
    "root:B:3:node=1": "88d8006bce0cb762faa3075d59a0690926776d89f6fbf5c7ea445a385d854989",
    "root:D:4:node=1": "73e896ccb5c757eb9c53b5ed1c0690bd401f1816da890045e2bc5330ea7cd60e",
    "root:E7:7:node=7": "9750f668f2610269bc5aacfc2597327862ca944bf307ca78ef901aed5a20262b",
    "root:C:2": "74cb7575d0e294616af5e7cfab87313bb8969a7ce3c1ee456f9df2b9b5786ce5",
    "root:C:3": "5a588914bc5bee47a42d68711568a735dae17cde1494e911d331655acb5b1b4f",
    "root:A:3": "7815a97e58664d0df263053d35973b38bea245912d28804f2e6e4bc8347f636a",
    "root:A:5": "6671168f8729ff928da5bb73be8461a4f545922558acdcf3066ae90943dd7b20",
    "root:B:3": "685b971290c249874275a2508f436814c17c918f58051e37f3e9efe1fa61ae20",
    "root:D:4": "a56e8669c43b39fc2206170f027663bfffa0e8494f3277d8f924cc1c8fbff13c",
    "root:E7:7": "919061d1071ccc0ed7a479eebbbb146dcc02e736897c3d64fa898423196fe5cf",
}
# H3(O) runs 100 jordan-identity samples, not the default 1000 that dominate its time
GOLDEN_VERIFY_ARGS = {"jordan:H3:octonion:split": ["--samples", "100"]}


@pytest.mark.parametrize(
    "command, descriptor",
    [pytest.param("build", d, id=d) for d in GOLDEN_BUILD_SHA256]
    + [pytest.param("verify", d, id=f"verify:{d}") for d in GOLDEN_VERIFY_SHA256],
)
def test_build_golden_hashes(capsys, command, descriptor):
    golden = GOLDEN_BUILD_SHA256 if command == "build" else GOLDEN_VERIFY_SHA256
    extra = GOLDEN_VERIFY_ARGS.get(descriptor, []) if command == "verify" else []
    code, out, _ = run(capsys, command, descriptor, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden[descriptor]


def test_build_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "jordan:J2:dim=3:gram=I", "--out", str(f1)]) == 0
    assert main(["build", "jordan:J2:dim=3:gram=I", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_on_sp4(capsys):
    code, out, _ = run(capsys, "verify", "jordan:H2:field")
    assert code == 0
    assert "jacobi: PASS" in out
    assert "FAIL" not in out


def test_verify_round_trip_and_negative_control(tmp_path, capsys):
    path = tmp_path / "sp4.json"
    assert main(["build", "jordan:H2:field", "--out", str(path)]) == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    # corrupt one structure constant
    obj = json.loads(path.read_text())
    i, j, entries = obj["brackets"][0]
    k, v = entries[0]
    entries[0] = [k, str(Q(v) + 1)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "FAIL" in out
    assert "witness" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "jordan:H2:field", "--suites", "frobnicate")
    assert code == 2


def test_verify_suite_target_mismatch(capsys):
    code, _, err = run(capsys, "verify", "root:C:2", "--suites", "jordan-identity")
    assert code == 2


def test_verify_root_with_cross_validation(capsys):
    code, out, _ = run(
        capsys, "verify", "root:C:2", "--suites", "jacobi,killing,cross-validate"
    )
    assert code == 0
    assert "cross-validate: PASS [45 checks] (C2 node 2, dim 10)" in out
    code, out, _ = run(capsys, "verify", "root:E7:7", "--suites", "cross-validate")
    assert code == 0
    assert out == "cross-validate: PASS [8778 checks] (E7 node 7, dim 133)\n"


def _assert_usage_error(code, out, err, needle):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_build_non_tube_parabolic(capsys):
    code, out, err = run(capsys, "build", "root:A:2:node=1")
    _assert_usage_error(code, out, err, "non-tube parabolic")


def test_build_root_without_canonical_node(capsys):
    # A2 has no canonical node; the plain build never asks for a parabolic
    code, out, _ = run(capsys, "build", "root:A:2")
    assert code == 0
    assert len(json.loads(out)["basis"]) == 8


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["build", "jordan:J2:dim=x"], "dim must be an integer, got 'x' in 'jordan:J2:dim=x'"),
        (["build", "jordan:J2:dim=1_0"], "dim must be an integer, got '1_0'"),
        (["build", "root:A:x"], "rank must be an integer, got 'x' in 'root:A:x'"),
        (["build", "root:A:3:node=x"], "node must be an integer, got 'x' in 'root:A:3:node=x'"),
        (["classify", "ELEMENT", "--places", "inf,x"], "place must be an integer, got 'x' in 'inf,x'"),
        (["verify", "root:C:2", "--suites", "jacobi", "--jobs", "0"], "jobs must be >= 1, got 0"),
    ],
    ids=["dim", "dim-underscore", "rank", "node", "places", "jobs-zero"],
)
def test_integer_fields_name_themselves(tmp_path, capsys, argv, needle):
    path = tmp_path / "el.json"
    path.write_text(json.dumps({"algebra": "jordan:H2:field", "element": {"diag": ["1", "1"]}}))
    argv = [str(path) if a == "ELEMENT" else a for a in argv]
    code, out, err = run(capsys, *argv)
    _assert_usage_error(code, out, err, needle)


TWO_BASIS = [{"label": "a", "degree": None}, {"label": "b", "degree": None}]


@pytest.mark.parametrize(
    "obj, needle",
    [
        ({"basis": TWO_BASIS, "brackets": [["0", "1", [[0, "1"]]]]}, "bracket pair"),
        ([TWO_BASIS], "must be an object"),
        ({"basis": TWO_BASIS, "brackets": [[0, 1, [[7, "1"]]]]}, "basis index 7"),
        ({"basis": TWO_BASIS, "brackets": [[0, 1, [[1, 1]]]]}, "string"),
        ({"basis": TWO_BASIS, "brackets": [[0, 1, [[1, "1/0"]]]]}, "zero denominator"),
    ],
    ids=[
        "string-indices",
        "top-level-array",
        "target-out-of-range",
        "number-coefficient",
        "zero-denominator",
    ],
)
def test_verify_malformed_json(tmp_path, capsys, obj, needle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    _assert_usage_error(code, out, err, needle)


def test_verify_seeded_sampling_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["verify", "root:E7:7", "--suites", "jacobi", "--seed", "42", "--samples", "100000"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"PASS [100000 checks] (sampled, seed 42)" in a.read_bytes()


def test_verify_jobs_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["verify", "root:E7:7", "--suites", "jacobi", "--seed", "9", "--samples", "1200"]
    assert main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a failing target: both runs name the first failing sample as witness
    bad = tmp_path / "bad.json"
    g = verify.corrupted_copy(rootdata.build_split_lie("A", 6), 0, 47, 3, 1)
    bad.write_text(json.dumps(kkt.to_json(g)))
    base = ["verify", str(bad), "--suites", "jacobi", "--samples", "20000"]
    assert main(base + ["--jobs", "1", "--out", str(a)]) == 1
    assert main(base + ["--jobs", "2", "--out", str(b)]) == 1
    assert a.read_text() == b.read_text() == (
        "jacobi: FAIL [20000 checks] (sampled, seed 0) witness: "
        "(e:0,0,1,1,1,1, f:0,0,0,0,0,1, e:1,1,1,1,1,1) residual {e:0,0,0,1,1,1: -1}\n"
    )


def test_verify_degree_one_parabolic(capsys):
    code, out, err = run(capsys, "verify", "root:A:1")
    _assert_usage_error(code, out, err, "cross-validate needs degree r >= 2, but node 1 has r = 1")
    code, out, _ = run(capsys, "verify", "root:A:1", "--suites", "jacobi,killing")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "descriptor, needle",
    [
        pytest.param("jordan:H2:quaternion:1_0, -1", "got '1_0'", id="underscore"),
        pytest.param("jordan:H2:quaternion:1, -1", "got ' -1'", id="blank"),
    ],
)
def test_gram_rationals_take_plain_digits_only(capsys, descriptor, needle):
    code, out, err = run(capsys, "build", descriptor)
    _assert_usage_error(code, out, err, needle)


def test_rationals_with_minus_and_denominator(tmp_path, capsys):
    path = tmp_path / "el.json"
    doc = {"algebra": "jordan:H2:field", "element": {"diag": ["-3/4", "2"], "upper": {}}}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out)["rank"] == 2
    assert parse_jordan_descriptor("jordan:J2:dim=2:gram=-3/4,1").gram[0][0] == Q(-3, 4)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_rank_two(tmp_path, capsys):
    el = {"algebra": "jordan:H3:field", "element": {"diag": ["1", "1", "0"], "upper": {}}}
    path = tmp_path / "el.json"
    path.write_text(json.dumps(el))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 2


def test_classify_split_nilpotent(tmp_path, capsys):
    el = {
        "algebra": "jordan:H2:split-complex",
        "element": {
            "diag": ["0", "0"],
            "upper": {"1,2": {"algebra": "split-complex", "coeffs": ["1", "1"]}},
        },
    }
    path = tmp_path / "el.json"
    path.write_text(json.dumps(el))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out)["rank"] == 1


def test_classify_distinguishes_prime_classes(tmp_path, capsys):
    p = 7
    el = {"algebra": "jordan:H2:field", "element": {"diag": ["1", str(p)], "upper": {}}}
    path = tmp_path / "el.json"
    path.write_text(json.dumps(el))
    code, out, _ = run(capsys, "classify", str(path), "--places", f"inf,{p}")
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 2
    assert rep["norm_value"] == str(p)
    assert rep["local_classes"][str(p)].startswith("v1")  # odd valuation: not a square


def test_classify_log_replays(tmp_path, capsys):
    el = {
        "algebra": "jordan:H2:field",
        "element": {
            "diag": ["0", "0"],
            "upper": {"1,2": {"algebra": "field", "coeffs": ["3"]}},
        },
    }
    path = tmp_path / "el.json"
    path.write_text(json.dumps(el))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 2
    assert rep["log"]


def test_classify_malformed(tmp_path, capsys):
    path = tmp_path / "el.json"
    path.write_text(json.dumps({"oops": 1}))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2


def _h3_upper(upper):
    return {"algebra": "jordan:H3:field", "element": {"diag": ["1", "1", "1"], "upper": upper}}


@pytest.mark.parametrize(
    "doc, needle",
    [
        pytest.param(5, '"algebra"', id="document-number"),
        pytest.param(
            {"algebra": "jordan:H3:field", "element": {"diag": 5}}, '"diag"', id="diag-number"
        ),
        pytest.param(_h3_upper({"1,2": 5}), "upper entry '1,2'", id="upper-entry-number"),
        pytest.param(
            {"algebra": "jordan:J2:dim=2", "element": {"a": "1", "b": "1", "v": "12"}},
            '"v"',
            id="v-string",
        ),
        pytest.param(
            {"algebra": "jordan:H3:field", "element": {"diag": ["1", 5, "1"]}},
            '"diag"[1]: rational must be a "p/q" string, got 5',
            id="diag-entry-number",
        ),
        *(
            pytest.param(
                {"algebra": "jordan:H2:field", "element": {"diag": [entry, "1"]}},
                f'"diag"[0]: rational must be "p" or "p/q" in plain digits, got {entry!r}',
                id=f"diag-entry-{name}",
            )
            for name, entry in (
                ("underscore", "1_0"),
                ("blanks", " 2 "),
                ("plus", "+3"),
                ("negative-denominator", "3/-4"),
                ("non-ascii-digit", "\u0663"),
            )
        ),
        pytest.param(
            {"algebra": "jordan:J2:dim=2", "element": {"b": "1", "v": ["1", "1"]}},
            'quadratic element is missing "a"',
            id="missing-a",
        ),
        pytest.param(
            {"algebra": "jordan:J2:dim=2", "element": {"a": "1", "v": ["1", "1"]}},
            'quadratic element is missing "b"',
            id="missing-b",
        ),
    ]
    + [
        pytest.param(
            _h3_upper({key: {"coeffs": ["1"]}}),
            f"upper key '{key}': need \"i,j\" with 1 <= i < j <= 3",
            id=f"upper-key-{key}",
        )
        for key in ("2,1", "0,2", "1,4")
    ],
)
def test_classify_malformed_element(tmp_path, capsys, doc, needle):
    path = tmp_path / "el.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path))
    _assert_usage_error(code, out, err, needle)

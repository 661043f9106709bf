import hashlib
import json
import multiprocessing
import os
from fractions import Fraction as Q

import pytest

from jordanlie import cli, jordan, kkt, rootdata, verify
from jordanlie.cli import main, parse_jordan_descriptor, parse_root_descriptor
from jordanlie.errors import ConstructionError, InvalidParameter

from conftest import corrupted_copy


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


def test_export_report_degree_one(capsys):
    code, out, err = run(capsys, "export", "root:A:1", "--format", "report")
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [
        "strongly orthogonal chain: 1",
        "no off-diagonal Pierce space: degree r = 1 has no pairs i < j",
    ]


def test_construction_error_exits_2(capsys, monkeypatch):
    def fail(_):
        raise ConstructionError("Jordan product left the nilradical")

    monkeypatch.setattr(rootdata, "instance_report", fail)
    code, out, err = run(capsys, "export", "root:B:3", "--format", "report")
    assert (code, out, err) == (2, "", "error: Jordan product left the nilradical\n")


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("command", ["build", "classify"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, where):
    out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    if command == "build":
        argv = ["build", "jordan:H2:field"]
    else:
        el = tmp_path / "el.json"
        el.write_text(json.dumps({"algebra": "jordan:H2:field", "element": {"diag": ["1", "2"]}}))
        argv = ["classify", str(el)]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write output {str(out)!r}: ")
    assert err.count("\n") == 1


def test_out_is_tried_before_the_work(tmp_path, capsys, monkeypatch):
    def must_not_run(text):
        pytest.fail(f"resolve_target ran for {text!r} before --out was tried")

    monkeypatch.setattr(cli, "resolve_target", must_not_run)
    out = tmp_path / "missing" / "x.txt"
    code, stdout, err = run(capsys, "verify", "root:C:3", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot write output {str(out)!r}: No such file or directory\n"
    monkeypatch.undo()
    # a command that fails after the path was tried leaves the file as it was,
    # and leaves no file where there was none
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    code, _, err = run(capsys, "verify", "root:A:1", "--out", str(kept))
    assert code == 2 and err.startswith("error: cross-validate needs degree r >= 2")
    assert kept.read_text() == "earlier output\n"
    fresh = tmp_path / "fresh.txt"
    code, _, err = run(capsys, "verify", "root:A:1", "--out", str(fresh))
    assert code == 2 and err.startswith("error: cross-validate needs degree r >= 2")
    assert not fresh.exists()


def test_verify_root_e7_builds_two_bracket_tables(capsys, monkeypatch):
    # one for the Chevalley build, which the graded copy shares, and one for
    # cross-validate's kkt build of the coordinatized model
    tables = []
    build_table = kkt.bracket_table

    def counted(*args):
        tables.append(build_table(*args))
        return tables[-1]

    monkeypatch.setattr(kkt, "bracket_table", counted)
    code, _, _ = run(capsys, "verify", "root:E7:7", "--suites", "jacobi,cross-validate")
    assert code == 0
    assert len(tables) == 2


def test_an_error_outside_the_contract_leaves_no_empty_out_file(tmp_path, capsys, monkeypatch):
    # the exception propagates, and the empty file the --out probe made goes
    def broken(g):
        raise ValueError("suite broke")

    monkeypatch.setattr(verify, "suite_killing", broken)
    fresh = tmp_path / "leftover.txt"
    with pytest.raises(ValueError, match="suite broke"):
        main(["verify", "root:A:2", "--suites", "killing", "--out", str(fresh)])
    assert not fresh.exists()
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    with pytest.raises(ValueError, match="suite broke"):
        main(["verify", "root:A:2", "--suites", "killing", "--out", str(kept)])
    assert kept.read_text() == "earlier output\n"


# SHA-256 of the `build` and `verify` stdout for every table instance, along
# the matrix road (jordan:) and the Chevalley road (root:, graded and plain),
# plus three jordan: tables whose common denominators are 42, 10 and 8 (all
# the others are dyadic); any refactor of the construction or the suites
# must leave these unchanged.  The build hashes were re-pinned once, when the
# JSON gained the Killing normalization pair ("norm_pair"); deleting that key
# from any of these outputs gives the earlier hash.  The verify hashes were
# re-pinned once, when killing, jordan-identity, composition-law and
# q-composition became exhaustive basis certificates: only check counts
# changed, and the "(seed N)" notes of those suites were dropped
GOLDEN_BUILD_SHA256 = {
    "jordan:H2:field": "73afe6c3eb34de83be03855e5cae64ecadd8466b296e898da6e368c1d8ae4b60",
    "jordan:H3:field": "5fdb2b7fc5a977c898dfe99a81f263337512b8f1201e6e83790c2dc35353ff84",
    "jordan:H2:split-complex": "88862b47242a9df4107701109dad00b4e61148b61f4d569e5040218002a2106b",
    "jordan:H3:split-complex": "9cebf3739e57a1891ae4e6992c48214f627af2cce40a09d04ea8838ce4096320",
    "jordan:J2:dim=3:gram=split": "4146ee9ba7023df32328aa9ef4eabe2f5a355e7da34ca83e37f182739357932b",
    "jordan:J2:dim=4:gram=split": "dc31fe2687abadf8a76a4cfdeca36f71f4236d311ab16e78632289a363908698",
    "jordan:H3:octonion:split": "153d336200b0953d9f90f27062302de1ffa247c3c616a94ffa50e44668080610",
    "jordan:H2:quaternion:1/3,-5/7": "4fea5ee2a8b605f56288b54e1b4aa8db81ed01220a97ebae99cd40eb8a73d3f9",
    "jordan:J2:dim=2:gram=1/2,3/5": "b6504857131bf5eeb1ad16480ccbdf2976a32b6731bb932a08b39df429707c66",
    "jordan:H3:complex:-7/4": "ef29de8302836cec24e933ef3a0ffdab297bdc3366f1ca3bddf12df72e9bbafb",
    "root:C:2:node=2": "79c9a124943f01e39f5a8e9e6dbfb7fc80479735ff92102184f219da8528d149",
    "root:C:3:node=3": "9656c08c04aeab3223c9e79fcd58d918ff37711c2e9cbcfdc1d0c32cce9c6694",
    "root:A:3:node=2": "55f60e07bf3fed6c1a59568dfab56b84dd708e42cd9b5fd4ac25ec777574a714",
    "root:A:5:node=3": "796c5a3733d43b1d3dc8b21e6ef36e5cbbe42e1b1769dcac0ec9c5612e7462e8",
    "root:B:3:node=1": "ca5e1bae20501d39c2901dd7649ca0f9da7fd84bc3652fa344b516a92a03ef01",
    "root:D:4:node=1": "81c8435abe7703eb84aad5925f81bb1c2cabe78ee6a8c8d9789e6524bd6cd9a9",
    "root:E7:7:node=7": "a453d0484dc1d73925983ded34cf275ba9f32e6efe5edb993957f498b0ce2212",
    "root:C:2": "2740d89b72d34158777959dc9eacd897dc5a5215158562d05e71977a24e12349",
    "root:C:3": "655ecc02417162a23e91eb1c69050ac9a50817776a803f5e5725d97a8e45d0a5",
    "root:A:3": "11649faf466ed90d6b3218de59b2041c9bb9ec42a917defb9362c3df212052e8",
    "root:A:5": "bf7f4a0032f356f194b555863ec7061a1956d6df58fa2720562face59f818a3a",
    "root:B:3": "551cf6f6af1f06bb8d99a49f44d5aa169d796e04d7cbaa143b8224f89097d00c",
    "root:D:4": "e026dfe5ed00677feea9c10cec06f967c39f91db5bf57bbafcc8eee845a8956e",
    "root:E7:7": "1305b6ee9cb96373077134feea7b53de926166c34ca27f4ba7c5d91517a1c262",
}
GOLDEN_VERIFY_SHA256 = {
    "jordan:H2:field": "a19522a20e4cef98f7b6b0179204c3c800468079dbccb4b09792550d5b9d7b7d",
    "jordan:H3:field": "bbf05d7fc776ee083f76afe5b87d0d4a005469368c9f12e3b0925cb384b503ea",
    "jordan:H2:split-complex": "54a322854409774955de54e32ac6d8d59bb338e11c066a4539d1243dc0ac23d8",
    "jordan:H3:split-complex": "e5e8a461e455096bc7e6769d1c9b8e701a5c7b3e7b35b6dc6a54b67aba9a640e",
    "jordan:J2:dim=3:gram=split": "233ea37e9bf2a73d0711c8e7785ac585c1629162fcc0cdc92cdb9465a62f55b2",
    "jordan:J2:dim=4:gram=split": "a57cf9b0db7183979bfbd4b49b8abbc4ce534dd52b74e66eef6b04cf5c7accf9",
    "jordan:H3:octonion:split": "4c776877b31ade40b19d3286a10467cd1454936c8833e7df894842c6ad2d40ca",
    "jordan:H2:quaternion:1/3,-5/7": "b89e0f31404d51a3b1854af047778c91a7d36067be431fc32c4427bf5f9b72af",
    "jordan:J2:dim=2:gram=1/2,3/5": "99fba2cea44724c9be35242226292f7bb1228df59e36addf0e92c07c129783fe",
    "jordan:H3:complex:-7/4": "e5e8a461e455096bc7e6769d1c9b8e701a5c7b3e7b35b6dc6a54b67aba9a640e",
    "root:C:2:node=2": "e42042f5a6bfe51a87f7b230f5610aa1d973412913846d6b94364d449b7fce79",
    "root:C:3:node=3": "7a1bd41712cb171893e8eec556e8f09967c65ffb171fbeb4f0ee7f15ab6faab1",
    "root:A:3:node=2": "5b01402898cb8b48a351769cf754f1cd66710b6f961df3d01eb05574efb6ab8c",
    "root:A:5:node=3": "bc317328ca86f727ce613c12e27b69944c11f318ca445f533e4e760032512985",
    "root:B:3:node=1": "88d8006bce0cb762faa3075d59a0690926776d89f6fbf5c7ea445a385d854989",
    "root:D:4:node=1": "af178a45f211af55996e5eb22147344db96c33d1377e278a95cd6a4324c7ca10",
    "root:E7:7:node=7": "8caa07366db4489355c6e37486aae53118479d0d421db4b6790f256d2f20f318",
    "root:C:2": "74cb7575d0e294616af5e7cfab87313bb8969a7ce3c1ee456f9df2b9b5786ce5",
    "root:C:3": "6c346dc6a7e2b25b6002555d361374c60c4362506d2619d1e1d0a8efc125e9ae",
    "root:A:3": "7815a97e58664d0df263053d35973b38bea245912d28804f2e6e4bc8347f636a",
    "root:A:5": "af11ade7bf6c8258fc51a00d195bd7ee7e8a389c9da2f56997349a5d844554c0",
    "root:B:3": "685b971290c249874275a2508f436814c17c918f58051e37f3e9efe1fa61ae20",
    "root:D:4": "86739c71bd2503cdf03bdbadc7d5ca0cf12ece7c3147280d5d556f323afe9a63",
    "root:E7:7": "914f398a2a4dccb4f556477f6b986f62ac19ddf5f360674dea502dbe1b299f82",
}
# H3(O) samples Jacobi 100 times instead of the default 1000; --samples steers
# only the jacobi suite, which samples above dimension 36
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


# Full stdout of `export DESC --format report` for the root: instances; the
# report is read off the root pairings alone (chain, Pierce components)
GOLDEN_REPORTS = {
    "root:A:3": (
        "type A rank 3 node 2\n"
        "dim g = 15, dim n = 4\n"
        "degree r = 2\n"
        "strongly orthogonal chain: 1,1,1; 0,1,0\n"
        "off-diagonal Pierce dimension d = 2\n"
        "(r, d) = (2, 2)\n"
    ),
    "root:A:5": (
        "type A rank 5 node 3\n"
        "dim g = 35, dim n = 9\n"
        "degree r = 3\n"
        "strongly orthogonal chain: 1,1,1,1,1; 0,1,1,1,0; 0,0,1,0,0\n"
        "off-diagonal Pierce dimension d = 2\n"
        "(r, d) = (3, 2)\n"
    ),
    "root:B:3": (
        "type B rank 3 node 1\n"
        "dim g = 21, dim n = 5\n"
        "degree r = 2\n"
        "strongly orthogonal chain: 1,2,2; 1,0,0\n"
        "off-diagonal Pierce dimension d = 3\n"
        "(r, d) = (2, 3)\n"
    ),
    "root:C:2": (
        "type C rank 2 node 2\n"
        "dim g = 10, dim n = 3\n"
        "degree r = 2\n"
        "strongly orthogonal chain: 2,1; 0,1\n"
        "off-diagonal Pierce dimension d = 1\n"
        "(r, d) = (2, 1)\n"
    ),
    "root:C:3": (
        "type C rank 3 node 3\n"
        "dim g = 21, dim n = 6\n"
        "degree r = 3\n"
        "strongly orthogonal chain: 2,2,1; 0,2,1; 0,0,1\n"
        "off-diagonal Pierce dimension d = 1\n"
        "(r, d) = (3, 1)\n"
    ),
    "root:D:4": (
        "type D rank 4 node 1\n"
        "dim g = 28, dim n = 6\n"
        "degree r = 2\n"
        "strongly orthogonal chain: 1,2,1,1; 1,0,0,0\n"
        "off-diagonal Pierce dimension d = 4\n"
        "(r, d) = (2, 4)\n"
    ),
    "root:D:4:node=4": (
        "type D rank 4 node 4\n"
        "dim g = 28, dim n = 6\n"
        "degree r = 2\n"
        "strongly orthogonal chain: 1,2,1,1; 0,0,0,1\n"
        "off-diagonal Pierce dimension d = 4\n"
        "(r, d) = (2, 4)\n"
    ),
    "root:E7:7": (
        "type E7 rank 7 node 7\n"
        "dim g = 133, dim n = 27\n"
        "degree r = 3\n"
        "strongly orthogonal chain: 2,2,3,4,3,2,1; 0,1,1,2,2,2,1; 0,0,0,0,0,0,1\n"
        "off-diagonal Pierce dimension d = 8\n"
        "(r, d) = (3, 8)\n"
    ),
}


@pytest.mark.parametrize("descriptor", list(GOLDEN_REPORTS))
def test_export_report_golden(capsys, descriptor):
    code, out, err = run(capsys, "export", descriptor, "--format", "report")
    assert (code, out, err) == (0, GOLDEN_REPORTS[descriptor], "")


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



@pytest.mark.parametrize("suites", ["", "jacobi,"], ids=["empty", "trailing-comma"])
def test_verify_empty_suite_name_is_refused(capsys, suites):
    # a given but empty --suites names the empty suite; it never means the defaults
    code, out, err = run(capsys, "verify", "root:C:2", "--suites", suites)
    _assert_usage_error(code, out, err, "unknown suite ''")

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


def test_one_killing_matrix_per_root_target(capsys, monkeypatch):
    # counts first-time computations of the trace Gram; the graded copy of a
    # node= target and the parabolic the suites read share one algebra,
    # hence one Gram
    computed = []
    killing_matrix = kkt.LieAlgebra.killing_matrix

    def counting(self):
        if self._gram is None:
            computed.append(self.dim)
        return killing_matrix(self)

    monkeypatch.setattr(kkt.LieAlgebra, "killing_matrix", counting)
    for command, descriptor, count in (
        ("verify", "root:C:3:node=3", 1),
        ("verify", "root:C:3", 1),
        ("build", "root:C:3:node=3", 0),
    ):
        computed.clear()
        code, _, _ = run(capsys, command, descriptor)
        assert (code, computed) == (0, [21] * count), (command, descriptor)


def _assert_usage_error(code, out, err, needle):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err



@pytest.mark.parametrize(
    "argv, needle",
    [
        (["verify", "root:C:3:node=1:node=3", "--suites", "grading"], "repeated option node= in"),
        (["build", "jordan:J2:dim=2:dim=3:gram=1,1,1"], "repeated option dim= in"),
        (["build", "jordan:J2:dim=2:gram=1,1:gram=I"], "repeated option gram= in"),
    ],
    ids=["node", "dim", "gram"],
)
def test_repeated_descriptor_option_is_refused(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    _assert_usage_error(code, out, err, needle)

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
        (["verify", "root:A:99999"], "A99999 has dimension 9999999999, above 248"),
    ],
    ids=["dim", "dim-underscore", "rank", "node", "places", "jobs-zero", "rank-past-e8"],
)
def test_integer_fields_name_themselves(tmp_path, capsys, argv, needle):
    path = tmp_path / "el.json"
    path.write_text(json.dumps({"algebra": "jordan:H2:field", "element": {"diag": ["1", "1"]}}))
    argv = [str(path) if a == "ELEMENT" else a for a in argv]
    code, out, err = run(capsys, *argv)
    _assert_usage_error(code, out, err, needle)


@pytest.mark.parametrize(
    "target, message",
    [
        ("root:G:2", "unsupported type 'G'"),
        ("root:E7:99", "type E7 has rank 7"),
        ("root:E7:6", "type E7 has rank 7"),
        ("root:A:0", "type A needs rank >= 1"),
        ("root:B:1", "type B needs rank >= 2"),
        ("root:C:-1", "type C needs rank >= 2"),
        ("root:D:2", "type D needs rank >= 3"),
        ("root:A:15", "A15 has dimension 255, above 248, that of E8"),
        ("root:D:12", "D12 has dimension 276, above 248, that of E8"),
        ("root:A:4", "type A needs odd rank for the middle node"),
    ],
)
def test_root_descriptor_errors(capsys, target, message):
    # each message in full: the per-type table states every rank floor, cap and node
    code, out, err = run(capsys, "verify", target)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "target, flag, needle",
    [
        ("root:E7:7", ["--samples", "0"], "sample_count must be >= 1"),
        ("JSON", ["--jobs", "0"], "jobs must be >= 1, got 0"),
        ("root:E7:7", ["--jobs", "0"], "jobs must be >= 1, got 0"),
        ("JSON", ["--samples", "0"], "sample_count must be >= 1"),
    ],
)
def test_verify_checks_its_flags_before_the_target(tmp_path, capsys, monkeypatch, target, flag, needle):
    # a bad --samples or --jobs exits 2 before a root: target is built or a
    # JSON target is parsed
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(kkt.to_json(rootdata.build_split_lie("A", 1))))

    def resolved(*args):
        raise AssertionError("the target was resolved before the flags were checked")

    monkeypatch.setattr(rootdata, "build_split_lie", resolved)
    monkeypatch.setattr(kkt, "from_json", resolved)
    code, out, err = run(capsys, "verify", str(path) if target == "JSON" else target, *flag)
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
        ({"basis": TWO_BASIS, "brackets": [], "norm_pair": {"f": [[0, "1"]]}}, "norm_pair must be"),
        ({"basis": TWO_BASIS, "brackets": [], "norm_pair": [[0, "1"]]}, "norm_pair must be"),
        ({"basis": TWO_BASIS, "brackets": [], "norm_pair": {"f": [[5, "1"]], "e": []}}, "basis index 5"),
        ({"basis": TWO_BASIS, "brackets": [[0, 1, [[0, "1"]]], [0, 1, []]]}, "repeated bracket pair (0, 1)"),
        ({"basis": TWO_BASIS, "brackets": [[0, 1, [[0, "0"], [0, "1"]]]]}, "repeated basis index 0"),
        ({"basis": TWO_BASIS, "brackets": [[0, 1, {"0": "1"}]]}, "sparse vector must be a list"),
        ({"basis": TWO_BASIS, "brackets": [[0, 1]]}, "bracket must be [i, j, vector], got [0, 1]"),
        ({"basis": TWO_BASIS, "brackets": [[0, 1, [[1, "1/0"]]], [0, 1]]}, "zero denominator"),
    ],
    ids=[
        "string-indices",
        "top-level-array",
        "target-out-of-range",
        "number-coefficient",
        "zero-denominator",
        "norm-pair-missing-e",
        "norm-pair-array",
        "norm-pair-index-out-of-range",
        "repeated-pair",
        "index-repeated-after-zero",
        "vector-not-a-list",
        "bracket-of-length-2",
        "first-error-in-document-order",
    ],
)
def test_verify_malformed_json(tmp_path, capsys, obj, needle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    _assert_usage_error(code, out, err, needle)


def test_verify_a_document_of_zero_constants(tmp_path, capsys):
    # "0" is the only constant: den 1, every cell empty, and Jacobi holds
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"basis": TWO_BASIS, "brackets": [[0, 1, [[0, "0"], [1, "0/5"]]]]}))
    g = kkt.from_json(json.loads(path.read_text()))
    assert g.table.den == 1 and g.table.cells == (({}, {}), ({}, {}))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "") and out.startswith("jacobi: PASS")


def test_json_keeps_the_killing_normalization(tmp_path, capsys):
    path = tmp_path / "h2.json"
    assert main(["build", "jordan:H2:field", "--out", str(path)]) == 0
    capsys.readouterr()
    for target in ("jordan:H2:field", str(path)):
        code, out, _ = run(capsys, "verify", target, "--suites", "killing")
        assert (code, out) == (0, "killing: PASS [1057 checks]\n")


def test_vanishing_normalization_pair_is_refused(tmp_path, capsys):
    # a norm pair (e1, e1) pairs to 0 under the ad-trace form (degrees 2 and
    # 2 do not cancel), so the killing suite cannot scale and exits 2
    path = tmp_path / "h2.json"
    obj = kkt.to_json(kkt.build_kkt(parse_jordan_descriptor("jordan:H2:field")))
    obj["norm_pair"]["f"] = obj["norm_pair"]["e"]
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path), "--suites", "killing")
    assert (code, out, err) == (2, "", "error: ad-trace pairing of the normalization pair vanishes\n")


def test_verify_seeded_sampling_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["verify", "root:E7:7", "--suites", "jacobi", "--seed", "42", "--samples", "100000"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"PASS [100000 checks] (sampled, seed 42)" in a.read_bytes()


def test_verify_jobs_runs_in_one_process(tmp_path, monkeypatch):
    # --jobs 2 starts no worker, even with CPUs to spare, and prints the
    # bytes --jobs 1 prints
    def no_pool(*args, **kwargs):
        raise AssertionError("verify started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["verify", "root:E7:7", "--suites", "jacobi", "--seed", "9", "--samples", "1200"]
    assert main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a failing target: both runs name the first failing sample as witness
    bad = tmp_path / "bad.json"
    g = corrupted_copy(rootdata.build_split_lie("A", 6), 0, 47, 3, 1)
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


def test_classify_decides_large_places_at_once(tmp_path, capsys):
    # a 15-digit prime place gets the classes trial division gave, at once;
    # a composite is refused, and so is a 30-digit place, which lies past the
    # bound where Miller-Rabin on the bases 2..37 is proven exact
    path = tmp_path / "el.json"
    path.write_text(json.dumps({"algebra": "jordan:H3:field", "element": {"diag": ["2", "3", "-5"]}}))
    code, out, _ = run(capsys, "classify", str(path), "--places", "inf,100000000000031,2")
    assert code == 0
    assert json.loads(out)["local_classes"] == {"100000000000031": "v0,u-1", "2": "v1,u1", "inf": "-"}
    code, out, err = run(capsys, "classify", str(path), "--places", "inf,100000000000033")
    _assert_usage_error(code, out, err, "100000000000033 is not a prime")
    code, out, err = run(capsys, "classify", str(path), "--places", "inf,100000000000000000000000000319")
    _assert_usage_error(code, out, err, "place 100000000000000000000000000319 is too large")


@pytest.mark.parametrize(
    "diag, places, needle",
    [
        (["2", "0", "-5"], "inf,6", "6 is not a prime"),
        (["2", "1", "-5"], "inf,6", "6 is not a prime"),
        (["2", "0", "-5"], "inf,100000000000000000000000000319", "place 100000000000000000000000000319 is too large"),
        (["0", "0", "0"], "oo,-3", "-3 is not a prime"),
    ],
    ids=["rank-deficient", "full-rank", "over-bound", "zero-element"],
)
def test_classify_checks_every_place(tmp_path, capsys, diag, places, needle):
    # a place is refused whatever the element: below full rank no local
    # class is computed, yet a composite or over-bound place still exits 2
    path = tmp_path / "el.json"
    path.write_text(json.dumps({"algebra": "jordan:H3:field", "element": {"diag": diag}}))
    code, out, err = run(capsys, "classify", str(path), "--places", places)
    _assert_usage_error(code, out, err, needle)


class TableBuilt(Exception):
    pass


@pytest.fixture
def no_tables(monkeypatch):
    """Any Jordan table or J2 Gram being made raises TableBuilt."""

    def refuse(*args):
        raise TableBuilt

    monkeypatch.setattr(jordan.HermitianJordan, "_build_scaled_table", refuse)
    monkeypatch.setattr(jordan.QuadraticJordan, "_build_scaled_table", refuse)
    monkeypatch.setattr(cli, "_gram_matrix", refuse)


@pytest.mark.parametrize(
    "descriptor, dim",
    [
        ("jordan:H99999:field", 4999950000),
        ("jordan:H40:split-complex", 1600),
        ("jordan:H13:field", 91),
        ("jordan:H7:quaternion:1/3,-5/7", 91),
        ("jordan:J2:dim=81", 83),
        ("jordan:J2:dim=99999:gram=split", 100001),
    ],
)
def test_oversized_jordan_descriptors_are_refused_before_any_table(no_tables, tmp_path, capsys, descriptor, dim):
    # kkt(J) has dimension at least 3 dim J, so past 248 // 3 = 82 it could
    # not fit; the size is read off the descriptor and no table is made
    needle = f"{descriptor!r} has dimension {dim}, above 82: its Lie algebra would pass dimension 248"
    for argv in (["build", descriptor], ["verify", descriptor], ["export", descriptor]):
        _assert_usage_error(*run(capsys, *argv), needle)
    path = tmp_path / "el.json"
    path.write_text(json.dumps({"algebra": descriptor, "element": {"diag": []}}))
    _assert_usage_error(*run(capsys, "classify", str(path)), needle)


@pytest.mark.parametrize(
    "descriptor", ["jordan:H12:field", "jordan:H6:quaternion:split", "jordan:J2:dim=80", "jordan:H5:octonion:split"]
)
def test_jordan_descriptors_up_to_the_bound_reach_their_tables(no_tables, descriptor):
    # dimension 78, 66 and 82 pass the size check; H5 over the octonions
    # (85) keeps its own message, from hermitian(), which builds no table
    if "octonion" in descriptor:
        with pytest.raises(InvalidParameter, match="only form a Jordan algebra at r = 3"):
            parse_jordan_descriptor(descriptor)
    else:
        with pytest.raises(TableBuilt):
            parse_jordan_descriptor(descriptor)


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
        # a key has one spelling: a second one of "1,2" must not overwrite
        # the first, and a non-ASCII digit is no digit
        pytest.param(
            _h3_upper({"1,2": {"coeffs": ["5"]}, "01,2": {"coeffs": ["7"]}}),
            "upper key '01,2': need \"i,j\" with 1 <= i < j <= 3",
            id="upper-key-leading-zero-beside-its-plain-spelling",
        ),
        pytest.param(
            _h3_upper({"\u0661,2": {"coeffs": ["1"]}}),
            "upper key '\u0661,2': need \"i,j\" with 1 <= i < j <= 3",
            id="upper-key-non-ascii-digit",
        ),
    ]
    + [
        pytest.param(
            _h3_upper({key: {"coeffs": ["1"]}}),
            f"upper key '{key}': need \"i,j\" with 1 <= i < j <= 3",
            id=f"upper-key-{key}",
        )
        for key in ("2,1", "0,2", "1,4", "01,2")
    ],
)
def test_classify_malformed_element(tmp_path, capsys, doc, needle):
    path = tmp_path / "el.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path))
    _assert_usage_error(code, out, err, needle)

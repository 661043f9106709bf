"""The CLI's error contract: malformed input and failed constructions exit 2
with a one-line message; any other exception is a fault and propagates."""

import json

import pytest

from jordanlie import cli, linalg, verify


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("data", [b"not json", b'{"basis": [', b"\xff\xfe\x81 not utf-8"])
def test_a_file_that_is_not_json_is_malformed_input(tmp_path, capsys, command, data):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    assert cli.main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err.count("\n")) == ("", 1) and " is not JSON: " in err


LONG = "7" * 5000  # past Python's 4300-digit limit on int conversion


@pytest.mark.parametrize(
    "argv",
    [
        ["build", f"root:A:{LONG}"],
        ["verify", f"root:A:2:node={LONG}"],
        ["build", f"jordan:J2:dim=2:gram=1/{LONG},1"],
        ["build", f"jordan:H2:complex:{LONG}"],
    ],
)
def test_an_over_long_integer_is_malformed_input(capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err.count("\n")) == ("", 1) and err.startswith("error: integer too long in ")


@pytest.mark.parametrize(
    "doc",
    [
        {"basis": [{"label": "a"}, {"label": "b"}], "brackets": [[0, 1, [[0, LONG]]]]},
        {"algebra": "jordan:H2:field", "element": {"diag": ["1", "2"], "upper": {f"1{LONG},2": {"coeffs": ["1"]}}}},
        {"algebra": "jordan:H2:field", "element": {"diag": ["1", f"1/{LONG}"]}},
    ],
)
def test_an_over_long_integer_in_a_document_is_malformed_input(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["classify" if "element" in doc else "verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err.count("\n")) == ("", 1) and "integer too long in " in err


def test_value_error_inside_a_command_propagates(monkeypatch):
    def broken(g):
        raise ValueError("internal fault")

    monkeypatch.setattr(verify, "suite_killing", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["verify", "root:A:2", "--suites", "killing"])


@pytest.mark.parametrize(
    "failing_call, name",
    [
        (1, "coefficient-algebra basis matrix"),
        (2, "coordinatization matrix"),
        (3, "w matrix of the graded algebra"),
    ],
)
def test_singular_inverse_in_cross_validate_names_its_matrix(monkeypatch, capsys, failing_call, name):
    # cross-validate on C3 node 3 inverts these three matrices, in this
    # order; the failing call hands the int invert the matrix with its first
    # row zeroed, and the others get its ints over one positive denominator
    invert, calls = linalg.invert, []

    def singular_at_call(mat):
        calls.append(len(mat))
        if len(calls) == failing_call:
            mat = [[0] * len(mat)] + list(mat[1:])
        cols, den = invert(mat)
        assert den > 0 and all(type(c) is int for col in cols for c in col.values())
        return cols, den

    monkeypatch.setattr(linalg, "invert", singular_at_call)
    code = cli.main(["verify", "root:C:3:node=3", "--suites", "cross-validate"])
    assert (code, capsys.readouterr().err) == (2, f"error: {name} is singular\n")
    assert len(calls) == failing_call

"""Output checks by meaning, and the invariant counters read from outputs.

Each check function returns a list of failure strings; an operation with a
non-empty list counts as failed.  Nothing here compares output bytes: stdout
digests are recorded as information only.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# Invariants of the two E7 builds.  A change to any of them means the build
# stores different structure constants, so the operation counts as failed.
EXPECTED = {
    "kkt": {
        "dim": 133,
        "m_dim": 79,
        "degree_blocks": (27, 79, 27),
        "brackets_stored": 4593,
        "constants_nonzero": 5313,
        "max_num_bits": 2,
        "max_den_bits": 2,
    },
    "rootdata": {
        "dim": 133,
        "brackets_stored": 2541,
        "constants_nonzero": 2772,
    },
}

SUITE_LINE = re.compile(r"^(?P<suite>[\w-]+): (?P<status>PASS|FAIL) \[(?P<checks>\d+) checks\](?P<rest>.*)$")

# The CLI marks sampled suites with "sampled" or "seed" in the note.
_SAMPLED_NOTE = re.compile(r"\((?:sampled|seed)\b")


def parse_suite_lines(stdout: str) -> list[dict]:
    """One dict per suite line; lines that do not parse are kept as errors."""
    out = []
    for line in stdout.splitlines():
        if not line.strip():
            continue
        m = SUITE_LINE.match(line)
        if m is None:
            out.append({"suite": None, "line": line})
            continue
        out.append(
            {
                "suite": m["suite"],
                "passed": m["status"] == "PASS",
                "checks": int(m["checks"]),
                "sampled": bool(_SAMPLED_NOTE.search(m["rest"])),
                "line": line,
            }
        )
    return out


def check_exit(returncode: int) -> list[str]:
    return [] if returncode == 0 else [f"exit code {returncode}"]


def check_verify(returncode: int, stdout: str, want_suites) -> tuple[list[str], list[dict]]:
    """Every expected suite printed exactly once, each reading PASS."""
    fails = check_exit(returncode)
    suites = parse_suite_lines(stdout)
    for s in suites:
        if s["suite"] is None:
            fails.append(f"unparsed output line {s['line']!r}")
        elif not s["passed"]:
            fails.append(f"suite failed: {s['line']}")
    got = [s["suite"] for s in suites if s["suite"] is not None]
    if got != list(want_suites):
        fails.append(f"suites {got}, expected {list(want_suites)}")
    return fails, suites


def invariants(obj: dict) -> dict:
    """Counters read from a structure-constant JSON object."""
    constants = [c for _, _, items in obj["brackets"] for _, c in items]
    fracs = [Fraction(c) for c in constants]
    degrees = [b.get("degree") for b in obj["basis"]]
    return {
        "dim": len(obj["basis"]),
        "m_dim": sum(1 for d in degrees if d == 0),
        "degree_blocks": tuple(sum(1 for d in degrees if d == k) for k in (-2, 0, 2)),
        "brackets_stored": len(obj["brackets"]),
        "constants_nonzero": sum(1 for f in fracs if f),
        "max_num_bits": max((abs(f.numerator).bit_length() for f in fracs), default=0),
        "max_den_bits": max((f.denominator.bit_length() for f in fracs), default=0),
    }


def check_build(returncode: int, stdout: str, road: str, kkt_mod) -> tuple[list[str], dict]:
    """A build must exit 0, load through kkt.from_json with the expected
    dimension, and carry the expected invariants for its road."""
    fails = check_exit(returncode)
    try:
        obj = json.loads(stdout)
        g = kkt_mod.from_json(obj)
    except Exception as exc:  # any parse or load error is a failed operation
        return fails + [f"build output does not load: {type(exc).__name__}: {exc}"], {}
    inv = invariants(obj)
    want = EXPECTED[road]
    if g.dim != want["dim"]:
        fails.append(f"from_json dim {g.dim}, expected {want['dim']}")
    if road == "kkt":
        if g.grading is None:
            fails.append("kkt build carries no grading")
        elif inv["degree_blocks"] != want["degree_blocks"]:
            fails.append(f"degree blocks {inv['degree_blocks']}, expected {want['degree_blocks']}")
    for key, val in want.items():
        if key not in ("dim", "degree_blocks") and inv[key] != val:
            fails.append(f"{road} {key} = {inv[key]}, expected {val}")
    return fails, inv


# ---------------------------------------------------------------------------
# element-arith: the AC5 loop plus inverse and classification, per element
# ---------------------------------------------------------------------------

PLACES = ("inf", 2, 3, 5, 7, 11)


def _log_from_report(report: dict, alg, orbits_mod):
    steps = []
    for s in report["log"]:
        if s["kind"] == "permutation":
            steps.append(orbits_mod.FramePermutation(tuple(s["perm"])))
            continue
        coeffs = [Fraction(c) for c in s["u"]]
        param = alg.coeff_algebra.element(coeffs) if alg.variant == "hermitian" else tuple(coeffs)
        steps.append(orbits_mod.Transvection(s["i"], s["j"], param))
    return steps


def _diagonal_element(report: dict, alg):
    diag = [Fraction(c) for c in report["diagonal"]]
    if alg.variant == "hermitian":
        return alg.from_entries(diag, {})
    return alg.from_parts(diag[0], diag[1], [Fraction(0)] * alg.v_dim)


def check_element(alg, x, y, jordan_mod, orbits_mod) -> list[str]:
    """Jordan identity, power associativity to degree 6, Cayley-Hamilton at
    degree r, x o x^-1 = e when N(x) != 0, and a replayable classify log."""
    fails = []
    sq = x * x
    if (sq * y) * x != sq * (y * x):
        fails.append("Jordan identity")
    powers = [alg.identity, x]
    for _ in range(5):
        powers.append(powers[-1] * x)
    for m in range(1, 6):
        for n in range(m, 7 - m):
            if powers[m] * powers[n] != powers[m + n]:
                fails.append(f"power associativity x^{m} x^{n}")
    mp = jordan_mod.generic_min_poly(x)
    coeffs = mp.char_coeffs
    if len(coeffs) != alg.degree + 1:
        fails.append(f"characteristic polynomial of degree {len(coeffs) - 1}")
    acc = alg.zero()
    for k, c in enumerate(coeffs):
        if c:
            acc = acc + c * powers[k]
    if not acc.is_zero():
        fails.append("Cayley-Hamilton")
    if mp.norm != 0:
        inv = jordan_mod.jordan_inverse(x)
        if x * inv != alg.identity:
            fails.append("x o x^-1 != e")
    report = orbits_mod.classify(x, PLACES)
    reached = orbits_mod.replay(_log_from_report(report, alg, orbits_mod), x)
    if reached != _diagonal_element(report, alg):
        fails.append("classify log does not replay onto the reported diagonal")
    if report["rank"] != sum(1 for c in report["diagonal"] if Fraction(c)):
        fails.append("classify rank disagrees with the diagonal")
    return fails

"""Negative controls for the benchmark's output checks.

    python3 -m pytest perfbench

Each broken output must be counted as a failed operation, and the matching
good output must not be.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from jordanlie import cli, jordan, kkt, orbits  # noqa: E402

GOOD_VERIFY = (
    "jacobi: PASS [1000 checks] (sampled, seed 0)\n"
    "killing: PASS [1001 checks]\n"
    "q-composition: PASS [1000 checks] (seed 0)\n"
    "cross-validate: PASS [8778 checks] (E77 node 7, dim 133)\n"
)


@pytest.fixture
def bench(tmp_path):
    args = argparse.Namespace(seed=0, seconds=1.0, trace=0)
    return run.Bench(args, ROOT, str(tmp_path))


@pytest.fixture(scope="module")
def e7_kkt_json():
    g = kkt.build_kkt(cli.parse_jordan_descriptor("jordan:H3:octonion:split"))
    return json.dumps(kkt.to_json(g))


def _verify_result(code, text):
    return {"returncode": code, "stdout": text.encode(), "stderr": "", "wall": 1.0, "maxrss_kb": 1}


def _count(bench, spec, res):
    fails, _ = bench.check_cli(spec, res)
    bench.record(spec["kind"], fails, res)
    return bench.attempted, len(bench.failures)


def test_passing_verify_is_not_a_failure(bench):
    spec = bench.cli_kinds("e7-two-roads")[2]
    assert _count(bench, spec, _verify_result(0, GOOD_VERIFY)) == (1, 0)


def test_fail_line_is_a_failed_operation(bench):
    spec = bench.cli_kinds("e7-two-roads")[2]
    text = GOOD_VERIFY.replace("killing: PASS", "killing: FAIL")
    assert _count(bench, spec, _verify_result(0, text)) == (1, 1)


def test_nonzero_exit_is_a_failed_operation(bench):
    spec = bench.cli_kinds("e7-two-roads")[2]
    assert _count(bench, spec, _verify_result(1, GOOD_VERIFY)) == (1, 1)


def test_missing_suite_line_is_a_failed_operation(bench):
    spec = bench.cli_kinds("e7-two-roads")[2]
    text = "\n".join(GOOD_VERIFY.splitlines()[:3]) + "\n"
    assert _count(bench, spec, _verify_result(0, text)) == (1, 1)


def test_good_build_json_passes_with_expected_invariants(bench, e7_kkt_json):
    spec = bench.cli_kinds("e7-two-roads")[0]
    assert _count(bench, spec, _verify_result(0, e7_kkt_json)) == (1, 0)
    assert bench.invariants["kkt.brackets_stored"] == 4593
    assert bench.invariants["kkt.constants_nonzero"] == 5313


def test_dropped_bracket_is_a_failed_operation(bench, e7_kkt_json):
    obj = json.loads(e7_kkt_json)
    del obj["brackets"][len(obj["brackets"]) // 2]
    spec = bench.cli_kinds("e7-two-roads")[0]
    assert _count(bench, spec, _verify_result(0, json.dumps(obj))) == (1, 1)
    assert "brackets_stored" in bench.failures[0]["fails"][0]


def test_unloadable_build_json_is_a_failed_operation(bench):
    spec = bench.cli_kinds("e7-two-roads")[1]
    assert _count(bench, spec, _verify_result(0, '{"basis": []')) == (1, 1)


def _element(alg, seed):
    import random

    rng = random.Random(seed)
    return [alg.element([Fraction(rng.randint(-9, 9)) for _ in range(alg.dim)]) for _ in range(2)]


@pytest.mark.parametrize("desc", ["jordan:H3:split-complex", "jordan:J2:dim=4:gram=split"])
def test_good_element_passes(desc):
    alg = cli.parse_jordan_descriptor(desc)
    x, y = _element(alg, 1)
    assert checks.check_element(alg, x, y, jordan, orbits) == []


def test_broken_cayley_hamilton_is_a_failed_element(monkeypatch):
    alg = cli.parse_jordan_descriptor("jordan:H3:field")
    x, y = _element(alg, 2)
    real = jordan.generic_min_poly

    def broken(z):
        mp = real(z)
        c = list(mp.char_coeffs)
        c[0] += 1
        return replace(mp, char_coeffs=tuple(c))

    monkeypatch.setattr(jordan, "generic_min_poly", broken)
    assert "Cayley-Hamilton" in checks.check_element(alg, x, y, jordan, orbits)


def test_wrong_classify_diagonal_is_a_failed_element(monkeypatch):
    alg = cli.parse_jordan_descriptor("jordan:H2:field")
    x, y = _element(alg, 3)
    real = orbits.classify

    def shifted(z, places):
        rep = real(z, places)
        rep["diagonal"] = [str(Fraction(rep["diagonal"][0]) + 1)] + rep["diagonal"][1:]
        return rep

    monkeypatch.setattr(orbits, "classify", shifted)
    fails = checks.check_element(alg, x, y, jordan, orbits)
    assert any("replay" in f for f in fails)

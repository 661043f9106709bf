"""What the benchmark reads from jordanlie from outside.  The span tracer
wraps jordanlie names: every name it lists must exist, or
``perfbench/run.py --trace 1`` breaks.  Its checks count a suite line as
sampled when the line says so: only Jacobi may."""

import importlib
import importlib.util
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

from test_cli import GOLDEN_VERIFY_ARGS, GOLDEN_VERIFY_SHA256

from jordanlie import jordan, kkt, linalg, rootdata, verify
from jordanlie.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    # the lookup SpanRecorder.install makes: a module attribute, or a
    # method in the class's own __dict__
    missing = []
    for mod_name, path in _load("spans").TRACED:
        owner = importlib.import_module(f"jordanlie.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        found = owner is not None and (
            attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        )
        if not (found and callable(getattr(owner, attr))):
            missing.append(f"{mod_name}.{path}")
    assert missing == []


def _verify_lines(capsys, *argv):
    code = main(["verify", *argv])
    assert code == 0, argv
    return _load("checks").parse_suite_lines(capsys.readouterr().out)


def test_only_jacobi_is_sampled(capsys):
    suites = _verify_lines(capsys, "root:E7:7", "--suites", "jacobi,killing,q-composition")
    got = [(s["suite"], s["sampled"]) for s in suites]
    assert got == [("jacobi", True), ("killing", False), ("q-composition", False)]
    for target in GOLDEN_VERIFY_SHA256:
        for s in _verify_lines(capsys, target, *GOLDEN_VERIFY_ARGS.get(target, [])):
            assert s["suite"] == "jacobi" or not (s["sampled"] or "seed" in s["line"]), s


def test_from_json_holds_only_the_bracket_table(kkt_builds, split_builds):
    # perfbench runs every operation in a child of one parent process, and
    # each child inherits that parent's RSS high-water mark.  The parent calls
    # kkt.from_json on every build output, so what from_json holds, and its
    # peak on the way, set the floor of peak_rss_mb: the table is the only
    # bracket store, and no Fraction copy of the brackets is held beside it.
    for built in (kkt_builds("E7"), split_builds("E7", 7)):
        obj = kkt.to_json(built)
        tracemalloc.start()
        try:
            g = kkt.from_json(obj)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not hasattr(g, "brackets")
        assert g.table == built.table
        assert peak <= 1.25 * held, (held, peak)


def test_build_kkt_spans_m_without_the_trace_form(monkeypatch, family_instances):
    # m of H3(O) is spanned by the 27 L_k and the 351 [L_i, L_j]: n(n+1)/2
    # inserts, and no characteristic polynomial is interpolated.  perfbench
    # reports both counts as jordan.generic_min_poly.calls and
    # linalg.EchelonBasis.insert.calls.
    traced = set(_load("spans").TRACED)
    assert {("jordan", "generic_min_poly"), ("linalg", "EchelonBasis.insert")} <= traced
    J = family_instances["E7"]
    calls = {"generic_min_poly": 0, "insert": 0}
    min_poly, insert = jordan.generic_min_poly, linalg.EchelonBasis.insert

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(jordan, "generic_min_poly", counted("generic_min_poly", min_poly))
    monkeypatch.setattr(linalg.EchelonBasis, "insert", counted("insert", insert))
    kkt.build_kkt(J)
    assert J.dim * (J.dim + 1) // 2 == 378
    assert calls == {"generic_min_poly": 0, "insert": 378}


def _count_fraction_arithmetic(monkeypatch, calls):
    for op in ("__mul__", "__rmul__", "__add__", "__radd__"):
        original = getattr(Fraction, op)

        def counted(*args, _op=op, _fn=original):
            calls.append(_op)
            return _fn(*args)

        monkeypatch.setattr(Fraction, op, counted)


def test_sampled_jacobi_makes_no_fraction_arithmetic(monkeypatch, kkt_builds):
    # the bracket table is ints over one denominator, so a passing Jacobi run
    # (a JSON round trip that builds the table included) adds and multiplies
    # no Fraction, and it draws randrange's triples in blocks of generator
    # words, never one randrange call per index; perfbench times it and the
    # bracket reads around it under these names
    traced = set(_load("spans").TRACED)
    names = {("kkt", "LieAlgebra.bracket"), ("kkt", "LieAlgebra.killing_matrix")}
    assert names | {("verify", "suite_jacobi")} <= traced
    built = kkt_builds("E7")
    calls = []
    _count_fraction_arithmetic(monkeypatch, calls)
    randrange = random.Random.randrange
    monkeypatch.setattr(
        random.Random, "randrange", lambda *args: calls.append("randrange") or randrange(*args)
    )
    g = kkt.from_json(kkt.to_json(built))
    res = verify.suite_jacobi(g, verify.Config(sample_count=1000))
    monkeypatch.undo()
    assert res.passed and res.checked == 1000
    assert calls == []


def test_split_build_makes_no_fraction_arithmetic(monkeypatch):
    # the Chevalley constants are ints on positive-root indices and the root
    # sums are read from one pass over the positive pairs, so the E7 build
    # adds and multiplies no Fraction and tests no signed sum with is_root
    assert ("rootdata", "build_split_lie") in set(_load("spans").TRACED)
    calls = []
    _count_fraction_arithmetic(monkeypatch, calls)
    is_root = rootdata.RootSystem.is_root
    monkeypatch.setattr(
        rootdata.RootSystem, "is_root", lambda *args: calls.append("is_root") or is_root(*args)
    )
    g = rootdata.build_split_lie("E7", 7)
    monkeypatch.undo()
    assert g.dim == 133 and g.table.den == 1
    assert calls == []


def test_cross_validate_compares_its_pairs_in_ints(monkeypatch, split_builds):
    # the 8,778 pairs of E7 node 7 are compared on the integer tables, so
    # cross_validate's own frame reads no bracket; the transport of the -2
    # block (w_map) and the Jordan side it coordinatizes still do
    assert ("rootdata", "cross_validate") in set(_load("spans").TRACED)
    p = rootdata.parabolic(split_builds("E7", 7), 7)
    callers = {}
    bracket = kkt.LieAlgebra.bracket

    def counted(self, x, y):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        callers[frame.f_code.co_name] = callers.get(frame.f_code.co_name, 0) + 1
        return bracket(self, x, y)

    monkeypatch.setattr(kkt.LieAlgebra, "bracket", counted)
    cv = rootdata.cross_validate(p)
    monkeypatch.undo()
    assert cv.ok and cv.dim == 133
    assert callers == {"w_map": 108, "jordan_from_roots": 756, "q_forms": 48}


def test_q_composition_checks_make_no_fraction_arithmetic(monkeypatch, split_builds):
    # the Pierce Grams are scaled to ints once and a o b is read from the
    # integer Jordan table, so the 7,776 polarized identities of E7 node 7
    # are cross-multiplied in ints
    assert ("verify", "suite_q_composition") in set(_load("spans").TRACED)
    p = rootdata.parabolic(split_builds("E7", 7), 7)
    rj, forms = rootdata.jordan_from_roots(p), rootdata.q_forms(p)
    monkeypatch.setattr(rootdata, "jordan_from_roots", lambda _: rj)
    monkeypatch.setattr(rootdata, "q_forms", lambda _: forms)
    calls = []
    _count_fraction_arithmetic(monkeypatch, calls)
    res = verify.suite_q_composition(p, verify.Config())
    monkeypatch.undo()
    assert res.line() == "q-composition: PASS [7776 checks]"
    assert calls == []

"""What the benchmark reads from jordanlie from outside.  The span tracer
wraps jordanlie names: every name it lists must exist, or
``perfbench/run.py --trace 1`` breaks.  Its checks count a suite line as
sampled when the line says so: only Jacobi may."""

import importlib
import importlib.util
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

from test_cli import GOLDEN_VERIFY_ARGS, GOLDEN_VERIFY_SHA256

import jordanlie
from jordanlie import cli, jordan, kkt, linalg, orbits, rootdata, verify
from jordanlie.composition import algebra_from_table
from jordanlie.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the lines of every jordanlie module, read once the package is imported:
# _count_fraction_arithmetic reports a call's line from here, so an edit to a
# source file while the suite runs cannot shift what it reports
SOURCE = {str(path): path.read_text().splitlines() for path in Path(jordanlie.__file__).parent.glob("*.py")}


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


def test_build_kkt_forms_every_commutator_in_two_batched_runs(monkeypatch, family_instances):
    # the 351 [L_i, L_j] that span m with the 27 L_k come from one
    # op_commutators run, the 3,081 pairs of the m closure from a second, and
    # no pair is formed alone by op_commutator; a pair the kernel does not
    # yield commutes.  perfbench times both runs inside kkt.build_kkt
    assert ("kkt", "build_kkt") in set(_load("spans").TRACED)
    commutators, runs, single = linalg.op_commutators, [], []

    def counted(ops, n):
        runs.append([len(ops), 0])
        for comms in commutators(ops, n):
            runs[-1][1] += len(comms)
            yield comms

    monkeypatch.setattr(linalg, "op_commutator", lambda *args: single.append(args))
    monkeypatch.setattr(linalg, "op_commutators", counted)
    kkt.build_kkt(family_instances["E7"])
    pairs = [(n, nonzero, n * (n - 1) // 2) for n, nonzero in runs]
    assert (len(single), pairs) == (0, [(27, 324, 351), (79, 1848, 3081)])


def _count_trace_runs(monkeypatch):
    """The (operators, n, caller's function name) of every op_trace_products run."""
    products, runs = linalg.op_trace_products, []

    def counted(ops, n):
        runs.append((len(ops), n, sys._getframe(1).f_code.co_name))
        yield from products(ops, n)

    monkeypatch.setattr(linalg, "op_trace_products", counted)
    return runs


def test_killing_matrix_traces_in_one_batched_run(monkeypatch, kkt_builds, tmp_path, capsys):
    # verifying the kkt E7 JSON, as perfbench's bracket-read workload does,
    # forms every trace of the Killing Gram in one op_trace_products run over
    # the table's 133 rows, made inside LieAlgebra.killing_matrix, so the
    # traced span keeps the Gram's time
    assert ("kkt", "LieAlgebra.killing_matrix") in set(_load("spans").TRACED)
    path = tmp_path / "e7.json"
    path.write_text(json.dumps(kkt.to_json(kkt_builds("E7"))))
    runs = _count_trace_runs(monkeypatch)
    code = main(["verify", str(path), "--suites", "grading,killing"])
    assert (code, runs) == (0, [(133, 133, "killing_matrix")])
    assert capsys.readouterr().out.endswith("killing: PASS [2361550 checks]\n")


def test_one_trace_gram_serves_every_root_suite(monkeypatch, capsys):
    # the default verify of root:E7:7 reads the Killing form in killing,
    # q-composition and cross-validate from one Gram; build reads none
    runs = _count_trace_runs(monkeypatch)
    assert main(["verify", "root:E7:7"]) == 0
    assert main(["build", "root:E7:7"]) == 0
    capsys.readouterr()
    assert runs == [(133, 133, "killing_matrix")]


def _caller(frame):
    """The function frame that runs frame's code: a comprehension's or a
    lambda's own frame is skipped."""
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame


def _count_fraction_arithmetic(monkeypatch, calls):
    """Record (op, function, source line) for every Fraction * and + made;
    the line is read from SOURCE, or is file:line outside jordanlie."""
    for op in ("__mul__", "__rmul__", "__add__", "__radd__"):
        original = getattr(Fraction, op)

        def counted(*args, _op=op, _fn=original):
            frame = _caller(sys._getframe(1))
            path, lineno = frame.f_code.co_filename, frame.f_lineno
            line = SOURCE[path][lineno - 1].strip() if path in SOURCE else f"{path}:{lineno}"
            calls.append((_op, frame.f_code.co_name, line))
            return _fn(*args)

        monkeypatch.setattr(Fraction, op, counted)


def test_build_kkt_makes_no_fraction_arithmetic(monkeypatch, family_instances):
    # the echelon of the span holds ints, the m basis is read from it in ints
    # over D, and the companion loop and the closure run on that, so only
    # the lines that build h, the triple and the norm pair may add or
    # multiply a Fraction; perfbench times the echelon under this name
    assert ("linalg", "EchelonBasis.insert") in set(_load("spans").TRACED)
    J = family_instances["E7"]
    calls = []
    _count_fraction_arithmetic(monkeypatch, calls)
    kkt.build_kkt(J)
    monkeypatch.undo()
    where = {(name, line.split(" = ")[0]) for _, name, line in calls}
    assert where <= {("build_kkt", "h"), ("build_kkt", "triple"), ("build_kkt", "norm_pair")}


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


def test_element_arithmetic_makes_no_fraction_arithmetic(monkeypatch, family_instances):
    # Jordan elements are ints over one denominator and their products run on
    # the int plan, so AC5's loop body on E7 (seed and bounds as in AC5) and
    # jordan_inverse add and multiply no Fraction inside jordanlie: the only
    # Fraction * is the loop's own c * powers[k], which Fraction declines
    # before the element's __rmul__ takes it
    traced = set(_load("spans").TRACED)
    assert {("jordan", "JordanAlgebra.mul_vec"), ("jordan", "jordan_inverse")} <= traced
    alg = family_instances["E7"]
    rng = random.Random(100)
    calls = []
    _count_fraction_arithmetic(monkeypatch, calls)
    for _ in range(5):
        x = alg.element([Fraction(rng.randint(-9, 9)) for _ in range(alg.dim)])
        y = alg.element([Fraction(rng.randint(-9, 9)) for _ in range(alg.dim)])
        sq = x * x
        assert (sq * y) * x == sq * (y * x)
        powers = [alg.identity, x]
        for _k in range(5):
            powers.append(powers[-1] * x)
        for m in range(1, 6):
            for n in range(m, 7 - m):
                assert powers[m] * powers[n] == powers[m + n]
        mp = jordan.generic_min_poly(x)
        acc = alg.zero()
        for k, c in enumerate(mp.char_coeffs):
            if c:
                acc = acc + c * powers[k]
        assert acc.is_zero() and len(mp.char_coeffs) == 4
        assert mp.norm != 0 and x * jordan.jordan_inverse(x) == alg.identity
    monkeypatch.undo()
    here = sys._getframe().f_code.co_name
    assert calls and {(op, name) for op, name, _ in calls} == {("__mul__", here)}


def test_orbit_steps_make_no_fraction_arithmetic(monkeypatch, family_instances):
    # a hermitian transvection runs on the element's ints and diagonalize
    # tests its pivots on them and forms each parameter by one division, so
    # replaying a classify log and diagonalizing add and multiply no Fraction
    # inside jordanlie; perfbench times them under these names
    traced = set(_load("spans").TRACED)
    assert {("orbits", "classify"), ("orbits", "diagonalize"), ("orbits", "replay")} <= traced
    log_from_report = _load("checks")._log_from_report
    rng = random.Random(27)
    cases = []
    for name in ("E7", "A5"):
        alg = family_instances[name]
        for n in range(9):
            # a zero first diagonal entry makes a frame permutation and an
            # all-zero diagonal a trace-dual pivot, besides the elimination
            vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(alg.dim)]
            zeros = (0, 1, alg.r)[n % 3]
            vec[:zeros] = [Fraction(0)] * zeros
            x = alg.element(vec)
            cases.append((x, log_from_report(orbits.classify(x), alg, orbits)))
    steps = [(x.algebra.coeff_algebra, s) for x, log in cases for s in log]
    assert len(steps) >= 50 and any(isinstance(s, orbits.FramePermutation) for _, s in steps)
    assert any(isinstance(s, orbits.Transvection) and s.param in D.basis() for D, s in steps)
    calls = []
    _count_fraction_arithmetic(monkeypatch, calls)
    results = [(orbits.replay(log, x), orbits.diagonalize(x)) for x, log in cases]
    monkeypatch.undo()
    assert calls == []
    for reached, res in results:
        assert reached == reached.algebra.from_entries(res.diagonal, {})


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
    # cross_validate's own frame reads no bracket, and the Jordan side it
    # coordinatizes (jordan_from_roots, q_forms) reads the table's cells; only
    # the transport of the -2 block (w_map) still calls bracket
    assert ("rootdata", "cross_validate") in set(_load("spans").TRACED)
    p = rootdata.parabolic(split_builds("E7", 7), 7)
    callers = {}
    bracket = kkt.LieAlgebra.bracket

    def counted(self, x, y):
        frame = _caller(sys._getframe(1))
        callers[frame.f_code.co_name] = callers.get(frame.f_code.co_name, 0) + 1
        return bracket(self, x, y)

    monkeypatch.setattr(kkt.LieAlgebra, "bracket", counted)
    cv = rootdata.cross_validate(p)
    monkeypatch.undo()
    assert cv.ok and cv.dim == 133
    assert callers == {"w_map": 108}


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


def test_coordinatize_makes_fraction_arithmetic_only_on_readout_lines(monkeypatch, split_builds):
    # the Jordan product, the Pierce Grams, the unit search, the {x, y}
    # chain, the local coordinates and the coefficient Gram run on ints and
    # divide once per output constant, the unit, conjugation and composition
    # checks of the coefficient algebra compare ints, and so does the model's
    # own table build, so what adds or multiplies a Fraction in coordinatize
    # (E7 node 7) is the readout: the rescaled triples and forms of p2, and
    # the product of pivots of the norm Gram's determinant
    traced = set(_load("spans").TRACED)
    names = {("rootdata", n) for n in ("coordinatize", "jordan_from_roots", "q_forms")}
    assert names | {("jordan", "hermitian")} <= traced
    p = rootdata.parabolic(split_builds("E7", 7), 7)
    calls = []
    _count_fraction_arithmetic(monkeypatch, calls)
    co = rootdata.coordinatize(p)
    monkeypatch.undo()
    assert co.model.dim == 27
    readout = {
        ("_rescaled_parabolic", "e={k: c * s for k, c in t.e.items()},"),
        ("coordinatize", "s = scales[i - 1] * scales[j - 1]"),
        ("det", "d *= lead"),
    }
    assert {(name, line) for _, name, line in calls} <= readout


def test_jordan_tables_make_no_fraction_arithmetic(monkeypatch, split_builds):
    # the Cayley-Dickson doubling, the composition-law check, the hermitian
    # matrix-unit products and the quadratic table run on ints and divide
    # once per table constant, so building every perfbench family, three
    # algebras with non-integral doubling parameters and the hermitian models
    # on the coefficient tables coordinatized at A5 node 3 and E7 node 7 adds
    # and multiplies a Fraction only in the product of pivots of a Gram's
    # determinant; perfbench times the builds under these names
    traced = set(_load("spans").TRACED)
    assert {("jordan", "hermitian"), ("jordan", "quadratic"), ("composition", "build_composition")} <= traced
    descriptors = list(_load("child").FAMILIES.values())
    descriptors += ["jordan:H3:complex:-7/4", "jordan:H2:quaternion:1/3,-5/7", "jordan:H3:octonion:-1,-1,-1"]
    tables = []
    for lie, node in ((("A", 5), 3), (("E7", 7), 7)):
        model = rootdata.coordinatize(rootdata.parabolic(split_builds(*lie), node)).model
        D = model.coeff_algebra
        cells = [[[cell.get(k, 0) for k in range(D.dim)] for cell in row] for row in D.mul_table]
        tables.append((model.r, cells, D.norm_gram, model))
    calls = []
    _count_fraction_arithmetic(monkeypatch, calls)
    built = [cli.parse_jordan_descriptor(text) for text in descriptors]
    models = [(jordan.hermitian(r, algebra_from_table(cells, gram)), model) for r, cells, gram, model in tables]
    monkeypatch.undo()
    assert [J.dim for J in built] == [3, 6, 4, 9, 5, 6, 27, 9, 6, 27]
    for J, model in models:
        assert (J.mul_table, J.scaled) == (model.mul_table, model.scaled)
    assert {(name, line) for _, name, line in calls} == {("det", "d *= lead")}

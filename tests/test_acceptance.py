"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible under ``pytest -s``);
a failure surfaces through the usual assertion machinery.
"""

import functools
import itertools
import random
import time
from fractions import Fraction as Q

import pytest

from jordanlie import jordan, kkt, linalg, orbits, rootdata, verify
from jordanlie.composition import build_composition
from jordanlie.jordan import generic_min_poly, jordan_norm, jordan_trace, pierce

from conftest import _kkt_cache, ca_norm, corrupted_copy, split_gram, stored_brackets

# (type, rank, node, jordan-side constructor args, expected (dim n, r, d))
INSTANCES = {
    "C2": ("C", 2, 2, (3, 2, 1)),
    "C3": ("C", 3, 3, (6, 3, 1)),
    "A3": ("A", 3, 2, (4, 2, 2)),
    "A5": ("A", 5, 3, (9, 3, 2)),
    "B3": ("B", 3, 1, (5, 2, 3)),
    "D4": ("D", 4, 1, (6, 2, 4)),
    "E7": ("E7", 7, 7, (27, 3, 8)),
}


def fresh_jordan(name):
    if name in ("C2", "C3"):
        return jordan.hermitian(int(name[1]), build_composition(1, []))
    if name in ("A3", "A5"):
        return jordan.hermitian({"A3": 2, "A5": 3}[name], build_composition(2, [1]))
    if name == "B3":
        return jordan.quadratic(split_gram(3))
    if name == "D4":
        return jordan.quadratic(split_gram(4))
    return jordan.hermitian(3, build_composition(8, [1, 1, 1]))


def jordan_side_triple(J):
    return (J.dim, J.degree, pierce(J).off_diagonal_dim)


def root_side_parabolic(split_builds, name):
    tl, rk, node, _ = INSTANCES[name]
    return rootdata.parabolic(split_builds(tl, rk), node)


def root_side_triple(split_builds, name):
    p = root_side_parabolic(split_builds, name)
    r = p.degree
    dims = {
        len(p.pierce_roots(i, j))
        for i in range(1, r + 1)
        for j in range(i + 1, r + 1)
    }
    assert len(dims) == 1
    return (len(p.n_roots), r, dims.pop())


def test_ac1_table_reproduction(split_builds):
    t0 = time.monotonic()
    for name in ("C2", "C3", "A3", "A5", "B3", "D4"):
        expected = INSTANCES[name][3]
        J = fresh_jordan(name)
        g = kkt.build_kkt(J)
        _kkt_cache.setdefault(name, g)
        assert jordan_side_triple(J) == expected, name
        assert root_side_triple(split_builds, name) == expected, name
    small = time.monotonic() - t0
    assert small < 10, f"non-E7 table reproduction took {small:.1f}s"
    t1 = time.monotonic()
    J7 = fresh_jordan("E7")
    g7 = kkt.build_kkt(J7)
    _kkt_cache.setdefault("E7", g7)
    e7_build = time.monotonic() - t1
    assert jordan_side_triple(J7) == (27, 3, 8)
    assert root_side_triple(split_builds, "E7") == (27, 3, 8)
    assert e7_build < 300, f"E7 build took {e7_build:.1f}s"
    print(
        f"\nAC1 table reproduction ((dim n, r, d) both paths, "
        f"{small:.1f}s small / {e7_build:.1f}s E7): PASS"
    )


def test_ac2_jacobi(kkt_builds, split_builds):
    cfg_small = verify.Config(seed=0, sample_count=1)
    checked = []
    for name in ("C2", "C3", "A3", "A5", "B3", "D4"):
        for g in (kkt_builds(name), split_builds(*INSTANCES[name][:2])):
            assert g.dim <= 36
            res = verify.suite_jacobi(g, cfg_small)
            assert res.passed and res.note == "exhaustive", (name, res.line())
            checked.append(res.checked)
    t0 = time.monotonic()
    cfg_big = verify.Config(seed=42, sample_count=100000)
    for g in (kkt_builds("E7"), split_builds("E7", 7)):
        assert g.dim == 133
        res = verify.suite_jacobi(g, cfg_big)
        assert res.passed, res.line()
        assert res.checked >= 100000
    sampled = time.monotonic() - t0
    assert sampled < 600, f"sampled suites took {sampled:.1f}s"
    print(
        f"\nAC2 Jacobi (exhaustive {sum(checked)} small triples; 2x100000 sampled, "
        f"{sampled:.1f}s): PASS"
    )


def test_ac3_cross_validation(split_builds):
    t0 = time.monotonic()
    for name in ("C2", "C3", "A3", "B3"):
        cv = rootdata.cross_validate(root_side_parabolic(split_builds, name))
        assert cv.ok, (name, cv.mismatches[:3])
    took = time.monotonic() - t0
    assert took < 60, f"cross-validation took {took:.1f}s"
    print(f"\nAC3 cross-validation (C2, C3, A3, B3 exact transport, {took:.1f}s): PASS")


def test_ac4_pierce_form_suite(split_builds):
    # (a) squares rule, exhaustive bilinearly on every Pierce basis
    for name in INSTANCES:
        p = root_side_parabolic(split_builds, name)
        rj = rootdata.jordan_from_roots(p)
        forms = rootdata.q_forms(p)
        for (i, j), form in forms.items():
            pos = [rj.basis_roots.index(a) for a in form.roots]
            d = len(pos)
            locals_ = [
                [Q(1) if t == k else Q(0) for t in range(d)] for k in range(d)
            ] + [
                [Q(1) if t in (k, l) else Q(0) for t in range(d)]
                for k, l in itertools.combinations(range(d), 2)
            ]
            ti = rj.basis_roots.index(p.strongly_orthogonal[i - 1])
            tj = rj.basis_roots.index(p.strongly_orthogonal[j - 1])
            for loc in locals_:
                full = [Q(0)] * rj.dim
                for c, src in zip(loc, pos):
                    full[src] = c
                sq = list(rj.mul_vec(tuple(full), tuple(full)))
                want = [Q(0)] * rj.dim
                want[ti] = want[tj] = form.value(loc)
                assert sq == want, (name, (i, j))
            # (b) nondegenerate with floor(d/2) hyperbolic planes
            gram = [list(row) for row in form.gram]
            assert linalg.det(gram) != 0, (name, (i, j))
            assert rootdata.witt_hyperbolic_planes(gram) == d // 2, (name, (i, j))
    # (c) composition identity, certified on basis multisets per named instance
    notes = []
    for name in ("A5", "C3", "D4"):
        res = verify.suite_q_composition(root_side_parabolic(split_builds, name))
        assert res.passed, res.line()
        notes.append(f"{name}:{res.checked}")
    print(f"\nAC4 Pierce quadratic forms (squares, Witt, composition {notes}): PASS")


AXIOM_SAMPLES = 1000


def test_ac5_jordan_axioms(family_instances):
    for name, alg in family_instances.items():
        rng = random.Random(100)
        r = alg.degree
        for _ in range(AXIOM_SAMPLES):
            x = alg.element([Q(rng.randint(-9, 9)) for _ in range(alg.dim)])
            y = alg.element([Q(rng.randint(-9, 9)) for _ in range(alg.dim)])
            sq = x * x
            assert (sq * y) * x == sq * (y * x), name  # Jordan identity
            powers = [alg.identity, x]
            for _k in range(5):
                powers.append(powers[-1] * x)
            for m in range(1, 6):
                for n in range(m, 7 - m):
                    assert powers[m] * powers[n] == powers[m + n], name
            coeffs = generic_min_poly(x).char_coeffs
            acc = alg.zero()
            for k, c in enumerate(coeffs):
                if c:
                    acc = acc + c * powers[k]
            assert acc.is_zero(), name  # Cayley-Hamilton at degree r
            assert len(coeffs) == r + 1
    print(f"\nAC5 Jordan axioms ({AXIOM_SAMPLES} samples x {len(family_instances)} families): PASS")


def test_ac6_norm_closed_forms(family_instances):
    alg = family_instances["E7"]
    O = alg.coeff_algebra
    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = (Q(rng.randint(-6, 6)) for _ in range(3))
        u, v, w = (
            O.element([Q(rng.randint(-4, 4)) for _ in range(8)]) for _ in range(3)
        )
        x = alg.from_entries([a, b, c], {(0, 1): u, (0, 2): w.conj(), (1, 2): v})
        closed = (
            a * b * c
            - a * ca_norm(v)
            - b * ca_norm(w)
            - c * ca_norm(u)
            + ((v * w) * u).trace()
        )
        assert jordan_norm(x) == closed
    j2 = family_instances["D4"]
    for _ in range(1000):
        a, b = Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9))
        vv = [Q(rng.randint(-9, 9)) for _ in range(j2.v_dim)]
        x = j2.from_parts(a, b, vv)
        assert jordan_norm(x) == a * b - j2.qform(vv)
        assert jordan_trace(x) == a + b
    print("\nAC6 norm closed forms (cubic octonionic + quadratic, 1000 each): PASS")


def test_ac7_orbit_machinery():
    t0 = time.monotonic()
    rng = random.Random(102)
    field = build_composition(1, [])
    split = build_composition(2, [1])

    def split_element(alg, M):
        r = alg.r
        return alg.from_entries(
            [M[i][i] for i in range(r)],
            {
                (i, j): alg.coeff_algebra.element(
                    [(M[i][j] + M[j][i]) / 2, (M[i][j] - M[j][i]) / 2]
                )
                for (i, j) in alg.pairs
            },
        )

    def field_element(alg, M):
        r = alg.r
        return alg.from_entries(
            [M[i][i] for i in range(r)],
            {(i, j): alg.coeff_algebra.element([M[i][j]]) for (i, j) in alg.pairs},
        )

    total = 0
    deficient = 0
    for r in (2, 3, 4):
        hq = jordan.hermitian(r, field)
        hs = jordan.hermitian(r, split)
        for _ in range(75):
            # symmetric matrix over the field
            M = [[Q(rng.randint(-6, 6)) for _ in range(r)] for _ in range(r)]
            for i in range(r):
                for j in range(i + 1, r):
                    M[j][i] = M[i][j]
            x = field_element(hq, M)
            res = orbits.diagonalize(x)
            assert res.rank == linalg.rank(M)
            _check_replay(hq, x, res)
            total += 1
            # arbitrary square matrix through the split coefficients
            N = [[Q(rng.randint(-6, 6)) for _ in range(r)] for _ in range(r)]
            y = split_element(hs, N)
            res2 = orbits.diagonalize(y)
            assert res2.rank == linalg.rank(N)
            _check_replay(hs, y, res2)
            total += 1
        # constructed rank-deficient cases: products of thin matrices
        for k in range(r):
            for _ in range(6):
                A = [[Q(rng.randint(-3, 3)) for _ in range(k)] for _ in range(r)]
                B = [[Q(rng.randint(-3, 3)) for _ in range(r)] for _ in range(k)]
                M = [
                    [sum((A[i][t] * B[t][j] for t in range(k)), Q(0)) for j in range(r)]
                    for i in range(r)
                ]
                y = split_element(hs, M)
                res = orbits.diagonalize(y)
                assert res.rank == linalg.rank(M)
                assert res.rank <= k
                _check_replay(hs, y, res)
                deficient += 1
                total += 1
        # split-nilpotent: strictly upper-triangular shift matrix
        Mnil = [[Q(1) if j == i + 1 else Q(0) for j in range(r)] for i in range(r)]
        ynil = split_element(hs, Mnil)
        resn = orbits.diagonalize(ynil)
        assert resn.rank == r - 1
        assert jordan_norm(ynil) == 0
        _check_replay(hs, ynil, resn)
        deficient += 1
        total += 1
    assert total >= 500, total
    assert deficient >= 50, deficient

    # transvections preserve the norm exactly (also covered per family above)
    hs3 = jordan.hermitian(3, split)
    for _ in range(50):
        x = hs3.element([Q(rng.randint(-5, 5)) for _ in range(hs3.dim)])
        u = split.element([Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))])
        i, j = rng.sample((1, 2, 3), 2)
        y = orbits.apply_transvection(orbits.Transvection(i, j, u), x)
        assert jordan_norm(y) == jordan_norm(x)
    took = time.monotonic() - t0
    assert took < 60, f"orbit machinery took {took:.1f}s"
    print(
        f"\nAC7 orbit machinery ({total} elements, {deficient} constructed "
        f"degenerate, {took:.1f}s): PASS"
    )


def _check_replay(alg, x, res):
    replayed = orbits.replay(res.log, x)
    want = alg.zero()
    for i, a in enumerate(res.diagonal, start=1):
        want = want + a * alg.frame(i)
    assert replayed == want


def test_ac8_local_classes():
    places = ("inf", 2, 3, 5, 7, 11)
    smooth = (2, 3, 5, 7, 11)
    rng = random.Random(103)
    checked = 0
    while checked < 100:
        a = rng.randint(-150, 150)
        b = rng.randint(-150, 150)
        if a == 0 or b == 0:
            continue
        rem = abs(a * b)
        for p in smooth:
            while rem % p == 0:
                rem //= p
        if rem != 1:
            continue
        agree = all(
            orbits.local_class(Q(a), pl) == orbits.local_class(Q(b), pl)
            for pl in places
        )
        assert agree == orbits.is_rational_square(Q(a) / Q(b)), (a, b)
        checked += 1
    print("\nAC8 local square classes (100 smooth pairs at 6 places): PASS")


def test_ac9_negative_controls(kkt_builds):
    g = kkt_builds("C2")
    cfg = verify.Config(seed=0, sample_count=200)
    # every stored constant, plus a seeded sample of insertions at zero slots
    entries = [
        (i, j, k)
        for (i, j), vec in sorted(stored_brackets(g).items())
        for k in sorted(vec)
    ]
    assert entries
    rng = random.Random(1)
    zero_positions = [
        (i, j, k)
        for i in range(g.dim)
        for j in range(i + 1, g.dim)
        for k in range(g.dim)
        if k not in g.table.cells[i][j]
    ]
    cases = entries + rng.sample(zero_positions, 60)
    caught = 0
    for (i, j, k) in cases:
        bad = corrupted_copy(g, i, j, k, Q(1))
        jacobi = functools.partial(verify.suite_jacobi, cfg=cfg)
        for suite in (jacobi, verify.suite_grading, verify.suite_killing):
            res = suite(bad)
            if not res.passed:
                assert res.witness, (i, j, k, res.name)
                caught += 1
                break
        else:
            pytest.fail(f"corruption at bracket ({i},{j}) -> {k} passed all suites")
    assert caught == len(cases)
    print(
        f"\nAC9 negative controls ({len(entries)} stored constants + 60 zero-slot "
        f"insertions, all caught): PASS"
    )

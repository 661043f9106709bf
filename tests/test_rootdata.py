import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction as Q

import pytest

from jordanlie import jordan, kkt, linalg, rootdata, verify
from jordanlie.errors import ConstructionError, InvalidParameter
from jordanlie.rootdata import (
    ChevalleyConstants,
    RootSystem,
    build_root_system,
    build_split_lie,
    canonical_node,
    coordinatize,
    cross_validate,
    graded_algebra,
    instance_report,
    jordan_from_roots,
    parabolic,
    q_forms,
    witt_hyperbolic_planes,
)

CFG = verify.Config(seed=0, sample_count=400)

TABLE = {
    # (type, rank, node): (dim g, dim n, r, d)
    ("C", 2, 2): (10, 3, 2, 1),
    ("C", 3, 3): (21, 6, 3, 1),
    ("A", 3, 2): (15, 4, 2, 2),
    ("A", 5, 3): (35, 9, 3, 2),
    ("B", 3, 1): (21, 5, 2, 3),
    ("D", 4, 1): (28, 6, 2, 4),
    ("E7", 7, 7): (133, 27, 3, 8),
    ("D", 6, 6): (66, 15, 3, 4),
}


def test_positive_root_counts():
    assert len(build_root_system("A", 4).positive_roots) == 10
    assert len(build_root_system("B", 3).positive_roots) == 9
    assert len(build_root_system("C", 3).positive_roots) == 9
    assert len(build_root_system("D", 5).positive_roots) == 20
    assert len(build_root_system("E7", 7).positive_roots) == 63


def test_unsupported_types_rejected():
    with pytest.raises(InvalidParameter):
        build_root_system("G", 2)
    with pytest.raises(InvalidParameter):
        build_root_system("E7", 8)
    with pytest.raises(InvalidParameter):
        build_split_lie("B", 1)


@pytest.mark.parametrize("type_label, rank, dim", [("A", 14, 224), ("B", 10, 210), ("C", 10, 210), ("D", 11, 231)])
def test_ranks_stop_at_the_dimension_of_e8(type_label, rank, dim):
    rs = build_root_system(type_label, rank)
    assert 2 * len(rs.positive_roots) + rank == dim <= rootdata.MAX_DIM
    with pytest.raises(InvalidParameter, match=f"{type_label}{rank + 1} has dimension [0-9]+, above 248"):
        build_root_system(type_label, rank + 1)


@pytest.mark.parametrize(
    "tl, rk, pairs",
    [
        ("A", 5, 240), ("B", 3, 120), ("C", 3, 120), ("D", 4, 192), ("E7", 7, 4032),
        ("A", 14, 5460), ("B", 10, 6840), ("C", 10, 6840), ("D", 11, 7920),
    ],
)
def test_table_holds_a_chevalley_basis(tl, rk, pairs, split_builds):
    # for every ordered pair of signed roots a, b with a + b a root, the
    # cell [x_a, x_b] is one int term N_{a,b} x_{a+b} with |N_{a,b}| = p + 1
    # (p from string_down) and N_{-a,-b} = -N_{a,b}; the rank caps have no
    # golden hash, so this is their only constant-level check
    g = split_builds(tl, rk)
    rs = g.root_system
    cells = g.table.cells
    neg = lambda r: tuple(-c for c in r)
    index = {a: rs.e_idx[a] for a in rs.positive_roots}
    index.update({neg(a): rs.f_idx[a] for a in rs.positive_roots})

    def constant(a, b, s):
        cell = cells[index[a]][index[b]]
        assert list(cell) == [index[s]] and type(cell[index[s]]) is int
        return cell[index[s]]

    checked = 0
    for a, b in itertools.product(index, repeat=2):
        s = tuple(x + y for x, y in zip(a, b))
        if s in index:
            n = constant(a, b, s)
            assert abs(n) == rs.string_down(a, b) + 1
            assert constant(neg(a), neg(b), neg(s)) == -n
            checked += 1
    assert checked == pairs


def test_chevalley_checks_still_fire(monkeypatch):
    # string lengths one too long break |N| = p+1 in the C3 recursion; on B3
    # the recursion closes, but a constant on mixed signs is no integer
    string_down = ChevalleyConstants.string_down
    monkeypatch.setattr(ChevalleyConstants, "string_down", lambda *args: string_down(*args) + 1)
    with pytest.raises(
        ConstructionError,
        match=re.escape("structure constant -3/2 for (1, 0, 0)+(0, 2, 1) violates |N| = p+1"),
    ):
        build_split_lie("C", 3)
    with pytest.raises(ConstructionError, match="non-integral structure constant"):
        build_split_lie("B", 3)
    monkeypatch.undo()
    # a positive root that is no sum of two others
    rs = RootSystem("A", 2, gram=((2, -1), (-1, 2)), positive_roots=((1, 0), (0, 1), (2, 1)))
    with pytest.raises(ConstructionError, match=re.escape("no special pair sums to (2, 1)")):
        ChevalleyConstants(rs)


def test_dimensions(split_builds):
    assert split_builds("C", 2).dim == 10
    assert split_builds("A", 3).dim == 15
    assert split_builds("E7", 7).dim == 133


def test_build_split_lie_returns_fresh_algebras():
    a = build_split_lie("C", 3)
    b = build_split_lie("C", 3)
    assert a is not b and a == b
    assert a.table is not b.table
    for row in a.table.cells:
        for cell in row:
            cell.clear()
    a.norm_pair = None
    assert any(any(row) for row in b.table.cells) and b.norm_pair is not None
    assert b == build_split_lie("C", 3)


def test_replace_recomputes_killing_from_its_own_norm_pair():
    g = build_split_lie("C", 3)
    f1, e1 = g.norm_pair
    assert g.killing(f1, e1) == 1
    f2 = {k: 2 * c for k, c in f1.items()}
    g2 = replace(g, norm_pair=(f2, e1))
    assert g2.table is g.table
    assert g2.killing(f2, e1) == 1
    assert g.killing(f2, e1) == 2


def test_graded_algebra_shares_the_bracket_table(split_builds):
    g = split_builds("C", 3)
    graded = graded_algebra(parabolic(g, 3))
    assert graded.table is g.table and graded.grading is not None


def test_jacobi_exhaustive_small(split_builds):
    for tl, rk in (("A", 2), ("C", 2), ("B", 2), ("C", 3), ("B", 3), ("A", 3), ("D", 4), ("A", 5)):
        g = split_builds(tl, rk)
        res = verify.suite_jacobi(g, CFG)
        assert res.passed, f"{tl}{rk}: {res.line()}"


def test_jacobi_sampled_e7(split_builds):
    g = split_builds("E7", 7)
    res = verify.suite_jacobi(g, verify.Config(seed=23, sample_count=20000))
    assert res.passed, res.line()


def test_jacobi_d6(split_builds):
    g = split_builds("D", 6)
    res = verify.suite_jacobi(g, verify.Config(seed=24, sample_count=40000))
    assert res.passed, res.line()


def test_killing_certificate_catches_what_jacobi_samples_miss(split_builds):
    bad = verify.corrupted_copy(split_builds("E7", 7), 5, 81, 73, Q(1))
    assert verify.suite_jacobi(bad, verify.Config()).passed
    assert verify.suite_killing(bad, verify.Config()).line() == (
        "killing: FAIL [36928 checks] witness: ad-invariance fails at "
        "(f:0,0,0,0,1,0,0, f:0,1,0,1,0,0,0, e:0,1,0,1,1,0,0)"
    )


def test_cartan_matrix_and_simple_roots():
    rs = build_root_system("B", 3)
    assert rs.cartan_matrix == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert len(rs.simple_roots) == 3
    rs7 = build_root_system("E7", 7)
    A = rs7.cartan_matrix
    assert all(A[i][i] == 2 for i in range(7))
    assert sum(A[i][j] for i in range(7) for j in range(7) if i != j) == -12


@pytest.mark.parametrize("tl, rk", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E7", 7)])
def test_root_data_is_integral_and_brackets_are_fractions(tl, rk, split_builds):
    g = split_builds(tl, rk)
    rs = g.root_system
    pos = rs.positive_roots
    values = [rs.inner(a, b) for a in pos for b in pos]
    values += [rs.pairing(a, b) for a in pos for b in pos]
    values += [c for row in rs.cartan_matrix for c in row]
    values += [c for a in pos for c in rs.coroot_coeffs(a)]
    values += graded_algebra(parabolic(g, canonical_node(tl, rk))).grading
    assert {type(v) for v in values} == {int}
    coeffs = [c for row in g.table.cells for cell in row for c in cell.values()]
    assert g.table.den == 1 and {type(c) for c in coeffs} == {int}


def test_non_integral_pairing_raises():
    rs = RootSystem("A", 2, gram=((2, -1), (-1, 3)), positive_roots=((1, 0), (0, 1)))
    assert rs.pairing((0, 1), (1, 0)) == -1
    with pytest.raises(ConstructionError, match="non-integral pairing"):
        rs.pairing((1, 0), (0, 1))
    with pytest.raises(ConstructionError, match="non-integral pairing"):
        rs.cartan_matrix


@pytest.mark.parametrize("key", list(TABLE))
def test_parabolic_table(key, split_builds):
    tl, rk, node = key
    dim_g, dim_n, r, d = TABLE[key]
    g = split_builds(tl, rk)
    assert g.dim == dim_g
    p = parabolic(g, node)
    assert len(p.n_roots) == dim_n
    assert p.degree == r
    dims = {
        len(p.pierce_roots(i, j))
        for i in range(1, r + 1)
        for j in range(i + 1, r + 1)
    }
    assert dims == {d}
    # diagonal Pierce pieces are the chain lines
    for i in range(1, r + 1):
        assert p.pierce_roots(i, i) == (p.strongly_orthogonal[i - 1],)
    # pierce components cover the nilradical
    total = r + r * (r - 1) // 2 * d
    assert total == dim_n


def test_canonical_nodes():
    assert canonical_node("C", 3) == 3
    assert canonical_node("A", 5) == 3
    assert canonical_node("B", 4) == 1
    assert canonical_node("E7", 7) == 7
    with pytest.raises(InvalidParameter):
        canonical_node("A", 4)


def test_non_abelian_node_rejected(split_builds):
    g = split_builds("C", 3)
    with pytest.raises(InvalidParameter):
        parabolic(g, 1)  # long-root coefficient 2


def test_chain_is_strongly_orthogonal_and_maximal(split_builds):
    for key in TABLE:
        tl, rk, node = key
        g = split_builds(tl, rk)
        p = parabolic(g, node)
        rs = g.root_system
        S = p.strongly_orthogonal
        for a, b in itertools.combinations(S, 2):
            assert rs.inner(a, b) == 0
            assert not rs.is_root(tuple(x + y for x, y in zip(a, b)))
            assert not rs.is_root(tuple(x - y for x, y in zip(a, b)))
        for a in p.n_roots:
            if a in S:
                continue
            assert any(rs.inner(a, b) != 0 for b in S), "chain is not maximal"


def test_graded_algebra_structure(split_builds):
    for key in (("C", 2, 2), ("B", 3, 1), ("E7", 7, 7)):
        tl, rk, node = key
        g1 = graded_algebra(parabolic(split_builds(tl, rk), node))
        res = verify.suite_grading(g1, CFG)
        assert res.passed, res.line()
        rep = kkt.verify_span(g1)
        assert rep.ok, rep


def test_root_jordan_unit_and_idempotents(split_builds):
    for key in (("C", 3, 3), ("A", 5, 3), ("D", 4, 1), ("E7", 7, 7)):
        tl, rk, node = key
        p = parabolic(split_builds(tl, rk), node)
        rj = jordan_from_roots(p)
        e = rj.identity_vec
        for k in range(rj.dim):
            b = tuple(Q(1) if i == k else Q(0) for i in range(rj.dim))
            assert rj.mul_vec(e, b) == b
        r = p.degree
        for i in range(1, r + 1):
            ei = rj.frame_vec(i)
            assert rj.mul_vec(ei, ei) == ei
            for j in range(i + 1, r + 1):
                assert not any(rj.mul_vec(ei, rj.frame_vec(j)))


def test_root_jordan_identity_property(split_builds):
    rng = random.Random(17)
    for key in (("C", 3, 3), ("B", 3, 1)):
        tl, rk, node = key
        p = parabolic(split_builds(tl, rk), node)
        rj = jordan_from_roots(p)
        for _ in range(100):
            x = tuple(Q(rng.randint(-5, 5)) for _ in range(rj.dim))
            y = tuple(Q(rng.randint(-5, 5)) for _ in range(rj.dim))
            sq = rj.mul_vec(x, x)
            assert rj.mul_vec(rj.mul_vec(sq, y), x) == rj.mul_vec(
                sq, rj.mul_vec(y, x)
            )


def test_pierce_squares_rule_exhaustive(split_builds):
    # x o x = Q_ij(x) (e_i + e_j) checked bilinearly on each Pierce basis
    for key in TABLE:
        tl, rk, node = key
        p = parabolic(split_builds(tl, rk), node)
        rj = jordan_from_roots(p)
        forms = q_forms(p)
        for (i, j), form in forms.items():
            pos = [rj.basis_roots.index(a) for a in form.roots]
            d = len(pos)
            vecs = []
            for k in range(d):
                loc = [Q(1) if t == k else Q(0) for t in range(d)]
                vecs.append(loc)
            for k, l in itertools.combinations(range(d), 2):
                loc = [Q(1) if t in (k, l) else Q(0) for t in range(d)]
                vecs.append(loc)
            target_i = rj.basis_roots.index(p.strongly_orthogonal[i - 1])
            target_j = rj.basis_roots.index(p.strongly_orthogonal[j - 1])
            for loc in vecs:
                full = [Q(0)] * rj.dim
                for c, src in zip(loc, pos):
                    full[src] = c
                sq = rj.mul_vec(tuple(full), tuple(full))
                qv = form.value(loc)
                want = [Q(0)] * rj.dim
                want[target_i] = qv
                want[target_j] = qv
                assert list(sq) == want, (key, (i, j))


def test_q_forms_nondegenerate_and_split(split_builds):
    for key in TABLE:
        tl, rk, node = key
        p = parabolic(split_builds(tl, rk), node)
        for (i, j), form in q_forms(p).items():
            gram = [list(row) for row in form.gram]
            assert linalg.det(gram) != 0
            d = len(form.roots)
            assert witt_hyperbolic_planes(gram) == d // 2
            if d >= 2:
                # isotropic vector found inside the Witt routine; double-check
                # on the root basis itself where possible
                assert any(form.value([Q(1) if t == k else Q(0) for t in range(d)]) == 0
                           for k in range(d)) or d == 1


def test_q_composition_identity_selects_doubled_product(split_builds):
    # the identity holds for {x, y} = 2(x o y) and fails for x o y
    p = parabolic(split_builds("C", 3), 3)
    rj = jordan_from_roots(p)
    forms = q_forms(p)
    rng = random.Random(18)
    f_il, f_ij, f_jl = forms[(1, 3)], forms[(1, 2)], forms[(2, 3)]

    def embed(form, local):
        out = [Q(0)] * rj.dim
        for c, a in zip(local, form.roots):
            out[rj.basis_roots.index(a)] = c
        return tuple(out)

    def restrict(form, full):
        return [full[rj.basis_roots.index(a)] for a in form.roots]

    saw_single_fail = False
    for _ in range(50):
        x = embed(f_il, [Q(rng.randint(-5, 5)) for _ in f_il.roots])
        y = embed(f_ij, [Q(rng.randint(-5, 5)) for _ in f_ij.roots])
        prod = rj.mul_vec(x, y)
        doubled = tuple(2 * c for c in prod)
        rhs = f_il.value(restrict(f_il, x)) * f_ij.value(restrict(f_ij, y))
        assert f_jl.value(restrict(f_jl, doubled)) == rhs
        if rhs and f_jl.value(restrict(f_jl, prod)) != rhs:
            saw_single_fail = True
    assert saw_single_fail


def test_q_composition_suite(split_builds):
    # coefficient dimensions 2, 1, 4 and 8 in turn
    for tl, rk in (("A", 5), ("C", 3), ("D", 6), ("E7", 7)):
        p = parabolic(split_builds(tl, rk), canonical_node(tl, rk))
        res = verify.suite_q_composition(p, verify.Config(seed=5, sample_count=300))
        assert res.passed, res.line()


def test_q_composition_certificate_catches_a_shifted_pierce_form(split_builds, monkeypatch):
    p = parabolic(split_builds("E7", 7), canonical_node("E7", 7))
    forms = dict(q_forms(p))
    res = verify.suite_q_composition(p, CFG)
    # 6 ordered index triples, 36 multisets {a, a'} times 36 multisets {b, b'}
    assert res.line() == "q-composition: PASS [7776 checks]"
    gram = [list(row) for row in forms[(1, 2)].gram]
    # the form's first nonzero off-diagonal entry, at (0, 7) and (7, 0), shifted by 1/2
    gram[0][7] += Q(1, 2)
    gram[7][0] += Q(1, 2)
    forms[(1, 2)] = replace(forms[(1, 2)], gram=tuple(tuple(row) for row in gram))
    monkeypatch.setattr(rootdata, "q_forms", lambda _: forms)
    assert verify.suite_q_composition(p, CFG).line() == (
        "q-composition: FAIL [260 checks] witness: indices (1,2,3) a, a' = 0, 7 b, b' = 0, 7"
    )


def test_coordinatize_c2_reproduces_rank_two_matrix_table(rationals_algebra, split_builds):
    co = coordinatize(parabolic(split_builds("C", 2), 2))
    h2 = jordan.hermitian(2, rationals_algebra)
    assert co.model.variant == "quadratic"
    assert co.model.gram == ((Q(1),),)
    assert co.model.mul_table == h2.mul_table


def test_coordinatize_c3_reproduces_h3_table(rationals_algebra, split_builds):
    co = coordinatize(parabolic(split_builds("C", 3), 3))
    h3 = jordan.hermitian(3, rationals_algebra)
    assert co.model.variant == "hermitian"
    assert co.model.coeff_algebra.dim == 1
    assert co.model.mul_table == h3.mul_table


def test_coordinatize_a5_split_coefficients(split_builds):
    co = coordinatize(parabolic(split_builds("A", 5), 3))
    D = co.model.coeff_algebra
    assert D.dim == 2
    vals = [Q(-2), Q(-1), Q(0), Q(1), Q(2)]
    assert any(
        D.element(c).norm() == 0
        for c in itertools.product(vals, repeat=2)
        if any(c)
    )


def test_coordinatize_d4_routes_to_quadratic(split_builds):
    co = coordinatize(parabolic(split_builds("D", 4), 1))
    assert co.model.variant == "quadratic"
    assert co.model.v_dim == 4


def transport_products(co):
    rj = co.root_jordan
    for i in range(rj.dim):
        bi = tuple(Q(1) if t == i else Q(0) for t in range(rj.dim))
        for j in range(i, rj.dim):
            bj = tuple(Q(1) if t == j else Q(0) for t in range(rj.dim))
            if co.apply(rj.mul_vec(bi, bj)) != co.apply(bi) * co.apply(bj):
                return (i, j)
    return None


@pytest.mark.parametrize("key", [("C", 2, 2), ("C", 3, 3), ("A", 3, 2), ("A", 5, 3),
                                 ("B", 3, 1), ("D", 4, 1), ("D", 6, 6), ("E7", 7, 7)])
def test_coordinatize_transports_products(key, split_builds):
    tl, rk, node = key
    co = coordinatize(parabolic(split_builds(tl, rk), node))
    assert transport_products(co) is None
    # identity maps to identity
    assert co.apply(co.root_jordan.identity_vec) == co.model.identity


@pytest.mark.parametrize("key", [("C", 2), ("C", 3), ("A", 3), ("B", 3)])
def test_cross_validation(key, split_builds):
    tl, rk = key
    cv = cross_validate(parabolic(split_builds(tl, rk), canonical_node(tl, rk)))
    assert cv.ok, cv.mismatches[:5]


def test_cross_validation_quaternionic(split_builds):
    cv = cross_validate(parabolic(split_builds("D", 6), 6))
    assert cv.ok, cv.mismatches[:5]


def test_cross_validation_octonionic(split_builds):
    cv = cross_validate(parabolic(split_builds("E7", 7), 7))
    assert cv.ok, cv.mismatches[:5]
    assert cv.dim == 133


@pytest.mark.parametrize("tl, rk", [("E7", 7), ("C", 3), ("A", 5), ("B", 3)])
def test_cross_validate_computes_the_pierce_forms_once(tl, rk, split_builds, monkeypatch):
    # coordinatize rescales f_i by 1/s_i and passes the forms of p, divided
    # by s_i s_j, down to the model builder instead of computing them again
    real = rootdata.q_forms
    calls, passed = [], []
    monkeypatch.setattr(rootdata, "q_forms", lambda p: calls.append(p) or real(p))
    for name in ("_coordinatize_quadratic", "_coordinatize_hermitian"):
        fn = getattr(rootdata, name)

        def spy(p2, rj, forms, *rest, fn=fn):
            passed.append((p2, forms))
            return fn(p2, rj, forms, *rest)

        monkeypatch.setattr(rootdata, name, spy)
    assert cross_validate(parabolic(split_builds(tl, rk), canonical_node(tl, rk))).ok
    assert len(calls) == 1
    [(p2, forms)] = passed
    assert forms == real(p2)


def test_corrupted_copy_keeps_the_root_system(split_builds):
    g = split_builds("C", 3)
    bad = verify.corrupted_copy(g, 0, 1, 2, Q(1))
    assert bad.root_system is g.root_system
    assert bad.table.cells[0][1] == {**g.table.cells[0][1], 2: 1}
    assert parabolic(bad, 3).strongly_orthogonal == parabolic(g, 3).strongly_orthogonal


@pytest.mark.parametrize("tl, rk, count", [("C", 2, 30), ("A", 3, 64)])
def test_cross_validate_catches_every_shifted_constant(tl, rk, count):
    # negative control: each stored Chevalley constant shifted by 1 is either
    # reported as a mismatch or stops the transport; none passes
    g = build_split_lie(tl, rk)
    upper = itertools.combinations(range(g.dim), 2)
    cells = [(i, j, k) for i, j in upper for k in sorted(g.table.cells[i][j])]
    assert len(cells) == count
    for i, j, k in cells:
        bad = verify.corrupted_copy(g, i, j, k, Q(1))
        try:
            cv = cross_validate(parabolic(bad, canonical_node(tl, rk)))
        except (ConstructionError, ValueError):
            continue
        assert not cv.ok, (i, j, k)



@pytest.mark.parametrize("tl, rk, count, mismatches", [("C", 2, 30, 46), ("A", 3, 64, 79)])
def test_cross_validate_catches_every_non_dyadic_shift(tl, rk, count, mismatches):
    # the same control shifted by 1/3: the corrupted table's denominator is 3,
    # so the integer comparison scales each side by the other side's
    # denominator; the mismatch total pins that no sound pair is reported
    g = build_split_lie(tl, rk)
    upper = itertools.combinations(range(g.dim), 2)
    cells = [(i, j, k) for i, j in upper for k in sorted(g.table.cells[i][j])]
    assert len(cells) == count
    reported = 0
    for i, j, k in cells:
        bad = verify.corrupted_copy(g, i, j, k, Q(1, 3))
        assert bad.table.den == 3
        try:
            cv = cross_validate(parabolic(bad, canonical_node(tl, rk)))
        except (ConstructionError, ValueError):
            continue
        assert not cv.ok, (i, j, k)
        reported += len(cv.mismatches)
    assert reported == mismatches

def test_instance_report_format(split_builds):
    text = instance_report(parabolic(split_builds("C", 3), 3))
    assert "degree r = 3" in text
    assert "(r, d) = (3, 1)" in text
    assert "strongly orthogonal" in text


def test_instance_report_rejects_unequal_pierce_dimensions(split_builds, monkeypatch):
    p = parabolic(split_builds("C", 3), 3)
    monkeypatch.setattr(type(p), "pierce_roots", lambda self, i, j: p.n_roots[: i + j])
    with pytest.raises(ConstructionError, match=r"Pierce dimensions differ: \[3, 4, 5\]"):
        instance_report(p)

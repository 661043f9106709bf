import itertools
import random
from fractions import Fraction as Q

import pytest

from jordanlie import verify
from jordanlie.composition import (
    algebra_from_table,
    build_composition,
    composition_law_failure,
    element_from_json,
    element_to_json,
    parse_descriptor,
)
from jordanlie.errors import AlgebraMismatch, InvalidParameter
from jordanlie.linalg import add_combination, det, op_from_dense, scale_table
from jordanlie.rootdata import coordinatize, parabolic

from conftest import ca_add, ca_norm, ca_scale, composition_copy


def rand_element(rng, alg, span=9):
    return alg.element(
        [Q(rng.randint(-span, span), rng.choice((1, 1, 2, 3))) for _ in range(alg.dim)]
    )


def test_dimension_one_is_the_base_field():
    k = build_composition(1, [])
    u = k.element([Q(7, 2)])
    assert (u * u).coeffs == (Q(49, 4),)
    assert ca_norm(u) == Q(49, 4)
    assert u.trace() == Q(7)
    assert u.conj() == u


def test_zero_gamma_rejected():
    with pytest.raises(InvalidParameter):
        build_composition(4, [1, 0])
    with pytest.raises(InvalidParameter):
        build_composition(2, [])
    with pytest.raises(InvalidParameter):
        build_composition(16, [1, 1, 1, 1])


def test_unit_law_on_all_basis_elements():
    for dim, gs in ((2, [1]), (4, [1, 1]), (8, [1, 1, 1])):
        alg = build_composition(dim, gs)
        one = alg.one()
        for b in alg.basis():
            assert one * b == b
            assert b * one == b


def _dense_table(alg):
    return [[[cell.get(k, 0) for k in range(alg.dim)] for cell in row] for row in alg.mul_table]


@pytest.mark.parametrize(
    "cell, gram_entry, message",
    [
        # e0 e2 = 2 e2 breaks the left unit law, e2 e0 = 2 e2 the right one
        ((0, 2), None, "basis element 0 is not a left unit at 2"),
        ((2, 0), None, "basis element 0 is not a right unit at 2"),
        # N(e1) = -2 against e1 e1 = e0: u conj(u) = -e1 e1 is -e0, not N(e1) 1
        (None, (1, 1), r"u\*conj\(u\) != N\(u\)\*1 at basis pair \(1, 1\)"),
    ],
)
def test_unit_and_conjugation_checks_reject_a_broken_table(cell, gram_entry, message):
    good = build_composition(4, [1, 1])
    table, gram = _dense_table(good), [list(row) for row in good.norm_gram]
    assert algebra_from_table(table, gram).mul_table == good.mul_table
    if cell is not None:
        i, j = cell
        table[i][j] = [2 * c for c in table[i][j]]
    if gram_entry is not None:
        i, j = gram_entry
        gram[i][j] *= 2
    with pytest.raises(InvalidParameter, match=message):
        algebra_from_table(table, gram)


def zero_divisor_search(alg):
    """Brute force over coefficient vectors in {-1,0,1}^dim."""
    vals = [Q(-1), Q(0), Q(1)]
    nonzero = [
        alg.element(c)
        for c in itertools.product(vals, repeat=alg.dim)
        if any(c)
    ]
    for u in nonzero:
        for v in nonzero:
            if (u * v).is_zero():
                return u, v
    return None


def test_split_quaternions_have_zero_divisors():
    quat = build_composition(4, [1, 1])
    found = zero_divisor_search(quat)
    assert found is not None
    u, v = found
    assert not u.is_zero() and not v.is_zero()
    assert (u * v).is_zero()


def test_split_octonions_not_associative():
    octo = build_composition(8, [1, 1, 1])
    b = octo.basis()
    hits = [
        (i, j, k)
        for i, j, k in itertools.product(range(8), repeat=3)
        if (b[i] * b[j]) * b[k] != b[i] * (b[j] * b[k])
    ]
    assert hits


def test_associativity_up_to_dimension_four():
    for dim, gs in ((1, []), (2, [1]), (2, [-1]), (4, [1, 1]), (4, [-1, -1])):
        alg = build_composition(dim, gs)
        b = alg.basis()
        for i, j, k in itertools.product(range(dim), repeat=3):
            assert (b[i] * b[j]) * b[k] == b[i] * (b[j] * b[k])


def test_octonion_alternativity():
    octo = build_composition(8, [1, 1, 1])
    rng = random.Random(0)
    for _ in range(100):
        u = rand_element(rng, octo, span=5)
        v = rand_element(rng, octo, span=5)
        assert u * (u * v) == (u * u) * v
        assert (v * u) * u == v * (u * u)


def test_norm_composition_on_random_pairs():
    rng = random.Random(1)
    for dim, gs, reps in (
        (2, [-1], 250),
        (4, [1, 1], 250),
        (8, [1, 1, 1], 1000),
        (8, [2, -3, Q(1, 2)], 250),
    ):
        alg = build_composition(dim, gs)
        for _ in range(reps):
            u = rand_element(rng, alg)
            v = rand_element(rng, alg)
            assert ca_norm(u * v) == ca_norm(u) * ca_norm(v)


def test_u_times_conj_u_is_norm(split_octonions):
    rng = random.Random(2)
    one = split_octonions.one()
    for _ in range(100):
        u = rand_element(rng, split_octonions)
        assert u * u.conj() == ca_scale(ca_norm(u), one)


def test_conjugation_is_linear_involutive_antimultiplicative():
    rng = random.Random(3)
    for dim, gs in ((4, [-1, -1]), (8, [1, 1, 1])):
        alg = build_composition(dim, gs)
        assert alg.one().conj() == alg.one()
        for _ in range(100):
            u = rand_element(rng, alg)
            v = rand_element(rng, alg)
            assert u.conj().conj() == u
            assert ca_add(u, v).conj() == ca_add(u.conj(), v.conj())
            assert (u * v).conj() == v.conj() * u.conj()


def test_gaussian_norm_expansion():
    # doubling with gamma = -1 on the field gives a^2 + b^2
    alg = build_composition(2, [-1])
    rng = random.Random(4)
    for _ in range(50):
        a, b = Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9))
        assert ca_norm(alg.element([a, b])) == a * a + b * b


def test_trace_form_nondegenerate():
    for dim, gs in ((2, [1]), (4, [1, 1]), (8, [1, 1, 1]), (8, [-1, -1, -1])):
        alg = build_composition(dim, gs)
        b = alg.basis()
        gram = [
            [(b[i] * b[j].conj()).trace() for j in range(dim)] for i in range(dim)
        ]
        assert det(gram) != 0


def test_split_forms_have_isotropic_vectors():
    for dim in (2, 4, 8):
        alg = build_composition(dim, [1] * (dim.bit_length() - 1))
        vals = [Q(-1), Q(0), Q(1)]
        assert any(
            ca_norm(alg.element(c)) == 0
            for c in itertools.product(vals, repeat=dim)
            if any(c)
        )


def test_algebra_mismatch_raises():
    a = build_composition(2, [1])
    b = build_composition(2, [1])
    with pytest.raises(AlgebraMismatch):
        a.one() * b.one()


def test_descriptor_round_trip():
    for text in (
        "field",
        "split-complex",
        "complex:-1",
        "quaternion:split",
        "quaternion:2,-1",
        "octonion:split",
        "octonion:1,-1,1/2",
    ):
        alg = parse_descriptor(text)
        again = parse_descriptor(alg.descriptor)
        assert again.mul_table == alg.mul_table


def test_element_json_round_trip():
    alg = build_composition(4, [1, 1])
    u = alg.element([Q(1, 2), Q(-3), Q(0), Q(5, 7)])
    obj = element_to_json(u)
    assert obj["coeffs"] == ["1/2", "-3", "0", "5/7"]
    v = element_from_json(obj)
    assert v.coeffs == u.coeffs
    assert v.algebra.descriptor == alg.descriptor


def test_composition_law_suite_names_the_first_failing_tuple():
    # split quaternions have norm Gram diag(1, -1, -1, 1) and e1 e1 = e0;
    # with G[1][1] = -2 the polarized law first fails at (0, 0, 1, 1):
    # B(e0, e0) + B(e1, e1) = 2 - 4, against B(e0, e1)^2 = 0
    good = build_composition(4, [1, 1])
    gram = [list(row) for row in good.norm_gram]
    gram[1][1] = Q(-2)
    bad = composition_copy(good, norm_gram=tuple(tuple(row) for row in gram))
    assert composition_law_failure(good) is None
    assert composition_law_failure(bad) == (0, 0, 1, 1)
    res = verify.suite_composition_law(bad)
    assert res.line() == "composition-law: FAIL [6 checks] witness: basis tuple (0, 0, 1, 1)"
    ok = verify.suite_composition_law(good)
    # 4^4 basis 4-tuples for the norm law, 4^2 basis pairs for conjugation
    assert ok.line() == "composition-law: PASS [272 checks]"


def test_composition_law_on_a_non_dyadic_gram():
    # quaternion:1/3,-5/7 has its table and norm Gram over 21, so the integer
    # check's d_G and both factors of s show; halving N(e3) = -5/21 moves the
    # Gram to d_G = 42 and breaks the law first at (0, 0, 3, 3)
    good = build_composition(4, [Q(1, 3), Q(-5, 7)])
    assert good.scaled.den == 21 and good.norm_gram[3][3] == Q(-5, 21)
    gram = [list(row) for row in good.norm_gram]
    gram[3][3] /= 2
    bad = composition_copy(good, norm_gram=tuple(tuple(row) for row in gram))
    assert composition_law_failure(good) is None
    assert composition_law_failure(bad) == (0, 0, 3, 3)


def test_dual_numbers_are_rejected_for_their_degenerate_norm():
    # Q[e]/(e^2) with N(a + b e) = a^2 passes the unit, conjugation and
    # composition laws; only the rank of its norm Gram, 1 of 2, rejects it
    table, gram = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [[1, 0], [0, 0]]
    cells = tuple(tuple({k: Q(x) for k, x in enumerate(cell) if x} for cell in row) for row in table)
    dual = composition_copy(build_composition(2, [1]), cells, tuple(tuple(map(Q, row)) for row in gram))
    assert verify.suite_composition_law(dual).line() == "composition-law: PASS [20 checks]"
    with pytest.raises(InvalidParameter, match="^norm form is degenerate$"):
        algebra_from_table(table, gram)


def law_failure_oracle(alg):
    """composition_law_failure as a literal loop over the basis 4-tuples in
    lexicographic order, each side formed from the scaled table and Gram."""
    n = alg.dim
    prod, s = alg.scaled.cells, alg.scaled.den
    gram = scale_table((op_from_dense(alg.norm_gram),))
    g, d = gram.cells[0], gram.den  # g[k][i] = d_G G_ik
    gprod = [[add_combination({}, g, cell.items()) for cell in row] for row in prod]

    def form(u, gv):
        return sum(c * gv.get(r, 0) for r, c in u.items())

    for i, j, k, l in itertools.product(range(n), repeat=4):
        lhs = form(prod[i][j], gprod[k][l]) + form(prod[k][j], gprod[i][l])
        if d * lhs != 2 * s * s * g[k].get(i, 0) * g[l].get(j, 0):
            return (i, j, k, l)
    return None


def test_composition_law_agrees_with_the_literal_loop(split_builds):
    # every single-cell sign flip of the split quaternion and split octonion
    # tables breaks the law, and the Gram of basis products names the same
    # first failing tuple as the loop; so do the coefficient tables
    # coordinatized at A5 node 3 and E7 node 7, whose products are not
    # monomials and whose table and Gram are over 3 or 9 and 6 or 18
    algebras = [build_composition(4, [1, 1]), build_composition(8, [1, 1, 1])]
    for label, rank, node in (("A", 5, 3), ("E7", 7, 7)):
        algebras.append(coordinatize(parabolic(split_builds(label, rank), node)).model.coeff_algebra)
    for alg in algebras:
        assert composition_law_failure(alg) is None is law_failure_oracle(alg)
        flipped = []
        for i, j in itertools.product(range(alg.dim), repeat=2):
            if alg.mul_table[i][j]:
                table = [list(row) for row in alg.mul_table]
                table[i][j] = {k: -c for k, c in table[i][j].items()}
                bad = composition_copy(alg, mul_table=tuple(map(tuple, table)))
                flipped.append(composition_law_failure(bad))
                assert flipped[-1] == law_failure_oracle(bad), (alg, i, j)
        assert None not in flipped and len(set(flipped)) > 1

import dataclasses
import itertools
import random
from fractions import Fraction as Q

import pytest

from jordanlie import jordan, linalg
from jordanlie.errors import (
    AlgebraMismatch,
    ConstructionError,
    InvalidParameter,
    SingularElement,
)
from jordanlie.jordan import (
    generic_min_poly,
    jordan_inverse,
    jordan_norm,
    jordan_trace,
    pierce,
)


def rand_element(rng, alg, span=9):
    return alg.element([Q(rng.randint(-span, span)) for _ in range(alg.dim)])


def rand_invertible(rng, alg, span=9):
    while True:
        x = rand_element(rng, alg, span)
        if jordan_norm(x) != 0:
            return x


# ---------------------------------------------------------------------------
# construction and unit laws
# ---------------------------------------------------------------------------


def test_dimensions(family_instances):
    dims = {name: alg.dim for name, alg in family_instances.items()}
    assert dims == {
        "C2": 3,
        "C3": 6,
        "A3": 4,
        "A5": 9,
        "B3": 5,
        "D4": 6,
        "E7": 27,
    }


def test_octonionic_requires_degree_three(split_octonions):
    with pytest.raises(InvalidParameter):
        jordan.hermitian(2, split_octonions)
    with pytest.raises(InvalidParameter):
        jordan.hermitian(4, split_octonions)


def test_degenerate_gram_rejected():
    with pytest.raises(InvalidParameter):
        jordan.quadratic([[1, 0], [0, 0]])
    with pytest.raises(InvalidParameter):
        jordan.quadratic([[0, 1], [2, 0]])  # not symmetric


def test_table_rejects_non_hermitian_products(split_complex):
    # corrupt one sparse cell {k: coeff} of the coefficient table (no
    # build-time checks run)
    def broken(i, j, cell):
        table = [list(row) for row in split_complex.mul_table]
        table[i][j] = {k: Q(c) for k, c in enumerate(cell) if c}
        return dataclasses.replace(split_complex, mul_table=tuple(map(tuple, table)))

    # i*i = 1 + i: (i E_12 + conj(i) E_21)^2 has a non-scalar diagonal
    with pytest.raises(ConstructionError, match="diagonal entry is not scalar"):
        jordan.hermitian(2, broken(1, 1, (1, 1)))
    # 1*i = 1 + i but i*1 = i: E_11 o (i E_12 + conj(i) E_21) is not hermitian
    with pytest.raises(ConstructionError, match="not hermitian"):
        jordan.hermitian(2, broken(0, 1, (1, 1)))


def test_unit_law(family_instances):
    rng = random.Random(0)
    for alg in family_instances.values():
        e = alg.identity
        for _ in range(20):
            x = rand_element(rng, alg)
            assert e * x == x


def test_frame_idempotents(family_instances):
    for alg in family_instances.values():
        r = alg.degree
        for i in range(1, r + 1):
            ei = alg.frame(i)
            assert ei * ei == ei
            for j in range(i + 1, r + 1):
                assert (ei * alg.frame(j)).is_zero()
        total = alg.zero()
        for i in range(1, r + 1):
            total = total + alg.frame(i)
        assert total == alg.identity


def test_quadratic_square_formula():
    alg = jordan.quadratic([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rng = random.Random(1)
    for _ in range(100):
        a, b = Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9))
        v = [Q(rng.randint(-9, 9)) for _ in range(3)]
        x = alg.from_parts(a, b, v)
        qv = alg.qform(v)
        want = alg.from_parts(a * a + qv, b * b + qv, [(a + b) * c for c in v])
        assert x * x == want


def test_algebra_mismatch():
    a = jordan.quadratic([[1]])
    b = jordan.quadratic([[1]])
    with pytest.raises(AlgebraMismatch):
        a.identity * b.identity


# ---------------------------------------------------------------------------
# generic minimal polynomial, trace, norm
# ---------------------------------------------------------------------------


def test_identity_min_and_char_poly(family_instances):
    for alg in family_instances.values():
        mp = generic_min_poly(alg.identity)
        assert mp.min_coeffs == (Q(-1), Q(1))  # t - 1
        r = alg.degree
        # (t - 1)^r
        from math import comb

        want = tuple(Q((-1) ** (r - k) * comb(r, k)) for k in range(r + 1))
        assert mp.char_coeffs == want
        assert mp.norm == 1
        assert mp.trace == r
        assert mp.a_coeffs[0] == mp.norm and mp.a_coeffs[-1] == mp.trace


def test_diagonal_norm_is_product(family_instances):
    alg = family_instances["C3"]
    x = alg.from_entries([2, -3, 5], {})
    assert jordan_norm(x) == -30
    assert jordan_trace(x) == 4


def test_h2_rational_matches_symmetric_matrix_oracle(family_instances):
    alg = family_instances["C2"]
    rng = random.Random(2)
    for _ in range(200):
        a, b, u = (Q(rng.randint(-9, 9)) for _ in range(3))
        x = alg.from_entries([a, b], {(0, 1): alg.coeff_algebra.element([u])})
        m = [[a, u], [u, b]]
        assert jordan_trace(x) == a + b
        assert jordan_norm(x) == linalg.det(m)


def test_octonionic_cubic_norm(family_instances):
    alg = family_instances["E7"]
    O = alg.coeff_algebra
    rng = random.Random(3)
    for _ in range(100):
        a, b, c = (Q(rng.randint(-5, 5)) for _ in range(3))
        u, v, w = (
            O.element([Q(rng.randint(-3, 3)) for _ in range(8)]) for _ in range(3)
        )
        x = alg.from_entries([a, b, c], {(0, 1): u, (0, 2): w.conj(), (1, 2): v})
        closed = (
            a * b * c
            - a * v.norm()
            - b * w.norm()
            - c * u.norm()
            + ((v * w) * u).trace()
        )
        assert jordan_norm(x) == closed


def test_octonionic_trace_parenthesization(family_instances):
    # T((vw)u) = T(v(wu)) even though the products differ
    O = family_instances["E7"].coeff_algebra
    rng = random.Random(4)
    for _ in range(100):
        u, v, w = (
            O.element([Q(rng.randint(-4, 4)) for _ in range(8)]) for _ in range(3)
        )
        assert ((v * w) * u).trace() == (v * (w * u)).trace()


def test_quadratic_norm_sign():
    alg = jordan.quadratic([[1, 0], [0, -1]])
    rng = random.Random(5)
    # both sign conventions agree on v = 0
    x0 = alg.from_parts(3, 4, [0, 0])
    assert jordan_norm(x0) == 12
    # the square rule forces ab - Q(v): x^2 - T x + N e = 0 picks the sign
    for _ in range(100):
        a, b = Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9))
        v = [Q(rng.randint(-9, 9)) for _ in range(2)]
        x = alg.from_parts(a, b, v)
        assert jordan_norm(x) == a * b - alg.qform(v)
        assert jordan_trace(x) == a + b
        sq = x * x
        lhs = sq - jordan_trace(x) * x + jordan_norm(x) * alg.identity
        assert lhs.is_zero()


def test_non_generic_characteristic_coefficients(family_instances):
    # partial-rank diagonal elements exercise the interpolation path
    alg = family_instances["C3"]
    x = alg.from_entries([1, 1, 0], {})
    mp = generic_min_poly(x)
    assert mp.min_coeffs == (Q(0), Q(-1), Q(1))  # t^2 - t
    assert mp.char_coeffs == (Q(0), Q(1), Q(-2), Q(1))  # t (t-1)^2
    assert mp.norm == 0
    assert mp.trace == 2
    z = alg.zero()
    mz = generic_min_poly(z)
    assert mz.min_coeffs == (Q(0), Q(1))
    assert mz.char_coeffs == (Q(0), Q(0), Q(0), Q(1))


def test_norm_and_trace_are_polynomial_in_scaling(family_instances):
    # N(t x) = t^r N(x) even through the non-generic fallback
    rng = random.Random(6)
    for alg in (family_instances["A5"], family_instances["B3"]):
        r = alg.degree
        x = rand_element(rng, alg, span=4)
        n = jordan_norm(x)
        assert jordan_norm(3 * x) == Q(3) ** r * n


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------


def test_inverse_identity(family_instances):
    for alg in family_instances.values():
        assert jordan_inverse(alg.identity) == alg.identity


def test_inverse_diagonal(family_instances):
    alg = family_instances["C2"]
    x = alg.from_entries([2, 1], {})
    assert jordan_inverse(x) == alg.from_entries([Q(1, 2), 1], {})


def test_inverse_random(family_instances):
    rng = random.Random(7)
    alg = family_instances["E7"]
    for _ in range(25):
        x = rand_invertible(rng, alg, span=4)
        inv = jordan_inverse(x)
        assert x * inv == alg.identity
        assert (x * x) * inv == x


def test_singular_inverse_raises(family_instances):
    alg = family_instances["C3"]
    with pytest.raises(SingularElement):
        jordan_inverse(alg.from_entries([1, 1, 0], {}))


# ---------------------------------------------------------------------------
# axioms as seeded property tests
# ---------------------------------------------------------------------------


def test_jordan_identity_and_commutativity(family_instances):
    rng = random.Random(8)
    for alg in family_instances.values():
        for _ in range(60):
            x = rand_element(rng, alg, span=5)
            y = rand_element(rng, alg, span=5)
            sq = x * x
            assert (sq * y) * x == sq * (y * x)
            assert x * y == y * x


def test_commutativity_exhaustive_on_basis(family_instances):
    for alg in family_instances.values():
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert alg.mul_table[i][j] == alg.mul_table[j][i]


def test_power_associativity(family_instances):
    rng = random.Random(9)
    for alg in family_instances.values():
        for _ in range(20):
            x = rand_element(rng, alg, span=4)
            powers = [x.power(k) for k in range(7)]
            for m in range(1, 6):
                for n in range(1, 7 - m):
                    assert powers[m] * powers[n] == powers[m + n]


def test_cayley_hamilton(family_instances):
    rng = random.Random(10)
    for alg in family_instances.values():
        r = alg.degree
        for _ in range(40):
            x = rand_element(rng, alg, span=5)
            coeffs = generic_min_poly(x).char_coeffs
            acc = alg.zero()
            for k, c in enumerate(coeffs):
                if c:
                    acc = acc + c * x.power(k)
            assert acc.is_zero()


def test_matrix_model_consistency(family_instances):
    # bilinear table product equals the symmetrized matrix product: first
    # every basis-pair table entry, then random pairs
    for name in ("C2", "C3", "A3", "A5", "E7"):
        alg = family_instances[name]
        basis = [b.vec for b in alg.basis()]
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                want = alg.symmetrized_product(basis[i], basis[j])
                assert alg.mul_table[i][j] == {k: c for k, c in enumerate(want) if c}
                assert alg.mul_table[j][i] == alg.mul_table[i][j]
    rng = random.Random(11)
    for name in ("C3", "A5", "E7"):
        alg = family_instances[name]
        for _ in range(25):
            x = rand_element(rng, alg, span=4)
            y = rand_element(rng, alg, span=4)
            assert (x * y).vec == alg.symmetrized_product(x.vec, y.vec)


# ---------------------------------------------------------------------------
# Pierce decomposition
# ---------------------------------------------------------------------------


def test_pierce_dimensions(family_instances):
    expected_d = {"C2": 1, "C3": 1, "A3": 2, "A5": 2, "B3": 3, "D4": 4, "E7": 8}
    for name, alg in family_instances.items():
        dec = pierce(alg)
        r = alg.degree
        assert dec.off_diagonal_dim == expected_d[name]
        total = sum(len(c) for c in dec.components.values())
        assert total == alg.dim
        assert r + r * (r - 1) // 2 * expected_d[name] == alg.dim
        for i in range(1, r + 1):
            (gen,) = dec.components[(i, i)]
            assert gen.vec == alg.frame(i).vec or gen == alg.frame(i)


def test_pierce_component_membership(family_instances):
    alg = family_instances["A5"]
    dec = pierce(alg)
    half = Q(1, 2)
    for (i, j), comp in dec.components.items():
        for x in comp:
            for t in range(1, alg.degree + 1):
                prod = alg.frame(t) * x
                if i == j:
                    want = x if t == i else alg.zero()
                else:
                    want = half * x if t in (i, j) else alg.zero()
                assert prod == want


def test_pierce_products_land_in_diagonal_pair(family_instances):
    # J_ij o J_ij inside J_ii + J_jj
    alg = family_instances["E7"]
    dec = pierce(alg)
    for (i, j), comp in dec.components.items():
        if i == j:
            continue
        for x, y in itertools.product(comp, repeat=2):
            prod = x * y
            proj = (prod.vec[i - 1] * alg.frame(i) + prod.vec[j - 1] * alg.frame(j))
            assert prod == proj


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_hermitian_json_round_trip(family_instances):
    alg = family_instances["A5"]
    rng = random.Random(12)
    x = rand_element(rng, alg)
    obj = jordan.element_to_json(x)
    assert set(obj) == {"diag", "upper"}
    y = jordan.element_from_json(obj, alg)
    assert y == x


def test_quadratic_json_round_trip(family_instances):
    alg = family_instances["D4"]
    x = alg.from_parts(Q(1, 2), -3, [0, 1, Q(2, 5), -2])
    obj = jordan.element_to_json(x)
    assert obj["a"] == "1/2"
    y = jordan.element_from_json(obj, alg)
    assert y == x

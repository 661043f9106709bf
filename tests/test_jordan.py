import copy
import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from jordanlie import jordan, linalg, verify
from jordanlie.cli import parse_jordan_descriptor
from jordanlie.composition import parse_descriptor
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
from jordanlie.rootdata import coordinatize, parabolic

from conftest import ca_norm, composition_copy, lmul_matrix, matrix_of, symmetrized_product


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
    with pytest.raises(InvalidParameter, match="quadratic form must be nondegenerate"):
        jordan.quadratic([[1, 0], [0, 0]])
    with pytest.raises(InvalidParameter, match="quadratic form must be nondegenerate"):
        jordan.quadratic([[1, 2, 3], [2, 4, 6], [3, 6, 10]])  # rank 2 of 3
    with pytest.raises(InvalidParameter, match="symmetric"):
        jordan.quadratic([[0, 1], [2, 0]])  # not symmetric


def test_table_rejects_non_hermitian_products(split_complex, split_builds):
    # corrupt one sparse cell {k: coeff} of the coefficient table (no
    # build-time checks run)
    def broken(D, i, j, cell):
        table = [list(row) for row in D.mul_table]
        table[i][j] = {k: Q(c) for k, c in enumerate(cell) if c}
        return composition_copy(D, mul_table=tuple(map(tuple, table)))

    # i*i = 1 + i: (i E_12 + conj(i) E_21)^2 has a non-scalar diagonal
    with pytest.raises(ConstructionError, match="diagonal entry is not scalar"):
        jordan.hermitian(2, broken(split_complex, 1, 1, (1, 1)))
    # 1*i = 1 + i but i*1 = i: E_11 o (i E_12 + conj(i) E_21) is not hermitian
    with pytest.raises(ConstructionError, match="not hermitian"):
        jordan.hermitian(2, broken(split_complex, 0, 1, (1, 1)))
    # the coefficient algebra coordinatized at A5 node 3, b1 b1 = -1/3 b1,
    # has its table over 3 and its trace covector over 6: b1 b1 = 1/3 b1
    # makes a non-scalar diagonal, and 1 b1 = 1/3 + b1 a non-hermitian product
    D = coordinatize(parabolic(split_builds("A", 5), 3)).model.coeff_algebra
    assert (D.descriptor, D.scaled.den, D.trace_cov[1]) == ("table:2", 3, 6)
    assert D.mul_table[1][1] == {1: Q(-1, 3)}
    with pytest.raises(ConstructionError, match="diagonal entry is not scalar"):
        jordan.hermitian(2, broken(D, 1, 1, (0, Q(1, 3))))
    with pytest.raises(ConstructionError, match="not hermitian"):
        jordan.hermitian(2, broken(D, 0, 1, (Q(1, 3), 1)))


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


def test_element_int_form_is_canonical(family_instances):
    # the same rational vectors reached over different denominators give
    # equal elements with equal hashes, in lowest terms with den > 0, and
    # element equality is equality of vec
    rng = random.Random(30)
    for name, alg in family_instances.items():
        vecs = [
            [Q(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))) for _ in range(alg.dim)]
            for _ in range(6)
        ]
        vecs.append(list(vecs[0]))
        elems = []
        for v in vecs:
            x = alg.element(v)
            ways = [
                x,
                alg.element([6 * c for c in v]) * Q(1, 6),
                (alg.element([12 * c for c in v]) + alg.element([-c for c in v])) * Q(1, 11),
                -(-x),
                alg.zero() + x * Q(-2, 5) * Q(-5, 2),
            ]
            for y in ways:
                assert y == x and hash(y) == hash(x), name
                assert (y.num, y.den) == (x.num, x.den) and y.den > 0, name
                assert math.gcd(y.den, *y.num) == 1 and y.vec == tuple(v), name
            elems.append(x)
        for (v, x), (w, y) in itertools.product(zip(vecs, elems), repeat=2):
            assert (x == y) == (tuple(v) == tuple(w)), name
            if x == y:
                assert hash(x) == hash(y), name


def test_zero_and_signed_scalars_in_the_int_form(family_instances):
    # x - x and 0 x are the zero with denominator 1, and a negative scalar
    # puts its sign on the numerators, never on the denominator
    rng = random.Random(31)
    for name, alg in family_instances.items():
        x = alg.element([Q(rng.randint(-9, 9), rng.choice((1, 3, 8))) for _ in range(alg.dim)])
        for z in (x - x, 0 * x, x * 0, x * Q(0), x + (-x)):
            assert z == alg.zero() and z.is_zero(), name
            assert z.num == (0,) * alg.dim and z.den == 1, name
        for s in (-1, Q(-3, 7), Q(-14, 9)):
            y = s * x
            assert y.den > 0 and y == x * s, name
            assert y.vec == tuple(s * c for c in x.vec), name
            assert math.gcd(y.den, *y.num) == 1, name


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
        # (a_0, ..., a_{r-1}) with char(t) = t^r - a_{r-1} t^{r-1} + ... + (-1)^r a_0
        a = [(-1) ** (r - k) * mp.char_coeffs[k] for k in range(r)]
        assert a[0] == mp.norm and a[-1] == mp.trace


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
            - a * ca_norm(v)
            - b * ca_norm(w)
            - c * ca_norm(u)
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
    # partial-rank diagonal elements: the minimal polynomial has degree < r,
    # the characteristic coefficients come from the same power sums
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


# degree 4 and 5, division coefficient algebras and a non-split form: the
# k >= 4 terms of Newton's identities and trace covectors over a denominator
DESCRIPTORS = (
    "jordan:H4:field",
    "jordan:H5:field",
    "jordan:H4:complex:-1",
    "jordan:H3:quaternion:1/3,-5/7",
    "jordan:H3:octonion:-1,-1,-1",
    "jordan:J2:dim=2:gram=1/2,3/5",
)


@pytest.fixture(scope="module")
def descriptor_instances():
    return {desc: parse_jordan_descriptor(desc) for desc in DESCRIPTORS}


def test_norm_and_trace_are_polynomial_in_scaling(family_instances, descriptor_instances):
    # N(t x) = t^r N(x) and T(t x) = t T(x), degenerate elements included
    rng = random.Random(6)
    algebras = [family_instances["A5"], family_instances["B3"], *descriptor_instances.values()]
    assert {alg.degree for alg in algebras} == {2, 3, 4, 5}
    for alg in algebras:
        r = alg.degree
        for x in [rand_element(rng, alg, span=4), *_degenerate_elements(alg)]:
            n, t = jordan_norm(x), jordan_trace(x)
            assert jordan_norm(3 * x) == Q(3) ** r * n, (alg, x)
            assert jordan_trace(3 * x) == 3 * t, (alg, x)
            mp = generic_min_poly(Q(-2, 3) * x)
            assert (mp.norm, mp.trace) == (Q(-2, 3) ** r * n, Q(-2, 3) * t), (alg, x)


def test_char_poly_matches_the_determinant_oracle_on_rational_matrices(family_instances, descriptor_instances):
    # on H_r(Q) the characteristic polynomial is det(t I - X): both have
    # degree r, so they agree as polynomials once they agree at r + 1 points
    rng = random.Random(8)
    algebras = [family_instances["C2"], family_instances["C3"]]
    algebras += [descriptor_instances[f"jordan:H{r}:field"] for r in (4, 5)]
    for alg in algebras:
        r = alg.degree
        elements = _degenerate_elements(alg) + [
            alg.element([Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(alg.dim)]) for _ in range(6)
        ]
        for x in elements:
            X = [[e.coeffs[0] for e in row] for row in matrix_of(alg, x.vec)]
            c = generic_min_poly(x).char_coeffs
            for t in range(r + 1):
                tX = [[t * (i == j) - X[i][j] for j in range(r)] for i in range(r)]
                assert sum(a * t**k for k, a in enumerate(c)) == linalg.det(tX), (alg, x, t)


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
# minimal and characteristic polynomials as properties
# ---------------------------------------------------------------------------


def _evaluate(coeffs, x):
    """sum c_k x^k for ascending coefficients."""
    alg = x.algebra
    acc, power = alg.zero(), alg.identity
    for c in coeffs:
        acc = acc + c * power
        power = power * x
    return acc


def _remainder(num, den):
    """Remainder of ascending-coefficient polynomials, den monic."""
    num = list(num)
    for top in range(len(num) - 1, len(den) - 2, -1):
        c = num[top]
        for k, d in enumerate(den):
            num[top - len(den) + 1 + k] -= c * d
    return num[: len(den) - 1]


def _nilpotents(alg):
    """Nonzero elements b_i or b_i +- b_j whose square is zero."""
    basis = alg.basis()
    found = []
    for i, j in itertools.combinations_with_replacement(range(alg.dim), 2):
        for x in {basis[i], basis[i] + basis[j], basis[i] - basis[j]}:
            if not x.is_zero() and (x * x).is_zero() and x not in found:
                found.append(x)
        if len(found) >= 2:
            break
    return found


def _degenerate_elements(alg):
    frames = alg.frames
    sums = [
        sum(subset[1:], subset[0])
        for k in range(2, alg.degree + 1)
        for subset in itertools.combinations(frames, k)
    ]
    nil = _nilpotents(alg)
    mixed = [frames[0] + n for n in nil] + [2 * frames[0] - 3 * frames[-1]]
    return [alg.zero(), *frames, *sums, *nil, *mixed]


def test_min_and_char_poly_properties(family_instances):
    # split coefficient algebras and split forms have nilpotents; the
    # rational families have none
    rng = random.Random(13)
    for name, alg in family_instances.items():
        assert bool(_nilpotents(alg)) == (name not in ("C2", "C3"))
        r = alg.degree
        elements = _degenerate_elements(alg) + [rand_element(rng, alg, span=3) for _ in range(8)]
        for x in elements:
            mp = generic_min_poly(x)
            m = len(mp.min_coeffs) - 1
            assert mp.min_coeffs[-1] == 1 and len(mp.char_coeffs) == r + 1
            powers = [list(x.power(k).vec) for k in range(r + 1)]
            assert m == linalg.rank(powers), (name, x)
            assert _evaluate(mp.min_coeffs, x).is_zero(), (name, x)
            assert _evaluate(mp.char_coeffs, x).is_zero(), (name, x)
            assert not any(_remainder(mp.char_coeffs, mp.min_coeffs)), (name, x)
            assert jordan_trace(x) == mp.trace and jordan_norm(x) == mp.norm
            # the two polynomials share their roots, so both constant terms
            # vanish together; the inverse read off the minimal polynomial
            # is the one jordan_inverse reads off the characteristic one
            assert (mp.norm == 0) == (mp.min_coeffs[0] == 0)
            if mp.norm == 0:
                with pytest.raises(SingularElement):
                    jordan_inverse(x)
                continue
            c = mp.min_coeffs
            acc = alg.zero()
            for k in range(1, m + 1):
                acc = acc + c[k] * x.power(k - 1)
            assert jordan_inverse(x) == (-1 / c[0]) * acc, (name, x)


def test_one_row_reduction_per_power_sequence(family_instances, monkeypatch):
    # a generic E7 element: e, x, x^2, x^3 cost two products and one echelon,
    # and the inverse, the norm and the trace read the power sums with none
    alg = family_instances["E7"]
    x = rand_element(random.Random(14), alg, span=4)
    counts = {"echelon": 0, "products": 0}
    echelon, mul_vec = linalg.echelon, jordan.JordanAlgebra.mul_vec

    def counting_echelon(rows):
        counts["echelon"] += 1
        return echelon(rows)

    def counting_mul_vec(self, a, b):
        counts["products"] += 1
        return mul_vec(self, a, b)

    monkeypatch.setattr(linalg, "echelon", counting_echelon)
    monkeypatch.setattr(jordan.JordanAlgebra, "mul_vec", counting_mul_vec)
    mp = generic_min_poly(x)
    assert len(mp.min_coeffs) == 4 and mp.norm != 0
    assert counts == {"echelon": 1, "products": 2}
    counts.update(echelon=0, products=0)
    jordan_inverse(x)
    assert counts["echelon"] == 0 and counts["products"] <= 4
    jordan_norm(x), jordan_trace(x)
    assert counts["echelon"] == 0


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


def test_matrix_model_consistency(family_instances, split_builds):
    # bilinear table product equals the symmetrized matrix product: first
    # every basis-pair table entry, then random pairs.  The table is built
    # in ints and read out, so its scaled form is checked to be exactly what
    # scale_table makes of the readout.  Besides the doubled tables with
    # gammas 1, the inputs have non-integral or negative doubling parameters,
    # and the models coordinatized from root data have coefficient tables and
    # a trace covector over d != 1
    algs = {name: family_instances[name] for name in ("C2", "C3", "A3", "A5", "E7")}
    for r, desc in ((3, "complex:-7/4"), (2, "quaternion:1/3,-5/7"), (3, "octonion:-1,-1,-1")):
        algs[f"H{r}:{desc}"] = jordan.hermitian(r, parse_descriptor(desc))
    for name, label, rank, node in (("A5/3", "A", 5, 3), ("D6/6", "D", 6, 6), ("E7/7", "E7", 7, 7)):
        algs[name] = coordinatize(parabolic(split_builds(label, rank), node)).model
    assert {alg.coeff_algebra.trace_cov[1] for alg in algs.values()} == {1, 6}
    for alg in algs.values():
        assert alg.scaled == linalg.scale_table(alg.mul_table)
        basis = [b.vec for b in alg.basis()]
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                want = symmetrized_product(alg, basis[i], basis[j])
                assert alg.mul_table[i][j] == {k: c for k, c in enumerate(want) if c}
                assert alg.mul_table[j][i] == alg.mul_table[i][j]
    rng = random.Random(11)
    for name in ("C3", "A5", "E7", "H2:quaternion:1/3,-5/7", "A5/3"):
        alg = algs[name]
        for _ in range(25):
            x = rand_element(rng, alg, span=4)
            y = rand_element(rng, alg, span=4)
            assert (x * y).vec == symmetrized_product(alg, x.vec, y.vec)


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


def test_lmul_matrix_columns_are_products(family_instances):
    # rational x over a table with den > 1, so both scalings divide
    rng = random.Random(7)
    for name in ("C3", "E7"):
        alg = family_instances[name]
        x = [Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(alg.dim)]
        mat = lmul_matrix(alg, x)
        for j, b in enumerate(alg.basis()):
            assert tuple(row[j] for row in mat) == (alg.element(x) * b).vec, (name, j)


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


def test_element_to_json_reads_the_coefficients_once(monkeypatch, family_instances):
    # vec divides every coefficient out of the element's ints: the diagonal
    # and each upper entry of a hermitian element, and the parts of a
    # quadratic one, are all read from one readout
    reads = []
    vec = jordan.JordanElement.vec
    monkeypatch.setattr(jordan.JordanElement, "vec", property(lambda x: reads.append(x) or vec.fget(x)))
    rng = random.Random(13)
    for name in ("E7", "A5", "C2", "D4"):
        x = rand_element(rng, family_instances[name])
        obj = jordan.element_to_json(x)
        assert reads == [x]
        reads.clear()
        assert jordan.element_from_json(obj, x.algebra) == x


def test_quadratic_json_round_trip(family_instances):
    alg = family_instances["D4"]
    x = alg.from_parts(Q(1, 2), -3, [0, 1, Q(2, 5), -2])
    obj = jordan.element_to_json(x)
    assert obj["a"] == "1/2"
    y = jordan.element_from_json(obj, alg)
    assert y == x


def _with_cells(J, cells):
    """Shallow copy of J whose integer table has the given cells."""
    bad = copy.copy(J)
    bad.scaled = linalg.ScaledTable(tuple(tuple(row) for row in cells), J.scaled.den)
    return bad


def test_jordan_identity_certificate_names_basis_witnesses(family_instances):
    J = family_instances["E7"]
    cells = [list(row) for row in J.scaled.cells]
    # b_1 o b_4 = b_4 o b_1 both gain b_0: still commutative, no longer Jordan
    cell = dict(cells[1][4])
    cell[0] = cell.get(0, 0) + J.scaled.den
    cells[1][4] = cells[4][1] = cell
    assert verify.suite_jordan_identity(_with_cells(J, cells)).line() == (
        "jordan-identity: FAIL [382 checks] "
        "witness: polarized identity fails at (a, b, c) = (0, 1, 4), y = 0"
    )
    cells[4][1] = J.scaled.cells[4][1]
    assert verify.suite_jordan_identity(_with_cells(J, cells)).line() == (
        "jordan-identity: FAIL [29 checks] witness: commutativity fails at (1, 4)"
    )
    res = verify.suite_jordan_identity(J)
    # 27*26/2 basis pairs, then 27 y for each of the C(29, 3) multisets {a, b, c}
    assert res.line() == "jordan-identity: PASS [99009 checks]"

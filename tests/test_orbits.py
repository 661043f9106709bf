import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from jordanlie import jordan, linalg, orbits
from jordanlie.composition import parse_descriptor
from jordanlie.errors import InvalidParameter
from jordanlie.jordan import jordan_norm
from jordanlie.orbits import (
    FramePermutation,
    Transvection,
    apply_permutation,
    apply_transvection,
    diagonalize,
    is_rational_square,
    local_class,
    orbit_representative,
    replay,
)
from jordanlie.rootdata import coordinatize, parabolic

from conftest import ca_norm, ca_scale, matrix_of, matrix_product, vector_of


def rand_element(rng, alg, span=6):
    return alg.element([Q(rng.randint(-span, span)) for _ in range(alg.dim)])


def matrix_from_split(alg, M):
    """Element of H_r(split-complex) matching an arbitrary matrix under
    (a, b) <-> (a + b, a - b)."""
    r = alg.r
    diag = [M[i][i] for i in range(r)]
    upper = {}
    for (i, j) in alg.pairs:
        upper[(i, j)] = alg.coeff_algebra.element(
            [(M[i][j] + M[j][i]) / 2, (M[i][j] - M[j][i]) / 2]
        )
    return alg.from_entries(diag, upper)


def unipotent_matrix(alg, i, j, u):
    """I + u E_ij over the coefficient algebra (1-based indices)."""
    D = alg.coeff_algebra
    m = [[D.one() if a == b else D.zero() for b in range(alg.r)] for a in range(alg.r)]
    m[i - 1][j - 1] = u
    return m


def torus_scale(i, t, x):
    """Scale the (i,i) Pierce component by t^2 and the (i,j) components by t."""
    t = Q(t)
    if t == 0:
        raise InvalidParameter("torus parameter must be nonzero")
    alg = x.algebra
    if alg.variant == "quadratic":
        if i not in (1, 2):
            raise InvalidParameter("frame index out of range")
        a, b, v = alg.parts(x.vec)
        if i == 1:
            return alg.from_parts(t * t * a, b, [t * c for c in v])
        return alg.from_parts(a, t * t * b, [t * c for c in v])
    if not 1 <= i <= alg.r:
        raise InvalidParameter("frame index out of range")
    diag = alg.diag_entries(x.vec)
    diag[i - 1] *= t * t
    upper = {}
    for (a, b) in alg.pairs:
        e = alg.upper_entry(x.vec, a, b)
        if e.is_zero():
            continue
        if a == i - 1 or b == i - 1:
            e = ca_scale(t, e)
        upper[(a, b)] = e
    return alg.from_entries(diag, upper)


def symmetric_matrix_of(alg, x):
    r = alg.r
    m = [[Q(0)] * r for _ in range(r)]
    for i, a in enumerate(alg.diag_entries(x.vec)):
        m[i][i] = a
    for (i, j) in alg.pairs:
        m[i][j] = m[j][i] = alg.upper_entry(x.vec, i, j).coeffs[0]
    return m


# ---------------------------------------------------------------------------
# transvections
# ---------------------------------------------------------------------------


def test_zero_parameter_is_identity(family_instances):
    rng = random.Random(0)
    for name in ("C3", "A5", "E7"):
        alg = family_instances[name]
        x = rand_element(rng, alg)
        t = Transvection(1, 2, alg.coeff_algebra.zero())
        assert apply_transvection(t, x) == x
    j2 = family_instances["B3"]
    x = rand_element(rng, j2)
    assert apply_transvection(Transvection(1, 2, (Q(0),) * 3), x) == x


def test_bad_indices_rejected(family_instances):
    alg = family_instances["C2"]
    with pytest.raises(InvalidParameter):
        Transvection(1, 1, alg.coeff_algebra.zero())
    with pytest.raises(InvalidParameter):
        apply_transvection(Transvection(1, 3, alg.coeff_algebra.one()), alg.identity)


def test_quadratic_transvection_formulas(family_instances):
    alg = family_instances["D4"]
    rng = random.Random(1)
    for _ in range(60):
        a, b = Q(rng.randint(-6, 6)), Q(rng.randint(-6, 6))
        v = [Q(rng.randint(-6, 6)) for _ in range(4)]
        u = tuple(Q(rng.randint(-4, 4)) for _ in range(4))
        x = alg.from_parts(a, b, v)
        got = apply_transvection(Transvection(1, 2, u), x)
        want = alg.from_parts(
            a,
            b + a * alg.qform(u) + alg.bform(u, v),
            [c + a * d for c, d in zip(v, u)],
        )
        assert got == want
        got21 = apply_transvection(Transvection(2, 1, u), x)
        want21 = alg.from_parts(
            a + b * alg.qform(u) + alg.bform(u, v),
            b,
            [c + b * d for c, d in zip(v, u)],
        )
        assert got21 == want21


def test_octonionic_association_identity(family_instances):
    # (u x) u' = u (x u') for the unipotent pair, despite non-associativity
    alg = family_instances["E7"]
    O = alg.coeff_algebra
    rng = random.Random(2)
    for _ in range(100):
        x = rand_element(rng, alg, span=4)
        u = O.element([Q(rng.randint(-3, 3)) for _ in range(8)])
        i, j = rng.sample((1, 2, 3), 2)
        A = unipotent_matrix(alg, i, j, u)
        B = unipotent_matrix(alg, j, i, u.conj())
        X = matrix_of(alg, x.vec)
        left = matrix_product(alg, matrix_product(alg, A, X), B)
        right = matrix_product(alg, A, matrix_product(alg, X, B))
        assert all(
            left[a][b] == right[a][b] for a in range(3) for b in range(3)
        )


@pytest.mark.parametrize(
    "name",
    ["C2", "C3", "A3", "A5", "E7", "3:complex:-7/4", "2:quaternion:1/3,-5/7", "3:octonion:-1,-1,-1"]
    + ["root:A:5:3", "root:D:6:6", "root:E7:7:7"],
)
def test_transvection_equals_the_matrix_product(family_instances, split_builds, name):
    # a step rewrites row and column i of x only; the oracle multiplies the
    # whole matrices, left factor first, and reads the result back through
    # vector_of, which checks that it is hermitian with a scalar diagonal.
    # The models coordinatized from root data have coefficient tables over
    # 3 or 9 and a trace covector over 6, where the tables built by doubling
    # have both over 1
    if name in family_instances:
        alg = family_instances[name]
    elif name.startswith("root:"):
        _, label, rank, node = name.split(":")
        alg = coordinatize(parabolic(split_builds(label, int(rank)), int(node))).model
        assert alg.coeff_algebra.trace_cov[1] == 6
    else:
        r, desc = name.split(":", 1)
        alg = jordan.hermitian(int(r), parse_descriptor(desc))
    D = alg.coeff_algebra
    rng = random.Random(14)

    def rand_fraction(span):
        return Q(rng.randint(-span, span), rng.randint(1, 5))

    for _ in range(30):
        x = alg.element([rand_fraction(6) for _ in range(alg.dim)])
        u = D.element([rand_fraction(4) for _ in range(D.dim)])
        i, j = rng.sample(range(1, alg.r + 1), 2)
        for a, b in ((i, j), (j, i)):
            A = unipotent_matrix(alg, a, b, u)
            B = unipotent_matrix(alg, b, a, u.conj())
            X = matrix_of(alg, x.vec)
            want = vector_of(alg, matrix_product(alg, matrix_product(alg, A, X), B))
            assert apply_transvection(Transvection(a, b, u), x).vec == want


def test_transvections_preserve_norm(family_instances):
    rng = random.Random(3)
    for name in ("C3", "A3", "D4", "E7"):
        alg = family_instances[name]
        for _ in range(40):
            x = rand_element(rng, alg, span=5)
            if alg.variant == "hermitian":
                i, j = rng.sample(range(1, alg.r + 1), 2)
                u = alg.coeff_algebra.element(
                    [Q(rng.randint(-3, 3)) for _ in range(alg.coeff_algebra.dim)]
                )
            else:
                i, j = rng.choice(((1, 2), (2, 1)))
                u = tuple(Q(rng.randint(-3, 3)) for _ in range(alg.v_dim))
            y = apply_transvection(Transvection(i, j, u), x)
            assert jordan_norm(y) == jordan_norm(x)


def test_permutations_preserve_norm(family_instances):
    rng = random.Random(4)
    alg = family_instances["A5"]
    for perm in itertools.permutations(range(3)):
        for _ in range(10):
            x = rand_element(rng, alg, span=5)
            y = apply_permutation(FramePermutation(perm), x)
            assert jordan_norm(y) == jordan_norm(x)


def test_permutation_reads_the_coefficients_once(monkeypatch, family_instances):
    # the diagonal and every upper entry of a hermitian element are read from
    # one readout of its ints; permuting back gives the element again
    reads = []
    vec = jordan.JordanElement.vec
    monkeypatch.setattr(jordan.JordanElement, "vec", property(lambda x: reads.append(x) or vec.fget(x)))
    rng = random.Random(8)
    for name in ("E7", "A5", "C3"):
        x = rand_element(rng, family_instances[name])
        y = apply_permutation(FramePermutation((2, 0, 1)), x)
        assert reads == [x]
        assert apply_permutation(FramePermutation((1, 2, 0)), y) == x
        reads.clear()


# ---------------------------------------------------------------------------
# diagonalization and rank
# ---------------------------------------------------------------------------


def test_zero_has_rank_zero(family_instances):
    for alg in family_instances.values():
        res = diagonalize(alg.zero())
        assert res.rank == 0
        assert not res.log


def test_already_diagonal(family_instances):
    alg = family_instances["C3"]
    x = alg.frame(1) + alg.frame(2)
    res = diagonalize(x)
    assert res.rank == 2
    assert res.diagonal == (Q(1), Q(1), Q(0))
    assert not res.log


def test_split_nilpotent_rank_one(split_complex):
    alg = jordan.hermitian(2, split_complex)
    u = split_complex.element([1, 1])  # norm 0, nonzero
    assert ca_norm(u) == 0
    x = alg.from_entries([0, 0], {(0, 1): u})
    res = diagonalize(x)
    assert res.rank == 1
    # matrix oracle: the corresponding 2x2 matrix has rank 1
    M = [[Q(0), Q(2)], [Q(0), Q(0)]]
    assert matrix_from_split(alg, M) == x
    assert linalg.rank(M) == 1


def test_rank_matches_symmetric_matrix_oracle(rationals_algebra):
    rng = random.Random(5)
    for r in (2, 3, 4):
        alg = jordan.hermitian(r, rationals_algebra)
        for _ in range(60):
            x = rand_element(rng, alg)
            res = diagonalize(x)
            assert res.rank == linalg.rank(symmetric_matrix_of(alg, x))


def test_rank_matches_general_matrix_oracle(split_complex):
    rng = random.Random(6)
    for r in (2, 3, 4):
        alg = jordan.hermitian(r, split_complex)
        for _ in range(60):
            M = [[Q(rng.randint(-5, 5)) for _ in range(r)] for _ in range(r)]
            x = matrix_from_split(alg, M)
            assert diagonalize(x).rank == linalg.rank(M)


def test_rank_deficient_constructions(split_complex, rationals_algebra):
    rng = random.Random(7)
    count = 0
    for r in (3, 4):
        alg = jordan.hermitian(r, split_complex)
        for k in range(r):
            for _ in range(10):
                A = [[Q(rng.randint(-3, 3)) for _ in range(k)] for _ in range(r)]
                B = [[Q(rng.randint(-3, 3)) for _ in range(r)] for _ in range(k)]
                M = [
                    [sum((A[i][t] * B[t][j] for t in range(k)), Q(0)) for j in range(r)]
                    for i in range(r)
                ]
                assert diagonalize(matrix_from_split(alg, M)).rank == linalg.rank(M)
                count += 1
        algq = jordan.hermitian(r, rationals_algebra)
        for k in range(r):
            for _ in range(10):
                A = [[Q(rng.randint(-3, 3)) for _ in range(k)] for _ in range(r)]
                M = [
                    [sum((A[i][t] * A[j][t] for t in range(k)), Q(0)) for j in range(r)]
                    for i in range(r)
                ]
                x = algq.from_entries(
                    [M[i][i] for i in range(r)],
                    {
                        (i, j): rationals_algebra.element([M[i][j]])
                        for (i, j) in algq.pairs
                    },
                )
                assert diagonalize(x).rank == linalg.rank(M)
                count += 1
    assert count >= 50


def test_log_replay_is_exact(family_instances, split_builds):
    rng = random.Random(8)
    # with A5's model coordinatized from root data, whose trace covector is over 6
    model = coordinatize(parabolic(split_builds("A", 5), 3)).model
    for alg in [family_instances[name] for name in ("C3", "A5", "E7", "B3", "D4")] + [model]:
        for _ in range(25):
            x = rand_element(rng, alg, span=5)
            res = diagonalize(x)
            replayed = replay(res.log, x)
            want = alg.zero()
            for i, a in enumerate(res.diagonal, start=1):
                want = want + a * alg.frame(i)
            assert replayed == want


def test_rank_invariant_under_transvections(family_instances):
    rng = random.Random(9)
    for name in ("C3", "A3", "E7"):
        alg = family_instances[name]
        for _ in range(20):
            x = rand_element(rng, alg, span=4)
            i, j = rng.sample(range(1, alg.r + 1), 2)
            u = alg.coeff_algebra.element(
                [Q(rng.randint(-3, 3)) for _ in range(alg.coeff_algebra.dim)]
            )
            y = apply_transvection(Transvection(i, j, u), x)
            assert diagonalize(y).rank == diagonalize(x).rank


def test_rank_norm_consistency(family_instances):
    rng = random.Random(10)
    for alg in family_instances.values():
        for _ in range(25):
            x = rand_element(rng, alg, span=5)
            res = diagonalize(x)
            if res.rank == alg.degree:
                assert jordan_norm(x) != 0
            else:
                assert jordan_norm(x) == 0


# ---------------------------------------------------------------------------
# representatives and the torus action
# ---------------------------------------------------------------------------


def test_representative_full_rank(rationals_algebra):
    alg = jordan.hermitian(2, rationals_algebra)
    res = diagonalize(alg.from_entries([2, 3], {}))
    rep = orbit_representative(res)
    assert rep == alg.frame(1) + 6 * alg.frame(2)
    # the label is the norm, well-defined up to squares
    assert jordan_norm(rep) == 6


def test_representative_low_rank_is_frame_sum(family_instances):
    alg = family_instances["C3"]
    x = alg.from_entries([5, 0, 0], {})
    res = diagonalize(x)
    assert res.rank == 1
    assert orbit_representative(res) == alg.frame(1)


def test_torus_scaling_rules(family_instances):
    alg = family_instances["C3"]
    t = Q(3, 2)
    assert torus_scale(1, t, alg.frame(1)) == t * t * alg.frame(1)
    assert torus_scale(3, t, alg.frame(1) + alg.frame(2)) == alg.frame(1) + alg.frame(2)
    u = alg.coeff_algebra.element([5])
    x = alg.from_entries([0, 0, 0], {(0, 1): u})
    assert torus_scale(1, t, x) == alg.from_entries([0, 0, 0], {(0, 1): ca_scale(t, u)})
    with pytest.raises(InvalidParameter):
        torus_scale(1, 0, alg.identity)


def test_torus_scaling_quadratic(family_instances):
    alg = family_instances["D4"]
    x = alg.from_parts(2, 3, [1, 0, -1, 2])
    t = Q(5)
    assert torus_scale(1, t, x) == alg.from_parts(50, 3, [5, 0, -5, 10])
    assert torus_scale(2, t, x) == alg.from_parts(2, 75, [5, 0, -5, 10])


def test_torus_scaling_preserves_rank(family_instances):
    rng = random.Random(11)
    for name in ("C3", "D4"):
        alg = family_instances[name]
        for _ in range(30):
            x = rand_element(rng, alg, span=4)
            i = rng.randrange(1, alg.degree + 1)
            t = Q(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2)))
            assert diagonalize(torus_scale(i, t, x)).rank == diagonalize(x).rank


def test_rank_semicontinuity_along_torus_curves(family_instances):
    # the t -> 0 specialization of the scaling curve can only drop the rank
    alg = family_instances["C3"]
    rng = random.Random(12)
    for _ in range(30):
        x = rand_element(rng, alg, span=3)
        i = rng.randrange(1, alg.degree + 1)
        curve_rank = diagonalize(torus_scale(i, Q(7), x)).rank
        assert diagonalize(_limit_t_to_zero(alg, x, i)).rank <= curve_rank


def _limit_t_to_zero(alg, x, i):
    """t -> 0 limit of torus_scale(i, t, x): the (i,i) and (i,j) parts die."""
    diag = alg.diag_entries(x.vec)
    diag[i - 1] = Q(0)
    upper = {}
    for (a, b) in alg.pairs:
        e = alg.upper_entry(x.vec, a, b)
        if e.is_zero() or (a == i - 1 or b == i - 1):
            continue
        upper[(a, b)] = e
    return alg.from_entries(diag, upper)


# ---------------------------------------------------------------------------
# local square classes
# ---------------------------------------------------------------------------


def test_local_class_examples():
    for p in (2, 3, 5, 7, 11):
        assert local_class(Q(1), p) == local_class(Q(4), p)
        assert local_class(Q(p), p) != local_class(Q(1), p)
    assert local_class(Q(-1), "inf").class_data == (-1,)
    assert local_class(Q(3, 4), 2) == local_class(Q(3), 2)
    with pytest.raises(InvalidParameter):
        local_class(Q(0), 3)
    with pytest.raises(InvalidParameter):
        local_class(Q(1), 6)


def test_local_class_decides_primality_exactly():
    # Miller-Rabin on the bases 2..37 agrees with trial division on small
    # places and refuses strong pseudoprimes to the first few bases; the
    # first to all twelve is the bound, past which a place is refused
    for p in range(-3, 3000):
        if p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1)):
            assert local_class(Q(p), p).class_data == (1, 1)
        else:
            with pytest.raises(InvalidParameter, match=f"^{p} is not a prime$"):
                local_class(Q(1), p)
    for n in (2047, 3215031751, 3825123056546413051):
        with pytest.raises(InvalidParameter, match="is not a prime"):
            local_class(Q(1), n)
    for p in (10**12 + 39, 10**14 + 31, 10**16 + 61, 3 * 10**23 + 37):
        assert local_class(Q(p), p).class_data == (1, 1)
    with pytest.raises(InvalidParameter, match="too large"):
        local_class(Q(1), orbits.PRIME_BOUND)


def test_local_class_agreement_matches_square_equivalence():
    places = ("inf", 2, 3, 5, 7, 11)
    smooth_primes = (2, 3, 5, 7, 11)
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        a, b = rng.randint(-200, 200), rng.randint(-200, 200)
        if a == 0 or b == 0:
            continue
        prod = abs(a * b)
        for p in smooth_primes:
            while prod % p == 0:
                prod //= p
        if prod != 1:
            continue  # a*b has a prime factor outside the place set
        agree = all(local_class(Q(a), pl) == local_class(Q(b), pl) for pl in places)
        assert agree == is_rational_square(Q(a) / Q(b))
        checked += 1


def test_is_rational_square():
    assert is_rational_square(Q(4, 9))
    assert not is_rational_square(Q(-4, 9))
    assert not is_rational_square(Q(2))


def test_classify_report(rationals_algebra, split_complex):
    alg = jordan.hermitian(2, rationals_algebra)
    x = alg.from_entries([1, 3], {})
    out = orbits.classify(x, places=("inf", 2, 3))
    assert out["rank"] == 2
    assert out["norm_value"] == "3"
    assert out["local_classes"]["inf"] == "+"
    assert out["local_classes"]["3"] != str(local_class(Q(1), 3))
    # non-field coefficient algebras only report the real place
    alg2 = jordan.hermitian(2, split_complex)
    y = alg2.from_entries([1, 2], {})
    out2 = orbits.classify(y, places=("inf", 2, 3))
    assert set(out2["local_classes"]) == {"inf"}

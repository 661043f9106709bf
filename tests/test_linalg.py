import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from jordanlie import linalg, rootdata
from jordanlie.cli import parse_jordan_descriptor
from jordanlie.composition import build_composition

from conftest import composition_copy

# tables whose common denominators are 42, 10 and 8, beside the dyadic family
NON_DYADIC = {
    "jordan:H2:quaternion:1/3,-5/7": 42,
    "jordan:J2:dim=2:gram=1/2,3/5": 10,
    "jordan:H3:complex:-7/4": 8,
}


@pytest.fixture(scope="module")
def tables(family_instances, split_builds):
    """name -> (Fraction table, ScaledTable) for every dense product caller."""
    algebras = dict(family_instances)
    algebras.update((d, parse_jordan_descriptor(d)) for d in NON_DYADIC)
    out = {}
    for name, alg in algebras.items():
        out[name] = (alg.mul_table, alg.scaled)
        if alg.variant == "hermitian":
            D = alg.coeff_algebra
            out[f"{name}/{D.descriptor}"] = (D.mul_table, D.scaled)
    rj = rootdata.jordan_from_roots(rootdata.parabolic(split_builds("C", 3), 3))
    out["root:C:3:node=3"] = (rj.table, rj.scaled)
    return out


def oracle(table, x, y):
    prod = linalg.table_product({}, table, enumerate(x), enumerate(y))
    return tuple(prod.get(k, Q(0)) for k in range(len(table)))


def sample_inputs(rng, n):
    """Mixed denominators, zero vectors, single basis vectors, negative and
    sparse entries."""
    def mixed():
        return tuple(
            Q(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12, 35))) if rng.random() < 0.6 else Q(0)
            for _ in range(n)
        )

    zero = (Q(0),) * n
    units = [tuple(Q(c if k == i else 0) for k in range(n)) for i in range(n) for c in (1, Q(-5, 6))]
    dense = [mixed() for _ in range(12)]
    pairs = [(zero, zero), (zero, dense[0]), (dense[0], zero), (units[0], zero)]
    pairs += [(rng.choice(units), rng.choice(units + dense)) for _ in range(20)]
    pairs += [(rng.choice(dense), rng.choice(units + dense)) for _ in range(20)]
    return pairs


def test_dense_product_equals_fraction_oracle(tables):
    rng = random.Random(6)
    for name, (table, scaled) in tables.items():
        for x, y in sample_inputs(rng, len(table)):
            got = linalg.dense_product(linalg.product_plan(scaled), x, y)
            assert got == oracle(table, x, y), (name, x, y)
            assert all(type(c) is Q for c in got), name


@pytest.fixture(scope="module")
def product_callers(family_instances, split_builds):
    """name -> (Fraction table, plan held by its owner, the owner's own
    product of two Fraction vectors) for the seven element-arith Jordan
    algebras, their coefficient algebras and the root Jordan table of E7
    node 7."""
    out = {}
    for name, alg in family_instances.items():
        out[name] = (alg.mul_table, alg.plan, lambda x, y, alg=alg: (alg.element(x) * alg.element(y)).vec)
        if alg.variant == "hermitian":
            D = alg.coeff_algebra
            out[f"{name}/{D.descriptor}"] = (D.mul_table, D.plan, D.mul_coeffs)
    rj = rootdata.jordan_from_roots(rootdata.parabolic(split_builds("E7", 7), 7))
    out["root:E7:7:node=7"] = (rj.table, rj.plan, rj.mul_vec)
    return out


def _mismatches(plan, table, pairs):
    return sum(linalg.dense_product(plan, x, y) != oracle(table, x, y) for x, y in pairs)


def test_held_plans_equal_the_fraction_oracle(product_callers):
    # every plan a caller holds, through dense_product and through the
    # caller's own product, on zero, unit and mixed-denominator inputs and on
    # one pair with no zero entry; a plan that drops one entry or shifts one
    # constant fails on the same inputs
    rng = random.Random(26)
    assert len(product_callers) == 13
    for name, (table, plan, product) in product_callers.items():
        n = len(table)
        full = (tuple(Q(k + 1, k + 2) for k in range(n)), tuple(Q(-3, 2 * k + 1) for k in range(n)))
        pairs = sample_inputs(rng, n) + [full]
        assert _mismatches(plan, table, pairs) == 0, name
        for x, y in pairs:
            assert product(x, y) == oracle(table, x, y), (name, x, y)
        terms = list(plan.terms)
        k = max(range(len(terms)), key=lambda k: len(terms[k][0]))
        consts, left, right = terms[k]
        dropped = terms[:k] + [(consts[1:], left[1:], right[1:])] + terms[k + 1 :]
        shifted = terms[:k] + [((consts[0] + 1,) + consts[1:], left, right)] + terms[k + 1 :]
        for bad in (dropped, shifted):
            assert _mismatches(linalg.ProductPlan(tuple(bad), plan.den), table, pairs) > 0, name


def test_int_product_is_den_times_the_product(product_callers):
    # the int kernel on int vectors (zeros included) gives plan.den times
    # the product, in ints
    rng = random.Random(27)
    for name, (table, plan, _) in product_callers.items():
        n = len(table)
        for _ in range(10):
            x, y = ([rng.choice((0, 0, 1, -3, 7)) for _ in range(n)] for _ in range(2))
            got = linalg.int_product(plan, x, y)
            assert all(type(c) is int for c in got), name
            assert got == tuple(plan.den * c for c in oracle(table, x, y)), name


def test_scale_table_is_the_least_common_denominator(tables):
    dens = {name: scaled.den for name, (_, scaled) in tables.items()}
    for name, den in NON_DYADIC.items():
        assert dens[name] == den
    assert dens["jordan:H3:complex:-7/4/complex:-7/4"] == 4
    for name, (table, scaled) in tables.items():
        coeffs = [c for row in table for cell in row for c in cell.values()]
        assert scaled.den == math.lcm(*(Q(c).denominator for c in coeffs)), name
        for i, row in enumerate(table):
            for j, cell in enumerate(row):
                assert scaled.cells[i][j] == {k: c * scaled.den for k, c in cell.items()}
                assert all(type(c) is int for c in scaled.cells[i][j].values())


def test_replace_rescales_a_corrupted_table():
    D = build_composition(4, [Q(1, 3), Q(-5, 7)])
    table = [list(row) for row in D.mul_table]
    table[1][2] = {0: Q(5, 11), 3: Q(-1)}
    bad = composition_copy(D, mul_table=tuple(map(tuple, table)))
    assert bad.scaled == linalg.scale_table(bad.mul_table) != D.scaled
    assert bad.scaled.den % 11 == 0
    e1, e2 = bad.basis_element(1).coeffs, bad.basis_element(2).coeffs
    assert bad.mul_coeffs(e1, e2) == (Q(5, 11), Q(0), Q(0), Q(-1))
    assert D.mul_coeffs(e1, e2) != bad.mul_coeffs(e1, e2)


# ---------------------------------------------------------------------------
# column-sparse operators against dense oracles
# ---------------------------------------------------------------------------


def random_dense(rng, n):
    return [
        [Q(rng.randint(-5, 5), rng.choice((1, 2, 3, 7))) if rng.random() < 0.4 else Q(0) for _ in range(n)]
        for _ in range(n)
    ]


def dense_of(cols, n):
    return [[cols[k].get(r, Q(0)) for k in range(n)] for r in range(n)]


def operator_pairs():
    rng = random.Random(8)
    for n in (1, 2, 5, 8):
        for _ in range(6):
            yield n, random_dense(rng, n), random_dense(rng, n)
    yield 3, [[Q(0)] * 3 for _ in range(3)], linalg.identity(3)


def no_zero_entries(cols):
    return all(c for col in cols for c in col.values())


def test_op_from_dense_apply_and_compose_match_dense_oracles():
    rng = random.Random(9)
    for n, A, B in operator_pairs():
        a, b = linalg.op_from_dense(A), linalg.op_from_dense(B)
        assert dense_of(a, n) == A and no_zero_entries(a)
        ab = linalg.op_compose(a, b)
        assert dense_of(ab, n) == linalg.mat_mul(A, B)
        assert no_zero_entries(ab)
        v = [Q(rng.randint(-3, 3), rng.choice((1, 4))) for _ in range(n)]
        want = linalg.mat_vec(A, v)
        assert linalg.op_apply(a, {k: c for k, c in enumerate(v) if c}) == {
            k: c for k, c in enumerate(want) if c
        }


def test_op_trace_products_match_the_one_pair_traces():
    # one run over a list yields, for each A_a in order, exactly the b >= a
    # whose trace(A_a A_b) is nonzero, keys ascending, each equal to the
    # trace of mat_mul's dense product: on the seeded pairs, and on lists of
    # random operators, copies with columns emptied, an all-zero operator, int
    # copies and A = [[1, 1], [-1, -1]], whose traces with itself and with
    # the identity cancel entry by entry
    rng = random.Random(13)
    lists = [(n, [A, B]) for n, A, B in operator_pairs()]
    lists.append((2, [[[Q(1), Q(1)], [Q(-1), Q(-1)]], linalg.identity(2)]))
    for n in (1, 3, 6):
        ms = [random_dense(rng, n) for _ in range(5)]
        ms += [emptied(M, {k for k in range(n) if rng.random() < 0.4}) for M in ms]
        ms.append([[Q(0)] * n for _ in range(n)])
        for M in ms[:3]:
            den = math.lcm(*(c.denominator for row in M for c in row))
            ms.append([[int(den * c) for c in row] for row in M])
        lists.append((n, ms))
    vanishing = 0
    for n, ms in lists:
        ops = [linalg.op_from_dense(M) for M in ms]
        got = list(linalg.op_trace_products(ops, n))
        assert len(got) == len(ops)
        for a, traces in enumerate(got):
            products = ((b, linalg.mat_mul(ms[a], ms[b])) for b in range(a, len(ms)))
            want = [(b, sum(p[k][k] for k in range(n))) for b, p in products]
            vanishing += sum(not t for _, t in want)
            assert list(traces.items()) == [(b, t) for b, t in want if t]
    assert vanishing


def test_op_flatten_round_trip():
    for n, A, _ in operator_pairs():
        a = linalg.op_from_dense(A)
        flat = linalg.op_flatten(a, n)
        assert flat == {k * n + r: A[r][k] for r in range(n) for k in range(n) if A[r][k]}
        assert linalg.op_unflatten(flat, n) == a


def emptied(M, cols):
    """M with the columns in cols set to zero."""
    return [[Q(0) if k in cols else c for k, c in enumerate(row)] for row in M]


def dense_commutator(A, B):
    ab, ba = linalg.mat_mul(A, B), linalg.mat_mul(B, A)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def op_commutator(a, b, n):
    """AB - BA, flattened: the one pair of an op_commutators run."""
    return next(linalg.op_commutators((a, b), n)).get(1, {})


def test_op_commutator_matches_the_dense_commutator():
    # the seeded pairs, then pairs whose columns are emptied at random in
    # both operators, in one, or in neither: a column empty in both is
    # skipped, and the result must still be the whole commutator
    rng = random.Random(10)
    pairs = list(operator_pairs())
    for n, A, B in list(pairs):
        both = {k for k in range(n) if rng.random() < 0.4}
        only_a = {k for k in range(n) if rng.random() < 0.2}
        pairs.append((n, emptied(A, both | only_a), emptied(B, both)))
    skipped = 0
    for n, A, B in pairs:
        a, b = linalg.op_from_dense(A), linalg.op_from_dense(B)
        skipped += sum(not (a[k] or b[k]) for k in range(n))
        comm = dense_commutator(A, B)
        assert op_commutator(a, b, n) == linalg.op_flatten(linalg.op_from_dense(comm), n)
    assert skipped


def test_op_commutator_of_commuting_operators_is_empty():
    # every entry cancels in the one accumulator: A with A, with A^2 and with
    # the identity give {}, no zero entry left, on Fraction and on int operands
    for n, A, _ in operator_pairs():
        den = math.lcm(*(c.denominator for row in A for c in row))
        for M, one in ((A, Q(1)), ([[int(den * c) for c in row] for row in A], 1)):
            a = linalg.op_from_dense(M)
            ident = linalg.op_from_dense([[one * (r == k) for k in range(n)] for r in range(n)])
            for b in (a, linalg.op_compose(a, a), ident):
                assert op_commutator(a, b, n) == {} == op_commutator(b, a, n)


def test_op_commutators_matches_the_dense_commutators():
    # for each size, the seeded operators, copies with columns emptied at
    # random, one all-zero operator and int copies of the Fraction ones: the
    # kernel yields one dict per operator, keyed by exactly the later
    # operators that do not commute with it, and no zero entry
    rng = random.Random(12)
    mats: dict = {}
    for n, A, B in operator_pairs():
        mats.setdefault(n, []).extend((A, B))
    commuting = 0
    for n, ms in mats.items():
        ms += [emptied(M, {k for k in range(n) if rng.random() < 0.4}) for M in ms]
        ms.append([[Q(0)] * n for _ in range(n)])
        for M in ms[:4]:
            den = math.lcm(*(c.denominator for row in M for c in row))
            ms.append([[int(den * c) for c in row] for row in M])
        ops = [linalg.op_from_dense(M) for M in ms]
        got = list(linalg.op_commutators(ops, n))
        assert len(got) == len(ops)
        for a, comms in enumerate(got):
            want = {}
            for b in range(a + 1, len(ops)):
                flat = linalg.op_flatten(linalg.op_from_dense(dense_commutator(ms[a], ms[b])), n)
                if flat:
                    want[b] = flat
            commuting += len(ops) - a - 1 - len(want)
            assert comms == want
            assert all(c for comm in comms.values() for c in comm.values())
        assert list(linalg.op_commutators(ops[:1], n)) == [{}]
    assert commuting


# ---------------------------------------------------------------------------
# the dense helpers against oracles that use no elimination: the Leibniz sum
# for det, and rank as the size of the largest nonzero minor
# ---------------------------------------------------------------------------


def leibniz(mat):
    n = len(mat)
    total = Q(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Q(-1) ** inversions
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def minor_rank(mat):
    if not mat:
        return 0
    rows, cols = range(len(mat)), range(len(mat[0]))
    for k in range(min(len(rows), len(cols)), 0, -1):
        for rs in itertools.combinations(rows, k):
            for cs in itertools.combinations(cols, k):
                if leibniz([[mat[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def elimination_cases():
    """Seeded matrices with zero rows, repeated rows, dependent rows, wide and
    tall shapes, and rows whose leading columns come out of order."""
    rng = random.Random(9)

    def entry():
        return Q(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) if rng.random() < 0.7 else Q(0)

    cases = [
        [[Q(0), Q(0), Q(2)], [Q(0), Q(3), Q(1)], [Q(5), Q(1), Q(0)]],
        [[Q(0), Q(1)], [Q(1), Q(0)]],
        [[Q(1), Q(2), Q(3)], [Q(0), Q(0), Q(0)], [Q(1), Q(2), Q(3)]],
    ]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        kind = rng.randrange(4)
        if kind == 0 and nrows > 1:
            mat[rng.randrange(nrows)] = [Q(0)] * ncols
        elif kind == 1 and nrows > 1:
            mat[rng.randrange(nrows)] = list(mat[rng.randrange(nrows)])
        elif kind == 2 and nrows > 2:
            a, b = Q(rng.randint(-3, 3)), Q(rng.randint(1, 3), 2)
            mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
        else:
            for row in mat:
                lead = rng.randrange(ncols)
                row[:lead] = [Q(0)] * lead
            rng.shuffle(mat)
        cases.append(mat)
    return cases


def test_det_equals_the_leibniz_sum():
    square = [m for m in elimination_cases() if len(m) == len(m[0])]
    assert len(square) > 10 and any(leibniz(m) == 0 for m in square)
    for mat in square:
        assert linalg.det(mat) == leibniz(mat), mat


def test_det_reduces_each_row_once(monkeypatch):
    calls = []
    reduce = linalg.EchelonBasis.reduce

    def counting_reduce(self, vec):
        calls.append(len(vec))
        return reduce(self, vec)

    monkeypatch.setattr(linalg.EchelonBasis, "reduce", counting_reduce)
    rng = random.Random(10)
    dense = [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)] for _ in range(6)]
    square = elimination_cases() + [dense]
    nonsingular = [m for m in square if len(m) == len(m[0]) and leibniz(m)]
    assert len(nonsingular[-1]) == 6
    for mat in nonsingular:
        calls.clear()
        assert linalg.det(mat) == leibniz(mat)
        assert len(calls) == len(mat), mat


def test_rref_rows_are_reduced_and_rebuild_the_input():
    for mat in elimination_cases():
        rows, pivots = linalg.rref(mat)
        ncols = len(mat[0])
        assert len(rows) == len(mat) and all(len(row) == ncols for row in rows)
        assert len(pivots) == minor_rank(mat), mat
        assert pivots == sorted(set(pivots))
        for k, row in enumerate(rows):
            if k >= len(pivots):
                assert not any(row)
                continue
            assert not any(row[: pivots[k]]) and row[pivots[k]] == 1
            assert all(rows[t][pivots[k]] == 0 for t in range(len(pivots)) if t != k)
        # row i of the input is the combination of the reduced rows with its
        # own entries at the pivot columns as coefficients
        for row in mat:
            rebuilt = [Q(0)] * ncols
            for k, p in enumerate(pivots):
                rebuilt = [x + row[p] * y for x, y in zip(rebuilt, rows[k])]
            assert rebuilt == row, mat


def test_sorted_pivots_are_those_of_the_sorted_basis():
    # leading columns that come out of order leave the rows out of pivot order
    for mat in elimination_cases():
        basis = linalg.EchelonBasis()
        for row in mat:
            basis.insert({k: c for k, c in enumerate(row) if c})
        pivots = basis.sorted_pivots()
        assert len(pivots) == len(basis)
        for p, row in zip(pivots, basis.sorted_basis()):
            assert min(row) == p and row[p] == 1


def test_invert_and_solve_against_mat_mul():
    for mat in elimination_cases():
        n, ncols = len(mat), len(mat[0])
        full_rank = minor_rank(mat)
        if n == ncols:
            if full_rank == n:
                assert linalg.mat_mul(linalg.invert(mat), mat) == linalg.identity(n)
            else:
                with pytest.raises(ValueError):
                    linalg.invert(mat)
        rhs = linalg.mat_vec(mat, [Q(j + 1, 2) for j in range(ncols)])
        x = linalg.solve(mat, rhs)
        assert x is not None and linalg.mat_vec(mat, x) == rhs
        off = rhs[:-1] + [rhs[-1] + 1]
        consistent = minor_rank([row + [c] for row, c in zip(mat, off)]) == full_rank
        x = linalg.solve(mat, off)
        assert (x is not None) == consistent, mat
        if consistent:
            assert linalg.mat_vec(mat, x) == off


def test_nullspace_is_annihilated_and_complete():
    for mat in elimination_cases():
        basis = linalg.nullspace(mat)
        assert len(basis) == len(mat[0]) - minor_rank(mat), mat
        assert minor_rank(basis) == len(basis)
        for v in basis:
            assert not any(linalg.mat_vec(mat, v))
        assert linalg.rank(mat) == minor_rank(mat)


# ---------------------------------------------------------------------------
# the integer echelon against a Fraction Gauss-Jordan that normalizes every
# row to pivot 1
# ---------------------------------------------------------------------------


def fraction_gauss_jordan(mat):
    """The reduced rows of mat as sparse Fraction rows in pivot order, and the
    pivot entry each row's remainder had before it was normalized."""
    reduced, leads = [], []  # reduced holds (pivot, dense row)
    for row in mat:
        row = [Q(x) for x in row]
        for p, r in reduced:
            row = [x - row[p] * y for x, y in zip(row, r)]
        if not any(row):
            continue
        p = next(k for k, x in enumerate(row) if x)
        leads.append(row[p])
        row = [x / row[p] for x in row]
        reduced = [(q, [x - r[p] * y for x, y in zip(r, row)]) for q, r in reduced]
        reduced.append((p, row))
    return [{k: x for k, x in enumerate(r) if x} for _, r in sorted(reduced)], leads


def test_a_row_whose_content_is_not_one_reads_back_reduced():
    basis = linalg.EchelonBasis()
    assert basis.insert({0: 6, 1: 4}) == 6
    assert basis.sorted_basis() == [{0: Q(1), 1: Q(2, 3)}]
    assert basis.scaled_basis() == ([{0: 3, 1: 2}], 3)


def test_pivots_of_each_sign_match_the_fraction_oracle():
    mat = [[0, -4, 6, 1], [3, 0, -9, 2], [-2, 5, 0, Q(1, 2)], [Q(-1, 3), 0, 0, 7]]
    want, leads = fraction_gauss_jordan(mat)
    assert any(c < 0 for c in leads) and any(c > 0 for c in leads)
    basis = linalg.EchelonBasis()
    assert [basis.insert({k: c for k, c in enumerate(row) if c}) for row in mat] == leads
    assert basis.sorted_basis() == want
    rows, d = basis.scaled_basis()
    assert rows == [{k: d * c for k, c in row.items()} for row in want]
    assert all(type(c) is int for row in rows for c in row.values())
    assert linalg.det(mat) == leibniz(mat)


def test_det_whose_reduction_meets_denominators_2_3_and_7():
    mat = [[-3, 1, -2, 0], [-2, 3, -3, 1], [2, -2, 2, 1], [2, 1, 2, 1]]
    _, leads = fraction_gauss_jordan(mat)
    assert {2, 3, 7} <= {c.denominator for c in leads}
    assert linalg.det(mat) == leibniz(mat) == 21


def test_mixed_denominator_rows_reduce_to_the_oracle():
    rng = random.Random(11)
    for _ in range(30):
        ncols = rng.randint(2, 6)
        mat = [
            [Q(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12))) if rng.random() < 0.6 else Q(0)
             for _ in range(ncols)]
            for _ in range(rng.randint(1, 5))
        ]
        basis = linalg.EchelonBasis()
        for row in mat:
            basis.insert({k: c for k, c in enumerate(row) if c})
        assert basis.sorted_basis() == fraction_gauss_jordan(mat)[0], mat


def test_coordinates_of_a_vector_outside_the_span_are_none():
    basis = linalg.EchelonBasis()
    for row in ({0: 2, 2: Q(1, 3)}, {1: Q(-5, 7), 2: 4}):
        basis.insert(row)
    assert basis.coordinates({0: 1, 1: 1, 2: 1}) is None
    assert basis.coordinates({2: 1}) is None
    # the sum of the two rows: its coordinates are its pivot entries
    assert basis.coordinates({0: 2, 1: Q(-5, 7), 2: Q(13, 3)}) == [2, Q(-5, 7)]


def test_det_rejects_a_non_square_matrix():
    for mat in ([[1, 2]], [[1], [2]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="not square"):
            linalg.det(mat)


def test_invert_rejects_a_non_square_matrix():
    for mat in ([[1, 0]], [[1], [0]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="not square"):
            linalg.invert(mat)

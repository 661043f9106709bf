import copy
import functools
import itertools
import json
import pathlib
import random
import re
from fractions import Fraction as Q

import pytest

import jordanlie
from jordanlie import cli, jordan, kkt, linalg, rationals, rootdata, verify
from jordanlie.composition import build_composition
from jordanlie.errors import ConstructionError, InvalidParameter
from jordanlie.kkt import (
    build_kkt,
    from_json,
    n_product,
    nbar_product,
    to_json,
    verify_span,
    w_map,
    w_matrix,
)

from conftest import corrupted_copy, dense_inverse, stored_brackets
from test_cli import GOLDEN_BUILD_SHA256

CFG = verify.Config(seed=0, sample_count=400)


def vop_cols(J, x, y):
    """Columns of V_{x,y} = 2([L_y, L_x] - L_{x o y}), the oracle build_kkt's
    m is checked against, formed on the integer cells of J.scaled: x and y are
    scaled to ints over dx and dy, so L_x and L_y hold ints over dx den and
    dy den, L_{x o y} over dx dy den^2, and each entry is divided once."""
    cells, n = J.scaled.cells, J.dim
    xs, dx = linalg.scale_vec(enumerate(x))
    ys, dy = linalg.scale_vec(enumerate(y))
    xy = linalg.table_product({}, cells, xs, ys)  # dx dy den (x o y)
    pair = (jordan.lmul_cols(cells, ys), jordan.lmul_cols(cells, xs))
    flat = next(linalg.op_commutators(pair, n)).get(1, {})
    l_xy = linalg.op_flatten(jordan.lmul_cols(cells, xy.items()), n)
    linalg.add_combination(flat, [l_xy], [(0, -1)])
    den = dx * dy * J.scaled.den**2
    return linalg.op_unflatten({p: Q(2 * c, den) for p, c in sorted(flat.items()) if c}, n)


EXPECTED_BLOCKS = {
    # dim J, dim m; total = 2*dim J + dim m
    "C2": (3, 4, 10),
    "C3": (6, 9, 21),
    "A3": (4, 7, 15),
    "A5": (9, 17, 35),
    "B3": (5, 11, 21),
    "D4": (6, 16, 28),
    "E7": (27, 79, 133),
}


def rand_vec(rng, g, indices, span=5):
    return {i: Q(rng.randint(-span, span)) for i in indices if rng.random() < 0.7}


@pytest.mark.parametrize("name", list(EXPECTED_BLOCKS))
def test_graded_dimensions(name, kkt_builds):
    g = kkt_builds(name)
    nj, m, total = EXPECTED_BLOCKS[name]
    assert g.dim == total
    assert len(g.degree_indices(-2)) == nj
    assert len(g.degree_indices(0)) == m
    assert len(g.degree_indices(2)) == nj


def test_b3_dimension_formula(kkt_builds):
    # orthogonal-family dimension oracle (n+1)(2n+3) at n = 2
    n = 2
    assert kkt_builds("B3").dim == (n + 1) * (2 * n + 3)


def test_sl2_relations(kkt_builds):
    for name in EXPECTED_BLOCKS:
        g = kkt_builds(name)
        f, h, e = g.triple
        assert g.bracket(h, e) == {k: 2 * c for k, c in e.items()}
        assert g.bracket(h, f) == {k: -2 * c for k, c in f.items()}
        assert g.bracket(e, f) == h


def test_abelian_radicals(kkt_builds):
    for name in ("C2", "A3", "B3"):
        g = kkt_builds(name)
        for block in (2, -2):
            idx = g.degree_indices(block)
            for i, j in itertools.combinations(idx, 2):
                assert not g.bracket_basis(i, j)


def test_jacobi_exhaustive_small(kkt_builds):
    for name in ("C2", "C3", "A3", "B3", "D4", "A5"):
        res = verify.suite_jacobi(kkt_builds(name), CFG)
        assert res.passed, res.line()


def test_jacobi_sampled_e7(kkt_builds):
    res = verify.suite_jacobi(kkt_builds("E7"), verify.Config(seed=11, sample_count=20000))
    assert res.passed, res.line()


def test_grading_suite(kkt_builds):
    for name in EXPECTED_BLOCKS:
        res = verify.suite_grading(kkt_builds(name))
        assert res.passed, res.line()


def test_killing_suite(kkt_builds):
    for name in ("C2", "A3", "B3", "E7"):
        res = verify.suite_killing(kkt_builds(name))
        assert res.passed, res.line()


def assert_killing_matches_oracle(g):
    """Every basis pair of the trace Gram and of the Killing form against
    the trace of the composed table rows, formed apart from the Gram: row i
    is den ad(b_i), so that trace is den^2 trace(ad b_i ad b_j), and the
    Killing form is it over the norm pair's."""
    cells = g.table.cells

    def trace(i, j):
        prod = linalg.op_compose(cells[i], cells[j])
        return sum(col.get(k, 0) for k, col in enumerate(prod))

    f1, e1 = g.norm_pair
    norm = sum(cx * cy * trace(i, j) for i, cx in f1.items() for j, cy in e1.items())
    gram = g.killing_matrix()
    for i in range(g.dim):
        for j in range(g.dim):
            t = trace(i, j)
            assert (gram[i][j], g.killing({i: Q(1)}, {j: Q(1)})) == (t, t / norm), (i, j)


def test_killing_normalization_and_oracle(kkt_builds, split_builds):
    g = kkt_builds("C2")
    f, h, e = g.triple
    # raw ad-trace recomputation as the oracle for the normalized values
    f1, e1 = g.norm_pair
    scale = g.killing_raw(f1, e1)
    assert g.killing(f1, e1) == 1
    assert g.killing_raw(h, h) / scale == g.killing(h, h)
    for alg in (g, split_builds("C", 3), split_builds("A", 3)):
        assert_killing_matches_oracle(alg)
    # kappa(h, h) = 2r under the chosen normalization
    assert g.killing(h, h) == 4
    g3 = kkt_builds("C3")
    h3 = g3.triple[1]
    assert g3.killing(h3, h3) == 6


def test_killing_matrix_matches_the_oracle_off_the_grading(kkt_builds):
    # a constant moved out of its degree can make ad(b_i) ad(b_j) traceful on
    # a pair whose degrees do not cancel: on every such corruption of a
    # nonzero bracket of H2(Q)'s algebra the Killing matrix still matches the
    # oracle, and 148 of the 184 copies pair two basis vectors across degrees
    g = kkt_builds("C2")
    deg = g.grading
    across = 0
    for i, j in list(g.upper()):
        for k in range(g.dim):
            if deg[k] != deg[i] + deg[j]:
                bad = corrupted_copy(g, i, j, k, 1)
                assert_killing_matches_oracle(bad)
                mat = bad.killing_matrix()
                across += any(mat[a][b] for a in range(g.dim) for b in range(g.dim) if deg[a] + deg[b])
    assert across == 148


def test_killing_suite_names_a_grading_that_pairs_across_degrees(kkt_builds):
    # m:0 and n:0 of H2(Q)'s algebra swap degree labels: the brackets are
    # untouched, so the Killing matrix stays ad-invariant, and the suite
    # names the pairing of nbar:0 with n:0, now of degree 0
    g = kkt_builds("C2")
    m0, n0 = g.labels.index("m:0"), g.labels.index("n:0")
    deg = list(g.grading)
    deg[m0], deg[n0] = deg[n0], deg[m0]
    res = verify.suite_killing(kkt.LieAlgebra(g.labels, g.table, tuple(deg), g.triple, g.norm_pair, g.root_system))
    assert res.line() == "killing: FAIL [1008 checks] witness: nonzero pairing across degrees at (nbar:0, n:0)"


def test_killing_frame_duality(kkt_builds, family_instances):
    for name in ("C3", "B3"):
        g = kkt_builds(name)
        J = family_instances[name]
        n_idx = g.degree_indices(2)
        nbar_idx = g.degree_indices(-2)
        r = J.degree
        for i in range(1, r + 1):
            ei = {n_idx[k]: c for k, c in enumerate(J.frame(i).vec) if c}
            for j in range(1, r + 1):
                fj = {nbar_idx[k]: -c for k, c in enumerate(J.frame(j).vec) if c}
                assert g.killing(fj, ei) == (1 if i == j else 0)


def test_killing_zero_between_like_blocks(kkt_builds):
    g = kkt_builds("C3")
    n_idx = g.degree_indices(2)
    m_idx = g.degree_indices(0)
    for i, j in itertools.combinations(n_idx, 2):
        assert g.killing({i: Q(1)}, {j: Q(1)}) == 0
    for i in n_idx[:3]:
        for j in m_idx[:3]:
            assert g.killing({i: Q(1)}, {j: Q(1)}) == 0


def test_killing_ad_invariance_sampled(kkt_builds):
    rng = random.Random(13)
    g = kkt_builds("A5")
    for _ in range(300):
        i, j, k = (rng.randrange(g.dim) for _ in range(3))
        lhs = g.killing(g.bracket_basis(i, j), {k: Q(1)})
        rhs = g.killing({j: Q(1)}, g.bracket_basis(i, k))
        assert lhs + rhs == 0


def test_bracket_dimension_mismatch(kkt_builds):
    g = kkt_builds("C2")
    with pytest.raises(InvalidParameter):
        g.bracket({g.dim + 3: Q(1)}, {0: Q(1)})


def test_killing_index_out_of_range(kkt_builds, split_builds):
    for g in (kkt_builds("C2"), split_builds("A", 1)):
        for killing in (g.killing, g.killing_raw):
            with pytest.raises(InvalidParameter, match="element index out of range"):
                killing({g.dim + 2: Q(1)}, {0: Q(1)})


@pytest.mark.parametrize(
    "call",
    [
        lambda g: n_product(g, {0: Q(1)}, {1: Q(1)}),
        lambda g: nbar_product(g, {0: Q(1)}, {1: Q(1)}),
        lambda g: w_map(g, {0: Q(1)}),
    ],
    ids=["n_product", "nbar_product", "w_map"],
)
def test_sl2_helpers_need_a_triple(split_builds, call):
    g = split_builds("A", 1)
    assert g.triple is None
    with pytest.raises(InvalidParameter, match="algebra carries no sl2 triple"):
        call(g)


def test_w_map_basics(kkt_builds):
    for name in EXPECTED_BLOCKS:
        g = kkt_builds(name)
        f, h, e = g.triple
        assert w_map(g, e) == {k: -c for k, c in f.items()}
        assert linalg.det(w_matrix(g)) != 0


def test_w_map_rejects_mixed_input(kkt_builds):
    g = kkt_builds("C2")
    with pytest.raises(InvalidParameter):
        w_map(g, {0: Q(1)})  # nbar-component input


def test_w_intertwines_products(kkt_builds):
    rng = random.Random(14)
    for name in ("C2", "A3", "B3"):
        g = kkt_builds(name)
        n_idx = g.degree_indices(2)
        for _ in range(40):
            x = rand_vec(rng, g, n_idx)
            y = rand_vec(rng, g, n_idx)
            lhs = w_map(g, n_product(g, x, y))
            rhs = nbar_product(g, w_map(g, x), w_map(g, y))
            assert lhs == rhs


def test_n_product_matches_jordan_table(kkt_builds, family_instances):
    rng = random.Random(15)
    for name in ("C3", "B3", "E7"):
        g = kkt_builds(name)
        J = family_instances[name]
        n_idx = g.degree_indices(2)
        for _ in range(20):
            xv = [Q(rng.randint(-4, 4)) for _ in range(J.dim)]
            yv = [Q(rng.randint(-4, 4)) for _ in range(J.dim)]
            lhs = n_product(
                g,
                {n_idx[k]: c for k, c in enumerate(xv) if c},
                {n_idx[k]: c for k, c in enumerate(yv) if c},
            )
            want = (J.element(xv) * J.element(yv)).vec
            assert lhs == {n_idx[k]: c for k, c in enumerate(want) if c}


def test_structure_operator_bracket_formula(kkt_builds, family_instances):
    # [x, w(y)] applied to z against the Jordan-side expression
    rng = random.Random(16)
    for name in ("C2", "A3", "E7"):
        g = kkt_builds(name)
        J = family_instances[name]
        n_idx = g.degree_indices(2)
        reps = 100 if name != "E7" else 25
        for _ in range(reps):
            xv = J.element([Q(rng.randint(-3, 3)) for _ in range(J.dim)])
            yv = J.element([Q(rng.randint(-3, 3)) for _ in range(J.dim)])
            zv = J.element([Q(rng.randint(-3, 3)) for _ in range(J.dim)])
            x = {n_idx[k]: c for k, c in enumerate(xv.vec) if c}
            z = {n_idx[k]: c for k, c in enumerate(zv.vec) if c}
            wy = w_map(g, {n_idx[k]: c for k, c in enumerate(yv.vec) if c})
            lie_side = g.bracket(g.bracket(x, wy), z)
            jordan_side = 2 * (
                ((xv * zv) * yv) - ((zv * yv) * xv) - ((xv * yv) * zv)
            )
            assert lie_side == {
                n_idx[k]: c for k, c in enumerate(jordan_side.vec) if c
            }
            # the oracle's columns compute the same action
            op = vop_cols(J, xv.vec, yv.vec)
            assert linalg.op_apply(op, {k: c for k, c in enumerate(zv.vec) if c}) == {
                k: c for k, c in enumerate(jordan_side.vec) if c
            }
    # every column of V_{x,y} and of its companion V_{y,x}: on every basis
    # pair of the small families and a seeded sample of E7's, and on x, y
    # with non-unit denominators.  H2 over quaternion:1/3,-5/7 has table
    # denominator 42, so each factor of the one division by dx dy den^2 shows
    nondyadic = jordan.hermitian(2, build_composition(4, [Q(1, 3), Q(-5, 7)]))
    assert nondyadic.scaled.den == 42
    families = {name: family_instances[name] for name in ("C2", "A3", "B3", "E7")}
    families["H2:quaternion:1/3,-5/7"] = nondyadic
    for name, J in families.items():
        basis = J.basis()
        pairs = [(basis[i], basis[j]) for i, j in itertools.product(range(J.dim), repeat=2)]
        if name == "E7":
            pairs = rng.sample(pairs, 40)
        for _ in range(5):
            x, y = (
                J.element([Q(rng.randint(-3, 3), rng.choice((1, 2, 3, 7))) for _ in range(J.dim)])
                for _ in range(2)
            )
            pairs.append((x, y))
        for x, y in pairs:
            cols_xy, cols_yx = vop_cols(J, x.vec, y.vec), vop_cols(J, y.vec, x.vec)
            for cols, (u, v) in ((cols_xy, (x, y)), (cols_yx, (y, x))):
                for k, z in enumerate(basis):
                    want = 2 * (((u * z) * v) - ((z * v) * u) - ((u * v) * z))
                    assert cols[k] == {r: c for r, c in enumerate(want.vec) if c}


# the construction oracles run on four table families and two non-dyadic
# descriptors, table denominators 42 and 10
ORACLE_DESCRIPTORS = ("jordan:H2:quaternion:1/3,-5/7", "jordan:J2:dim=2:gram=1/2,3/5")


def _oracle_builds(names, family_instances, kkt_builds):
    out = [(name, family_instances[name], kkt_builds(name)) for name in names]
    for descriptor in ORACLE_DESCRIPTORS:
        J = cli.parse_jordan_descriptor(descriptor)
        out.append((descriptor, J, build_kkt(J)))
    return out


def _m_operators(g):
    """Each T_a as a column-sparse operator, read back from [m_a, n_k] = T_a(b_k)."""
    m_idx, n_idx = g.degree_indices(0), g.degree_indices(2)
    return [
        [{r - n_idx[0]: c for r, c in g.bracket_basis(a, k).items()} for k in n_idx] for a in m_idx
    ]


def test_m_is_the_reduced_span_of_every_structure_operator(family_instances, kkt_builds):
    # the m basis is the reduced echelon basis of all n^2 flattened
    # V_{b_i, b_j}, and [n_i, nbar_j] holds V_{b_i, b_j}'s coordinates in it
    for name, J, g in _oracle_builds(("C2", "A3", "B3", "D4"), family_instances, kkt_builds):
        n, basis = J.dim, J.basis()
        span = linalg.EchelonBasis()
        vops = {}
        for i, j in itertools.product(range(n), repeat=2):
            vops[i, j] = linalg.op_flatten(vop_cols(J, basis[i].vec, basis[j].vec), n)
            span.insert(vops[i, j])
        flat_m = [linalg.op_flatten(op, n) for op in _m_operators(g)]
        assert flat_m == span.sorted_basis(), name
        m_idx, n_idx, nbar_idx = g.degree_indices(0), g.degree_indices(2), g.degree_indices(-2)
        for (i, j), flat in vops.items():
            coords = {m_idx[a]: c for a, c in enumerate(span.coordinates(flat)) if c}
            assert g.bracket_basis(n_idx[i], nbar_idx[j]) == coords, (name, i, j)


def test_companion_is_the_trace_form_adjoint(family_instances, kkt_builds):
    # [m_a, nbar_k] = -(T_a#(b_k))bar, where T# = G^-1 T^t G is the adjoint
    # under the trace form (x, y) |-> T(x o y) with Gram matrix G
    names = ("C2", "A3", "B3", "D4", "E7")
    for name, J, g in _oracle_builds(names, family_instances, kkt_builds):
        n, nbar_idx = J.dim, g.degree_indices(-2)
        tau = [jordan.jordan_trace(b) for b in J.basis()]
        gram = [
            [sum((c * tau[k] for k, c in J.mul_table[i][j].items()), Q(0)) for j in range(n)]
            for i in range(n)
        ]
        g_op, g_inv = linalg.op_from_dense(gram), linalg.op_from_dense(dense_inverse(gram))
        for a, op in zip(g.degree_indices(0), _m_operators(g)):
            dense = [[op[k].get(r, Q(0)) for k in range(n)] for r in range(n)]
            transpose = linalg.op_from_dense([list(row) for row in zip(*dense)])
            sharp = linalg.op_compose(g_inv, linalg.op_compose(transpose, g_op))
            for k in range(n):
                want = {nbar_idx[r]: -c for r, c in sharp[k].items()}
                assert g.bracket_basis(a, nbar_idx[k]) == want, (name, a, k)


def test_span_reports(kkt_builds):
    for name, want in (("C2", 4), ("A3", 7), ("E7", 79)):
        rep = verify_span(kkt_builds(name))
        assert rep.ok
        assert rep.span_dim == want


def test_dimension_ledger(kkt_builds, family_instances):
    # dim g = 2 dim J + dim m, with dim m = derived part + 1
    m_der = {"C2": 3, "C3": 8, "A3": 6, "A5": 16, "B3": 10, "D4": 15, "E7": 78}
    for name, g in ((n, kkt_builds(n)) for n in EXPECTED_BLOCKS):
        J = family_instances[name]
        m = len(g.degree_indices(0))
        assert g.dim == 2 * J.dim + m
        assert m == m_der[name] + 1


def test_json_round_trip(kkt_builds):
    g = kkt_builds("C3")
    obj = to_json(g)
    g2 = from_json(obj)
    assert g2.labels == g.labels
    assert g2.grading == g.grading
    assert g2.table == g.table
    assert to_json(g2) == obj
    assert g2.triple == g.triple
    assert g2.norm_pair == g.norm_pair
    # serialized form is sorted and sparse: i < j only
    for i, j, entries in obj["brackets"]:
        assert i < j
        assert entries == sorted(entries)


@pytest.mark.parametrize("descriptor", list(GOLDEN_BUILD_SHA256))
def test_json_round_trip_keeps_every_golden_table(descriptor):
    # both E7 builds, H2(Q_{1/3,-5/7}), J2 with gram 1/2, 3/5 and H3(Q(sqrt(-7/4)))
    # among them: the constants come back as the same ints over the same den
    g = cli.target_lie_algebra(cli.resolve_target(descriptor))
    g2 = from_json(json.loads(json.dumps(to_json(g))))
    assert g2.table == g.table and g2.table.den == g.table.den
    assert g2 == g


def test_from_json_reads_the_brackets_in_one_pass(kkt_builds, monkeypatch):
    # one iteration of obj["brackets"], and one parse per distinct constant
    # string however often it occurs
    class CountedList(list):
        iterations = 0

        def __iter__(self):
            CountedList.iterations += 1
            return super().__iter__()

    parsed = []
    monkeypatch.setattr(kkt, "parse", lambda c: parsed.append(c) or rationals.parse(c))
    g = kkt_builds("E7")
    obj = to_json(g)
    strings = [c for _, _, items in obj["brackets"] for _, c in items]
    obj["brackets"] = CountedList(obj["brackets"])
    g2 = from_json(obj)
    assert CountedList.iterations == 1
    assert len(strings) > 5000 and sorted(parsed) == sorted(set(strings))
    assert g2.table == g.table


def test_a_document_of_zero_constants_has_an_empty_table():
    obj = {
        "basis": [{"label": "a"}, {"label": "b"}, {"label": "c"}],
        "brackets": [[0, 1, [[2, "0"]]], [1, 2, [[0, "0"], [1, "0/7"]]]],
    }
    g = from_json(obj)
    assert g.table.den == 1
    assert all(cell == {} for row in g.table.cells for cell in row)
    assert list(g.upper()) == []


def test_explicit_zero_coefficients_are_dropped(split_builds):
    # a "0" beside every bracket's constants, a bracket of zeros only and a
    # "0" in the triple's e: the zero-absent cells would otherwise make
    # grading blame a zero coefficient, and [h, e] != 2 e
    g = rootdata.graded_algebra(rootdata.parabolic(split_builds("C", 2), 2))
    obj = to_json(g)
    padded = json.loads(json.dumps(obj))
    free = lambda items: min(set(range(g.dim)) - {k for k, _ in items})
    for entry in padded["brackets"]:
        entry[2] = sorted(entry[2] + [[free(entry[2]), "0"]])
    i, j = next(p for p in itertools.combinations(range(g.dim), 2) if not g.table.cells[p[0]][p[1]])
    padded["brackets"].append([i, j, [[0, "0"], [1, "0/3"]]])
    padded["triple"]["e"].append([free(padded["triple"]["e"]), "0"])
    g2 = from_json(padded)
    assert to_json(g2) == obj
    assert g2.table == g.table and g2.triple == g.triple
    assert verify.suite_grading(g2).line() == verify.suite_grading(g).line()
    assert verify.suite_grading(g2).passed


def test_negative_control_corruption(kkt_builds):
    g = kkt_builds("C2")
    (i, j), vec = min(stored_brackets(g).items())
    k = next(iter(sorted(vec)))
    bad = corrupted_copy(g, i, j, k, Q(1))
    results = [
        verify.suite_jacobi(bad, CFG),
        verify.suite_grading(bad),
        verify.suite_killing(bad),
    ]
    assert any(not r.passed for r in results)
    failing = next(r for r in results if not r.passed)
    assert failing.witness


def test_closure_check_catches_a_shifted_table_cell():
    # b_0 o b_1 gains 1/3 b_0 on both sides of the symmetric table, in C3
    # (dimension 6) and in H3 over the split quaternions (dimension 15)
    for coeff in (build_composition(1, []), build_composition(4, [1, 1])):
        J = jordan.hermitian(3, coeff)
        table = [[dict(cell) for cell in row] for row in J.mul_table]
        for i, j in ((0, 1), (1, 0)):
            table[i][j][0] = table[i][j].get(0, Q(0)) + Q(1, 3)
        J.mul_table = table
        J.scaled = linalg.scale_table(table)
        with pytest.raises(ConstructionError, match="operator commutator escaped the structure-operator span"):
            build_kkt(J)


# descriptor, dim J, dim m and D, the common denominator of the m basis
CLOSURE_CASES = [
    ("jordan:H3:quaternion:split", 15, 36, 2),
    ("jordan:H3:complex:-7/4", 9, 17, 4),
    ("jordan:J2:dim=2:gram=1/2,3/5", 4, 7, 10),
    ("jordan:H2:quaternion:1/3,-5/7", 6, 16, 42),
]


def test_closure_reduces_every_commutator_pair(monkeypatch):
    # one op_commutators run on the dim operators den L_k, whose dim(dim-1)/2
    # commutators span m with them, then one on the m basis read from the
    # echelon in ints over D, whose m(m-1)/2 pairs are each reduced; the
    # stored constants must give back [T_a, T_b], formed here by op_compose
    commutators, scaled_basis = linalg.op_commutators, linalg.EchelonBasis.scaled_basis
    calls, dens = [], []

    def scaled(self):
        rows, d = scaled_basis(self)
        dens.append(d)
        return rows, d

    def recorded(ops, n):
        calls.append(ops)
        return commutators(ops, n)

    monkeypatch.setattr(linalg, "op_commutators", recorded)
    monkeypatch.setattr(linalg.EchelonBasis, "scaled_basis", scaled)
    for descriptor, dim, m, den in CLOSURE_CASES:
        J = cli.parse_jordan_descriptor(descriptor)
        calls.clear()
        dens.clear()
        g = build_kkt(J)
        m_idx, n_idx = g.degree_indices(0), g.degree_indices(2)
        assert (J.dim, len(m_idx), dens) == (dim, m, [den])
        assert [len(ops) for ops in calls] == [dim, m]
        assert all(type(c) is int for ops in calls for op in ops for col in op for c in col.values())
        # T_a(b_k) = [m_a, n_k]; the closure's operands are the D T_a, and
        # [T_a, T_b] must be the stored combination of the T_c
        ops = [
            [{r - n_idx[0]: c for r, c in g.bracket_basis(a, k).items()} for k in n_idx]
            for a in m_idx
        ]
        flat = [linalg.op_flatten(op, dim) for op in ops]
        assert [linalg.op_flatten(op, dim) for op in calls[1]] == [
            {p: den * c for p, c in f.items()} for f in flat
        ]
        for a, b in itertools.combinations(range(m), 2):
            consts = [(c - m_idx[0], v) for c, v in g.bracket_basis(m_idx[a], m_idx[b]).items()]
            got = linalg.add_combination({}, flat, consts)
            ab = linalg.op_flatten(linalg.op_compose(ops[a], ops[b]), dim)
            ba = linalg.op_flatten(linalg.op_compose(ops[b], ops[a]), dim)
            want = linalg.add_combination(ab, [ba], [(0, -1)])
            assert {k: v for k, v in got.items() if v} == {k: v for k, v in want.items() if v}


@pytest.mark.parametrize("descriptor", [case[0] for case in CLOSURE_CASES])
def test_closure_check_catches_a_shifted_cell_at_every_denominator(descriptor):
    J = cli.parse_jordan_descriptor(descriptor)
    table = [[dict(cell) for cell in row] for row in J.mul_table]
    for i, j in ((0, 1), (1, 0)):
        table[i][j][0] = table[i][j].get(0, Q(0)) + Q(1, 3)
    J.mul_table = table
    J.scaled = linalg.scale_table(table)
    with pytest.raises(ConstructionError, match="operator commutator escaped the structure-operator span"):
        build_kkt(J)


@pytest.mark.parametrize(
    "descriptor, run",
    [
        pytest.param(case[0], run, id=case[0] + ("" if run == "span" else f"-{run}"))
        for case in CLOSURE_CASES
        for run in ("span", "closure")
    ],
)
def test_closure_check_catches_a_dropped_commutator_term(monkeypatch, descriptor, run):
    # the last entry of the first commutator with at least two entries is
    # lost, in the [L_i, L_j] that span m or in the [m_a, m_b] the closure
    # reduces: a commutator left with one entry is still nonzero
    commutators = linalg.op_commutators
    runs, dropped = [], []

    def lossy(ops, n):
        runs.append(ops)
        for comms in commutators(ops, n):
            long = [comm for comm in comms.values() if len(comm) > 1]
            if len(runs) == 1 + (run == "closure") and long and not dropped:
                dropped.append(long[0].pop(max(long[0])))
            yield comms

    monkeypatch.setattr(linalg, "op_commutators", lossy)
    with pytest.raises(ConstructionError, match="operator commutator escaped the structure-operator span"):
        build_kkt(cli.parse_jordan_descriptor(descriptor))
    assert dropped


def test_build_reads_no_bracket(family_instances, monkeypatch):
    # h = [e, f] is read from the span; test_sl2_relations checks it.  The
    # one table of the build is made once, by bracket_table
    def must_not_run(*args):
        pytest.fail("build_kkt read a bracket")

    tables = []
    build_table = kkt.bracket_table

    def counted(*args):
        tables.append(build_table(*args))
        return tables[-1]

    monkeypatch.setattr(kkt.LieAlgebra, "bracket", must_not_run)
    monkeypatch.setattr(kkt.LieAlgebra, "bracket_basis", must_not_run)
    monkeypatch.setattr(kkt, "bracket_table", counted)
    g = build_kkt(family_instances["A3"])
    assert len(tables) == 1 and g.table is tables[0]


def test_only_verify_imports_random():
    # every check of the library is exhaustive except the sampled Jacobi suite
    importers = {
        path.stem
        for path in pathlib.Path(jordanlie.__file__).parent.glob("*.py")
        if re.search(r"^\s*(import|from) random\b", path.read_text(), re.M)
    }
    assert importers == {"verify"}


# ---------------------------------------------------------------------------
# the bracket table
# ---------------------------------------------------------------------------


# tables whose constants have denominators 42 and 10, so the bracket table's
# integer scaling divides
SCALED_DESCRIPTORS = ("jordan:H2:quaternion:1/3,-5/7", "jordan:J2:dim=2:gram=1/2,3/5")


@functools.cache
def _scaled_build(descriptor):
    return build_kkt(cli.parse_jordan_descriptor(descriptor))


def _table_algebras(kkt_builds, split_builds):
    algebras = [kkt_builds("C2"), kkt_builds("C3"), split_builds("A", 3), split_builds("C", 3)]
    return algebras + [_scaled_build(d) for d in SCALED_DESCRIPTORS]


def _bracket_oracle(stored, x, y):
    """Sum of c_i c_j [b_i, b_j], antisymmetry read straight from the
    stored_brackets of an algebra."""
    out = {}
    for (i, ci), (j, cj) in itertools.product(x.items(), y.items()):
        sign, key = (1, (i, j)) if i < j else (-1, (j, i))
        for k, c in stored.get(key, {}).items():
            out[k] = out.get(k, 0) + sign * ci * cj * c
    return {k: c for k, c in out.items() if c}


def test_bracket_matches_the_stored_constants(kkt_builds, split_builds):
    rng = random.Random(11)
    for g in _table_algebras(kkt_builds, split_builds):
        stored = stored_brackets(g)
        for _ in range(40):
            x = rand_vec(rng, g, rng.sample(range(g.dim), 4))
            y = rand_vec(rng, g, rng.sample(range(g.dim), 4))
            assert g.bracket(x, y) == _bracket_oracle(stored, x, y), (x, y)


def test_bracket_table_is_antisymmetric(kkt_builds, split_builds):
    for g in _table_algebras(kkt_builds, split_builds):
        t = g.table.cells
        for i, j in itertools.product(range(g.dim), repeat=2):
            assert t[i][j] == {k: -c for k, c in t[j][i].items()}, (i, j)


def test_corrupted_copy_reads_its_own_table(split_builds):
    g = split_builds("C", 3)
    (i, j), vec = min(stored_brackets(g).items())
    k = next(k for k in range(g.dim) if k not in vec)
    before = copy.deepcopy(g.table)
    bad = corrupted_copy(g, i, j, k, Q(1))
    assert bad.table is not g.table and g.table == before
    assert bad.bracket_basis(i, j) == {**vec, k: 1}
    assert bad.bracket_basis(j, i) == {**{t: -c for t, c in vec.items()}, k: -1}
    assert bad.bracket({i: Q(1)}, {j: Q(1)}) == {**vec, k: 1}
    assert g.bracket_basis(i, j) == vec


def test_lie_suites_leave_the_table_unwritten(kkt_builds, split_builds):
    algebras = _table_algebras(kkt_builds, split_builds)
    parabolics = [rootdata.parabolic(split_builds("A", 3), 2)]
    parabolics.append(rootdata.parabolic(split_builds("C", 3), 3))
    algebras += [rootdata.graded_algebra(p) for p in parabolics]
    stored = [copy.deepcopy(g.table) for g in algebras]
    for g in algebras:
        assert verify.suite_jacobi(g, CFG).passed
        assert verify.suite_killing(g).passed
        if g.grading is not None:
            assert verify.suite_grading(g).passed
    for p in parabolics:
        assert verify.suite_q_composition(p).passed
        assert verify.suite_cross_validate(p).passed
    for g, before in zip(algebras, stored):
        assert g.table == before
        # every zero is still the one shared empty dict
        assert len({id(cell) for row in g.table.cells for cell in row if not cell}) == 1


def _jacobi_oracle(stored, i, j, k):
    """[[b_i, b_j], b_k] + cyclic, as nested brackets of the stored constants."""
    out = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        inner = _bracket_oracle(stored, {a: Q(1)}, {b: Q(1)})
        for m, v in _bracket_oracle(stored, inner, {c: Q(1)}).items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


def test_jacobi_residual_matches_nested_brackets(kkt_builds, split_builds):
    # the corrupted A6 of the parallel-jacobi CLI test, at its witness triple
    bad = corrupted_copy(split_builds("A", 6), 0, 47, 3, 1)
    i, j, k = (bad.labels.index(s) for s in ("e:0,0,1,1,1,1", "f:0,0,0,0,0,1", "e:1,1,1,1,1,1"))
    assert verify.jacobi_residual(bad, i, j, k) == _jacobi_oracle(stored_brackets(bad), i, j, k) == {
        bad.labels.index("e:0,0,0,1,1,1"): -1
    }
    rng = random.Random(3)
    for g in [bad, *_table_algebras(kkt_builds, split_builds)]:
        stored = stored_brackets(g)
        for _ in range(150):
            i, j, k = (rng.randrange(g.dim) for _ in range(3))
            assert verify.jacobi_residual(g, i, j, k) == _jacobi_oracle(stored, i, j, k), (i, j, k)


def test_scaled_tables_divide_and_match_the_killing_oracle():
    algebras = [_scaled_build(d) for d in SCALED_DESCRIPTORS]
    assert [g.table.den for g in algebras] == [42, 10]
    for g in algebras:
        assert_killing_matches_oracle(g)


def test_new_denominator_fails_the_exhaustive_suites():
    # 1/3 in a table over den 10: the integer table moves to den 30
    g = _scaled_build("jordan:J2:dim=2:gram=1/2,3/5")
    (i, j), vec = min(stored_brackets(g).items())
    k = next(k for k in range(g.dim) if k not in vec)
    bad = corrupted_copy(g, i, j, k, Q(1, 3))
    assert bad.table.den == 30
    jac = verify.suite_jacobi(bad, CFG)
    assert not jac.passed and jac.note == "exhaustive"
    assert not verify.suite_killing(bad).passed
    first = next(t for t in itertools.combinations(range(g.dim), 3) if verify.jacobi_residual(bad, *t))
    assert jac.witness.startswith("(" + ", ".join(bad.labels[t] for t in first) + ") residual")
    residual = verify.jacobi_residual(bad, *first)
    assert residual == _jacobi_oracle(stored_brackets(bad), *first)
    assert any(c.denominator % 3 == 0 for c in residual.values())

"""Graded Lie algebra attached to a Jordan algebra.

From a Jordan algebra J this module builds the 3-graded Lie algebra

    g  =  nbar (+) m (+) n          degrees -2, 0, +2

with n and nbar two copies of J.  The middle piece m is realized concretely
as the span of the structure operators

    V_{x,y} : z  |->  2((x o z) o y - (z o y) o x - (x o y) o z),
    V_{x,y}  =  2([L_y, L_x] - L_{x o y})      (L_x : z |-> x o z)

acting on n; since J o J = J this span is L_J + [L_J, L_J], spanned by the
n operators L_k = L_{b_k} and the n(n-1)/2 commutators [L_i, L_j].
Brackets:

    [n, n] = [nbar, nbar] = 0
    [x, ybar]            = V_{x,y}
    [T, z]   (T in m)    = T(z)           in n
    [T, zbar]            = -(T#(z))bar    in nbar
    [T, T']              = T T' - T' T

where T# = 2 L_{T(e)} - T: it is linear in T and V_{x,y}# = V_{y,x}, so it is
the adjoint of T under the trace form T_J(x o y).  Operators on n are held
in linalg's column-sparse format.  Row k of the symmetric table J.scaled is
den L_k in ints, so the L_k and their commutators are inserted in ints; the
m basis is their fully reduced echelon, and every [x, ybar] on basis
elements, every commutator [m_a, m_b] (reduced against the span in ints,
which checks closure) and h are read off at its pivots.  The distinguished
sl2-triple is e = identity of J inside n, f = -(identity) inside nbar,
h = [e, f] = -V_{e,e} = 2 L_e: no bracket is read.

A LieAlgebra holds its brackets only as a table of all ordered pairs in
linalg's {k: coeff} cells, ints scaled over den, the lcm of the constants'
denominators, built by bracket_table from the brackets [b_i, b_j], i != j.
Every bracket, ad operator and Killing trace is read in ints from it and
divided once on output; bracket_basis divides the cell.

The Killing form is the ad-trace form rescaled so that it takes the value 1
on the pair (f_1, e_1) built from the first frame idempotent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import linalg
from .errors import ConstructionError, InvalidParameter
from .jordan import JordanAlgebra, JordanElement, lmul_cols
from .linalg import EchelonBasis, add_combination
from .rationals import HALF, Q, fmt, parse

SparseVec = dict
OpCols = tuple  # column-sparse operator of linalg: cols[k] = image of basis k


@dataclass
class StructureOperator:
    """m-component element: its action on n and the companion action whose
    negative-bar gives the bracket with nbar."""

    cols: OpCols
    sharp_cols: OpCols

    def apply(self, v: SparseVec) -> SparseVec:
        return linalg.op_apply(self.cols, v)


def structure_operator(J: JordanAlgebra, x: JordanElement, y: JordanElement) -> StructureOperator:
    """V_{x,y} together with its companion V_{y,x}."""
    return StructureOperator(_vop_cols(J, x.vec, y.vec), _vop_cols(J, y.vec, x.vec))


def _vop_cols(J: JordanAlgebra, x, y) -> OpCols:
    """Columns of V_{x,y} = 2([L_y, L_x] - L_{x o y}), formed on the integer
    cells of J.scaled: x and y are scaled to ints over dx and dy, so L_x and
    L_y hold ints over dx den and dy den, L_{x o y} over dx dy den^2, and each
    entry is divided once."""
    cells, n = J.scaled.cells, J.dim
    xs, dx = linalg.scale_vec(enumerate(x))
    ys, dy = linalg.scale_vec(enumerate(y))
    xy = linalg.table_product({}, cells, xs, ys)  # dx dy den (x o y)
    flat = linalg.op_commutator(lmul_cols(cells, ys), lmul_cols(cells, xs), n)
    add_combination(flat, [linalg.op_flatten(lmul_cols(cells, xy.items()), n)], [(0, -1)])
    den = dx * dy * J.scaled.den**2
    return linalg.op_unflatten({p: Q(2 * c, den) for p, c in sorted(flat.items()) if c}, n)


# ---------------------------------------------------------------------------
# Lie algebra container
# ---------------------------------------------------------------------------


@dataclass
class LieAlgebra:
    """Basis-indexed sparse structure constants, optionally 3-graded.

    table, from :func:`bracket_table`, is the only bracket store.  No cell
    may be written, so replace() shares it.
    """

    labels: tuple[str, ...]
    table: linalg.ScaledTable  # cells[i][j] = den [b_i, b_j], ints
    grading: Optional[tuple[int, ...]] = None
    triple: Optional[tuple[SparseVec, SparseVec, SparseVec]] = None  # (f, h, e)
    norm_pair: Optional[tuple[SparseVec, SparseVec]] = None  # (f1, e1)
    # rootdata.RootSystem of a Chevalley build; derived data, not compared
    root_system: Optional[object] = field(default=None, compare=False, repr=False)
    # memoized derived data: never passed, copied by replace() or compared
    _killing: Optional[list] = field(default=None, init=False, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        t = self.table
        return {k: Q(c, t.den) for k, c in t.cells[i][j].items()}

    def upper(self):
        """The pairs i < j whose bracket is nonzero, in order, read from the table."""
        cells = self.table.cells
        return ((i, j) for i in range(self.dim) for j in range(i + 1, self.dim) if cells[i][j])

    def _check_indices(self, *vecs: SparseVec) -> None:
        for v in vecs:
            if any(k < 0 or k >= self.dim for k in v):
                raise InvalidParameter("element index out of range for this algebra")

    def bracket(self, x: SparseVec, y: SparseVec) -> SparseVec:
        self._check_indices(x, y)
        xs, dx = linalg.scale_vec(x.items())
        ys, dy = linalg.scale_vec(y.items())
        out = linalg.table_product({}, self.table.cells, xs, ys)
        den = dx * dy * self.table.den
        return {k: Q(c, den) for k, c in out.items() if c}

    def degree_indices(self, deg: int) -> list[int]:
        if self.grading is None:
            raise InvalidParameter("algebra carries no grading")
        return [i for i, d in enumerate(self.grading) if d == deg]

    # -- Killing form --------------------------------------------------------

    def killing_raw(self, x: SparseVec, y: SparseVec) -> Fraction:
        """trace(ad x ad y), no normalization: int traces over den^2."""
        self._check_indices(x, y)
        cells = self.table.cells
        trace = linalg.op_trace_product
        total = sum(cx * cy * trace(cells[i], cells[j]) for i, cx in x.items() for j, cy in y.items())
        return Q(total, self.table.den**2)

    def killing_matrix(self) -> list[list[Fraction]]:
        """Full Killing Gram matrix on the basis, scaled so that the norm pair
        pairs to 1.  ad(x) ad(y) shifts weights by w(x) + w(y), so only pairs
        whose weights cancel are traced, in ints.  The weight is the root in a
        Chevalley build, else the grading degree; with neither, every pair is traced."""
        if self._killing is None:
            if self.root_system is not None:
                weights = self.root_system.weights
            elif self.grading is not None:
                weights = [(d,) for d in self.grading]
            else:
                weights = [()] * self.dim
            by_weight: dict = {}
            for i, w in enumerate(weights):
                by_weight.setdefault(w, []).append(i)
            s = Q(1, self.table.den**2)
            if self.norm_pair is not None:
                raw = self.killing_raw(*self.norm_pair)
                if raw == 0:
                    raise ConstructionError("ad-trace pairing of the normalization pair vanishes")
                s /= raw
            ads = self.table.cells
            mat = [[Q(0)] * self.dim for _ in range(self.dim)]
            for i, w in enumerate(weights):
                for j in by_weight.get(tuple(-c for c in w), ()):
                    if j >= i:
                        mat[i][j] = mat[j][i] = s * linalg.op_trace_product(ads[i], ads[j])
            self._killing = mat
        return self._killing

    def killing(self, x: SparseVec, y: SparseVec) -> Fraction:
        self._check_indices(x, y)
        return linalg.gram_form(self.killing_matrix(), x.items(), y.items())


def bracket_table(dim: int, brackets) -> linalg.ScaledTable:
    """cells[i][j] = den [b_i, b_j] in ints over den, the lcm of the
    denominators, from the ((i, j), {k: int or Fraction}) that brackets()
    yields, one per pair i != j or none; it is called twice, for den and
    for the cells.  [b_j, b_i] is the negated cell and every zero bracket is
    one shared empty dict, so row i is den ad(b_i); no cell may be written."""
    den = math.lcm(*(c.denominator for _, vec in brackets() for c in vec.values()))
    zero: SparseVec = {}
    rows = [[zero] * dim for _ in range(dim)]
    for (i, j), vec in brackets():
        if vec:
            rows[i][j] = cell = {k: c.numerator * (den // c.denominator) for k, c in vec.items()}
            rows[j][i] = {k: -c for k, c in cell.items()}
    return linalg.ScaledTable(tuple(map(tuple, rows)), den)


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------


def build_kkt(J: JordanAlgebra) -> LieAlgebra:
    """g = nbar (+) m (+) n with its bracket table, sl2-triple and norm pair."""
    n = J.dim
    cells, den = J.scaled.cells, J.scaled.den

    # m = L_J + [L_J, L_J], the span of every V_{b_i, b_j}: row k of the
    # symmetric table is den L_k, so the n operators den L_k and the
    # n(n-1)/2 commutators den^2 [L_i, L_j] are ints
    pairs = list(itertools.combinations(range(n), 2))
    ops = [linalg.op_flatten(row, n) for row in cells]
    ops += [linalg.op_commutator(cells[i], cells[j], n) for i, j in pairs]
    span = EchelonBasis()
    for op in ops:
        span.insert(op)
    m_dim = len(span)
    m_cols = [linalg.op_unflatten(fl, n) for fl in span.sorted_basis()]
    # the reduced rows are 1 at their own pivot and 0 at the others', so the
    # coordinates of an element of the span are its pivot entries
    pivots = list(enumerate(span.sorted_pivots()))
    coords = [{a: op[p] for a, p in pivots if p in op} for op in ops]
    del ops  # freed before the closure's int copies of the m basis

    idx_nbar = lambda k: k
    idx_m = lambda k: n + k
    idx_n = lambda k: n + m_dim + k

    labels = (
        tuple(f"nbar:{k}" for k in range(n))
        + tuple(f"m:{k}" for k in range(m_dim))
        + tuple(f"n:{k}" for k in range(n))
    )
    grading = (-2,) * n + (0,) * m_dim + (2,) * n
    brackets: dict = {}

    # [n_i, nbar_j] = V_{b_i, b_j} = 2([L_j, L_i] - L_{b_i o b_j}); over
    # b_i o b_j = sum_k c_k b_k / den its den^2 multiple is
    # 2(den^2 [L_j, L_i] - sum_k c_k den L_k), so each constant is one division
    comm_at = {pair: n + t for t, pair in enumerate(pairs)}
    for i in range(n):
        for j in range(n):
            terms = [(k, -2 * c) for k, c in cells[i][j].items()]
            if i != j:
                terms.append((comm_at[min(i, j), max(i, j)], 2 if i > j else -2))
            vop = add_combination({}, coords, terms).items()
            brackets[idx_n(i), idx_nbar(j)] = {idx_m(a): Q(c, den * den) for a, c in vop if c}

    # [m_a, n_k] = T_a(b_k);  [m_a, nbar_k] = -(T_a#(b_k))bar with the
    # companion T# = 2 L_{T(e)} - T, linear in T and V_{y,x} on V_{x,y}
    one = J.identity.vec
    e = {k: c for k, c in enumerate(one) if c}
    for a, cols in enumerate(m_cols):
        lte = lmul_cols(J.mul_table, linalg.op_apply(cols, e).items())  # L_{T(e)}
        for k in range(n):
            neg_sharp = add_combination(dict(cols[k]), lte, [(k, -2)]).items()
            brackets[idx_m(a), idx_n(k)] = {idx_n(r): c for r, c in cols[k].items()}
            brackets[idx_m(a), idx_nbar(k)] = {idx_nbar(r): c for r, c in neg_sharp if c}

    # [m_a, m_b] = operator commutator.  Closure in the span is a theorem,
    # checked on every pair in ints: over the m basis' common denominator D,
    # C = D^2 [m_a, m_b] and each row D R_i is D at its pivot p_i and 0 at
    # the others, so D C - sum_i C[p_i] D R_i = 0 iff C is in the span
    scaled = linalg.scale_table(m_cols)
    d = scaled.den
    rows = [linalg.op_flatten(cols, n) for cols in scaled.cells]
    for a in range(m_dim):
        for b in range(a + 1, m_dim):
            comm = linalg.op_commutator(scaled.cells[a], scaled.cells[b], n)
            consts = [(i, comm[p]) for i, p in pivots if p in comm]
            rem = {k: d * c for k, c in comm.items()}
            add_combination(rem, rows, [(i, -c) for i, c in consts])
            if any(rem.values()):
                raise ConstructionError("operator commutator escaped the structure-operator span")
            brackets[idx_m(a), idx_m(b)] = {idx_m(i): Q(c, d * d) for i, c in consts}

    # e = identity in n, f = -(identity) in nbar, h = [e, f] = -V_{e,e} = 2 L_e
    h = {idx_m(a): 2 * c / den for a, c in add_combination({}, coords, e.items()).items() if c}
    embed = lambda vec, idx, sign: {idx(k): sign * c for k, c in enumerate(vec) if c}
    frame = J.frame(1).vec
    triple = (embed(one, idx_nbar, -1), h, embed(one, idx_n, 1))
    norm_pair = (embed(frame, idx_nbar, -1), embed(frame, idx_n, 1))
    table = bracket_table(len(labels), brackets.items)
    return LieAlgebra(labels, table, grading, triple, norm_pair)


# ---------------------------------------------------------------------------
# derived maps and reports
# ---------------------------------------------------------------------------


def _triple(g: LieAlgebra) -> tuple[SparseVec, SparseVec, SparseVec]:
    """(f, h, e) of g; an algebra without one raises InvalidParameter."""
    if g.triple is None:
        raise InvalidParameter("algebra carries no sl2 triple")
    return g.triple


def w_map(g: LieAlgebra, x: SparseVec) -> SparseVec:
    """w(x) = [f, [f, x]]/2, a linear bijection n -> nbar."""
    f, _, _ = _triple(g)
    n_idx = set(g.degree_indices(2))
    if not set(x) <= n_idx:
        raise InvalidParameter("w expects an element supported in the +2 part")
    out = g.bracket(f, g.bracket(f, x))
    return {k: HALF * c for k, c in out.items()}


def w_matrix(g: LieAlgebra) -> list[list[Fraction]]:
    """Matrix of w from the +2 block to the -2 block, in block-local indices."""
    n_idx = g.degree_indices(2)
    nbar_idx = g.degree_indices(-2)
    pos = {b: a for a, b in enumerate(nbar_idx)}
    mat = [[Q(0)] * len(n_idx) for _ in range(len(nbar_idx))]
    for col, i in enumerate(n_idx):
        img = w_map(g, {i: Q(1)})
        for k, c in img.items():
            mat[pos[k]][col] = c
    return mat


def n_product(g: LieAlgebra, x: SparseVec, y: SparseVec) -> SparseVec:
    """Jordan product on the +2 block: x o y = [x, [f, y]]/2."""
    f, _, _ = _triple(g)
    out = g.bracket(x, g.bracket(f, y))
    return {k: HALF * c for k, c in out.items()}


def nbar_product(g: LieAlgebra, x: SparseVec, y: SparseVec) -> SparseVec:
    """Jordan product on the -2 block: x o y = [x, [-e, y]]/2."""
    _, _, e = _triple(g)
    neg_e = {k: -c for k, c in e.items()}
    out = g.bracket(x, g.bracket(neg_e, y))
    return {k: HALF * c for k, c in out.items()}


@dataclass(frozen=True)
class SpanReport:
    m_dim: int
    span_dim: int

    @property
    def ok(self) -> bool:
        return self.m_dim == self.span_dim


def verify_span(g: LieAlgebra) -> SpanReport:
    """dim span{[x, ybar]} over basis pairs, against dim of the 0 part."""
    n_idx = g.degree_indices(2)
    nbar_idx = g.degree_indices(-2)
    m_count = len(g.degree_indices(0))
    span = EchelonBasis()
    for i in n_idx:
        for j in nbar_idx:
            span.insert(g.bracket_basis(i, j))
    return SpanReport(m_dim=m_count, span_dim=len(span))


# ---------------------------------------------------------------------------
# JSON structure-constant exchange
# ---------------------------------------------------------------------------


def _sparse_to_json(vec: SparseVec, text=fmt) -> list:
    return [[k, text(c)] for k, c in sorted(vec.items())]


def _sparse_from_json(items, dim: int, value=parse) -> SparseVec:
    """The vector of [index, "p/q"] entries; explicit zeros are dropped."""
    if not isinstance(items, list):
        raise InvalidParameter(f"sparse vector must be a list, got {items!r}")
    out: SparseVec = {}
    for entry in items:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InvalidParameter(f"sparse entry must be [index, value], got {entry!r}")
        k, c = entry
        if type(k) is not int or not 0 <= k < dim or k in out:
            raise InvalidParameter(f"bad or repeated basis index {k!r} for dimension {dim}")
        out[k] = value(c)
    return {k: c for k, c in out.items() if c}


def _vectors_to_json(vecs, names: str):
    return None if vecs is None else {k: _sparse_to_json(v) for k, v in zip(names, vecs)}


def _vectors_from_json(obj: dict, key: str, names: str, dim: int):
    """The sparse vectors obj[key][name] in names order; None when absent."""
    t = obj.get(key)
    if t is None:
        return None
    if not (isinstance(t, dict) and all(name in t for name in names)):
        listed = ", ".join(names[:-1]) + " and " + names[-1]
        raise InvalidParameter(f"{key} must be an object with {listed}")
    return tuple(_sparse_from_json(t[name], dim) for name in names)


def to_json(g: LieAlgebra) -> dict:
    basis = [
        {"label": lbl, "degree": (g.grading[i] if g.grading is not None else None)}
        for i, lbl in enumerate(g.labels)
    ]
    memo, den = {}, g.table.den  # the few distinct int cell values, each formatted once
    text = lambda c: memo[c] if c in memo else memo.setdefault(c, fmt(Q(c, den)))
    brackets = [[i, j, _sparse_to_json(g.table.cells[i][j], text)] for i, j in g.upper()]
    return {
        "basis": basis,
        "brackets": brackets,
        "triple": _vectors_to_json(g.triple, "fhe"),
        "norm_pair": _vectors_to_json(g.norm_pair, "fe"),
    }


def from_json(obj: dict) -> LieAlgebra:
    """Inverse of :func:`to_json`; malformed input raises InvalidParameter.
    The brackets are read twice, once for the table's denominator and once
    for its cells, so no Fraction copy of them is held beside the table."""
    if not (
        isinstance(obj, dict)
        and isinstance(obj.get("basis"), list)
        and isinstance(obj.get("brackets"), list)
    ):
        raise InvalidParameter("structure constants must be an object with basis and brackets lists")
    basis = obj["basis"]
    if not all(isinstance(b, dict) and isinstance(b.get("label"), str) for b in basis):
        raise InvalidParameter("every basis entry needs a string label")
    labels = tuple(b["label"] for b in basis)
    degrees = [b.get("degree") for b in basis]
    if any(d is not None and type(d) is not int for d in degrees):
        raise InvalidParameter("basis degrees must be integers or null")
    grading = None if any(d is None for d in degrees) else tuple(degrees)
    n = len(labels)
    memo: dict = {}  # the few distinct constant strings, each parsed once
    value = lambda c: memo[c] if type(c) is str and c in memo else memo.setdefault(c, parse(c))

    def brackets():
        """The brackets, validated and read afresh on each call."""
        seen = set()
        for entry in obj["brackets"]:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise InvalidParameter(f"bracket must be [i, j, vector], got {entry!r}")
            i, j, items = entry
            if type(i) is not int or type(j) is not int or not 0 <= i < j < n or (i, j) in seen:
                raise InvalidParameter(f"bad or repeated bracket pair ({i!r}, {j!r})")
            seen.add((i, j))
            yield (i, j), _sparse_from_json(items, n, value)

    return LieAlgebra(
        labels=labels,
        table=bracket_table(n, brackets),
        grading=grading,
        triple=_vectors_from_json(obj, "triple", "fhe", n),
        norm_pair=_vectors_from_json(obj, "norm_pair", "fe", n),
    )

"""Graded Lie algebra attached to a Jordan algebra.

From a Jordan algebra J this module builds the 3-graded Lie algebra

    g  =  nbar (+) m (+) n          degrees -2, 0, +2

with n and nbar two copies of J.  The middle piece m is realized concretely
as the span of the structure operators

    V_{x,y} : z  |->  2((x o z) o y - (z o y) o x - (x o y) o z),
    V_{x,y}  =  2([L_y, L_x] - L_{x o y})      (L_x : z |-> x o z)

acting on n; since J o J = J this span is L_J + [L_J, L_J], spanned by the
n operators L_k = L_{b_k} and the n(n-1)/2 commutators [L_i, L_j], which
one batched linalg.op_commutators run forms.  Brackets:

    [n, n] = [nbar, nbar] = 0
    [x, ybar]            = V_{x,y}
    [T, z]   (T in m)    = T(z)           in n
    [T, zbar]            = -(T#(z))bar    in nbar
    [T, T']              = T T' - T' T

where T# = 2 L_{T(e)} - T: it is linear in T and V_{x,y}# = V_{y,x}, so it is
the adjoint of T under the trace form T_J(x o y).  Operators on n are held
in linalg's column-sparse format.  Row k of the symmetric table J.scaled is
den L_k in ints, so the L_k and their commutators go into one integer
echelon, whose reduced rows, in ints over D, are the m basis.  Every
[x, ybar] on basis elements, every [m_a, m_b] (formed by a second
op_commutators run and reduced against the span, which checks closure)
and h are read off at its pivots, through one pivot index, in ints, and
the companions are formed in ints.  The brackets go to bracket_table as
ints over q, the lcm of the four denominators they are read over, so a
Fraction is made once per distinct constant; h is divided once.  The
distinguished sl2-triple is e = identity of J inside n, f = -(identity)
inside nbar, h = [e, f] = -V_{e,e} = 2 L_e: no bracket is read.

A LieAlgebra holds its brackets only as a table of all ordered pairs in
linalg's {k: coeff} cells, ints scaled over den, the lcm of the constants'
reduced denominators.  bracket_table builds it from the brackets
[b_i, b_j], i != j, as vectors whose values stand for the constants: ints
over q from build_kkt, ints from rootdata.build_split_lie, and the "p/q"
strings of a JSON document from from_json, which reads each bracket once.
It rewrites each vector in place into its cell.  Every bracket and ad
operator is read in ints from the table and divided once on output;
bracket_basis divides the cell.

The Killing form is the ad-trace form rescaled so that it takes the value 1
on the pair (f_1, e_1) built from the first frame idempotent.  Every
Killing read goes through the algebra's one integer trace Gram,
killing_matrix, which one linalg.op_trace_products run forms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import linalg
from .errors import ConstructionError, InvalidParameter
from .jordan import JordanAlgebra, lmul_cols
from .linalg import EchelonBasis, SparseVec, add_combination
from .rationals import HALF, Q, fmt, parse


# ---------------------------------------------------------------------------
# Lie algebra container
# ---------------------------------------------------------------------------


class LieAlgebra:
    """Basis-indexed sparse structure constants, optionally 3-graded.

    table, from :func:`bracket_table`, is the only bracket store.  No cell
    may be written, so a copy made by the constructor shares it.  ==
    compares the first five fields.
    """

    __slots__ = ("labels", "table", "grading", "triple", "norm_pair", "root_system", "_gram")

    def __init__(
        self,
        labels: tuple[str, ...],
        table: linalg.ScaledTable,  # cells[i][j] = den [b_i, b_j], ints
        grading: Optional[tuple[int, ...]] = None,
        triple: Optional[tuple[SparseVec, SparseVec, SparseVec]] = None,  # (f, h, e)
        norm_pair: Optional[tuple[SparseVec, SparseVec]] = None,  # (f1, e1)
        root_system=None,  # rootdata.RootSystem of a Chevalley build; derived data
    ):
        self.labels, self.table, self.grading, self.triple = labels, table, grading, triple
        self.norm_pair, self.root_system = norm_pair, root_system
        self._gram = None  # memo of killing_matrix(), never passed or copied

    def _key(self) -> tuple:
        return (self.labels, self.table, self.grading, self.triple, self.norm_pair)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

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

    def killing_matrix(self) -> list[list[int]]:
        """The trace Gram T[i][j] = trace(cells[i] cells[j]) = den^2
        trace(ad b_i ad b_j) in ints, memoized; killing(b_i, b_j) =
        killing_scale() T[i][j].  Row i of the table is den ad(b_i), so one
        op_trace_products run over the rows yields every nonzero trace of a
        pair i <= j."""
        if self._gram is None:
            gram = [[0] * self.dim for _ in range(self.dim)]
            for i, traces in enumerate(linalg.op_trace_products(self.table.cells, self.dim)):
                for j, t in traces.items():
                    gram[i][j] = gram[j][i] = t
            self._gram = gram
        return self._gram

    def killing_raw(self, x: SparseVec, y: SparseVec) -> Fraction:
        """trace(ad x ad y), no normalization: x and y in ints over dx and dy,
        read off the trace Gram and divided once by dx dy den^2."""
        self._check_indices(x, y)
        xs, dx = linalg.scale_vec(x.items())
        ys, dy = linalg.scale_vec(y.items())
        return Q(linalg.gram_form(self.killing_matrix(), xs, ys), dx * dy * self.table.den**2)

    def killing_scale(self) -> Fraction:
        """s with killing(b_i, b_j) = s T[i][j] on every basis pair: 1/den^2,
        over the ad-trace pairing of the norm pair when there is one."""
        s = Q(1, self.table.den**2)
        if self.norm_pair is not None:
            raw = self.killing_raw(*self.norm_pair)
            if raw == 0:
                raise ConstructionError("ad-trace pairing of the normalization pair vanishes")
            s /= raw
        return s

    def killing(self, x: SparseVec, y: SparseVec) -> Fraction:
        return self.killing_raw(x, y) * self.killing_scale() * self.table.den**2


def bracket_table(dim: int, brackets: dict, value=Q) -> linalg.ScaledTable:
    """cells[i][j] = den [b_i, b_j] in ints over den, from brackets =
    {(i, j): vec}, one key per pair i != j or none.  vec's values are
    hashable, and each c stands for the nonzero rational value(c): value is
    called once per distinct c, den is the lcm of the denominators, so of
    the reduced denominators of the constants, and each c's int over den is
    formed once.  Each vec is rewritten in place into cell [i][j], one
    lookup per entry, so the caller's dicts become the cells; brackets is
    emptied as they are taken and the rows become tuples one at a time, so
    no second copy of either is held.  [b_j, b_i] is the negated cell and every zero bracket is one shared
    empty dict, so row i is den ad(b_i); no cell may be written."""
    distinct = set(itertools.chain.from_iterable(map(dict.values, brackets.values())))
    rationals = {c: value(c) for c in distinct}
    den = math.lcm(*(x.denominator for x in rationals.values()))
    ints = {c: x.numerator * (den // x.denominator) for c, x in rationals.items()}
    zero: SparseVec = {}
    rows = [[zero] * dim for _ in range(dim)]
    while brackets:
        (i, j), cell = brackets.popitem()
        if cell:
            neg = {}
            for k, c in cell.items():
                cell[k] = x = ints[c]
                neg[k] = -x
            rows[i][j], rows[j][i] = cell, neg
    for i, row in enumerate(rows):
        rows[i] = tuple(row)
    return linalg.ScaledTable(tuple(rows), den)


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
    for i, comms in enumerate(linalg.op_commutators(cells, n)):
        ops += [comms.get(j, {}) for j in range(i + 1, n)]
    span = EchelonBasis()
    for op in ops:
        span.insert(op)
    m_dim = len(span)
    # the m basis C_a = D T_a is D at its own pivot and 0 at the others', so
    # the coordinates of an element of the span are its entries at the
    # pivots, read through at = {pivot of C_a: a}
    rows, d = span.scaled_basis()
    m_cols = [linalg.op_unflatten(row, n) for row in rows]
    at = {p: a for a, p in enumerate(span.sorted_pivots())}
    coords = [dict(sorted((at[p], c) for p, c in op.items() if p in at)) for op in ops]
    del ops, span

    idx_nbar = lambda k: k
    idx_m = lambda k: n + k
    idx_n = lambda k: n + m_dim + k

    labels = (
        tuple(f"nbar:{k}" for k in range(n))
        + tuple(f"m:{k}" for k in range(m_dim))
        + tuple(f"n:{k}" for k in range(n))
    )
    grading = (-2,) * n + (0,) * m_dim + (2,) * n
    # the constants are read off in ints over den^2, D, s = D de den and
    # D^2; each goes to bracket_table over their lcm q, times q over its own
    one = J.identity.vec
    es, de = linalg.scale_vec(enumerate(one))
    e, s = dict(es), d * de * den
    q = math.lcm(den * den, s, d * d)
    brackets: dict = {}  # (i, j) -> ints over q

    # [n_i, nbar_j] = V_{b_i, b_j} = 2([L_j, L_i] - L_{b_i o b_j}); over
    # b_i o b_j = sum_k c_k b_k / den its den^2 multiple is
    # 2(den^2 [L_j, L_i] - sum_k c_k den L_k), so each constant is one division
    comm_at = {pair: n + t for t, pair in enumerate(pairs)}
    u = q // (den * den)
    for i in range(n):
        for j in range(n):
            terms = [(k, -2 * c) for k, c in cells[i][j].items()]
            if i != j:
                terms.append((comm_at[min(i, j), max(i, j)], 2 if i > j else -2))
            vop = add_combination({}, coords, terms).items()
            brackets[idx_n(i), idx_nbar(j)] = {idx_m(a): u * c for a, c in vop if c}

    # [m_a, n_k] = T_a(b_k);  [m_a, nbar_k] = -(T_a#(b_k))bar with the
    # companion T# = 2 L_{T(e)} - T, linear in T and V_{y,x} on V_{x,y}.  On
    # J.scaled, lte = C_a(es) is D de den L_{T_a(e)} (e = es / de), so
    # D de den (-T_a#) = de den C_a - 2 lte
    u, v = q // d, q // s
    for a, cols in enumerate(m_cols):
        lte = lmul_cols(cells, linalg.op_apply(cols, e).items())
        for k in range(n):
            neg_sharp = add_combination({r: de * den * c for r, c in cols[k].items()}, lte, [(k, -2)])
            brackets[idx_m(a), idx_n(k)] = {idx_n(r): u * c for r, c in cols[k].items()}
            brackets[idx_m(a), idx_nbar(k)] = {idx_nbar(r): v * c for r, c in neg_sharp.items() if c}

    # [m_a, m_b] = operator commutator.  Closure in the span is a theorem,
    # checked on every pair in ints: C = D^2 [m_a, m_b] and each row D R_i is
    # D at its pivot p_i and 0 at the others, so D C - sum_i C[p_i] D R_i = 0
    # iff C is in the span; a pair the kernel does not yield commutes
    u = q // (d * d)
    for a, comms in enumerate(linalg.op_commutators(m_cols, n)):
        for b, comm in comms.items():
            consts = sorted((at[p], c) for p, c in comm.items() if p in at)
            rem = {k: d * c for k, c in comm.items()}
            add_combination(rem, rows, [(i, -c) for i, c in consts])
            if any(rem.values()):
                raise ConstructionError("operator commutator escaped the structure-operator span")
            brackets[idx_m(a), idx_m(b)] = {idx_m(i): u * c for i, c in consts}

    # e = identity in n, f = -(identity) in nbar, h = [e, f] = -V_{e,e} = 2 L_e
    h = {idx_m(a): Q(2 * c, de * den) for a, c in add_combination({}, coords, es).items() if c}
    embed = lambda vec, idx, sign: {idx(k): sign * c for k, c in enumerate(vec) if c}
    frame = J.frame(1).vec
    triple = (embed(one, idx_nbar, -1), h, embed(one, idx_n, 1))
    norm_pair = (embed(frame, idx_nbar, -1), embed(frame, idx_n, 1))
    table = bracket_table(len(labels), brackets, lambda c: Q(c, q))
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


class SpanReport(NamedTuple):
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
    """The vector of [index, value(c)] entries, c a "p/q" string; explicit
    zeros, which value reads as 0 or None, are dropped."""
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
    return out if all(out.values()) else {k: c for k, c in out.items() if c}


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
    """Inverse of :func:`to_json`; malformed input raises InvalidParameter,
    at the first fault in document order.  One pass checks every bracket
    and reads its vector with the constant strings as values, each distinct
    string parsed once and explicit zeros dropped; bracket_table then
    rewrites the vectors in place into the table's cells, so no Fraction
    is made per entry and one set of cells is held."""
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
    consts: dict = {}  # each distinct constant string -> its Fraction

    def value(c):
        """c itself, or None when it reads 0; each distinct c is parsed once."""
        if type(c) is not str or c not in consts:
            consts[c] = parse(c)
        return c if consts[c] else None

    brackets: dict = {}
    for entry in obj["brackets"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InvalidParameter(f"bracket must be [i, j, vector], got {entry!r}")
        i, j, items = entry
        if type(i) is not int or type(j) is not int or not 0 <= i < j < n or (i, j) in brackets:
            raise InvalidParameter(f"bad or repeated bracket pair ({i!r}, {j!r})")
        brackets[i, j] = _sparse_from_json(items, n, value)

    return LieAlgebra(
        labels=labels,
        table=bracket_table(n, brackets, consts.__getitem__),
        grading=grading,
        triple=_vectors_from_json(obj, "triple", "fhe", n),
        norm_pair=_vectors_from_json(obj, "norm_pair", "fe", n),
    )

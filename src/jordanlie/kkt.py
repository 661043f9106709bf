"""Graded Lie algebra attached to a Jordan algebra.

From a Jordan algebra J this module builds the 3-graded Lie algebra

    g  =  nbar (+) m (+) n          degrees -2, 0, +2

with n and nbar two copies of J.  The middle piece m is realized concretely
as the span of the structure operators

    V_{x,y} : z  |->  2((x o z) o y - (z o y) o x - (x o y) o z)

acting on n; it always contains the grading element h = 2*Id (h = -V_{e,e}).
Brackets:

    [n, n] = [nbar, nbar] = 0
    [x, ybar]            = V_{x,y}
    [T, z]   (T in m)    = T(z)           in n
    [T, zbar]            = -(T#(z))bar    in nbar
    [T, T']              = T T' - T' T

where T# is the adjoint of T with respect to the trace bilinear form
T_J(x o y); on generators V_{x,y}# = V_{y,x}.  The distinguished sl2-triple
is e = identity of J inside n, f = -(identity) inside nbar, h = [e, f].

The Killing form is the ad-trace form rescaled so that it takes the value 1
on the pair (f_1, e_1) built from the first frame idempotent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import ConstructionError, InvalidParameter
from .jordan import JordanAlgebra, JordanElement
from .linalg import EchelonBasis, add_combination, vec_add
from .rationals import HALF, Q, fmt, parse

SparseVec = dict
OpCols = tuple  # tuple of sparse column dicts: cols[k] = image of basis k


def _apply_op(cols: Sequence[dict], v: SparseVec) -> SparseVec:
    out: SparseVec = {}
    for k, c in v.items():
        col = cols[k]
        if col:
            out = vec_add(out, col, c)
    return out


def _flatten(cols: Sequence[dict], n: int) -> SparseVec:
    flat: SparseVec = {}
    for k, col in enumerate(cols):
        base = k * n
        for row, c in col.items():
            flat[base + row] = c
    return flat


def _unflatten(flat: SparseVec, n: int) -> OpCols:
    cols = [dict() for _ in range(n)]
    for pos, c in flat.items():
        cols[pos // n][pos % n] = c
    return tuple(cols)


@dataclass
class StructureOperator:
    """m-component element: its action on n and the companion action whose
    negative-bar gives the bracket with nbar."""

    jordan: JordanAlgebra
    cols: OpCols
    sharp_cols: OpCols

    def apply(self, v: SparseVec) -> SparseVec:
        return _apply_op(self.cols, v)


def structure_operator(J: JordanAlgebra, x: JordanElement, y: JordanElement) -> StructureOperator:
    """V_{x,y} together with its companion V_{y,x}."""
    return StructureOperator(J, _vop_cols(J, x.vec, y.vec), _vop_cols(J, y.vec, x.vec))


def _vop_cols(J: JordanAlgebra, x, y) -> OpCols:
    """Columns of V_{x,y} = 2(L_y L_x - L_x L_y - L_{x o y}), read from the
    sparse multiplication table: no dense vector is formed.

    Column k is 2((x o b_k) o y - (b_k o y) o x - (x o y) o b_k); since the
    table is symmetric, row k of it is the operator L_{b_k}.
    """
    table = J.mul_table
    xs = [(i, c) for i, c in enumerate(x) if c]
    ys = [(j, c) for j, c in enumerate(y) if c]
    lx = [add_combination({}, table[k], xs) for k in range(J.dim)]  # x o b_k
    ly = [add_combination({}, table[k], ys) for k in range(J.dim)]  # b_k o y
    neg_xy = [(i, -c) for i, c in add_combination({}, ly, xs).items() if c]
    cols = []
    for k in range(J.dim):
        acc = add_combination({}, ly, lx[k].items())
        add_combination(acc, lx, [(i, -c) for i, c in ly[k].items()])
        add_combination(acc, table[k], neg_xy)
        cols.append({i: 2 * c for i, c in sorted(acc.items()) if c})
    return tuple(cols)


# ---------------------------------------------------------------------------
# Lie algebra container
# ---------------------------------------------------------------------------


@dataclass
class LieAlgebra:
    """Basis-indexed sparse structure constants, optionally 3-graded.

    brackets holds only pairs i < j; [b_j, b_i] is recovered by
    antisymmetry and [b_i, b_i] = 0 structurally.
    """

    labels: tuple[str, ...]
    brackets: dict  # (i, j) i<j -> {k: Fraction}, zero brackets absent
    grading: Optional[tuple[int, ...]] = None
    triple: Optional[tuple[SparseVec, SparseVec, SparseVec]] = None  # (f, h, e)
    norm_pair: Optional[tuple[SparseVec, SparseVec]] = None  # (f1, e1)
    jordan: Optional[JordanAlgebra] = None
    m_operators: Optional[list] = None
    # rootdata.RootSystem of a Chevalley build; derived data, not compared
    root_system: Optional[object] = field(default=None, compare=False, repr=False)
    _killing: Optional[list] = field(default=None, repr=False)
    _ad_cache: Optional[list] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        b = self.brackets.get((j, i))
        return {k: -c for k, c in b.items()} if b else {}

    def bracket(self, x: SparseVec, y: SparseVec) -> SparseVec:
        for v in (x, y):
            if any(k < 0 or k >= self.dim for k in v):
                raise InvalidParameter("element index out of range for this algebra")
        out: SparseVec = {}
        for i, ci in x.items():
            if not ci:
                continue
            for j, cj in y.items():
                if not cj:
                    continue
                b = self.bracket_basis(i, j)
                if b:
                    out = vec_add(out, b, ci * cj)
        return out

    def ad_cols(self, i: int) -> list:
        return [self.bracket_basis(i, j) for j in range(self.dim)]

    def _ads(self) -> list:
        if self._ad_cache is None:
            self._ad_cache = [self.ad_cols(i) for i in range(self.dim)]
        return self._ad_cache

    def degree_indices(self, deg: int) -> list[int]:
        if self.grading is None:
            raise InvalidParameter("algebra carries no grading")
        return [i for i, d in enumerate(self.grading) if d == deg]

    # -- Killing form --------------------------------------------------------

    def killing_raw(self, x: SparseVec, y: SparseVec) -> Fraction:
        """trace(ad x ad y), no normalization."""
        ads = self._ads()
        total = Q(0)
        for i, ci in x.items():
            for j, cj in y.items():
                total += ci * cj * _trace_product(ads[i], ads[j])
        return total

    def killing_scale(self) -> Fraction:
        """Scalar s with kappa = s * ad-trace form, fixed by the norm pair."""
        if self.norm_pair is None:
            raise InvalidParameter("algebra carries no normalization pair")
        f1, e1 = self.norm_pair
        raw = self.killing_raw(f1, e1)
        if raw == 0:
            raise ConstructionError("ad-trace pairing of the normalization pair vanishes")
        return Q(1) / raw

    def killing_matrix(self) -> list[list[Fraction]]:
        """Full normalized Killing Gram matrix on the basis."""
        if self._killing is None:
            ads = self._ads()
            n = self.dim
            mat = [[Q(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if self.grading is not None and self.grading[i] + self.grading[j] != 0:
                        continue  # weight-shifting composites are traceless
                    v = _trace_product(ads[i], ads[j])
                    mat[i][j] = mat[j][i] = v
            s = self.killing_scale() if self.norm_pair is not None else Q(1)
            if s != 1:
                mat = [[s * v for v in row] for row in mat]
            self._killing = mat
        return self._killing

    def killing(self, x: SparseVec, y: SparseVec) -> Fraction:
        return linalg.gram_form(self.killing_matrix(), x.items(), y.items())


def _trace_product(a_cols: list, b_cols: list) -> Fraction:
    """trace(A B) for column-sparse operators."""
    total = Q(0)
    for l, bcol in enumerate(b_cols):
        for k, c in bcol.items():
            w = a_cols[k].get(l)
            if w is not None:
                total += w * c
    return total


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------


def build_kkt(J: JordanAlgebra) -> LieAlgebra:
    n = J.dim
    basis_vecs = [tuple(Q(1) if i == k else Q(0) for i in range(n)) for k in range(n)]

    # span of all structure operators V_{b_i, b_j}, in first-pivot echelon order
    span = EchelonBasis()
    vop_flat = {}
    for i in range(n):
        for j in range(n):
            flat = _flatten(_vop_cols(J, basis_vecs[i], basis_vecs[j]), n)
            vop_flat[(i, j)] = flat
            span.insert(flat)
    m_dim = len(span)
    m_flat = span.sorted_basis()
    m_cols = [_unflatten(fl, n) for fl in m_flat]

    # trace-form adjoint gives the companion operator of every m element
    gram = J.trace_form_gram()
    gram_inv = linalg.invert(gram)
    m_sharp = [_sharp_cols(cols, gram, gram_inv, n) for cols in m_cols]
    m_ops = [
        StructureOperator(J, cols, sharp) for cols, sharp in zip(m_cols, m_sharp)
    ]

    # closure and membership checks (sampled when the flat problem is large)
    rng = random.Random(0)
    full_check = n <= 9
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

    def put(i: int, j: int, vec: SparseVec):
        if not vec:
            return
        if i > j:
            i, j = j, i
            vec = {k: -c for k, c in vec.items()}
        elif i == j:
            raise ConstructionError("diagonal bracket must vanish")
        brackets[(i, j)] = vec

    # [n_i, nbar_j] = V_{b_i, b_j} in m; the operator was inserted into the
    # span, so the pivot readout is exact
    for i in range(n):
        for j in range(n):
            coords = span.coordinates_unchecked(vop_flat[(i, j)])
            put(
                idx_n(i),
                idx_nbar(j),
                {idx_m(a): c for a, c in enumerate(coords) if c},
            )

    # [m_a, n_k] = T_a(b_k);  [m_a, nbar_k] = -(T_a#(b_k))bar
    for a, op in enumerate(m_ops):
        for k in range(n):
            col = op.cols[k]
            put(idx_m(a), idx_n(k), {idx_n(r): c for r, c in col.items()})
            scol = op.sharp_cols[k]
            put(idx_m(a), idx_nbar(k), {idx_nbar(r): -c for r, c in scol.items()})

    # [m_a, m_b] = operator commutator; closure in the span is a theorem, so
    # the constants come from pivot positions of the commutator, with full
    # reduction re-checked exhaustively on small algebras and sampled on
    # large ones
    pivot_pos = sorted(span.pivots)
    for a in range(m_dim):
        for b in range(a + 1, m_dim):
            A, B = m_cols[a], m_cols[b]
            vals = []
            for p in pivot_pos:
                col, row = divmod(p, n)
                v = Q(0)
                for c, t in B[col].items():
                    w = A[c].get(row)
                    if w is not None:
                        v += w * t
                for c, t in A[col].items():
                    w = B[c].get(row)
                    if w is not None:
                        v -= w * t
                vals.append(v)
            if full_check or rng.random() < 0.05:
                comm_flat = _flatten(_commutator_cols(A, B, n), n)
                coords = span.coordinates(comm_flat)
                if coords is None or coords != vals:
                    raise ConstructionError(
                        "operator commutator escaped the structure-operator span"
                    )
            put(
                idx_m(a),
                idx_m(b),
                {idx_m(k): c for k, c in enumerate(vals) if c},
            )

    g = LieAlgebra(labels=labels, brackets=brackets, grading=grading, jordan=J, m_operators=m_ops)

    e_vec = {idx_n(k): c for k, c in enumerate(J.identity.vec) if c}
    f_vec = {idx_nbar(k): -c for k, c in enumerate(J.identity.vec) if c}
    h_vec = g.bracket(e_vec, f_vec)
    if not set(h_vec) <= {idx_m(a) for a in range(m_dim)}:
        raise ConstructionError("grading element landed outside m")
    g.triple = (f_vec, h_vec, e_vec)

    e1 = {idx_n(k): c for k, c in enumerate(J.frame(1).vec) if c}
    f1 = {idx_nbar(k): -c for k, c in enumerate(J.frame(1).vec) if c}
    g.norm_pair = (f1, e1)
    return g


def _sharp_cols(cols: OpCols, gram, gram_inv, n: int) -> OpCols:
    # T# = G^{-1} T^t G  (adjoint for the trace form)
    tg = [[Q(0)] * n for _ in range(n)]  # T^t G: row i = column i of T, paired with G
    for i in range(n):
        col = cols[i]
        if not col:
            continue
        row = tg[i]
        for k, c in col.items():
            gk = gram[k]
            for j in range(n):
                if gk[j]:
                    row[j] += c * gk[j]
    full = linalg.mat_mul(gram_inv, tg)
    out = []
    for k in range(n):
        out.append({r: full[r][k] for r in range(n) if full[r][k]})
    return tuple(out)


def _commutator_cols(a: OpCols, b: OpCols, n: int) -> OpCols:
    cols = []
    for k in range(n):
        ab = _apply_op(a, b[k])
        ba = _apply_op(b, a[k])
        cols.append(vec_add(ab, ba, Q(-1)))
    return tuple(cols)


# ---------------------------------------------------------------------------
# derived maps and reports
# ---------------------------------------------------------------------------


def w_map(g: LieAlgebra, x: SparseVec) -> SparseVec:
    """w(x) = [f, [f, x]]/2, a linear bijection n -> nbar."""
    if g.triple is None:
        raise InvalidParameter("algebra carries no sl2 triple")
    n_idx = set(g.degree_indices(2))
    if not set(x) <= n_idx:
        raise InvalidParameter("w expects an element supported in the +2 part")
    f, _, _ = g.triple
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
    f, _, _ = g.triple
    out = g.bracket(x, g.bracket(f, y))
    return {k: HALF * c for k, c in out.items()}


def nbar_product(g: LieAlgebra, x: SparseVec, y: SparseVec) -> SparseVec:
    """Jordan product on the -2 block: x o y = [x, [-e, y]]/2."""
    _, _, e = g.triple
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
            b = g.bracket_basis(i, j)
            if b:
                span.insert(b)
    return SpanReport(m_dim=m_count, span_dim=len(span))


# ---------------------------------------------------------------------------
# JSON structure-constant exchange
# ---------------------------------------------------------------------------


def _sparse_to_json(vec: SparseVec) -> list:
    return [[k, fmt(c)] for k, c in sorted(vec.items())]


def _sparse_from_json(items, dim: int) -> SparseVec:
    if not isinstance(items, list):
        raise InvalidParameter(f"sparse vector must be a list, got {items!r}")
    out: SparseVec = {}
    for entry in items:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InvalidParameter(f"sparse entry must be [index, value], got {entry!r}")
        k, c = entry
        if type(k) is not int or not 0 <= k < dim or k in out:
            raise InvalidParameter(f"bad or repeated basis index {k!r} for dimension {dim}")
        out[k] = parse(c)
    return out


def to_json(g: LieAlgebra) -> dict:
    basis = [
        {"label": lbl, "degree": (g.grading[i] if g.grading is not None else None)}
        for i, lbl in enumerate(g.labels)
    ]
    brackets = [
        [i, j, _sparse_to_json(vec)]
        for (i, j), vec in sorted(g.brackets.items())
    ]
    triple = None
    if g.triple is not None:
        f, h, e = g.triple
        triple = {
            "f": _sparse_to_json(f),
            "h": _sparse_to_json(h),
            "e": _sparse_to_json(e),
        }
    return {"basis": basis, "brackets": brackets, "triple": triple}


def from_json(obj: dict) -> LieAlgebra:
    """Inverse of :func:`to_json`; malformed input raises InvalidParameter."""
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
    brackets = {}
    for entry in obj["brackets"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InvalidParameter(f"bracket must be [i, j, vector], got {entry!r}")
        i, j, items = entry
        if type(i) is not int or type(j) is not int or not 0 <= i < j < n or (i, j) in brackets:
            raise InvalidParameter(f"bad or repeated bracket pair ({i!r}, {j!r})")
        vec = _sparse_from_json(items, n)
        if vec:
            brackets[(i, j)] = vec
    triple = None
    if obj.get("triple"):
        t = obj["triple"]
        if not (isinstance(t, dict) and all(key in t for key in "fhe")):
            raise InvalidParameter("triple must be an object with f, h and e")
        triple = tuple(_sparse_from_json(t[key], n) for key in "fhe")
    return LieAlgebra(labels=labels, brackets=brackets, grading=grading, triple=triple)

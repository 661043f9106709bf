"""Exact linear algebra over the rationals.

Vectors are dicts {index: coeff} with zero entries absent; small dense
problems use lists of lists.  Coefficients are Fractions, except inside
``dense_product``, which scales its table and inputs to Python ints, runs
the one table kernel on them and divides each entry back once.  Everything
here is deterministic: pivoting follows first-nonzero order, never
magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

Q = Fraction

SparseVec = dict


def vec_add(a: SparseVec, b: SparseVec, scale: Fraction = Q(1)) -> SparseVec:
    """a + scale*b, dropping zeros."""
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + scale * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def add_combination(acc: SparseVec, cols, coeffs) -> SparseVec:
    """acc += sum of c * cols[p] over the (p, c) pairs in coeffs, in place.

    Cancellations leave zero entries in acc; callers drop them on readout.
    """
    for p, c in coeffs:
        for k, t in cols[p].items():
            acc[k] = acc.get(k, 0) + c * t
    return acc


def table_product(acc: SparseVec, table, xs, ys) -> SparseVec:
    """acc += sum of cx * cy * table[i][j] over the (i, cx) pairs in xs and the
    (j, cy) pairs in ys, in place; table cells are sparse {k: coeff}.

    Zero coefficients are skipped; cancellations leave zero entries in acc.
    """
    ys = [(j, cy) for j, cy in ys if cy]
    for i, cx in xs:
        if cx:
            add_combination(acc, table[i], [(j, cx * cy) for j, cy in ys])
    return acc


def gram_form(gram, xs, ys) -> Fraction:
    """x^T G y over the (i, cx) pairs in xs and the (j, cy) pairs in ys."""
    ys = [(j, cy) for j, cy in ys if cy]
    total = Q(0)
    for i, cx in xs:
        if cx:
            row = gram[i]
            for j, cy in ys:
                if row[j]:
                    total += cx * cy * row[j]
    return total


@dataclass(frozen=True)
class ScaledTable:
    """A table of sparse cells times den, the least common denominator of its
    coefficients: the same {k: coeff} cells, holding ints."""

    cells: tuple
    den: int


def scale_table(table) -> ScaledTable:
    den = math.lcm(*(c.denominator for row in table for cell in row for c in cell.values()))
    cells = tuple(
        tuple({k: c.numerator * (den // c.denominator) for k, c in cell.items()} for cell in row)
        for row in table
    )
    return ScaledTable(cells, den)


def _scaled(vec) -> tuple[list, int]:
    """The nonzero entries of vec as (i, int) pairs over their lcm d, and d."""
    d = math.lcm(*(c.denominator for c in vec if c))
    return [(i, c.numerator * (d // c.denominator)) for i, c in enumerate(vec) if c], d


def dense_product(scaled: ScaledTable, x, y) -> tuple:
    """The product of dense coefficient vectors x and y through a scaled
    table, as a dense tuple of Fractions: the inputs are scaled once to
    ints, ``table_product`` runs on ints and each entry is divided once."""
    xs, dx = _scaled(x)
    ys, dy = _scaled(y)
    prod = table_product({}, scaled.cells, xs, ys)
    den = dx * dy * scaled.den
    zero = Q(0)
    return tuple([Q(n, den) if (n := prod.get(k)) else zero for k in range(len(scaled.cells))])


class EchelonBasis:
    """Incrementally built reduced row-echelon basis of a sparse row space.

    Rows are kept fully reduced with pivot entry 1, so the coordinates of any
    vector in the span can be read off at the pivot positions.  Insertion
    order fixes the basis deterministically (first-pivot echelon order).
    """

    def __init__(self):
        self.rows: list[SparseVec] = []
        self.pivots: list[int] = []
        self._pivot_of: dict[int, int] = {}
        self._order: Optional[list[int]] = None

    def __len__(self) -> int:
        return len(self.rows)

    def _sorted_order(self) -> list[int]:
        if self._order is None:
            self._order = sorted(range(len(self.rows)), key=lambda i: self.pivots[i])
        return self._order

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Remainder of vec after subtracting its projection onto the span.

        Rows are fully reduced, so subtracting a row never introduces entries
        at other pivot columns; one pass over vec's pivot columns suffices.
        """
        v = dict(vec)
        for col in [c for c in vec if c in self._pivot_of]:
            c = v.get(col)
            if c:
                v = vec_add(v, self.rows[self._pivot_of[col]], -c)
        return v

    def insert(self, vec: SparseVec) -> bool:
        """Add vec to the span; returns True if the dimension grew."""
        rem = self.reduce(vec)
        if not rem:
            return False
        piv = min(rem)
        inv = Q(1) / rem[piv]
        row = {k: inv * v for k, v in rem.items()}
        # back-substitute into existing rows to stay fully reduced
        for i, r in enumerate(self.rows):
            c = r.get(piv)
            if c:
                self.rows[i] = vec_add(r, row, -c)
        self.rows.append(row)
        self.pivots.append(piv)
        self._pivot_of[piv] = len(self.rows) - 1
        self._order = None
        return True

    def sorted_basis(self) -> list[SparseVec]:
        """Basis rows ordered by pivot column (ascending)."""
        return [self.rows[i] for i in self._sorted_order()]

    def coordinates(self, vec: SparseVec) -> Optional[list[Fraction]]:
        """Coordinates of vec in sorted_basis() order, or None if outside."""
        coords = self.coordinates_unchecked(vec)
        rem = dict(vec)
        for c, i in zip(coords, self._sorted_order()):
            if c:
                rem = vec_add(rem, self.rows[i], -c)
        if rem:
            return None
        return coords

    def coordinates_unchecked(self, vec: SparseVec) -> list[Fraction]:
        """Pivot-position readout; caller must know vec lies in the span."""
        return [vec.get(self.pivots[i], Q(0)) for i in self._sorted_order()]


# ---------------------------------------------------------------------------
# small dense helpers (lists of lists of Fractions)
# ---------------------------------------------------------------------------


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n, m, p = len(a), len(b), len(b[0])
    out = [[Q(0)] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(p):
                    if bk[j]:
                        oi[j] += c * bk[j]
    return out


def mat_vec(a: list[list[Fraction]], v: list[Fraction]) -> list[Fraction]:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Q(0)) for row in a]


def identity(n: int) -> list[list[Fraction]]:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def rref(mat: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Q(1) / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(mat: list[list[Fraction]]) -> int:
    return len(rref(mat)[1])


def nullspace(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace, in deterministic RREF order."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = rref(mat)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def det(mat: list[list[Fraction]]) -> Fraction:
    n = len(mat)
    m = [row[:] for row in mat]
    sign = Q(1)
    d = Q(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return Q(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        d *= m[c][c]
        inv = Q(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * d


def invert(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [row[:] + ident for row, ident in zip(mat, identity(n))]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows[:n]]


def solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """One solution of mat @ x = rhs, or None if inconsistent."""
    n = len(mat)
    ncols = len(mat[0]) if n else 0
    aug = [mat[i][:] + [rhs[i]] for i in range(n)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Q(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x


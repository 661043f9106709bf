"""Exact linear algebra over the rationals.

Vectors are dicts {index: coeff} with zero entries absent; small dense
problems use lists of lists.  ``add_combination`` is the only sparse add: it
accumulates in place, and callers drop cancelled entries once on readout.
``table_product`` is the one sparse bilinear kernel: every structure table,
the Lie bracket table included, holds sparse {k: coeff} cells and is
multiplied through it.  A dense product of two full coefficient vectors
(Jordan elements, composition-algebra elements, the root Jordan table)
goes instead through a ``ProductPlan``, the scaled table listed by output
and built once per table: ``int_product`` makes each output one C-level
sum over its entries, on ints, and ``dense_product`` wraps it for Fraction
vectors, scaling each input once and dividing each output once.
Operators are column-sparse: a sequence whose entry k is the
sparse image of basis vector k, flattened (for echelon work) with entry
(row, k) at k * n + row; ``op_commutators`` forms the commutators of every
pair of a list, one flat accumulator per left operator joining it with all
later ones on their entries, and drops its zeros once; ``op_trace_products``
forms every nonzero trace of a pair of a list (a Lie algebra's one trace
Gram, which every Killing read goes through), each entry meeting only the
entries it multiplies.
Coefficients are Fractions, except in
``gram_form`` on integer input (the root data, the Pierce Grams of the
q-composition suite and of the coordinatization), in the dense products
and the Jordan elements that run on them (ints over one denominator), in
kkt's structure operators and its whole construction of m (span,
[x, ybar] readout, companion and closure, handed to ``bracket_table`` as
ints over their denominators), in the Lie bracket table (kkt's
``bracket_table``, the only store of a Lie algebra's brackets) and its
readers, the Killing trace Gram among them, in rootdata's Jordan side (``jordan_from_roots``, ``q_forms``,
the coordinatization's doubled-product chain and local coordinates, the
transport's Levi block) and its cross-validate comparison, in the
composition algebra's unit, conjugation and composition laws, and in the
construction of every Jordan and composition table (doubling, hermitian
matrix-unit products, the quadratic table), which scale to Python ints
(``scale_table``, ``scale_vec``) or are built in them, and divide back
once, if at all: ``reduced_table`` puts an int table over its denominator
in lowest terms, as ``scale_table`` holds it, and ``table_readout`` reads
a scaled table back as Fractions.  There is
one row reduction, ``EchelonBasis``, in ints with division only on readout,
and it is the one subspace kit: every rank, coordinate vector and kernel
(``kernel``, an int basis of the null space) is read off its fully reduced
rows.  ``echelon`` inserts dense rows into one: ``invert`` reads the
inverse off it as column-sparse ints over one denominator, and a Gram is
nondegenerate when it has full rank.  ``rank``, ``nullspace``, ``solve``,
``det`` and ``mat_mul`` have no caller outside this module; the
benchmark's span tracer names them.  Pivots follow first-nonzero order,
never magnitude, so everything here is deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional

Q = Fraction

SparseVec = dict


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


# ---------------------------------------------------------------------------
# column-sparse operators: cols[k] is the sparse image of basis vector k, and
# entry (row, k) of the flattened form sits at k * n + row
# ---------------------------------------------------------------------------


def op_apply(cols, v: SparseVec) -> SparseVec:
    """A(v) for a column-sparse operator A."""
    return {k: c for k, c in add_combination({}, cols, v.items()).items() if c}


def op_compose(a, b) -> tuple:
    """Columns of the product A B."""
    return tuple(op_apply(a, col) for col in b)


def op_trace_products(ops, n: int):
    """For each A_a of the sequence ops in order, {b: trace(A_a A_b)} over the
    b >= a whose trace is nonzero, keys ascending.  Every entry A_b[l, k] is
    listed once at key l n + k, in reverse operator order, so an entry
    A_a[k, l] meets only the entries it multiplies, and once A_a is done its
    own entries, the last of each list, are popped: the cost is the number
    of entries plus the products that meet."""
    listed: dict = {}  # l n + k -> [(b, A_b[l, k])], b descending
    for b in range(len(ops) - 1, -1, -1):
        for k, col in enumerate(ops[b]):
            if col:
                for l, c in col.items():
                    listed.setdefault(l * n + k, []).append((b, c))
    for cols in ops:
        acc: dict = {}
        own = []  # where A_a's entries are listed
        for l, col in enumerate(cols):
            if col:
                l_n = l * n
                for k, t in col.items():
                    own.append(k * n + l)
                    for b, c in listed.get(l_n + k, ()):
                        acc[b] = acc.get(b, 0) + t * c
        for key in own:
            listed[key].pop()
        yield {b: c for b, c in sorted(acc.items()) if c}


def op_from_dense(mat) -> tuple:
    """Columns of a dense square matrix given as a list of rows."""
    n = len(mat)
    return tuple({r: mat[r][k] for r in range(n) if mat[r][k]} for k in range(n))


def op_flatten(cols, n: int) -> SparseVec:
    return {k * n + row: c for k, col in enumerate(cols) for row, c in col.items()}


def op_unflatten(flat: SparseVec, n: int) -> tuple:
    cols = tuple({} for _ in range(n))
    for pos, c in flat.items():
        cols[pos // n][pos % n] = c
    return cols


def op_commutators(ops, n: int):
    """For each A_a of the sequence ops in order, {b: [A_a, A_b] flattened}
    over the b > a whose commutator is nonzero, with no zero entry.  Every
    entry of every operator is listed once by row and once by column, in
    operator order; one flat accumulator per a joins A_a with all later
    operators on the middle index: A_a[r, i] B[i, k] adds at
    b n^2 + k n + r, and B[r, i] A_a[i, k] subtracts there."""
    nn = n * n
    by_row = [[] for _ in range(n)]  # by_row[i]: (b n^2 + k n, B[i, k])
    by_col = [[] for _ in range(n)]  # by_col[i]: (b n^2 + r, B[r, i])
    for b, cols in enumerate(ops):
        for k, col in enumerate(cols):
            for r, c in col.items():
                by_row[r].append((b * nn + k * n, c))
                by_col[k].append((b * nn + r, c))
    row_from, col_from = [0] * n, [0] * n  # the entries of the b > a start here
    for cols in ops:
        for k, col in enumerate(cols):
            col_from[k] += len(col)
            for r in col:
                row_from[r] += 1
        flat: SparseVec = {}
        for i, col in enumerate(cols):
            later, i_n = by_row[i][row_from[i] :], i * n
            for r, t in col.items():
                for base, c in later:
                    flat[base + r] = flat.get(base + r, 0) + t * c
                for base, c in by_col[r][col_from[r] :]:
                    flat[base + i_n] = flat.get(base + i_n, 0) - c * t
        out: dict = {}
        for p, c in flat.items():
            if c:
                b, q = divmod(p, nn)
                out.setdefault(b, {})[q] = c
        yield out


def gram_form(gram, xs, ys):
    """x^T G y over the (i, cx) pairs in xs and the (j, cy) pairs in ys; an
    int when every entry is an int, else a Fraction."""
    ys = [(j, cy) for j, cy in ys if cy]
    total = 0
    for i, cx in xs:
        if cx:
            row = gram[i]
            for j, cy in ys:
                if row[j]:
                    total += cx * cy * row[j]
    return total


class ScaledTable(NamedTuple):
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


def reduced_table(cells, den: int) -> ScaledTable:
    """The int cells over den, with no zero entry, as ``scale_table`` would
    hold their readout: den and every entry divided by their gcd."""
    g = math.gcd(den, *(c for row in cells for cell in row for c in cell.values()))
    cells = tuple(tuple({k: c // g for k, c in cell.items()} for cell in row) for row in cells)
    return ScaledTable(cells, den // g)


def table_readout(scaled: ScaledTable) -> tuple:
    """The table a ScaledTable holds, cell [i][j] as {k: c / den}: one
    division per constant."""
    den = scaled.den
    return tuple(tuple({k: Q(c, den) for k, c in cell.items()} for cell in row) for row in scaled.cells)


def scale_vec(items) -> tuple[list, int]:
    """The nonzero (i, c) pairs of items as (i, int) pairs over their lcm d, and d."""
    items = [(i, c) for i, c in items if c]
    d = math.lcm(*(c.denominator for _, c in items))
    return [(i, c.numerator * (d // c.denominator)) for i, c in items], d


def scale_dense(x) -> tuple[list, int]:
    """A dense vector of rationals as ints over their lcm d, and d."""
    d = math.lcm(*(c.denominator for c in x))
    return [c.numerator * (d // c.denominator) for c in x], d


class ProductPlan(NamedTuple):
    """A scaled table listed by output: terms[k] holds the constants, the
    i's and the j's of the entries table[i][j][k], as three tuples of ints."""

    terms: tuple
    den: int


def product_plan(scaled: ScaledTable) -> ProductPlan:
    terms = [([], [], []) for _ in scaled.cells]
    for i, row in enumerate(scaled.cells):
        for j, cell in enumerate(row):
            for k, c in cell.items():
                consts, left, right = terms[k]
                consts.append(c)
                left.append(i)
                right.append(j)
    return ProductPlan(tuple(tuple(map(tuple, t)) for t in terms), scaled.den)


def int_product(plan: ProductPlan, x, y) -> tuple:
    """den times the product of dense int vectors x and y: each output is one
    C-level sum over its plan entries, with no zero skipped."""
    xs, ys = x.__getitem__, y.__getitem__
    return tuple([sum(map(mul, c, map(mul, map(xs, i), map(ys, j)))) for c, i, j in plan.terms])


def dense_product(plan: ProductPlan, x, y) -> tuple:
    """The product of dense coefficient vectors x and y through a plan, as a
    dense tuple of Fractions: the inputs are scaled once to ints,
    ``int_product`` runs on them and each entry is divided once."""
    xs, dx = scale_dense(x)
    ys, dy = scale_dense(y)
    den = dx * dy * plan.den
    zero = Q(0)
    return tuple([Q(n, den) if n else zero for n in int_product(plan, xs, ys)])


def _primitive(vec: SparseVec, piv: int) -> SparseVec:
    """The nonzero entries of an int vector over their gcd, signed to be positive at piv."""
    vec = {k: c for k, c in vec.items() if c}
    g = math.gcd(*vec.values()) if vec[piv] > 0 else -math.gcd(*vec.values())
    return vec if g == 1 else {k: c // g for k, c in vec.items()}


class EchelonBasis:
    """Incrementally built reduced row-echelon basis of a sparse row space,
    held in ints and fraction-free.  rows[p] is the row whose pivot column is
    p: p_i times its reduced row (1 at p, 0 at every other pivot), with
    p_i = rows[p][p] > 0 and the row's content divided out.  A vector is
    scaled once to ints and rows are combined by cross-multiplication, so
    division happens only on readout.  Insertion order fixes the basis
    deterministically (first-pivot echelon order).
    """

    def __init__(self):
        self.rows: dict[int, SparseVec] = {}  # pivot column -> row, in insertion order

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: SparseVec) -> tuple[SparseVec, int]:
        """Remainder of vec after subtracting its projection onto the span, as
        ints r over a scale s.  Rows are fully reduced, so row p's coefficient
        is vec's entry at p over p_i: over the lcm L of the hit p_i, vec in
        ints over d loses every hit row in one int combination, and s = d L."""
        items, d = scale_vec(vec.items())
        rows = self.rows
        hits = [(p, c) for p, c in items if p in rows]
        lcm = math.lcm(*(rows[p][p] for p, _ in hits))
        acc = {k: lcm * c for k, c in items}
        add_combination(acc, rows, [(p, -c * (lcm // rows[p][p])) for p, c in hits])
        return {k: c for k, c in acc.items() if c}, d * lcm

    def insert(self, vec: SparseVec) -> Fraction:
        """Add vec to the span; returns the remainder's pivot entry, or 0 if
        the dimension did not grow."""
        rem, scale = self.reduce(vec)
        if not rem:
            return Q(0)
        piv = min(rem)
        row = _primitive(rem, piv)
        # back-substitute by cross-multiplication to stay fully reduced:
        # row[piv] r - r[piv] row is 0 at piv and keeps r's pivot entry positive
        for p, r in self.rows.items():
            if c := r.get(piv):
                acc = add_combination({k: row[piv] * v for k, v in r.items()}, [row], [(0, -c)])
                self.rows[p] = _primitive(acc, p)
        self.rows[piv] = row
        return Q(rem[piv], scale)

    def sorted_basis(self) -> list[SparseVec]:
        """The reduced basis rows, ordered by pivot column (ascending)."""
        rows, d = self.scaled_basis()
        return [{k: Q(c, d) for k, c in r.items()} for r in rows]

    def scaled_basis(self) -> tuple[list[SparseVec], int]:
        """sorted_basis() in ints over D, the lcm of the p_i, and D: each row
        is D at its own pivot and 0 at the others'."""
        rows = self.rows
        d = math.lcm(*(r[p] for p, r in rows.items()))
        return [{k: c * (d // rows[p][p]) for k, c in rows[p].items()} for p in sorted(rows)], d

    def sorted_pivots(self) -> list[int]:
        """Pivot columns in sorted_basis() order (ascending)."""
        return sorted(self.rows)

    def coordinates(self, vec: SparseVec) -> Optional[list[Fraction]]:
        """Coordinates of vec in sorted_basis() order, or None if outside:
        its entries at the pivot columns."""
        if self.reduce(vec)[0]:
            return None
        zero = Q(0)
        return [vec.get(p, zero) for p in self.sorted_pivots()]

    def kernel(self, ncols: int) -> list[SparseVec]:
        """An int basis of the v with r . v = 0 for every inserted row r: one
        primitive vector per free column f < ncols, in column order, positive
        at f and 0 at the other free columns.  Row p is p_i at p and 0 at the
        other pivots, so v[p] = -rows[p][f] v[f] / p_i, v[f] the lcm of the
        p_i whose row meets f; each such p is below f, so f = max(v)."""
        rows, out = self.rows, []
        for f in range(ncols):
            if f not in rows:
                hits = [(p, r[f]) for p, r in rows.items() if f in r]
                lcm = math.lcm(*(rows[p][p] for p, _ in hits))
                out.append(_primitive({f: lcm, **{p: -c * (lcm // rows[p][p]) for p, c in hits}}, f))
        return out


# ---------------------------------------------------------------------------
# small dense helpers (lists of lists of Fractions)
# ---------------------------------------------------------------------------


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[sum((x * y for x, y in zip(row, col) if x and y), Q(0)) for col in zip(*b)] for row in a]


def _sparse(row) -> SparseVec:
    return {k: c for k, c in enumerate(row) if c}


def echelon(rows) -> EchelonBasis:
    """One EchelonBasis holding the dense rows, inserted in order: the kit
    every rank, kernel, inverse and solution below reads."""
    basis = EchelonBasis()
    for row in rows:
        basis.insert(_sparse(row))
    return basis


def rank(mat: list[list[Fraction]]) -> int:
    return len(echelon(mat))


def nullspace(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column in column
    order, 1 at its own free column and 0 at the others."""
    if not mat:
        return []
    ncols = len(mat[0])
    return [[Q(v.get(k, 0), v[max(v)]) for k in range(ncols)] for v in echelon(mat).kernel(ncols)]


def det(mat: list[list[Fraction]]) -> Fraction:
    """Determinant of a square matrix.

    Inserting the rows in order subtracts from each a combination of the
    rows before it, which keeps the determinant.  The remainders, with
    their pivot columns put in row order, form a triangular matrix, so the
    determinant is the product of the pivot entries ``insert`` returns,
    negated when the pivot columns have an odd number of inversions.
    """
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix is not square")
    basis = EchelonBasis()
    d = Q(1)
    for row in mat:
        lead = basis.insert(_sparse(row))
        if not lead:
            return Q(0)
        d *= lead
    p = list(basis.rows)
    inversions = sum(a > b for i, a in enumerate(p) for b in p[i + 1 :])
    return -d if inversions % 2 else d


def invert(mat) -> tuple[tuple, int]:
    """(cols, D), cols[k] column k of D mat^-1 in sparse ints, D > 0: the rows
    (column k of mat | e_k) reduce to p_k (e_k | column k of mat^-1), so mat
    is invertible iff columns 0..n-1 are all pivots."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    rows = echelon([[row[k] for row in mat] + [int(i == k) for i in range(n)] for k in range(n)]).rows
    if any(k not in rows for k in range(n)):
        raise ValueError("matrix is singular")
    den = math.lcm(*(rows[k][k] for k in range(n)))
    return tuple({j - n: c * (den // rows[k][k]) for j, c in rows[k].items() if j >= n} for k in range(n)), den


def solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """One solution of mat @ x = rhs (0 at every free column), or None if
    inconsistent: the reduced rows of [mat | rhs] have a pivot in the last column."""
    ncols = len(mat[0]) if mat else 0
    rows = echelon([list(row) + [c] for row, c in zip(mat, rhs)]).rows
    if ncols in rows:
        return None
    return [Q(rows[p].get(ncols, 0), rows[p][p]) if p in rows else Q(0) for p in range(ncols)]

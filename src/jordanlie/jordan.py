"""Simple Jordan algebras over the rationals.

Two families are supported:

* ``hermitian(r, D)`` -- r x r matrices over a composition algebra D that
  equal their conjugate transpose, under x o y = (xy + yx)/2.  D must be
  associative unless r = 3, where the 8-dimensional (octonion) case is
  admitted as well.
* ``quadratic(gram)`` -- triples (a, b, v) with v in a quadratic space
  (V, Q), where the square is (a^2 + Q(v), b^2 + Q(v), (a+b) v) and the
  product is obtained by polarization.

Every element satisfies a monic polynomial of degree <= r (r the degree of
the algebra: r for hermitian, 2 for quadratic).  The powers e, x, ..., x^r
are formed once (r - 1 products).  The generic trace T(x) = (r / dim) tr L_x
is read off the table once per algebra, as the int covector ``trace_cov``,
and the power sums T(x^k) give the degree-r characteristic coefficients by
Newton's identities, in ints, each coefficient divided once.  Their extreme
coefficients are the trace and the determinant-like norm: ``jordan_trace``
reads the covector, and ``jordan_norm`` and ``jordan_inverse`` the
coefficients.  Only ``generic_min_poly`` row-reduces: one ``linalg.echelon``
of the int matrix whose columns are the powers, whose kernel vector at the
first free column m gives the minimal polynomial; ``pierce`` reads each
component as the int kernel of rows 2 den (L_{e_i} - lam) taken off the
table.  Sign convention for the quadratic family:
N(a, b, v) = ab - Q(v), which is the unique constant term making
x^2 - T(x) x + N(x) e = 0 hold with the square rule above.

Elements are coefficient vectors over a fixed basis: the r diagonal
matrix units first, then for each pair i < j (in lexicographic order) the
d elements {b E_ij + conj(b) E_ji} for b running over the basis of D; the
quadratic family uses (e1, e2, V-basis).  An element holds them as ints
over one positive denominator, in lowest terms, so sums, scalar multiples,
products, equality and the power sequence behind the polynomials run on
ints; ``vec`` reads the coefficients out as Fractions.

Products go through a multiplication table of basis products in the
package's one cell format: cell [i][j] is b_i o b_j as a dict {k: coeff}
with zeros absent.  The table is built in ints over one denominator and
held as ``scaled`` (``linalg.reduced_table`` puts it in lowest terms, so it
is exactly ``linalg.scale_table`` of its readout) and listed by output once
(``plan``, a ``linalg.ProductPlan``); ``mul_vec``, the one entry point of
every element product, runs ``linalg.int_product`` on the elements' ints.
``mul_table``, the Fraction readout, is made on first read.  The hermitian
table is formed from sparse matrix units multiplied through D's scaled
table by ``linalg.table_product``, each unit held times the denominator d
of D's trace covector, so it is read over 2 s d^2 (s that of D's table),
and checked as it is read: a scalar diagonal and a hermitian result.  The
tests compare the table against the same product by genuine matrix
multiplication over D.  The quadratic table is read off the Gram over 2 d_G,
and the family's form Q(v) = v^T G v is evaluated by ``linalg.gram_form``.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from . import linalg
from .composition import CAElement, CompositionAlgebra
from .composition import element_from_json as ca_element_from_json
from .composition import element_to_json as ca_element_to_json
from .errors import AlgebraMismatch, ConstructionError, InvalidParameter, SingularElement
from .rationals import Q, fmt, parse, to_int

Vec = tuple[Fraction, ...]


def lmul_cols(table, xs) -> tuple[dict, ...]:
    """L_x : z |-> x o z as columns, x given by a re-iterable of its (k, c) pairs:
    a Jordan table is symmetric, so column m, x o b_m, is its row m combined by xs."""
    return tuple(linalg.add_combination({}, row, xs) for row in table)


class JordanAlgebra:
    """Shared machinery for both families; construct via the factory
    functions :func:`hermitian` and :func:`quadratic`."""

    variant: str  # "hermitian" | "quadratic"
    dim: int
    degree: int
    scaled: linalg.ScaledTable  # the table, built in ints over its common denominator
    plan: linalg.ProductPlan  # scaled, listed by output: the element products' kernel

    def __init__(self):
        raise TypeError("use jordan.hermitian(...) or jordan.quadratic(...)")

    # -- common setup, called by the factories ------------------------------

    def _finish_init(self):
        self.scaled = self._build_scaled_table()
        self.plan = linalg.product_plan(self.scaled)
        # in both families the frames are the first r basis vectors
        self.frames = [self.basis_element(i) for i in range(self.degree)]
        self.identity = JordanElement(self, tuple(int(k < self.degree) for k in range(self.dim)), 1)
        # the generic trace T(x) = (r / dim) tr L_x of a simple algebra, read
        # off the table: tr L_{b_k} = sum_m cells[k][m][m] / den
        den = self.dim * self.scaled.den
        cov, d = linalg.scale_dense(
            [Q(self.degree * sum(cell.get(m, 0) for m, cell in enumerate(row)), den) for row in self.scaled.cells]
        )
        self.trace_cov = (tuple(cov), d)  # T(b_k) = cov[k] / d

    @functools.cached_property
    def mul_table(self) -> tuple:
        """The table of basis products as Fractions, read out of ``scaled``
        on first use: nothing in the package reads it."""
        return linalg.table_readout(self.scaled)

    # -- elements ------------------------------------------------------------

    def element(self, vec: Sequence) -> "JordanElement":
        v = [Q(x) for x in vec]
        if len(v) != self.dim:
            raise InvalidParameter(f"expected {self.dim} coefficients, got {len(v)}")
        # over the lcm of reduced denominators the numerators share no factor with it
        num, den = linalg.scale_dense(v)
        return JordanElement(self, tuple(num), den)

    def zero(self) -> "JordanElement":
        return JordanElement(self, (0,) * self.dim, 1)

    def basis_element(self, k: int) -> "JordanElement":
        return JordanElement(self, tuple(int(i == k) for i in range(self.dim)), 1)

    def basis(self) -> list["JordanElement"]:
        return [self.basis_element(k) for k in range(self.dim)]

    def frame(self, i: int) -> "JordanElement":
        """i-th frame idempotent (1-based)."""
        return self.frames[i - 1]

    # -- product -------------------------------------------------------------

    def mul_vec(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        """plan.den (x o y) for int coefficient vectors x and y: the kernel
        of every element product."""
        return linalg.int_product(self.plan, x, y)


class HermitianJordan(JordanAlgebra):
    def __init__(self, r: int, coeff_algebra: CompositionAlgebra):
        if r < 2:
            raise InvalidParameter("hermitian family needs degree r >= 2")
        if coeff_algebra.dim == 8 and r != 3:
            raise InvalidParameter(
                "8-dimensional coefficient algebras only form a Jordan algebra at r = 3"
            )
        self.variant = "hermitian"
        self.r = r
        self.coeff_algebra = coeff_algebra
        self.degree = r
        d = coeff_algebra.dim
        self.pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
        self.dim = r + len(self.pairs) * d
        self._pair_offset = {p: r + n * d for n, p in enumerate(self.pairs)}
        self._finish_init()

    def __repr__(self):
        return f"JordanAlgebra(H{self.r}({self.coeff_algebra.descriptor}))"

    def _build_scaled_table(self):
        """Basis products (xy + yx)/2 of sparse matrix units, multiplied in
        ints through the coefficient algebra's scaled table (over s), checked
        to be hermitian with a scalar diagonal.  Each unit is held times d, the
        denominator of the trace covector, its lower entry through
        ``conj_ints``, so a symmetrized product comes out 2 s d^2 times the
        table's, the diagonal must be scalar and d times the (j, i) entry
        must be conj_ints of the (i, j) one."""
        D = self.coeff_algebra
        cells, d = D.scaled.cells, D.trace_cov[1]
        basis = [[int(k == a) for k in range(D.dim)] for a in range(D.dim)]
        conj = [{k: c for k, c in enumerate(D.conj_ints(v)) if c} for v in basis]  # d conj(e_a)
        # basis elements as lists of nonzero entries (row, col, {D-index: d coeff})
        units = [[(i, i, {0: d})] for i in range(self.r)]
        for i, j in self.pairs:
            units += [[(i, j, {a: d}), (j, i, conj[a])] for a in range(D.dim)]
        table = [[None] * self.dim for _ in range(self.dim)]
        for s in range(self.dim):
            for t in range(s, self.dim):
                mat: dict = {}
                _matrix_unit_product(mat, cells, units[s], units[t])
                _matrix_unit_product(mat, cells, units[t], units[s])
                mat = {pos: {k: c for k, c in e.items() if c} for pos, e in mat.items()}
                entry = {}
                for i in range(self.r):
                    if diag := mat.get((i, i)):
                        if diag.keys() - {0}:
                            raise ConstructionError("diagonal entry is not scalar")
                        entry[i] = diag[0]
                for (i, j), off in self._pair_offset.items():
                    upper, lower = mat.get((i, j), {}), mat.get((j, i), {})
                    if upper or lower:
                        want = linalg.add_combination({}, conj, upper.items())
                        if {k: d * c for k, c in lower.items()} != {k: c for k, c in want.items() if c}:
                            raise ConstructionError("matrix is not hermitian")
                        entry.update((off + k, c) for k, c in upper.items())
                table[s][t] = table[t][s] = dict(sorted(entry.items()))
        return linalg.reduced_table(table, 2 * D.scaled.den * d * d)

    def diag_entries(self, vec: Vec) -> list[Fraction]:
        return list(vec[: self.r])

    def upper_entry(self, vec: Vec, i: int, j: int) -> CAElement:
        """Entry at 0-based (i, j), i < j."""
        off = self._pair_offset[(i, j)]
        return self.coeff_algebra.element(vec[off : off + self.coeff_algebra.dim])

    def from_entries(self, diag: Sequence, upper: dict) -> "JordanElement":
        """diag: r scalars; upper: {(i, j) 0-based: CAElement}."""
        out = [Q(0)] * self.dim
        for i, a in enumerate(diag):
            out[i] = Q(a)
        for (i, j), entry in upper.items():
            off = self._pair_offset[(i, j)]
            for k, c in enumerate(entry.coeffs):
                out[off + k] = c
        return self.element(out)


def _matrix_unit_product(acc: dict, cells, a: list, b: list) -> None:
    """acc += a b for matrices over D listed by their nonzero entries
    (row, col, {D-index: coeff}); cells is D's scaled table."""
    for r, m, u in a:
        for m2, c, v in b:
            if m == m2:
                entry = acc.setdefault((r, c), {})
                linalg.table_product(entry, cells, u.items(), v.items())


class QuadraticJordan(JordanAlgebra):
    def __init__(self, gram: Sequence[Sequence]):
        g = [[Q(x) for x in row] for row in gram]
        n = len(g)
        if n < 1 or any(len(row) != n for row in g):
            raise InvalidParameter("Gram matrix must be square and nonempty")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise InvalidParameter("Gram matrix must be symmetric")
        if len(linalg.echelon(g)) < n:
            raise InvalidParameter("quadratic form must be nondegenerate")
        self.variant = "quadratic"
        self.v_dim = n
        self.gram = tuple(tuple(row) for row in g)
        self.degree = 2
        self.r = 2
        self.dim = 2 + n
        self._finish_init()

    def __repr__(self):
        return f"JordanAlgebra(J2(V{self.v_dim}))"

    def qform(self, v: Sequence[Fraction]) -> Fraction:
        return linalg.gram_form(self.gram, enumerate(v), enumerate(v))

    def bform(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        """B(u, v) = Q(u+v) - Q(u) - Q(v)."""
        return 2 * linalg.gram_form(self.gram, enumerate(u), enumerate(v))

    def parts(self, vec: Vec):
        return vec[0], vec[1], vec[2:]

    def from_parts(self, a, b, v: Sequence) -> "JordanElement":
        if len(v) != self.v_dim:
            raise InvalidParameter("wrong vector-part length")
        return self.element([Q(a), Q(b), *[Q(x) for x in v]])

    def _build_scaled_table(self):
        """Basis products in ints over 2 d_G, G = g / d_G: e1 o e1 = e1,
        e2 o e2 = e2, e1 o e2 = 0, e1 o v = e2 o v = v / 2 and
        v o w = G(v, w) (e1 + e2), the polarization of the square rule."""
        (g,), dg = linalg.scale_table((linalg.op_from_dense(self.gram),))  # g[l][k] = d_G G_kl
        table = [[{} for _ in range(self.dim)] for _ in range(self.dim)]
        table[0][0], table[1][1] = {0: 2 * dg}, {1: 2 * dg}
        for k in range(self.v_dim):
            table[0][2 + k] = table[2 + k][0] = table[1][2 + k] = table[2 + k][1] = {2 + k: dg}
            for l, c in g[k].items():
                table[2 + l][2 + k] = {0: 2 * c, 1: 2 * c}
        return linalg.reduced_table(table, 2 * dg)


def hermitian(r: int, coeff_algebra: CompositionAlgebra) -> HermitianJordan:
    return HermitianJordan(r, coeff_algebra)


def quadratic(gram: Sequence[Sequence]) -> QuadraticJordan:
    return QuadraticJordan(gram)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class JordanElement:
    """Coefficient k is num[k] / den, with den > 0 and the fraction in lowest
    terms, so equal elements have equal fields; ``vec`` reads the
    coefficients out as Fractions."""

    __slots__ = ("algebra", "num", "den")

    def __init__(self, algebra: JordanAlgebra, num: tuple[int, ...], den: int):
        self.algebra, self.num, self.den = algebra, num, den

    @property
    def vec(self) -> Vec:
        den = self.den
        return tuple([Q(n, den) for n in self.num])

    def _reduced(self, num, den: int) -> "JordanElement":
        """num / den (den > 0) in lowest terms."""
        g = math.gcd(den, *num)
        if g != 1:
            num, den = [n // g for n in num], den // g
        return JordanElement(self.algebra, tuple(num), den)

    def _check(self, other: "JordanElement"):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("elements belong to different Jordan algebras")

    def _combine(self, other: "JordanElement", sign: int) -> "JordanElement":
        """self + sign * other, over the lcm of the two denominators."""
        self._check(other)
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return self._reduced([a * s + b * t for a, b in zip(self.num, other.num)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return JordanElement(self.algebra, tuple([-a for a in self.num]), self.den)

    def __mul__(self, other):
        if isinstance(other, JordanElement):
            self._check(other)
            prod = self.algebra.mul_vec(self.num, other.num)
            return self._reduced(prod, self.den * other.den * self.algebra.plan.den)
        s = Q(other)
        return self._reduced([s.numerator * a for a in self.num], s.denominator * self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, JordanElement)
            and self.algebra is other.algebra
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((id(self.algebra), self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def power(self, k: int) -> "JordanElement":
        """Jordan power; unambiguous by power-associativity."""
        if k == 0:
            return self.algebra.identity
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __repr__(self):
        return f"JordanElement({[fmt(c) for c in self.vec]})"


# ---------------------------------------------------------------------------
# generic minimal polynomial, trace, norm, inverse
# ---------------------------------------------------------------------------


# a dataclass still: perfbench's tests copy one with dataclasses.replace
@dataclass(frozen=True)
class MinPoly:
    """Monic minimal polynomial plus degree-r characteristic coefficients.

    Both polynomials are stored as ascending coefficient tuples (constant
    term first, leading 1 last).  The characteristic polynomial is
    t^r - a_{r-1} t^{r-1} + a_{r-2} t^{r-2} - ... + (-1)^r a_0, whose extreme
    coefficients a_{r-1} and a_0 are the trace and the norm.
    """

    min_coeffs: tuple[Fraction, ...]
    char_coeffs: tuple[Fraction, ...]

    @property
    def trace(self) -> Fraction:
        return -self.char_coeffs[-2]

    @property
    def norm(self) -> Fraction:
        c = self.char_coeffs[0]
        return c if len(self.char_coeffs) % 2 else -c  # (-1)^r c


def _powers(x: JordanElement) -> list[JordanElement]:
    """e, x, ..., x^r, in r - 1 products."""
    out = [x.algebra.identity, x]
    for _ in range(x.algebra.degree - 1):
        out.append(out[-1] * x)
    return out


def _min_coeffs(powers: list[JordanElement]) -> tuple[Fraction, ...]:
    """Ascending monic coefficients of the least m with x^m in the span of
    e, ..., x^{m-1}: the powers, brought to one common denominator, are the
    int columns of one echelon, m is its first free column, and the kernel
    vector v there gives x^m = -sum_{i<m} (v[i] / v[m]) x^i."""
    L = math.lcm(*(p.den for p in powers))
    kernel = linalg.echelon(zip(*[[n * (L // p.den) for n in p.num] for p in powers])).kernel(len(powers))
    if not kernel:
        raise ConstructionError("element satisfies no monic polynomial of degree <= r")
    v, m = kernel[0], max(kernel[0])
    return tuple(Q(v.get(i, 0), v[m]) for i in range(m)) + (Q(1),)


def _char_coeffs(powers: list[JordanElement]) -> tuple[Fraction, ...]:
    """Ascending characteristic coefficients from the powers e, x, ..., x^r
    by Newton's identities: T(x^k) is the k-th power sum of the generic
    roots, and k e_k = sum_{i<=k} (-1)^(i-1) e_{k-i} T(x^i).  With c = d_x
    plan.den d_T, q_k = c^k T(x^k) and E_k = k! c^k e_k are ints, E_k =
    sum_i (-1)^(i-1) (k-1)!/(k-i)! E_{k-i} q_i, and each coefficient is
    divided once."""
    alg = powers[1].algebra
    cov, dt = alg.trace_cov
    c = powers[1].den * alg.plan.den * dt
    q, E = [0], [1]
    for k, p in enumerate(powers[1:], 1):
        q.append(sum(map(mul, cov, p.num)) * (c**k // (dt * p.den)))
        acc, f = 0, 1  # f = (k-1)!/(k-i)!
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * f * E[k - i] * q[i]
            f *= k - i
        E.append(acc)
    r = len(powers) - 1
    return tuple(Q((-1) ** k * E[k], math.factorial(k) * c**k) for k in range(r, 0, -1)) + (Q(1),)


def generic_min_poly(x: JordanElement) -> MinPoly:
    powers = _powers(x)
    return MinPoly(min_coeffs=_min_coeffs(powers), char_coeffs=_char_coeffs(powers))


def jordan_trace(x: JordanElement) -> Fraction:
    cov, d = x.algebra.trace_cov
    return Q(sum(map(mul, cov, x.num)), d * x.den)


def jordan_norm(x: JordanElement) -> Fraction:
    c = _char_coeffs(_powers(x))
    return c[0] if len(c) % 2 else -c[0]


def jordan_inverse(x: JordanElement) -> JordanElement:
    """Inverse inside the (associative) subalgebra generated by x and e."""
    alg = x.algebra
    powers = _powers(x)
    c = _char_coeffs(powers)
    if c[0] == 0:
        raise SingularElement("element has norm 0")
    acc = alg.zero()
    for k in range(1, len(c)):
        if c[k]:
            acc = acc + powers[k - 1] * c[k]
    inv = acc * (-1 / c[0])
    if not (x * inv == alg.identity and powers[2] * inv == x):
        raise ConstructionError("inverse postcondition failed")
    return inv


# ---------------------------------------------------------------------------
# Pierce decomposition
# ---------------------------------------------------------------------------


class PierceDecomposition(NamedTuple):
    """Joint eigenspace decomposition for the frame multiplication operators.

    components maps (i, i) 1-based to the line spanned by the i-th frame
    idempotent and (i, j), i < j, to the off-diagonal space where both
    L_{e_i} and L_{e_j} act by 1/2.
    """

    algebra: JordanAlgebra
    components: dict[tuple[int, int], tuple[JordanElement, ...]]

    @property
    def off_diagonal_dim(self) -> int:
        dims = {
            len(v) for (i, j), v in self.components.items() if i != j
        }
        if len(dims) != 1:
            raise ConstructionError(f"off-diagonal components have unequal dims {dims}")
        return dims.pop()


def pierce(alg: JordanAlgebra) -> PierceDecomposition:
    r, n = alg.degree, alg.dim
    cells, den = alg.scaled.cells, alg.scaled.den

    def shifted(i, two_lam):
        """Int rows of 2 den (L_{e_i} - lam): the frames are the first r basis
        vectors, so den L_{e_i} b_m is the cell cells[i - 1][m]."""
        rows = [[-two_lam * den * (a == m) for m in range(n)] for a in range(n)]
        for m, cell in enumerate(cells[i - 1]):
            for a, c in cell.items():
                rows[a][m] += 2 * c
        return rows

    def component(rows):
        """The kernel of the rows as elements: a primitive int vector v is
        v / v[f] at its free column f = max(v), in lowest terms."""
        vecs = linalg.echelon(rows).kernel(n)
        return tuple(JordanElement(alg, tuple(v.get(k, 0) for k in range(n)), v[max(v)]) for v in vecs)

    comps = {(i, i): component(shifted(i, 2)) for i in range(1, r + 1)}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            comps[(i, j)] = component(shifted(i, 1) + shifted(j, 1))
    if sum(map(len, comps.values())) != n or any(len(comps[(i, i)]) != 1 for i in range(1, r + 1)):
        raise ConstructionError("Pierce components do not add up to the algebra")
    return PierceDecomposition(alg, comps)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def element_to_json(x: JordanElement) -> dict:
    alg, vec = x.algebra, x.vec
    if alg.variant == "hermitian":
        upper = {}
        for (i, j) in alg.pairs:
            entry = alg.upper_entry(vec, i, j)
            if not entry.is_zero():
                upper[f"{i + 1},{j + 1}"] = ca_element_to_json(entry)
        return {
            "diag": [fmt(c) for c in alg.diag_entries(vec)],
            "upper": upper,
        }
    a, b, v = alg.parts(vec)
    return {"a": fmt(a), "b": fmt(b), "v": [fmt(c) for c in v]}


def element_from_json(obj: dict, alg: JordanAlgebra) -> JordanElement:
    """Inverse of :func:`element_to_json`; malformed input raises
    InvalidParameter naming the offending key."""
    if not isinstance(obj, dict):
        raise InvalidParameter(f"element must be an object, got {obj!r}")
    if alg.variant == "hermitian":
        diag = _rational_list(obj, "diag", alg.r)
        upper = obj.get("upper", {})
        if not isinstance(upper, dict):
            raise InvalidParameter(f'"upper" must be an object, got {upper!r}')
        entries = {}
        for key, entry in upper.items():
            m = re.fullmatch(r"([1-9][0-9]*),([1-9][0-9]*)", key)  # one spelling per key
            i, j = (to_int(m[1], key), to_int(m[2], key)) if m else (0, 0)
            if not 1 <= i < j <= alg.r:
                raise InvalidParameter(f'upper key {key!r}: need "i,j" with 1 <= i < j <= {alg.r}')
            try:
                entry = ca_element_from_json(entry, alg.coeff_algebra)
            except InvalidParameter as exc:
                raise InvalidParameter(f"upper entry {key!r}: {exc}") from None
            entries[(i - 1, j - 1)] = entry
        return alg.from_entries(diag, entries)
    for key in ("a", "b"):
        if key not in obj:
            raise InvalidParameter(f'quadratic element is missing "{key}"')
    v = _rational_list(obj, "v", alg.v_dim)
    return alg.from_parts(_parse_at(obj["a"], '"a"'), _parse_at(obj["b"], '"b"'), v)


def _rational_list(obj: dict, key: str, n: int) -> list[Fraction]:
    items = obj.get(key)
    if not (isinstance(items, list) and len(items) == n):
        raise InvalidParameter(f'"{key}" must be a list of {n} rationals, got {items!r}')
    return [_parse_at(c, f'"{key}"[{i}]') for i, c in enumerate(items)]


def _parse_at(value, where: str) -> Fraction:
    """parse(value), with a failure naming the key it was read from."""
    try:
        return parse(value)
    except InvalidParameter as exc:
        raise InvalidParameter(f"{where}: {exc}") from None

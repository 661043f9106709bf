"""Composition algebras over the rationals via Cayley-Dickson doubling.

An algebra of dimension 1, 2, 4 or 8 is built by doubling the base field,
one nonzero parameter gamma per doubling step:

    (a, b) * (c, d) = (a c + gamma * conj(d) b,  d a + b conj(c))
    conj((a, b))    = (conj(a), -b)
    N((a, b))       = N(a) - gamma * N(b)

The unit is basis element 0.  With all gammas equal to 1 each dimension
comes out in its split form (the norm has isotropic vectors).  The doubling
rule above is one of several equivalent sign conventions; the norm
composition law N(uv) = N(u) N(v) is verified on all basis 4-tuples at
construction time, so the convention is load-bearing only through that check.

Algebras can also be assembled from an explicit multiplication table plus a
norm Gram matrix (used when a composition algebra is carved out of a larger
structure); the same build-time checks apply.

The table is stored sparsely: cell mul_table[i][j] is the product of basis
elements i and j as a dict {k: coeff} with zero coefficients absent, the
cell format of every structure table in the package.  The table scaled to
integers is held as ``scaled`` and, listed by output, as ``plan``; both are
derived from mul_table at construction.  ``mul_coeffs`` multiplies through
``linalg.dense_product`` on the plan, scaling each factor once to ints and
dividing each output once.  The norm form N(u) = u^T G u goes through
``linalg.gram_form``; the composition-law check reads one integer Gram of
basis products, formed from ``scaled`` and G over its lcm denominator, on
the tuples with i <= k, the law being symmetric under i <-> k.
``trace``, ``conj`` and ``conj_ints`` read the trace covector 2 G[k][0],
held in ints as ``trace_cov``.  The doubling runs on ints too: the table
and the basis norms are carried over their denominators and read out once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Sequence

from .errors import AlgebraMismatch, InvalidParameter
from .linalg import ProductPlan, ScaledTable, add_combination, dense_product, det, gram_form
from .linalg import op_from_dense, product_plan, scale_dense, scale_table, table_product, table_readout
from .rationals import Q, fmt, parse

Coeffs = tuple[Fraction, ...]


@dataclass(frozen=True)
class CompositionAlgebra:
    """Immutable multiplication-table presentation of a composition algebra."""

    dim: int
    gammas: tuple[Fraction, ...] | None
    basis_labels: tuple[str, ...]
    mul_table: tuple[tuple[dict, ...], ...]  # cell [i][j]: e_i e_j as {k: coeff}
    norm_gram: tuple[Coeffs, ...]
    descriptor: str
    scaled: ScaledTable = field(init=False, compare=False, repr=False)
    plan: ProductPlan = field(init=False, compare=False, repr=False)  # scaled, listed by output
    # (c, d): the trace covector 2 G[k][0] is c[k] / d, in ints
    trace_cov: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        scaled = scale_table(self.mul_table)
        cov, d = scale_dense([row[0] for row in self.norm_gram])  # G_k0 = cov[k] / d
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "plan", product_plan(scaled))
        object.__setattr__(self, "trace_cov", (tuple(2 * c for c in cov), d))

    def __repr__(self):
        return f"CompositionAlgebra({self.descriptor})"

    # -- elements -----------------------------------------------------------

    def element(self, coeffs: Sequence) -> "CAElement":
        c = tuple(Q(x) for x in coeffs)
        if len(c) != self.dim:
            raise InvalidParameter(f"expected {self.dim} coefficients, got {len(c)}")
        return CAElement(self, c)

    def zero(self) -> "CAElement":
        return CAElement(self, (Q(0),) * self.dim)

    def one(self) -> "CAElement":
        return self.basis_element(0)

    def basis_element(self, i: int) -> "CAElement":
        c = [Q(0)] * self.dim
        c[i] = Q(1)
        return CAElement(self, tuple(c))

    def basis(self) -> list["CAElement"]:
        return [self.basis_element(i) for i in range(self.dim)]

    # -- bilinear data ------------------------------------------------------

    def mul_coeffs(self, u: Coeffs, v: Coeffs) -> Coeffs:
        return dense_product(self.plan, u, v)

    def norm_coeffs(self, u: Coeffs) -> Fraction:
        return gram_form(self.norm_gram, enumerate(u), enumerate(u))

    def conj_ints(self, v) -> list:
        """d conj(v) for an int vector v, in ints, with d the denominator of
        trace_cov: so conj(v / t) = conj_ints(v) / (t d)."""
        cov, d = self.trace_cov
        c = [-n * d for n in v]
        c[0] += sum(map(mul, v, cov))
        return c


@dataclass(frozen=True)
class CAElement:
    algebra: CompositionAlgebra
    coeffs: Coeffs

    def __post_init__(self):
        if len(self.coeffs) != self.algebra.dim:
            raise InvalidParameter("coefficient vector length != algebra dimension")

    def _check(self, other: "CAElement"):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("elements belong to different composition algebras")

    def __add__(self, other):
        self._check(other)
        return CAElement(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return CAElement(self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CAElement(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, CAElement):
            self._check(other)
            return CAElement(self.algebra, self.algebra.mul_coeffs(self.coeffs, other.coeffs))
        return CAElement(self.algebra, tuple(Q(other) * a for a in self.coeffs))

    def __rmul__(self, scalar):
        return CAElement(self.algebra, tuple(Q(scalar) * a for a in self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, CAElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.algebra), self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def conj(self) -> "CAElement":
        """trace(u) 1 - u, in ints over du d, each coordinate divided once."""
        us, du = scale_dense(self.coeffs)
        den = du * self.algebra.trace_cov[1]
        return CAElement(self.algebra, tuple([Q(n, den) for n in self.algebra.conj_ints(us)]))

    def trace(self) -> Fraction:
        """Scalar t with u + conj(u) = t * 1: u^T (2 G e_0), read off the int
        covector trace_cov."""
        cov, d = self.algebra.trace_cov
        us, du = scale_dense(self.coeffs)
        return Q(sum(map(mul, us, cov)), du * d)

    def norm(self) -> Fraction:
        return self.algebra.norm_coeffs(self.coeffs)

    def __repr__(self):
        parts = [
            f"{fmt(c)}*{lbl}"
            for c, lbl in zip(self.coeffs, self.algebra.basis_labels)
            if c
        ]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

_DIM_NAMES = {1: "field", 2: "complex", 4: "quaternion", 8: "octonion"}


def _double(table: ScaledTable, norms: tuple[list, int], gamma: Fraction):
    """One Cayley-Dickson step on (sparse mul table, basis norm list), both
    in ints: the table over its den s and the norms over t.  With gamma =
    p / q, the double's table is read over q s and its norms over q t."""
    cells, s = table.cells, table.den
    ns, t = norms
    n = len(ns)
    p, q = gamma.numerator, gamma.denominator

    def mul(acc, u, v, c):
        """acc += c * uv, over s."""
        return table_product(acc, cells, u.items(), [(k, c * x) for k, x in v.items()])

    def conj(v):
        return {k: c if k == 0 else -c for k, c in v.items()}

    def halves(i):
        """Basis element i of the double as its pair (a, b)."""
        unit = {i % n: 1}
        return (unit, {}) if i < n else ({}, unit)

    def cell(i, j):
        (a, b), (c, d) = halves(i), halves(j)
        first = mul(mul({}, a, c, q), conj(d), b, p)
        second = {n + k: x for k, x in mul(mul({}, d, a, q), b, conj(c), q).items()}
        return {k: x for k, x in {**first, **second}.items() if x}

    new_cells = tuple(tuple(cell(i, j) for j in range(2 * n)) for i in range(2 * n))
    return ScaledTable(new_cells, q * s), ([q * x for x in ns] + [-p * x for x in ns], q * t)


def composition_law_failure(alg: CompositionAlgebra) -> tuple[int, int, int, int] | None:
    """The first basis 4-tuple, in lexicographic order, at which the full
    polarization of N(uv) = N(u)N(v) fails, or None; the law holds
    identically iff  B(ei*ej, ek*el) + B(ek*ej, ei*el) = B(ei,ek) B(ej,el)
    on every basis 4-tuple.  With B(u, v) = 2 u^T G v, the products u_ij =
    ei*ej as ints over s (``scaled``) and G as ints g over its lcm d_G, one
    integer Gram of basis products, P[ij][kl] = d_G s^2 u_ij^T G u_kl, is
    formed, and the law is checked as  d_G (P[ij][kl] + P[kj][il]) =
    2 s^2 g_ik g_jl,  for each (i, j, k) on all l at once.  G is symmetric
    (the conjugation check forces it), so the law is symmetric under i <-> k
    and a failure at i > k fails first at (k, j, i, l): only i <= k is read."""
    n = alg.dim
    prod, s = alg.scaled.cells, alg.scaled.den
    gram = scale_table((op_from_dense(alg.norm_gram),))
    g, d = gram.cells[0], gram.den  # g[k][i] = d_G G_ik
    units = [cell for row in prod for cell in row]  # s u_ij at i n + j
    g_units = [{} for _ in range(n)]  # g_units[r][b]: entry r of d_G s G u_b
    for b, u in enumerate(units):
        for r, c in add_combination({}, g, u.items()).items():
            g_units[r][b] = c
    nn = range(n * n)
    p = [list(map(add_combination({}, g_units, u.items()).get, nn, itertools.repeat(0))) for u in units]
    dense_g = [[col.get(l, 0) for l in range(n)] for col in g]  # dense_g[j][l] = d_G G_jl
    for i, j in itertools.product(range(n), repeat=2):
        for k in range(i, n):
            lhs = map(add, p[i * n + j][k * n : k * n + n], p[k * n + j][i * n : i * n + n])
            c = 2 * s * s * g[k].get(i, 0)
            got, want = [d * x for x in lhs], [c * y for y in dense_g[j]]
            if got != want:
                return (i, j, k, next(l for l in range(n) if got[l] != want[l]))
    return None


def _verify_unit_and_conj(alg: CompositionAlgebra):
    """Basis element 0 is a two-sided unit, and u conj(u) = N(u) 1, checked
    through its polarization on basis pairs, in ints.  With the unit laws
    holding, conj(e_j) = 2 G_j0 e_0 - e_j turns the identity into
    2 G_j0 e_i - e_i e_j + 2 G_i0 e_j - e_j e_i = 2 G_ij e_0, which over s
    (``scaled``) and the Gram's lcm d_G reads  2 s g_j0 e_i - d_G s e_i e_j
    + 2 s g_i0 e_j - d_G s e_j e_i = 2 s g_ij e_0  with g = d_G G."""
    n = alg.dim
    prod, s = alg.scaled.cells, alg.scaled.den
    for j in range(n):
        if prod[0][j] != {j: s}:
            raise InvalidParameter(f"basis element 0 is not a left unit at {j}")
        if prod[j][0] != {j: s}:
            raise InvalidParameter(f"basis element 0 is not a right unit at {j}")
    gram = scale_table((op_from_dense(alg.norm_gram),))
    g, d = gram.cells[0], gram.den  # g[j][i] = d_G G_ij
    for i in range(n):
        for j in range(n):
            acc = {0: -2 * s * g[j].get(i, 0)}
            for k, t in ((i, g[0].get(j, 0)), (j, g[0].get(i, 0))):
                acc[k] = acc.get(k, 0) + 2 * s * t
            add_combination(acc, (prod[i][j], prod[j][i]), [(0, -d), (1, -d)])
            if any(acc.values()):
                raise InvalidParameter(f"u*conj(u) != N(u)*1 at basis pair {(i, j)}")


def _checked(alg: CompositionAlgebra) -> CompositionAlgebra:
    """alg, once the unit, conjugation and composition laws hold and the norm
    is nondegenerate."""
    _verify_unit_and_conj(alg)
    bad = composition_law_failure(alg)
    if bad is not None:
        raise InvalidParameter(f"norm is not multiplicative at basis tuple {bad}")
    if det([list(row) for row in alg.norm_gram]) == 0:
        raise InvalidParameter("norm form is degenerate")
    return alg


def build_composition(dim: int, gammas: Sequence) -> CompositionAlgebra:
    """Cayley-Dickson algebra of the given dimension and doubling parameters."""
    if dim not in (1, 2, 4, 8):
        raise InvalidParameter(f"dimension must be 1, 2, 4 or 8, not {dim}")
    gs = tuple(Q(g) for g in gammas)
    need = dim.bit_length() - 1
    if len(gs) != need:
        raise InvalidParameter(f"dimension {dim} needs {need} doubling parameters, got {len(gs)}")
    if any(g == 0 for g in gs):
        raise InvalidParameter("doubling parameters must be nonzero")

    table, norms = ScaledTable((({0: 1},),), 1), ([1], 1)
    for g in gs:
        table, norms = _double(table, norms, g)

    labels = _basis_labels(dim)
    ns, t = norms
    gram = tuple(
        tuple(Q(ns[i], t) if i == j else Q(0) for j in range(dim)) for i in range(dim)
    )
    alg = CompositionAlgebra(
        dim=dim,
        gammas=gs,
        basis_labels=labels,
        mul_table=table_readout(table),
        norm_gram=gram,
        descriptor=_descriptor(dim, gs),
    )
    return _checked(alg)


def algebra_from_table(mul_table, norm_gram, labels=None) -> CompositionAlgebra:
    """Wrap an explicit multiplication table, dense cells of length dim, as a
    composition algebra.

    The unit must sit at basis index 0.  All build-time checks of
    ``build_composition`` are applied; the result has no doubling parameters
    and its descriptor is not part of the serializable grammar.
    """
    dim = len(mul_table)
    if dim not in (1, 2, 4, 8):
        raise InvalidParameter(f"dimension must be 1, 2, 4 or 8, not {dim}")
    table = tuple(
        tuple({k: Q(x) for k, x in enumerate(cell) if x} for cell in row) for row in mul_table
    )
    gram = tuple(tuple(Q(x) for x in row) for row in norm_gram)
    if labels is None:
        labels = tuple(f"b{i}" for i in range(dim))
    alg = CompositionAlgebra(
        dim=dim,
        gammas=None,
        basis_labels=tuple(labels),
        mul_table=table,
        norm_gram=gram,
        descriptor=f"table:{dim}",
    )
    return _checked(alg)


def _basis_labels(dim: int) -> tuple[str, ...]:
    if dim == 1:
        return ("1",)
    if dim == 2:
        return ("1", "i")
    if dim == 4:
        return ("1", "i", "j", "k")
    return ("1",) + tuple(f"e{i}" for i in range(1, 8))


def _descriptor(dim: int, gs: tuple[Fraction, ...]) -> str:
    if dim == 1:
        return "field"
    if dim == 2:
        return "split-complex" if gs == (Q(1),) else f"complex:{fmt(gs[0])}"
    name = _DIM_NAMES[dim]
    if all(g == 1 for g in gs):
        return f"{name}:split"
    return name + ":" + ",".join(fmt(g) for g in gs)


def parse_descriptor(text: str) -> CompositionAlgebra:
    """Build the algebra named by a descriptor string.

    Grammar: "field" | "split-complex" | "complex:g" | "quaternion:g1,g2"
    | "octonion:g1,g2,g3" | "quaternion:split" | "octonion:split".
    """
    t = text.strip()
    if t == "field":
        return build_composition(1, [])
    if t == "split-complex":
        return build_composition(2, [1])
    head, _, rest = t.partition(":")
    dims = {"complex": 2, "quaternion": 4, "octonion": 8}
    if head not in dims:
        raise InvalidParameter(f"unknown composition algebra descriptor {text!r}")
    dim = dims[head]
    need = dim.bit_length() - 1
    if rest == "split":
        return build_composition(dim, [1] * need)
    if not rest:
        raise InvalidParameter(f"descriptor {text!r} is missing doubling parameters")
    gs = [parse(p) for p in rest.split(",")]
    return build_composition(dim, gs)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def element_to_json(u: CAElement) -> dict:
    return {
        "algebra": u.algebra.descriptor,
        "coeffs": [fmt(c) for c in u.coeffs],
    }


def element_from_json(obj: dict, algebra: CompositionAlgebra | None = None) -> CAElement:
    if not (isinstance(obj, dict) and isinstance(obj.get("coeffs"), list)):
        raise InvalidParameter(f'element must be an object with a "coeffs" list, got {obj!r}')
    if algebra is None:
        algebra = parse_descriptor(obj["algebra"])
    return algebra.element([parse(c) for c in obj["coeffs"]])

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
cell format of every structure table in the package.  Products go through
``linalg.table_product``: ``mul_coeffs`` on the table scaled to integers,
held as ``scaled`` and derived from mul_table at construction.  The norm
form N(u) = u^T G u goes through ``linalg.gram_form``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import AlgebraMismatch, InvalidParameter
from .linalg import ScaledTable, dense_product, det, gram_form, scale_table, table_product, vec_add
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

    def __post_init__(self):
        object.__setattr__(self, "scaled", scale_table(self.mul_table))

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
        return dense_product(self.scaled, u, v)

    def norm_coeffs(self, u: Coeffs) -> Fraction:
        return gram_form(self.norm_gram, enumerate(u), enumerate(u))

    def norm_bilinear(self, u: Coeffs, v: Coeffs) -> Fraction:
        """Polarization B(u, v) = N(u+v) - N(u) - N(v) = 2 u^T G v."""
        return 2 * gram_form(self.norm_gram, enumerate(u), enumerate(v))


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
        t = self.trace()
        c = list(-a for a in self.coeffs)
        c[0] += t
        return CAElement(self.algebra, tuple(c))

    def trace(self) -> Fraction:
        """Scalar t with u + conj(u) = t * 1."""
        one = (Q(1),) + (Q(0),) * (self.algebra.dim - 1)
        return self.algebra.norm_bilinear(self.coeffs, one)

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


def _double(table, norms, gamma: Fraction):
    """One Cayley-Dickson step on (sparse mul table, basis norm list)."""
    n = len(norms)

    def mul(u, v):
        return table_product({}, table, u.items(), v.items())

    def conj(v):
        return {k: c if k == 0 else -c for k, c in v.items()}

    def halves(i):
        """Basis element i of the double as its pair (a, b)."""
        unit = {i % n: Q(1)}
        return (unit, {}) if i < n else ({}, unit)

    def cell(i, j):
        (a, b), (c, d) = halves(i), halves(j)
        first = vec_add(mul(a, c), mul(conj(d), b), gamma)
        second = vec_add(mul(d, a), mul(b, conj(c)))
        return {**first, **{n + k: x for k, x in second.items()}}

    new_table = tuple(tuple(cell(i, j) for j in range(2 * n)) for i in range(2 * n))
    new_norms = list(norms) + [-gamma * x for x in norms]
    return new_table, new_norms


def _verify_composition_law(alg: CompositionAlgebra):
    """N(uv) = N(u)N(v) holds identically iff its full polarization holds on
    basis 4-tuples:  B(ei*ej, ek*el) + B(ek*ej, ei*el) = B(ei,ek) B(ej,el)."""
    n = alg.dim
    basis = [tuple(Q(1) if k == i else Q(0) for k in range(n)) for i in range(n)]
    prod = [[alg.mul_coeffs(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    B = alg.norm_bilinear
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = B(prod[i][j], prod[k][l]) + B(prod[k][j], prod[i][l])
                    rhs = B(basis[i], basis[k]) * B(basis[j], basis[l])
                    if lhs != rhs:
                        raise InvalidParameter(
                            f"norm is not multiplicative at basis tuple {(i, j, k, l)}"
                        )


def _verify_unit_and_conj(alg: CompositionAlgebra):
    n = alg.dim
    basis = [tuple(Q(1) if k == i else Q(0) for k in range(n)) for i in range(n)]
    for j in range(n):
        if alg.mul_coeffs(basis[0], basis[j]) != basis[j]:
            raise InvalidParameter(f"basis element 0 is not a left unit at {j}")
        if alg.mul_coeffs(basis[j], basis[0]) != basis[j]:
            raise InvalidParameter(f"basis element 0 is not a right unit at {j}")
    # u * conj(u) = N(u) * 1, checked via its polarization on basis pairs
    for i in range(n):
        for j in range(n):
            ei, ej = alg.element(basis[i]), alg.element(basis[j])
            lhs = ei * ej.conj() + ej * ei.conj()
            want = [Q(0)] * n
            want[0] = alg.norm_bilinear(basis[i], basis[j])
            if list(lhs.coeffs) != want:
                raise InvalidParameter(f"u*conj(u) != N(u)*1 at basis pair {(i, j)}")


def _checked(alg: CompositionAlgebra) -> CompositionAlgebra:
    """alg, once the unit, conjugation and composition laws hold and the norm
    is nondegenerate."""
    _verify_unit_and_conj(alg)
    _verify_composition_law(alg)
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

    table = (({0: Q(1)},),)
    norms = [Q(1)]
    for g in gs:
        table, norms = _double(table, norms, g)

    labels = _basis_labels(dim)
    gram = tuple(
        tuple(norms[i] if i == j else Q(0) for j in range(dim)) for i in range(dim)
    )
    alg = CompositionAlgebra(
        dim=dim,
        gammas=gs,
        basis_labels=labels,
        mul_table=table,
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

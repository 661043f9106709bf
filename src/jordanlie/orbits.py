"""Rank and orbit machinery for the Jordan families.

Any element is moved to diagonal frame form a_1 e_1 + ... + a_r e_r by a
logged sequence of elementary norm-preserving transvections and frame
permutations:

* hermitian families: x |-> u_ij(u) x u_ji(conj u) with u_ij(u) the matrix
  unit perturbation I + u E_ij, evaluated left factor first (for the
  8-dimensional coefficient algebra the two parenthesizations agree and
  are tested, not assumed).  A step runs on the element's ints and forms
  only what changes: row i of the left product, L_ik = x_ik + u x_jk, then
  the (i, i) entry L_ii + L_ij conj(u) and the rest of column i,
  x_ki + x_kj conj(u).  It checks that the result is hermitian with a
  scalar diagonal: the new diagonal entry is scalar, and each
  x_ki + x_kj conj(u) is conj(L_ik);
* quadratic family: the affine maps
  t_12(u)(a, b, v) = (a, b + a Q(u) + B(u, v), v + a u) and symmetrically
  t_21(u).

The pivot policy is total over split coefficient algebras, where naive
elimination stalls on isotropic diagonals: a vanishing diagonal is
repaired through a trace-dual parameter, which exists because the trace
form of a composition algebra is nondegenerate.  The pivot and zero
tests read the element's ints, and an elimination parameter
-conj(w)/a is formed from them with one division per coordinate.

The rank of an element is the number of nonzero diagonal entries of its
diagonal form; rank-r elements additionally carry the square-class data of
the product of the diagonal entries, reported place by place (sign at the
real place, valuation parity and unit residue at finite primes, mod-8
residue at 2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .composition import CAElement
from .errors import AlgebraMismatch, ConstructionError, InvalidParameter
from .jordan import HermitianJordan, JordanAlgebra, JordanElement, QuadraticJordan, element_to_json
from .linalg import int_product, scale_dense
from .rationals import Q, fmt

Param = Union[CAElement, tuple]


class Transvection:
    """Elementary norm-preserving map indexed by a frame pair (1-based)."""

    __slots__ = ("i", "j", "param")

    def __init__(self, i: int, j: int, param: Param):
        if i == j:
            raise InvalidParameter("transvection needs distinct frame indices")
        self.i, self.j, self.param = i, j, param

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.i, self.j, self.param) == (other.i, other.j, other.param)

    def __hash__(self):
        return hash((self.i, self.j, self.param))


class FramePermutation(NamedTuple):
    """Relabeling of the frame slots; perm[k] is the image of slot k (0-based)."""

    perm: tuple[int, ...]


LogStep = Union[Transvection, FramePermutation]


def apply_transvection(t: Transvection, x: JordanElement) -> JordanElement:
    alg = x.algebra
    if isinstance(alg, HermitianJordan):
        r = alg.r
        if not (1 <= t.i <= r and 1 <= t.j <= r):
            raise InvalidParameter("frame index out of range")
        u = t.param
        if not isinstance(u, CAElement) or u.algebra is not alg.coeff_algebra:
            raise AlgebraMismatch("parameter must live in the coefficient algebra")
        return _hermitian_transvection(alg, x, t.i - 1, t.j - 1, u)
    if isinstance(alg, QuadraticJordan):
        if (t.i, t.j) not in ((1, 2), (2, 1)):
            raise InvalidParameter("quadratic family has frame indices 1 and 2")
        u = tuple(Q(c) for c in t.param)
        if len(u) != alg.v_dim:
            raise InvalidParameter("parameter has wrong length")
        a, b, v = alg.parts(x.vec)
        qu = alg.qform(u)
        buv = alg.bform(u, v)
        if (t.i, t.j) == (1, 2):
            return alg.from_parts(a, b + a * qu + buv, [c + a * d for c, d in zip(v, u)])
        return alg.from_parts(a + b * qu + buv, b, [c + b * d for c, d in zip(v, u)])
    raise InvalidParameter("unsupported algebra")


def _hermitian_transvection(alg, x, i, j, u) -> JordanElement:
    """(I + u E_ij) x (I + conj(u) E_ji) on x's ints, as the module
    docstring sets out: row i, column i and the (i, i) entry change."""
    D = alg.coeff_algebra
    dim, plan, P, d = D.dim, D.plan, D.plan.den, D.trace_cov[1]
    r, num, offset = alg.r, x.num, alg._pair_offset
    us, du = scale_dense(u.coeffs)
    ubar = D.conj_ints(us)  # conj(u) = ubar / (du d)

    def entry(a, b):
        """x_ab times x.den d, in ints."""
        if a == b:
            return [d * num[a]] + [0] * (dim - 1)
        off = offset[(min(a, b), max(a, b))]
        v = num[off : off + dim]
        return D.conj_ints(v) if a > b else [d * n for n in v]

    def plus(v, scale, w):
        return [a * scale + b for a, b in zip(v, w)]

    # with E = x.den d du P: row i of L over E, then the (i, i) entry over
    # E d du P and the rest of column i over E d
    s = du * P
    row = [plus(entry(i, k), s, int_product(plan, us, entry(j, k))) for k in range(r)]
    s *= d
    diag = plus(row[i], s, int_product(plan, row[j], ubar))
    if any(diag[1:]):
        raise ConstructionError("diagonal entry is not scalar")
    col = {}
    for k in range(r):
        if k != i:
            col[k] = plus(entry(k, i), s, int_product(plan, entry(k, j), ubar))
            if col[k] != D.conj_ints(row[k]):
                raise ConstructionError("matrix is not hermitian")
    # everything over x.den (d du P)^2 = E d du P
    out = [n * s * s for n in num]
    out[i] = diag[0]
    for (a, b), off in offset.items():
        if a == i:
            out[off : off + dim] = [n * s for n in row[b]]
        elif b == i:
            out[off : off + dim] = [n * du * P for n in col[a]]
    return x._reduced(out, x.den * s * s)


def apply_permutation(p: FramePermutation, x: JordanElement) -> JordanElement:
    alg = x.algebra
    perm = p.perm
    if sorted(perm) != list(range(alg.degree)):
        raise InvalidParameter("not a permutation of the frame slots")
    if isinstance(alg, QuadraticJordan):
        if perm == (0, 1):
            return x
        a, b, v = alg.parts(x.vec)
        return alg.from_parts(b, a, list(v))
    vec = x.vec
    diag = alg.diag_entries(vec)
    new_diag = [Q(0)] * alg.r
    upper = {}
    for i in range(alg.r):
        new_diag[perm[i]] = diag[i]
    for (i, j) in alg.pairs:
        e = alg.upper_entry(vec, i, j)
        if e.is_zero():
            continue
        a, b = perm[i], perm[j]
        if a < b:
            upper[(a, b)] = e
        else:
            upper[(b, a)] = e.conj()
    return alg.from_entries(new_diag, upper)


def apply_step(step: LogStep, x: JordanElement) -> JordanElement:
    if isinstance(step, Transvection):
        return apply_transvection(step, x)
    return apply_permutation(step, x)


def replay(log: Sequence[LogStep], x: JordanElement) -> JordanElement:
    for step in log:
        x = apply_step(step, x)
    return x


# ---------------------------------------------------------------------------
# diagonalization and rank
# ---------------------------------------------------------------------------


class RankResult(NamedTuple):
    algebra: JordanAlgebra
    rank: int
    diagonal: tuple[Fraction, ...]
    log: tuple[LogStep, ...]


def diagonalize(x: JordanElement) -> RankResult:
    alg = x.algebra
    if isinstance(alg, QuadraticJordan):
        return _diagonalize_quadratic(x)
    return _diagonalize_hermitian(x)


def _diagonalize_quadratic(x: JordanElement) -> RankResult:
    alg: QuadraticJordan = x.algebra
    log: list[LogStep] = []
    cur = x

    def parts():
        return alg.parts(cur.vec)

    a, b, v = parts()
    if a == 0 and b == 0 and any(v):
        # create a pivot through a trace-dual direction
        k = next(
            i for i in range(alg.v_dim)
            if alg.bform(_unit(alg.v_dim, i), v) != 0
        )
        step = Transvection(1, 2, _unit(alg.v_dim, k))
        cur = apply_transvection(step, cur)
        log.append(step)
        a, b, v = parts()
    if a != 0:
        if any(v):
            step = Transvection(1, 2, tuple(-c / a for c in v))
            cur = apply_transvection(step, cur)
            log.append(step)
    elif b != 0 and any(v):
        step = Transvection(2, 1, tuple(-c / b for c in v))
        cur = apply_transvection(step, cur)
        log.append(step)
    a, b, v = parts()
    if any(v):
        raise InvalidParameter("internal error: vector part survived the pivot policy")
    if a == 0 and b != 0:
        step = FramePermutation((1, 0))
        cur = apply_permutation(step, cur)
        log.append(step)
        a, b = b, a
    diag = (a, b)
    return RankResult(
        algebra=alg,
        rank=sum(1 for c in diag if c),
        diagonal=diag,
        log=tuple(log),
    )


def _unit(n: int, k: int) -> tuple:
    return tuple(Q(1) if i == k else Q(0) for i in range(n))


def _diagonalize_hermitian(x: JordanElement) -> RankResult:
    alg: HermitianJordan = x.algebra
    D = alg.coeff_algebra
    r, dim = alg.r, D.dim
    log: list[LogStep] = []
    cur = x

    def advance(step):
        nonlocal cur
        cur = apply_step(step, cur)
        log.append(step)

    def entry(i, j):
        """cur's (i, j) entry, i < j, as ints over cur.den."""
        off = alg._pair_offset[(i, j)]
        return cur.num[off : off + dim]

    for s in range(r):
        if cur.num[s] == 0:
            pivot = next((t for t in range(s + 1, r) if cur.num[t]), None)
            if pivot is None:
                # manufacture a diagonal entry from the first nonzero
                # off-diagonal in reading order (trace-dual parameter)
                spot = next(
                    ((t, u) for t in range(s, r) for u in range(t + 1, r) if any(entry(t, u))),
                    None,
                )
                if spot is None:
                    break  # active block is zero; done
                t, u_pos = spot
                wbar = D.element(D.conj_ints(entry(t, u_pos)))  # a positive multiple of conj(w)
                v = next(
                    (bv for bv in D.basis() if (bv * wbar).trace() != 0),
                    None,
                )
                if v is None:
                    raise InvalidParameter(
                        "internal error: trace form failed to provide a dual vector"
                    )
                advance(Transvection(t + 1, u_pos + 1, v))
                pivot = t
            if pivot != s:
                perm = list(range(r))
                perm[s], perm[pivot] = perm[pivot], perm[s]
                advance(FramePermutation(tuple(perm)))
        if cur.num[s] == 0:
            continue
        for t in range(s + 1, r):
            w = entry(s, t)
            if any(w):
                # (-1/a) conj(w), with a and w over cur.den: -conj_ints(w) / (a d)
                ad = cur.num[s] * D.trace_cov[1]
                advance(Transvection(t + 1, s + 1, D.element([Q(-c, ad) for c in D.conj_ints(w)])))
    if any(cur.num[r:]):
        raise InvalidParameter("internal error: off-diagonal residue after pivoting")
    diag_final = tuple([Q(n, cur.den) for n in cur.num[:r]])
    return RankResult(
        algebra=alg,
        rank=sum(1 for c in diag_final if c),
        diagonal=diag_final,
        log=tuple(log),
    )


def orbit_representative(res: RankResult) -> JordanElement:
    """e_1 + ... + e_j for rank j < r; for full rank the last slot carries
    the product of the diagonal entries (the norm of the diagonal form)."""
    alg = res.algebra
    r = alg.degree
    out = alg.zero()
    if res.rank < r:
        for i in range(1, res.rank + 1):
            out = out + alg.frame(i)
        return out
    for i in range(1, r):
        out = out + alg.frame(i)
    prod = Q(1)
    for c in res.diagonal:
        prod *= c
    return out + prod * alg.frame(r)


# ---------------------------------------------------------------------------
# local square-class invariants (coefficient field case)
# ---------------------------------------------------------------------------


class LocalInvariant(NamedTuple):
    """Complete invariant of a nonzero rational in Q_p* / (Q_p*)^2.

    place "inf": class_data = (sign,).  Odd prime p: (valuation mod 2,
    Legendre symbol of the unit part).  p = 2: (valuation mod 2, unit part
    mod 8).
    """

    place: str
    class_data: tuple

    def __str__(self):
        if self.place == "inf":
            return "+" if self.class_data[0] > 0 else "-"
        return f"v{self.class_data[0]},u{self.class_data[1]}"


def _padic_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# Miller-Rabin on the primes up to 37 as bases decides primality exactly
# below PRIME_BOUND (Sorenson and Webster, 2015)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 318665857834031151167461


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p < PRIME_BOUND, in time polynomial
    in p's digits: with p - 1 = 2^s d, d odd, each base a must give a^d = 1
    or a^(2^t d) = -1 mod p for some t < s."""
    if p < 2 or any(p % q == 0 for q in PRIME_BASES):
        return p in PRIME_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_place(p: int) -> int:
    """p, if it is a prime below PRIME_BOUND; otherwise InvalidParameter."""
    if p >= PRIME_BOUND:
        raise InvalidParameter(f"place {p} is too large (primality is decided below {PRIME_BOUND})")
    if not _is_prime(p):
        raise InvalidParameter(f"{p} is not a prime")
    return p


def local_class(a: Fraction, place) -> LocalInvariant:
    a = Q(a)
    if a == 0:
        raise InvalidParameter("local class of zero is undefined")
    if place in ("inf", "oo", None):
        return LocalInvariant(place="inf", class_data=(1 if a > 0 else -1,))
    p = check_place(int(place))
    num, den = a.numerator, a.denominator
    v = _padic_valuation(num, p) - _padic_valuation(den, p)
    unit_num = num // p ** max(_padic_valuation(num, p), 0)
    unit_den = den // p ** max(_padic_valuation(den, p), 0)
    if p == 2:
        residue = (unit_num * pow(unit_den, -1, 8)) % 8
        return LocalInvariant(place="2", class_data=(v % 2, residue))
    unit = (unit_num * pow(unit_den, -1, p)) % p
    legendre = pow(unit, (p - 1) // 2, p)
    legendre = 1 if legendre == 1 else -1
    return LocalInvariant(place=str(p), class_data=(v % 2, legendre))


def is_rational_square(a: Fraction) -> bool:
    a = Q(a)
    if a < 0:
        return False
    if a == 0:
        return True
    rn, rd = math.isqrt(a.numerator), math.isqrt(a.denominator)
    return rn * rn == a.numerator and rd * rd == a.denominator


# ---------------------------------------------------------------------------
# classification report (CLI-facing)
# ---------------------------------------------------------------------------


def _param_to_json(p: Param):
    if isinstance(p, CAElement):
        return [fmt(c) for c in p.coeffs]
    return [fmt(c) for c in p]


def classify(x: JordanElement, places: Sequence = ()) -> dict:
    """Rank, diagonal, canonical representative and local class data."""
    res = diagonalize(x)
    rep = orbit_representative(res)
    alg = x.algebra
    out = {
        "rank": res.rank,
        "diagonal": [fmt(c) for c in res.diagonal],
        "representative": element_to_json(rep),
        "log": [
            (
                {"kind": "transvection", "i": s.i, "j": s.j, "u": _param_to_json(s.param)}
                if isinstance(s, Transvection)
                else {"kind": "permutation", "perm": list(s.perm)}
            )
            for s in res.log
        ],
    }
    if res.rank == alg.degree:
        prod = Q(1)
        for c in res.diagonal:
            prod *= c
        out["norm_value"] = fmt(prod)
        full_classes = (
            isinstance(alg, HermitianJordan) and alg.coeff_algebra.dim == 1
        )
        classes = {}
        for pl in places:
            if pl in ("inf", "oo"):
                classes["inf"] = str(local_class(prod, "inf"))
            elif full_classes:
                classes[str(pl)] = str(local_class(prod, pl))
        out["local_classes"] = classes
    return out

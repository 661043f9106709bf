"""Split Lie algebras from root data, and the road back to matrix models.

This module is the independent counterpart of :mod:`jordanlie.kkt`: it
builds the split Lie algebras of types A, B, C, D and E7 from their root
systems alone (Chevalley basis, integer structure constants, signs fixed by
the extraspecial-pair method under a height-then-lexicographic order), cuts
out a maximal parabolic with abelian nilradical, equips the nilradical with
the Jordan product x o y = [x, [f, y]]/2, extracts the Pierce quadratic
forms, and coordinatizes the result back onto a matrix model.  Agreement of
the two roads, structure constant by structure constant, is the
cross-validation entry point.

Nothing is cached at module level: each :func:`build_split_lie` call returns
a fresh algebra, and the entry points past it take the
:class:`ParabolicDecomposition`, so a caller builds once and passes it on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from . import jordan as jordan_mod
from . import kkt as kkt_mod
from . import linalg
from .composition import algebra_from_table
from .errors import ConstructionError, InvalidParameter
from .kkt import LieAlgebra
from .linalg import EchelonBasis, vec_add
from .rationals import HALF, Q

Root = tuple[int, ...]

SUPPORTED_TYPES = ("A", "B", "C", "D", "E7")


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------


def _simple_root_gram(type_label: str, rank: int) -> list[list[Fraction]]:
    """Inner products (alpha_i, alpha_j) of the simple roots."""
    g = [[Q(0)] * rank for _ in range(rank)]

    def chain(i, j, val=Q(-1)):
        g[i][j] = g[j][i] = val

    if type_label == "A":
        if rank < 1:
            raise InvalidParameter("type A needs rank >= 1")
        for i in range(rank):
            g[i][i] = Q(2)
        for i in range(rank - 1):
            chain(i, i + 1)
    elif type_label == "B":
        if rank < 2:
            raise InvalidParameter("type B needs rank >= 2")
        for i in range(rank - 1):
            g[i][i] = Q(2)
        g[rank - 1][rank - 1] = Q(1)
        for i in range(rank - 1):
            chain(i, i + 1)
    elif type_label == "C":
        if rank < 2:
            raise InvalidParameter("type C needs rank >= 2")
        for i in range(rank - 1):
            g[i][i] = Q(2)
        g[rank - 1][rank - 1] = Q(4)
        for i in range(rank - 2):
            chain(i, i + 1)
        chain(rank - 2, rank - 1, Q(-2))
    elif type_label == "D":
        if rank < 3:
            raise InvalidParameter("type D needs rank >= 3")
        for i in range(rank):
            g[i][i] = Q(2)
        for i in range(rank - 2):
            chain(i, i + 1)
        chain(rank - 3, rank - 1)
    elif type_label == "E7":
        if rank != 7:
            raise InvalidParameter("type E7 has rank 7")
        for i in range(7):
            g[i][i] = Q(2)
        # Bourbaki numbering: chain 1-3-4-5-6-7 with 2 attached to 4
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)):
            chain(i, j)
    else:
        raise InvalidParameter(f"unsupported type {type_label!r}")
    return g


_EXPECTED_POSITIVE = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E7": lambda n: 63,
}


@dataclass
class RootSystem:
    """Positive roots with their Chevalley basis index: the basis runs
    f-block (one f_a per positive root, in order), Cartan, e-block."""

    type_label: str
    rank: int
    gram: tuple[tuple[Fraction, ...], ...]
    positive_roots: tuple[Root, ...]  # sorted by (height, coordinates)
    f_idx: dict[Root, int] = field(init=False, repr=False)  # positive root -> f_a
    e_idx: dict[Root, int] = field(init=False, repr=False)  # positive root -> e_a

    def __post_init__(self):
        npos = len(self.positive_roots)
        self.f_idx = {a: i for i, a in enumerate(self.positive_roots)}
        self.e_idx = {a: npos + self.rank + i for i, a in enumerate(self.positive_roots)}

    def h_idx(self, i: int) -> int:
        """Basis index of the i-th (0-based) simple coroot."""
        return len(self.positive_roots) + i

    def inner(self, a: Root, b: Root) -> Fraction:
        return linalg.gram_form(self.gram, enumerate(a), enumerate(b))

    def pairing(self, a: Root, b: Root) -> Fraction:
        """<a, b-dual> = 2 (a, b) / (b, b)."""
        return 2 * self.inner(a, b) / self.inner(b, b)

    def is_root(self, a: Root) -> bool:
        if all(c >= 0 for c in a):
            return a in self.f_idx
        if all(c <= 0 for c in a):
            return tuple(-c for c in a) in self.f_idx
        return False

    def is_positive(self, a: Root) -> bool:
        return a in self.f_idx

    def string_down(self, a: Root, b: Root) -> int:
        """Largest p >= 0 with b - p*a a root."""
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while any(cur) and self.is_root(cur):
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    @property
    def simple_roots(self) -> tuple[Root, ...]:
        return tuple(
            tuple(1 if j == i else 0 for j in range(self.rank))
            for i in range(self.rank)
        )

    @property
    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """A[i][j] = <alpha_j, alpha_i-dual>."""
        simple = self.simple_roots
        out = []
        for i in range(self.rank):
            row = []
            for j in range(self.rank):
                v = self.pairing(simple[j], simple[i])
                if v.denominator != 1:
                    raise ConstructionError("non-integral Cartan entry")
                row.append(int(v))
            out.append(tuple(row))
        return tuple(out)

    def coroot_coeffs(self, a: Root) -> tuple[int, ...]:
        """a-dual as an integer combination of the simple coroots."""
        aa = self.inner(a, a)
        out = []
        for i, m in enumerate(a):
            c = m * self.gram[i][i] / aa
            if c.denominator != 1:
                raise ConstructionError(f"non-integral coroot coefficient for {a}")
            out.append(int(c))
        return tuple(out)

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    @property
    def weights(self) -> list[Root]:
        """Weight of every Chevalley basis vector: -a for f_a, 0 for h_i,
        a for e_a."""
        pos = self.positive_roots
        return [_neg(a) for a in pos] + [(0,) * self.rank] * self.rank + list(pos)


def _order_key(root: Root) -> tuple:
    return (sum(root), root)


def build_root_system(type_label: str, rank: int) -> RootSystem:
    gram = _simple_root_gram(type_label, rank)
    simple = [
        tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
    ]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for alpha in frontier:
            for i, s in enumerate(simple):
                p = 0
                cur = tuple(x - y for x, y in zip(alpha, s))
                while any(cur) and (cur in roots or tuple(-c for c in cur) in roots):
                    p += 1
                    cur = tuple(x - y for x, y in zip(cur, s))
                pairing = 2 * linalg.gram_form(gram, enumerate(alpha), enumerate(s)) / gram[i][i]
                if p - pairing >= 1:
                    new = tuple(x + y for x, y in zip(alpha, s))
                    if new not in roots:
                        roots.add(new)
                        nxt.append(new)
        frontier = nxt

    ordered = tuple(sorted(roots, key=_order_key))
    expected = _EXPECTED_POSITIVE[type_label](rank)
    if len(ordered) != expected:
        raise ConstructionError(
            f"{type_label}{rank}: enumerated {len(ordered)} positive roots, expected {expected}"
        )
    return RootSystem(
        type_label=type_label,
        rank=rank,
        gram=tuple(tuple(row) for row in gram),
        positive_roots=ordered,
    )


# ---------------------------------------------------------------------------
# Chevalley structure constants (extraspecial-pair signs)
# ---------------------------------------------------------------------------


class ChevalleyConstants:
    """N_{a,b} for all root pairs, derived from the extraspecial base signs."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._pos: dict[tuple[Root, Root], Fraction] = {}
        self._build_positive_table()

    def _build_positive_table(self):
        rs = self.rs
        for gamma in rs.positive_roots:
            if sum(gamma) < 2:
                continue
            pairs = []
            for alpha in rs.positive_roots:
                if _order_key(alpha) >= _order_key(gamma):
                    break
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                if rs.is_positive(beta) and _order_key(alpha) < _order_key(beta):
                    pairs.append((alpha, beta))
            if not pairs:
                raise ConstructionError(f"no special pair sums to {gamma}")
            pairs.sort(key=lambda p: _order_key(p[0]))
            a1, b1 = pairs[0]
            n_extra = Q(rs.string_down(a1, b1) + 1)
            self._store(a1, b1, n_extra)
            gg = rs.inner(gamma, gamma)
            for alpha, beta in pairs[1:]:
                term1 = term2 = Q(0)
                diff1 = tuple(x - y for x, y in zip(a1, alpha))
                if rs.is_root(diff1):
                    term1 = (
                        self.value(a1, _neg(alpha))
                        * self.value(_neg(beta), b1)
                        / rs.inner(diff1, diff1)
                    )
                diff2 = tuple(x - y for x, y in zip(a1, beta))
                if rs.is_root(diff2):
                    term2 = (
                        self.value(_neg(beta), a1)
                        * self.value(_neg(alpha), b1)
                        / rs.inner(diff2, diff2)
                    )
                val = gg * (term1 + term2) / n_extra
                expected = rs.string_down(alpha, beta) + 1
                if val not in (Q(expected), Q(-expected)):
                    raise ConstructionError(
                        f"structure constant {val} for {alpha}+{beta} violates |N| = p+1"
                    )
                self._store(alpha, beta, val)

    def _store(self, alpha: Root, beta: Root, val: Fraction):
        self._pos[(alpha, beta)] = val
        self._pos[(beta, alpha)] = -val

    def value(self, a: Root, b: Root) -> Fraction:
        """N_{a,b}; zero unless a + b is a root."""
        rs = self.rs
        s = tuple(x + y for x, y in zip(a, b))
        if not any(s) or not rs.is_root(s):
            return Q(0)
        if rs.is_positive(a) and rs.is_positive(b):
            return self._pos[(a, b)]
        if not rs.is_positive(a) and not rs.is_positive(b):
            return -self._pos[(_neg(a), _neg(b))]
        if rs.is_positive(a):
            nu = _neg(b)
            if rs.is_positive(s):
                # a = s + nu, all positive: reduce through the zero-sum triple
                return rs.inner(s, s) * self._pos[(s, nu)] / rs.inner(a, a)
            w = _neg(s)
            # nu = a + w, all positive
            return -rs.inner(w, w) * self._pos[(a, w)] / rs.inner(nu, nu)
        return -self.value(b, a)


def _neg(a: Root) -> Root:
    return tuple(-c for c in a)


def _root_label(a: Root) -> str:
    return ",".join(str(c) for c in a)


# ---------------------------------------------------------------------------
# split Lie algebra assembly
# ---------------------------------------------------------------------------


def build_split_lie(type_label: str, rank: int) -> LieAlgebra:
    """Chevalley-basis Lie algebra; basis order f-block, Cartan, e-block.
    Every call returns a fresh algebra."""
    rs = build_root_system(type_label, rank)
    nc = ChevalleyConstants(rs)
    pos = rs.positive_roots
    f_idx, h_idx, e_idx = rs.f_idx, rs.h_idx, rs.e_idx

    def vec_of(root: Root, coeff: Fraction) -> dict:
        if rs.is_positive(root):
            return {e_idx[root]: coeff}
        return {f_idx[_neg(root)]: coeff}

    labels = (
        tuple(f"f:{_root_label(a)}" for a in pos)
        + tuple(f"h:{i + 1}" for i in range(rank))
        + tuple(f"e:{_root_label(a)}" for a in pos)
    )
    brackets: dict = {}

    def put(i, j, vec):
        if not vec:
            return
        if i > j:
            i, j = j, i
            vec = {k: -c for k, c in vec.items()}
        if (i, j) in brackets:
            brackets[(i, j)] = vec_add(brackets[(i, j)], vec)
            if not brackets[(i, j)]:
                del brackets[(i, j)]
        else:
            brackets[(i, j)] = vec

    # Cartan action
    for a in pos:
        for i in range(rank):
            simple = tuple(1 if j == i else 0 for j in range(rank))
            pairing = rs.pairing(a, simple)
            if pairing.denominator != 1:
                raise ConstructionError("non-integral Cartan eigenvalue")
            if pairing:
                put(h_idx(i), e_idx[a], {e_idx[a]: pairing})
                put(h_idx(i), f_idx[a], {f_idx[a]: -pairing})

    # [e_a, f_a] = coroot in the Cartan
    for a in pos:
        co = rs.coroot_coeffs(a)
        put(e_idx[a], f_idx[a], {h_idx(i): Q(c) for i, c in enumerate(co) if c})

    # root-root brackets
    signed = [(a, 1) for a in pos] + [(a, -1) for a in pos]
    for (a, sa), (b, sb) in itertools.combinations(signed, 2):
        ra = a if sa > 0 else _neg(a)
        rb = b if sb > 0 else _neg(b)
        if ra == _neg(rb):
            continue  # handled above
        s = tuple(x + y for x, y in zip(ra, rb))
        if not rs.is_root(s):
            continue
        n = nc.value(ra, rb)
        if n == 0:
            raise ConstructionError("vanishing constant on a root sum")
        ia = e_idx[a] if sa > 0 else f_idx[a]
        ib = e_idx[b] if sb > 0 else f_idx[b]
        put(ia, ib, vec_of(s, n))

    hi = rs.highest_root
    norm_pair = ({f_idx[hi]: Q(1)}, {e_idx[hi]: Q(1)})
    return LieAlgebra(labels=labels, brackets=brackets, norm_pair=norm_pair, root_system=rs)


def canonical_node(type_label: str, rank: int) -> int:
    """Simple-root index (1-based) of the table's standard parabolic."""
    if type_label == "C":
        return rank
    if type_label == "A":
        if rank % 2 == 0:
            raise InvalidParameter("type A needs odd rank for the middle node")
        return (rank + 1) // 2
    if type_label in ("B", "D"):
        return 1
    if type_label == "E7":
        return 7
    raise InvalidParameter(f"unsupported type {type_label!r}")


# ---------------------------------------------------------------------------
# parabolic with abelian radical
# ---------------------------------------------------------------------------


@dataclass
class Sl2Triple:
    root: Root
    f: dict
    h: dict
    e: dict


@dataclass
class ParabolicDecomposition:
    algebra: LieAlgebra
    node: int  # 1-based simple root index
    n_roots: tuple[Root, ...]
    m_roots: tuple[Root, ...]
    strongly_orthogonal: tuple[Root, ...]
    triples: tuple[Sl2Triple, ...]

    @property
    def degree(self) -> int:
        return len(self.strongly_orthogonal)

    @property
    def f_vec(self) -> dict:
        out: dict = {}
        for t in self.triples:
            out = vec_add(out, t.f)
        return out

    @property
    def e_vec(self) -> dict:
        out: dict = {}
        for t in self.triples:
            out = vec_add(out, t.e)
        return out

    def pierce_roots(self, i: int, j: int) -> tuple[Root, ...]:
        """Roots spanning the (i, j) Pierce component, 1-based indices."""
        rs = self.algebra.root_system
        S = self.strongly_orthogonal
        if i == j:
            return (S[i - 1],)
        out = []
        for a in self.n_roots:
            pattern = tuple(rs.pairing(a, b) for b in S)
            if all(
                p == (1 if k + 1 in (i, j) else 0) for k, p in enumerate(pattern)
            ):
                out.append(a)
        return tuple(out)


def parabolic(g: LieAlgebra, node: int) -> ParabolicDecomposition:
    rs: RootSystem = g.root_system
    j = node - 1
    if not 0 <= j < rs.rank:
        raise InvalidParameter(f"node {node} out of range")
    if rs.highest_root[j] != 1:
        raise InvalidParameter(
            f"node {node}: nilradical is not abelian (highest root coefficient "
            f"{rs.highest_root[j]})"
        )
    n_roots = tuple(a for a in rs.positive_roots if a[j] > 0)
    m_roots = tuple(a for a in rs.positive_roots if a[j] == 0)

    # greedy strongly orthogonal chain from the top of the order
    chain: list[Root] = []
    while True:
        best = None
        for a in reversed(sorted(n_roots, key=_order_key)):
            if all(rs.inner(a, b) == 0 for b in chain):
                best = a
                break
        if best is None:
            break
        for b in chain:
            for probe in (
                tuple(x + y for x, y in zip(best, b)),
                tuple(x - y for x, y in zip(best, b)),
            ):
                if any(probe) and rs.is_root(probe):
                    raise ConstructionError(
                        "orthogonal chain member is not strongly orthogonal"
                    )
        chain.append(best)
    # tube type: the chain's coroots sum to the grading element, so every
    # root of n pairs to 2 with the chain (the pairing is linear in a, so it
    # is read off the simple roots' pairings)
    simple = [tuple(int(k == i) for k in range(rs.rank)) for i in range(rs.rank)]
    h = [sum(rs.pairing(s, b) for b in chain) for s in simple]
    for a in n_roots:
        d = sum(c * hk for c, hk in zip(a, h) if c)
        if d != 2:
            raise InvalidParameter(
                f"node {node}: non-tube parabolic (root {a} has pairing sum {d} "
                "against the strongly orthogonal chain)"
            )

    triples = []
    for beta in chain:
        co = rs.coroot_coeffs(beta)
        triples.append(
            Sl2Triple(
                root=beta,
                f={rs.f_idx[beta]: Q(1)},
                h={rs.h_idx(i): Q(c) for i, c in enumerate(co) if c},
                e={rs.e_idx[beta]: Q(1)},
            )
        )
    return ParabolicDecomposition(
        algebra=g,
        node=node,
        n_roots=n_roots,
        m_roots=m_roots,
        strongly_orthogonal=tuple(chain),
        triples=tuple(triples),
    )


def graded_algebra(p: ParabolicDecomposition) -> LieAlgebra:
    """The parabolic's algebra re-equipped with the -2/0/+2 grading, the
    distinguished triple and the Killing normalization pair of the chain's
    first sl2 triple; the copy computes its own Killing matrix."""
    g = p.algebra
    rs: RootSystem = g.root_system
    S = p.strongly_orthogonal
    degree = [0] * g.dim
    for a in rs.positive_roots:
        d = sum(rs.pairing(a, b) for b in S)
        if d.denominator != 1 or int(d) not in (0, 2):
            raise ConstructionError(f"root {a} has pairing sum {d} against the chain")
        expected_n = a[p.node - 1] > 0
        if (int(d) == 2) != expected_n:
            raise ConstructionError(f"grading of {a} disagrees with the partition")
        degree[rs.e_idx[a]] = int(d)
        degree[rs.f_idx[a]] = -int(d)
    f = p.f_vec
    e = p.e_vec
    h: dict = {}
    for t in p.triples:
        h = vec_add(h, t.h)
    return replace(
        g,
        grading=tuple(degree),
        triple=(f, h, e),
        norm_pair=(p.triples[0].f, p.triples[0].e),
    )


# ---------------------------------------------------------------------------
# Jordan product on the nilradical
# ---------------------------------------------------------------------------


@dataclass
class RootJordan:
    """Jordan product table carried by the abelian nilradical.

    basis_roots fixes the coordinate order; products are x o y = [x,[f,y]]/2
    evaluated through the ambient structure constants.
    """

    parabolic: ParabolicDecomposition
    basis_roots: tuple[Root, ...]
    table: list[list[dict]]
    dim: int
    scaled: linalg.ScaledTable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.scaled = linalg.scale_table(self.table)

    def mul_vec(self, x, y):
        return linalg.dense_product(self.scaled, x, y)

    def frame_scale(self, i: int) -> Fraction:
        """Coefficient of the i-th frame idempotent on its root vector
        (not 1 after the rescaling used by the coordinatization)."""
        t = self.parabolic.triples[i - 1]
        return next(iter(t.e.values()))

    @property
    def identity_vec(self):
        out = [Q(0)] * self.dim
        for i in range(1, len(self.parabolic.triples) + 1):
            out[self.basis_roots.index(self.parabolic.strongly_orthogonal[i - 1])] = (
                self.frame_scale(i)
            )
        return tuple(out)

    def frame_vec(self, i: int):
        out = [Q(0)] * self.dim
        out[self.basis_roots.index(self.parabolic.strongly_orthogonal[i - 1])] = (
            self.frame_scale(i)
        )
        return tuple(out)


def jordan_from_roots(p: ParabolicDecomposition) -> RootJordan:
    g = p.algebra
    e_idx = g.root_system.e_idx
    basis = p.n_roots
    pos_of = {e_idx[a]: k for k, a in enumerate(basis)}
    f = p.f_vec
    dim = len(basis)
    table = [[None] * dim for _ in range(dim)]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            if j < i:
                table[i][j] = table[j][i]
                continue
            out = g.bracket({e_idx[a]: Q(1)}, g.bracket(f, {e_idx[b]: Q(1)}))
            entry = {}
            for k, c in out.items():
                if k not in pos_of:
                    raise ConstructionError("Jordan product left the nilradical")
                entry[pos_of[k]] = HALF * c
            table[i][j] = entry
    return RootJordan(parabolic=p, basis_roots=basis, table=table, dim=dim)


# ---------------------------------------------------------------------------
# Pierce quadratic forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PierceForm:
    """Quadratic form on one off-diagonal Pierce component, in root basis."""

    pair: tuple[int, int]
    roots: tuple[Root, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    def value(self, x: Sequence[Fraction]) -> Fraction:
        return linalg.gram_form(self.gram, enumerate(x), enumerate(x))

    def bilinear(self, x, y) -> Fraction:
        return 2 * linalg.gram_form(self.gram, enumerate(x), enumerate(y))


def q_forms(p: ParabolicDecomposition) -> dict[tuple[int, int], PierceForm]:
    """Q_ij(x) = kappa([f_i, x], [f_j, x]) / 2 on each off-diagonal
    component, with kappa normalized on the chain's sl2 pairs."""
    g = p.algebra
    e_idx = g.root_system.e_idx
    r = p.degree
    out = {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            roots = p.pierce_roots(i, j)
            fi, fj = p.triples[i - 1].f, p.triples[j - 1].f
            imgs_i = [g.bracket(fi, {e_idx[a]: Q(1)}) for a in roots]
            imgs_j = [g.bracket(fj, {e_idx[a]: Q(1)}) for a in roots]
            d = len(roots)
            gram = [[Q(0)] * d for _ in range(d)]
            for k in range(d):
                for l in range(k, d):
                    sym = g.killing(imgs_i[k], imgs_j[l]) + g.killing(
                        imgs_i[l], imgs_j[k]
                    )
                    val = HALF * HALF * sym if k != l else HALF * g.killing(
                        imgs_i[k], imgs_j[k]
                    )
                    gram[k][l] = gram[l][k] = val
            out[(i, j)] = PierceForm(pair=(i, j), roots=roots, gram=tuple(
                tuple(row) for row in gram
            ))
    return out


def witt_hyperbolic_planes(gram) -> int:
    """Number of hyperbolic planes split off by a greedy constructive Witt
    decomposition (search bounded to small integer combinations)."""
    g = [[Q(x) for x in row] for row in gram]
    n = len(g)
    basis = [[Q(1) if j == i else Q(0) for j in range(n)] for i in range(n)]

    def qval(v):
        return linalg.gram_form(g, enumerate(v), enumerate(v))

    def bval(u, v):
        return 2 * linalg.gram_form(g, enumerate(u), enumerate(v))

    planes = 0
    while len(basis) >= 2:
        iso = next((v for v in basis if qval(v) == 0 and any(v)), None)
        if iso is None:
            for u, v in itertools.combinations(basis, 2):
                for cu, cv in itertools.product(range(-3, 4), repeat=2):
                    if cu == 0 and cv == 0:
                        continue
                    cand = [cu * a + cv * b for a, b in zip(u, v)]
                    if any(cand) and qval(cand) == 0:
                        iso = cand
                        break
                if iso is not None:
                    break
        if iso is None:
            break
        mate = next((w for w in basis if bval(iso, w) != 0), None)
        if mate is None:
            raise ConstructionError("isotropic vector pairs with nothing: degenerate form")
        s = bval(iso, mate)
        mate = [x / s for x in mate]
        qm = qval(mate)
        mate = [m - qm * v for m, v in zip(mate, iso)]
        planes += 1
        new_basis = []
        for w in basis:
            w2 = [
                w[k] - bval(w, mate) * iso[k] - bval(w, iso) * mate[k]
                for k in range(n)
            ]
            if any(w2):
                new_basis.append(w2)
        mat = [row[:] for row in new_basis]
        reduced, pivots = linalg.rref(mat)
        basis = [reduced[k] for k in range(len(pivots))]
    return planes


# ---------------------------------------------------------------------------
# Jacobson coordinatization
# ---------------------------------------------------------------------------


@dataclass
class Coordinatization:
    """Linear isomorphism from the nilradical Jordan structure onto a
    matrix/quadratic model, after frame rescaling."""

    parabolic: ParabolicDecomposition  # rescaled copy actually used
    root_jordan: RootJordan
    model: jordan_mod.JordanAlgebra
    matrix: list[list[Fraction]]  # model coords = matrix @ root coords

    def apply(self, root_vec: Sequence[Fraction]) -> jordan_mod.JordanElement:
        return self.model.element(linalg.mat_vec(self.matrix, list(root_vec)))


def _find_unit_norm_vector(form: PierceForm):
    """Vector with nonzero form value: basis first, then small combinations."""
    d = len(form.roots)
    for k in range(d):
        v = [Q(1) if i == k else Q(0) for i in range(d)]
        q = form.value(v)
        if q:
            return v, q
    for k, l in itertools.combinations(range(d), 2):
        for ck, cl in itertools.product(range(-3, 4), repeat=2):
            if not ck and not cl:
                continue
            v = [Q(0)] * d
            v[k], v[l] = Q(ck), Q(cl)
            q = form.value(v)
            if q:
                return v, q
    raise ConstructionError("no vector of nonzero norm found in the search bound")


def _rescaled_parabolic(p: ParabolicDecomposition, scales: list[Fraction]):
    """f_i -> f_i / s_i, e_i -> s_i * e_i (keeps each sl2 triple intact)."""
    triples = []
    for t, s in zip(p.triples, scales):
        triples.append(
            Sl2Triple(
                root=t.root,
                f={k: c / s for k, c in t.f.items()},
                h=dict(t.h),
                e={k: c * s for k, c in t.e.items()},
            )
        )
    return replace(p, triples=tuple(triples))


def coordinatize(p: ParabolicDecomposition) -> Coordinatization:
    r = p.degree
    if r < 2:
        raise InvalidParameter(f"cross-validate needs degree r >= 2, but node {p.node} has r = {r}")
    forms = q_forms(p)
    scales = [Q(1)] * r
    units = {}
    for i in range(2, r + 1):
        v, q = _find_unit_norm_vector(forms[(1, i)])
        scales[i - 1] = q
        units[(1, i)] = v
    p2 = _rescaled_parabolic(p, scales)
    rj = jordan_from_roots(p2)
    if r == 2:
        return _coordinatize_quadratic(p2, rj)
    return _coordinatize_hermitian(p2, rj, units)


def _root_positions(rj: RootJordan, roots) -> list[int]:
    return [rj.basis_roots.index(a) for a in roots]


def _coordinatize_quadratic(p2, rj):
    form = q_forms(p2)[(1, 2)]
    pos = _root_positions(rj, form.roots)
    d = len(pos)
    model = jordan_mod.quadratic([list(row) for row in form.gram])
    n = rj.dim
    mat = [[Q(0)] * n for _ in range(2 + d)]
    for i in (1, 2):
        src = rj.basis_roots.index(p2.strongly_orthogonal[i - 1])
        mat[i - 1][src] = 1 / rj.frame_scale(i)
    for k, src in enumerate(pos):
        mat[2 + k][src] = Q(1)
    return Coordinatization(parabolic=p2, root_jordan=rj, model=model, matrix=mat)


def _coordinatize_hermitian(p2, rj, units):
    r = p2.degree
    forms = q_forms(p2)

    def dbl(x_vec, y_vec):
        """{x, y} = 2 (x o y) on full nilradical coordinate vectors."""
        prod = rj.mul_vec(x_vec, y_vec)
        return tuple(2 * c for c in prod)

    def embed(form: PierceForm, local):
        out = [Q(0)] * rj.dim
        for c, src in zip(local, _root_positions(rj, form.roots)):
            out[src] = c
        return tuple(out)

    u = {}
    for i in range(2, r + 1):
        u[(1, i)] = embed(forms[(1, i)], units[(1, i)])
        if forms[(1, i)].value(units[(1, i)]) != 1:
            raise ConstructionError("rescaling failed to normalize the unit vector")
    for i in range(2, r + 1):
        for j in range(i + 1, r + 1):
            u[(i, j)] = dbl(u[(1, i)], u[(1, j)])

    # the coefficient algebra lives on the (1,2) component
    d_form = forms[(1, 2)]
    d_pos = _root_positions(rj, d_form.roots)
    d = len(d_pos)
    span = EchelonBasis()
    d_basis = [u[(1, 2)]]
    span.insert({k: c for k, c in enumerate(u[(1, 2)]) if c})
    for src in d_pos:
        cand = tuple(Q(1) if k == src else Q(0) for k in range(rj.dim))
        if span.insert({k: c for k, c in enumerate(cand) if c}):
            d_basis.append(cand)
    if len(d_basis) != d:
        raise ConstructionError("could not complete a basis of the coefficient algebra")

    def d_mul(x_vec, y_vec):
        return dbl(dbl(x_vec, u[(2, 3)]), dbl(y_vec, u[(1, 3)]))

    # express products and the norm in the chosen d-basis
    to_local = linalg.invert(
        [[d_basis[b][d_pos[a]] for b in range(d)] for a in range(d)]
    )

    def local_coords(x_vec):
        ambient = [x_vec[src] for src in d_pos]
        return linalg.mat_vec(to_local, ambient)

    mul_table = [
        [local_coords(d_mul(d_basis[i], d_basis[j])) for j in range(d)]
        for i in range(d)
    ]
    # Gram of the norm in the chosen d-basis: entries are (1/2) B(b_a, b_b)
    local = [[b[s] for s in d_pos] for b in d_basis]
    gram = [[HALF * d_form.bilinear(x, y) for y in local] for x in local]
    D = algebra_from_table(mul_table, gram)
    model = jordan_mod.hermitian(r, D)

    # assemble the linear map: frames to diagonal units, Pierce components
    # through the psi maps into off-diagonal D-coordinates
    mat = [[Q(0)] * rj.dim for _ in range(model.dim)]
    for i in range(1, r + 1):
        src = rj.basis_roots.index(p2.strongly_orthogonal[i - 1])
        mat[i - 1][src] = 1 / rj.frame_scale(i)

    def psi_1j(x_vec, j):
        if j == 2:
            return local_coords(x_vec)
        return local_coords(dbl(x_vec, u[(2, j)]))

    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            form = forms[(i, j)]
            block = model._pair_offset[(i - 1, j - 1)]
            for a in form.roots:
                src = rj.basis_roots.index(a)
                x_vec = tuple(Q(1) if k == src else Q(0) for k in range(rj.dim))
                if i == 1:
                    coords = psi_1j(x_vec, j)
                else:
                    coords = psi_1j(dbl(x_vec, u[(1, i)]), j)
                for kk, c in enumerate(coords):
                    mat[block + kk][src] = c
    return Coordinatization(parabolic=p2, root_jordan=rj, model=model, matrix=mat)


# ---------------------------------------------------------------------------
# cross validation against the Jordan-side construction
# ---------------------------------------------------------------------------


@dataclass
class CrossValidation:
    dim: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches


def cross_validate(p: ParabolicDecomposition) -> CrossValidation:
    """Transport the Chevalley build onto the matrix-model build through the
    coordinatization and compare every structure constant."""
    g = p.algebra
    coord = coordinatize(p)
    p2 = coord.parabolic
    g1 = graded_algebra(p2)
    rj = coord.root_jordan
    J = coord.model
    g2 = kkt_mod.build_kkt(J)

    e_idx = g.root_system.e_idx
    dim = g.dim
    nJ = J.dim

    # chevalley basis index -> position in rj basis
    n_map = {e_idx[a]: k for k, a in enumerate(rj.basis_roots)}

    # image vectors of every chevalley basis element inside the kkt build
    phi = coord.matrix
    w1 = kkt_mod.w_matrix(g1)
    w1_inv = linalg.invert(w1)
    n_idx1 = g1.degree_indices(2)
    nbar_idx1 = g1.degree_indices(-2)
    m_idx1 = g1.degree_indices(0)
    pos_in_nbar1 = {b: a for a, b in enumerate(nbar_idx1)}

    # target block index helpers (kkt layout: nbar, m, n)
    def to_n2(coords):
        return {nJ + len(g2.degree_indices(0)) + k: c for k, c in enumerate(coords) if c}

    # echelon of flattened m-operators on the kkt side; re-inserting the
    # already-reduced basis rows reproduces the same pivots and ordering
    span2 = EchelonBasis()
    for op in g2.m_operators:
        span2.insert(kkt_mod._flatten(op.cols, nJ))
    # column echelon coordinates: rebuild transport of m through operators
    phi_inv = linalg.invert(phi)

    images: dict[int, dict] = {}
    # +2 block
    for i in n_idx1:
        k = n_map[i]
        src = tuple(Q(1) if t == k else Q(0) for t in range(nJ))
        coords = linalg.mat_vec(phi, list(src))
        images[i] = to_n2(coords)
    # -2 block: w-conjugated transport
    for i in nbar_idx1:
        col = [Q(0)] * len(nbar_idx1)
        col[pos_in_nbar1[i]] = Q(1)
        back = linalg.mat_vec(w1_inv, col)  # n-block local coords
        root_vec = [Q(0)] * nJ
        for a, c in enumerate(back):
            if c:
                k = n_map[n_idx1[a]]
                root_vec[k] += c
        coords = linalg.mat_vec(phi, root_vec)
        # apply the kkt-side w to the transported +2 vector
        img_n = to_n2(coords)
        images[i] = kkt_mod.w_map(g2, img_n)
    # 0 block: transport of the adjoint action on the nilradical
    for i in m_idx1:
        op_cols = []
        for k in range(nJ):
            # action on rj basis vector k, conjugated by phi
            src_chev = {e_idx[rj.basis_roots[k]]: Q(1)}
            img = g1.bracket({i: Q(1)}, src_chev)
            col_root = [Q(0)] * nJ
            for t, c in img.items():
                if t not in n_map:
                    raise ConstructionError("0-part action left the nilradical")
                col_root[n_map[t]] = c
            op_cols.append(col_root)
        # conjugate: model_op = phi @ op @ phi^{-1}
        dense = [[op_cols[c][rw] for c in range(nJ)] for rw in range(nJ)]
        conj = linalg.mat_mul(phi, linalg.mat_mul(dense, phi_inv))
        flat = {}
        for c in range(nJ):
            for rw in range(nJ):
                if conj[rw][c]:
                    flat[c * nJ + rw] = conj[rw][c]
        coords = span2.coordinates(flat)
        if coords is None:
            raise ConstructionError("transported 0-part operator escaped the span")
        images[i] = {nJ + a: c for a, c in enumerate(coords) if c}

    mismatches = []
    for i in range(dim):
        for j in range(i + 1, dim):
            lhs = g2.bracket(images[i], images[j])
            chev = g1.bracket_basis(i, j)
            rhs: dict = {}
            for t, c in chev.items():
                rhs = vec_add(rhs, images[t], c)
            if lhs != rhs:
                mismatches.append((g1.labels[i], g1.labels[j]))
    # triple transport
    f1, h1, e1 = g1.triple
    f2, h2, e2 = g2.triple
    for name, src, want in (("f", f1, f2), ("h", h1, h2), ("e", e1, e2)):
        got: dict = {}
        for t, c in src.items():
            got = vec_add(got, images[t], c)
        if got != want:
            mismatches.append((f"triple:{name}", ""))
    return CrossValidation(dim=dim, mismatches=mismatches)


# ---------------------------------------------------------------------------
# plain-text instance report
# ---------------------------------------------------------------------------


def instance_report(p: ParabolicDecomposition) -> str:
    g = p.algebra
    rs = g.root_system
    r = p.degree
    dims = sorted(
        {len(p.pierce_roots(i, j)) for i in range(1, r + 1) for j in range(i + 1, r + 1)}
    )
    if len(dims) > 1:
        raise ConstructionError(f"off-diagonal Pierce dimensions differ: {dims}")
    lines = [
        f"type {rs.type_label} rank {rs.rank} node {p.node}",
        f"dim g = {g.dim}, dim n = {len(p.n_roots)}",
        f"degree r = {r}",
        "strongly orthogonal chain: "
        + "; ".join(_root_label(a) for a in p.strongly_orthogonal),
    ]
    if dims:
        lines += [f"off-diagonal Pierce dimension d = {dims[0]}", f"(r, d) = ({r}, {dims[0]})"]
    else:
        lines.append("no off-diagonal Pierce space: degree r = 1 has no pairs i < j")
    return "\n".join(lines)

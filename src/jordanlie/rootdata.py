"""Split Lie algebras from root data, and the road back to matrix models.

This module is the independent counterpart of :mod:`jordanlie.kkt`: it builds
the split Lie algebras of types A, B, C, D and E7 from one table row per type
and the simple reflections, which carry the simple roots onto all positive
roots (Chevalley basis, extraspecial-pair signs in height-then-lexicographic
order; the structure constants are Python ints on positive-root indices, from
one pass over the positive pairs, and each root sum a_i + a_j = a_c writes six
brackets), cuts out a maximal parabolic with abelian nilradical, equips the
nilradical with the Jordan product x o y = [x, [f, y]]/2, extracts the Pierce
quadratic forms, and coordinatizes the result back onto a matrix model.
Agreement of the two roads, structure constant by structure constant, is the
cross-validation entry point.

Nothing is cached at module level: each :func:`build_split_lie` call returns
a fresh algebra, and the entry points past it take the
:class:`ParabolicDecomposition`, so a caller builds once and passes it on.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple, Sequence

from . import jordan as jordan_mod
from . import kkt as kkt_mod
from . import linalg
from .composition import algebra_from_table
from .errors import ConstructionError, InvalidParameter
from .kkt import LieAlgebra
from .linalg import EchelonBasis, add_combination
from .rationals import Q

Root = tuple[int, ...]

MAX_DIM = 248  # dim E8: no exceptional algebra is larger


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------


def _middle_node(n: int) -> int:
    if n % 2 == 0:
        raise InvalidParameter("type A needs odd rank for the middle node")
    return (n + 1) // 2


class RootType(NamedTuple):
    """What the code knows about one root type, in Bourbaki numbering."""

    least_rank: int  # an exceptional label (E7) names its rank, the only one it takes
    positive: Callable[[int], int]  # number of positive roots at rank n
    node: Callable[[int], int]  # 1-based simple root of the table's standard parabolic
    gram: Callable[[int], dict]  # (alpha_i, alpha_j) by 0-based (i, j) where they differ from A_n's


_TYPES = {
    "A": RootType(1, lambda n: n * (n + 1) // 2, _middle_node, lambda n: {}),
    "B": RootType(2, lambda n: n * n, lambda n: 1, lambda n: {(n - 1, n - 1): 1}),
    "C": RootType(2, lambda n: n * n, lambda n: n, lambda n: {(n - 1, n - 1): 4, (n - 2, n - 1): -2}),
    "D": RootType(3, lambda n: n * (n - 1), lambda n: 1, lambda n: {(n - 2, n - 1): 0, (n - 3, n - 1): -1}),
    # the chain 1-3-4-5-6-7 with 2 attached to 4: A_7's bonds 1-2 and 2-3 move to 1-3 and 2-4
    "E7": RootType(7, lambda n: 63, lambda n: 7, lambda n: {(0, 1): 0, (1, 2): 0, (0, 2): -1, (1, 3): -1}),
}
SUPPORTED_TYPES = tuple(_TYPES)


def _root_type(type_label: str) -> RootType:
    if type_label not in _TYPES:
        raise InvalidParameter(f"unsupported type {type_label!r}")
    return _TYPES[type_label]


def _simple_roots(rank: int) -> tuple[Root, ...]:
    return tuple(tuple(int(j == i) for j in range(rank)) for i in range(rank))


def _pairing(gram, a: Root, b: Root) -> int:
    """<a, b-dual> = 2 (a, b) / (b, b), an integer for roots; a remainder raises."""
    ab, bb = (linalg.gram_form(gram, enumerate(x), enumerate(b)) for x in (a, b))
    q, r = divmod(2 * ab, bb)
    if r:
        raise ConstructionError(f"non-integral pairing of {a} with the coroot of {b}")
    return q


class RootSystem:
    """Positive roots with their Chevalley basis index: the basis runs
    f-block (one f_a per positive root, in order), Cartan, e-block.  The
    Gram matrix, inner products, pairings and coroots are Python ints, and
    so is the Cartan matrix, cartan[i][j] = <alpha_j, alpha_i-dual>, when
    :func:`build_root_system` passes it."""

    __slots__ = ("type_label", "rank", "gram", "positive_roots", "cartan", "f_idx", "e_idx")

    def __init__(self, type_label: str, rank: int, gram: tuple, positive_roots: tuple[Root, ...], cartan=None):
        self.type_label, self.rank, self.gram, self.cartan = type_label, rank, gram, cartan
        self.positive_roots = positive_roots  # sorted by (height, coordinates)
        npos = len(positive_roots)
        self.f_idx = {a: i for i, a in enumerate(positive_roots)}  # positive root -> f_a
        self.e_idx = {a: npos + rank + i for i, a in enumerate(positive_roots)}  # positive root -> e_a

    def h_idx(self, i: int) -> int:
        """Basis index of the i-th (0-based) simple coroot."""
        return len(self.positive_roots) + i

    def inner(self, a: Root, b: Root) -> int:
        return linalg.gram_form(self.gram, enumerate(a), enumerate(b))

    def pairing(self, a: Root, b: Root) -> int:
        return _pairing(self.gram, a, b)

    def is_root(self, a: Root) -> bool:
        if all(c >= 0 for c in a):
            return a in self.f_idx
        if all(c <= 0 for c in a):
            return tuple(-c for c in a) in self.f_idx
        return False

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
        return _simple_roots(self.rank)

    def coroot_coeffs(self, a: Root) -> tuple[int, ...]:
        """a-dual as an integer combination of the simple coroots."""
        aa = self.inner(a, a)
        out = [divmod(m * self.gram[i][i], aa) for i, m in enumerate(a)]
        if any(r for _, r in out):
            raise ConstructionError(f"non-integral coroot coefficient for {a}")
        return tuple(c for c, _ in out)

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]


def _order_key(root: Root) -> tuple:
    return (sum(root), root)


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """The type's root system at rank, of an algebra no larger than MAX_DIM:
    the simple-root Gram is A_n's (2 on the diagonal, -1 on each bond i, i+1)
    with the type's changes, and the positive roots are the closure of the
    simple roots under the simple reflections s_i(b) = b - <b, alpha_i-dual>
    alpha_i, taken where s_i raises b, which reaches each of them.  The type's
    positive-root count checks the enumeration."""
    t = _root_type(type_label)
    if type_label[1:] and rank != t.least_rank:
        raise InvalidParameter(f"type {type_label} has rank {t.least_rank}")
    if rank < t.least_rank:
        raise InvalidParameter(f"type {type_label} needs rank >= {t.least_rank}")
    dim = 2 * t.positive(rank) + rank
    if dim > MAX_DIM:
        raise InvalidParameter(f"{type_label}{rank} has dimension {dim}, above {MAX_DIM}, that of E8")
    gram = [[2 * (i == j) - (abs(i - j) == 1) for j in range(rank)] for i in range(rank)]
    for (i, j), v in t.gram(rank).items():
        gram[i][j] = gram[j][i] = v
    simple = _simple_roots(rank)
    cartan = [[_pairing(gram, b, a) for b in simple] for a in simple]  # <alpha_j, alpha_i-dual>
    roots, todo = set(simple), list(simple)
    while todo:
        b = todo.pop()
        for i, row in enumerate(cartan):
            c = sum(x * y for x, y in zip(row, b))
            if c < 0 and (new := b[:i] + (b[i] - c,) + b[i + 1 :]) not in roots:
                roots.add(new)
                todo.append(new)
    ordered = tuple(sorted(roots, key=_order_key))
    expected = t.positive(rank)
    if len(ordered) != expected:
        raise ConstructionError(
            f"{type_label}{rank}: enumerated {len(ordered)} positive roots, expected {expected}"
        )
    return RootSystem(type_label, rank, tuple(map(tuple, gram)), ordered, tuple(map(tuple, cartan)))


# ---------------------------------------------------------------------------
# Chevalley structure constants (extraspecial-pair signs)
# ---------------------------------------------------------------------------


class ChevalleyConstants:
    """N_{a,b} on positive-root indices, in ints, from the extraspecial signs.

    One pass over the positive pairs i < j records, for each positive root
    c, its summand pairs a_i + a_j = a_c in order; the first is c's
    extraspecial pair.  ``n[i, j]`` is N_{a_i, a_j} for every ordered pair of
    positive roots whose sum is a root; the constants on mixed signs are
    read from it through the invariance of the Killing form."""

    def __init__(self, rs: RootSystem):
        self.roots = pos = rs.positive_roots
        self.norm = [rs.inner(a, a) for a in pos]
        self.scale = math.lcm(*self.norm)  # L: every L N_{a,-b} is an int
        self.summands: list[list[tuple[int, int]]] = [[] for _ in pos]
        self.sum: dict[tuple[int, int], int] = {}  # (i, j) -> c, a_i + a_j = a_c
        self.diff: dict[tuple[int, int], int] = {}  # (c, j) -> i, a_c - a_j = a_i
        for i, a in enumerate(pos):
            for j in range(i + 1, len(pos)):
                c = rs.f_idx.get(tuple(x + y for x, y in zip(a, pos[j])))
                if c is not None:
                    self.summands[c].append((i, j))
                    self.sum[i, j] = self.sum[j, i] = c
                    self.diff[c, j], self.diff[c, i] = i, j
        self.n: dict[tuple[int, int], int] = {}
        cube = self.scale**3
        for c, pairs in enumerate(self.summands):
            if not pairs:
                if sum(pos[c]) > 1:
                    raise ConstructionError(f"no special pair sums to {pos[c]}")
                continue
            (i1, j1), n_extra = pairs[0], self.string_down(*pairs[0]) + 1
            self.n[i1, j1], self.n[j1, i1] = n_extra, -n_extra
            for i, j in pairs[1:]:
                # N_{a_i,a_j} = (c,c)(t1 + t2)/N_{a1,b1} over the extraspecial
                # (a1, b1), t1 = -N_{a1,-a_i} N_{b1,-a_j}/|a1 - a_i|^2 and
                # t2 = N_{a1,-a_j} N_{b1,-a_i}/|a1 - a_j|^2: ints over L^3
                num = 0
                for x, y, sign in ((i, j, -1), (j, i, 1)):
                    m1, d = self._scaled_mixed(i1, x)
                    if m1:
                        num += sign * m1 * self._scaled_mixed(j1, y)[0] * (self.scale // d)
                num, den = self.norm[c] * num, cube * n_extra
                q, r = divmod(num, den)
                if r or abs(q) != self.string_down(i, j) + 1:
                    raise ConstructionError(
                        f"structure constant {Fraction(num, den)} for "
                        f"{pos[i]}+{pos[j]} violates |N| = p+1"
                    )
                self.n[i, j], self.n[j, i] = q, -q

    def string_down(self, x: int, y: int) -> int:
        """Largest p >= 0 with a_y - p a_x a root, walked on the index."""
        p, cur, positive = 0, y, True
        while True:
            if positive:
                nxt = self.diff.get((cur, x))  # a_cur - a_x = a_nxt
                if nxt is None:
                    nxt, positive = self.diff.get((x, cur)), False  # = -a_nxt
            else:
                nxt = self.sum.get((cur, x))  # -a_cur - a_x = -a_nxt
            if nxt is None:
                return p
            p, cur = p + 1, nxt

    def _scaled_mixed(self, x: int, y: int) -> tuple[int, int]:
        """(L N_{a_x,-a_y}, |a_x - a_y|^2); (0, 1) when a_x - a_y is no root."""
        norm, n = self.norm, self.n
        s = self.diff.get((x, y))
        if s is not None:  # a_x = a_s + a_y
            return norm[s] * n[s, y] * (self.scale // norm[x]), norm[s]
        w = self.diff.get((y, x))
        if w is not None:  # a_y = a_x + a_w
            return -norm[w] * n[x, w] * (self.scale // norm[y]), norm[w]
        return 0, 1

    def mixed(self, x: int, y: int) -> int:
        """N_{a_x,-a_y}, an int for a_x - a_y a root; a remainder raises."""
        scaled = self._scaled_mixed(x, y)[0]
        q, r = divmod(scaled, self.scale)
        if r:
            raise ConstructionError(
                f"non-integral structure constant {Fraction(scaled, self.scale)} for "
                f"{self.roots[x]}-{self.roots[y]}"
            )
        return q


def _root_label(a: Root) -> str:
    return ",".join(str(c) for c in a)


# ---------------------------------------------------------------------------
# split Lie algebra assembly
# ---------------------------------------------------------------------------


def build_split_lie(type_label: str, rank: int) -> LieAlgebra:
    """Chevalley-basis Lie algebra; basis order f-block, Cartan, e-block.
    Every call returns a fresh algebra, its constants in ints."""
    rs = build_root_system(type_label, rank)
    nc = ChevalleyConstants(rs)
    pos = rs.positive_roots
    f_idx, h_idx, e_idx = rs.f_idx, rs.h_idx, rs.e_idx
    e0 = len(pos) + rank  # e_k is basis vector e0 + k, f_k is k

    labels = (
        tuple(f"f:{_root_label(a)}" for a in pos)
        + tuple(f"h:{i + 1}" for i in range(rank))
        + tuple(f"e:{_root_label(a)}" for a in pos)
    )
    brackets: dict = {}

    # Cartan action: <a, alpha_i-dual> is row i of the Cartan matrix on a
    for a in pos:
        for i, row in enumerate(rs.cartan):
            pairing = sum(map(mul, row, a))
            if pairing:
                brackets[h_idx(i), e_idx[a]] = {e_idx[a]: pairing}
                brackets[h_idx(i), f_idx[a]] = {f_idx[a]: -pairing}

    # [e_a, f_a] = coroot in the Cartan
    for a in pos:
        co = rs.coroot_coeffs(a)
        brackets[e_idx[a], f_idx[a]] = {h_idx(i): c for i, c in enumerate(co) if c}

    # root-root brackets, six from each a_i + a_j = a_c
    for c, pairs in enumerate(nc.summands):
        for i, j in pairs:
            n = nc.n[i, j]
            brackets[e0 + i, e0 + j] = {e0 + c: n}
            brackets[i, j] = {c: -n}
            brackets[e0 + c, j] = {e0 + i: nc.mixed(c, j)}
            brackets[e0 + c, i] = {e0 + j: nc.mixed(c, i)}
            brackets[e0 + i, c] = {j: nc.mixed(i, c)}
            brackets[e0 + j, c] = {i: nc.mixed(j, c)}

    hi = rs.highest_root
    norm_pair = ({f_idx[hi]: Q(1)}, {e_idx[hi]: Q(1)})
    table = kkt_mod.bracket_table(len(labels), brackets)
    return LieAlgebra(labels=labels, table=table, norm_pair=norm_pair, root_system=rs)


def canonical_node(type_label: str, rank: int) -> int:
    """Simple-root index (1-based) of the table's standard parabolic."""
    return _root_type(type_label).node(rank)


# ---------------------------------------------------------------------------
# parabolic with abelian radical
# ---------------------------------------------------------------------------


class Sl2Triple(NamedTuple):
    root: Root
    f: dict
    h: dict
    e: dict


class ParabolicDecomposition(NamedTuple):
    algebra: LieAlgebra
    node: int  # 1-based simple root index
    n_roots: tuple[Root, ...]
    m_roots: tuple[Root, ...]
    strongly_orthogonal: tuple[Root, ...]
    triples: tuple[Sl2Triple, ...]
    # the pairings <a, b-dual> of each n root a, in n_roots order, with the chain's b
    patterns: tuple[tuple[int, ...], ...]

    @property
    def degree(self) -> int:
        return len(self.strongly_orthogonal)

    def chain_sum(self, part: str) -> dict:
        """The sum of member part ("f", "h" or "e") of the chain's sl2 triples."""
        vecs = [getattr(t, part) for t in self.triples]
        acc = add_combination({}, vecs, [(k, Q(1)) for k in range(len(vecs))])
        return {k: c for k, c in acc.items() if c}

    def pierce_roots(self, i: int, j: int) -> tuple[Root, ...]:
        """Roots spanning the (i, j) Pierce component, 1-based indices: for
        i != j, the n roots pairing to 1 with the i-th and j-th chain roots
        and to 0 with the others."""
        if i == j:
            return (self.strongly_orthogonal[i - 1],)
        want = tuple(int(k in (i, j)) for k in range(1, self.degree + 1))
        return tuple(a for a, pattern in zip(self.n_roots, self.patterns) if pattern == want)


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
        for a in reversed(n_roots):  # n_roots keeps the positive-root order
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
    # root of n pairs to 2 with the chain
    patterns = tuple(tuple(rs.pairing(a, b) for b in chain) for a in n_roots)
    for a, pattern in zip(n_roots, patterns):
        d = sum(pattern)
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
        patterns=patterns,
    )


def graded_algebra(p: ParabolicDecomposition) -> LieAlgebra:
    """The parabolic's algebra re-equipped with the -2/0/+2 grading, the
    distinguished triple and the Killing normalization pair of the chain's
    first sl2 triple; the copy fills its own trace Gram."""
    g = p.algebra
    rs: RootSystem = g.root_system
    degree = [0] * g.dim
    for a in p.n_roots:  # parabolic() checked that each pairs to 2 with the chain
        degree[rs.e_idx[a]], degree[rs.f_idx[a]] = 2, -2
    for a in p.m_roots:
        d = sum(rs.pairing(a, b) for b in p.strongly_orthogonal)
        if d:
            raise ConstructionError(f"root {a} has pairing sum {d} against the chain")
    return LieAlgebra(
        g.labels,
        g.table,
        grading=tuple(degree),
        triple=(p.chain_sum("f"), p.chain_sum("h"), p.chain_sum("e")),
        norm_pair=(p.triples[0].f, p.triples[0].e),
        root_system=rs,
    )


# ---------------------------------------------------------------------------
# Jordan product on the nilradical
# ---------------------------------------------------------------------------


class RootJordan:
    """Jordan product table carried by the abelian nilradical.

    basis_roots fixes the coordinate order, and position maps each root to
    its coordinate; products are x o y = [x,[f,y]]/2 evaluated through the
    ambient structure constants.
    """

    __slots__ = ("parabolic", "basis_roots", "table", "dim", "scaled", "plan", "position")

    def __init__(self, parabolic: ParabolicDecomposition, basis_roots: tuple[Root, ...], table: list, dim: int):
        self.parabolic, self.basis_roots, self.table, self.dim = parabolic, basis_roots, table, dim
        self.scaled = linalg.scale_table(table)
        self.plan = linalg.product_plan(self.scaled)  # scaled, by output
        self.position = {a: k for k, a in enumerate(basis_roots)}

    def embed(self, roots, local) -> tuple:
        """The coordinate vector with local[k] on roots[k] and 0 elsewhere."""
        out = [Q(0)] * self.dim
        for c, a in zip(local, roots):
            out[self.position[a]] = c
        return tuple(out)

    def mul_vec(self, x, y):
        return linalg.dense_product(self.plan, x, y)

    def frame_scale(self, i: int) -> Fraction:
        """Coefficient of the i-th frame idempotent on its root vector
        (not 1 after the rescaling used by the coordinatization)."""
        t = self.parabolic.triples[i - 1]
        return next(iter(t.e.values()))

    def frame_vec(self, i: int):
        return self.embed(self.parabolic.strongly_orthogonal[i - 1 : i], [self.frame_scale(i)])


def jordan_from_roots(p: ParabolicDecomposition) -> RootJordan:
    """x o y = [x, [f, y]]/2 on the nilradical, f the chain sum, read from
    the integer bracket table: f is scaled to ints over df (summing the
    triples' f vectors, as the product is bilinear), [f, e_b] is formed once
    per b as df den [f, e_b], each e_a row is joined with it, and each
    constant of 2 df den^2 (x o y) is divided once."""
    g = p.algebra
    e_idx = g.root_system.e_idx
    cells, den = g.table.cells, g.table.den
    basis = p.n_roots
    pos_of = {e_idx[a]: k for k, a in enumerate(basis)}
    fs, df = linalg.scale_vec(kc for t in p.triples for kc in t.f.items())
    scale = 2 * df * den * den
    f_of = [
        [(k, c) for k, c in linalg.table_product({}, cells, fs, [(e_idx[b], 1)]).items() if c] for b in basis
    ]
    dim = len(basis)
    table = [[None] * dim for _ in range(dim)]
    for i, a in enumerate(basis):
        row = cells[e_idx[a]]
        for j in range(dim):
            if j < i:
                table[i][j] = table[j][i]
                continue
            entry = {}
            for k, c in add_combination({}, row, f_of[j]).items():
                if c:
                    if k not in pos_of:
                        raise ConstructionError("Jordan product left the nilradical")
                    entry[pos_of[k]] = Q(c, scale)
            table[i][j] = entry
    return RootJordan(parabolic=p, basis_roots=basis, table=table, dim=dim)


# ---------------------------------------------------------------------------
# Pierce quadratic forms
# ---------------------------------------------------------------------------


class PierceForm(NamedTuple):
    """Quadratic form on one off-diagonal Pierce component, in root basis."""

    pair: tuple[int, int]
    roots: tuple[Root, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    def value(self, x: Sequence[Fraction]) -> Fraction:
        return linalg.gram_form(self.gram, enumerate(x), enumerate(x))


def q_forms(p: ParabolicDecomposition) -> dict[tuple[int, int], PierceForm]:
    """Q_ij(x) = kappa([f_i, x], [f_j, x]) / 2 on each off-diagonal
    component, with kappa normalized on the algebra's norm pair.  The images
    [f_i, e_a] are read in ints from the bracket table (df_i den times them),
    and kappa(x, y) = s x^T T y off the algebra's integer trace Gram T
    (LieAlgebra.killing_matrix); each Gram entry is divided once."""
    g = p.algebra
    rs = g.root_system
    cells, den = g.table.cells, g.table.den
    s = g.killing_scale()
    trace = g.killing_matrix()

    def images(f, roots):
        fs, df = linalg.scale_vec(f.items())
        return [linalg.table_product({}, cells, fs, [(rs.e_idx[a], 1)]).items() for a in roots], df

    r = p.degree
    out = {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            roots = p.pierce_roots(i, j)
            (imgs_i, di), (imgs_j, dj) = (images(p.triples[t - 1].f, roots) for t in (i, j))
            # kappa(I_k, J_l) = s I_k^T T J_l / (di dj den^2); Q_ij halves it
            # on the diagonal and quarters the symmetrized pair off it
            num, dd = s.numerator, s.denominator * di * dj * den * den
            d = len(roots)
            gram = [[Q(0)] * d for _ in range(d)]
            for k in range(d):
                gram[k][k] = Q(num * linalg.gram_form(trace, imgs_i[k], imgs_j[k]), 2 * dd)
                for l in range(k + 1, d):
                    sym = linalg.gram_form(trace, imgs_i[k], imgs_j[l])
                    sym += linalg.gram_form(trace, imgs_i[l], imgs_j[k])
                    gram[k][l] = gram[l][k] = Q(num * sym, 4 * dd)
            out[(i, j)] = PierceForm(pair=(i, j), roots=roots, gram=tuple(tuple(row) for row in gram))
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


class Coordinatization(NamedTuple):
    """Linear isomorphism from the nilradical Jordan structure onto a
    matrix/quadratic model, after frame rescaling."""

    parabolic: ParabolicDecomposition  # rescaled copy actually used
    root_jordan: RootJordan
    model: jordan_mod.JordanAlgebra
    matrix: list[list[Fraction]]  # model coords = matrix @ root coords

    def apply(self, root_vec: Sequence[Fraction]) -> jordan_mod.JordanElement:
        return self.model.element(linalg.mat_vec(self.matrix, list(root_vec)))


def _scaled_gram(form: PierceForm) -> tuple[tuple, int]:
    """The form's Gram as int rows (dicts on every column) over its lcm, and the lcm."""
    t = linalg.scale_table([[dict(enumerate(row)) for row in form.gram]])
    return t.cells[0], t.den


def _find_unit_norm_vector(form: PierceForm):
    """Int vector with nonzero form value, and the value: basis vectors
    first, then small combinations, each valued in ints on the scaled Gram."""
    d = len(form.roots)
    gram, dg = _scaled_gram(form)
    pairs = itertools.product(itertools.combinations(range(d), 2), itertools.product(range(-3, 4), repeat=2))
    candidates = itertools.chain(
        ({k: 1} for k in range(d)),
        ({k: ck, l: cl} for (k, l), (ck, cl) in pairs if ck or cl),
    )
    for v in candidates:
        q = linalg.gram_form(gram, v.items(), v.items())
        if q:
            return [v.get(i, 0) for i in range(d)], Q(q, dg)
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
    return p._replace(triples=tuple(triples))


def _invert(mat: list, name: str) -> list:
    try:
        return linalg.invert(mat)
    except ValueError:
        raise ConstructionError(f"{name} is singular") from None


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
    # f_i -> f_i / s_i and the Killing form is bilinear, so the forms of p2
    # are those of p divided by s_i s_j
    forms2 = {}
    for (i, j), f in forms.items():
        s = scales[i - 1] * scales[j - 1]
        forms2[(i, j)] = f._replace(gram=tuple(tuple(c / s for c in row) for row in f.gram))
    if r == 2:
        return _coordinatize_quadratic(p2, rj, forms2)
    return _coordinatize_hermitian(p2, rj, forms2, units)


def _coordinatize_quadratic(p2, rj, forms):
    form = forms[(1, 2)]
    pos = [rj.position[a] for a in form.roots]
    d = len(pos)
    model = jordan_mod.quadratic([list(row) for row in form.gram])
    n = rj.dim
    mat = [[Q(0)] * n for _ in range(2 + d)]
    for i in (1, 2):
        mat[i - 1][rj.position[p2.strongly_orthogonal[i - 1]]] = 1 / rj.frame_scale(i)
    for k, src in enumerate(pos):
        mat[2 + k][src] = Q(1)
    return Coordinatization(parabolic=p2, root_jordan=rj, model=model, matrix=mat)


def _coordinatize_hermitian(p2, rj, forms, units):
    r = p2.degree
    cells, den = rj.scaled.cells, rj.scaled.den

    # nilradical vectors are held as ({position: int}, d), the vector over d
    def dbl(x, y):
        """{x, y} = 2 (x o y): 2 dx dy den (x o y) in ints, its content
        shared with dx dy den taken out by a gcd."""
        (xv, dx), (yv, dy) = x, y
        prod = {k: 2 * c for k, c in linalg.table_product({}, cells, xv.items(), yv.items()).items() if c}
        g = math.gcd(dx * dy * den, *prod.values())
        return {k: c // g for k, c in prod.items()}, dx * dy * den // g

    u = {}
    for i in range(2, r + 1):
        form, v = forms[(1, i)], units[(1, i)]
        gram, dg = _scaled_gram(form)
        if linalg.gram_form(gram, enumerate(v), enumerate(v)) != dg:
            raise ConstructionError("rescaling failed to normalize the unit vector")
        u[(1, i)] = {rj.position[a]: c for a, c in zip(form.roots, v) if c}, 1
    for i in range(2, r + 1):
        for j in range(i + 1, r + 1):
            u[(i, j)] = dbl(u[(1, i)], u[(1, j)])

    # the coefficient algebra lives on the (1,2) component
    d_form = forms[(1, 2)]
    d_pos = [rj.position[a] for a in d_form.roots]
    d = len(d_pos)
    span = EchelonBasis()
    d_basis = [u[(1, 2)]]
    span.insert(u[(1, 2)][0])
    for a in d_form.roots:
        cand = {rj.position[a]: 1}
        if span.insert(cand):
            d_basis.append((cand, 1))
    if len(d_basis) != d:
        raise ConstructionError("could not complete a basis of the coefficient algebra")

    def d_mul(x, y):
        return dbl(dbl(x, u[(2, 3)]), dbl(y, u[(1, 3)]))

    # express products and the norm in the chosen d-basis: the inverse of the
    # basis matrix is scaled to ints over t_den once, so each local
    # coordinate of a vector over dx is one division by t_den dx
    d_mat = [[Q(xv.get(s, 0), dx) for xv, dx in d_basis] for s in d_pos]
    inv = linalg.scale_table([[dict(enumerate(row)) for row in _invert(d_mat, "coefficient-algebra basis matrix")]])
    to_local, t_den = inv.cells[0], inv.den

    def local_coords(x):
        xv, dx = x
        ambient = [(b, xv[s]) for b, s in enumerate(d_pos) if s in xv]
        return [Q(sum(row[b] * c for b, c in ambient), t_den * dx) for row in to_local]

    mul_table = [
        [local_coords(d_mul(d_basis[i], d_basis[j])) for j in range(d)]
        for i in range(d)
    ]
    # Gram of the norm in the chosen d-basis: (1/2) B(b_a, b_b) = b_a^T G b_b,
    # read in ints on the scaled Gram and divided once
    rows, dg = _scaled_gram(d_form)
    local = [([(k, xv.get(s, 0)) for k, s in enumerate(d_pos)], dx) for xv, dx in d_basis]
    gram = [[Q(linalg.gram_form(rows, x, y), dg * dx * dy) for y, dy in local] for x, dx in local]
    D = algebra_from_table(mul_table, gram)
    model = jordan_mod.hermitian(r, D)

    # assemble the linear map: frames to diagonal units, Pierce components
    # through the psi maps into off-diagonal D-coordinates
    mat = [[Q(0)] * rj.dim for _ in range(model.dim)]
    for i in range(1, r + 1):
        mat[i - 1][rj.position[p2.strongly_orthogonal[i - 1]]] = 1 / rj.frame_scale(i)

    def psi_1j(x, j):
        return local_coords(x if j == 2 else dbl(x, u[(2, j)]))

    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            form = forms[(i, j)]
            block = model._pair_offset[(i - 1, j - 1)]
            for a in form.roots:
                src = rj.position[a]
                x = {src: 1}, 1
                coords = psi_1j(x if i == 1 else dbl(x, u[(1, i)]), j)
                for kk, c in enumerate(coords):
                    mat[block + kk][src] = c
    return Coordinatization(parabolic=p2, root_jordan=rj, model=model, matrix=mat)


# ---------------------------------------------------------------------------
# cross validation against the Jordan-side construction
# ---------------------------------------------------------------------------


class CrossValidation(NamedTuple):
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
    dim = g.dim
    nJ = J.dim

    def levi_op(lie: LieAlgebra, i: int, n_basis: list) -> list:
        """Column-sparse action of basis element i on the +2 block, in the
        block basis n_basis, in ints over lie's den: the cells [b_i, n_basis[k]]."""
        pos = {t: k for k, t in enumerate(n_basis)}
        cols = []
        for t in n_basis:
            img = lie.table.cells[i][t]
            if not img.keys() <= pos.keys():
                raise ConstructionError("0-part action left the nilradical")
            cols.append({pos[s]: c for s, c in img.items()})
        return cols

    n_chev = [g.root_system.e_idx[a] for a in rj.basis_roots]  # rj basis order
    n_map = {t: k for k, t in enumerate(n_chev)}
    n_kkt = g2.degree_indices(2)
    # the kkt-side Levi span: re-inserting its fully reduced basis, in order,
    # reproduces the same pivots and ordering
    span2 = EchelonBasis()
    for a in g2.degree_indices(0):
        span2.insert(linalg.op_flatten(levi_op(g2, a, n_kkt), nJ))

    # image vectors of every chevalley basis element inside the kkt build
    phi = linalg.op_from_dense(coord.matrix)
    phi_inv = linalg.op_from_dense(_invert(coord.matrix, "coordinatization matrix"))
    w1_inv = linalg.op_from_dense(_invert(kkt_mod.w_matrix(g1), "w matrix of the graded algebra"))
    n_idx1 = g1.degree_indices(2)

    def to_n2(vec: dict) -> dict:
        return {n_kkt[k]: c for k, c in vec.items()}

    images: dict[int, dict] = {}
    # +2 block: the columns of phi
    for i in n_idx1:
        images[i] = to_n2(phi[n_map[i]])
    # -2 block: back through w1 to the +2 block, across phi, then the kkt-side w
    for a, i in enumerate(g1.degree_indices(-2)):
        root_vec = {n_map[n_idx1[b]]: c for b, c in w1_inv[a].items()}
        images[i] = kkt_mod.w_map(g2, to_n2(linalg.op_apply(phi, root_vec)))
    # 0 block: the action on the nilradical, conjugated to phi op phi^{-1}, in
    # ints: with phi and phi^{-1} over their lcm P, P phi (den1 op) P phi^{-1}
    # is P^2 den1 times the conjugate, so each coordinate is divided once
    ints = linalg.scale_table((phi, phi_inv))
    (phi_s, phi_inv_s), conj_den = ints.cells, ints.den**2 * g1.table.den
    for i in g1.degree_indices(0):
        conj = linalg.op_compose(phi_s, linalg.op_compose(levi_op(g1, i, n_chev), phi_inv_s))
        coords = span2.coordinates(linalg.op_flatten(conj, nJ))
        if coords is None:
            raise ConstructionError("transported 0-part operator escaped the span")
        images[i] = {nJ + a: Q(c, conj_den) for a, c in enumerate(coords) if c}

    # images, keyed by Chevalley index, is the transport phi as an operator; in
    # ints over its lcm D and the tables' den1 and den2, L = D^2 den2 [phi b_i,
    # phi b_j] and R = D den1 phi [b_i, b_j], which agree iff L den1 = R D den2
    transport = linalg.scale_table([[images[i] for i in range(dim)]])
    scaled, rhs_scale = transport.cells[0], transport.den * g2.table.den
    mismatches = []
    for i in range(dim):
        lhs = [(k, c * g1.table.den) for k, c in scaled[i].items()]
        for j in range(i + 1, dim):
            acc = linalg.table_product({}, g2.table.cells, lhs, scaled[j].items())
            add_combination(acc, scaled, [(k, -c * rhs_scale) for k, c in g1.table.cells[i][j].items()])
            if any(acc.values()):
                mismatches.append((g1.labels[i], g1.labels[j]))
    # triple transport
    for name, src, want in zip("fhe", g1.triple, g2.triple):
        if linalg.op_apply(images, src) != want:
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

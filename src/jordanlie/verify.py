"""Named verification suites over built algebras.

Each suite checks one family of identities and reports a pass/fail result
with a named witness on failure.  Every identity checked here is
multilinear, so the suites check basis tuples and a pass certifies the
identity for all elements.  The one exception is Jacobi above dimension
``EXHAUSTIVE_DIM``: it checks the triples ``Random(seed).randrange`` draws,
filtered in bulk from blocks of generator words (below n = 256 by one
``bytes.translate`` of the words' top bytes), handed on as flat blocks of
indices and checked on a tuple view of the table block by block as drawn,
in one process.  ``Config``'s seed and sample count steer that suite only.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from typing import NamedTuple, Optional

from . import jordan as jordan_mod
from . import composition, linalg, rootdata
from .errors import InvalidParameter
from .kkt import LieAlgebra
from .rationals import Q, fmt

EXHAUSTIVE_DIM = 36
SAMPLE_BLOCK = 4096  # triples' worth of generator words per draw


class Config:
    __slots__ = ("seed", "sample_count")

    def __init__(self, seed: int = 0, sample_count: int = 1000):
        if sample_count < 1:
            raise InvalidParameter("sample_count must be >= 1")
        self.seed, self.sample_count = seed, sample_count


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    checked: int
    witness: Optional[str] = None
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        w = f" witness: {self.witness}" if self.witness else ""
        return f"{self.name}: {status} [{self.checked} checks]{extra}{w}"


def jacobi_residual(g: LieAlgebra, i: int, j: int, k: int) -> dict:
    """[[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j], each term read
    as -ad(b_c)[b_a, b_b] on the integer table: den^2 times the sum, divided once."""
    t, den = g.table.cells, g.table.den
    acc: dict = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        linalg.add_combination(acc, t[c], t[a][b].items())
    return {m: Q(-v, den * den) for m, v in acc.items() if v}


def _sampled_triples(seed: int, n: int, count: int):
    """The 3 count values rng.randrange(n) of rng = Random(seed), in flat blocks
    of whole triples.  randrange(n) keeps a 32-bit word's top w = n.bit_length()
    bits and draws again at a value >= n, so each getrandbits(32 W) (first word
    lowest) is filtered in bulk: for w <= 8 the words' top bytes are shifted and
    rejected by one bytes.translate, above that the masked, shifted words are."""
    rng = random.Random(seed)
    w = n.bit_length()
    width = 3 * SAMPLE_BLOCK
    if w <= 8:
        table = bytes(b >> (8 - w) for b in range(256))
        reject = bytes(b for b in range(256) if b >> (8 - w) >= n)
        vals = bytearray()
    else:
        shift = 32 - w
        top = int.from_bytes((0xFFFFFFFF >> shift << shift).to_bytes(4, "little") * width, "little")
        vals = []
    count *= 3
    while count:
        if w <= 8:
            vals += rng.getrandbits(32 * width).to_bytes(4 * width, "little")[3::4].translate(table, reject)
        else:
            bits = (rng.getrandbits(32 * width) & top) >> shift
            words = array("I", bits.to_bytes(4 * width, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            vals += [v for v in words if v < n]
        take = min(count, len(vals) - len(vals) % 3)
        yield vals[:take]
        del vals[:take]
        count -= take


def _jacobi_chunk(view, block) -> Optional[tuple]:
    """The first triple of a flat block whose Jacobi sum is nonzero on the
    integer table, or None.  view[a][b] is the cell [b_a, b_b] as a tuple of
    (basis, int) pairs; jacobi_residual's three terms are summed with the add
    inlined, and most random brackets are empty."""
    it = iter(block)
    for i, j, k in zip(it, it, it):
        ti, tj, tk = view[i], view[j], view[k]
        acc: dict = {}
        for p, c in ti[j]:
            for m, v in tk[p]:
                acc[m] = acc.get(m, 0) + c * v
        for p, c in tj[k]:
            for m, v in ti[p]:
                acc[m] = acc.get(m, 0) + c * v
        for p, c in tk[i]:
            for m, v in tj[p]:
                acc[m] = acc.get(m, 0) + c * v
        if acc and any(acc.values()):
            return (i, j, k)
    return None


def suite_jacobi(g: LieAlgebra, cfg: Config) -> SuiteResult:
    n = g.dim
    if n <= EXHAUSTIVE_DIM:
        checked, note = n * (n - 1) * (n - 2) // 6, "exhaustive"
        blocks = [itertools.chain.from_iterable(itertools.combinations(range(n), 3))]
    else:
        checked, note = cfg.sample_count, f"sampled, seed {cfg.seed}"
        blocks = _sampled_triples(cfg.seed, n, checked)
    view = [[tuple(cell.items()) if cell else () for cell in row] for row in g.table.cells]
    # lazily: each block is checked as it is drawn, and the first hit stops the draw
    witness = next(filter(None, map(_jacobi_chunk, itertools.repeat(view), blocks)), None)
    if witness is None:
        return SuiteResult("jacobi", True, checked, note=note)
    triple = ", ".join(g.labels[t] for t in witness)
    residual = jacobi_residual(g, *witness)
    residual = ", ".join(f"{g.labels[t]}: {fmt(residual[t])}" for t in sorted(residual))
    return SuiteResult("jacobi", False, checked, f"({triple}) residual {{{residual}}}", note)


def suite_grading(g: LieAlgebra) -> SuiteResult:
    if g.grading is None:
        raise InvalidParameter("target carries no grading")
    checked = 0
    for i, j in g.upper():
        want = g.grading[i] + g.grading[j]
        checked += 1
        for k in g.table.cells[i][j]:
            if abs(want) > 2 or g.grading[k] != want:
                return SuiteResult(
                    "grading",
                    False,
                    checked,
                    witness=f"[{g.labels[i]}, {g.labels[j]}] hits {g.labels[k]} "
                    f"of degree {g.grading[k]}, expected {want}",
                )
    if g.triple is not None:
        f, h, e = g.triple
        for name, vec, expect in (("e", e, 2), ("f", f, -2)):
            got = g.bracket(h, vec)
            want = {k: expect * c for k, c in vec.items()}
            checked += 1
            if got != want:
                return SuiteResult(
                    "grading", False, checked, witness=f"[h, {name}] != {expect}*{name}"
                )
        checked += 1
        if g.bracket(e, f) != h:
            return SuiteResult("grading", False, checked, witness="[e, f] != h")
        for i in range(g.dim):
            checked += 1
            got = g.bracket(h, {i: Q(1)})
            want = {i: Q(g.grading[i])} if g.grading[i] else {}
            if got != want:
                return SuiteResult(
                    "grading",
                    False,
                    checked,
                    witness=f"[h, {g.labels[i]}] is not {g.grading[i]} * basis vector",
                )
    return SuiteResult("grading", True, checked)


def suite_killing(g: LieAlgebra) -> SuiteResult:
    # the Killing form is s T, T the int trace Gram and s != 0 (a norm pair
    # pairing to 0 raises first), so each test reads T.  Ad-invariance
    # kappa([b_i,b_j],b_k) + kappa(b_j,[b_i,b_k]) = 0 on all n^3 basis triples:
    # the two terms are entries (k, j) and (j, k) of M_i = T ad_i (column j is
    # m[j], empty where ad_i's is), in ints: each must be antisymmetric.  The
    # last i adds no power: c(x, y, z) = kappa([x, y], z) is antisymmetric in x, y,
    # and if c(x, y, z) = -c(x, z, y) for all x but x0, then c(x0, y, z) = -c(y, x0, z)
    # = c(y, z, x0) = -c(z, y, x0) = c(z, x0, y) = -c(x0, z, y) (y, z != x0; else both
    # sides are 0), so a loop one short of n certifies the same n^3 triples
    trace = g.killing_matrix()
    g.killing_scale()
    n = g.dim
    trows = [{t: c for t, c in enumerate(row) if c} for row in trace]
    for i in range(n):
        m = [
            linalg.add_combination({}, trows, col.items()) if col else col
            for col in g.table.cells[i]
        ]
        bad = [(j, k) for j, col in enumerate(m) for k, c in col.items() if c + m[k].get(j, 0)]
        if bad:
            # failures come in mirror pairs; the first triple in order has j <= k
            j, k = min(min(jk, jk[::-1]) for jk in bad)
            return SuiteResult(
                "killing",
                False,
                (i * n + j) * n + k + 1,
                witness=f"ad-invariance fails at ({g.labels[i]}, {g.labels[j]}, {g.labels[k]})",
            )
    checked = n**3
    if g.grading is not None:
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            checked += 1
            if g.grading[i] + g.grading[j] != 0 and trace[i][j] != 0:
                return SuiteResult(
                    "killing",
                    False,
                    checked,
                    witness=f"nonzero pairing across degrees at ({g.labels[i]}, {g.labels[j]})",
                )
        # pairing between the +2 and -2 blocks must be nondegenerate
        nn = g.degree_indices(2)
        nb = g.degree_indices(-2)
        block = [[trace[i][j] for j in nb] for i in nn]
        checked += 1
        if len(nn) != len(nb) or linalg.det(block) == 0:
            return SuiteResult(
                "killing", False, checked, witness="degenerate pairing between the graded blocks"
            )
    if g.norm_pair is not None:
        checked += 1
        f1, e1 = g.norm_pair
        if g.killing(f1, e1) != 1:
            return SuiteResult(
                "killing", False, checked, witness="normalization pair does not pair to 1"
            )
    return SuiteResult("killing", True, checked)


def _associator(cells, k: int, y: int, c: int) -> dict:
    """(b_k o b_y) o b_c - b_k o (b_y o b_c) on a commutative integer table."""
    acc = linalg.add_combination({}, cells[c], cells[k][y].items())
    return linalg.add_combination(acc, cells[k], [(m, -v) for m, v in cells[y][c].items()])


def suite_jordan_identity(J: jordan_mod.JordanAlgebra) -> SuiteResult:
    # commutativity on basis pairs, then the Jordan identity polarized in x:
    # sum over cyclic (a, b, c) of (a o b, y, c) = 0, ( , , ) the associator,
    # on every basis multiset {a, b, c} and basis y; over Q the polarized
    # identity is equivalent to (x^2 o y) o x = x^2 o (y o x).  The integer
    # cells of J.scaled carry every term over the same power of den.
    cells = J.scaled.cells
    n = J.dim
    pairs = list(itertools.combinations(range(n), 2))
    for t, (a, b) in enumerate(pairs):
        if cells[a][b] != cells[b][a]:
            return SuiteResult(
                "jordan-identity", False, t + 1, witness=f"commutativity fails at ({a}, {b})"
            )
    triples = list(itertools.combinations_with_replacement(range(n), 3))
    checked = len(pairs)
    for y in range(n):
        assoc = [[_associator(cells, k, y, c) for k in range(n)] for c in range(n)]
        for a, b, c in triples:
            checked += 1
            acc: dict = {}
            for u, w in ((cells[a][b], c), (cells[b][c], a), (cells[c][a], b)):
                linalg.add_combination(acc, assoc[w], u.items())
            if any(acc.values()):
                return SuiteResult(
                    "jordan-identity",
                    False,
                    checked,
                    witness=f"polarized identity fails at (a, b, c) = ({a}, {b}, {c}), y = {y}",
                )
    return SuiteResult("jordan-identity", True, checked)


def suite_composition_law(D) -> SuiteResult:
    n = D.dim
    bad = composition.composition_law_failure(D)
    if bad is not None:
        # the tuples run in lexicographic order, so bad is check number `checked`
        i, j, k, l = bad
        checked = ((i * n + j) * n + k) * n + l + 1
        return SuiteResult("composition-law", False, checked, witness=f"basis tuple {bad}")
    # conj(uv) = conj(v) conj(u) is bilinear, so the n^2 basis pairs certify it
    e = D.basis()
    for t, (i, j) in enumerate(itertools.product(range(n), repeat=2)):
        if (e[i] * e[j]).conj() != e[j].conj() * e[i].conj():
            return SuiteResult(
                "composition-law",
                False,
                n**4 + t + 1,
                witness=f"conjugation anti-multiplicativity fails at ({i}, {j})",
            )
    return SuiteResult("composition-law", True, n**4 + n**2)


def suite_pierce(J: jordan_mod.JordanAlgebra) -> SuiteResult:
    dec = jordan_mod.pierce(J)
    checked = 0
    r = J.degree
    d = dec.off_diagonal_dim
    for i in range(1, r + 1):
        checked += 1
        comp = dec.components[(i, i)]
        if len(comp) != 1:
            return SuiteResult(
                "pierce", False, checked, witness=f"component ({i},{i}) has dim {len(comp)}"
            )
    # multiplication rule: squares inside J_ij land on Q_ij(x)(e_i + e_j),
    # with Q_ij read off by coefficient comparison
    for (i, j), comp in dec.components.items():
        if i == j:
            continue
        eij = J.frame(i) + J.frame(j)
        support = next(k for k, c in enumerate(eij.vec) if c)
        vecs = list(comp) + [a + b for a, b in itertools.combinations(comp, 2)]
        for x in vecs:
            checked += 1
            sq = x * x
            qval = sq.vec[support] / eij.vec[support]
            if sq != qval * eij:
                return SuiteResult(
                    "pierce",
                    False,
                    checked,
                    witness=f"square of a ({i},{j}) component vector leaves span(e_{i}+e_{j})",
                )
    return SuiteResult(
        "pierce", True, checked, note=f"d = {d}, components sum to dim {J.dim}"
    )


def suite_q_composition(p: rootdata.ParabolicDecomposition) -> SuiteResult:
    rj = rootdata.jordan_from_roots(p)
    forms = rootdata.q_forms(p)
    r = p.degree
    if r < 3:
        return SuiteResult(
            "q-composition", True, 0, note=f"degree {r} admits no three distinct indices"
        )
    # q_jl(2 x o y) = q_il(x) q_ij(y) for x in J_il, y in J_ij is quadratic in
    # x and in y; polarized in both it reads
    #   B_jl(2ab, 2a'b') + B_jl(2ab', 2a'b) = B_il(a, a') B_ij(b, b')
    # and basis multisets {a, a'}, {b, b'} certify it, B(e_s, e_t) = 2 G[s][t].
    # In ints the Grams are D G over their lcm D and prod[a][b] = den (a o b),
    # held sparse; each term x^T G y is read as the dot of x with G y, formed
    # once per product as gprod.  With S the two terms summed,
    # lhs = 8 S / (den^2 D), rhs = 4 G G / D^2
    pos, den, cells = rj.position, rj.scaled.den, rj.scaled.cells
    scaled = linalg.scale_table([[dict(enumerate(row)) for row in f.gram] for f in forms.values()])
    grams = dict(zip(forms, scaled.cells))
    checked = 0
    for i, j, l in itertools.permutations(range(1, r + 1), 3):
        pairs = [(min(s, t), max(s, t)) for s, t in ((i, l), (i, j), (j, l))]
        (f_il, f_ij, f_jl), (G_il, G_ij, G_jl) = [forms[k] for k in pairs], [grams[k] for k in pairs]
        col = [pos[c] for c in f_jl.roots]
        prod = [
            [[(t, v) for t, c in enumerate(col) if (v := cells[pos[a]][pos[b]].get(c))] for b in f_ij.roots]
            for a in f_il.roots
        ]
        gprod = [[[sum(g[t] * v for t, v in x) for g in G_jl] for x in row] for row in prod]
        for a, a2 in itertools.combinations_with_replacement(range(len(f_il.roots)), 2):
            for b, b2 in itertools.combinations_with_replacement(range(len(f_ij.roots)), 2):
                checked += 1
                lhs = sum(v * gprod[a2][b2][t] for t, v in prod[a][b])
                lhs += sum(v * gprod[a2][b][t] for t, v in prod[a][b2])
                if 2 * scaled.den * lhs != den * den * G_il[a][a2] * G_ij[b][b2]:
                    witness = f"indices ({i},{j},{l}) a, a' = {a}, {a2} b, b' = {b}, {b2}"
                    return SuiteResult("q-composition", False, checked, witness=witness)
    return SuiteResult("q-composition", True, checked)


def suite_cross_validate(p: rootdata.ParabolicDecomposition) -> SuiteResult:
    cv = rootdata.cross_validate(p)
    checked = cv.dim * (cv.dim - 1) // 2
    if not cv.ok:
        return SuiteResult(
            "cross-validate", False, checked, witness=f"first mismatch at {cv.mismatches[0]}"
        )
    # "E7" already names its rank; "A" with rank 3 reads "A3"
    rs = p.algebra.root_system
    name = rs.type_label if rs.type_label[-1].isdigit() else f"{rs.type_label}{rs.rank}"
    return SuiteResult("cross-validate", True, checked, note=f"{name} node {p.node}, dim {cv.dim}")

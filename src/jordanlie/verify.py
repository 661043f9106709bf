"""Named verification suites over built algebras.

Each suite checks one family of identities and reports a pass/fail result
with a named witness on failure.  Suites are deterministic: sampled suites
draw from a seeded generator, and exhaustive/sampled switchover depends
only on the dimension.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import jordan as jordan_mod
from . import composition, linalg, rootdata
from .errors import InvalidParameter
from .kkt import LieAlgebra
from .linalg import vec_add
from .rationals import Q, fmt

EXHAUSTIVE_DIM = 36


@dataclass
class Config:
    seed: int = 0
    sample_count: int = 1000
    jobs: int = 1

    def __post_init__(self):
        if self.sample_count < 1:
            raise InvalidParameter("sample_count must be >= 1")
        if self.jobs < 1:
            raise InvalidParameter(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class SuiteResult:
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
    r = g.bracket(g.bracket_basis(i, j), {k: Q(1)})
    r = vec_add(r, g.bracket(g.bracket_basis(j, k), {i: Q(1)}))
    r = vec_add(r, g.bracket(g.bracket_basis(k, i), {j: Q(1)}))
    return r


def _jacobi_chunk(args) -> Optional[tuple]:
    g, triples = args
    for (i, j, k) in triples:
        if jacobi_residual(g, i, j, k):
            return (i, j, k)
    return None


def suite_jacobi(g: LieAlgebra, cfg: Config) -> SuiteResult:
    n = g.dim
    if n <= EXHAUSTIVE_DIM:
        triples = list(itertools.combinations(range(n), 3))
        note = "exhaustive"
    else:
        rng = random.Random(cfg.seed)
        triples = [
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(cfg.sample_count)
        ]
        note = f"sampled, seed {cfg.seed}"
    chunks = _split(triples, cfg.jobs)
    if len(chunks) <= 1:
        hits = [_jacobi_chunk((g, ch)) for ch in chunks]
    else:
        import multiprocessing

        lite = LieAlgebra(labels=g.labels, brackets=g.brackets, grading=g.grading)
        with multiprocessing.Pool(min(cfg.jobs, len(chunks))) as pool:
            hits = pool.map(_jacobi_chunk, [(lite, ch) for ch in chunks])
    # chunks are consecutive runs of triples, so the first hit in chunk
    # order is the first failing triple whatever the number of jobs
    witness = next((h for h in hits if h is not None), None)
    if witness is not None:
        i, j, k = witness
        residual = ", ".join(
            f"{g.labels[t]}: {fmt(c)}" for t, c in sorted(jacobi_residual(g, i, j, k).items())
        )
        return SuiteResult(
            "jacobi",
            False,
            len(triples),
            witness=f"({g.labels[i]}, {g.labels[j]}, {g.labels[k]}) residual {{{residual}}}",
            note=note,
        )
    return SuiteResult("jacobi", True, len(triples), note=note)


def _split(items, parts):
    """items cut into at most parts consecutive chunks, none empty."""
    size = max(1, -(-len(items) // parts))
    return [items[i : i + size] for i in range(0, len(items), size)]


def suite_grading(g: LieAlgebra, cfg: Config) -> SuiteResult:
    if g.grading is None:
        raise InvalidParameter("target carries no grading")
    checked = 0
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            b = g.brackets.get((i, j))
            if not b:
                continue
            want = g.grading[i] + g.grading[j]
            checked += 1
            for k in b:
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


def suite_killing(g: LieAlgebra, cfg: Config) -> SuiteResult:
    mat = g.killing_matrix()
    n = g.dim
    checked = 0
    # ad-invariance kappa([x,y],z) + kappa(y,[x,z]) = 0
    if n <= 21:
        triples = list(itertools.product(range(n), repeat=3))
    else:
        rng = random.Random(cfg.seed)
        triples = [
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(min(cfg.sample_count, 5000))
        ]
    for (i, j, k) in triples:
        lhs = g.killing(g.bracket_basis(i, j), {k: Q(1)})
        rhs = g.killing({j: Q(1)}, g.bracket_basis(i, k))
        checked += 1
        if lhs + rhs != 0:
            return SuiteResult(
                "killing",
                False,
                checked,
                witness=f"ad-invariance fails at ({g.labels[i]}, {g.labels[j]}, {g.labels[k]})",
            )
    if g.grading is not None:
        for i in range(n):
            for j in range(i, n):
                checked += 1
                if g.grading[i] + g.grading[j] != 0 and mat[i][j] != 0:
                    return SuiteResult(
                        "killing",
                        False,
                        checked,
                        witness=f"nonzero pairing across degrees at ({g.labels[i]}, {g.labels[j]})",
                    )
        # pairing between the +2 and -2 blocks must be nondegenerate
        nn = g.degree_indices(2)
        nb = g.degree_indices(-2)
        block = [[mat[i][j] for j in nb] for i in nn]
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


def suite_jordan_identity(J: jordan_mod.JordanAlgebra, cfg: Config) -> SuiteResult:
    rng = random.Random(cfg.seed)
    for trial in range(cfg.sample_count):
        x = J.element([Q(rng.randint(-9, 9)) for _ in range(J.dim)])
        y = J.element([Q(rng.randint(-9, 9)) for _ in range(J.dim)])
        sq = x * x
        if (sq * y) * x != sq * (y * x):
            return SuiteResult(
                "jordan-identity",
                False,
                trial + 1,
                witness=f"x={x.vec} y={y.vec}",
            )
        if x * y != y * x:
            return SuiteResult(
                "jordan-identity", False, trial + 1, witness=f"commutativity x={x.vec} y={y.vec}"
            )
    return SuiteResult("jordan-identity", True, cfg.sample_count, note=f"seed {cfg.seed}")


def suite_composition_law(D, cfg: Config) -> SuiteResult:
    rng = random.Random(cfg.seed)
    n = D.dim
    bad = composition.composition_law_failure(D)
    if bad is not None:
        # the tuples run in lexicographic order, so bad is check number `checked`
        i, j, k, l = bad
        checked = ((i * n + j) * n + k) * n + l + 1
        return SuiteResult("composition-law", False, checked, witness=f"basis tuple {bad}")
    checked = n**4
    for trial in range(cfg.sample_count):
        u = D.element([Q(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(n)])
        v = D.element([Q(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(n)])
        checked += 1
        if (u * v).norm() != u.norm() * v.norm():
            return SuiteResult(
                "composition-law", False, checked, witness=f"u={u.coeffs} v={v.coeffs}"
            )
        if (u * v).conj() != v.conj() * u.conj():
            return SuiteResult(
                "composition-law",
                False,
                checked,
                witness=f"conjugation anti-multiplicativity u={u.coeffs} v={v.coeffs}",
            )
    return SuiteResult("composition-law", True, checked, note=f"seed {cfg.seed}")


def suite_pierce(J: jordan_mod.JordanAlgebra, cfg: Config) -> SuiteResult:
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


def suite_q_composition(p: rootdata.ParabolicDecomposition, cfg: Config) -> SuiteResult:
    rj = rootdata.jordan_from_roots(p)
    forms = rootdata.q_forms(p)
    r = p.degree
    triples = [
        (i, j, l)
        for i in range(1, r + 1)
        for j in range(1, r + 1)
        for l in range(1, r + 1)
        if len({i, j, l}) == 3
    ]
    if not triples:
        return SuiteResult(
            "q-composition", True, 0, note=f"degree {r} admits no three distinct indices"
        )
    rng = random.Random(cfg.seed)
    for trial in range(cfg.sample_count):
        i, j, l = triples[rng.randrange(len(triples))]
        f_il = forms[tuple(sorted((i, l)))]
        f_ij = forms[tuple(sorted((i, j)))]
        f_jl = forms[tuple(sorted((j, l)))]
        x = rj.embed(f_il.roots, [Q(rng.randint(-5, 5)) for _ in f_il.roots])
        y = rj.embed(f_ij.roots, [Q(rng.randint(-5, 5)) for _ in f_ij.roots])
        doubled = tuple(2 * c for c in rj.mul_vec(x, y))
        lhs = f_jl.value(rj.restrict(f_jl.roots, doubled))
        rhs = f_il.value(rj.restrict(f_il.roots, x)) * f_ij.value(rj.restrict(f_ij.roots, y))
        if lhs != rhs:
            return SuiteResult(
                "q-composition",
                False,
                trial + 1,
                witness=f"indices ({i},{j},{l}) x={x} y={y}",
            )
    return SuiteResult("q-composition", True, cfg.sample_count, note=f"seed {cfg.seed}")


def suite_cross_validate(p: rootdata.ParabolicDecomposition, cfg: Config) -> SuiteResult:
    cv = rootdata.cross_validate(p)
    if not cv.ok:
        return SuiteResult(
            "cross-validate",
            False,
            cv.dim * (cv.dim - 1) // 2,
            witness=f"first mismatch at {cv.mismatches[0]}",
        )
    # "E7" already names its rank; "A" with rank 3 reads "A3"
    rs = p.algebra.root_system
    name = rs.type_label if rs.type_label[-1].isdigit() else f"{rs.type_label}{rs.rank}"
    return SuiteResult(
        "cross-validate",
        True,
        cv.dim * (cv.dim - 1) // 2,
        note=f"{name} node {p.node}, dim {cv.dim}",
    )


def corrupted_copy(g: LieAlgebra, i: int, j: int, k: int, delta: Fraction) -> LieAlgebra:
    """Copy of g with the coefficient of basis k in [b_i, b_j] shifted."""
    if not (0 <= i < j < g.dim):
        raise InvalidParameter("need 0 <= i < j < dim")
    brackets = {key: dict(vec) for key, vec in g.brackets.items()}
    vec = brackets.setdefault((i, j), {})
    new = vec.get(k, Q(0)) + Q(delta)
    if new:
        vec[k] = new
    else:
        del vec[k]
    if not vec:
        del brackets[(i, j)]
    return replace(g, brackets=brackets)

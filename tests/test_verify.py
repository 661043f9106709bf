"""The sampled Jacobi draw and the kernel that checks it."""

import itertools
import random
import tracemalloc
from fractions import Fraction as Q

import pytest

from jordanlie import verify

from conftest import corrupted_copy, stored_brackets

BLOCK = verify.SAMPLE_BLOCK


@pytest.mark.parametrize("n", [1, 2, 37, 64, 128, 133, 248, 255, 256, 1000])
def test_sampled_triples_are_randranges_triples(n):
    # randrange(n) at a power of two, just above one, at the top of the byte
    # draw (n < 256) and on the word draw past it
    for seed, count in itertools.product((0, 1, 42), (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2)):
        rng = random.Random(seed)
        want = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(count)]
        blocks = list(verify._sampled_triples(seed, n, count))
        assert all(blocks), (n, seed, count)
        it = itertools.chain.from_iterable(blocks)
        assert list(zip(it, it, it)) == want, (n, seed, count)
        assert all(len(block) % 3 == 0 for block in blocks), (n, seed, count)


def test_one_job_streams_the_sample(split_builds):
    # one block of triples at a time, never the list of all 100,000
    g = split_builds("E7", 7)
    tracemalloc.start()
    try:
        res = verify.suite_jacobi(g, verify.Config(sample_count=100000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.line() == "jacobi: PASS [100000 checks] (sampled, seed 0)"
    assert peak <= 2_000_000, peak


def test_kernel_flags_exactly_the_nonzero_residuals(kkt_builds, split_builds):
    c3 = kkt_builds("C3")
    (i, j), vec = min(stored_brackets(c3).items())
    corrupted = [split_builds("A", 6), 0, 47, 3, 1], [c3, i, j, min(vec), Q(1, 2)]
    for bad in (corrupted_copy(*args) for args in corrupted):
        triples = list(itertools.combinations(range(bad.dim), 3))
        want = [t if verify.jacobi_residual(bad, *t) else None for t in triples]
        view = [[tuple(cell.items()) for cell in row] for row in bad.table.cells]
        assert [verify._jacobi_chunk(view, t) for t in triples] == want
        assert any(want)


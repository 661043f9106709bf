from dataclasses import replace
from fractions import Fraction

import pytest

from jordanlie import jordan, kkt, rootdata
from jordanlie.composition import build_composition
from jordanlie.errors import InvalidParameter


@pytest.fixture(scope="session")
def rationals_algebra():
    return build_composition(1, [])


@pytest.fixture(scope="session")
def split_complex():
    return build_composition(2, [1])


@pytest.fixture(scope="session")
def split_quaternions():
    return build_composition(4, [1, 1])


@pytest.fixture(scope="session")
def split_octonions():
    return build_composition(8, [1, 1, 1])


def stored_brackets(g):
    """The nonzero brackets [b_i, b_j], i < j, of g as to_json writes them:
    {(i, j): {k: Fraction}}."""
    from fractions import Fraction as Q

    return {(i, j): {k: Q(c) for k, c in items} for i, j, items in kkt.to_json(g)["brackets"]}


def corrupted_copy(g: kkt.LieAlgebra, i: int, j: int, k: int, delta: Fraction) -> kkt.LieAlgebra:
    """Copy of g with the coefficient of basis k in [b_i, b_j] shifted."""
    if not (0 <= i < j < g.dim):
        raise InvalidParameter("need 0 <= i < j < dim")
    cells, den = g.table.cells, g.table.den
    brackets = {(a, b): (dict(cells[a][b]), den) for a, b in g.upper()}
    vec, _ = brackets.setdefault((i, j), ({}, den))
    new = vec.get(k, 0) + den * Fraction(delta)
    if new:
        vec[k] = new
    else:
        del vec[k]
    return replace(g, table=kkt.bracket_table(g.dim, brackets.items))


def split_gram(dim):
    """Hyperbolic planes (Q = xy) padded with a unit square."""
    from fractions import Fraction as Q

    g = [[Q(0)] * dim for _ in range(dim)]
    k = 0
    while k + 1 < dim:
        g[k][k + 1] = g[k + 1][k] = Q(1, 2)
        k += 2
    if k < dim:
        g[k][k] = Q(1)
    return g


@pytest.fixture(scope="session")
def family_instances(rationals_algebra, split_complex, split_octonions):
    """The table's family instances, keyed by their split-group name."""
    return {
        "C2": jordan.hermitian(2, rationals_algebra),
        "C3": jordan.hermitian(3, rationals_algebra),
        "A3": jordan.hermitian(2, split_complex),
        "A5": jordan.hermitian(3, split_complex),
        "B3": jordan.quadratic(split_gram(3)),
        "D4": jordan.quadratic(split_gram(4)),
        "E7": jordan.hermitian(3, split_octonions),
    }


_kkt_cache = {}


@pytest.fixture(scope="session")
def kkt_builds(family_instances):
    def get(name):
        if name not in _kkt_cache:
            _kkt_cache[name] = kkt.build_kkt(family_instances[name])
        return _kkt_cache[name]

    return get


_split_cache = {}


@pytest.fixture(scope="session")
def split_builds():
    """Chevalley builds shared across the session (build_split_lie itself
    returns a fresh algebra on every call); tests must not mutate them."""

    def get(type_label, rank):
        key = (type_label, rank)
        if key not in _split_cache:
            _split_cache[key] = rootdata.build_split_lie(type_label, rank)
        return _split_cache[key]

    return get

import dataclasses
import math
import random
from fractions import Fraction as Q

import pytest

from jordanlie import linalg, rootdata
from jordanlie.cli import parse_jordan_descriptor
from jordanlie.composition import build_composition

# tables whose common denominators are 42, 10 and 8, beside the dyadic family
NON_DYADIC = {
    "jordan:H2:quaternion:1/3,-5/7": 42,
    "jordan:J2:dim=2:gram=1/2,3/5": 10,
    "jordan:H3:complex:-7/4": 8,
}


@pytest.fixture(scope="module")
def tables(family_instances, split_builds):
    """name -> (Fraction table, ScaledTable) for every dense product caller."""
    algebras = dict(family_instances)
    algebras.update((d, parse_jordan_descriptor(d)) for d in NON_DYADIC)
    out = {}
    for name, alg in algebras.items():
        out[name] = (alg.mul_table, alg.scaled)
        if alg.variant == "hermitian":
            D = alg.coeff_algebra
            out[f"{name}/{D.descriptor}"] = (D.mul_table, D.scaled)
    rj = rootdata.jordan_from_roots(rootdata.parabolic(split_builds("C", 3), 3))
    out["root:C:3:node=3"] = (rj.table, rj.scaled)
    return out


def oracle(table, x, y):
    prod = linalg.table_product({}, table, enumerate(x), enumerate(y))
    return tuple(prod.get(k, Q(0)) for k in range(len(table)))


def sample_inputs(rng, n):
    """Mixed denominators, zero vectors, single basis vectors, negative and
    sparse entries."""
    def mixed():
        return tuple(
            Q(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12, 35))) if rng.random() < 0.6 else Q(0)
            for _ in range(n)
        )

    zero = (Q(0),) * n
    units = [tuple(Q(c if k == i else 0) for k in range(n)) for i in range(n) for c in (1, Q(-5, 6))]
    dense = [mixed() for _ in range(12)]
    pairs = [(zero, zero), (zero, dense[0]), (dense[0], zero), (units[0], zero)]
    pairs += [(rng.choice(units), rng.choice(units + dense)) for _ in range(20)]
    pairs += [(rng.choice(dense), rng.choice(units + dense)) for _ in range(20)]
    return pairs


def test_dense_product_equals_fraction_oracle(tables):
    rng = random.Random(6)
    for name, (table, scaled) in tables.items():
        for x, y in sample_inputs(rng, len(table)):
            got = linalg.dense_product(scaled, x, y)
            assert got == oracle(table, x, y), (name, x, y)
            assert all(type(c) is Q for c in got), name


def test_scale_table_is_the_least_common_denominator(tables):
    dens = {name: scaled.den for name, (_, scaled) in tables.items()}
    for name, den in NON_DYADIC.items():
        assert dens[name] == den
    assert dens["jordan:H3:complex:-7/4/complex:-7/4"] == 4
    for name, (table, scaled) in tables.items():
        coeffs = [c for row in table for cell in row for c in cell.values()]
        assert scaled.den == math.lcm(*(Q(c).denominator for c in coeffs)), name
        for i, row in enumerate(table):
            for j, cell in enumerate(row):
                assert scaled.cells[i][j] == {k: c * scaled.den for k, c in cell.items()}
                assert all(type(c) is int for c in scaled.cells[i][j].values())


def test_replace_rescales_a_corrupted_table():
    D = build_composition(4, [Q(1, 3), Q(-5, 7)])
    table = [list(row) for row in D.mul_table]
    table[1][2] = {0: Q(5, 11), 3: Q(-1)}
    bad = dataclasses.replace(D, mul_table=tuple(map(tuple, table)))
    assert bad.scaled == linalg.scale_table(bad.mul_table) != D.scaled
    assert bad.scaled.den % 11 == 0
    e1, e2 = bad.basis_element(1).coeffs, bad.basis_element(2).coeffs
    assert bad.mul_coeffs(e1, e2) == (Q(5, 11), Q(0), Q(0), Q(-1))
    assert D.mul_coeffs(e1, e2) != bad.mul_coeffs(e1, e2)

from fractions import Fraction

import pytest

from jordanlie import jordan, kkt, linalg, rootdata
from jordanlie.composition import CAElement, CompositionAlgebra, build_composition
from jordanlie.errors import ConstructionError, InvalidParameter


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
    brackets = {(a, b): {r: Fraction(c, den) for r, c in cells[a][b].items()} for a, b in g.upper()}
    vec = brackets.setdefault((i, j), {})
    new = vec.get(k, 0) + Fraction(delta)
    if new:
        vec[k] = new
    else:
        del vec[k]
    return kkt.LieAlgebra(g.labels, kkt.bracket_table(g.dim, brackets), g.grading, g.triple, g.norm_pair, g.root_system)


def root_string_down(rs, a, b):
    """Largest p >= 0 with b - p*a a root of the root system rs."""
    p = 0
    cur = tuple(x - y for x, y in zip(b, a))
    while any(cur) and rs.is_root(cur):
        p += 1
        cur = tuple(x - y for x, y in zip(cur, a))
    return p


def root_jordan_product(rj):
    """x o y on Fraction coordinate vectors of a root Jordan algebra, through
    a product plan formed from its scaled table."""
    plan = linalg.product_plan(rj.scaled)
    return lambda x, y: linalg.dense_product(plan, x, y)


def composition_copy(D, mul_table=None, norm_gram=None):
    """D with its multiplication table or norm Gram swapped, no build-time
    check run; the constructor forms the copy's scaled tables anew."""
    mul_table = D.mul_table if mul_table is None else mul_table
    norm_gram = D.norm_gram if norm_gram is None else norm_gram
    return CompositionAlgebra(D.dim, D.gammas, D.basis_labels, mul_table, norm_gram, D.descriptor)


def ca_add(u, v):
    """u + v, for two elements of one composition algebra."""
    return CAElement(u.algebra, tuple(a + b for a, b in zip(u.coeffs, v.coeffs)))


def ca_scale(c, u):
    """The rational c times a composition algebra element u."""
    return CAElement(u.algebra, tuple(Fraction(c) * a for a in u.coeffs))


def ca_norm(u):
    """The norm N(u) = u^T G u of a composition algebra element."""
    return linalg.gram_form(u.algebra.norm_gram, enumerate(u.coeffs), enumerate(u.coeffs))


def identity(n):
    """The n x n identity as a dense Fraction matrix."""
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def dense_inverse(mat):
    """linalg.invert's column-sparse ints over one denominator, read back as
    the dense inverse in Fraction rows."""
    cols, den = linalg.invert(mat)
    return [[Fraction(col.get(r, 0), den) for col in cols] for r in range(len(mat))]


def mat_vec(a, v):
    """The dense product a @ v, as a list of Fractions."""
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for row in a]


def lmul_matrix(alg, x):
    """Matrix of z -> x o z in a Jordan algebra's basis (columns x o b_j), for
    a coefficient vector x, from the scaled table."""
    xs, dx = linalg.scale_vec(enumerate(x))
    cols = jordan.lmul_cols(alg.scaled.cells, xs)
    return [[Fraction(col.get(i, 0), dx * alg.scaled.den) for col in cols] for i in range(alg.dim)]


def coordinatization_apply(co, root_vec):
    """The model element a coordinatization sends a root coordinate vector to."""
    return co.model.element(mat_vec(co.matrix, list(root_vec)))


def matrix_of(alg, vec):
    """The full r x r matrix over D of a hermitian algebra's coefficient
    vector (lower triangle by conjugation)."""
    D = alg.coeff_algebra
    d = D.dim
    mat = [[D.zero() for _ in range(alg.r)] for _ in range(alg.r)]
    for i in range(alg.r):
        mat[i][i] = ca_scale(vec[i], D.one())
    for (i, j), off in alg._pair_offset.items():
        entry = D.element(vec[off : off + d])
        mat[i][j] = entry
        mat[j][i] = entry.conj()
    return mat


def vector_of(alg, mat):
    """Inverse of matrix_of; raises unless the matrix is hermitian with a
    scalar diagonal."""
    D = alg.coeff_algebra
    out = [Fraction(0)] * alg.dim
    for i in range(alg.r):
        entry = mat[i][i]
        if any(entry.coeffs[1:]):
            raise ConstructionError("diagonal entry is not scalar")
        out[i] = entry.coeffs[0]
    for (i, j), off in alg._pair_offset.items():
        if mat[j][i] != mat[i][j].conj():
            raise ConstructionError("matrix is not hermitian")
        for k, c in enumerate(mat[i][j].coeffs):
            out[off + k] = c
    return tuple(out)


def matrix_product(alg, a, b):
    """Plain matrix product over D, fixed summation order."""
    D = alg.coeff_algebra
    r = alg.r
    out = [[D.zero() for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for k in range(r):
            acc = D.zero()
            for j in range(r):
                acc = ca_add(acc, a[i][j] * b[j][k])
            out[i][k] = acc
    return out


def symmetrized_product(alg, x, y):
    """(xy + yx)/2 of two coefficient vectors of a hermitian algebra, through
    genuine matrix multiplication over D: the reference its table is checked
    against."""
    a, b = matrix_of(alg, x), matrix_of(alg, y)
    ab, ba = matrix_product(alg, a, b), matrix_product(alg, b, a)
    half = Fraction(1, 2)
    sym = [[ca_scale(half, ca_add(ab[i][j], ba[i][j])) for j in range(alg.r)] for i in range(alg.r)]
    return vector_of(alg, sym)


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

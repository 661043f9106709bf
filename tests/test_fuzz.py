"""Boundary fuzzing of the command line, in process.

Whatever the descriptor, JSON document or ``--out`` path, ``cli.main`` must
return 0, 1 or 2, return 1 only with a FAIL line, and let no exception
escape.  Descriptors are spliced from the grammar's own tokens with integers
in [-2, 4]; E7 and the 8-dimensional H3 are left out to keep the run short
and sampled suites take at most 5 samples.  ``--jobs`` is drawn from
[-2, 1]: it changes no output, and ``verify`` refuses a value below 1.
Structure-constant documents may repeat a bracket pair or a basis index
and carry zero constants, since the reader checks them in one pass.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordanlie.cli import ALL_SUITES, main

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

INTS = st.integers(-2, 4).map(str)
RATIONALS = INTS | st.sampled_from(["1/2", "-3/4", "2/0", "1_0", " 3", "x", ""])
# mostly well formed, so that documents get past the parser into the suites
NUMBERS = st.one_of(INTS, INTS, st.sampled_from(["1/2", "-3/4"]), RATIONALS)
COEFFS = st.one_of(
    st.sampled_from(["field", "split-complex", "quaternion:split", "octonion:split", "complex"]),
    st.builds("complex:{}".format, RATIONALS),
    st.builds("quaternion:{},{}".format, RATIONALS, RATIONALS),
    st.builds("octonion:{},{},{}".format, RATIONALS, RATIONALS, RATIONALS),
)
GRAMS = st.sampled_from(["I", "split", ""]) | st.lists(RATIONALS, max_size=4).map(",".join)
TOKENS = st.sampled_from(
    ["jordan", "root", "H", "J2", "dim=", "gram=", "node=", "A", "B", "C", "D", "field", "x"]
)
DESCRIPTORS = st.one_of(
    st.builds("jordan:H{}:{}".format, INTS, COEFFS),
    st.builds("jordan:J2:dim={}:gram={}".format, INTS, GRAMS),
    st.builds("root:{}:{}".format, st.sampled_from("ABCDG"), INTS),
    st.builds("root:{}:{}:node={}".format, st.sampled_from("ABCD"), INTS, INTS),
    st.lists(TOKENS | INTS, min_size=1, max_size=5).map(":".join),
).filter(lambda d: not ("H3" in d and "octonion" in d))

LEAVES = st.none() | st.booleans() | st.integers(-2, 4) | RATIONALS
KEYS = st.sampled_from(
    ["basis", "brackets", "label", "degree", "triple", "norm_pair", "f", "h", "e"]
    + ["algebra", "element", "diag", "upper", "1,2", "a", "b", "v", "coeffs"]
)
JSON = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(KEYS, kids, max_size=4),
    max_leaves=12,
)
INDICES = st.integers(0, 4) | st.integers(-1, 6)
SPARSE = st.lists(st.tuples(INDICES, NUMBERS).map(list), max_size=2)
CONSTANTS = NUMBERS | st.sampled_from(["0", "0/3"])
BRACKET_SPARSE = st.lists(st.tuples(INDICES, CONSTANTS).map(list), max_size=2)
VECTORS = st.fixed_dictionaries({"f": SPARSE, "h": SPARSE, "e": SPARSE}) | JSON
DEGREES = st.one_of(st.integers(-2, 2), st.integers(-2, 2), LEAVES)
LIE_OBJECTS = st.fixed_dictionaries(
    {
        "basis": st.lists(
            st.fixed_dictionaries({"label": st.sampled_from("xyz")}, optional={"degree": DEGREES}),
            min_size=1,
            max_size=5,
        ),
        # the brackets are read in one pass, so order matters: a pair may
        # come again at the end, and a constant may be zero
        "brackets": st.tuples(
            st.lists(
                st.tuples(INDICES, st.integers(1, 2) | INDICES, BRACKET_SPARSE).map(
                    lambda t: [t[0], t[0] + t[1], t[2]]
                ),
                max_size=3,
            ),
            st.booleans(),
        ).map(lambda t: t[0] + t[0][:1] if t[1] else t[0]),
    },
    optional={"triple": VECTORS, "norm_pair": VECTORS},
)
# three basis vectors and in-range pairs only, so that most documents get
# into the bracket pass: pairs come again, and zero constants are common
IN_RANGE_OBJECTS = st.fixed_dictionaries(
    {
        "basis": st.just([{"label": "x"}, {"label": "y"}, {"label": "z"}]),
        "brackets": st.lists(
            st.tuples(
                st.sampled_from([(0, 1), (0, 2), (1, 2)]),
                st.lists(st.tuples(st.integers(0, 2), CONSTANTS).map(list), max_size=3),
            ).map(lambda t: [*t[0], t[1]]),
            max_size=4,
        ),
    }
)
LIE_DOCS = st.one_of(JSON, LIE_OBJECTS, LIE_OBJECTS, IN_RANGE_OBJECTS)


def hermitian_doc(algebra, r, d):
    upper = st.fixed_dictionaries({"coeffs": st.lists(NUMBERS, min_size=d, max_size=d)})
    element = st.fixed_dictionaries(
        {"diag": st.lists(NUMBERS, min_size=r, max_size=r)},
        optional={
            "upper": st.dictionaries(
                st.sampled_from(["1,2", "1,3", "2,3", "2,1", "x"]), upper | LEAVES, max_size=2
            )
        },
    )
    return st.fixed_dictionaries({"algebra": st.just(algebra), "element": element})


def quadratic_doc(algebra, n):
    element = st.fixed_dictionaries(
        {"a": NUMBERS, "b": NUMBERS, "v": st.lists(NUMBERS, min_size=n, max_size=n)}
    )
    return st.fixed_dictionaries({"algebra": st.just(algebra), "element": element})


ELEMENT_DOCS = st.one_of(
    JSON,
    st.fixed_dictionaries({"algebra": DESCRIPTORS, "element": JSON}),
    hermitian_doc("jordan:H2:field", 2, 1),
    hermitian_doc("jordan:H3:field", 3, 1),
    hermitian_doc("jordan:H2:split-complex", 2, 2),
    quadratic_doc("jordan:J2:dim=2:gram=1/2,3/5", 2),
    quadratic_doc("jordan:J2:dim=3:gram=split", 3),
)
PLACES = st.lists(INTS | st.sampled_from(["inf", "oo", "", "x"]), max_size=3).map(",".join)
OUTS = st.sampled_from([None, "missing directory", "directory"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def check(argv, out, workdir):
    if out is not None:
        path = workdir / "missing" / "x.json" if out == "missing directory" else workdir
        argv = argv + ["--out", str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert ": FAIL [" in stdout.getvalue(), argv
    if out is not None:
        assert code == 2, argv


def write(workdir, doc) -> str:
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@FUZZ
@given(
    command=st.sampled_from(["build", "verify", "export"]),
    descriptor=DESCRIPTORS,
    samples=st.integers(-2, 5),
    jobs=st.integers(-2, 1),
    suites=st.none() | st.lists(st.sampled_from(ALL_SUITES + ("x",)), min_size=1, max_size=3),
    report=st.booleans(),
    out=OUTS,
)
@example("build", "jordan:H2:field", 5, 1, None, False, "directory")
@example("verify", "root:C:2", 5, 1, None, False, "missing directory")
def test_descriptors(workdir, command, descriptor, samples, jobs, suites, report, out):
    argv = [command, descriptor, "--samples", str(samples), "--jobs", str(jobs)]
    if command == "verify" and suites:
        argv += ["--suites", ",".join(suites)]
    if command == "export" and report:
        argv += ["--format", "report"]
    check(argv, out, workdir)


# [x, y] = x and [y, z] = y break the Jacobi identity on (x, y, z)
JACOBI_FAILS = {
    "basis": [{"label": "x"}, {"label": "y"}, {"label": "z"}],
    "brackets": [[0, 1, [[0, "1"]]], [1, 2, [[1, "1"]]]],
}


@FUZZ
@given(doc=LIE_DOCS, samples=st.integers(1, 5), out=OUTS)
@example(JACOBI_FAILS, 1, None)
@example(JACOBI_FAILS, 1, "directory")
def test_verify_documents(workdir, doc, samples, out):
    check(["verify", write(workdir, doc), "--samples", str(samples)], out, workdir)


@FUZZ
@given(doc=ELEMENT_DOCS, places=st.none() | PLACES, out=OUTS)
@example({"algebra": "jordan:H2:field", "element": {"diag": ["1", "2"]}}, None, "directory")
def test_classify_documents(workdir, doc, places, out):
    argv = ["classify", write(workdir, doc)]
    if places is not None:
        argv += ["--places", places]
    check(argv, out, workdir)

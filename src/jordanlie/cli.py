"""Command-line front end.

Subcommands:

* ``build DESC``      construct an algebra, emit structure-constant JSON
* ``verify TARGET``   run named verification suites, exit 1 on any failure
* ``classify FILE``   diagonalize an element, report rank and local classes
* ``export DESC``     JSON or plain-text report for an instance

Algebra descriptors:

* ``jordan:H<r>:<coefficient algebra>`` with coefficient algebras
  ``field`` | ``split-complex`` | ``complex:g`` | ``quaternion:g1,g2`` |
  ``octonion:g1,g2,g3`` | ``quaternion:split`` | ``octonion:split``
* ``jordan:J2:dim=<n>[:gram=I|split|g1,g2,...]``
* ``root:<A|B|C|D|E7>:<rank>[:node=<j>]``

Exit codes: 0 success, 1 verification failure, 2 usage, parse or
construction error, or an ``--out`` path that cannot be written.
All rationals cross the boundary as "p/q" strings; identical invocations
with identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional

from . import composition, jordan, kkt, orbits, rootdata, verify
from .errors import AlgebraMismatch, ConstructionError, InvalidParameter
from .rationals import Q, parse as parse_rational, to_int

USAGE_ERROR = 2
VERIFY_ERROR = 1


class Target:
    """Resolved verify/build target; lie and parabolic are filled on first use."""

    __slots__ = ("kind", "jordan_algebra", "lie", "split", "node", "parabolic")

    def __init__(
        self,
        kind: str,  # "jordan" | "root" | "lie-json"
        jordan_algebra: Optional[jordan.JordanAlgebra] = None,
        lie: Optional[kkt.LieAlgebra] = None,
        split: Optional[kkt.LieAlgebra] = None,  # Chevalley build of a root: target
        node: Optional[int] = None,  # its node=, if given
        parabolic: Optional[rootdata.ParabolicDecomposition] = None,
    ):
        self.kind, self.jordan_algebra, self.lie, self.split = kind, jordan_algebra, lie, split
        self.node, self.parabolic = node, parabolic


def _parse_int(value: str, name: str, text: str) -> int:
    # plain ASCII digits only: int() would also take "1_0", " 3" or "+3"
    if not re.fullmatch(r"-?[0-9]+", value):
        raise InvalidParameter(f"{name} must be an integer, got {value!r} in {text!r}")
    return to_int(value, text)


def _options(opts, names, text: str) -> dict:
    """The name=value options of a descriptor; an unknown or repeated name is refused."""
    out: dict = {}
    for opt in opts:
        name, eq, value = opt.partition("=")
        if not eq or name not in names:
            raise InvalidParameter(f"unknown option {opt!r} in {text!r}")
        if name in out:
            raise InvalidParameter(f"repeated option {name}= in {text!r}")
        out[name] = value
    return out


# kkt(J) holds nbar and n, each of dimension dim J, and L_J inside m, which
# is injective as L_x e = x: so dim kkt(J) >= 3 dim J, and an algebra past
# MAX_DIM // 3 cannot give one that fits in rootdata's MAX_DIM
MAX_JORDAN_DIM = rootdata.MAX_DIM // 3


def _check_jordan_dim(n: int, text: str) -> None:
    """Refuse a Jordan algebra of dimension n before any table of it is made."""
    if n > MAX_JORDAN_DIM:
        raise InvalidParameter(
            f"{text!r} has dimension {n}, above {MAX_JORDAN_DIM}: "
            f"its Lie algebra would pass dimension {rootdata.MAX_DIM}"
        )


def parse_jordan_descriptor(text: str) -> jordan.JordanAlgebra:
    parts = text.split(":")
    if parts[0] != "jordan" or len(parts) < 2:
        raise InvalidParameter(f"not a jordan descriptor: {text!r}")
    head = parts[1]
    if head.startswith("H"):
        r = _parse_int(head[1:], "hermitian degree", text)
        coeff = ":".join(parts[2:])
        if not coeff:
            raise InvalidParameter(f"descriptor {text!r} is missing a coefficient algebra")
        D = composition.parse_descriptor(coeff)
        if r >= 2 and D.dim < 8:  # else hermitian() refuses it, or it is H3 over octonions
            _check_jordan_dim(r + r * (r - 1) // 2 * D.dim, text)
        return jordan.hermitian(r, D)
    if head == "J2":
        opts = _options(parts[2:], ("dim", "gram"), text)
        dim = _parse_int(opts["dim"], "dim", text) if "dim" in opts else None
        if dim is None or dim < 1:
            raise InvalidParameter(f"descriptor {text!r} needs dim=<positive>")
        _check_jordan_dim(dim + 2, text)
        return jordan.quadratic(_gram_matrix(opts.get("gram", "I"), dim))
    raise InvalidParameter(f"unknown jordan family {head!r}")


def _gram_matrix(spec: str, dim: int):
    if spec == "I":
        return [[Q(1) if i == j else Q(0) for j in range(dim)] for i in range(dim)]
    if spec == "split":
        g = [[Q(0)] * dim for _ in range(dim)]
        k = 0
        while k + 1 < dim:
            g[k][k + 1] = g[k + 1][k] = Q(1, 2)  # hyperbolic plane: Q = x y
            k += 2
        if k < dim:
            g[k][k] = Q(1)
        return g
    entries = [parse_rational(p) for p in spec.split(",")]
    if len(entries) != dim:
        raise InvalidParameter(f"gram diagonal has {len(entries)} entries, need {dim}")
    return [
        [entries[i] if i == j else Q(0) for j in range(dim)] for i in range(dim)
    ]


def parse_root_descriptor(text: str) -> tuple:
    parts = text.split(":")
    if parts[0] != "root" or len(parts) < 3:
        raise InvalidParameter(f"not a root descriptor: {text!r}")
    type_label = parts[1]
    if type_label not in rootdata.SUPPORTED_TYPES:
        raise InvalidParameter(f"unsupported type {type_label!r}")
    rank = _parse_int(parts[2], "rank", text)
    opts = _options(parts[3:], ("node",), text)
    node = _parse_int(opts["node"], "node", text) if "node" in opts else None
    return (type_label, rank, node)


def resolve_target(text: str) -> Target:
    if text.startswith("jordan:"):
        J = parse_jordan_descriptor(text)
        return Target(kind="jordan", jordan_algebra=J)
    if text.startswith("root:"):
        type_label, rank, node = parse_root_descriptor(text)
        split = rootdata.build_split_lie(type_label, rank)
        return Target(kind="root", lie=split if node is None else None, split=split, node=node)
    # otherwise: a structure-constant JSON file
    return Target(kind="lie-json", lie=kkt.from_json(_load_json(text, f"target {text!r}")))


def _load_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidParameter(f"cannot read {what}: {exc}")
    except ValueError as exc:  # not JSON, not UTF-8, or an over-long JSON integer
        raise InvalidParameter(f"{what} is not JSON: {exc}")


def target_lie_algebra(t: Target) -> kkt.LieAlgebra:
    """The algebra a target names: the split build of a plain root: target,
    the graded one of a root: target with node=."""
    if t.lie is None:
        if t.kind == "jordan":
            t.lie = kkt.build_kkt(t.jordan_algebra)
        else:
            t.lie = target_parabolic(t).algebra
    return t.lie


def target_parabolic(t: Target) -> rootdata.ParabolicDecomposition:
    """Parabolic of a root: target at its node=, or else at the canonical node;
    with node= it holds the graded algebra, so all suites share its trace Gram."""
    if t.parabolic is None:
        node = t.node
        if node is None:
            rs = t.split.root_system
            node = rootdata.canonical_node(rs.type_label, rs.rank)
        p = rootdata.parabolic(t.split, node)
        t.parabolic = p if t.node is None else p._replace(algebra=rootdata.graded_algebra(p))
    return t.parabolic


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _emit(text: str, out: Optional[str], mode: str = "w"):
    if out:
        try:
            with open(out, mode) as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParameter(f"cannot write output {out!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_build(args) -> int:
    target = resolve_target(args.descriptor)
    if target.kind == "lie-json":
        raise InvalidParameter("build expects an algebra descriptor, not a file")
    g = target_lie_algebra(target)
    _emit(_dump_json(kkt.to_json(g)), args.out)
    return 0


ALL_SUITES = (
    "jacobi",
    "grading",
    "killing",
    "jordan-identity",
    "composition-law",
    "q-composition",
    "pierce",
    "cross-validate",
)

LIE_SUITES = ("jacobi", "grading", "killing")


def run_suite(name: str, target: Target, cfg: verify.Config) -> verify.SuiteResult:
    if name in LIE_SUITES:
        g = target_lie_algebra(target)
        if name == "jacobi":
            return verify.suite_jacobi(g, cfg)
        if name == "grading":
            return verify.suite_grading(g)
        return verify.suite_killing(g)
    if name == "jordan-identity":
        if target.kind != "jordan":
            raise InvalidParameter("jordan-identity needs a jordan: target")
        return verify.suite_jordan_identity(target.jordan_algebra)
    if name == "composition-law":
        if target.kind != "jordan" or target.jordan_algebra.variant != "hermitian":
            raise InvalidParameter("composition-law needs a jordan:H* target")
        return verify.suite_composition_law(target.jordan_algebra.coeff_algebra)
    if name == "pierce":
        if target.kind != "jordan":
            raise InvalidParameter("pierce needs a jordan: target")
        return verify.suite_pierce(target.jordan_algebra)
    if name == "q-composition":
        if target.kind != "root":
            raise InvalidParameter("q-composition needs a root: target")
        return verify.suite_q_composition(target_parabolic(target))
    if name == "cross-validate":
        if target.kind != "root":
            raise InvalidParameter("cross-validate needs a root: target")
        return verify.suite_cross_validate(target_parabolic(target))
    raise InvalidParameter(f"unknown suite {name!r}")


def cmd_verify(args) -> int:
    # the flags first, so a bad one is refused before the target is built or read
    if args.jobs < 1:
        raise InvalidParameter(f"jobs must be >= 1, got {args.jobs}")
    cfg = verify.Config(seed=args.seed, sample_count=args.samples)
    target = resolve_target(args.target)
    names = args.suites.split(",") if args.suites is not None else None
    if names is None:
        if target.kind == "jordan":
            names = ["jacobi", "grading", "killing", "jordan-identity", "pierce"]
            if target.jordan_algebra.variant == "hermitian":
                names.append("composition-law")
        elif target.kind == "root":
            names = ["jacobi", "killing", "q-composition", "cross-validate"]
        else:
            names = ["jacobi"]
            if target.lie.grading is not None:
                names += ["grading", "killing"]
    for name in names:
        if name not in ALL_SUITES:
            raise InvalidParameter(f"unknown suite {name!r} (choose from {', '.join(ALL_SUITES)})")
    lines = []
    ok = True
    for name in names:
        res = run_suite(name, target, cfg)
        ok = ok and res.passed
        lines.append(res.line())
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else VERIFY_ERROR


def cmd_classify(args) -> int:
    obj = _load_json(args.element, "element file")
    if not (isinstance(obj, dict) and isinstance(obj.get("algebra"), str) and "element" in obj):
        raise InvalidParameter('element file needs {"algebra": "<descriptor>", "element": ...}')
    J = parse_jordan_descriptor(obj["algebra"])
    x = jordan.element_from_json(obj["element"], J)
    places = _parse_places(args.places)
    report = orbits.classify(x, places)
    _emit(_dump_json(report), args.out)
    return 0


def _parse_places(text: str):
    """The places of text: "inf" (or "oo"), or a prime below orbits.PRIME_BOUND,
    each checked here, whatever the element turns out to be."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part in ("inf", "oo"):
            out.append("inf")
        else:
            out.append(orbits.check_place(_parse_int(part, "place", text)))
    return tuple(out)


def cmd_export(args) -> int:
    if args.format == "json":
        return cmd_build(args)
    target = resolve_target(args.descriptor)
    if target.kind != "root":
        raise InvalidParameter("report format is defined for root: descriptors")
    _emit(rootdata.instance_report(target_parabolic(target)) + "\n", args.out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for the jacobi suite's samples")
    common.add_argument("--samples", type=int, default=1000, help="jacobi suite sample count")
    common.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; one process")
    common.add_argument("--out", help="write output to a file instead of stdout")

    ap = argparse.ArgumentParser(
        prog="jordanlie",
        description="exact-arithmetic Jordan algebras, their graded Lie algebras, "
        "and orbit classification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser(
        "build",
        parents=[common],
        help="construct an algebra and print its structure constants",
    )
    b.add_argument("descriptor")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", parents=[common], help="run verification suites against a target")
    v.add_argument("target", help="algebra descriptor or structure-constant JSON file")
    v.add_argument(
        "--suites",
        help="comma-separated suite names; default on jordan: jacobi, grading, killing, jordan-identity, "
        "pierce, and composition-law on H<r>; on root: (node= or not) jacobi, killing, q-composition, "
        "cross-validate; on a JSON jacobi, and grading and killing if every basis vector has a degree",
    )
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser(
        "classify", parents=[common], help="rank and local classes of a Jordan element"
    )
    c.add_argument("element", help='JSON file {"algebra": "...", "element": {...}}')
    c.add_argument("--places", default="inf,2,3,5,7,11", help="comma-separated places")
    c.set_defaults(func=cmd_classify)

    e = sub.add_parser("export", parents=[common], help="emit structure constants or a text report")
    e.add_argument("descriptor")
    e.add_argument("--format", choices=("json", "report"), default="json")
    e.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code not in (0,) else 0
    fresh = bool(args.out) and not os.path.exists(args.out)
    try:
        if args.out:
            # try the path before any work: append mode keeps an existing file
            _emit("", args.out, "a")
        return args.func(args)
    except BaseException as exc:
        if fresh and os.path.exists(args.out) and not os.path.getsize(args.out):
            os.remove(args.out)  # made by the probe above, and still empty
        if not isinstance(exc, (InvalidParameter, AlgebraMismatch, ConstructionError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

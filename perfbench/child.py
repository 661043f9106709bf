"""Fresh-interpreter entry point for one benchmark operation.

    python3 child.py setup [--algebras]
    python3 child.py cli --spans FILE --op N -- <jordanlie argv>
    python3 child.py elements --seed S --seconds T --out FILE [--spans FILE]

``setup`` imports ``jordanlie.cli`` (and builds the seven element-arith
algebras) and exits.  ``cli`` runs ``jordanlie.cli.main(argv)`` with span
recorders installed and writes the spans at exit; untraced CLI operations do
not come here, they run ``python -m jordanlie.cli`` directly.  ``elements``
runs the element-arith loop and writes per-element timings and failures.
The jordanlie sources are found through PYTHONPATH.
"""

from __future__ import annotations

import sys
import time

# The seven table families, keyed by split-group name, as CLI descriptors.
FAMILIES = {
    "C2": "jordan:H2:field",
    "C3": "jordan:H3:field",
    "A3": "jordan:H2:split-complex",
    "A5": "jordan:H3:split-complex",
    "B3": "jordan:J2:dim=3:gram=split",
    "D4": "jordan:J2:dim=4:gram=split",
    "E7": "jordan:H3:octonion:split",
}


def _opt(argv, name, default=None):
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def _build_families(cli):
    return {name: cli.parse_jordan_descriptor(desc) for name, desc in FAMILIES.items()}


def main_setup(argv) -> int:
    import jordanlie.cli as cli

    if "--algebras" in argv:
        _build_families(cli)
    return 0


def main_cli(argv) -> int:
    from spans import SpanRecorder

    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1 :]
    rec = SpanRecorder(op_id=int(_opt(opts, "--op", "0")))
    idx = rec.open("cli.import")
    import jordanlie.cli as cli

    rec.close(idx)

    served = []

    def split_lie_cache(r, args, out):
        # a cached build hands back an object this process has seen before
        if any(out is prev for prev in served):
            r.count("rootdata.build_split_lie.cache_hits")
        else:
            served.append(out)

    def suite_checks(r, args, out):
        r.count(f"verify.suite_{out.name.replace('-', '_')}.checks", out.checked)

    hooks = {"rootdata.build_split_lie": split_lie_cache}
    for suite in ("jacobi", "grading", "killing", "q_composition", "cross_validate"):
        hooks[f"verify.suite_{suite}"] = suite_checks
    rec.install(hooks=hooks)
    idx = rec.open("cli.main")
    try:
        code = cli.main(cli_argv)
        sys.stdout.flush()
    finally:
        rec.close(idx)
        rec.uninstall()
        rec.dump(_opt(opts, "--spans"))
    return code


def main_elements(argv) -> int:
    import json
    import random
    from fractions import Fraction

    import checks

    rec = None
    spans_path = _opt(argv, "--spans")
    if spans_path:
        from spans import SpanRecorder

        rec = SpanRecorder()
        idx = rec.open("cli.import")
    import jordanlie.cli as cli
    from jordanlie import jordan, orbits

    if rec is not None:
        rec.close(idx)
        rec.install()
    seed = int(_opt(argv, "--seed"))
    seconds = float(_opt(argv, "--seconds"))
    algs = _build_families(cli)
    rng = random.Random(seed)
    rounds = []
    t_start = time.perf_counter()
    n_elem = 0
    # closed loop: one element of every family per round, whole rounds only
    while not rounds or time.perf_counter() - t_start < seconds:
        rnd = []
        for name, alg in algs.items():
            x = alg.element([Fraction(rng.randint(-9, 9)) for _ in range(alg.dim)])
            y = alg.element([Fraction(rng.randint(-9, 9)) for _ in range(alg.dim)])
            n_elem += 1
            if rec is not None:
                rec.op_id = n_elem
            t0 = time.perf_counter()
            try:
                fails = checks.check_element(alg, x, y, jordan, orbits)
            except Exception as exc:  # a raising library call is a failed element
                fails = [f"{type(exc).__name__}: {exc}"]
            rnd.append({"family": name, "t0": t0, "s": time.perf_counter() - t0, "fails": fails})
        rounds.append(rnd)
    with open(_opt(argv, "--out"), "w") as fh:
        json.dump({"rounds": rounds}, fh)
    if rec is not None:
        rec.uninstall()
        rec.dump(spans_path)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit({"setup": main_setup, "cli": main_cli, "elements": main_elements}[mode](rest))

"""Outside-in benchmark for jordanlie's two-road E7 pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (closed loop, one client, one child process at a time,
sampled suites at ``--jobs 1``):

* ``e7-two-roads``: ``build jordan:H3:octonion:split``, ``build root:E7:7``
  and ``verify root:E7:7``, each a fresh interpreter: the construction path.
* ``e7-bracket-reads``: untimed preparation writes both E7 build JSONs; the
  timed part is ``verify <file> --samples 100000`` on each: the query path.
* ``element-arith``: in one fresh interpreter, rounds of one seeded random
  element per table family through the AC5 loop, ``jordan_inverse`` and
  ``orbits.classify``: the element path, no Lie algebra.

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` a
separate run traces the layers (see ``spans.py``).  Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of a run,
including every named metric, invariant counters, stdout digests,
``nproc``, the Python version and the commit, is written to
``perfbench/.work/BENCH_<workload>_seed<N>_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
from child import FAMILIES  # noqa: E402

WORKLOADS = ("e7-two-roads", "e7-bracket-reads", "element-arith")
JACOBI_SAMPLES = "100000"  # AC2's sample scale for the 133-dimensional builds
ELEMENT_SETUPS_AFTER = 2  # element-arith set-ups: two before the loop, two after
RUN_LIMIT_S = 170.0  # every child is killed once the run reaches this age
SMALL_FAMILIES = tuple(f for f in FAMILIES if f != "E7")  # the non-octonionic families
# the Chevalley-road operation of each CLI workload
LIGHT_KIND = {"e7-two-roads": "e7_build_root", "e7-bracket-reads": "verify_root_json"}

PER_LAYER = (
    ("cli.import.s", "s"),
    ("cli.resolve_target.s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("composition.build_composition.s", "s"),
    ("composition.build_composition.calls", "count"),
    ("composition.CompositionAlgebra.mul_coeffs.s", "s"),
    ("composition.CompositionAlgebra.mul_coeffs.calls", "count"),
    ("jordan.hermitian.s", "s"),
    ("jordan.quadratic.s", "s"),
    ("jordan.JordanAlgebra.mul_vec.s", "s"),
    ("jordan.JordanAlgebra.mul_vec.calls", "count"),
    ("jordan.generic_min_poly.s", "s"),
    ("jordan.generic_min_poly.calls", "count"),
    ("jordan.jordan_inverse.s", "s"),
    ("linalg.rank.s", "s"),
    ("linalg.rank.calls", "count"),
    ("linalg.solve.s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.det.s", "s"),
    ("linalg.det.calls", "count"),
    ("linalg.nullspace.s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.invert.s", "s"),
    ("linalg.invert.calls", "count"),
    ("linalg.mat_mul.s", "s"),
    ("linalg.mat_mul.calls", "count"),
    ("linalg.EchelonBasis.insert.s", "s"),
    ("linalg.EchelonBasis.insert.calls", "count"),
    ("linalg.EchelonBasis.coordinates.s", "s"),
    ("linalg.EchelonBasis.coordinates.calls", "count"),
    ("kkt.build_kkt.s", "s"),
    ("kkt.build_kkt.self_s", "s"),
    ("kkt.to_json.s", "s"),
    ("kkt.from_json.s", "s"),
    ("kkt.LieAlgebra.bracket.s", "s"),
    ("kkt.LieAlgebra.bracket.calls", "count"),
    ("kkt.LieAlgebra.killing_matrix.s", "s"),
    ("kkt.w_matrix.s", "s"),
    ("rootdata.build_split_lie.s", "s"),
    ("rootdata.build_split_lie.calls", "count"),
    ("rootdata.build_split_lie.cache_hits", "count"),
    ("rootdata.parabolic.s", "s"),
    ("rootdata.coordinatize.s", "s"),
    ("rootdata.graded_algebra.s", "s"),
    ("rootdata.jordan_from_roots.s", "s"),
    ("rootdata.q_forms.s", "s"),
    ("rootdata.cross_validate.s", "s"),
    ("rootdata.cross_validate.self_s", "s"),
    ("orbits.classify.s", "s"),
    ("orbits.classify.calls", "count"),
    ("orbits.diagonalize.s", "s"),
    ("orbits.local_class.s", "s"),
    ("orbits.local_class.calls", "count"),
    ("orbits.replay.s", "s"),
    ("verify.suite_jacobi.s", "s"),
    ("verify.suite_jacobi.checks", "count"),
    ("verify.suite_grading.s", "s"),
    ("verify.suite_grading.checks", "count"),
    ("verify.suite_killing.s", "s"),
    ("verify.suite_killing.checks", "count"),
    ("verify.suite_q_composition.s", "s"),
    ("verify.suite_q_composition.checks", "count"),
    ("verify.suite_cross_validate.s", "s"),
    ("verify.suite_cross_validate.checks", "count"),
    ("verify.checks_exhaustive", "count"),
    ("verify.checks_sampled", "count"),
    ("kkt.dim", "count"),
    ("kkt.m_dim", "count"),
    ("kkt.brackets_stored", "count"),
    ("kkt.constants_nonzero", "count"),
    ("kkt.max_num_bits", "bits"),
    ("kkt.max_den_bits", "bits"),
    ("rootdata.brackets_stored", "count"),
    ("rootdata.constants_nonzero", "count"),
    ("trace.untraced_cycle_s", "s"),
    ("trace.traced_cycle_s", "s"),
    ("trace.overhead_s", "s"),
)

END_TO_END = (
    ("setup_s", "s"),
    ("cycle_s", "s"),
    ("work_per_s", "1/s"),
    ("light_work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def summary(values, unit: str) -> dict:
    """Median, sample count, and the highest of p50/p90/p99/p99.9 with at
    least ten samples beyond it (None when there are too few samples)."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "unit": unit, "n": n, "pctl": None, "pctl_value": None}
    for p in (99.9, 99, 90, 50):
        if n * (1 - p / 100) >= 10:
            out["pctl"] = p
            out["pctl_value"] = vals[min(n - 1, int(round(p / 100 * (n - 1))))]
            break
    return out


def rate(summ: dict, work: float) -> dict:
    """Work units per second from a time summary; a high time is a low rate."""
    out = dict(summ, median=work / summ["median"], unit="1/s")
    if summ["pctl"] is not None:
        out["pctl"] = round(100 - summ["pctl"], 1)
        out["pctl_value"] = work / summ["pctl_value"]
    return out


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Runner:
    """Runs one child at a time on the benchmark's CPU, times it, and keeps
    its rusage.  Owns the speed probe, which shares that CPU."""

    def __init__(self, root: str, work: str, t0: float):
        self.root = root
        self.work = work
        self.t0 = t0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.seq = 0
        self.probe_path = os.path.join(work, "probe.log")
        self.probe = None

    def start_probe(self):
        self.probe = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), self.probe_path], cwd=self.root
        )

    def close(self) -> probe.Speed:
        """Stop the probe and return its log."""
        if self.probe is not None and self.probe.poll() is None:
            self.probe.send_signal(signal.SIGTERM)
            try:
                self.probe.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.probe.kill()
                self.probe.wait()
        return probe.Speed.load(self.probe_path)

    def run(self, argv) -> dict:
        self.seq += 1
        out_path = os.path.join(self.work, f"op{self.seq}.out")
        err_path = os.path.join(self.work, f"op{self.seq}.err")
        budget = RUN_LIMIT_S - (time.perf_counter() - self.t0)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(max(budget, 1.0), proc.kill)
            timer.start()
            reaped = False
            try:
                # wait4 rather than Popen.wait: it also returns the child's rusage
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                timer.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return {
            "returncode": proc.returncode,
            "t0": t0,
            "t1": t1,
            "maxrss_kb": usage.ru_maxrss,
            "stdout": stdout,
            "stderr": stderr.decode(errors="replace")[-2000:],
            "path": out_path,
        }

    def cli(self, cli_argv) -> list:
        return [sys.executable, "-m", "jordanlie.cli", *cli_argv]

    def child(self, *args) -> list:
        return [sys.executable, os.path.join(HERE, "child.py"), *args]


# ---------------------------------------------------------------------------
# the benchmark
# ---------------------------------------------------------------------------


class Bench:
    """Runs one workload's operations and checks every output."""

    def __init__(self, args, root: str, work: str):
        self.seed = str(args.seed)
        self.seconds = float(args.seconds)
        self.work = work
        self.runner = Runner(root, work, time.perf_counter())
        self.attempted = 0
        self.failures: list[dict] = []
        self.peak_rss_kb = 0
        self.digests: dict[str, str] = {}
        self.invariants: dict[str, int] = {}
        self.suites: dict[str, dict] = {}
        self.setup: list[dict] = []
        self.setup_args: list[str] = []
        from jordanlie import kkt

        self.kkt = kkt

    # -- bookkeeping ----------------------------------------------------------

    def record(self, label: str, fails: list[str], res: dict | None = None, measured=True):
        self.attempted += 1
        if fails:
            detail = {"op": label, "fails": fails}
            if res is not None and res.get("stderr"):
                detail["stderr"] = res["stderr"]
            self.failures.append(detail)
        if res is not None and measured:
            self.peak_rss_kb = max(self.peak_rss_kb, res["maxrss_kb"])

    def note_invariants(self, road: str, inv: dict):
        for key, val in inv.items():
            if key in checks.EXPECTED[road] and not isinstance(val, tuple):
                self.invariants[f"{road}.{key}"] = val

    def warm_up(self, workload: str):
        """One untimed start, so no timed one pays for writing bytecode."""
        self.setup_args = ["--algebras"] if workload == "element-arith" else []
        res = self.runner.run(self.runner.child("setup", *self.setup_args))
        self.record("setup (warm-up)", checks.check_exit(res["returncode"]), res, measured=False)

    def setup_sample(self):
        """One timed set-up.  Samples are spread over the run, between
        operations, so one stretch of host contention does not set them all."""
        res = self.runner.run(self.runner.child("setup", *self.setup_args))
        self.record("setup", checks.check_exit(res["returncode"]), res, measured=False)
        self.setup.append(res)

    # -- CLI operations -------------------------------------------------------

    def cli_kinds(self, workload: str, files=None) -> list[dict]:
        seed = ["--seed", self.seed, "--jobs", "1"]
        if workload == "e7-two-roads":
            return [
                {"kind": "e7_build_jordan", "argv": ["build", "jordan:H3:octonion:split", *seed],
                 "check": ("build", "kkt")},
                {"kind": "e7_build_root", "argv": ["build", "root:E7:7", *seed],
                 "check": ("build", "rootdata")},
                {"kind": "e7_verify_root", "argv": ["verify", "root:E7:7", *seed],
                 "check": ("verify", ("jacobi", "killing", "q-composition", "cross-validate"))},
            ]
        kkt_json, root_json = files
        sampled = ["--samples", JACOBI_SAMPLES, *seed]
        return [
            {"kind": "verify_kkt_json", "argv": ["verify", kkt_json, *sampled],
             "check": ("verify", ("jacobi", "grading", "killing"))},
            {"kind": "verify_root_json", "argv": ["verify", root_json, *sampled],
             "check": ("verify", ("jacobi",))},
        ]

    def check_cli(self, spec: dict, res: dict) -> tuple[list[str], dict]:
        what, arg = spec["check"]
        text = res["stdout"].decode(errors="replace")
        info: dict = {"stdout_bytes": len(res["stdout"])}
        if what == "build":
            fails, inv = checks.check_build(res["returncode"], text, arg, self.kkt)
            self.note_invariants(arg, inv)
            info["work"] = inv.get("brackets_stored", 0)
        else:
            fails, suites = checks.check_verify(res["returncode"], text, arg)
            info["suites"] = [s for s in suites if s["suite"]]
            info["work"] = sum(s["checks"] for s in info["suites"])
            for s in info["suites"]:
                self.suites[f"{spec['kind']}:{s['suite']}"] = {
                    "checks": s["checks"], "sampled": s["sampled"]
                }
        self.digests[spec["kind"]] = hashlib.sha256(res["stdout"]).hexdigest()
        return fails, info

    def prepare_files(self) -> tuple[str, str]:
        """Untimed: the code under test writes both E7 build JSONs."""
        paths = []
        for desc, road in (("jordan:H3:octonion:split", "kkt"), ("root:E7:7", "rootdata")):
            res = self.runner.run(self.runner.cli(["build", desc]))
            fails, _ = self.check_cli({"kind": f"prepare_{road}", "check": ("build", road)}, res)
            self.record(f"prepare build {desc}", fails, res, measured=False)
            paths.append(res["path"])
        return paths[0], paths[1]

    def run_cli_loop(self, kinds, seconds: float, traced: bool) -> list[dict]:
        """Closed loop over the kinds in order.  The first cycle always runs;
        after it, an operation starts only if its last duration still fits
        in the time left."""
        samples = []
        start = time.perf_counter()
        last: dict[str, float] = {}
        cycle = 0
        while True:
            for spec in kinds:
                elapsed = time.perf_counter() - start
                if cycle > 0 and elapsed + last[spec["kind"]] > seconds:
                    return samples
                argv = spec["argv"]
                spans_path = None
                cmd = self.runner.cli(argv)
                if traced:
                    op = self.runner.seq + 1
                    spans_path = os.path.join(self.work, f"spans{op}.bin")
                    cmd = self.runner.child("cli", "--spans", spans_path, "--op", str(op), "--", *argv)
                res = self.runner.run(cmd)
                fails, info = self.check_cli(spec, res)
                self.record(f"{spec['kind']} {' '.join(argv)}", fails, res)
                self.setup_sample()
                last[spec["kind"]] = res["t1"] - res["t0"]
                samples.append(
                    {"kind": spec["kind"], "cycle": cycle, "t0": res["t0"], "t1": res["t1"],
                     "spans": spans_path, **info}
                )
            cycle += 1

    # -- element-arith ----------------------------------------------------------

    def run_elements(self, seconds: float, traced: bool) -> tuple[list, str | None]:
        op = self.runner.seq + 1
        out = os.path.join(self.work, f"elements{op}.json")
        args = ["elements", "--seed", self.seed, "--seconds", f"{seconds:.3f}", "--out", out]
        spans_path = None
        if traced:
            spans_path = os.path.join(self.work, f"spans{op}.bin")
            args += ["--spans", spans_path]
        res = self.runner.run(self.runner.child(*args))
        if res["returncode"] != 0 or not os.path.exists(out):
            fails = checks.check_exit(res["returncode"]) or ["no output"]
            self.record("element-arith child", fails, res)
            return [], spans_path
        self.peak_rss_kb = max(self.peak_rss_kb, res["maxrss_kb"])
        with open(out) as fh:
            rounds = json.load(fh)["rounds"]
        for rnd in rounds:
            for el in rnd:
                self.record(f"element {el['family']}", el["fails"])
        return rounds, spans_path


# ---------------------------------------------------------------------------
# collection, then metrics once the probe log is complete
# ---------------------------------------------------------------------------


def collect(bench: Bench, workload: str, traced: bool) -> dict:
    """Run the workload; CLI loops also take a set-up sample after every
    operation."""
    bench.warm_up(workload)
    bench.setup_sample()
    raw: dict = {}
    seconds = bench.seconds
    if workload == "element-arith":
        bench.setup_sample()
        if traced:
            raw["plain"], _ = bench.run_elements(seconds / 3, traced=False)
            raw["rounds"], raw["spans"] = bench.run_elements(seconds * 2 / 3, traced=True)
        else:
            raw["rounds"], _ = bench.run_elements(seconds, traced=False)
        for _ in range(ELEMENT_SETUPS_AFTER):
            bench.setup_sample()
        return raw
    files = bench.prepare_files() if workload == "e7-bracket-reads" else None
    raw["kinds"] = bench.cli_kinds(workload, files)
    if traced:
        raw["plain"] = bench.run_cli_loop(raw["kinds"], 0.0, traced=False)  # one cycle
        used = raw["plain"][-1]["t1"] - raw["plain"][0]["t0"]
        raw["samples"] = bench.run_cli_loop(raw["kinds"], max(seconds - used, 0.0), traced=True)
    else:
        raw["samples"] = bench.run_cli_loop(raw["kinds"], seconds, traced=False)
    return raw


def by_kind(samples) -> dict:
    out: dict[str, list] = {}
    for s in samples:
        out.setdefault(s["kind"], []).append(s)
    return out


def cli_metrics(workload: str, samples, speed: probe.Speed) -> tuple[dict, dict]:
    """End-to-end metrics and per-command named metrics from CLI samples.

    A sample's work is the number of checks a verify printed, or the number
    of brackets a build stored."""
    kinds = by_kind(samples)
    named, med, work = {}, {}, {}
    for kind, ss in kinds.items():
        named[f"{kind}_s"] = summary([speed.normalize(s["t0"], s["t1"]) for s in ss], "s")
        named[f"{kind}_wall_s"] = summary([s["t1"] - s["t0"] for s in ss], "s")
        med[kind] = named[f"{kind}_s"]["median"]
        work[kind] = statistics.median(s["work"] for s in ss)
    cycle = sum(med.values())
    checks_per_cycle = sum(work[k] for k, ss in kinds.items() if "suites" in ss[0])
    light = LIGHT_KIND[workload]
    if workload == "e7-bracket-reads":
        named["verify_checks_per_s"] = {
            "median": checks_per_cycle / cycle, "unit": "1/s",
            "n": min(len(ss) for ss in kinds.values()), "pctl": None, "pctl_value": None,
        }
    return {"cycle_s": cycle, "work_per_s": checks_per_cycle / cycle,
            "light_work_per_s": work[light] / med[light]}, named


def round_times(rounds, speed: probe.Speed, families=None) -> list[float]:
    return [
        sum(el["s"] * speed.scale(el["t0"], el["t0"] + el["s"])
            for el in rnd if families is None or el["family"] in families)
        for rnd in rounds
    ]


def element_metrics(rounds, speed: probe.Speed) -> tuple[dict, dict]:
    """A cycle is one round: one element of every family."""
    per_round = summary(round_times(rounds, speed), "s")
    small = summary(round_times(rounds, speed, SMALL_FAMILIES), "s")
    named = {
        "elements_per_s": rate(per_round, len(FAMILIES)),
        "small_elements_per_s": rate(small, len(SMALL_FAMILIES)),
    }
    for fam in FAMILIES:
        named[f"element_{fam}_s"] = summary(round_times(rounds, speed, (fam,)), "s")
    e2e = {"cycle_s": per_round["median"], "work_per_s": named["elements_per_s"]["median"],
           "light_work_per_s": named["small_elements_per_s"]["median"]}
    return e2e, named


def layer_totals(span_files, n_cycles: int, speed: probe.Speed, setup_ops=()) -> dict:
    """Sum reduced spans over the traced processes, per traced cycle, in
    reference seconds.  Spans whose op id is in setup_ops (element-arith's
    one-off algebra construction) are counted once, not per cycle."""
    totals: dict[str, float] = {}
    for path in span_files:
        dump = spans.load_spans(path)
        for once in (True, False):
            keep = [i for i, o in enumerate(dump["op"]) if (o in setup_ops) == once]
            if not keep:
                continue
            scale = 1.0 if once else 1.0 / n_cycles
            for name, agg in spans.reduce_spans(_subset(dump, keep), speed.scale).items():
                for key in ("s", "self_s", "calls"):
                    metric = f"{name}.{key}"
                    totals[metric] = totals.get(metric, 0.0) + agg[key] * scale
        for name, n in dump["counters"].items():
            totals[name] = totals.get(name, 0.0) + n / n_cycles
    return totals


def _subset(dump: dict, keep: list[int]) -> dict:
    pos = {old: new for new, old in enumerate(keep)}
    return {
        "names": dump["names"],
        "name": [dump["name"][i] for i in keep],
        "parent": [pos.get(dump["parent"][i], -1) for i in keep],
        "start": [dump["start"][i] for i in keep],
        "end": [dump["end"][i] for i in keep],
    }


def trace_overhead(untraced: float, traced: float) -> dict:
    return {
        "trace.untraced_cycle_s": untraced,
        "trace.traced_cycle_s": traced,
        "trace.overhead_s": traced - untraced,
    }


def compute(workload: str, raw: dict, setups, speed: probe.Speed, traced: bool) -> dict:
    setup = [speed.normalize(r["t0"], r["t1"]) for r in setups]
    result = {"named": {"setup_s": summary(setup, "s")}, "e2e": {"setup_s": statistics.median(setup)}}
    if workload == "element-arith":
        rounds = raw["rounds"]
        e2e, named = element_metrics(rounds, speed)
        result["named"].update(named)
        result["cycles"] = len(rounds)
        if traced:
            untraced = statistics.median(round_times(raw["plain"], speed))
            traced_cycle = statistics.median(round_times(rounds, speed))
            layers = layer_totals([raw["spans"]], len(rounds), speed, setup_ops={0})
            result["layers"] = {**layers, **trace_overhead(untraced, traced_cycle)}
        else:
            result["e2e"].update(e2e)
        return result
    samples = raw["samples"]
    if not traced:
        e2e, named = cli_metrics(workload, samples, speed)
        result["e2e"].update(e2e)
        result["named"].update(named)
        result["cycles"] = max(s["cycle"] for s in samples) + 1
        result["samples"] = [{k: v for k, v in s.items() if k != "spans"} for s in samples]
        return result
    # whole traced cycles only, so per-cycle totals are exact
    all_kinds = {k["kind"] for k in raw["kinds"]}
    full = sorted(c for c in {s["cycle"] for s in samples}
                  if {s["kind"] for s in samples if s["cycle"] == c} == all_kinds)
    kept = [s for s in samples if s["cycle"] in full]
    n = len(full)
    layers = layer_totals([s["spans"] for s in kept], n, speed)
    layers["cli.stdout_bytes"] = sum(s["stdout_bytes"] for s in kept) / n
    suites = [x for s in kept for x in s.get("suites", [])]
    layers["verify.checks_sampled"] = sum(x["checks"] for x in suites if x["sampled"]) / n
    layers["verify.checks_exhaustive"] = sum(x["checks"] for x in suites if not x["sampled"]) / n
    untraced = sum(speed.normalize(s["t0"], s["t1"]) for s in raw["plain"])
    traced_cycle = statistics.median(
        sum(speed.normalize(s["t0"], s["t1"]) for s in kept if s["cycle"] == c) for c in full
    )
    result["layers"] = {**layers, **trace_overhead(untraced, traced_cycle)}
    result["cycles"] = n
    result["per_op_layers"] = {
        s["kind"]: {k: v for k, v in layer_totals([s["spans"]], 1, speed).items()
                    if k.startswith("rootdata.build_split_lie")}
        for s in kept if s["cycle"] == full[0]
    }
    return result


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def commit_of(root: str) -> str:
    """HEAD commit read from .git without running git; 'unknown' when the
    checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest(root: str) -> str:
    h = hashlib.sha256()
    base = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def fmt_summary(name: str, s: dict) -> str:
    tail = f"n={s['n']}"
    if s.get("pctl") is not None:
        tail += f", p{s['pctl']:g}={s['pctl_value']:.6g}"
    else:
        tail += ", no percentile with >=10 samples beyond"
    return f"  {name:<24} {s['median']:.6g} {s['unit']}  ({tail})"


def report(args, bench: Bench, result: dict, provenance: dict, metrics: dict):
    frac = len(bench.failures) / bench.attempted
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={provenance['nproc']} python={provenance['python']} "
          f"commit={provenance['commit']} src_sha256={provenance['src_sha256'][:16]} "
          f"cpu={provenance['cpu']}")
    print(f"  cycles={result.get('cycles')}  (times in reference seconds, see probe.py; "
          f"*_wall_s are raw)")
    for name, s in result["named"].items():
        print(fmt_summary(name, s))
    if not args.trace:
        print(f"  {'peak_rss_mb':<24} {bench.peak_rss_kb / 1024:.6g} MB")
    print(f"  {'ops_failed_frac':<24} {frac:.6g}  ({len(bench.failures)}/{bench.attempted})")
    for key in sorted(bench.invariants):
        print(f"  invariant {key} = {bench.invariants[key]}")
    for key in sorted(bench.suites):
        s = bench.suites[key]
        print(f"  checks {key} = {s['checks']} ({'sampled' if s['sampled'] else 'exhaustive'})")
    for key in sorted(bench.digests):
        print(f"  stdout sha256 {key} = {bench.digests[key]} (information only)")
    for fail in bench.failures[:20]:
        print(f"  FAILED {fail['op']}: {'; '.join(fail['fails'])}")
    if args.trace:
        print(f"  not wrapped: {', '.join(f'{k} ({v})' for k, v in spans.UNREACHABLE.items())}")
        for kind, vals in (result.get("per_op_layers") or {}).items():
            shown = ", ".join(f"{k}={v:g}" for k, v in sorted(vals.items())) or "none"
            print(f"  per-op {kind}: {shown}")
    return frac


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated run still stops its children and the probe (see the finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jordanlie", "cli.py")):
        print("perfbench: run from the root of a jordanlie checkout (src/jordanlie missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # every process of the run shares one CPU with the speed probe
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work_base = os.path.join(HERE, ".work")
    work = os.path.join(work_base, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        bench = Bench(args, root, work)
        try:
            bench.runner.start_probe()
            raw = collect(bench, args.workload, bool(args.trace))
        finally:
            speed = bench.runner.close()
        result = compute(args.workload, raw, bench.setup, speed, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit_of(root),
        "src_sha256": src_digest(root),
    }
    metrics = {}
    if args.trace:
        layers = {**result["layers"], **bench.invariants}
        for name, unit in PER_LAYER:
            metrics[name] = {"value": float(layers.get(name, 0.0)), "unit": unit}
    else:
        e2e = {**result["e2e"], "peak_rss_mb": bench.peak_rss_kb / 1024}
        for name, unit in END_TO_END:
            metrics[name] = {"value": e2e[name], "unit": unit}
    frac = report(args, bench, result, provenance, metrics)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **provenance, "metrics": metrics, "named": result["named"],
        "ops_failed_frac": frac, "invariants": bench.invariants, "suites": bench.suites,
        "stdout_sha256": bench.digests, "failures": bench.failures,
        "per_op_layers": result.get("per_op_layers"), "samples": result.get("samples"),
        "not_wrapped": spans.UNREACHABLE,
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(work_base, name), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

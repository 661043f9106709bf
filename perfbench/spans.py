"""Span recording around jordanlie's public functions, installed from outside.

A :class:`SpanRecorder` replaces module attributes and class methods with
wrappers that record one span per call: name, start, end, parent span and
operation id.  Spans stay in memory in flat arrays and are written out once,
when the traced process ends.  :func:`reduce_spans` turns them into
per-name inclusive time (``.s``), self time (``.self_s``) and call counts.

Only names looked up through a module or class at call time can be wrapped.
A name bound into another module by ``from ... import`` keeps pointing at the
original function there, and private helpers are left alone on purpose, so
their cost lands in the self time of the public caller that runs them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

# (module, attribute path) pairs wrapped in a traced process.  The span name
# is "<module>.<attribute path>".
TRACED = (
    ("cli", "resolve_target"),
    ("composition", "build_composition"),
    ("composition", "CompositionAlgebra.mul_coeffs"),
    ("jordan", "hermitian"),
    ("jordan", "quadratic"),
    ("jordan", "JordanAlgebra.mul_vec"),
    ("jordan", "generic_min_poly"),
    ("jordan", "jordan_inverse"),
    ("linalg", "rank"),
    ("linalg", "solve"),
    ("linalg", "det"),
    ("linalg", "nullspace"),
    ("linalg", "invert"),
    ("linalg", "mat_mul"),
    ("linalg", "EchelonBasis.insert"),
    ("linalg", "EchelonBasis.coordinates"),
    ("kkt", "build_kkt"),
    ("kkt", "to_json"),
    ("kkt", "from_json"),
    ("kkt", "LieAlgebra.bracket"),
    ("kkt", "LieAlgebra.killing_matrix"),
    ("kkt", "w_matrix"),
    ("rootdata", "build_split_lie"),
    ("rootdata", "parabolic"),
    ("rootdata", "coordinatize"),
    ("rootdata", "graded_algebra"),
    ("rootdata", "jordan_from_roots"),
    ("rootdata", "q_forms"),
    ("rootdata", "cross_validate"),
    ("orbits", "classify"),
    ("orbits", "diagonalize"),
    ("orbits", "local_class"),
    ("orbits", "replay"),
    ("verify", "suite_jacobi"),
    ("verify", "suite_grading"),
    ("verify", "suite_killing"),
    ("verify", "suite_q_composition"),
    ("verify", "suite_cross_validate"),
)

# Names the traced run cannot reach from outside, with the reason.
UNREACHABLE = {
    "linalg.vec_add": "bound by 'from .linalg import vec_add' in kkt, rootdata and verify",
    "kkt._vop_cols": "private; its time shows in kkt.build_kkt.self_s",
    "rootdata transport": "inline in cross_validate; shows in rootdata.cross_validate.self_s",
    "composition._double.mul": "closure built inside build_composition",
    "rootdata.RootJordan.mul_vec": "not in the traced list; runs inside q-composition and coordinatize",
}


class SpanRecorder:
    """Records spans of wrapped calls for one operation in one process."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.op = array("l")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(rec, args, out)
            return out

        return traced

    def install(self, hooks: dict | None = None):
        """Wrap every name in TRACED; hooks maps a span name to a callback
        run after each call as hook(recorder, args, result)."""
        hooks = hooks or {}
        for mod_name, path in TRACED:
            mod = importlib.import_module(f"jordanlie.{mod_name}")
            owner = mod
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            attr = parts[-1]
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            name = f"{mod_name}.{path}"
            setattr(owner, attr, self.wrap(name, original, hooks.get(name)))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str):
        """One JSON header line, then the raw span arrays in header order."""
        arrays = {k: getattr(self, k) for k in ("name", "parent", "start", "end", "op")}
        header = {
            "names": self.names,
            "counters": self.counters,
            "arrays": [[k, a.typecode, len(a)] for k, a in arrays.items()],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays.values():
                a.tofile(fh)


def load_spans(path: str) -> dict:
    with open(path, "rb") as fh:
        out = json.loads(fh.readline())
        for key, typecode, n in out.pop("arrays"):
            a = array(typecode)
            a.fromfile(fh, n)
            out[key] = a
    return out


def reduce_spans(dump: dict, scale=None) -> dict:
    """Per span name: inclusive busy time (outermost spans of a name only,
    so recursion is not counted twice), self time and call count.  With
    scale(start, end), each duration is multiplied by that factor."""
    names = dump["names"]
    name, parent, start, end = dump["name"], dump["parent"], dump["start"], dump["end"]
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    if scale is not None:
        dur = [d * scale(start[i], end[i]) for i, d in enumerate(dur)]
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += dur[i]
    out: dict[str, dict] = {}
    for i in range(n):
        agg = out.setdefault(names[name[i]], {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["calls"] += 1
        agg["self_s"] += dur[i] - child_time[i]
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:
            agg["s"] += dur[i]
    return out

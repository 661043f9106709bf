"""The benchmark's span tracer wraps jordanlie names from outside; every
name it lists must exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_every_traced_name_resolves():
    # the lookup SpanRecorder.install makes: a module attribute, or a
    # method in the class's own __dict__
    missing = []
    for mod_name, path in _traced():
        owner = importlib.import_module(f"jordanlie.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        found = owner is not None and (
            attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        )
        if not (found and callable(getattr(owner, attr))):
            missing.append(f"{mod_name}.{path}")
    assert missing == []

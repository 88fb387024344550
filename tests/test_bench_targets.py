"""The benchmark's tracer wraps gaugeforge functions by (module, attribute)
name and reports a missing one as absent.  Every name it lists must exist,
so a rename or a deletion fails here and not only in ``bench/test_smoke.py``."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.FUNCTIONS
               if not mod.startswith("gaugeforge.")
               or not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []

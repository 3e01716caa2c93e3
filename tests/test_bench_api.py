"""What the benchmark in ``bench/`` looks up in the package: the span
targets of ``bench/tracing.py``."""

import importlib
import importlib.util
import sys
from pathlib import Path


def test_every_traced_function_exists(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    for module, function, _hook in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"harmonic_influence.{module}"), function, None)), function


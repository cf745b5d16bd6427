"""The benchmark's traced mode wraps functions by name; they must exist."""

import importlib
from pathlib import Path

from pumpcausal import diagnostics, pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_traced_function(monkeypatch):
    # ``patched()`` looks up every name the traced benchmark wraps, so a
    # renamed or deleted function fails here rather than in a traced run
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    with tracing.Tracer(1).patched():
        assert pipeline.extract_random_effects is not diagnostics.extract_random_effects
    assert pipeline.extract_random_effects is diagnostics.extract_random_effects

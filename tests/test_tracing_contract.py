"""The benchmark runs on this tree: every name its traced mode wraps exists,
and one round of its timed mode is correct."""

import importlib
import json
import subprocess
import sys
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


def test_timed_round_is_correct():
    # ``--seconds 0`` runs exactly one round: every stage on each fleet, with
    # the outputs checked against independent computations
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fleet_fit", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr

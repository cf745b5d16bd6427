"""The benchmark runs on this tree: every name its traced mode wraps exists,
one traced pass yields every per-layer figure, and one round of its timed
mode is correct."""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

from pumpcausal import diagnostics, pipeline
from pumpcausal.synth import SynthConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_traced_function(monkeypatch):
    # ``patched()`` looks up every name the traced benchmark wraps, so a
    # renamed or deleted function fails here rather than in a traced run
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    with tracing.Tracer(1).patched():
        assert pipeline.extract_random_effects is not diagnostics.extract_random_effects
    assert pipeline.extract_random_effects is diagnostics.extract_random_effects


def test_traced_pass_yields_every_per_layer_metric(monkeypatch, tmp_path):
    # one traced pass of every stage at a small size: each wrapped function
    # is called, its result has the fields the tracer reads, and draws.csv
    # parses as the ESS figure reads it
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    run = importlib.import_module("run")
    cfg = pipeline.PipelineConfig(
        out_dir=tmp_path,
        seed=11,
        threads=1,
        synth=SynthConfig(n_pumps=25),
        n_draws=100,
        n_tune=100,
        n_chains=2,
        active_features=("std", "min", "recent_change_rate", "trend_slope_90d"),
        n_bootstrap=15,
    )
    tracer = tracing.Tracer(cfg.synth.n_pumps)
    with tracer.patched():
        pipeline.run_synth(cfg)
        for stage in run.STAGES:
            getattr(pipeline, stage)(cfg)
        metrics = tracer.pass_metrics()
    metrics["nuts.min_ess"] = run.min_bulk_ess(cfg.path("draws"), cfg.n_chains)
    metrics["nuts.min_ess_per_s"] = metrics["nuts.min_ess"] / metrics["nuts.sample_s"]
    metrics.update(tracer.pool_metrics())
    assert set(run.PER_LAYER_UNITS) <= set(metrics)
    for name in run.PER_LAYER_UNITS:
        assert math.isfinite(metrics[name]), name


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

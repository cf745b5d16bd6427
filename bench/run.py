"""Benchmark of the fit -> features -> groups -> discovery chain.

    python3 bench/run.py --workload fleet_fit --seed 1 --seconds 30 --trace 0

Draws the workload's fleets from the seed and writes each fleet's
``inspections.csv`` and ``timeseries.csv`` (``gen.py``).  A pass calls
``run_fit``, ``run_features``, ``run_group`` and ``run_discover`` on one
fleet -- the stages of ``pumpcausal pipeline --no-cache`` -- in this one
process with ``threads = 1``; a round is one pass on every fleet, and
rounds repeat for about ``--seconds``.  Every fleet's outputs are checked
against independent computations (``checks.py``) and must be
byte-identical from round to round.  The last line of standard output is
one JSON object: with ``--trace 0`` the end-to-end metrics (means over
passes), with ``--trace 1`` the per-layer metrics from wrappers around the
program's public functions (``tracing.py``).  Run it from the repository
root; it imports the package from ``src/`` of the same tree, writes under
``bench/_runs/`` and removes its files when done.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

IMPORT_REPS = 3
FEATURE_WINDOW = 90
# iqr and trend_intercept are exact linear combinations of other default
# features, which makes the covariance singular once a group reaches 24
# members; they are left out so discovery runs at fleet size
LEFT_OUT_FEATURES = ("iqr", "trend_intercept")
STAGES = ("run_fit", "run_features", "run_group", "run_discover")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pumpcausal.pipeline; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    """Fleet size and count, and the sampler and bootstrap settings of the runs."""

    n_pumps: int
    fleets: int  # fleets drawn from the seed; one round runs the stages on each
    n_chains: int
    n_tune: int
    n_draws: int
    n_bootstrap: int
    max_tree_depth: int = 10


WORKLOADS = {
    # the paper's fleet; the 8 documented chains dominate
    "fleet_fit": Workload(
        n_pumps=112, fleets=3, n_chains=8, n_tune=150, n_draws=50, n_bootstrap=60
    ),
    # the same fleet size; bootstrap resamples of ~55-row groups dominate
    "fleet_discover": Workload(
        n_pumps=112, fleets=4, n_chains=2, n_tune=100, n_draws=150, n_bootstrap=200,
        max_tree_depth=5,
    ),
    # a wide fleet; ingestion, features and ~500-row ICA dominate
    "fleet_wide": Workload(
        n_pumps=1000, fleets=3, n_chains=1, n_tune=150, n_draws=50, n_bootstrap=50,
        max_tree_depth=5,
    ),
}

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "fit_s": "s",
    "discover_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "data.ingest_timeseries_s": "s",
    "data.ingest_rows_per_s": "rows/s",
    "data.ingest_inspections_s": "s",
    "data.build_transitions_s": "s",
    "data.write_transitions_s": "s",
    "hazard.target_us": "us",
    "hazard.grad_evals": "count",
    "nuts.sample_s": "s",
    "nuts.overhead_us_per_grad": "us",
    "nuts.grads_per_iter": "count",
    "nuts.min_ess": "count",
    "nuts.min_ess_per_s": "1/s",
    "nuts.write_draws_s": "s",
    "nuts.sample_2w_s": "s",
    "diagnostics.summary_s": "s",
    "diagnostics.random_effects_s": "s",
    "features.extract_s": "s",
    "features.us_per_pump": "us",
    "lingam.fast_ica_ms": "ms",
    "lingam.ica_iters": "count",
    "lingam.ica_unconverged": "count",
    "lingam.point_ica_unconverged": "count",
    "lingam.causal_order_ms": "ms",
    "lingam.estimate_effects_ms": "ms",
    "lingam.bootstrap_s": "s",
    "lingam.resamples_per_s": "1/s",
    "lingam.flagged_resamples": "count",
    "lingam.resample_yield": "ratio",
    "lingam.bootstrap_2w_s": "s",
    "pipeline.report_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import ``pumpcausal`` from this tree's ``src/``, and nowhere else."""
    if not (SRC / "pumpcausal" / "__init__.py").is_file():
        raise SystemExit(f"error: no pumpcausal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pumpcausal.pipeline

    if Path(pumpcausal.pipeline.__file__).resolve().parent != SRC / "pumpcausal":
        raise SystemExit(f"error: pumpcausal imported from {pumpcausal.pipeline.__file__}")


def time_import() -> float:
    """Seconds to import the package in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip())


def set_up(seed: int, workload: Workload, work: Path):
    """Generate and write every fleet; the fleets, their CSV paths, set-up seconds.

    Set-up seconds are the median of ``IMPORT_REPS`` fresh-interpreter
    imports plus the median over fleets of generating and writing one.
    """
    import gen

    import_s = statistics.median(time_import() for _ in range(IMPORT_REPS))
    fleets, paths, times = [], [], []
    for index in range(workload.fleets):
        started = time.perf_counter()
        fleet = gen.generate(seed, workload.n_pumps, index)
        paths.append(gen.write_csvs(fleet, work / f"fleet{index}"))
        times.append(time.perf_counter() - started)
        fleets.append(fleet)
    return fleets, paths, import_s + statistics.median(times)


def out_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_pass(pipeline, cfg) -> tuple[dict[str, float] | None, int]:
    """The four stages once on one fleet: stage timings, or None, and failures."""
    from pumpcausal.errors import PumpcausalError

    stamps = [time.perf_counter()]
    for k, stage in enumerate(STAGES):
        try:
            getattr(pipeline, stage)(cfg)
        except PumpcausalError as exc:
            print(f"{stage} failed: {exc}", file=sys.stderr)
            return None, len(STAGES) - k
        stamps.append(time.perf_counter())
    return {
        "pipeline_s": stamps[4] - stamps[0],
        "fit_s": stamps[1] - stamps[0],
        "discover_s": stamps[4] - stamps[3],
    }, 0


def run_rounds(pipeline, cfgs, seconds: float, tracer=None):
    """Run whole rounds -- one pass on every fleet -- for about ``seconds``.

    A round starts only if a round of median length would still end within
    ``seconds``; the first round always runs.  Returns the timings (and
    per-layer figures when traced) of the passes that completed, the
    operation counts, and any determinism failure.
    """
    timings, layers = [], []
    digests: dict[int, set[str]] = {}
    attempted = failed = 0
    lengths: list[float] = []
    began = time.perf_counter()
    while not lengths or time.perf_counter() - began + statistics.median(lengths) <= seconds:
        round_began = time.perf_counter()
        for index, cfg in enumerate(cfgs):
            if tracer is not None:
                tracer.reset()
            times, lost = run_pass(pipeline, cfg)
            attempted += len(STAGES)
            failed += lost
            if times is None:
                continue
            timings.append(times)
            if tracer is not None:
                layers.append(tracer.pass_metrics())
            digests.setdefault(index, set()).add(out_digest(Path(cfg.out_dir)))
        lengths.append(time.perf_counter() - round_began)
    errors = [
        f"fleet {index}: outputs differ between rounds"
        for index, seen in digests.items()
        if len(seen) > 1
    ]
    return timings, layers, attempted, failed, errors


def min_bulk_ess(draws_csv: Path, n_chains: int) -> float:
    import numpy as np

    from ess import bulk_ess

    table = np.loadtxt(draws_csv, delimiter=",", skiprows=1)
    draws = table[:, 2:].reshape(n_chains, -1, table.shape[1] - 2)
    return min(bulk_ess(draws[:, :, j]) for j in range(draws.shape[2]))


def median_by_key(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def mean_by_key(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    import_program()
    from pumpcausal import features, pipeline

    import checks

    work = BENCH / "_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        fleets, paths, setup_s = set_up(args.seed, workload, work)
        active = tuple(n for n in features.DEFAULT_ACTIVE_FEATURES if n not in LEFT_OUT_FEATURES)
        cfgs = [
            pipeline.PipelineConfig(
                out_dir=inspections.parent / "out",
                seed=args.seed,
                threads=1,
                source="files",
                inspections=inspections,
                timeseries=timeseries,
                n_draws=workload.n_draws,
                n_tune=workload.n_tune,
                n_chains=workload.n_chains,
                max_tree_depth=workload.max_tree_depth,
                use_covariates=False,
                feature_window=FEATURE_WINDOW,
                active_features=active,
                n_bootstrap=workload.n_bootstrap,
            )
            for inspections, timeseries in paths
        ]
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(workload.n_pumps)
            with tracer.patched():
                timings, layers, attempted, failed, errors = run_rounds(
                    pipeline, cfgs, args.seconds, tracer
                )
        else:
            timings, layers, attempted, failed, errors = run_rounds(pipeline, cfgs, args.seconds)
        if not timings:
            print("error: no pass completed", file=sys.stderr)
            return 1
        for index, (cfg, fleet) in enumerate(zip(cfgs, fleets)):
            if cfg.path("report").exists():  # written last, so a pass completed
                errors += checks.check_outputs(cfg.out_dir, fleet, FEATURE_WINDOW, active)
            else:
                errors.append(f"fleet {index}: no pass completed")
        for message in errors:
            print(f"check failed: {message}", file=sys.stderr)

        # the machine's speed drifts during a run; the mean over every pass
        # covers the whole measured window, where a median keeps one pass
        end_to_end = mean_by_key(timings)
        print(
            f"{args.workload} seed {args.seed}: {len(timings)} passes, "
            + ", ".join(f"{k} {v:.4f}" for k, v in end_to_end.items()),
            file=sys.stderr,
        )
        if args.trace:
            values = median_by_key(layers)
            values["nuts.min_ess"] = statistics.median(
                min_bulk_ess(cfg.path("draws"), workload.n_chains) for cfg in cfgs
            )
            values["nuts.min_ess_per_s"] = values["nuts.min_ess"] / values["nuts.sample_s"]
            values.update(tracer.pool_metrics())
            units = PER_LAYER_UNITS
        else:
            end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            end_to_end["setup_s"] = setup_s
            values, units = end_to_end, END_TO_END_UNITS
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

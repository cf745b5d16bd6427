"""Traced mode: time the program's public functions from outside.

``Tracer.patched()`` swaps wrappers in for the public functions at the
module attributes the pipeline stages look up at call time, and restores
the originals on exit.  Each wrapper records the call's wall time, and some
record counts read off the arguments or results (rows parsed, gradient
evaluations, ICA iterations, flagged resamples).  Nothing inside the
program is edited.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict

from pumpcausal import data as data_mod
from pumpcausal import features as features_mod
from pumpcausal import lingam as lingam_mod
from pumpcausal import nuts as nuts_mod
from pumpcausal import pipeline as pipeline_mod


class Tracer:
    """Per-span call durations and counters for one traced pass."""

    def __init__(self, n_pumps: int):
        self.n_pumps = n_pumps
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.last_sample_call = None
        self.last_bootstrap_calls: list = []
        self.in_bootstrap = False

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.last_bootstrap_calls.clear()

    def _timed(self, name: str, fn, note=None):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            self.spans[name].append(time.perf_counter() - started)
            if note is not None:
                note(result, *args, **kwargs)
            return result

        return wrapper

    def _count_rows(self, series, *args, **kwargs):
        self.counts["data.ingest_rows"] += sum(len(s.values) for s in series)

    def _note_ica(self, result, *args, **kwargs):
        self.counts["lingam.ica_iters"] += result.n_iter
        self.counts["lingam.ica_unconverged"] += not result.converged
        self.counts["lingam.point_ica_unconverged"] += not (result.converged or self.in_bootstrap)

    def _note_bootstrap(self, result, x, *args, **kwargs):
        self.counts["lingam.resamples"] += kwargs["n_resamples"]
        self.counts["lingam.flagged_resamples"] += result.n_flagged
        self.last_bootstrap_calls.append((x, args, kwargs))

    def _sample(self, original):
        def sample(target, dim, config, **kwargs):
            self.last_sample_call = (target, dim, config, kwargs)

            def traced_target(theta):
                started = time.perf_counter()
                result = target(theta)
                self.spans["hazard.target"].append(time.perf_counter() - started)
                return result

            self.counts["nuts.iterations"] += config.n_chains * (config.n_tune + config.n_draws)
            return original(traced_target, dim, config, **kwargs)

        return self._timed("nuts.sample", sample)

    def _bootstrap(self, original):
        def bootstrap_cis(x, *args, **kwargs):
            self.in_bootstrap = True
            try:
                return original(x, *args, **kwargs)
            finally:
                self.in_bootstrap = False

        return self._timed("lingam.bootstrap", bootstrap_cis, self._note_bootstrap)

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced function for the duration of the block."""
        t = self._timed
        replacements = [
            (data_mod, "ingest_timeseries", t("data.ingest_timeseries", data_mod.ingest_timeseries, self._count_rows)),
            (data_mod, "ingest_inspections", t("data.ingest_inspections", data_mod.ingest_inspections)),
            (data_mod, "build_transitions", t("data.build_transitions", data_mod.build_transitions)),
            (data_mod, "write_transitions_csv", t("data.write_transitions", data_mod.write_transitions_csv)),
            (pipeline_mod, "sample", self._sample(pipeline_mod.sample)),
            (nuts_mod, "split_rhat", t("diagnostics.summary", nuts_mod.split_rhat)),
            (nuts_mod, "ess", t("diagnostics.summary", nuts_mod.ess)),
            (pipeline_mod, "write_draws_csv", t("nuts.write_draws", pipeline_mod.write_draws_csv)),
            (pipeline_mod, "extract_random_effects", t("diagnostics.random_effects", pipeline_mod.extract_random_effects)),
            (features_mod, "extract_features", t("features.extract", features_mod.extract_features)),
            (lingam_mod, "fast_ica", t("lingam.fast_ica", lingam_mod.fast_ica, self._note_ica)),
            (lingam_mod, "causal_order", t("lingam.causal_order", lingam_mod.causal_order)),
            (lingam_mod, "estimate_effects", t("lingam.estimate_effects", lingam_mod.estimate_effects)),
            (lingam_mod, "bootstrap_cis", self._bootstrap(lingam_mod.bootstrap_cis)),
            (pipeline_mod, "build_report", t("pipeline.report", pipeline_mod.build_report)),
        ]
        originals = [(module, name, getattr(module, name)) for module, name, _ in replacements]
        try:
            for module, name, wrapper in replacements:
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in originals:
                setattr(module, name, original)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer figures of the pass just traced, before any reset."""
        s, c = self.spans, self.counts

        def total(name: str) -> float:
            return sum(s[name])

        def mean(name: str) -> float:
            return total(name) / len(s[name])

        grads = len(s["hazard.target"])
        sample_s = total("nuts.sample")
        target_s = total("hazard.target")
        summary_s = total("diagnostics.summary")
        bootstrap_s = total("lingam.bootstrap")
        return {
            "data.ingest_timeseries_s": mean("data.ingest_timeseries"),
            "data.ingest_rows_per_s": c["data.ingest_rows"] / total("data.ingest_timeseries"),
            "data.ingest_inspections_s": mean("data.ingest_inspections"),
            "data.build_transitions_s": mean("data.build_transitions"),
            "data.write_transitions_s": mean("data.write_transitions"),
            "hazard.target_us": 1e6 * target_s / grads,
            "hazard.grad_evals": grads,
            "nuts.sample_s": sample_s,
            "nuts.overhead_us_per_grad": 1e6 * (sample_s - target_s - summary_s) / grads,
            "nuts.grads_per_iter": grads / c["nuts.iterations"],
            "nuts.write_draws_s": total("nuts.write_draws"),
            "diagnostics.summary_s": summary_s,
            "diagnostics.random_effects_s": total("diagnostics.random_effects"),
            "features.extract_s": total("features.extract"),
            "features.us_per_pump": 1e6 * total("features.extract") / self.n_pumps,
            "lingam.fast_ica_ms": 1e3 * mean("lingam.fast_ica"),
            "lingam.ica_iters": c["lingam.ica_iters"],
            "lingam.ica_unconverged": c["lingam.ica_unconverged"],
            "lingam.point_ica_unconverged": c["lingam.point_ica_unconverged"],
            "lingam.causal_order_ms": 1e3 * mean("lingam.causal_order"),
            "lingam.estimate_effects_ms": 1e3 * mean("lingam.estimate_effects"),
            "lingam.bootstrap_s": bootstrap_s,
            "lingam.resamples_per_s": c["lingam.resamples"] / bootstrap_s,
            "lingam.flagged_resamples": c["lingam.flagged_resamples"],
            "lingam.resample_yield": 1.0 - c["lingam.flagged_resamples"] / c["lingam.resamples"],
            "pipeline.report_s": total("pipeline.report"),
        }

    def pool_metrics(self) -> dict[str, float]:
        """Re-run the last traced ``sample`` and bootstrap calls at threads = 2.

        Unwrapped, so the worker pools see the plain target; these figures
        keep the pool path, which the documented default uses, on record.
        """
        target, dim, config, kwargs = self.last_sample_call
        started = time.perf_counter()
        nuts_mod.sample(target, dim, dataclasses.replace(config, threads=2), **kwargs)
        sample_2w = time.perf_counter() - started
        started = time.perf_counter()
        for x, args, kwargs in self.last_bootstrap_calls:
            config = dataclasses.replace(kwargs["config"], threads=2)
            lingam_mod.bootstrap_cis(x, *args, **{**kwargs, "config": config})
        return {"nuts.sample_2w_s": sample_2w, "lingam.bootstrap_2w_s": time.perf_counter() - started}

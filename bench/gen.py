"""Fleet input generator for the benchmark, independent of ``pumpcausal.synth``.

Each pump gets a latent log-hazard offset ``u_i`` (the truth the fit is
checked against; normal quantiles with sd ``SIGMA_U`` in seeded order, so
every fleet has the same spread of ``u``), one contiguous daily series,
and periodic inspections whose state advances with the hazard
``exp(LOG_LAMBDA0 + u_i)``.  The series is a stationary AR(1) around a
positive level whose innovation sd grows with ``u_i``, so the ``std``
feature and its relatives carry real structure for causal discovery.

Each fleet is drawn from one PCG64 stream keyed by the workload seed, the
fleet size and the fleet's index, so the same seed gives byte-identical CSV
files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

N_STATES = 8
SIGMA_U = 1.0
LOG_LAMBDA0 = -4.5  # per-day hazard for u = 0; ~0.6 advance chance per 90 days
INTERVAL_MIN, INTERVAL_MAX = 7, 173  # uniform integer inspection gaps, median 90
LEVEL = 20.0  # series level, far from 0 so ratio and drawdown features stay tame
LEVEL_SD = 1.0
AR_COEFF = 0.8
NOISE_SD = 0.5
NOISE_U_SLOPE = 0.3  # log innovation sd per unit of u


@dataclass(frozen=True, eq=False)
class Fleet:
    """Generated inputs plus the truth that produced them."""

    pump_ids: tuple[str, ...]
    u_true: np.ndarray  # (n_pumps,)
    series: np.ndarray  # (n_pumps, study_days): day d of pump i at [i, d]
    inspections: list[tuple[str, int, int]]  # (pump_id, day, state), day-ordered per pump

    @property
    def n_pumps(self) -> int:
        return len(self.pump_ids)

    @property
    def study_days(self) -> int:
        return self.series.shape[1]


def _normal_quantiles(n: int) -> np.ndarray:
    inv = NormalDist().inv_cdf
    return np.array([inv((k + 0.5) / n) for k in range(n)])


def generate(seed: int, n_pumps: int, index: int = 0, study_days: int = 650) -> Fleet:
    """Draw fleet number ``index`` of ``n_pumps`` pumps observed for ``study_days`` days."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n_pumps, index])))
    u_true = SIGMA_U * rng.permutation(_normal_quantiles(n_pumps))

    noise_sd = NOISE_SD * np.exp(NOISE_U_SLOPE * u_true)
    innovations = rng.standard_normal((n_pumps, study_days)) * noise_sd[:, None]
    ar = np.empty((n_pumps, study_days))
    ar[:, 0] = innovations[:, 0] / math.sqrt(1.0 - AR_COEFF**2)  # stationary start
    for day in range(1, study_days):
        ar[:, day] = AR_COEFF * ar[:, day - 1] + innovations[:, day]
    series = LEVEL + rng.normal(0.0, LEVEL_SD, n_pumps)[:, None] + ar

    max_steps = study_days // INTERVAL_MIN + 1
    gaps = rng.integers(INTERVAL_MIN, INTERVAL_MAX + 1, (n_pumps, max_steps))
    draws = rng.random((n_pumps, max_steps))
    pump_ids = tuple(f"P{i:04d}" for i in range(n_pumps))
    inspections: list[tuple[str, int, int]] = []
    for i, pump_id in enumerate(pump_ids):
        day, state = 0, 1
        inspections.append((pump_id, day, state))
        for gap, draw in zip(gaps[i], draws[i]):
            if day + gap > study_days - 1:
                break
            if state < N_STATES:
                advance = -math.expm1(-math.exp(LOG_LAMBDA0 + u_true[i]) * gap)
                state += int(draw < advance)
            day += gap
            inspections.append((pump_id, day, state))
    return Fleet(pump_ids, u_true, series, inspections)


def write_csvs(fleet: Fleet, out_dir: Path) -> tuple[Path, Path]:
    """Write ``inspections.csv`` and ``timeseries.csv``; values round-trip exactly."""
    out_dir.mkdir(parents=True, exist_ok=True)
    inspections = out_dir / "inspections.csv"
    timeseries = out_dir / "timeseries.csv"
    with inspections.open("w", encoding="utf-8", newline="") as fh:
        fh.write("pump_id,day,state\n")
        fh.writelines(f"{p},{d},{s}\n" for p, d, s in fleet.inspections)
    days = [f",{d}," for d in range(fleet.study_days)]
    with timeseries.open("w", encoding="utf-8", newline="") as fh:
        fh.write("pump_id,day,value\n")
        for pump_id, values in zip(fleet.pump_ids, fleet.series.tolist()):
            fh.write("".join([f"{pump_id}{d}{v!r}\n" for d, v in zip(days, values)]))
    return inspections, timeseries

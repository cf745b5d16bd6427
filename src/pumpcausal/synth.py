"""Ground-truth synthetic data for desk-scale recovery tests.

Two generators: (1) hazard inspection data simulated by inverting the
transition model itself (per-interval Bernoulli draws with the model's own
hazard), and (2) linear SEM scenarios with uniform non-Gaussian noise for
causal-discovery recovery, including a two-group scenario with a strong
planted feature-to-target effect in one group and near-zero effects in the
other.

All draws come from PCG64 streams derived from each generator's ``seed``
argument (see ``rng``), so generated datasets are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import rng as rng_mod
from .data import (
    N_STATES,
    CovariateSeries,
    Inspections,
    TransitionBuild,
    build_transitions,
)
from .errors import ConfigError
from .features import FEATURE_NAMES, FeatureMatrix
from .grouping import Group
from .tables import write_json

DEFAULT_LOG_LAMBDA0 = -4.5  # gives informative per-interval transition rates
SCENARIO_FEATURES = (
    "std",
    "min",
    "recent_change_rate",
    "trend_slope_90d",
    "rolling_std_30d_mean",
)
STRONG_EFFECTS = {"std": 1.5}  # planted in the two-group scenario's negative group
NULL_NOISE_SCALE = 0.1  # target noise of the two-group scenario's near-null group
SEM_WEIGHT_LOW, SEM_WEIGHT_HIGH = 0.5, 1.5  # edge magnitudes of generate_sem_data


@dataclass(frozen=True)
class SynthConfig:
    n_pumps: int = 112  # the paper's fleet
    sigma_u: float = 1.0
    log_lambda0: tuple[float, ...] | None = None  # None -> flat default per state
    beta: tuple[float, ...] = ()  # at most one: the series' effect on the hazard
    study_days: int = 650
    interval_min: int = 7
    interval_max: int = 173  # uniform integer intervals, median 90 days
    ar_coeff: float = 0.8
    ar_noise_sd: float = 0.5

    def __post_init__(self):
        if self.n_pumps < 1:
            raise ConfigError("n_pumps must be >= 1")
        if self.sigma_u < 0:
            raise ConfigError("sigma_u must be >= 0")
        if not 1 <= self.interval_min <= self.interval_max:
            raise ConfigError("need 1 <= interval_min <= interval_max")
        if self.study_days <= self.interval_max:
            raise ConfigError("study_days must exceed the maximum interval")
        if self.log_lambda0 is not None and len(self.log_lambda0) != N_STATES:
            raise ConfigError("log_lambda0 must have one entry per state")
        if len(self.beta) > 1:
            raise ConfigError(
                f"beta holds at most one coefficient (one series per pump), got {len(self.beta)}"
            )
        if not 0 <= abs(self.ar_coeff) < 1:
            raise ConfigError("ar_coeff must satisfy |ar_coeff| < 1")
        if self.ar_noise_sd < 0:
            raise ConfigError("ar_noise_sd must be >= 0")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    u_true: np.ndarray
    log_lambda0: np.ndarray
    beta: np.ndarray
    sigma_u: float

    def write(self, path: str | Path) -> None:
        payload = {
            "u_true": [float(v) for v in self.u_true],
            "log_lambda0": [float(v) for v in self.log_lambda0],
            "beta": [float(v) for v in self.beta],
            "sigma_u": float(self.sigma_u),
        }
        write_json(path, payload)


@dataclass(frozen=True, eq=False)
class HazardSynthesis:
    """Generated inspection data plus the truth that produced it; the
    transitions are ``build.dataset``."""

    inspections: Inspections
    covariates: tuple[CovariateSeries, ...]
    truth: GroundTruth
    build: TransitionBuild


def _ar1_series(rng: np.random.Generator, days: int, coeff: float, sd: float) -> np.ndarray:
    values = np.empty(days)
    values[0] = rng.normal(0.0, sd / math.sqrt(1.0 - coeff * coeff))
    noise = rng.normal(0.0, sd, size=days - 1)
    for t in range(1, days):
        values[t] = coeff * values[t - 1] + noise[t - 1]
    return values


def generate_hazard_data(config: SynthConfig, seed: int) -> HazardSynthesis:
    """Simulate inspections by drawing each interval's transition from the
    model's own Bernoulli(1 - exp(-lambda*dt)) probability.

    Every pump gets one daily measurement series for feature extraction;
    when ``beta`` holds a coefficient the series also drives the hazard
    through its interval means.
    """
    rng = rng_mod.stream(seed, rng_mod.KEY_SYNTH)
    beta = np.asarray(config.beta, dtype=float)
    if config.log_lambda0 is not None:
        log_lambda0 = np.asarray(config.log_lambda0, dtype=float)
    else:
        log_lambda0 = np.full(N_STATES, DEFAULT_LOG_LAMBDA0)
    u_true = rng.normal(0.0, config.sigma_u, size=config.n_pumps) if config.sigma_u else np.zeros(config.n_pumps)

    rows: list[tuple[int, int, int]] = []  # (pump, day, state)
    covariates: list[CovariateSeries] = []
    pump_ids = tuple(f"P{i:03d}" for i in range(config.n_pumps))
    for i, pump_id in enumerate(pump_ids):
        values = _ar1_series(rng, config.study_days, config.ar_coeff, config.ar_noise_sd)
        covariates.append(CovariateSeries(pump_id, 0, values))
        day = 0
        state = 1
        rows.append((i, 0, 1))
        while True:
            step = int(rng.integers(config.interval_min, config.interval_max + 1))
            next_day = day + step
            if next_day > config.study_days - 1:
                break
            if state < N_STATES:
                eta = log_lambda0[state - 1] + u_true[i]
                if len(beta):
                    eta += float(beta[0] * values[day:next_day].mean())
                prob = -math.expm1(-math.exp(eta) * step)
                if rng.random() < prob:
                    state += 1
            rows.append((i, next_day, state))
            day = next_day

    inspections = Inspections(pump_ids, *np.array(rows, dtype=np.int64).T)
    build = build_transitions(inspections, covariates if len(beta) else ())
    truth = GroundTruth(u_true=u_true, log_lambda0=log_lambda0, beta=beta, sigma_u=config.sigma_u)
    return HazardSynthesis(inspections, tuple(covariates), truth, build)


@dataclass(frozen=True, eq=False)
class SemSample:
    """Rows from a fully-connected lower-triangular linear SEM.

    ``effects[i, j]`` is the direct effect of variable i on variable j;
    nonzero exactly when i < j.
    """

    x: np.ndarray
    effects: np.ndarray


def generate_sem_data(n_vars: int, n_rows: int, seed: int) -> SemSample:
    """Random dense acyclic SEM with U(-1, 1) noise and signed weights whose
    magnitudes are U(SEM_WEIGHT_LOW, SEM_WEIGHT_HIGH)."""
    rng = rng_mod.stream(seed, rng_mod.KEY_SCENARIO)
    effects = np.zeros((n_vars, n_vars))
    for j in range(1, n_vars):
        magnitudes = rng.uniform(SEM_WEIGHT_LOW, SEM_WEIGHT_HIGH, size=j)
        signs = np.where(rng.random(j) < 0.5, -1.0, 1.0)
        effects[:j, j] = magnitudes * signs
    x = np.empty((n_rows, n_vars))
    for j in range(n_vars):
        noise = rng.uniform(-1.0, 1.0, size=n_rows)
        x[:, j] = x[:, :j] @ effects[:j, j] + noise
    return SemSample(x=x, effects=effects)


@dataclass(frozen=True, eq=False)
class LingamScenario:
    features: FeatureMatrix
    target: np.ndarray
    planted: dict[str, float]  # feature -> its direct effect on the target


def generate_lingam_scenario(
    seed: int,
    planted: Mapping[str, float] | None = None,
    *,
    rows: int = 2000,
    noise_scale: float = 0.5,
    features: tuple[str, ...] = SCENARIO_FEATURES,
    stream_key: int = 0,
) -> LingamScenario:
    """Feature-matrix-shaped SEM sample with a planted feature -> target map.

    Features are independent uniform noise columns; the target is the
    planted linear combination plus uniform noise, keeping every error term
    non-Gaussian.  Draws come from the stream (seed, scenario-key,
    stream_key).
    """
    planted = {k: float(v) for k, v in (planted or {}).items()}
    unknown = [n for n in features if n not in FEATURE_NAMES]
    if unknown:
        raise ConfigError(f"unknown scenario features: {unknown}")
    bad = [n for n in planted if n not in features]
    if bad:
        raise ConfigError(f"planted effects reference absent features: {bad}")
    rng = rng_mod.stream(seed, rng_mod.KEY_SCENARIO, stream_key)
    values = rng.uniform(-1.0, 1.0, size=(rows, len(features)))
    coef = np.array([planted.get(name, 0.0) for name in features])
    target = values @ coef + rng.uniform(-1.0, 1.0, size=rows) * noise_scale
    matrix = FeatureMatrix(
        pump_ids=tuple(f"S{i:04d}" for i in range(rows)),
        feature_names=tuple(features),
        values=values,
    )
    return LingamScenario(matrix, target, planted)


def generate_two_group_scenario(seed: int) -> dict[Group, LingamScenario]:
    """Strong planted effects in the negative group; no planted effect and
    low target noise in the positive group."""
    return {
        Group.NEGATIVE: generate_lingam_scenario(seed, STRONG_EFFECTS, stream_key=0),
        Group.POSITIVE: generate_lingam_scenario(
            seed, noise_scale=NULL_NOISE_SCALE, stream_key=1
        ),
    }

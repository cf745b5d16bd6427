"""Time-series feature extraction over fixed daily windows.

Computes 23 named features per pump from a trailing window (default 90
days): 11 distributional statistics, 5 trend measures, and 7 variability
measures.  The default active set drops diff_mean, leaving the canonical
22-feature matrix.  All moments use population (1/T) divisors; quantiles
interpolate linearly between order statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import CovariateSeries
from .errors import DataError
from .tables import read_table, write_table

EPSILON = 1e-10

STATISTICAL_NAMES = (
    "mean", "std", "q25", "q50", "q75", "iqr", "min", "max",
    "skewness", "kurtosis", "cv",
)
TREND_NAMES = (
    "trend_slope_90d", "trend_intercept", "recent_vs_past_ratio",
    "recent_vs_past_diff", "recent_change_rate",
)
VARIABILITY_NAMES = (
    "diff_mean", "diff_abs_mean", "rolling_std_7d_mean",
    "rolling_std_14d_mean", "rolling_std_30d_mean",
    "max_drawdown", "mean_drawdown",
)
FEATURE_NAMES = STATISTICAL_NAMES + TREND_NAMES + VARIABILITY_NAMES

# diff_mean is excluded by default: 23 computed, 22 active
DEFAULT_ACTIVE_FEATURES = tuple(n for n in FEATURE_NAMES if n != "diff_mean")

ROLLING_WINDOWS = (7, 14, 30)
MIN_WINDOW = max(ROLLING_WINDOWS) + 1  # every rolling window, plus one difference
DEFAULT_WINDOW = 90
_BLOCK_ELEMENTS = 2**16  # 0.5 MB of float64 scratch per rolling width


def window_features(x) -> np.ndarray:
    """All 23 features, in ``FEATURE_NAMES`` order, of each row of a
    ``(P, w)`` matrix of daily windows.

    Rows are computed in blocks of about ``_BLOCK_ELEMENTS`` rolling-window
    values, which bounds the rolling standard deviations' scratch memory;
    each row's features do not depend on the others.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    if n < MIN_WINDOW:
        raise DataError(f"features need a window of length >= {MIN_WINDOW}, got {n}")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite value in window")
    rows = max(1, _BLOCK_ELEMENTS // (n * max(ROLLING_WINDOWS)))
    blocks = [_block_features(x[i : i + rows]) for i in range(0, len(x), rows)]
    return np.concatenate(blocks) if blocks else np.empty((0, len(FEATURE_NAMES)))


def _block_features(x: np.ndarray) -> np.ndarray:
    n = x.shape[1]
    mu = x.mean(axis=1)
    centred = x - mu[:, None]
    sigma = np.sqrt(np.mean(centred**2, axis=1))
    q25, q50, q75 = (np.quantile(x, q, axis=1) for q in (0.25, 0.5, 0.75))
    spread = sigma > 0.0
    z = centred / np.where(spread, sigma, 1.0)[:, None]
    skewness = np.where(spread, np.mean(z**3, axis=1), 0.0)
    kurtosis = np.where(spread, np.mean(z**4, axis=1) - 3.0, 0.0)

    t = np.arange(1.0, n + 1.0)
    t_bar = t.mean()
    slope = np.sum((t - t_bar) * centred, axis=1) / np.sum((t - t_bar) ** 2)
    third = n // 3
    past = x[:, :third].mean(axis=1)
    recent = x[:, n - third :].mean(axis=1)

    diffs = np.diff(x, axis=1)
    rolling = [
        np.lib.stride_tricks.sliding_window_view(x, width, axis=1).std(axis=2).mean(axis=1)
        for width in ROLLING_WINDOWS
    ]
    running_max = np.maximum.accumulate(x, axis=1)
    drawdown = (running_max - x) / (running_max + EPSILON)
    return np.stack(
        [
            mu, sigma, q25, q50, q75, q75 - q25, x.min(axis=1), x.max(axis=1),
            skewness, kurtosis, sigma / (np.abs(mu) + EPSILON),
            slope, mu - slope * t_bar, recent / (past + EPSILON), recent - past,
            (x[:, -1] - x[:, -8]) / 7.0,
            diffs.mean(axis=1), np.abs(diffs).mean(axis=1), *rolling,
            drawdown.max(axis=1), drawdown.mean(axis=1),
        ],
        axis=1,
    )


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Active-set feature rows per pump, in stable pump order."""

    pump_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray  # (n_pumps, n_active)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.pump_ids), len(self.feature_names)):
            raise DataError("feature matrix shape does not match labels")

    @property
    def n_pumps(self) -> int:
        return len(self.pump_ids)


def extract_features(
    series: Iterable[CovariateSeries],
    window_end: int,
    window: int = DEFAULT_WINDOW,
    active: Sequence[str] = DEFAULT_ACTIVE_FEATURES,
) -> FeatureMatrix:
    """Feature matrix from each pump's trailing window ending at ``window_end``.

    The window covers days [window_end - window + 1, window_end]; pumps with
    insufficient coverage are reported together in one error.
    """
    unknown = [name for name in active if name not in FEATURE_NAMES]
    if unknown:
        raise DataError(f"unknown feature names: {unknown}")
    series = list(series)
    start_day = window_end - window + 1
    short = [s.pump_id for s in series if start_day < s.start_day or window_end >= s.end_day]
    if short:
        raise DataError(
            f"series too short for window [{start_day}, {window_end}] on pumps: "
            + ", ".join(short)
        )
    windows = [s.window(start_day, window_end + 1) for s in series]
    x = np.stack(windows) if windows else np.empty((0, window))
    columns = [FEATURE_NAMES.index(name) for name in active]
    return FeatureMatrix(
        tuple(s.pump_id for s in series), tuple(active), window_features(x)[:, columns]
    )


def write_features_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    write_table(
        path,
        ["pump_id", *matrix.feature_names],
        ([pump_id, *row] for pump_id, row in zip(matrix.pump_ids, matrix.values.tolist())),
    )


def read_features_csv(path: str | Path) -> FeatureMatrix:
    """Read a feature matrix back; a repeated pump id is an error."""
    table = read_table(path, None, (float,))
    errors = table.repeated_keys()
    if table.header[:1] != ("pump_id",):
        errors.append((1, f"expected pump_id first, got header {','.join(table.header)}"))
    table.raise_first(errors)
    values = table.columns[1:]
    return FeatureMatrix(
        tuple(table.keys),
        table.header[1:],
        np.column_stack(values) if values else np.empty((len(table.keys), 0)),
    )

"""Feature extraction against an independent brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_features
from pumpcausal import features as features_mod
from pumpcausal.data import CovariateSeries
from pumpcausal.errors import DataError
from pumpcausal.features import (
    DEFAULT_ACTIVE_FEATURES,
    FEATURE_NAMES,
    extract_features,
    read_features_csv,
    window_features,
    write_features_csv,
)

SHIFTED_BY_C = {
    "mean", "min", "max", "q25", "q50", "q75", "trend_intercept",
}
# recent_vs_past_diff is a difference of two window means, so the shift cancels
SHIFT_INVARIANT = {
    "std", "iqr", "skewness", "kurtosis", "trend_slope_90d",
    "recent_vs_past_diff", "recent_change_rate", "diff_mean", "diff_abs_mean",
    "rolling_std_7d_mean", "rolling_std_14d_mean", "rolling_std_30d_mean",
}
SCALED_BY_C = {
    "mean", "std", "q25", "q50", "q75", "iqr", "min", "max",
    "trend_slope_90d", "trend_intercept", "recent_vs_past_diff",
    "recent_change_rate", "diff_mean", "diff_abs_mean",
    "rolling_std_7d_mean", "rolling_std_14d_mean", "rolling_std_30d_mean",
}
SCALE_INVARIANT = {"skewness", "kurtosis", "max_drawdown", "mean_drawdown"}


def _window(rng, loc=0.0, scale=1.0, n=90):
    return loc + scale * rng.standard_normal(n)


def features(window) -> dict[str, float]:
    """The kernel on a batch of one window, by feature name."""
    return dict(zip(FEATURE_NAMES, window_features(np.asarray(window, float)[None, :])[0]))


class TestExactCases:
    def test_constant_series(self):
        vec = features(np.full(90, 3.25))
        assert vec["mean"] == 3.25
        for name in ("std", "iqr", "cv", "skewness", "kurtosis", "trend_slope_90d",
                     "diff_mean", "diff_abs_mean", "rolling_std_7d_mean",
                     "rolling_std_14d_mean", "rolling_std_30d_mean",
                     "max_drawdown", "mean_drawdown", "recent_vs_past_diff",
                     "recent_change_rate"):
            assert vec[name] == pytest.approx(0.0, abs=1e-12), name
        assert vec["recent_vs_past_ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_ramp_one_to_ninety(self):
        vec = features(np.arange(1.0, 91.0))
        assert vec["mean"] == pytest.approx(45.5)
        assert vec["min"] == 1.0
        assert vec["max"] == 90.0
        assert vec["max_drawdown"] == 0.0
        assert vec["mean_drawdown"] == 0.0

    def test_linear_series_trend(self):
        t = np.arange(1.0, 91.0)
        vec = features(2.0 * t)
        assert vec["trend_slope_90d"] == pytest.approx(2.0, rel=1e-12)
        assert vec["trend_intercept"] == pytest.approx(0.0, abs=1e-9)
        assert vec["recent_change_rate"] == pytest.approx(2.0, rel=1e-12)

    def test_quadratic_series_slope(self):
        t = np.arange(1.0, 91.0)
        vec = features(t * t)
        oracle = brute_force_features(t * t)
        assert vec["trend_slope_90d"] == pytest.approx(oracle["trend_slope_90d"], rel=1e-12)
        assert vec["trend_slope_90d"] == pytest.approx(91.0, rel=1e-12)

    def test_symmetric_series_zero_skew(self):
        xs = np.concatenate([np.linspace(-1, 1, 45), -np.linspace(-1, 1, 45)])
        assert abs(features(xs)["skewness"]) < 1e-12

    def test_single_drop_drawdown(self):
        xs = np.concatenate([np.full(89, 2.0), [1.0]])
        vec = features(xs)
        assert vec["max_drawdown"] == pytest.approx(0.5, rel=1e-9)

    def test_increasing_series_no_drawdown(self):
        xs = np.cumsum(np.abs(np.random.default_rng(0).standard_normal(90))) + 1.0
        vec = features(xs)
        assert vec["max_drawdown"] == 0.0
        assert vec["mean_drawdown"] == 0.0


class TestOracleEquivalence:
    def test_random_windows_match_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            xs = _window(rng, loc=float(rng.normal(0, 3)), scale=float(rng.uniform(0.1, 5)))
            ours = features(xs)
            oracle = brute_force_features(xs)
            assert set(ours) == set(oracle) == set(FEATURE_NAMES)
            for name in FEATURE_NAMES:
                assert ours[name] == pytest.approx(oracle[name], abs=1e-12, rel=1e-12), name

    def test_batch_rows_match_oracle_and_batch_of_one(self):
        rng = np.random.default_rng(43)
        loc = rng.normal(0.0, 3.0, (200, 1))
        scale = rng.uniform(0.1, 5.0, (200, 1))
        batch = loc + scale * rng.standard_normal((200, 90))
        batch[0] = 2.0  # a constant row among varying ones
        assert len(batch) > features_mod._BLOCK_ELEMENTS // (90 * 30)  # spans blocks
        out = window_features(batch)
        assert out.shape == (200, len(FEATURE_NAMES))
        for i, row in enumerate(batch):
            oracle = brute_force_features(row)
            for j, name in enumerate(FEATURE_NAMES):
                assert out[i, j] == pytest.approx(oracle[name], abs=1e-12, rel=1e-12), (i, name)
            assert np.array_equal(out[i], window_features(row[None, :])[0]), i


class TestProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_shift_equivariance(self, seed, shift):
        xs = _window(np.random.default_rng(seed))
        base = features(xs)
        moved = features(xs + shift)
        for name in SHIFT_INVARIANT:
            assert moved[name] == pytest.approx(base[name], abs=1e-9), name
        for name in SHIFTED_BY_C:
            assert moved[name] == pytest.approx(base[name] + shift, abs=1e-9), name

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_equivariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        xs = np.abs(_window(rng)) + 0.5  # positive series keeps drawdowns comparable
        base = features(xs)
        scaled = features(scale * xs)
        for name in SCALED_BY_C:
            assert scaled[name] == pytest.approx(scale * base[name], rel=1e-9, abs=1e-9), name
        for name in SCALE_INVARIANT:
            assert scaled[name] == pytest.approx(base[name], rel=1e-6, abs=1e-9), name
        assert scaled["cv"] == pytest.approx(base["cv"], rel=1e-6)
        assert scaled["recent_vs_past_ratio"] == pytest.approx(
            base["recent_vs_past_ratio"], rel=1e-6
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_quantile_ordering(self, seed):
        rng = np.random.default_rng(seed)
        xs = _window(rng, loc=float(rng.normal()), scale=float(rng.uniform(0.01, 10)))
        vec = features(xs)
        assert vec["min"] <= vec["q25"] <= vec["q50"] <= vec["q75"] <= vec["max"]
        assert vec["iqr"] >= 0.0
        assert vec["std"] >= 0.0

    def test_drawdown_bounded_for_positive_series(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            xs = np.abs(_window(rng)) + 0.01
            vec = features(xs)
            assert 0.0 <= vec["max_drawdown"] <= 1.0 + 1e-9


class TestWindowContracts:
    def test_minimum_lengths(self):
        with pytest.raises(DataError, match="length >= 31, got 30"):
            window_features(np.ones((2, 30)))
        assert window_features(np.ones((2, 31))).shape == (2, len(FEATURE_NAMES))


class TestExtractFeatures:
    def _series(self, rng, pump_ids, days=120):
        return [CovariateSeries(pid, 0, rng.standard_normal(days)) for pid in pump_ids]

    def test_default_active_set_has_22_features(self):
        assert len(DEFAULT_ACTIVE_FEATURES) == 22
        assert "diff_mean" not in DEFAULT_ACTIVE_FEATURES
        assert len(FEATURE_NAMES) == 23

    def test_identical_series_identical_rows(self):
        values = np.random.default_rng(0).standard_normal(100)
        series = [CovariateSeries(pid, 0, values) for pid in ("A", "B", "C")]
        matrix = extract_features(series, window_end=99)
        assert np.array_equal(matrix.values[0], matrix.values[1])
        assert np.array_equal(matrix.values[0], matrix.values[2])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        series = self._series(rng, ["A", "B", "C"])
        forward = extract_features(series, window_end=119)
        backward = extract_features(series[::-1], window_end=119)
        assert backward.pump_ids == tuple(reversed(forward.pump_ids))
        np.testing.assert_array_equal(backward.values, forward.values[::-1])

    def test_short_series_reported_by_pump(self):
        rng = np.random.default_rng(2)
        series = self._series(rng, ["A"], days=120) + self._series(rng, ["B"], days=50)
        with pytest.raises(DataError, match="B"):
            extract_features(series, window_end=119)

    def test_unknown_active_feature(self):
        with pytest.raises(DataError, match="unknown"):
            extract_features([], window_end=89, active=["nope"])

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = extract_features(self._series(rng, ["A", "B"]), window_end=119)
        path = tmp_path / "features.csv"
        write_features_csv(matrix, path)
        again = read_features_csv(path)
        assert again.pump_ids == matrix.pump_ids
        assert again.feature_names == matrix.feature_names
        np.testing.assert_array_equal(again.values, matrix.values)

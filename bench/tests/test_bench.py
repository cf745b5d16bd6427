"""Tests for the benchmark's own code: the generator, the checks and the ESS.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from ess import bulk_ess  # noqa: E402
from pumpcausal.data import build_transitions, ingest_inspections, ingest_timeseries  # noqa: E402


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    fleet = gen.generate(seed=3, n_pumps=40, study_days=300)
    paths = gen.write_csvs(fleet, tmp_path_factory.mktemp("fleet"))
    return fleet, paths


def test_generator_files_are_accepted_with_intended_counts(written):
    fleet, (inspections, timeseries) = written
    records = ingest_inspections(inspections)
    series = ingest_timeseries(timeseries)
    assert len(records) == len(fleet.inspections)
    assert {r.pump_id for r in records} == set(fleet.pump_ids)
    assert [s.pump_id for s in series] == list(fleet.pump_ids)
    assert all(s.start_day == 0 and len(s.values) == 300 for s in series)
    assert sum(len(s.values) for s in series) == 40 * 300
    assert {r.state for r in records} <= set(range(1, gen.N_STATES + 1))
    assert len({r.state for r in records}) > 2
    build = build_transitions(records)
    assert build.dataset.n_pumps == 40
    assert len(build.dataset) + build.dropped == len(records) - 40


def test_generator_round_trips_values_and_repeats_by_seed(written):
    fleet, (_, timeseries) = written
    series = ingest_timeseries(timeseries)
    assert np.array_equal(np.stack([s.values for s in series]), fleet.series)
    again = gen.generate(seed=3, n_pumps=40, study_days=300)
    assert np.array_equal(again.series, fleet.series)
    assert again.inspections == fleet.inspections
    for other in (gen.generate(4, 40, study_days=300), gen.generate(3, 40, 1, study_days=300)):
        assert not np.array_equal(other.series, fleet.series)


def test_volatility_follows_u():
    fleet = gen.generate(seed=5, n_pumps=200)
    volatility = np.diff(fleet.series, axis=1).std(axis=1)
    assert np.corrcoef(np.log(volatility), fleet.u_true)[0, 1] > 0.9
    assert np.isclose(fleet.u_true.mean(), 0.0, atol=1e-12)


def test_reference_features_match_closed_forms():
    values = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    ref = checks.reference_features(values)
    assert ref["q50"] == 3.5
    assert ref["min"] == 1.0 and ref["max"] == 9.0
    t = np.arange(8.0)
    assert ref["trend_slope_90d"] == pytest.approx(
        np.sum((t - t.mean()) * (values - values.mean())) / np.sum((t - t.mean()) ** 2)
    )


def test_bulk_ess_iid_is_near_the_draw_count():
    draws = np.random.default_rng(0).standard_normal((4, 1000))
    assert bulk_ess(draws) == pytest.approx(4000, rel=0.1)


@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_bulk_ess_ar1_matches_theory(rho):
    rng = np.random.default_rng(1)
    chains, n = 4, 4000
    noise = rng.standard_normal((chains, n))
    draws = np.empty_like(noise)
    draws[:, 0] = noise[:, 0] / np.sqrt(1.0 - rho**2)
    for t in range(1, n):
        draws[:, t] = rho * draws[:, t - 1] + noise[:, t]
    expected = chains * n * (1.0 - rho) / (1.0 + rho)
    assert bulk_ess(draws) == pytest.approx(expected, rel=0.15)


def test_bulk_ess_is_rank_based():
    draws = np.random.default_rng(2).standard_normal((2, 500))
    assert bulk_ess(np.exp(draws)) == pytest.approx(bulk_ess(draws), rel=1e-12)

"""Synthetic generators: determinism, rate calibration, planted effects."""

import math

import numpy as np
import pytest

from oracles import ModelParams, log_likelihood
from pumpcausal.data import write_inspections_csv, write_timeseries_csv
from pumpcausal.errors import ConfigError
from pumpcausal.grouping import Group
from pumpcausal.synth import (
    GroundTruth,
    SynthConfig,
    generate_hazard_data,
    generate_lingam_scenario,
    generate_sem_data,
    generate_two_group_scenario,
)


class TestConfig:
    def test_zero_pumps_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_pumps=0)

    def test_interval_must_fit_study(self):
        with pytest.raises(ConfigError):
            SynthConfig(study_days=100, interval_max=150)

    def test_negative_noise_sd_rejected(self):
        with pytest.raises(ConfigError, match="ar_noise_sd"):
            SynthConfig(ar_noise_sd=-0.5)

    def test_second_beta_rejected(self):
        # one series per pump, so at most one hazard coefficient
        with pytest.raises(ConfigError, match="beta holds at most one coefficient"):
            SynthConfig(beta=(0.5, -0.5))


class TestHazardData:
    def test_ground_truth_with_nan_not_written(self, tmp_path):
        truth = GroundTruth(
            u_true=np.array([0.5, np.nan]), log_lambda0=np.zeros(8), beta=np.empty(0), sigma_u=1.0
        )
        with pytest.raises(ValueError):
            truth.write(tmp_path / "ground_truth.json")

    def test_seed_determinism(self, tmp_path):
        a = generate_hazard_data(SynthConfig(n_pumps=10), 4)
        b = generate_hazard_data(SynthConfig(n_pumps=10), 4)
        for name in ("pump", "day", "state"):
            assert np.array_equal(getattr(a.inspections, name), getattr(b.inspections, name))
        data_a, data_b = a.build.dataset, b.build.dataset
        for name in ("y", "dt", "k", "pump", "x"):
            assert np.array_equal(getattr(data_a, name), getattr(data_b, name))
        assert (data_a.n_pumps, data_a.n_states) == (data_b.n_pumps, data_b.n_states)
        np.testing.assert_array_equal(a.truth.u_true, b.truth.u_true)
        for name, writer, items_a, items_b in (
            ("i.csv", write_inspections_csv, a.inspections, b.inspections),
            ("t.csv", write_timeseries_csv, a.covariates, b.covariates),
        ):
            pa, pb = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
            writer(items_a, pa)
            writer(items_b, pb)
            assert pa.read_bytes() == pb.read_bytes()

    def test_shared_hazard_rate_matches_binomial(self):
        # sigma_u = 0, beta = (): every interval is Bernoulli(1 - exp(-l0*dt))
        config = SynthConfig(
            n_pumps=200, sigma_u=0.0,
            log_lambda0=(-5.0,) * 8, interval_min=90, interval_max=90,
        )
        synthesis = generate_hazard_data(config, 1)
        y = synthesis.build.dataset.y
        prob = -math.expm1(-math.exp(-5.0) * 90.0)
        n = len(y)
        sd = math.sqrt(prob * (1 - prob) / n)
        assert abs(y.mean() - prob) < 3.0 * sd

    def test_vanishing_hazard_no_transitions(self):
        config = SynthConfig(n_pumps=20, log_lambda0=(-20.0,) * 8)
        synthesis = generate_hazard_data(config, 2)
        assert synthesis.build.dataset.y.sum() == 0

    def test_states_capped_and_consistent(self):
        config = SynthConfig(n_pumps=30, log_lambda0=(-3.0,) * 8)
        synthesis = generate_hazard_data(config, 3)
        states = synthesis.inspections.state
        assert max(states) <= 8
        assert min(states) >= 1
        # transitions derive from the inspections through the standard builder
        assert synthesis.build.dropped_decrease == 0

    def test_covariates_cover_study(self):
        config = SynthConfig(n_pumps=3, study_days=400)
        synthesis = generate_hazard_data(config, 5)
        assert len(synthesis.covariates) == 3
        for series in synthesis.covariates:
            assert len(series.values) == 400

    def test_beta_covariates_enter_hazard(self):
        config = SynthConfig(n_pumps=40, beta=(1.5,))
        synthesis = generate_hazard_data(config, 6)
        assert synthesis.build.dataset.n_covariates == 1
        assert len(synthesis.covariates) == 40

    def test_truth_beats_random_perturbations(self):
        config = SynthConfig(n_pumps=30)
        synthesis = generate_hazard_data(config, 7)
        truth = synthesis.truth
        params = ModelParams(
            log_lambda0=truth.log_lambda0,
            beta=truth.beta,
            u_raw=truth.u_true / truth.sigma_u,
            sigma_u=truth.sigma_u,
        )
        base = log_likelihood(params, synthesis.build.dataset)
        rng = np.random.default_rng(123)
        wins = 0
        for _ in range(100):
            # unit-scale coordinate perturbations of the generating parameters
            du = rng.standard_normal(len(truth.u_true))
            dl = rng.standard_normal(len(truth.log_lambda0))
            perturbed = ModelParams(
                log_lambda0=truth.log_lambda0 + dl,
                beta=truth.beta,
                u_raw=(truth.u_true + du) / truth.sigma_u,
                sigma_u=truth.sigma_u,
            )
            wins += base > log_likelihood(perturbed, synthesis.build.dataset)
        assert wins >= 95


class TestSemData:
    def test_full_lower_triangular_effects(self):
        sem = generate_sem_data(5, 100, seed=0)
        for i in range(5):
            for j in range(5):
                if i < j:
                    assert 0.5 <= abs(sem.effects[i, j]) <= 1.5
                else:
                    assert sem.effects[i, j] == 0.0

    def test_data_satisfies_sem(self):
        sem = generate_sem_data(4, 2000, seed=1)
        # noise = x - B^T-structured reconstruction must be within [-1, 1]
        residual = sem.x - sem.x @ sem.effects
        assert np.max(np.abs(residual)) <= 1.0 + 1e-12


class TestScenarios:
    def test_null_scenario_independent(self):
        scenario = generate_lingam_scenario(8, {}, noise_scale=1.0)
        corr = np.corrcoef(scenario.features.values.T, scenario.target)
        assert np.max(np.abs(corr[:-1, -1])) < 0.08

    def test_planted_effect_ols_recovery(self):
        scenario = generate_lingam_scenario(9, {"std": 1.5}, noise_scale=0.5)
        f = scenario.features.values[:, scenario.features.feature_names.index("std")]
        coef = float(f @ scenario.target) / float(f @ f)
        assert coef == pytest.approx(1.5, abs=0.1)

    def test_two_group_contrast_by_construction(self):
        two = generate_two_group_scenario(10)
        assert list(two) == [Group.NEGATIVE, Group.POSITIVE]
        assert two[Group.NEGATIVE].planted == {"std": 1.5}  # the strong side
        assert two[Group.POSITIVE].planted == {}

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError, match="absent features"):
            generate_lingam_scenario(0, {"not_a_feature": 1.0})
        with pytest.raises(ConfigError, match="absent features"):
            generate_lingam_scenario(0, {"min": 1.0}, features=("std",))
        with pytest.raises(ConfigError, match="unknown scenario features"):
            generate_lingam_scenario(0, features=("std", "not_a_feature"))

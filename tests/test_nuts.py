"""Sampler calibration, diagnostics oracles, and determinism."""

import json
import math

import numpy as np
import pytest

from oracles import ks_statistic, standard_normal_cdf
from pumpcausal.diagnostics import (
    RandomEffectEstimate,
    ess,
    extract_random_effects,
    hdi,
    split_rhat,
)
from pumpcausal.errors import SamplerError
from pumpcausal.hazard import ParamLayout
from pumpcausal.nuts import (
    PosteriorSamples,
    SamplerConfig,
    diagnostic_flags,
    sample,
    write_diagnostics_json,
    write_draws_csv,
)


def normal_target(theta):
    return -0.5 * float(theta @ theta), -theta


class TestSplitRhat:
    def test_constant_chains(self):
        assert split_rhat(np.ones((4, 100))) == 1.0

    def test_same_distribution_chains(self):
        rng = np.random.default_rng(0)
        draws = rng.standard_normal((8, 2000))
        assert split_rhat(draws) < 1.01

    def test_disjoint_chains(self):
        rng = np.random.default_rng(1)
        draws = np.vstack(
            [1.0 + 1e-6 * rng.standard_normal(500), -1.0 + 1e-6 * rng.standard_normal(500)]
        )
        assert split_rhat(draws) > 1.1

    def test_needs_four_draws(self):
        with pytest.raises(SamplerError):
            split_rhat(np.ones((2, 3)))


class TestEss:
    def test_independent_draws(self):
        rng = np.random.default_rng(2)
        draws = rng.standard_normal((4, 4000))
        total = draws.size
        assert abs(ess(draws) - total) < 0.1 * total

    def test_ar1_chain(self):
        phi = 0.9
        rng = np.random.default_rng(3)
        n = 8000
        draws = np.empty((4, n))
        for c in range(4):
            x = rng.standard_normal() / math.sqrt(1 - phi * phi)
            noise = rng.standard_normal(n)
            for t in range(n):
                x = phi * x + noise[t]
                draws[c, t] = x
        total = draws.size
        expected = total * (1 - phi) / (1 + phi)
        assert abs(ess(draws) - expected) < 0.25 * expected

    def test_constant_chain_reports_total(self):
        draws = np.full((3, 100), 2.5)
        assert ess(draws) == 300.0

    def test_needs_eight_draws(self):
        with pytest.raises(SamplerError):
            ess(np.ones((2, 7)))


class TestHdi:
    def test_standard_normal_quantiles(self):
        draws = np.random.default_rng(4).standard_normal(10_000)
        low, high = hdi(draws)
        assert abs(low - (-1.96)) < 0.1
        assert abs(high - 1.96) < 0.1

    def test_constant(self):
        assert hdi(np.zeros(50)) == (0.0, 0.0)

    def test_small_sample_covers_everything(self):
        assert hdi(np.array([1.0, 2.0, 3.0, 4.0])) == (1.0, 4.0)


class TestExtractRandomEffects:
    def _samples(self, u_draws, zeta_draws):
        # layout: K=1 state, p=0, one pump, zeta
        layout = ParamLayout(n_states=1, n_covariates=0, n_pumps=1)
        draws = np.zeros((1, len(u_draws), layout.dim))
        draws[0, :, layout.u_raw_slice.start] = u_draws
        draws[0, :, layout.zeta_index] = zeta_draws
        samples = PosteriorSamples(
            draws=draws,
            divergences=np.zeros(1, int),
            step_sizes=np.ones(1),
            accept_means=np.ones(1),
            grad_evals=np.zeros(1, int),
            max_depth_hits=np.zeros(1, int),
            rhat=np.ones(layout.dim),
            ess_bulk=np.full(layout.dim, float(len(u_draws))),
        )
        return samples, layout

    def test_constant_zero(self):
        samples, layout = self._samples([0.0] * 10, [0.0] * 10)
        (est,) = extract_random_effects(samples, layout)
        assert est == RandomEffectEstimate(0, 0.0, 0.0, 0.0)

    def test_arithmetic_mean_with_unit_sigma(self):
        samples, layout = self._samples([1.0, 2.0, 3.0, 4.0], [0.0] * 4)
        (est,) = extract_random_effects(samples, layout)
        assert est.u_mean == pytest.approx(2.5)
        assert (est.hdi_low, est.hdi_high) == (1.0, 4.0)

    def test_sigma_scales_effects(self):
        zeta = math.log(2.0)
        samples, layout = self._samples([1.0, 1.0, 1.0, 1.0], [zeta] * 4)
        (est,) = extract_random_effects(samples, layout)
        assert est.u_mean == pytest.approx(2.0)


class TestSample:
    def test_standard_normal_moments(self):
        config = SamplerConfig(n_draws=1000, n_tune=500, n_chains=4, seed=11, threads=1)
        samples = sample(normal_target, 1, config)
        pooled = samples.flat()[:, 0]
        assert abs(pooled.mean()) < 0.1
        assert 0.9 < pooled.std() < 1.1
        assert ks_statistic(pooled, standard_normal_cdf) < 0.05
        assert samples.rhat[0] < 1.02

    def test_acceptance_near_target(self):
        config = SamplerConfig(n_draws=500, n_tune=500, n_chains=2, seed=3, threads=1)
        samples = sample(normal_target, 1, config)
        assert abs(samples.accept_means.mean() - 0.95) < 0.05

    def test_correlated_gaussian_covariance(self):
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        prec = np.linalg.inv(cov)

        def target(theta):
            return -0.5 * float(theta @ prec @ theta), -(prec @ theta)

        config = SamplerConfig(n_draws=2000, n_tune=1000, n_chains=8, seed=5, threads=1)
        samples = sample(target, 2, config)
        empirical = np.cov(samples.flat().T)
        assert np.abs(empirical - cov).max() < 0.1

    def test_seed_determinism(self):
        config = SamplerConfig(n_draws=50, n_tune=50, n_chains=2, seed=9, threads=1)
        a = sample(normal_target, 1, config)
        b = sample(normal_target, 1, config)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert np.array_equal(a.divergences, b.divergences)

    def test_parallel_matches_serial(self):
        serial = SamplerConfig(n_draws=100, n_tune=100, n_chains=4, seed=2, threads=1)
        forked = SamplerConfig(n_draws=100, n_tune=100, n_chains=4, seed=2, threads=2)
        np.testing.assert_array_equal(
            sample(normal_target, 1, serial).draws,
            sample(normal_target, 1, forked).draws,
        )

    def test_nonfinite_initialization_raises(self):
        def bad_target(theta):
            return -math.inf, np.zeros_like(theta)

        config = SamplerConfig(n_draws=10, n_tune=10, n_chains=1, seed=0, threads=1)
        with pytest.raises(SamplerError, match="initialization"):
            sample(bad_target, 2, config)

    def test_dimension_mismatch_raises(self):
        def wrong_dim(theta):
            return -0.5 * float(theta @ theta), -theta[:1]

        config = SamplerConfig(n_draws=10, n_tune=10, n_chains=1, seed=0, threads=1)
        with pytest.raises(SamplerError, match="length"):
            sample(wrong_dim, 2, config)

    def test_config_validation(self):
        with pytest.raises(SamplerError):
            SamplerConfig(n_draws=0)
        with pytest.raises(SamplerError):
            SamplerConfig(target_accept=1.5)


class TestExports:
    def test_draws_csv_and_diagnostics_json(self, tmp_path):
        config = SamplerConfig(n_draws=20, n_tune=20, n_chains=2, seed=1, threads=1)
        samples = sample(normal_target, 1, config)
        draws_path = tmp_path / "draws.csv"
        write_draws_csv(samples, ["x"], draws_path)
        lines = draws_path.read_text().splitlines()
        assert lines[0] == "chain,draw,x"
        assert len(lines) == 1 + 2 * 20

        diag_path = tmp_path / "diag.json"
        write_diagnostics_json(samples, ["x"], diag_path)
        payload = json.loads(diag_path.read_text())
        assert set(payload) == {"summary", "parameters", "chains"}
        assert "x" in payload["parameters"]
        assert len(payload["chains"]) == 2
        assert payload["summary"]["total_divergences"] == int(samples.divergences.sum())

    @pytest.mark.parametrize("n_draws, not_computed", [(5, ["ESS"]), (3, ["R-hat", "ESS"])])
    def test_few_draws_write_null_and_flag(self, tmp_path, n_draws, not_computed):
        config = SamplerConfig(n_draws=n_draws, n_tune=20, n_chains=2, seed=1, threads=1)
        samples = sample(normal_target, 1, config)
        path = tmp_path / "diag.json"
        write_diagnostics_json(samples, ["x"], path)

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["summary"]["min_ess_bulk"] is None
        assert payload["parameters"]["x"]["ess_bulk"] is None
        assert (payload["summary"]["max_rhat"] is None) == ("R-hat" in not_computed)
        flags = diagnostic_flags(samples)
        assert "ESS not computed (fewer than 8 draws per chain)" in flags
        assert ("R-hat not computed (fewer than 4 draws per chain)" in flags) == (
            "R-hat" in not_computed
        )

    def test_chain_record(self, tmp_path):
        calls = []

        def counted_target(theta):
            calls.append(1)
            return normal_target(theta)

        config = SamplerConfig(
            n_draws=30, n_tune=30, n_chains=2, max_tree_depth=1, seed=4, threads=1
        )
        samples = sample(counted_target, 1, config)
        path = tmp_path / "diag.json"
        write_diagnostics_json(samples, ["x"], path, data={"n_transitions": 7})
        payload = json.loads(path.read_text())
        chains = payload["chains"]
        assert [c["accept_mean"] for c in chains] == samples.accept_means.tolist()
        assert sum(c["n_grad_evals"] for c in chains) == len(calls)
        hits = [c["max_tree_depth_hits"] for c in chains]
        assert all(0 < h <= config.n_draws for h in hits)
        assert payload["data"] == {"n_transitions": 7}

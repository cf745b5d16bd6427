"""Sampler calibration, diagnostics oracles, and determinism."""

import json
import math

import numpy as np
import pytest

from oracles import ks_statistic, looped, nuts_chain_serial, standard_normal_cdf
from pumpcausal.diagnostics import ess, extract_random_effects, hdi, split_rhat
from pumpcausal.errors import SamplerError
from pumpcausal.data import Dataset
from pumpcausal.hazard import ParamLayout, make_logp_and_grad
from pumpcausal.nuts import (
    PosteriorSamples,
    SamplerConfig,
    diagnostic_summary,
    sample,
    write_diagnostics_json,
    write_draws_csv,
)


def normal_target(theta):
    return -0.5 * float(theta @ theta), -theta


_PRECISION = np.linalg.inv(np.array([[1.0, 0.9], [0.9, 1.0]]))


def correlated_target(theta):
    return -0.5 * float(theta @ _PRECISION @ theta), -(_PRECISION @ theta)


def funnel_target(theta):
    """Neal's funnel in 5 dimensions: its neck makes trajectories diverge."""
    v, x = theta[0], theta[1:]
    scale = math.exp(-v)
    grad = np.empty_like(theta)
    grad[0] = -v / 9.0 + 0.5 * float(x @ x) * scale - 0.5 * len(x)
    grad[1:] = -x * scale
    return -v * v / 18.0 - 0.5 * float(x @ x) * scale - 0.5 * len(x) * v, grad


def _hazard_problem(seed=0, n_pumps=6, n_obs=60):
    rng = np.random.default_rng(seed)
    pump, state, dt, y = zip(*(
        (
            int(rng.integers(0, n_pumps)),
            int(rng.integers(1, 8)),
            float(rng.uniform(5.0, 120.0)),
            int(rng.integers(0, 2)),
        )
        for _ in range(n_obs)
    ))
    data = Dataset(
        y=y, dt=dt, k=np.subtract(state, 1), pump=pump, x=np.empty((n_obs, 0)),
        n_pumps=n_pumps, n_states=8,
    )
    layout = ParamLayout.for_dataset(data)
    return make_logp_and_grad(data), layout


def _one_row(batched_target):
    """The batched target as a plain theta -> (logp, grad) callable."""

    def target(theta):
        logp, grad = batched_target(theta[None])
        return logp[0], grad[0]

    return target


_PER_CHAIN = ("draws", "divergences", "step_sizes", "accept_means", "grad_evals", "max_depth_hits")


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

    def test_columns_match_one_column_at_a_time(self):
        draws = np.random.default_rng(5).standard_normal((200, 7)) * np.arange(1, 8)
        low, high = hdi(draws)
        assert low.shape == high.shape == (7,)
        for i in range(7):
            assert hdi(draws[:, i]) == (low[i], high[i])


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
        columns = extract_random_effects(samples, layout)
        assert [c.tolist() for c in columns] == [[0.0], [0.0], [0.0]]

    def test_arithmetic_mean_with_unit_sigma(self):
        samples, layout = self._samples([1.0, 2.0, 3.0, 4.0], [0.0] * 4)
        u_mean, hdi_low, hdi_high = extract_random_effects(samples, layout)
        assert u_mean.tolist() == pytest.approx([2.5])
        assert (hdi_low.tolist(), hdi_high.tolist()) == ([1.0], [4.0])

    def test_sigma_scales_effects(self):
        zeta = math.log(2.0)
        samples, layout = self._samples([1.0, 1.0, 1.0, 1.0], [zeta] * 4)
        u_mean, _, _ = extract_random_effects(samples, layout)
        assert u_mean.tolist() == pytest.approx([2.0])


class TestSample:
    def test_standard_normal_moments(self):
        config = SamplerConfig(n_draws=1000, n_tune=500, n_chains=4, seed=11, threads=1)
        samples = sample(looped(normal_target), 1, config)
        pooled = samples.flat()[:, 0]
        assert abs(pooled.mean()) < 0.1
        assert 0.9 < pooled.std() < 1.1
        assert ks_statistic(pooled, standard_normal_cdf) < 0.05
        assert samples.rhat[0] < 1.02

    def test_acceptance_near_target(self):
        config = SamplerConfig(n_draws=500, n_tune=500, n_chains=2, seed=3, threads=1)
        samples = sample(looped(normal_target), 1, config)
        assert abs(samples.accept_means.mean() - 0.95) < 0.05

    def test_correlated_gaussian_covariance(self):
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        prec = np.linalg.inv(cov)

        def target(theta):
            return -0.5 * float(theta @ prec @ theta), -(prec @ theta)

        config = SamplerConfig(n_draws=2000, n_tune=1000, n_chains=8, seed=5, threads=1)
        samples = sample(looped(target), 2, config)
        empirical = np.cov(samples.flat().T)
        assert np.abs(empirical - cov).max() < 0.1

    def test_seed_determinism(self):
        config = SamplerConfig(n_draws=50, n_tune=50, n_chains=2, seed=9, threads=1)
        a = sample(looped(normal_target), 1, config)
        b = sample(looped(normal_target), 1, config)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert np.array_equal(a.divergences, b.divergences)

    def test_parallel_matches_serial(self):
        serial = SamplerConfig(n_draws=100, n_tune=100, n_chains=4, seed=2, threads=1)
        forked = SamplerConfig(n_draws=100, n_tune=100, n_chains=4, seed=2, threads=2)
        np.testing.assert_array_equal(
            sample(looped(normal_target), 1, serial).draws,
            sample(looped(normal_target), 1, forked).draws,
        )

    def test_parallel_groups_match_one_group(self):
        # threads=2 runs chains {0, 1} and {2} as two lock-step groups
        target, layout = _hazard_problem()
        serial = SamplerConfig(n_draws=20, n_tune=30, n_chains=3, seed=6, threads=1)
        forked = SamplerConfig(n_draws=20, n_tune=30, n_chains=3, seed=6, threads=2)
        center = layout.prior_center()
        a = sample(target, layout.dim, serial, init_center=center)
        b = sample(target, layout.dim, forked, init_center=center)
        for name in _PER_CHAIN:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_nonfinite_initialization_raises(self):
        def bad_target(theta):
            return -math.inf, np.zeros_like(theta)

        config = SamplerConfig(n_draws=10, n_tune=10, n_chains=1, seed=0, threads=1)
        with pytest.raises(SamplerError, match="initialization"):
            sample(looped(bad_target), 2, config)

    def test_dimension_mismatch_raises(self):
        def wrong_dim(theta):
            return -0.5 * float(theta @ theta), -theta[:1]

        config = SamplerConfig(n_draws=10, n_tune=10, n_chains=1, seed=0, threads=1)
        with pytest.raises(SamplerError, match="length"):
            sample(looped(wrong_dim), 2, config)

    def test_config_validation(self):
        with pytest.raises(SamplerError):
            SamplerConfig(n_draws=0)
        with pytest.raises(SamplerError):
            SamplerConfig(target_accept=1.5)


class TestExports:
    def test_draws_csv_and_diagnostics_json(self, tmp_path):
        config = SamplerConfig(n_draws=20, n_tune=20, n_chains=2, seed=1, threads=1)
        samples = sample(looped(normal_target), 1, config)
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
        samples = sample(looped(normal_target), 1, config)
        path = tmp_path / "diag.json"
        write_diagnostics_json(samples, ["x"], path)

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["summary"]["min_ess_bulk"] is None
        assert payload["parameters"]["x"]["ess_bulk"] is None
        assert (payload["summary"]["max_rhat"] is None) == ("R-hat" in not_computed)
        flags = diagnostic_summary(samples)["flags"]
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
        samples = sample(looped(counted_target), 1, config)
        path = tmp_path / "diag.json"
        write_diagnostics_json(samples, ["x"], path, data={"n_transitions": 7})
        payload = json.loads(path.read_text())
        chains = payload["chains"]
        assert [c["accept_mean"] for c in chains] == samples.accept_means.tolist()
        assert sum(c["n_grad_evals"] for c in chains) == len(calls)
        hits = [c["max_tree_depth_hits"] for c in chains]
        assert all(0 < h <= config.n_draws for h in hits)
        assert payload["data"] == {"n_transitions": 7}


class TestLockStep:
    """The lock-step sampler against the recursive one, and batching."""

    @pytest.mark.parametrize(
        "case", ["correlated", "hazard", "depth_one", "divergent"]
    )
    def test_matches_serial_oracle(self, case):
        config = SamplerConfig(n_draws=40, n_tune=160, n_chains=4, seed=3, threads=1)
        center = None
        if case == "correlated":
            target, dim = correlated_target, 2
        elif case == "hazard":
            batched, layout = _hazard_problem()
            target, dim, center = _one_row(batched), layout.dim, layout.prior_center()
        elif case == "depth_one":
            target, dim = correlated_target, 2
            config = SamplerConfig(
                n_draws=40, n_tune=160, n_chains=4, seed=4, threads=1, max_tree_depth=1
            )
        else:
            target, dim = funnel_target, 5
            config = SamplerConfig(n_draws=100, n_tune=200, n_chains=4, seed=5, threads=1)
        samples = sample(looped(target), dim, config, init_center=center)
        serial = [
            nuts_chain_serial(target, dim, config, c, center) for c in range(config.n_chains)
        ]
        np.testing.assert_array_equal(samples.draws, np.stack([r["draws"] for r in serial]))
        for name, key in [
            ("divergences", "divergences"),
            ("step_sizes", "step_size"),
            ("accept_means", "accept_mean"),
            ("grad_evals", "grad_evals"),
            ("max_depth_hits", "max_depth_hits"),
        ]:
            np.testing.assert_array_equal(getattr(samples, name), [r[key] for r in serial])
        if case == "depth_one":
            assert samples.max_depth_hits.min() > 0
        if case == "divergent":
            assert samples.divergences.sum() > 0

    def test_chain_does_not_depend_on_its_batch(self):
        target, layout = _hazard_problem(seed=1)
        center = layout.prior_center()
        alone = sample(
            target, layout.dim,
            SamplerConfig(n_draws=30, n_tune=120, n_chains=1, seed=8, threads=1),
            init_center=center,
        )
        batch = sample(
            target, layout.dim,
            SamplerConfig(n_draws=30, n_tune=120, n_chains=8, seed=8, threads=1),
            init_center=center,
        )
        for name in _PER_CHAIN:
            np.testing.assert_array_equal(getattr(alone, name)[0], getattr(batch, name)[0])

    def test_batched_equals_looped(self):
        target, layout = _hazard_problem(seed=2)
        config = SamplerConfig(n_draws=30, n_tune=120, n_chains=4, seed=9, threads=1)
        center = layout.prior_center()
        batched = sample(target, layout.dim, config, init_center=center)
        row_by_row = sample(looped(_one_row(target)), layout.dim, config, init_center=center)
        for name in (*_PER_CHAIN, "rhat", "ess_bulk"):
            np.testing.assert_array_equal(getattr(batched, name), getattr(row_by_row, name))

    def test_grad_evals_count_rows_not_calls(self, tmp_path):
        target, layout = _hazard_problem(seed=3)
        calls, rows = [], []

        def counted(theta):
            calls.append(1)
            rows.append(len(theta))
            return target(theta)

        config = SamplerConfig(n_draws=20, n_tune=40, n_chains=4, seed=10, threads=1)
        samples = sample(
            counted, layout.dim, config, init_center=layout.prior_center()
        )
        path = tmp_path / "diag.json"
        write_diagnostics_json(samples, layout.names(), path)
        chains = json.loads(path.read_text())["chains"]
        assert sum(c["n_grad_evals"] for c in chains) == sum(rows)
        assert sum(rows) > len(calls)
        assert max(c["n_grad_evals"] for c in chains) <= len(calls)

    def test_batched_gradient_shape_checked(self):
        def wrong_rows(theta):
            return np.zeros(len(theta)), np.zeros((len(theta), 1))

        config = SamplerConfig(n_draws=10, n_tune=10, n_chains=2, seed=0, threads=1)
        with pytest.raises(SamplerError, match="length"):
            sample(wrong_rows, 2, config)

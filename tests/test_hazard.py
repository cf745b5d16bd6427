"""Hazard model: closed-form values, stability, and the gradient oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ModelParams,
    finite_difference_gradient,
    hazard_rate,
    log_likelihood,
    log_posterior_unconstrained,
    log_prior,
    transition_prob,
    unpack,
)
from pumpcausal.data import Dataset
from pumpcausal.hazard import ParamLayout, make_logp_and_grad


def _dataset(observations, n_pumps, n_states=8, n_covariates=0):
    """Columns of (pump, 1-based state, dt, y, x) observations."""
    pump, state, dt, y, x = zip(*observations) if observations else ((),) * 5
    return Dataset(
        y=y,
        dt=dt,
        k=np.asarray(state, dtype=np.intp) - 1,
        pump=pump,
        x=np.array(x, dtype=float).reshape(len(observations), n_covariates),
        n_pumps=n_pumps,
        n_states=n_states,
    )


def _obs(pump, state, dt, y, x=()):
    return (pump, state, dt, y, np.asarray(x, float))


def _params(n_states=8, p=0, n_pumps=1, log_l0=-5.0, sigma_u=1.0):
    return ModelParams(
        log_lambda0=np.full(n_states, log_l0),
        beta=np.zeros(p),
        u_raw=np.zeros(n_pumps),
        sigma_u=sigma_u,
    )


class TestHazardRate:
    def test_identity_case(self):
        params = _params(log_l0=0.0)
        assert hazard_rate(params, 1, np.empty(0), 0) == pytest.approx(1.0)

    def test_prior_mode_value(self):
        params = _params(log_l0=-5.0)
        assert hazard_rate(params, 3, np.empty(0), 0) == pytest.approx(
            math.exp(-5.0), rel=1e-12
        )
        assert hazard_rate(params, 3, np.empty(0), 0) == pytest.approx(0.006738, abs=1e-6)

    def test_pump_effect_multiplier(self):
        # a pump offset of 1.515 scales the hazard by exp(1.515) ~ 4.55
        params = ModelParams(
            log_lambda0=np.zeros(8), beta=np.empty(0),
            u_raw=np.array([1.515]), sigma_u=1.0,
        )
        assert hazard_rate(params, 1, np.empty(0), 0) == pytest.approx(
            math.exp(1.515), rel=1e-12
        )
        assert hazard_rate(params, 1, np.empty(0), 0) == pytest.approx(4.55, abs=0.005)

    def test_state_bounds_checked(self):
        with pytest.raises(ValueError, match=r"state 9 outside 1\.\.8"):
            hazard_rate(_params(), 9, np.empty(0), 0)


class TestTransitionProb:
    def test_vanishing_rate_limit(self):
        # the probability floor is the clamp epsilon, effectively zero
        assert transition_prob(1e-12, 1e-6) <= 1e-15

    def test_closed_form_values(self):
        assert transition_prob(0.01, 100.0) == pytest.approx(
            -math.expm1(-1.0), rel=1e-12
        )
        assert transition_prob(0.01, 100.0) == pytest.approx(0.632121, abs=1e-6)
        assert transition_prob(0.001, 90.0) == pytest.approx(0.086069, abs=1e-6)

    def test_clamped_off_one(self):
        assert transition_prob(10.0, 1000.0) < 1.0


class TestLogLikelihood:
    def test_empty_dataset(self):
        data = _dataset([], n_pumps=1)
        assert log_likelihood(_params(), data) == 0.0

    def test_no_transition_unit_exposure(self):
        # lam*dt = 1 exactly: log(1 - p) = -1
        data = _dataset([_obs(0, 1, 1.0, 0)], n_pumps=1)
        assert log_likelihood(_params(log_l0=0.0), data) == pytest.approx(-1.0, abs=1e-14)

    def test_transition_unit_exposure(self):
        data = _dataset([_obs(0, 1, 1.0, 1)], n_pumps=1)
        expected = math.log(-math.expm1(-1.0))
        assert log_likelihood(_params(log_l0=0.0), data) == pytest.approx(expected, rel=1e-12)
        assert log_likelihood(_params(log_l0=0.0), data) == pytest.approx(-0.458675, abs=1e-6)

    def test_finite_at_large_exposure(self):
        for y in (0, 1):
            data = _dataset([_obs(0, 1, 700.0, y)], n_pumps=1)
            value = log_likelihood(_params(log_l0=0.0), data)
            assert math.isfinite(value)

    def test_monotone_in_exposure(self):
        # strict monotonicity holds over the float64-representable range;
        # log(1 - exp(-x)) saturates to exactly 0.0 beyond x ~ 36
        exposures = np.exp(np.linspace(-6.0, math.log(30.0), 60))
        for y, direction in ((1, 1.0), (0, -1.0)):
            values = [
                log_likelihood(
                    _params(log_l0=0.0), _dataset([_obs(0, 1, float(dt), y)], 1)
                )
                for dt in exposures
            ]
            diffs = direction * np.diff(values)
            assert np.all(diffs > 0)
        # beyond saturation the y=0 branch keeps decreasing without overflow
        assert log_likelihood(
            _params(log_l0=0.0), _dataset([_obs(0, 1, 700.0, 0)], 1)
        ) == pytest.approx(-700.0)

    @given(st.floats(min_value=1e-6, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_pairwise(self, exposure):
        small = _dataset([_obs(0, 1, exposure, 1)], 1)
        large = _dataset([_obs(0, 1, exposure * 1.2, 1)], 1)
        params = _params(log_l0=0.0)
        assert log_likelihood(params, large) > log_likelihood(params, small)


class TestLogPrior:
    def test_mode_values_sum(self):
        params = ModelParams(
            log_lambda0=np.array([-5.0]), beta=np.empty(0),
            u_raw=np.empty(0), sigma_u=1.0,
        )
        baseline_term = math.log(1.0 / (2.0 * math.sqrt(2.0 * math.pi)))
        halfnormal_term = math.log(math.sqrt(2.0 / math.pi)) - 0.5
        assert baseline_term == pytest.approx(-1.612086, abs=1e-6)
        assert halfnormal_term == pytest.approx(-0.725791, abs=1e-6)
        assert log_prior(params) == pytest.approx(
            baseline_term + halfnormal_term, rel=1e-12
        )

    def test_finite_at_prior_modes(self):
        params = ModelParams(
            log_lambda0=np.full(8, -5.0), beta=np.zeros(2),
            u_raw=np.zeros(5), sigma_u=1e-12,
        )
        assert math.isfinite(log_prior(params))

    def test_beta_and_u_standard_normal_terms(self):
        base = _params(n_states=1, p=1, n_pumps=1)
        shifted = ModelParams(
            log_lambda0=base.log_lambda0, beta=np.array([2.0]),
            u_raw=np.zeros(1), sigma_u=1.0,
        )
        assert log_prior(base) - log_prior(shifted) == pytest.approx(2.0, rel=1e-12)


class TestUnconstrainedPosterior:
    def test_equals_sum_plus_jacobian(self):
        data = _dataset([_obs(0, 2, 30.0, 1), _obs(0, 3, 10.0, 0)], n_pumps=2)
        layout = ParamLayout.for_dataset(data)
        rng = np.random.default_rng(1)
        theta = rng.normal(0, 0.5, layout.dim)
        params = unpack(layout, theta)
        zeta = theta[layout.zeta_index]
        expected = log_likelihood(params, data) + log_prior(params) + zeta
        assert log_posterior_unconstrained(theta, data, layout) == pytest.approx(
            expected, rel=1e-12
        )

    def test_pump_reindex_invariance(self):
        obs = [_obs(0, 1, 20.0, 1), _obs(1, 2, 40.0, 0), _obs(1, 1, 15.0, 1)]
        data = _dataset(obs, n_pumps=2)
        swapped = _dataset(
            [_obs(1 - pump, state, dt, y) for pump, state, dt, y, _ in obs],
            n_pumps=2,
        )
        layout = ParamLayout.for_dataset(data)
        rng = np.random.default_rng(2)
        theta = rng.normal(0, 0.5, layout.dim)
        theta_swapped = theta.copy()
        u = layout.u_raw_slice
        theta_swapped[u] = theta[u][::-1]
        assert log_posterior_unconstrained(theta, data, layout) == pytest.approx(
            log_posterior_unconstrained(theta_swapped, swapped, layout), rel=1e-12
        )

    def test_closure_matches_operations(self):
        data = _random_dataset(np.random.default_rng(3), n_pumps=4, p=2)
        layout = ParamLayout.for_dataset(data)
        target = make_logp_and_grad(data)
        theta = np.random.default_rng(4).normal(0, 0.7, layout.dim)
        logp, grad = target(theta[None])
        assert logp.shape == (1,) and grad.shape == (1, layout.dim)
        assert logp[0] == pytest.approx(
            log_posterior_unconstrained(theta, data, layout), rel=1e-12
        )


class TestBatchedTarget:
    @pytest.mark.parametrize("p", [0, 2])
    def test_rows_independent_of_batch(self, p):
        # row c of a batch equals a (1, dim) call bit for bit, whatever C is,
        # and the scalar log-posterior to 1e-12
        rng = np.random.default_rng(8 + p)
        data = _random_dataset(rng, n_pumps=5, p=p, n_obs=120)
        layout = ParamLayout.for_dataset(data)
        target = make_logp_and_grad(data)
        for c_rows in (1, 3, 8):
            theta = rng.normal(0.0, 0.7, (c_rows, layout.dim))
            theta[:, layout.log_lambda0_slice] -= 4.5
            logp, grad = target(theta)
            assert logp.shape == (c_rows,) and grad.shape == (c_rows, layout.dim)
            for c in range(c_rows):
                logp_one, grad_one = target(theta[c : c + 1])
                assert logp_one[0] == logp[c]
                np.testing.assert_array_equal(grad_one[0], grad[c])
                assert logp[c] == pytest.approx(
                    log_posterior_unconstrained(theta[c], data, layout), rel=1e-12
                )

    def test_all_or_no_transitions(self):
        # the y = 1 rows are held apart; either block may be empty
        for y in (0, 1):
            data = _dataset([_obs(0, 1, 20.0, y), _obs(1, 2, 35.0, y)], n_pumps=2)
            layout = ParamLayout.for_dataset(data)
            theta = np.random.default_rng(y).normal(-1.0, 0.5, (2, layout.dim))
            logp, _ = make_logp_and_grad(data)(theta)
            for c in range(2):
                assert logp[c] == pytest.approx(
                    log_posterior_unconstrained(theta[c], data, layout), rel=1e-12
                )


def _random_dataset(rng, n_pumps=3, n_states=8, p=0, n_obs=None):
    n_obs = int(rng.integers(5, 30)) if n_obs is None else n_obs
    obs = [
        _obs(
            int(rng.integers(0, n_pumps)),
            int(rng.integers(1, n_states)),
            float(rng.uniform(1.0, 60.0)),
            int(rng.integers(0, 2)),
            rng.normal(size=p),
        )
        for _ in range(n_obs)
    ]
    return _dataset(obs, n_pumps, n_states, p)


class TestGradient:
    def test_prior_gradient_at_data_free_point(self):
        data = _dataset([], n_pumps=2)
        layout = ParamLayout.for_dataset(data)
        theta = np.random.default_rng(5).normal(0, 1.0, layout.dim)
        grad = make_logp_and_grad(data)(theta[None])[1][0]
        log_l0 = theta[layout.log_lambda0_slice]
        np.testing.assert_allclose(
            grad[layout.log_lambda0_slice], -(log_l0 + 5.0) / 4.0, rtol=1e-12
        )

    def test_unobserved_pump_gradient_is_prior_only(self):
        data = _dataset([_obs(0, 1, 50.0, 1)], n_pumps=3)
        layout = ParamLayout.for_dataset(data)
        theta = np.random.default_rng(6).normal(0, 0.5, layout.dim)
        grad = make_logp_and_grad(data)(theta[None])[1][0]
        u = theta[layout.u_raw_slice]
        np.testing.assert_allclose(grad[layout.u_raw_slice][1:], -u[1:], rtol=1e-12)

    @pytest.mark.parametrize("p", [0, 2])
    def test_matches_finite_differences(self, p):
        rng = np.random.default_rng(7)
        for trial in range(20):
            data = _random_dataset(rng, n_pumps=3, p=p)
            layout = ParamLayout.for_dataset(data)
            theta = rng.normal(0.0, 0.7, layout.dim)
            theta[layout.log_lambda0_slice] = rng.normal(-4.5, 0.7, layout.n_states)
            theta[layout.zeta_index] = rng.normal(0.0, 0.2)
            analytic = make_logp_and_grad(data)(theta[None])[1][0]
            numeric = finite_difference_gradient(
                lambda th: log_posterior_unconstrained(th, data, layout), theta
            )
            err = np.abs(numeric - analytic)
            tol = np.maximum(1e-6 * np.abs(analytic), 1e-8)
            assert np.all(err < tol), (trial, err.max())

"""Hierarchical hazard model: log-posterior and analytic gradient.

The hazard for pump i in state k is lambda = exp(log_lambda0[k] + beta.x +
u_i) with the pump effect written non-centered as u_i = u_raw_i * sigma_u.
Transition probability over an interval is p = 1 - exp(-lambda * dt), giving
a Bernoulli likelihood per observation.  The sampler works on a flat
unconstrained vector where sigma_u is log-transformed (zeta = log sigma_u),
so the unconstrained log-density includes the Jacobian term zeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import ModelError

PROB_FLOOR = 1e-15  # clamp for the y=1 branch when lambda*dt underflows
MAX_LOG_EXPOSURE = 700.0  # keeps exp() finite; such points reject anyway

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PriorSpec:
    """Weakly informative priors for all parameter blocks."""

    mu_log_lambda0: float = -5.0
    sd_log_lambda0: float = 2.0
    sd_beta: float = 1.0
    sigma_u_scale: float = 1.0

    def __post_init__(self):
        if min(self.sd_log_lambda0, self.sd_beta, self.sigma_u_scale) <= 0:
            raise ModelError("prior scales must be positive")


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Constrained-space parameters."""

    log_lambda0: np.ndarray
    beta: np.ndarray
    u_raw: np.ndarray
    sigma_u: float

    def __post_init__(self):
        object.__setattr__(self, "log_lambda0", np.asarray(self.log_lambda0, float))
        object.__setattr__(self, "beta", np.asarray(self.beta, float))
        object.__setattr__(self, "u_raw", np.asarray(self.u_raw, float))
        if self.sigma_u <= 0:
            raise ModelError(f"sigma_u must be positive, got {self.sigma_u}")
        for name in ("log_lambda0", "beta", "u_raw"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ModelError(f"non-finite entry in {name}")

    @property
    def u(self) -> np.ndarray:
        """Pump effects on the log-hazard scale: u_raw * sigma_u."""
        return self.u_raw * self.sigma_u


@dataclass(frozen=True)
class ParamLayout:
    """Index map for the flat unconstrained vector.

    Layout: [log_lambda0 (K), beta (p), u_raw (n_pumps), zeta] with
    zeta = log(sigma_u).
    """

    n_states: int
    n_covariates: int
    n_pumps: int

    @classmethod
    def for_dataset(cls, data: Dataset) -> "ParamLayout":
        return cls(data.n_states, data.n_covariates, data.n_pumps)

    @property
    def dim(self) -> int:
        return self.n_states + self.n_covariates + self.n_pumps + 1

    @property
    def log_lambda0_slice(self) -> slice:
        return slice(0, self.n_states)

    @property
    def beta_slice(self) -> slice:
        return slice(self.n_states, self.n_states + self.n_covariates)

    @property
    def u_raw_slice(self) -> slice:
        start = self.n_states + self.n_covariates
        return slice(start, start + self.n_pumps)

    @property
    def zeta_index(self) -> int:
        return self.dim - 1

    def pack(self, params: ModelParams) -> np.ndarray:
        if (
            len(params.log_lambda0) != self.n_states
            or len(params.beta) != self.n_covariates
            or len(params.u_raw) != self.n_pumps
        ):
            raise ModelError("parameter blocks do not match layout")
        return np.concatenate(
            [
                params.log_lambda0,
                params.beta,
                params.u_raw,
                [math.log(params.sigma_u)],
            ]
        )

    def unpack(self, theta: np.ndarray) -> ModelParams:
        theta = np.asarray(theta, float)
        if theta.shape != (self.dim,):
            raise ModelError(f"expected vector of length {self.dim}, got {theta.shape}")
        return ModelParams(
            log_lambda0=theta[self.log_lambda0_slice].copy(),
            beta=theta[self.beta_slice].copy(),
            u_raw=theta[self.u_raw_slice].copy(),
            sigma_u=math.exp(theta[self.zeta_index]),
        )

    def names(self) -> list[str]:
        return (
            [f"log_lambda0[{k}]" for k in range(1, self.n_states + 1)]
            + [f"beta[{j}]" for j in range(self.n_covariates)]
            + [f"u_raw[{i}]" for i in range(self.n_pumps)]
            + ["zeta"]
        )

    def prior_center(self, priors: PriorSpec = PriorSpec()) -> np.ndarray:
        """Prior location in unconstrained space, used to center chain inits."""
        center = np.zeros(self.dim)
        center[self.log_lambda0_slice] = priors.mu_log_lambda0
        return center


def hazard_rate(params: ModelParams, k: int, x: np.ndarray, i: int) -> float:
    """Hazard for pump i in (1-based) state k given covariates x."""
    if not 1 <= k <= len(params.log_lambda0):
        raise ModelError(f"state {k} outside 1..{len(params.log_lambda0)}")
    x = np.asarray(x, float)
    if x.shape != params.beta.shape:
        raise ModelError(f"covariate length {x.shape} != {params.beta.shape}")
    eta = params.log_lambda0[k - 1] + float(params.beta @ x) + params.u_raw[i] * params.sigma_u
    return math.exp(eta)


def transition_prob(lam: float, delta_t: float) -> float:
    """P(state advance within delta_t) = 1 - exp(-lam*dt), clamped off 0/1."""
    if lam <= 0 or delta_t <= 0:
        raise ModelError("transition_prob requires lam > 0 and delta_t > 0")
    p = -math.expm1(-lam * delta_t)
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def _check_dims(params: ModelParams, data: Dataset) -> None:
    if (
        len(params.log_lambda0) != data.n_states
        or len(params.beta) != data.n_covariates
        or len(params.u_raw) != data.n_pumps
    ):
        raise ModelError("parameter dimensions do not match dataset")


def log_likelihood(params: ModelParams, data: Dataset) -> float:
    """Bernoulli log-likelihood over all transition observations.

    Uses log(1-p) = -lam*dt on the y=0 branch and log1p(-exp(-lam*dt)) on
    the y=1 branch, so values stay finite for lam*dt up to ~700.
    """
    _check_dims(params, data)
    if not len(data):
        return 0.0
    eta = params.log_lambda0[data.k] + params.u_raw[data.pump] * params.sigma_u
    if data.n_covariates:
        eta = eta + data.x @ params.beta
    lam_dt = np.exp(np.minimum(eta + np.log(data.dt), MAX_LOG_EXPOSURE))
    log_p = np.log(np.maximum(-np.expm1(-lam_dt), PROB_FLOOR))
    return float(np.sum(np.where(data.y == 1, log_p, -lam_dt)))


def log_prior(params: ModelParams, priors: PriorSpec = PriorSpec()) -> float:
    """Sum of prior log-densities, normalizing constants included."""
    k = len(params.log_lambda0)
    p = len(params.beta)
    n = len(params.u_raw)
    sd0 = priors.sd_log_lambda0
    out = -0.5 * np.sum((params.log_lambda0 - priors.mu_log_lambda0) ** 2) / sd0**2
    out -= k * (0.5 * _LOG_2PI + math.log(sd0))
    out += -0.5 * np.sum(params.beta**2) / priors.sd_beta**2
    out -= p * (0.5 * _LOG_2PI + math.log(priors.sd_beta))
    out += -0.5 * np.sum(params.u_raw**2) - 0.5 * n * _LOG_2PI
    s = priors.sigma_u_scale
    out += 0.5 * math.log(2.0 / math.pi) - math.log(s) - 0.5 * (params.sigma_u / s) ** 2
    return float(out)


def log_posterior_unconstrained(
    theta: np.ndarray,
    data: Dataset,
    layout: ParamLayout | None = None,
    priors: PriorSpec = PriorSpec(),
) -> float:
    """Unconstrained-space log-posterior: likelihood + prior + Jacobian zeta."""
    layout = layout or ParamLayout.for_dataset(data)
    params = layout.unpack(theta)
    zeta = float(theta[layout.zeta_index])
    return log_likelihood(params, data) + log_prior(params, priors) + zeta


def grad_log_posterior(
    theta: np.ndarray,
    data: Dataset,
    layout: ParamLayout | None = None,
    priors: PriorSpec = PriorSpec(),
) -> np.ndarray:
    """Analytic gradient of ``log_posterior_unconstrained``."""
    layout = layout or ParamLayout.for_dataset(data)
    _, grad = make_logp_and_grad(data, layout, priors)(np.asarray(theta, float))
    return grad


def make_logp_and_grad(
    data: Dataset,
    layout: ParamLayout | None = None,
    priors: PriorSpec = PriorSpec(),
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Build the sampler target: theta -> (log-posterior, gradient).

    Each call is a handful of vectorized operations over the dataset's
    columns, safe for concurrent invocation.
    """
    layout = layout or ParamLayout.for_dataset(data)
    if layout.n_states != data.n_states or layout.n_pumps != data.n_pumps:
        raise ModelError("layout does not match dataset")
    y_is_one = data.y == 1
    log_dt = np.log(data.dt)
    k_idx, pump_idx, x = data.k, data.pump, data.x
    has_rows = len(data) > 0
    has_covariates = layout.n_covariates > 0
    n_states, n_pumps, dim = layout.n_states, layout.n_pumps, layout.dim
    beta_slice, u_slice = layout.beta_slice, layout.u_raw_slice
    mu0, sd0 = priors.mu_log_lambda0, priors.sd_log_lambda0
    var0, var_beta = sd0**2, priors.sd_beta**2
    scale_u2 = priors.sigma_u_scale**2
    const = (
        -n_states * (0.5 * _LOG_2PI + math.log(sd0))
        - layout.n_covariates * (0.5 * _LOG_2PI + math.log(priors.sd_beta))
        - 0.5 * n_pumps * _LOG_2PI
        + 0.5 * math.log(2.0 / math.pi)
        - math.log(priors.sigma_u_scale)
    )

    def logp_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        log_lambda0 = theta[:n_states]
        beta = theta[beta_slice]
        u_raw = theta[u_slice]
        zeta = theta[dim - 1]
        sigma_u = math.exp(zeta)

        grad = np.empty(dim)
        if has_rows:
            eta = log_lambda0[k_idx] + u_raw[pump_idx] * sigma_u
            if has_covariates:
                eta = eta + x @ beta
            lam_dt = np.exp(np.minimum(eta + log_dt, MAX_LOG_EXPOSURE))
            exp_neg = np.exp(-lam_dt)
            prob = np.maximum(-np.expm1(-lam_dt), PROB_FLOOR)
            loglik = float(np.sum(np.where(y_is_one, np.log(prob), -lam_dt)))
            g_eta = np.where(y_is_one, lam_dt * exp_neg / prob, -lam_dt)
            grad[:n_states] = np.bincount(k_idx, weights=g_eta, minlength=n_states)
            if has_covariates:
                grad[beta_slice] = g_eta @ x
            g_u = np.bincount(pump_idx, weights=g_eta, minlength=n_pumps)
            grad[u_slice] = g_u * sigma_u
            grad_zeta_lik = float(g_u @ u_raw) * sigma_u
        else:
            loglik = 0.0
            grad[:] = 0.0
            grad_zeta_lik = 0.0

        logp = loglik + const + zeta
        logp -= 0.5 * float(np.sum((log_lambda0 - mu0) ** 2)) / var0
        logp -= 0.5 * float(beta @ beta) / var_beta
        logp -= 0.5 * float(u_raw @ u_raw)
        logp -= 0.5 * sigma_u**2 / scale_u2

        grad[:n_states] -= (log_lambda0 - mu0) / var0
        if has_covariates:
            grad[beta_slice] -= beta / var_beta
        grad[u_slice] -= u_raw
        grad[dim - 1] = grad_zeta_lik - sigma_u**2 / scale_u2 + 1.0
        return logp, grad

    return logp_and_grad

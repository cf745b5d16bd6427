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

# weakly informative priors: log_lambda0 ~ N(MU_LOG_LAMBDA0, SD_LOG_LAMBDA0),
# beta ~ N(0, SD_BETA), u_raw ~ N(0, 1), sigma_u ~ HalfNormal(SIGMA_U_SCALE)
MU_LOG_LAMBDA0 = -5.0
SD_LOG_LAMBDA0 = 2.0
SD_BETA = 1.0
SIGMA_U_SCALE = 1.0


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

    def names(self) -> list[str]:
        return (
            [f"log_lambda0[{k}]" for k in range(1, self.n_states + 1)]
            + [f"beta[{j}]" for j in range(self.n_covariates)]
            + [f"u_raw[{i}]" for i in range(self.n_pumps)]
            + ["zeta"]
        )

    def prior_center(self) -> np.ndarray:
        """Prior location in unconstrained space, used to center chain inits."""
        center = np.zeros(self.dim)
        center[self.log_lambda0_slice] = MU_LOG_LAMBDA0
        return center


def make_logp_and_grad(
    data: Dataset, layout: ParamLayout | None = None
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Build the batched sampler target: theta (C, dim) -> (logp (C,), grad (C, dim)).

    Row c of both results depends on row c of theta alone, to the bit: the
    sums over observations are row sums and bincounts over per-row offsets,
    never a matrix product whose rounding could depend on C.  The
    observations are held with the y = 1 rows last, so the log and the
    gradient ratio of the transition branch run on those rows only.  Safe
    for concurrent invocation.
    """
    layout = layout or ParamLayout.for_dataset(data)
    if layout.n_states != data.n_states or layout.n_pumps != data.n_pumps:
        raise ModelError("layout does not match dataset")
    order = np.argsort(data.y, kind="stable")
    n_zero = int(np.count_nonzero(data.y == 0))
    n_obs = len(data)
    n_states, n_cov, n_pumps, dim = (
        layout.n_states, layout.n_covariates, layout.n_pumps, layout.dim
    )
    beta_slice, u_slice = layout.beta_slice, layout.u_raw_slice
    k, pump = data.k[order], data.pump[order]  # log_lambda0 is columns 0..K-1
    log_dt = np.log(data.dt[order])
    x_t = np.ascontiguousarray(data.x[order].T)  # (p, n)
    center = layout.prior_center()
    # prior variance per column; the zeta column's own prior is added apart
    prior_var = np.concatenate([
        np.full(n_states, SD_LOG_LAMBDA0**2),
        np.full(n_cov, SD_BETA**2),
        np.ones(n_pumps),
        [np.inf],
    ])
    scale_u2 = SIGMA_U_SCALE**2
    const = (
        -n_states * (0.5 * _LOG_2PI + math.log(SD_LOG_LAMBDA0))
        - n_cov * (0.5 * _LOG_2PI + math.log(SD_BETA))
        - 0.5 * n_pumps * _LOG_2PI
        + 0.5 * math.log(2.0 / math.pi)
        - math.log(SIGMA_U_SCALE)
    )
    bins: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def row_bins(c: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat bincount indices of a batch of c rows: row r's bins follow row r-1's."""
        if c not in bins:
            rows = np.arange(c)[:, None]
            bins[c] = ((rows * n_states + k).ravel(), (rows * n_pumps + pump).ravel())
        return bins[c]

    def logp_and_grad(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = len(theta)
        zeta = theta[:, dim - 1]
        sigma_u = np.exp(zeta)
        sigma_u2 = sigma_u**2 / scale_u2
        deviation = theta - center
        grad = deviation / prior_var
        logp = const - 0.5 * np.add.reduce(deviation * grad, axis=1)
        np.negative(grad, out=grad)
        logp += zeta - 0.5 * sigma_u2
        grad[:, dim - 1] = 1.0 - sigma_u2
        if not n_obs:
            return logp, grad

        u = theta[:, u_slice] * sigma_u[:, None]
        # np.take keeps the rows C-contiguous, so each row sum below runs
        # over one contiguous row
        eta = theta.take(k, axis=1)
        eta += u.take(pump, axis=1)
        for j in range(n_cov):
            eta += theta[:, beta_slice.start + j, None] * x_t[j]
        eta += log_dt
        lam_dt = np.exp(np.minimum(eta, MAX_LOG_EXPOSURE, out=eta), out=eta)
        # per-observation log-likelihood terms, then, in the same array,
        # their derivatives in eta; both are -lam*dt on the y = 0 rows
        g_eta = np.negative(lam_dt)
        neg_lam_one = g_eta[:, n_zero:].copy()
        prob = np.expm1(neg_lam_one)
        np.maximum(np.negative(prob, out=prob), PROB_FLOOR, out=prob)
        np.log(prob, out=g_eta[:, n_zero:])
        logp += np.add.reduce(g_eta, axis=1)
        np.exp(neg_lam_one, out=neg_lam_one)
        np.multiply(lam_dt[:, n_zero:], neg_lam_one, out=g_eta[:, n_zero:])
        g_eta[:, n_zero:] /= prob

        k_bins, u_bins = row_bins(c)
        g_eta = g_eta.ravel()
        grad[:, :n_states] += np.bincount(k_bins, g_eta, c * n_states).reshape(c, n_states)
        g_u = np.bincount(u_bins, g_eta, c * n_pumps).reshape(c, n_pumps)
        grad[:, u_slice] += g_u * sigma_u[:, None]
        grad[:, dim - 1] += np.add.reduce(g_u * u, axis=1)
        if n_cov:
            grad[:, beta_slice] += np.add.reduce(g_eta.reshape(c, 1, n_obs) * x_t, axis=2)
        return logp, grad

    return logp_and_grad

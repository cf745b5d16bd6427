"""Convergence diagnostics and random-effect extraction.

split R-hat compares within- and between-half-chain variance; ESS discounts
draws for autocorrelation using Geyer's initial monotone positive sequence
on the combined-chain autocorrelation estimate.
"""

from __future__ import annotations

import numpy as np

from .errors import SamplerError


def split_rhat(draws: np.ndarray) -> float:
    """Split R-hat over (n_chains, n_draws) draws of one parameter.

    Each chain is halved; the statistic is sqrt((W*(n-1)/n + B/n) / W) over
    the 2*n_chains half-chains.  Constant draws give exactly 1.0.
    """
    draws = np.asarray(draws, float)
    if draws.ndim != 2:
        raise SamplerError("split_rhat expects (n_chains, n_draws)")
    n_draws = draws.shape[1]
    if n_draws < 4:
        raise SamplerError("split_rhat needs at least 4 draws per chain")
    half = n_draws // 2
    halves = np.concatenate([draws[:, :half], draws[:, n_draws - half :]], axis=0)
    within = halves.var(axis=1, ddof=1)
    w = within.mean()
    means = halves.mean(axis=1)
    b_over_n = means.var(ddof=1)
    if w == 0.0:
        return 1.0 if b_over_n == 0.0 else np.inf
    var_plus = w * (half - 1) / half + b_over_n
    return float(np.sqrt(var_plus / w))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance (divisor n) per row of (m, n) via FFT."""
    m, n = x.shape
    centered = x - x.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, nfft, axis=1)
    acov = np.fft.irfft(f * np.conj(f), nfft, axis=1)[:, :n].real
    return acov / n


def ess(draws: np.ndarray) -> float:
    """Effective sample size over (n_chains, n_draws) draws of one parameter.

    Combined-chain autocorrelations are truncated at the first non-positive
    Geyer pair sum and capped monotone non-increasing.  A constant parameter
    reports the total draw count.
    """
    draws = np.asarray(draws, float)
    if draws.ndim != 2:
        raise SamplerError("ess expects (n_chains, n_draws)")
    m, n = draws.shape
    if n < 8:
        raise SamplerError("ess needs at least 8 draws per chain")
    total = m * n
    acov = _autocovariance(draws)
    within = acov[:, 0].mean() * n / (n - 1)
    if within == 0.0:
        return float(total)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += draws.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus

    # Geyer pair sums: keep while positive, then enforce monotone decrease
    max_pairs = n // 2
    pair_sums = rho[0 : 2 * max_pairs : 2] + rho[1 : 2 * max_pairs : 2]
    positive = np.nonzero(pair_sums <= 0.0)[0]
    cutoff = positive[0] if len(positive) else max_pairs
    if cutoff == 0:
        return float(total)
    kept = np.minimum.accumulate(pair_sums[:cutoff])
    tau = -1.0 + 2.0 * float(kept.sum())
    if tau <= 0.0:
        return float(total)
    return float(total / tau)


def hdi(draws: np.ndarray, prob: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """Shortest interval containing ``prob`` of the draws, per column of an
    (n, P) matrix (a window scan over each sorted column).

    Returns the (P,) columns of lower and upper ends; an (n,) vector of one
    parameter's draws gives two scalars.
    """
    draws = np.sort(np.asarray(draws, float), axis=0)
    n = len(draws)
    if n == 0:
        raise SamplerError("hdi of empty draws")
    window = max(1, int(np.ceil(prob * n)))
    if window >= n:
        return draws[0], draws[-1]
    widths = draws[window - 1 :] - draws[: n - window + 1]
    start = np.expand_dims(np.argmin(widths, axis=0), 0)
    return (
        np.take_along_axis(draws, start, 0)[0],
        np.take_along_axis(draws, start + window - 1, 0)[0],
    )


def extract_random_effects(samples, layout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior mean and 95% HDI of u_i = u_raw_i * sigma_u per pump.

    ``samples`` is a PosteriorSamples over the unconstrained space described
    by ``layout`` (hazard.ParamLayout).  Returns the (n_pumps,) columns
    ``u_mean``, ``hdi_low`` and ``hdi_high``.
    """
    flat = samples.flat()
    sigma = np.exp(flat[:, layout.zeta_index])
    u_draws = flat[:, layout.u_raw_slice] * sigma[:, None]
    # each pump's draws made contiguous, so that its mean sums them in the
    # same order as the mean of that pump's draws alone
    u_mean = np.ascontiguousarray(u_draws.T).mean(axis=1)
    return (u_mean, *hdi(u_draws))

"""Rank-normalised split bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Bürkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC", Bayesian Analysis 16(2): split every chain in half,
replace the pooled draws by the normal scores of their ranks, and estimate
ESS from the combined-chain autocorrelation truncated by Geyer's initial
monotone positive sequence.  Written apart from ``pumpcausal.diagnostics``
so that it can judge the sampler independently.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _split(draws: np.ndarray) -> np.ndarray:
    """(chains, n) -> (2 * chains, n // 2); drops the middle draw of odd n."""
    half = draws.shape[1] // 2
    return np.concatenate([draws[:, :half], draws[:, draws.shape[1] - half :]])


def _rank_normalise(draws: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks (average ranks for ties)."""
    ranks = rankdata(draws, method="average").reshape(draws.shape)
    return ndtri((ranks - 0.375) / (draws.size + 0.25))


def _ess(chains: np.ndarray) -> float:
    """ESS of (m, n) draws by Geyer's initial monotone sequence."""
    m, n = chains.shape
    centred = chains - chains.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, nfft, axis=1)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), nfft, axis=1)[:, :n] / n
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float(m * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # sum pairs (rho[2k] + rho[2k+1]) while positive, each capped by the last
    tau = -1.0
    prev = math.inf
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        tau += 2.0 * prev
    total = m * n
    tau = max(tau, 1.0 / math.log10(total))
    return float(total / tau)


def bulk_ess(draws: np.ndarray) -> float:
    """Rank-normalised split bulk-ESS of one parameter's (chains, draws) array."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] < 8:
        raise ValueError("bulk_ess needs (chains, draws) with at least 8 draws")
    split = _split(draws)
    if np.ptp(split) == 0.0:
        return float(split.size)
    return _ess(_rank_normalise(split))

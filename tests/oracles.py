"""Independent brute-force reference implementations used as test oracles.

Everything here is written with plain Python loops and the standard library
(or raw normal equations and per-matrix numpy calls) so it shares no code
path with the package; the LiNGAM bootstrap oracle takes only the package's
random streams, so that its resamples draw the same rows and starts.
"""

from __future__ import annotations

import math

import numpy as np


def brute_force_features(values) -> dict[str, float]:
    """All 23 window features computed with explicit loops."""
    xs = [float(v) for v in values]
    t_len = len(xs)
    out: dict[str, float] = {}

    mean = sum(xs) / t_len
    var = sum((v - mean) ** 2 for v in xs) / t_len
    std = math.sqrt(var)
    out["mean"] = mean
    out["std"] = std

    ordered = sorted(xs)

    def quantile(q: float) -> float:
        pos = (t_len - 1) * q
        lo = math.floor(pos)
        hi = math.ceil(pos)
        if lo == hi:
            return ordered[lo]
        return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])

    out["q25"] = quantile(0.25)
    out["q50"] = quantile(0.50)
    out["q75"] = quantile(0.75)
    out["iqr"] = out["q75"] - out["q25"]
    out["min"] = ordered[0]
    out["max"] = ordered[-1]
    if std > 0.0:
        out["skewness"] = sum(((v - mean) / std) ** 3 for v in xs) / t_len
        out["kurtosis"] = sum(((v - mean) / std) ** 4 for v in xs) / t_len - 3.0
    else:
        out["skewness"] = 0.0
        out["kurtosis"] = 0.0
    out["cv"] = std / (abs(mean) + 1e-10)

    t_bar = (t_len + 1) / 2.0
    sxx = sum((t - t_bar) ** 2 for t in range(1, t_len + 1))
    sxy = sum((t - t_bar) * (xs[t - 1] - mean) for t in range(1, t_len + 1))
    slope = sxy / sxx
    out["trend_slope_90d"] = slope
    out["trend_intercept"] = mean - slope * t_bar
    third = t_len // 3
    past = sum(xs[:third]) / third
    recent = sum(xs[t_len - third :]) / third
    out["recent_vs_past_ratio"] = recent / (past + 1e-10)
    out["recent_vs_past_diff"] = recent - past
    out["recent_change_rate"] = (xs[-1] - xs[-8]) / 7.0

    diffs = [xs[t] - xs[t - 1] for t in range(1, t_len)]
    out["diff_mean"] = sum(diffs) / len(diffs)
    out["diff_abs_mean"] = sum(abs(d) for d in diffs) / len(diffs)

    for width in (7, 14, 30):
        stds = []
        for end in range(width, t_len + 1):
            window = xs[end - width : end]
            w_mean = sum(window) / width
            stds.append(math.sqrt(sum((v - w_mean) ** 2 for v in window) / width))
        out[f"rolling_std_{width}d_mean"] = sum(stds) / len(stds)

    running_max = -math.inf
    drawdowns = []
    for v in xs:
        running_max = max(running_max, v)
        drawdowns.append((running_max - v) / (running_max + 1e-10))
    out["max_drawdown"] = max(drawdowns)
    out["mean_drawdown"] = sum(drawdowns) / len(drawdowns)
    return out


def ols_normal_equations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """OLS coefficients via explicitly assembled normal equations."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    gram = x.T @ x
    return np.linalg.solve(gram, x.T @ y)


def finite_difference_gradient(fn, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function."""
    theta = np.asarray(theta, float)
    grad = np.empty_like(theta)
    for j in range(len(theta)):
        step = np.zeros_like(theta)
        step[j] = h
        grad[j] = (fn(theta + step) - fn(theta - step)) / (2.0 * h)
    return grad


def ks_statistic(draws: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between draws and an analytic CDF."""
    xs = np.sort(np.asarray(draws, float).ravel())
    n = len(xs)
    values = np.asarray([cdf(v) for v in xs])
    upper = np.max(np.arange(1, n + 1) / n - values)
    lower = np.max(values - np.arange(0, n) / n)
    return float(max(upper, lower))


def standard_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# FastICA that has not converged by its iteration cap amplifies rounding, so
# the whitening and the decorrelation round exactly as the package's do
def _symmetric_decorrelation(w: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(w @ w.T)
    return (evecs * (1.0 / np.sqrt(evals))) @ evecs.T @ w


def lingam_order_loop(demixing: np.ndarray) -> tuple[int, ...]:
    """LiNGAM causal order read off a demixing matrix with plain loops.

    Rows are matched to variables by maximum |W| assignment, sign-normalised
    and scaled to unit diagonal; the order then repeatedly takes the
    remaining variable with the smallest sum of squared incoming
    coefficients from the remaining set, the lower index on ties.
    """
    from scipy.optimize import linear_sum_assignment

    d = len(demixing)
    rows, cols = linear_sum_assignment(-np.abs(demixing))
    matched = np.empty((d, d))
    for r, c in zip(rows, cols):
        if abs(demixing[r, c]) < 1e-12:
            raise ValueError("zero diagonal after row matching")
        matched[c] = demixing[r] / demixing[r, c]
    b0 = np.eye(d) - matched
    remaining = list(range(d))
    order = []
    while remaining:
        scores = [sum(b0[i, j] ** 2 for j in remaining if j != i) for i in remaining]
        best = remaining[scores.index(min(scores))]
        order.append(best)
        remaining.remove(best)
    return tuple(order)


def _lingam_fit_serial(x: np.ndarray, rng: np.random.Generator, tol: float, max_iter: int):
    """One resample's LiNGAM fit, or None where it degenerates.

    Standardize (constant column: None), check pairwise collinearity and a
    singular covariance, whiten, run 2-d symmetric FastICA with the tanh
    update from a normal start, read the order, and regress each variable
    on its predecessors by lstsq.  Returns the standardized adjacency, the
    raw-unit adjacency and the convergence flag.
    """
    n, d = x.shape
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    if any(sd[j] <= 1e-12 * max(1.0, abs(mean[j])) for j in range(d)) or n <= d + 1:
        return None
    z = (x - mean) / sd
    cov = z.T @ z / n
    for i in range(d):
        for j in range(i + 1, d):
            if abs(cov[i, j]) > 1.0 - 1e-8:
                return None
    try:
        evals, evecs = np.linalg.eigh(cov)
        if evals[0] < 1e-12 * evals[-1]:
            return None
        whiten = (evecs / np.sqrt(evals)).T
        white = z @ whiten.T
        w = _symmetric_decorrelation(rng.standard_normal((d, d)))
        converged = False
        for _ in range(max_iter):
            g = np.tanh(white @ w.T)
            w_new = _symmetric_decorrelation(
                g.T @ white / n - np.diag((1.0 - g**2).mean(axis=0)) @ w
            )
            change = max(abs(abs(w_new[i] @ w[i]) - 1.0) for i in range(d))
            w = w_new
            if change < tol:
                converged = True
                break
        demixing = w @ whiten
        if not np.all(np.isfinite(demixing)):
            return None
        order = lingam_order_loop(demixing)
        b = np.zeros((d, d))
        for pos in range(1, d):
            parents = list(order[:pos])
            child = order[pos]
            b[parents, child] = np.linalg.lstsq(z[:, parents], z[:, child], rcond=None)[0]
    except (np.linalg.LinAlgError, ValueError):
        return None
    return b, b * sd[None, :] / sd[:, None], converged


def lingam_bootstrap_serial(
    x: np.ndarray,
    n_resamples: int,
    seed: int,
    point_estimate: np.ndarray,
    tol: float = 1e-4,
    max_iter: int = 200,
) -> dict:
    """Percentile bootstrap of LiNGAM, one resample after another.

    Resample b draws its rows and then its FastICA start from the package's
    stream (seed, bootstrap-key, b); degenerate resamples are counted and
    left out.
    """
    from pumpcausal.rng import KEY_BOOTSTRAP, stream

    n = len(x)
    fits = []
    for b in range(n_resamples):
        rng = stream(seed, KEY_BOOTSTRAP, b)
        fit = _lingam_fit_serial(x[rng.integers(0, n, size=n)], rng, tol, max_iter)
        if fit is not None:
            fits.append(fit)
    std = np.stack([f[0] for f in fits])
    raw = np.stack([f[1] for f in fits])
    return {
        "ci_low": np.percentile(std, 2.5, axis=0),
        "ci_high": np.percentile(std, 97.5, axis=0),
        "ci_low_raw": np.percentile(raw, 2.5, axis=0),
        "ci_high_raw": np.percentile(raw, 97.5, axis=0),
        "sign_stability": (np.sign(std) == np.sign(point_estimate)).mean(axis=0),
        "n_flagged": n_resamples - len(fits),
        "n_unconverged": sum(not f[2] for f in fits),
    }

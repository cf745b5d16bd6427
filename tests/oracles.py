"""Independent brute-force reference implementations used as test oracles.

Everything here is written with plain Python loops and the standard library
(or raw normal equations and per-matrix numpy calls) so it shares no code
path with the package; the LiNGAM bootstrap oracle and the serial NUTS take
only the package's random streams and constants, so that they draw the same
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def looped(target):
    """A plain theta (dim,) -> (logp, grad) target as the sampler's batched
    one: each row of a (C, dim) batch in turn, stacked."""

    def batched(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        results = [target(row) for row in theta]
        return (
            np.array([logp for logp, _ in results], float),
            np.array([grad for _, grad in results], float),
        )

    return batched


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


# -------------------------------------------------------------------------
# scalar hazard model: one observation, one parameter vector at a time
# -------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Constrained-space parameters."""

    log_lambda0: np.ndarray
    beta: np.ndarray
    u_raw: np.ndarray
    sigma_u: float

    def __post_init__(self):
        from pumpcausal.errors import ModelError

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


def pack(layout, params: ModelParams) -> np.ndarray:
    """Flat unconstrained vector [log_lambda0, beta, u_raw, log(sigma_u)]."""
    from pumpcausal.errors import ModelError

    if (
        len(params.log_lambda0) != layout.n_states
        or len(params.beta) != layout.n_covariates
        or len(params.u_raw) != layout.n_pumps
    ):
        raise ModelError("parameter blocks do not match layout")
    return np.concatenate(
        [params.log_lambda0, params.beta, params.u_raw, [math.log(params.sigma_u)]]
    )


def unpack(layout, theta: np.ndarray) -> ModelParams:
    from pumpcausal.errors import ModelError

    theta = np.asarray(theta, float)
    if theta.shape != (layout.dim,):
        raise ModelError(f"expected vector of length {layout.dim}, got {theta.shape}")
    return ModelParams(
        log_lambda0=theta[layout.log_lambda0_slice].copy(),
        beta=theta[layout.beta_slice].copy(),
        u_raw=theta[layout.u_raw_slice].copy(),
        sigma_u=math.exp(theta[layout.zeta_index]),
    )


def hazard_rate(params: ModelParams, k: int, x: np.ndarray, i: int) -> float:
    """Hazard for pump i in (1-based) state k given covariates x."""
    from pumpcausal.errors import ModelError

    if not 1 <= k <= len(params.log_lambda0):
        raise ModelError(f"state {k} outside 1..{len(params.log_lambda0)}")
    x = np.asarray(x, float)
    if x.shape != params.beta.shape:
        raise ModelError(f"covariate length {x.shape} != {params.beta.shape}")
    eta = params.log_lambda0[k - 1] + float(params.beta @ x) + params.u_raw[i] * params.sigma_u
    return math.exp(eta)


def transition_prob(lam: float, delta_t: float) -> float:
    """P(state advance within delta_t) = 1 - exp(-lam*dt), clamped off 0/1."""
    from pumpcausal.errors import ModelError
    from pumpcausal.hazard import PROB_FLOOR

    if lam <= 0 or delta_t <= 0:
        raise ModelError("transition_prob requires lam > 0 and delta_t > 0")
    p = -math.expm1(-lam * delta_t)
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def log_likelihood(params: ModelParams, data) -> float:
    """Bernoulli log-likelihood, one observation after another.

    Uses log(1-p) = -lam*dt on the y=0 branch and log1p(-exp(-lam*dt)) on
    the y=1 branch, so values stay finite for lam*dt up to ~700.
    """
    from pumpcausal.errors import ModelError
    from pumpcausal.hazard import MAX_LOG_EXPOSURE, PROB_FLOOR

    if (
        len(params.log_lambda0) != data.n_states
        or len(params.beta) != data.n_covariates
        or len(params.u_raw) != data.n_pumps
    ):
        raise ModelError("parameter dimensions do not match dataset")
    total = 0.0
    for y, dt, k, pump, x in zip(data.y, data.dt, data.k, data.pump, data.x):
        eta = params.log_lambda0[k] + params.u_raw[pump] * params.sigma_u
        eta += sum(b * v for b, v in zip(params.beta, x))
        lam_dt = math.exp(min(eta + math.log(dt), MAX_LOG_EXPOSURE))
        total += math.log(max(-math.expm1(-lam_dt), PROB_FLOOR)) if y == 1 else -lam_dt
    return total


def log_prior(params: ModelParams) -> float:
    """Sum of prior log-densities, normalizing constants included:
    log_lambda0 ~ N(-5, 2), beta ~ N(0, 1), u_raw ~ N(0, 1) and
    sigma_u ~ HalfNormal(1)."""
    mu0, sd0, sd_beta, s = -5.0, 2.0, 1.0, 1.0
    out = 0.0
    for v in params.log_lambda0:
        out += -0.5 * ((v - mu0) / sd0) ** 2 - 0.5 * _LOG_2PI - math.log(sd0)
    for v in params.beta:
        out += -0.5 * (v / sd_beta) ** 2 - 0.5 * _LOG_2PI - math.log(sd_beta)
    for v in params.u_raw:
        out += -0.5 * v * v - 0.5 * _LOG_2PI
    out += 0.5 * math.log(2.0 / math.pi) - math.log(s) - 0.5 * (params.sigma_u / s) ** 2
    return out


def log_posterior_unconstrained(theta: np.ndarray, data, layout=None) -> float:
    """Unconstrained-space log-posterior: likelihood + prior + Jacobian zeta."""
    from pumpcausal.hazard import ParamLayout

    layout = layout or ParamLayout.for_dataset(data)
    params = unpack(layout, theta)
    zeta = float(theta[layout.zeta_index])
    return log_likelihood(params, data) + log_prior(params) + zeta


# -------------------------------------------------------------------------
# recursive NUTS, one chain after another
# -------------------------------------------------------------------------
#
# This is the recursive tree builder the lock-step sampler replaced.  Its
# kinetic energies and U-turn products are the same row sums the package
# takes (np.sum over one row), and its exp/log calls are numpy's, so that
# what it checks is the tree control flow and the order of the draws.


def _kinetic(r, inv_mass) -> float:
    return 0.5 * float(np.sum(r * (inv_mass * r)))


def _u_turn(rho, r_minus, r_plus, inv_mass) -> bool:
    return (
        float(np.sum(rho * (inv_mass * r_minus))) <= 0.0
        or float(np.sum(rho * (inv_mass * r_plus))) <= 0.0
    )


def _leapfrog(target, theta, r, grad, eps, inv_mass):
    r_half = r + 0.5 * eps * grad
    theta_new = theta + eps * (inv_mass * r_half)
    logp_new, grad_new = target(theta_new)
    r_new = r_half + 0.5 * eps * grad_new
    return theta_new, r_new, grad_new, logp_new


def _energy_error(logp, r, inv_mass, energy0) -> float:
    d_energy = (-logp + _kinetic(r, inv_mass)) - energy0
    return d_energy if math.isfinite(d_energy) else math.inf


class _Tree:
    """End points, momentum sum, and running proposal of a trajectory."""

    def __init__(self, theta, r, grad, logp, log_weight, stop, alpha, n_alpha):
        self.theta_minus = self.theta_plus = self.prop_theta = theta
        self.r_minus = self.r_plus = r
        self.grad_minus = self.grad_plus = self.prop_grad = grad
        self.logp_minus = self.logp_plus = self.prop_logp = logp
        self.rho = r.copy()
        self.log_weight = log_weight
        self.stop = stop
        self.alpha_sum = alpha
        self.n_alpha = n_alpha
        self.divergent = stop

    def end(self, v):
        if v == 1:
            return self.theta_plus, self.r_plus, self.grad_plus, self.logp_plus
        return self.theta_minus, self.r_minus, self.grad_minus, self.logp_minus

    def extend(self, other, v):
        """Take ``other``'s far end (direction v) as this tree's end."""
        if v == 1:
            self.theta_plus, self.r_plus = other.theta_plus, other.r_plus
            self.grad_plus, self.logp_plus = other.grad_plus, other.logp_plus
        else:
            self.theta_minus, self.r_minus = other.theta_minus, other.r_minus
            self.grad_minus, self.logp_minus = other.grad_minus, other.logp_minus

    def take_proposal(self, other):
        self.prop_theta, self.prop_logp, self.prop_grad = (
            other.prop_theta, other.prop_logp, other.prop_grad
        )


def _build_tree(target, tree_end, depth, v, eps, inv_mass, energy0, rng, threshold):
    """Extend the trajectory by a balanced subtree of 2**depth leapfrog steps."""
    theta, r, grad, logp = tree_end
    if depth == 0:
        theta1, r1, grad1, logp1 = _leapfrog(target, theta, r, grad, v * eps, inv_mass)
        d_energy = _energy_error(logp1, r1, inv_mass, energy0)
        alpha = float(np.exp(min(-d_energy, 0.0)))
        return _Tree(theta1, r1, grad1, logp1, -d_energy, d_energy > threshold, alpha, 1)
    first = _build_tree(target, tree_end, depth - 1, v, eps, inv_mass, energy0, rng, threshold)
    if first.stop:
        return first
    second = _build_tree(
        target, first.end(v), depth - 1, v, eps, inv_mass, energy0, rng, threshold
    )
    first.alpha_sum += second.alpha_sum
    first.n_alpha += second.n_alpha
    first.divergent |= second.divergent
    if second.stop:
        first.stop = True
        return first
    total = np.logaddexp(first.log_weight, second.log_weight)
    if math.log(rng.random()) < second.log_weight - total:
        first.take_proposal(second)
    first.log_weight = total
    first.extend(second, v)
    first.rho = first.rho + second.rho
    first.stop = _u_turn(first.rho, first.r_minus, first.r_plus, inv_mass)
    return first


def _find_reasonable_epsilon(target, theta, logp, grad, inv_mass, rng) -> float:
    eps = 1.0
    r = rng.standard_normal(len(theta)) / np.sqrt(inv_mass)
    energy0 = -logp + _kinetic(r, inv_mass)
    _, r1, _, logp1 = _leapfrog(target, theta, r, grad, eps, inv_mass)
    d_energy = _energy_error(logp1, r1, inv_mass, energy0)
    direction = 1.0 if -d_energy > math.log(0.5) else -1.0
    for _ in range(100):
        if direction * (-d_energy) <= direction * math.log(0.5):
            break
        eps *= 2.0**direction
        if not 1e-10 < eps < 1e10:
            break
        _, r1, _, logp1 = _leapfrog(target, theta, r, grad, eps, inv_mass)
        d_energy = _energy_error(logp1, r1, inv_mass, energy0)
    return eps


class _DualAveraging:
    def __init__(self, eps0, target_accept):
        from pumpcausal.nuts import _DA_GAMMA, _DA_KAPPA, _DA_T0

        self.gamma, self.kappa, self.t0 = _DA_GAMMA, _DA_KAPPA, _DA_T0
        self.mu = np.log(10.0 * eps0)
        self.target = target_accept
        self.log_eps = self.log_eps_bar = np.log(eps0)
        self.h_bar = 0.0
        self.count = 0

    def update(self, accept_stat):
        self.count += 1
        m = self.count
        self.h_bar += ((self.target - accept_stat) - self.h_bar) / (m + self.t0)
        self.log_eps = self.mu - math.sqrt(m) / self.gamma * self.h_bar
        w = m**-self.kappa
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar
        return float(np.exp(self.log_eps))


def nuts_chain_serial(target, dim, config, chain_index, init_center=None) -> dict:
    """One chain of the recursive sampler on a plain theta -> (logp, grad) target.

    Draws from the package's stream (seed, chain-key, chain_index) and uses
    its warmup windows, constants and configuration.
    """
    from pumpcausal.nuts import ENERGY_ERROR_THRESHOLD, _mass_windows
    from pumpcausal.rng import KEY_CHAIN, stream

    rng = stream(config.seed, KEY_CHAIN, chain_index)
    grad_evals = 0

    def counted(theta):
        nonlocal grad_evals
        grad_evals += 1
        logp, grad = target(theta)
        return logp, np.asarray(grad, float)

    for _ in range(100):
        theta = rng.uniform(-1.0, 1.0, dim)
        if init_center is not None:
            theta = theta + init_center
        logp, grad = counted(theta)
        if math.isfinite(logp) and np.all(np.isfinite(grad)):
            break
    else:
        raise ValueError("non-finite target density at initialization")
    inv_mass = np.ones(dim)
    eps = _find_reasonable_epsilon(counted, theta, logp, grad, inv_mass, rng)
    adapt = _DualAveraging(eps, config.target_accept)
    windows = _mass_windows(config.n_tune)
    window_idx = 0
    window_draws = []
    draws = np.empty((config.n_draws, dim))
    divergences = max_depth_hits = 0
    accept_accum = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.n_tune + config.n_draws):
            r0 = rng.standard_normal(dim) / np.sqrt(inv_mass)
            energy0 = -logp + _kinetic(r0, inv_mass)
            tree = _Tree(theta, r0, grad, logp, 0.0, False, 0.0, 0)
            depth = 0
            while depth < config.max_tree_depth:
                v = 1 if rng.random() < 0.5 else -1
                sub = _build_tree(
                    counted, tree.end(v), depth, v, eps, inv_mass, energy0, rng,
                    ENERGY_ERROR_THRESHOLD,
                )
                tree.alpha_sum += sub.alpha_sum
                tree.n_alpha += sub.n_alpha
                tree.divergent |= sub.divergent
                if sub.stop:
                    break
                if math.log(rng.random()) < sub.log_weight - tree.log_weight:
                    tree.take_proposal(sub)
                tree.log_weight = np.logaddexp(tree.log_weight, sub.log_weight)
                tree.extend(sub, v)
                tree.rho = tree.rho + sub.rho
                if _u_turn(tree.rho, tree.r_minus, tree.r_plus, inv_mass):
                    break
                depth += 1
            theta, logp, grad = tree.prop_theta, tree.prop_logp, tree.prop_grad
            accept_stat = tree.alpha_sum / max(tree.n_alpha, 1)
            if it < config.n_tune:
                eps = adapt.update(accept_stat)
                if window_idx < len(windows):
                    w_start, w_end = windows[window_idx]
                    if w_start <= it < w_end:
                        window_draws.append(theta)
                    if it == w_end - 1:
                        n_w = len(window_draws)
                        var = np.asarray(window_draws).var(axis=0, ddof=1)
                        inv_mass = (n_w / (n_w + 5.0)) * var + (5.0 / (n_w + 5.0))
                        window_draws = []
                        window_idx += 1
                        eps = _find_reasonable_epsilon(counted, theta, logp, grad, inv_mass, rng)
                        adapt = _DualAveraging(eps, config.target_accept)
                if it == config.n_tune - 1:
                    eps = float(np.exp(adapt.log_eps_bar))
            else:
                draws[it - config.n_tune] = theta
                divergences += tree.divergent
                max_depth_hits += depth == config.max_tree_depth
                accept_accum += accept_stat
    return {
        "draws": draws,
        "divergences": divergences,
        "step_size": eps,
        "accept_mean": accept_accum / config.n_draws,
        "grad_evals": grad_evals,
        "max_depth_hits": max_depth_hits,
    }

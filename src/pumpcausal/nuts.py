"""Self-contained No-U-Turn sampler with warmup adaptation.

Multinomial NUTS over a user-supplied callback that returns the log-density
and gradient of each row of a batch of points: trajectories are doubled
until the generalized U-turn criterion or the maximum tree depth, with
proposals drawn by biased-progressive multinomial sampling over the
trajectory.  Warmup combines dual-averaging step-size adaptation toward the
target acceptance rate with diagonal mass-matrix estimation over expanding
windows.  Chains are independent and owned by per-chain RNG streams, so
results do not depend on scheduling.

The trajectories are built iteratively, all chains of a group in lock-step
(after NumPyro's iterative NUTS, Phan et al. 2019, and TFP's batched NUTS,
Lao et al. 2020): every live chain is at the same leaf index, so the merges
of finished subtrees -- a binary counter over that index -- are the same
for all of them, and only the random draws and the stop masks are per chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import rng as rng_mod
from .diagnostics import ess, split_rhat
from .errors import SamplerError
from .tables import write_json, write_table

ENERGY_ERROR_THRESHOLD = 1000.0  # divergence cutoff on the Hamiltonian error
ESS_PER_CHAIN = 400.0  # diagnostic_summary flags a min ESS below this per chain
_INIT_RETRIES = 100
_LOG_HALF = math.log(0.5)

# dual averaging constants (Hoffman & Gelman)
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75

# warmup window sizes (Stan-style)
_INIT_BUFFER = 75
_TERM_BUFFER = 50
_BASE_WINDOW = 25

TargetFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class SamplerConfig:
    n_draws: int = 2000
    n_tune: int = 1000
    n_chains: int = 8
    target_accept: float = 0.95
    max_tree_depth: int = 10
    seed: int = 0
    threads: int = 0  # 0 = all available cores

    def __post_init__(self):
        if self.n_draws < 1 or self.n_tune < 1:
            raise SamplerError("n_draws and n_tune must be >= 1")
        if not 0.0 < self.target_accept < 1.0:
            raise SamplerError("target_accept must be in (0, 1)")
        if self.n_chains < 1:
            raise SamplerError("n_chains must be >= 1")
        if self.max_tree_depth < 1:
            raise SamplerError("max_tree_depth must be >= 1")


@dataclass(eq=False)
class PosteriorSamples:
    """Kept draws with per-chain and per-parameter diagnostics."""

    draws: np.ndarray  # (n_chains, n_draws, dim), unconstrained space
    divergences: np.ndarray  # int per chain, post-warmup
    step_sizes: np.ndarray  # adapted step size per chain
    accept_means: np.ndarray  # mean post-warmup acceptance statistic per chain
    grad_evals: np.ndarray  # target evaluations per chain, warmup included
    max_depth_hits: np.ndarray  # post-warmup iterations stopped by max_tree_depth
    rhat: np.ndarray  # split R-hat per parameter
    ess_bulk: np.ndarray  # effective sample size per parameter

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def n_draws(self) -> int:
        return self.draws.shape[1]

    @property
    def dim(self) -> int:
        return self.draws.shape[2]

    def flat(self) -> np.ndarray:
        """All draws pooled across chains, shape (n_chains*n_draws, dim)."""
        return self.draws.reshape(-1, self.dim)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row inner products; row c does not depend on the other rows."""
    return np.add.reduce(a * b, axis=1)


def _u_turn(rho: np.ndarray, sharp_a: np.ndarray, sharp_b: np.ndarray) -> np.ndarray:
    """Rows whose momentum sum has a non-positive product with either end's
    sharp momentum (fmin: a NaN product alone does not turn, as with ``or``)."""
    return np.fmin(_row_dot(rho, sharp_a), _row_dot(rho, sharp_b)) <= 0.0


def _pick(mask: np.ndarray, a: tuple, b: tuple) -> tuple:
    """Per array pair, rows of a where mask holds and of b elsewhere.

    When the mask is all true or all false the arrays of a or b are
    returned as they are, without a copy.
    """
    n_true = np.count_nonzero(mask)
    if n_true == len(mask):
        return a
    if not n_true:
        return b
    column = mask[:, None]
    return tuple(np.where(column if x.ndim == 2 else mask, x, y) for x, y in zip(a, b))


def _energy_error(logp, r, half_inv_mass, energy0) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian error per row (non-finite reads +inf) and ``half_inv_mass * r``.

    Halving is exact, so the row dot of r with the second result is the
    kinetic energy, and its row dots with momentum sums keep the signs the
    U-turn criterion tests.
    """
    r_sharp = half_inv_mass * r
    d_energy = (_row_dot(r, r_sharp) - logp) - energy0
    return np.where(np.isfinite(d_energy), d_energy, np.inf), r_sharp


class _Chains:
    """A group of chains moved through their iterations in lock-step.

    Row c of every ``(C, dim)`` array belongs to chain c of the group.  The
    chains start each iteration together; each step makes one leapfrog step
    for every chain still extending its trajectory and calls the target
    once, on those rows only.  Every chain draws from its own stream in the
    order of the recursive algorithm -- momentum, direction, one draw per
    subtree merge in post-order, the progressive draw -- so its draws do not
    depend on which chains share its group.
    """

    def __init__(self, target: TargetFn, dim: int, rngs: list):
        self.target = target
        self.dim = dim
        self.rngs = rngs
        self.uniform = [rng.random for rng in rngs]
        self.grad_evals = np.zeros(len(rngs), dtype=np.int64)

    def _evaluate(self, theta: np.ndarray, live: np.ndarray, rows: np.ndarray | None):
        """Target at the rows of theta where ``live`` holds; the others read 0.

        ``rows`` lists those rows, or is None when every row is live.
        """
        if rows is None:
            self.grad_evals += 1
            return self.target(theta)
        self.grad_evals += live
        logp_rows, grad_rows = self.target(theta[rows])
        logp, grad = np.zeros(len(theta)), np.zeros_like(theta)
        logp[rows], grad[rows] = logp_rows, grad_rows
        return logp, grad

    def _leapfrog(self, theta, r, grad, step, half, inv_mass, live, rows=None):
        """One leapfrog step per live row; ``step`` holds each row's step size
        and ``half`` is ``0.5 * step``."""
        r_half = r + half * grad
        theta_new = theta + step * (inv_mass * r_half)
        logp_new, grad_new = self._evaluate(theta_new, live, rows)
        return theta_new, r_half + half * grad_new, grad_new, logp_new

    def _choose(self, chains: list[int], log_ratio: np.ndarray) -> np.ndarray:
        """Per chain in ``chains``: does the log of its next uniform fall below its log ratio."""
        ratio = log_ratio.tolist()
        chosen = [math.log(self.uniform[c]()) < ratio[c] for c in chains]
        if len(chains) == len(ratio):
            return np.array(chosen)
        take = np.zeros(len(ratio), bool)
        take[chains] = chosen
        return take

    def init_point(self, center: np.ndarray | None):
        n, dim = len(self.rngs), self.dim
        theta, logp, grad = np.empty((n, dim)), np.empty(n), np.empty((n, dim))
        pending = np.arange(n)
        for _ in range(_INIT_RETRIES):
            trial = np.stack([self.rngs[c].uniform(-1.0, 1.0, dim) for c in pending])
            if center is not None:
                trial = trial + center
            self.grad_evals[pending] += 1
            trial_logp, trial_grad = self.target(trial)
            trial_logp = np.asarray(trial_logp, float)
            trial_grad = np.asarray(trial_grad, float)
            if trial_grad.shape != trial.shape:
                raise SamplerError(
                    f"target gradient has shape {trial_grad.shape}, "
                    f"expected rows of length {dim}"
                )
            if trial_logp.shape != (len(trial),):
                raise SamplerError(
                    f"target log density has shape {trial_logp.shape}, "
                    f"expected ({len(trial)},)"
                )
            ok = np.isfinite(trial_logp) & np.all(np.isfinite(trial_grad), axis=1)
            theta[pending[ok]] = trial[ok]
            logp[pending[ok]] = trial_logp[ok]
            grad[pending[ok]] = trial_grad[ok]
            pending = pending[~ok]
            if not pending.size:
                return theta, logp, grad
        raise SamplerError(
            f"non-finite target density at initialization after {_INIT_RETRIES} retries"
        )

    def find_reasonable_epsilon(self, theta, logp, grad, inv_mass) -> np.ndarray:
        """Per chain, double or halve eps until the one-step acceptance crosses 1/2."""
        n = len(theta)
        eps = np.ones(n)
        half_inv_mass = 0.5 * inv_mass
        r = np.stack([rng.standard_normal(self.dim) for rng in self.rngs]) / np.sqrt(inv_mass)
        energy0 = _row_dot(r, half_inv_mass * r) - logp
        searching = np.ones(n, bool)
        step = eps[:, None]
        _, r1, _, logp1 = self._leapfrog(theta, r, grad, step, 0.5 * step, inv_mass, searching)
        d_energy, _ = _energy_error(logp1, r1, half_inv_mass, energy0)
        direction = np.where(-d_energy > _LOG_HALF, 1.0, -1.0)
        for _ in range(100):
            searching &= direction * -d_energy > direction * _LOG_HALF
            eps = np.where(searching, eps * 2.0**direction, eps)
            searching &= (1e-10 < eps) & (eps < 1e10)
            rows = np.flatnonzero(searching)
            if not rows.size:
                break
            step = eps[:, None]
            _, r1, _, logp1 = self._leapfrog(
                theta, r, grad, step, 0.5 * step, inv_mass, searching,
                None if rows.size == n else rows,
            )
            d_new, _ = _energy_error(logp1, r1, half_inv_mass, energy0)
            d_energy = np.where(searching, d_new, d_energy)
        return eps

    def transition(self, theta, logp, grad, eps, inv_mass, max_depth):
        """One NUTS iteration of every chain.

        Returns the new points, log-densities and gradients, and per chain
        the acceptance statistic, the divergence flag and the tree depth.
        Each momentum r is kept with its sharp form ``0.5 * inv_mass * r``
        (see ``_energy_error``).
        """
        n, dim = theta.shape
        half_inv_mass = 0.5 * inv_mass
        evals_before = self.grad_evals.copy()
        r0 = np.stack([rng.standard_normal(dim) for rng in self.rngs]) / np.sqrt(inv_mass)
        r0_sharp = half_inv_mass * r0
        energy0 = _row_dot(r0, r0_sharp) - logp
        # the trajectory: (theta, r, grad, sharp r) at both ends, the
        # momentum sum, the proposal and the log of the summed weights
        plus = minus = (theta, r0, grad, r0_sharp)
        rho, prop, log_weight = r0, (theta, logp, grad), np.zeros(n)
        alpha_sum = np.zeros(n)
        divergent = np.zeros(n, bool)
        depth = np.zeros(n, dtype=np.int64)
        extending = np.ones(n, bool)
        for d in range(max_depth):
            chains = np.flatnonzero(extending).tolist()
            if not chains:
                break
            forward = np.zeros(n, bool)
            forward[chains] = [self.uniform[c]() < 0.5 for c in chains]
            x, r, g = _pick(forward, plus[:3], minus[:3])
            step = np.where(forward, eps, -eps)[:, None].repeat(dim, axis=1)
            half = 0.5 * step
            live = extending.copy()
            rows = None if len(chains) == n else np.array(chains)
            # subtree of 2**d leaves; pending[l] holds the finished level-l
            # subtree that waits for its right sibling
            pending: list = [None] * d
            for leaf in range(2**d):
                x, r, g, lp = self._leapfrog(x, r, g, step, half, inv_mass, live, rows)
                d_energy, r_sharp = _energy_error(lp, r, half_inv_mass, energy0)
                stop = d_energy > ENERGY_ERROR_THRESHOLD
                if rows is not None:
                    stop &= live
                stopped = np.count_nonzero(stop)
                if stopped:
                    divergent |= stop
                lw = -d_energy
                alpha = np.exp(np.minimum(lw, 0.0))
                sub_rho, first_sharp, sub_prop = r, r_sharp, (x, lp, g)
                level = 0
                while leaf >> level & 1:  # merges in post-order: the trailing ones
                    p_lw, p_alpha, p_rho, p_sharp, p_prop = pending[level]
                    alpha = p_alpha + alpha
                    merging = live & ~stop if stopped else live
                    total = np.logaddexp(p_lw, lw)
                    take = self._choose(
                        np.flatnonzero(merging).tolist() if stopped else chains, lw - total
                    )
                    sub_prop = _pick(take, sub_prop, p_prop)
                    lw = total
                    sub_rho = p_rho + sub_rho
                    first_sharp = p_sharp
                    stop = stop | (merging & _u_turn(sub_rho, first_sharp, r_sharp))
                    stopped = np.count_nonzero(stop)
                    level += 1
                if level < d:
                    pending[level] = (lw, alpha, sub_rho, first_sharp, sub_prop)
                if stopped:
                    # a stopped subtree ends the doubling; its weight joins
                    # the subtrees still waiting above it
                    for above in range(level + 1, d):
                        if leaf >> above & 1:
                            alpha = pending[above][1] + alpha
                    alpha_sum = np.where(stop, alpha_sum + alpha, alpha_sum)
                    going = ~stop
                    live &= going
                    extending &= going
                    rows = np.flatnonzero(live)
                    chains = rows.tolist()
                    if not chains:
                        break
            if not chains:
                continue
            # biased progressive sampling toward the new subtree
            take = self._choose(chains, lw - log_weight)
            prop = _pick(take, sub_prop, prop)
            alpha_sum, log_weight, rho = _pick(
                live,
                (alpha_sum + alpha, np.logaddexp(log_weight, lw), rho + sub_rho),
                (alpha_sum, log_weight, rho),
            )
            end = (x, r, g, r_sharp)
            plus = _pick(live & forward, end, plus)
            minus = _pick(live & ~forward, end, minus)
            extending = live & ~_u_turn(rho, minus[3], plus[3])
            depth += extending
        # every leaf of a chain's trajectory is one of its target evaluations
        accept_stat = alpha_sum / np.maximum(self.grad_evals - evals_before, 1)
        return (*prop, accept_stat, divergent, depth)


def _mass_windows(n_tune: int) -> list[tuple[int, int]]:
    """Expanding mass-matrix adaptation windows within warmup."""
    if n_tune < _INIT_BUFFER + _BASE_WINDOW + _TERM_BUFFER:
        return []
    boundary = n_tune - _TERM_BUFFER
    windows = []
    start, size = _INIT_BUFFER, _BASE_WINDOW
    while start + size <= boundary:
        end = start + size
        if end + 2 * size > boundary:
            end = boundary
        windows.append((start, end))
        start = end
        size *= 2
    return windows


class _DualAveraging:
    """Step-size adaptation toward the target acceptance statistic, per chain."""

    def __init__(self, eps0: np.ndarray, target_accept: float):
        self.mu = np.log(10.0 * eps0)
        self.target = target_accept
        self.log_eps = np.log(eps0)
        self.log_eps_bar = self.log_eps
        self.h_bar = np.zeros(len(eps0))
        self.count = 0

    def update(self, accept_stat: np.ndarray) -> np.ndarray:
        self.count += 1
        m = self.count
        self.h_bar = self.h_bar + ((self.target - accept_stat) - self.h_bar) / (m + _DA_T0)
        self.log_eps = self.mu - math.sqrt(m) / _DA_GAMMA * self.h_bar
        w = m**-_DA_KAPPA
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar
        return np.exp(self.log_eps)

    @property
    def adapted(self) -> np.ndarray:
        return np.exp(self.log_eps_bar)


# unstable warmup trajectories may overflow intermediates; non-finite
# energies are detected and treated as divergences, so keep numpy quiet
@np.errstate(over="ignore", invalid="ignore")
def _run_chains(
    target: TargetFn,
    dim: int,
    config: SamplerConfig,
    chains: np.ndarray,
    init_center: np.ndarray | None,
) -> dict[str, np.ndarray]:
    group = _Chains(
        target, dim, [rng_mod.stream(config.seed, rng_mod.KEY_CHAIN, int(c)) for c in chains]
    )
    n = len(chains)
    theta, logp, grad = group.init_point(init_center)
    inv_mass = np.ones((n, dim))
    eps = group.find_reasonable_epsilon(theta, logp, grad, inv_mass)
    adapt = _DualAveraging(eps, config.target_accept)
    windows = _mass_windows(config.n_tune)
    window_idx = 0
    window_draws: list[np.ndarray] = []

    n_total = config.n_tune + config.n_draws
    draws = np.empty((n, config.n_draws, dim))
    divergences = np.zeros(n, dtype=np.int64)
    max_depth_hits = np.zeros(n, dtype=np.int64)
    accept_accum = np.zeros(n)

    for it in range(n_total):
        warmup = it < config.n_tune
        theta, logp, grad, accept_stat, divergent, depth = group.transition(
            theta, logp, grad, eps, inv_mass, config.max_tree_depth
        )
        if warmup:
            eps = adapt.update(accept_stat)
            if window_idx < len(windows):
                w_start, w_end = windows[window_idx]
                if w_start <= it < w_end:
                    window_draws.append(theta)
                if it == w_end - 1:
                    n_w = len(window_draws)  # at least _BASE_WINDOW
                    var = np.asarray(window_draws).var(axis=0, ddof=1)
                    # regularize toward unit variance
                    inv_mass = (n_w / (n_w + 5.0)) * var + (5.0 / (n_w + 5.0))
                    window_draws = []
                    window_idx += 1
                    eps = group.find_reasonable_epsilon(theta, logp, grad, inv_mass)
                    adapt = _DualAveraging(eps, config.target_accept)
            if it == config.n_tune - 1:
                eps = adapt.adapted
        else:
            draws[:, it - config.n_tune] = theta
            divergences += divergent
            max_depth_hits += depth == config.max_tree_depth
            accept_accum += accept_stat

    return {
        "draws": draws,
        "divergences": divergences,
        "step_sizes": eps,
        "accept_means": accept_accum / config.n_draws,
        "grad_evals": group.grad_evals,
        "max_depth_hits": max_depth_hits,
    }


def sample(
    logp_and_grad: TargetFn,
    dim: int,
    config: SamplerConfig,
    init_center: np.ndarray | None = None,
) -> PosteriorSamples:
    """Run ``config.n_chains`` independent NUTS chains on the target.

    The target maps theta (C, dim) to (logp (C,), grad (C, dim)), and row c
    of its result must not depend on the other rows.
    Chains start uniform in [-1, 1] per coordinate around ``init_center``
    (origin by default); pass the prior location for targets whose mass sits
    far from the origin.  Chain c uses the RNG stream (seed, chain-key, c).
    The chains run in lock-step, in one contiguous group per worker process
    (``config.threads``); outputs are identical however they are grouped.
    """
    if init_center is not None:
        init_center = np.asarray(init_center, float)
        if init_center.shape != (dim,):
            raise SamplerError(f"init_center must have shape ({dim},)")
    groups = np.array_split(
        np.arange(config.n_chains), rng_mod.worker_count(config.threads, config.n_chains)
    )
    parts = rng_mod.map_replicas(
        lambda g: _run_chains(logp_and_grad, dim, config, groups[g], init_center),
        len(groups),
        config.threads,
    )
    results = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}

    draws = results.pop("draws")
    if config.n_draws >= 4:
        rhat = np.array([split_rhat(draws[:, :, j]) for j in range(dim)])
    else:
        rhat = np.full(dim, np.nan)
    if config.n_draws >= 8:
        ess_bulk = np.array([ess(draws[:, :, j]) for j in range(dim)])
    else:
        ess_bulk = np.full(dim, np.nan)
    return PosteriorSamples(draws=draws, rhat=rhat, ess_bulk=ess_bulk, **results)


def write_draws_csv(
    samples: PosteriorSamples, names: Sequence[str], path: str | Path
) -> None:
    if len(names) != samples.dim:
        raise SamplerError("name count does not match draw dimension")
    write_table(
        path,
        ["chain", "draw", *names],
        (
            [c, s, *row]
            for c in range(samples.n_chains)
            for s, row in enumerate(samples.draws[c].tolist())
        ),
    )


def _extreme(values: np.ndarray, reduce) -> float | None:
    """``reduce`` over a diagnostic's values; None where none was computed."""
    return None if np.isnan(values).all() else float(reduce(values))


def _json_number(value: float | None) -> float | None:
    """A diagnostic as strict JSON: None (null) unless it is finite."""
    return value if value is not None and math.isfinite(value) else None


def diagnostic_summary(samples: PosteriorSamples) -> dict:
    """Max R-hat, min bulk ESS, total divergences (null where not computed or
    not finite; a flag still names an infinite R-hat) and soft flags, never fatal."""
    max_rhat = _extreme(samples.rhat, np.nanmax)
    min_ess = _extreme(samples.ess_bulk, np.nanmin)
    total_div = int(samples.divergences.sum())
    flags = []
    if samples.dim:
        if max_rhat is None:
            flags.append("R-hat not computed (fewer than 4 draws per chain)")
        elif max_rhat >= 1.01:
            flags.append(f"max split R-hat {max_rhat:.4f} >= 1.01")
        threshold = ESS_PER_CHAIN * samples.n_chains
        if min_ess is None:
            flags.append("ESS not computed (fewer than 8 draws per chain)")
        elif min_ess < threshold:
            flags.append(
                f"min ESS {min_ess:.0f} below {ESS_PER_CHAIN:.0f} per chain "
                f"({threshold:.0f} total)"
            )
    if total_div > 0:
        flags.append(f"{total_div} divergent transitions")
    return {
        "max_rhat": _json_number(max_rhat),
        "min_ess_bulk": _json_number(min_ess),
        "total_divergences": total_div,
        "flags": flags,
    }


def write_diagnostics_json(
    samples: PosteriorSamples,
    names: Sequence[str],
    path: str | Path,
    data: dict | None = None,
) -> dict:
    """Sampler summary, per-parameter and per-chain diagnostics, and the
    optional ``data`` record; diagnostics that were not computed, or are not
    finite, are null.  Returns the summary it recorded."""
    if len(names) != samples.dim:
        raise SamplerError("name count does not match draw dimension")
    summary = diagnostic_summary(samples)
    payload = {
        "summary": summary,
        "parameters": {
            name: {
                "rhat": _json_number(float(samples.rhat[j])),
                "ess_bulk": _json_number(float(samples.ess_bulk[j])),
            }
            for j, name in enumerate(names)
        },
        "chains": [
            {
                "divergences": int(samples.divergences[c]),
                "step_size": float(samples.step_sizes[c]),
                "accept_mean": float(samples.accept_means[c]),
                "n_grad_evals": int(samples.grad_evals[c]),
                "max_tree_depth_hits": int(samples.max_depth_hits[c]),
            }
            for c in range(samples.n_chains)
        ],
    }
    if data is not None:
        payload["data"] = data
    write_json(path, payload)
    return summary

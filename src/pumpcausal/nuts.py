"""Self-contained No-U-Turn sampler with warmup adaptation.

Multinomial NUTS over a user-supplied (log-density, gradient) callback:
trajectories are doubled until the generalized U-turn criterion or the
maximum tree depth, with proposals drawn by biased-progressive multinomial
sampling over the trajectory.  Warmup combines dual-averaging step-size
adaptation toward the target acceptance rate with diagonal mass-matrix
estimation over expanding windows.  Chains are independent and owned by
per-chain RNG streams, so results do not depend on scheduling.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import rng as rng_mod
from .diagnostics import ess, split_rhat
from .errors import SamplerError

ENERGY_ERROR_THRESHOLD = 1000.0  # divergence cutoff on the Hamiltonian error
_INIT_RETRIES = 100

# dual averaging constants (Hoffman & Gelman)
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75

# warmup window sizes (Stan-style)
_INIT_BUFFER = 75
_TERM_BUFFER = 50
_BASE_WINDOW = 25

TargetFn = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class SamplerConfig:
    n_draws: int = 2000
    n_tune: int = 1000
    n_chains: int = 8
    target_accept: float = 0.95
    max_tree_depth: int = 10
    seed: int = 0
    threads: int | None = None  # None = available hardware parallelism

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


class _Tree:
    """End points, momentum sum, and running proposal of a trajectory."""

    __slots__ = (
        "theta_minus", "r_minus", "grad_minus", "logp_minus",
        "theta_plus", "r_plus", "grad_plus", "logp_plus",
        "rho", "prop_theta", "prop_logp", "prop_grad",
        "log_weight", "stop", "alpha_sum", "n_alpha", "divergent",
    )


def _leaf(theta, r, grad, logp, log_weight, stop, alpha, divergent) -> _Tree:
    t = _Tree()
    t.theta_minus = t.theta_plus = t.prop_theta = theta
    t.r_minus = t.r_plus = r
    t.grad_minus = t.grad_plus = t.prop_grad = grad
    t.logp_minus = t.logp_plus = t.prop_logp = logp
    t.rho = r.copy()
    t.log_weight = log_weight
    t.stop = stop
    t.alpha_sum = alpha
    t.n_alpha = 1
    t.divergent = divergent
    return t


def _kinetic(r: np.ndarray, inv_mass: np.ndarray) -> float:
    return 0.5 * float(r @ (inv_mass * r))


def _leapfrog(target: TargetFn, theta, r, grad, eps, inv_mass):
    r_half = r + 0.5 * eps * grad
    theta_new = theta + eps * (inv_mass * r_half)
    logp_new, grad_new = target(theta_new)
    r_new = r_half + 0.5 * eps * grad_new
    return theta_new, r_new, grad_new, logp_new


def _single_step(target, theta, r, grad, logp, v, eps, inv_mass, energy0) -> _Tree:
    theta1, r1, grad1, logp1 = _leapfrog(target, theta, r, grad, v * eps, inv_mass)
    d_energy = (-logp1 + _kinetic(r1, inv_mass)) - energy0
    if not math.isfinite(d_energy):
        d_energy = math.inf
    divergent = d_energy > ENERGY_ERROR_THRESHOLD
    alpha = math.exp(-d_energy) if d_energy > 0.0 else 1.0
    return _leaf(theta1, r1, grad1, logp1, -d_energy, divergent, alpha, divergent)


def _build_tree(target, tree_end, depth, v, eps, inv_mass, energy0, rng) -> _Tree:
    """Extend the trajectory by a balanced subtree of 2**depth leapfrog steps."""
    theta, r, grad, logp = tree_end
    if depth == 0:
        return _single_step(target, theta, r, grad, logp, v, eps, inv_mass, energy0)
    first = _build_tree(target, tree_end, depth - 1, v, eps, inv_mass, energy0, rng)
    if first.stop:
        return first
    if v == 1:
        far_end = (first.theta_plus, first.r_plus, first.grad_plus, first.logp_plus)
    else:
        far_end = (first.theta_minus, first.r_minus, first.grad_minus, first.logp_minus)
    second = _build_tree(target, far_end, depth - 1, v, eps, inv_mass, energy0, rng)
    first.alpha_sum += second.alpha_sum
    first.n_alpha += second.n_alpha
    first.divergent |= second.divergent
    if second.stop:
        first.stop = True
        return first
    total = np.logaddexp(first.log_weight, second.log_weight)
    # multinomial choice between the two equal-depth subtrees
    if math.log(rng.random()) < second.log_weight - total:
        first.prop_theta = second.prop_theta
        first.prop_logp = second.prop_logp
        first.prop_grad = second.prop_grad
    first.log_weight = total
    if v == 1:
        first.theta_plus = second.theta_plus
        first.r_plus = second.r_plus
        first.grad_plus = second.grad_plus
        first.logp_plus = second.logp_plus
    else:
        first.theta_minus = second.theta_minus
        first.r_minus = second.r_minus
        first.grad_minus = second.grad_minus
        first.logp_minus = second.logp_minus
    first.rho = first.rho + second.rho
    first.stop = _u_turn(first.rho, first.r_minus, first.r_plus, inv_mass)
    return first


def _u_turn(rho, r_minus, r_plus, inv_mass) -> bool:
    return (
        float(rho @ (inv_mass * r_minus)) <= 0.0
        or float(rho @ (inv_mass * r_plus)) <= 0.0
    )


def _find_reasonable_epsilon(target, theta, logp, grad, inv_mass, rng) -> float:
    """Double or halve eps until the one-step acceptance crosses 1/2."""
    eps = 1.0
    r = rng.standard_normal(len(theta)) / np.sqrt(inv_mass)
    energy0 = -logp + _kinetic(r, inv_mass)
    _, r1, _, logp1 = _leapfrog(target, theta, r, grad, eps, inv_mass)
    d_energy = (-logp1 + _kinetic(r1, inv_mass)) - energy0
    if not math.isfinite(d_energy):
        d_energy = math.inf
    direction = 1.0 if -d_energy > math.log(0.5) else -1.0
    for _ in range(100):
        if direction * (-d_energy) <= direction * math.log(0.5):
            break
        eps *= 2.0**direction
        if not 1e-10 < eps < 1e10:
            break
        _, r1, _, logp1 = _leapfrog(target, theta, r, grad, eps, inv_mass)
        d_energy = (-logp1 + _kinetic(r1, inv_mass)) - energy0
        if not math.isfinite(d_energy):
            d_energy = math.inf
    return eps


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
    """Step-size adaptation toward the target acceptance statistic."""

    def __init__(self, eps0: float, target_accept: float):
        self.mu = math.log(10.0 * eps0)
        self.target = target_accept
        self.log_eps = math.log(eps0)
        self.log_eps_bar = math.log(eps0)
        self.h_bar = 0.0
        self.count = 0

    def update(self, accept_stat: float) -> float:
        self.count += 1
        m = self.count
        self.h_bar += ((self.target - accept_stat) - self.h_bar) / (m + _DA_T0)
        self.log_eps = self.mu - math.sqrt(m) / _DA_GAMMA * self.h_bar
        w = m**-_DA_KAPPA
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar
        return math.exp(self.log_eps)

    @property
    def adapted(self) -> float:
        return math.exp(self.log_eps_bar)


def _init_point(
    target: TargetFn, dim: int, rng, center: np.ndarray | None
) -> tuple[np.ndarray, float, np.ndarray]:
    for _ in range(_INIT_RETRIES):
        theta = rng.uniform(-1.0, 1.0, dim)
        if center is not None:
            theta = theta + center
        logp, grad = target(theta)
        grad = np.asarray(grad, float)
        if grad.shape != (dim,):
            raise SamplerError(
                f"target gradient has length {grad.shape}, expected ({dim},)"
            )
        if math.isfinite(logp) and np.all(np.isfinite(grad)):
            return theta, logp, grad
    raise SamplerError(
        f"non-finite target density at initialization after {_INIT_RETRIES} retries"
    )


# unstable warmup trajectories may overflow intermediates; non-finite
# energies are detected and treated as divergences, so keep numpy quiet
@np.errstate(over="ignore", invalid="ignore")
def _run_chain(
    target: TargetFn,
    dim: int,
    config: SamplerConfig,
    chain_index: int,
    init_center: np.ndarray | None,
):
    rng = rng_mod.stream(config.seed, rng_mod.KEY_CHAIN, chain_index)
    grad_evals = 0

    def counted(theta):
        nonlocal grad_evals
        grad_evals += 1
        return target(theta)

    theta, logp, grad = _init_point(counted, dim, rng, init_center)
    inv_mass = np.ones(dim)
    eps = _find_reasonable_epsilon(counted, theta, logp, grad, inv_mass, rng)
    adapt = _DualAveraging(eps, config.target_accept)
    windows = _mass_windows(config.n_tune)
    window_idx = 0
    window_draws: list[np.ndarray] = []

    n_total = config.n_tune + config.n_draws
    draws = np.empty((config.n_draws, dim))
    divergences = 0
    max_depth_hits = 0
    accept_accum = 0.0

    for it in range(n_total):
        warmup = it < config.n_tune
        r0 = rng.standard_normal(dim) / np.sqrt(inv_mass)
        energy0 = -logp + _kinetic(r0, inv_mass)
        tree = _leaf(theta, r0, grad, logp, 0.0, False, 1.0, False)
        tree.alpha_sum = 0.0
        tree.n_alpha = 0
        depth = 0
        while depth < config.max_tree_depth and not tree.stop:
            v = 1 if rng.random() < 0.5 else -1
            if v == 1:
                end = (tree.theta_plus, tree.r_plus, tree.grad_plus, tree.logp_plus)
            else:
                end = (tree.theta_minus, tree.r_minus, tree.grad_minus, tree.logp_minus)
            sub = _build_tree(counted, end, depth, v, eps, inv_mass, energy0, rng)
            tree.alpha_sum += sub.alpha_sum
            tree.n_alpha += sub.n_alpha
            tree.divergent |= sub.divergent
            if sub.stop:
                break
            # biased progressive sampling toward the new subtree
            if math.log(rng.random()) < sub.log_weight - tree.log_weight:
                tree.prop_theta = sub.prop_theta
                tree.prop_logp = sub.prop_logp
                tree.prop_grad = sub.prop_grad
            tree.log_weight = np.logaddexp(tree.log_weight, sub.log_weight)
            if v == 1:
                tree.theta_plus = sub.theta_plus
                tree.r_plus = sub.r_plus
                tree.grad_plus = sub.grad_plus
                tree.logp_plus = sub.logp_plus
            else:
                tree.theta_minus = sub.theta_minus
                tree.r_minus = sub.r_minus
                tree.grad_minus = sub.grad_minus
                tree.logp_minus = sub.logp_minus
            tree.rho = tree.rho + sub.rho
            if _u_turn(tree.rho, tree.r_minus, tree.r_plus, inv_mass):
                break
            depth += 1

        theta, logp, grad = tree.prop_theta, tree.prop_logp, tree.prop_grad
        accept_stat = tree.alpha_sum / max(tree.n_alpha, 1)

        if warmup:
            eps = adapt.update(accept_stat)
            if window_idx < len(windows):
                w_start, w_end = windows[window_idx]
                if w_start <= it < w_end:
                    window_draws.append(theta)
                if it == w_end - 1:
                    sample_arr = np.asarray(window_draws)
                    n_w = len(sample_arr)
                    var = (
                        sample_arr.var(axis=0, ddof=1)
                        if n_w > 1
                        else np.ones(dim)
                    )
                    # regularize toward unit variance
                    inv_mass = (n_w / (n_w + 5.0)) * var + (5.0 / (n_w + 5.0))
                    window_draws = []
                    window_idx += 1
                    eps = _find_reasonable_epsilon(
                        counted, theta, logp, grad, inv_mass, rng
                    )
                    adapt = _DualAveraging(eps, config.target_accept)
            if it == config.n_tune - 1:
                eps = adapt.adapted
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


def sample(
    logp_and_grad: TargetFn,
    dim: int,
    config: SamplerConfig,
    init_center: np.ndarray | None = None,
) -> PosteriorSamples:
    """Run ``config.n_chains`` independent NUTS chains on the target.

    Chains start uniform in [-1, 1] per coordinate around ``init_center``
    (origin by default); pass the prior location for targets whose mass sits
    far from the origin.  Chain c uses the RNG stream (seed, chain-key, c);
    outputs are identical whether chains run sequentially or in parallel
    worker processes.
    """
    if init_center is not None:
        init_center = np.asarray(init_center, float)
        if init_center.shape != (dim,):
            raise SamplerError(f"init_center must have shape ({dim},)")
    results = rng_mod.map_replicas(
        lambda c: _run_chain(logp_and_grad, dim, config, c, init_center),
        config.n_chains,
        config.threads,
    )

    draws = np.stack([r["draws"] for r in results])
    if config.n_draws >= 4:
        rhat = np.array([split_rhat(draws[:, :, j]) for j in range(dim)])
    else:
        rhat = np.full(dim, np.nan)
    if config.n_draws >= 8:
        ess_bulk = np.array([ess(draws[:, :, j]) for j in range(dim)])
    else:
        ess_bulk = np.full(dim, np.nan)
    return PosteriorSamples(
        draws=draws,
        divergences=np.array([r["divergences"] for r in results]),
        step_sizes=np.array([r["step_size"] for r in results]),
        accept_means=np.array([r["accept_mean"] for r in results]),
        grad_evals=np.array([r["grad_evals"] for r in results]),
        max_depth_hits=np.array([r["max_depth_hits"] for r in results]),
        rhat=rhat,
        ess_bulk=ess_bulk,
    )


def write_draws_csv(
    samples: PosteriorSamples, names: Sequence[str], path: str | Path
) -> None:
    if len(names) != samples.dim:
        raise SamplerError("name count does not match draw dimension")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "draw", *names])
        for c in range(samples.n_chains):
            for s in range(samples.n_draws):
                writer.writerow(
                    [c, s, *[repr(float(v)) for v in samples.draws[c, s]]]
                )


def _extreme(values: np.ndarray, reduce) -> float | None:
    """``reduce`` over a diagnostic's values; None where none was computed."""
    return None if np.isnan(values).all() else float(reduce(values))


def diagnostic_flags(samples: PosteriorSamples, ess_per_chain: float = 400.0) -> list[str]:
    """Soft convergence flags: reported, never a hard failure."""
    flags = []
    if samples.dim:
        max_rhat = _extreme(samples.rhat, np.nanmax)
        if max_rhat is None:
            flags.append("R-hat not computed (fewer than 4 draws per chain)")
        elif max_rhat >= 1.01:
            flags.append(f"max split R-hat {max_rhat:.4f} >= 1.01")
        min_ess = _extreme(samples.ess_bulk, np.nanmin)
        threshold = ess_per_chain * samples.n_chains
        if min_ess is None:
            flags.append("ESS not computed (fewer than 8 draws per chain)")
        elif min_ess < threshold:
            flags.append(
                f"min ESS {min_ess:.0f} below {ess_per_chain:.0f} per chain "
                f"({threshold:.0f} total)"
            )
    total_div = int(samples.divergences.sum())
    if total_div > 0:
        flags.append(f"{total_div} divergent transitions")
    return flags


def write_diagnostics_json(
    samples: PosteriorSamples,
    names: Sequence[str],
    path: str | Path,
    data: dict | None = None,
) -> None:
    """Sampler summary, per-parameter and per-chain diagnostics, and the
    optional ``data`` record; diagnostics that were not computed are null."""
    if len(names) != samples.dim:
        raise SamplerError("name count does not match draw dimension")
    payload = {
        "summary": {
            "max_rhat": _extreme(samples.rhat, np.nanmax),
            "min_ess_bulk": _extreme(samples.ess_bulk, np.nanmin),
            "total_divergences": int(samples.divergences.sum()),
            "flags": diagnostic_flags(samples),
        },
        "parameters": {
            name: {
                "rhat": _extreme(samples.rhat[j], float),
                "ess_bulk": _extreme(samples.ess_bulk[j], float),
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
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

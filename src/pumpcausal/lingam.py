"""Linear non-Gaussian causal discovery on group data.

Pipeline per group: column standardization, FastICA decomposition of the
joint (features, target) matrix, causal-order identification from the
demixing matrix, ordinary-least-squares effect estimation along the order,
and bootstrap percentile confidence intervals from full re-runs on
row-resampled data.

Orientation convention: adjacency[i, j] is the direct effect of variable i
on variable j, so entries are structurally zero whenever i does not precede
j in the causal order.  Effects are stored in standardized units together
with the column means and standard deviations needed to map back to raw
units (raw effect i->j = standardized effect * sd_j / sd_i).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import rng as rng_mod
from .errors import InsufficientGroupError, LingamError
from .grouping import GroupDataset, min_members

CONSTANT_SD_TOL = 1e-12
COLLINEAR_TOL = 1e-8  # pair is collinear when |corr| > 1 - COLLINEAR_TOL
# a column is dependent when its residual on the earlier kept columns has
# norm below DEPENDENT_TOL times its own
DEPENDENT_TOL = 1e-6
TARGET_NAME = "u"


@dataclass(frozen=True)
class LingamConfig:
    ica_tol: float = 1e-4
    ica_max_iter: int = 200
    n_bootstrap: int = 1000
    seed: int = 0
    threads: int | None = None  # None = available hardware parallelism

    def __post_init__(self):
        if self.ica_tol <= 0 or self.ica_max_iter < 1 or self.n_bootstrap < 1:
            raise LingamError("invalid ICA or bootstrap settings")


@dataclass(frozen=True, eq=False)
class StandardizedData:
    """Column-standardized matrix with the scaling metadata."""

    x: np.ndarray  # (n, d), zero mean and unit sd per column
    mean: np.ndarray
    sd: np.ndarray
    names: tuple[str, ...]
    dropped: dict[str, str]  # dropped column name -> reason

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_vars(self) -> int:
        return self.x.shape[1]


def _dependent_columns(z: np.ndarray) -> np.ndarray:
    """Mask of centred columns that are linear combinations of earlier ones.

    Gram-Schmidt in column order, so of a dependent set the later columns
    drop and the result does not depend on rounding in a pivot choice.
    """
    basis = np.empty((z.shape[0], 0))
    dependent = np.zeros(z.shape[1], dtype=bool)
    for j, col in enumerate(z.T):
        resid = col - basis @ (basis.T @ col)
        resid -= basis @ (basis.T @ resid)  # second pass keeps the basis orthogonal
        norm = np.linalg.norm(resid)
        if norm <= DEPENDENT_TOL * np.linalg.norm(col):
            dependent[j] = True
        else:
            basis = np.column_stack([basis, resid / norm])
    return dependent


def standardize(x: np.ndarray, names: Sequence[str]) -> StandardizedData:
    """Standardize columns, dropping with a warning each column that is
    constant or an exact linear combination of earlier columns."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise LingamError("expected a 2-d data matrix")
    if len(names) != x.shape[1]:
        raise LingamError("column name count does not match matrix width")
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    scale_floor = CONSTANT_SD_TOL * np.maximum(1.0, np.abs(mean))
    keep = sd > scale_floor
    constant = [str(n) for n, k in zip(names, keep) if not k]
    if constant:
        warnings.warn(f"dropping constant columns: {', '.join(constant)}")
    if not keep.any():
        raise LingamError("all columns are constant")
    kept = np.flatnonzero(keep)
    z = (x[:, kept] - mean[kept]) / sd[kept]
    independent = ~_dependent_columns(z)
    linear = tuple(str(names[i]) for i in kept[~independent])
    if linear:
        warnings.warn(
            "dropping linearly dependent columns (exact combinations of "
            f"earlier columns): {', '.join(linear)}"
        )
    kept = kept[independent]
    return StandardizedData(
        x=z[:, independent],
        mean=mean[kept],
        sd=sd[kept],
        names=tuple(str(names[i]) for i in kept),
        dropped={
            **dict.fromkeys(constant, "constant"),
            **dict.fromkeys(linear, "linear combination of earlier columns"),
        },
    )


def _standardize_strict(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    if np.any(sd <= CONSTANT_SD_TOL * np.maximum(1.0, np.abs(mean))):
        raise LingamError("constant column in resample")
    return (x - mean) / sd


@dataclass(frozen=True, eq=False)
class IcaResult:
    """FastICA decomposition X ~ S @ mixing.T in standardized coordinates."""

    mixing: np.ndarray  # (d, d)
    demixing: np.ndarray  # (d, d), inverse of mixing
    n_iter: int
    converged: bool


def _check_collinear(z: np.ndarray, names: Sequence[str]) -> None:
    n, d = z.shape
    corr = z.T @ z / n
    for i in range(d):
        for j in range(i + 1, d):
            if abs(corr[i, j]) > 1.0 - COLLINEAR_TOL:
                raise LingamError(
                    f"columns '{names[i]}' and '{names[j]}' are collinear "
                    f"(|corr| = {abs(corr[i, j]):.10f})"
                )


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(w @ w.T)
    return (evecs * (1.0 / np.sqrt(evals))) @ evecs.T @ w


def fast_ica(
    data: StandardizedData | np.ndarray,
    config: LingamConfig = LingamConfig(),
    rng: np.random.Generator | None = None,
) -> IcaResult:
    """Symmetric fixed-point FastICA with the log-cosh contrast.

    Whitens through the covariance eigendecomposition, then iterates the
    tanh update with symmetric decorrelation until the component-wise
    change is below tolerance or the iteration cap is reached.
    """
    if isinstance(data, StandardizedData):
        x = data.x
        names: Sequence[str] = data.names
    else:
        x = np.asarray(data, dtype=float)
        names = [f"col{j}" for j in range(x.shape[1])]
    n, d = x.shape
    if n <= d + 1:
        raise LingamError(f"need more than d+1 = {d + 1} rows, got {n}")
    _check_collinear(x, names)

    cov = x.T @ x / n
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] < 1e-12 * evals[-1]:
        raise LingamError("singular covariance matrix (collinear column set)")
    whiten = (evecs / np.sqrt(evals)).T  # z = x @ whiten.T has identity covariance
    z = x @ whiten.T

    if rng is None:
        rng = rng_mod.stream(config.seed, rng_mod.KEY_ICA)
    w = _sym_decorrelate(rng.standard_normal((d, d)))
    converged = False
    n_iter = 0
    for n_iter in range(1, config.ica_max_iter + 1):
        sources = z @ w.T
        g = np.tanh(sources)
        g_prime_mean = (1.0 - g * g).mean(axis=0)
        w_new = _sym_decorrelate((g.T @ z) / n - g_prime_mean[:, None] * w)
        delta = np.max(np.abs(np.abs(np.sum(w_new * w, axis=1)) - 1.0))
        w = w_new
        if delta < config.ica_tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"FastICA did not converge in {config.ica_max_iter} iterations"
        )
    demixing = w @ whiten
    return IcaResult(
        mixing=np.linalg.inv(demixing),
        demixing=demixing,
        n_iter=n_iter,
        converged=converged,
    )


def causal_order(ica: IcaResult) -> tuple[int, ...]:
    """Causal order from the demixing matrix.

    Rows are matched one-to-one to variables by maximum-weight assignment on
    |W| (resolving ICA's permutation ambiguity), sign-normalized to a
    positive diagonal, and scaled to unit diagonal.  The order is then read
    off B0 = I - W' by repeatedly extracting the variable with the smallest
    squared incoming coefficients from the not-yet-ordered set; ties break
    toward the lower variable index.
    """
    w = ica.demixing
    if not np.all(np.isfinite(w)):
        raise LingamError("non-finite demixing matrix")
    d = w.shape[0]
    row_ind, col_ind = linear_sum_assignment(-np.abs(w))
    row_for_var = np.empty(d, dtype=int)
    row_for_var[col_ind] = row_ind
    w_matched = w[row_for_var, :]
    diag = np.diag(w_matched).copy()
    signs = np.where(diag >= 0.0, 1.0, -1.0)
    w_matched = w_matched * signs[:, None]
    diag = np.abs(diag)
    if np.any(diag < 1e-12):
        raise LingamError("zero diagonal after ICA row matching")
    b0 = np.eye(d) - w_matched / diag[:, None]

    remaining = list(range(d))
    order: list[int] = []
    while remaining:
        scores = []
        for i in remaining:
            others = [j for j in remaining if j != i]
            scores.append(float(np.sum(b0[i, others] ** 2)) if others else 0.0)
        best = remaining[int(np.argmin(scores))]
        order.append(best)
        remaining.remove(best)
    return tuple(order)


def estimate_effects(
    data: StandardizedData | np.ndarray, order: Sequence[int]
) -> np.ndarray:
    """OLS of each variable on its causal predecessors.

    Returns the adjacency with exact structural zeros: entry (i, j) is the
    coefficient of variable i in the regression of variable j, nonzero only
    when i precedes j in ``order``.
    """
    x = data.x if isinstance(data, StandardizedData) else np.asarray(data, float)
    n, d = x.shape
    if sorted(order) != list(range(d)):
        raise LingamError("order is not a permutation of the variables")
    b = np.zeros((d, d))
    for pos in range(1, d):
        child = order[pos]
        parents = list(order[:pos])
        if len(parents) >= n:
            raise LingamError(
                f"variable {child} has {len(parents)} predecessors but only {n} rows"
            )
        coef, _, rank, _ = np.linalg.lstsq(x[:, parents], x[:, child], rcond=None)
        if rank < len(parents):
            warnings.warn(
                f"rank-deficient predecessor block for variable {child}; "
                "minimum-norm solution used"
            )
        b[parents, child] = coef
    return b


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Per-edge 95% percentile intervals in standardized and raw units."""

    ci_low: np.ndarray
    ci_high: np.ndarray
    ci_low_raw: np.ndarray
    ci_high_raw: np.ndarray
    sign_stability: np.ndarray
    n_flagged: int  # resamples whose fit failed, left out of the intervals
    n_unconverged: int  # resamples whose FastICA hit the iteration cap


def _fit_adjacency(
    x_raw: np.ndarray, config: LingamConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Standardized adjacency, the column sds that de-standardize it, and
    whether the ICA converged."""
    z = _standardize_strict(x_raw)
    ica = fast_ica(z, config, rng=rng)
    return estimate_effects(z, causal_order(ica)), x_raw.std(axis=0), ica.converged


def _one_resample(x: np.ndarray, seed: int, b: int, config: LingamConfig):
    """One full re-run on a row resample; stream (seed, bootstrap-key, b).

    Returns None when the fit degenerates (constant or collinear columns).
    """
    rng = rng_mod.stream(seed, rng_mod.KEY_BOOTSTRAP, b)
    rows = rng.integers(0, len(x), size=len(x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            b_std, sd, converged = _fit_adjacency(x[rows], config, rng)
        except (LingamError, np.linalg.LinAlgError):
            return None
    return b_std, b_std * sd[None, :] / sd[:, None], converged


def bootstrap_cis(
    x: np.ndarray,
    n_resamples: int = 1000,
    seed: int = 0,
    config: LingamConfig = LingamConfig(),
    point_estimate: np.ndarray | None = None,
) -> BootstrapResult:
    """Percentile 95% CIs per edge from full re-runs on row resamples.

    Each resample redoes standardization, ICA, ordering, and regression;
    edges absent under a resample's order contribute zero.  Raw-unit
    intervals de-standardize each resample with its own column scales, so
    they reflect scale uncertainty as well.  Resamples where the fit
    degenerates (constant or collinear columns) are left out of the
    intervals and the sign stability, and counted in ``n_flagged``; when
    every resample degenerates this raises.  Sign stability is the fraction
    of the remaining resamples whose edge sign equals the point estimate's.

    Resamples own independent RNG streams, so results are identical whether
    they run sequentially or across worker processes (config.threads).
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if n < 10:
        raise LingamError(f"bootstrap needs n >= 10 rows, got {n}")
    if point_estimate is None:
        point_estimate, _, _ = _fit_adjacency(
            x, config, rng_mod.stream(seed, rng_mod.KEY_ICA)
        )
    results = rng_mod.map_replicas(
        lambda b: _one_resample(x, seed, b, config), n_resamples, config.threads
    )
    fits = [r for r in results if r is not None]
    if not fits:
        raise LingamError(f"all {n_resamples} bootstrap resamples degenerate")
    estimates = np.stack([r[0] for r in fits])
    estimates_raw = np.stack([r[1] for r in fits])
    sign_stability = (np.sign(estimates) == np.sign(point_estimate)).mean(axis=0)
    return BootstrapResult(
        ci_low=np.percentile(estimates, 2.5, axis=0),
        ci_high=np.percentile(estimates, 97.5, axis=0),
        ci_low_raw=np.percentile(estimates_raw, 2.5, axis=0),
        ci_high_raw=np.percentile(estimates_raw, 97.5, axis=0),
        sign_stability=sign_stability,
        n_flagged=n_resamples - len(fits),
        n_unconverged=sum(not r[2] for r in fits),
    )


@dataclass(frozen=True, eq=False)
class CausalModel:
    """Fitted causal structure for one group, standardized units inside."""

    group: str
    variable_names: tuple[str, ...]
    causal_order: tuple[int, ...]
    adjacency: np.ndarray  # standardized-unit effects, (d+1, d+1)
    column_means: np.ndarray
    column_sds: np.ndarray
    ci_low: np.ndarray  # standardized units
    ci_high: np.ndarray
    ci_low_raw: np.ndarray  # raw data units
    ci_high_raw: np.ndarray
    sign_stability: np.ndarray
    ica_converged: bool
    ica_iterations: int
    n_flagged_resamples: int
    n_unconverged_resamples: int
    dropped_columns: dict[str, str]  # name -> reason, as StandardizedData.dropped

    @property
    def target_index(self) -> int:
        return self.variable_names.index(TARGET_NAME)

    def _scale(self, i: int, j: int) -> float:
        return float(self.column_sds[j] / self.column_sds[i])

    def adjacency_raw(self) -> np.ndarray:
        """Effects de-standardized back to raw data units."""
        return self.adjacency * self.column_sds[None, :] / self.column_sds[:, None]

    def effects_to_target(self, raw: bool = True) -> dict[str, float]:
        """Direct effect of each feature on the target, by feature name."""
        t = self.target_index
        out = {}
        for i, name in enumerate(self.variable_names):
            if i == t:
                continue
            effect = self.adjacency[i, t]
            out[name] = float(effect * self._scale(i, t)) if raw else float(effect)
        return out

    def edge_rows(self) -> list[dict]:
        """All (d+1)^2 ordered pairs with raw-unit effect and CIs."""
        rows = []
        for i, from_name in enumerate(self.variable_names):
            for j, to_name in enumerate(self.variable_names):
                rows.append(
                    {
                        "from": from_name,
                        "to": to_name,
                        "effect": float(self.adjacency[i, j] * self._scale(i, j)),
                        "ci_low": float(self.ci_low_raw[i, j]),
                        "ci_high": float(self.ci_high_raw[i, j]),
                        "sign_stability": float(self.sign_stability[i, j]),
                    }
                )
        return rows

    def target_edge_table(self) -> list[dict]:
        """Feature -> target rows sorted by |effect| descending (raw units)."""
        t = self.target_index
        rows = [
            row
            for row in self.edge_rows()
            if row["to"] == TARGET_NAME and row["from"] != TARGET_NAME
        ]
        rows.sort(key=lambda r: (-abs(r["effect"]), r["from"]))
        return rows


def discover(group: GroupDataset, config: LingamConfig = LingamConfig()) -> CausalModel:
    """Full causal discovery for one group: features plus target jointly.

    The target enters as an ordinary variable (last column, named 'u');
    nothing forces it to be causally last.
    """
    d = len(group.feature_names)
    if group.count < min_members(d):
        raise InsufficientGroupError(
            f"group {group.group.value}: {group.count} members < "
            f"{min_members(d)} required for {d} features"
        )
    x_raw = np.column_stack([group.features, group.target])
    names = (*group.feature_names, TARGET_NAME)
    std = standardize(x_raw, names)
    if TARGET_NAME in std.dropped:
        raise LingamError(
            "target variable is constant or a linear combination of the features "
            "within the group"
        )
    kept_idx = [i for i, n in enumerate(names) if n in std.names]
    x_kept = x_raw[:, kept_idx]

    ica = fast_ica(std, config)
    order = causal_order(ica)
    adjacency = estimate_effects(std, order)
    boot = bootstrap_cis(
        x_kept,
        n_resamples=config.n_bootstrap,
        seed=config.seed,
        config=config,
        point_estimate=adjacency,
    )
    return CausalModel(
        group=group.group.value,
        variable_names=std.names,
        causal_order=order,
        adjacency=adjacency,
        column_means=std.mean,
        column_sds=std.sd,
        ci_low=boot.ci_low,
        ci_high=boot.ci_high,
        ci_low_raw=boot.ci_low_raw,
        ci_high_raw=boot.ci_high_raw,
        sign_stability=boot.sign_stability,
        ica_converged=ica.converged,
        ica_iterations=ica.n_iter,
        n_flagged_resamples=boot.n_flagged,
        n_unconverged_resamples=boot.n_unconverged,
        dropped_columns=std.dropped,
    )


def write_adjacency_csv(model: CausalModel, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "effect", "ci_low", "ci_high", "sign_stability"])
        for row in model.edge_rows():
            writer.writerow(
                [
                    row["from"],
                    row["to"],
                    repr(row["effect"]),
                    repr(row["ci_low"]),
                    repr(row["ci_high"]),
                    repr(row["sign_stability"]),
                ]
            )


def write_order_json(model: CausalModel, path: str | Path) -> None:
    ordered = [model.variable_names[i] for i in model.causal_order]
    Path(path).write_text(json.dumps(ordered, indent=2) + "\n", encoding="utf-8")


def write_effects_csv(model: CausalModel, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "effect", "ci_low", "ci_high", "sign_stability"])
        for row in model.target_edge_table():
            writer.writerow(
                [
                    row["from"],
                    repr(row["effect"]),
                    repr(row["ci_low"]),
                    repr(row["ci_high"]),
                    repr(row["sign_stability"]),
                ]
            )


def write_discovery_json(model: CausalModel, path: str | Path, n_bootstrap: int) -> None:
    """How the group's discovery went: dropped columns, ICA, bootstrap."""
    record = {
        "dropped_columns": model.dropped_columns,
        "ica": {"iterations": model.ica_iterations, "converged": model.ica_converged},
        "bootstrap": {
            "n_resamples": n_bootstrap,
            "n_flagged": model.n_flagged_resamples,
            "n_unconverged": model.n_unconverged_resamples,
        },
    }
    Path(path).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

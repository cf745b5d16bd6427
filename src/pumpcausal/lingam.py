"""Linear non-Gaussian causal discovery on group data.

Pipeline per group: column standardization, FastICA decomposition of the
joint (features, target) matrix, causal-order identification from the
demixing matrix, ordinary-least-squares effect estimation along the order,
and bootstrap percentile confidence intervals from full re-runs on
row-resampled data.

Orientation convention: adjacency[i, j] is the direct effect of variable i
on variable j, so entries are structurally zero whenever i does not precede
j in the causal order.  Effects are stored in standardized units together
with the column standard deviations needed to map back to raw units (raw
effect i->j = standardized effect * sd_j / sd_i).
"""

from __future__ import annotations

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
from .tables import write_table

CONSTANT_SD_TOL = 1e-12
COLLINEAR_TOL = 1e-8  # pair is collinear when |corr| > 1 - COLLINEAR_TOL
# a column is dependent when its residual on the earlier kept columns has
# norm below DEPENDENT_TOL times its own
DEPENDENT_TOL = 1e-6
TARGET_NAME = "u"
# bootstrap resamples run in blocks of about this many stacked data elements
# (resamples x rows x columns); the size depends on the data shape only
_BLOCK_ELEMENTS = 2**15
# FastICA stops once no component's direction changes by more than ICA_TOL
# in one iteration, or after ICA_MAX_ITER iterations
ICA_TOL = 1e-4
ICA_MAX_ITER = 200


@dataclass(frozen=True)
class LingamConfig:
    n_bootstrap: int = 1000
    seed: int = 0
    threads: int = 0  # 0 = all available cores

    def __post_init__(self):
        if self.n_bootstrap < 1:
            raise LingamError(f"n_bootstrap must be >= 1, got {self.n_bootstrap}")


@dataclass(frozen=True, eq=False)
class StandardizedData:
    """Column-standardized matrix with the scaling metadata."""

    x: np.ndarray  # (n, d), zero mean and unit sd per column
    sd: np.ndarray
    names: tuple[str, ...]
    dropped: dict[str, str]  # dropped column name -> reason


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
        sd=sd[kept],
        names=tuple(str(names[i]) for i in kept),
        dropped={
            **dict.fromkeys(constant, "constant"),
            **dict.fromkeys(linear, "linear combination of earlier columns"),
        },
    )


def _standardize_stack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strict column standardization of a (B, n, d) stack: the z-scores, the
    (B, d) column sds and a mask of the matrices without a constant column."""
    mean = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    ok = ~np.any(sd <= CONSTANT_SD_TOL * np.maximum(1.0, np.abs(mean)), axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return (x - mean) / sd, sd[:, 0], ok


@dataclass(frozen=True, eq=False)
class IcaResult:
    """FastICA decomposition S = X @ demixing.T in standardized coordinates."""

    demixing: np.ndarray  # (d, d)
    n_iter: int
    converged: bool


def _collinear_pairs(cov: np.ndarray) -> np.ndarray:
    """Mask of the pairs i < j with |corr| > 1 - COLLINEAR_TOL, over the last
    two axes of a stack of correlation matrices."""
    return np.triu(np.abs(cov) > 1.0 - COLLINEAR_TOL, 1)


def _check_collinear(z: np.ndarray, names: Sequence[str]) -> None:
    corr = z.T @ z / z.shape[0]
    pairs = np.argwhere(_collinear_pairs(corr))
    if len(pairs):
        i, j = pairs[0]
        raise LingamError(
            f"columns '{names[i]}' and '{names[j]}' are collinear "
            f"(|corr| = {abs(corr[i, j]):.10f})"
        )


def _swap(a: np.ndarray) -> np.ndarray:
    """Transpose each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def _stacked(fn, a: np.ndarray):
    """``fn`` on a stack of square matrices, and a mask of those it succeeded on.

    A LinAlgError from the stacked call is retried one matrix at a time, so
    only the failing matrices are flagged; in the result they stand replaced
    by the identity.
    """
    ok = np.ones(len(a), dtype=bool)
    try:
        return fn(a), ok
    except np.linalg.LinAlgError:
        pass
    for k, m in enumerate(a):
        try:
            fn(m)
        except np.linalg.LinAlgError:
            ok[k] = False
    return fn(np.where(ok[:, None, None], a, np.eye(a.shape[-1]))), ok


def _whiten_stack(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whitened data and whitening matrices of a (B, n, d) stack of
    standardized matrices, and a mask of those with no collinear pair and a
    non-singular covariance."""
    cov = _swap(z) @ z / z.shape[1]
    (evals, evecs), ok = _stacked(np.linalg.eigh, cov)
    ok &= ~_collinear_pairs(cov).any(axis=(1, 2))
    ok &= ~(evals[:, 0] < 1e-12 * evals[:, -1])
    with np.errstate(divide="ignore", invalid="ignore"):
        whiten = _swap(evecs / np.sqrt(evals)[:, None, :])
        # each z @ whiten.T has identity covariance
        return z @ _swap(whiten), whiten, ok


def _sym_decorrelate(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W W^T)^(-1/2) W for each matrix of a stack, with the mask of those
    whose result is finite."""
    (evals, evecs), ok = _stacked(np.linalg.eigh, w @ _swap(w))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (evecs * (1.0 / np.sqrt(evals))[:, None, :]) @ _swap(evecs) @ w
    return w, ok & np.isfinite(w).all(axis=(1, 2))


def _ica_stack(zw: np.ndarray, starts: np.ndarray):
    """Symmetric FastICA run in lock-step over a (B, n, d) stack of whitened
    matrices from (B, d, d) starting matrices.

    Each matrix stops at its own tolerance or at the iteration cap; the
    active set is compacted whenever it shrinks.  Returns the rotations W,
    the iteration counts, and the converged and ok masks; a matrix whose
    decorrelation fails or turns non-finite is not ok.
    """
    size, n, d = zw.shape
    w_out = np.full((size, d, d), np.nan)
    n_iter = np.full(size, ICA_MAX_ITER)
    converged = np.zeros(size, dtype=bool)
    ok = np.ones(size, dtype=bool)
    active = np.arange(size)
    w, fine = _sym_decorrelate(starts)
    done = np.zeros(size, dtype=bool)
    it = 0
    while True:
        stop = done | ~fine
        if stop.any():
            ok[active[~fine]] = False
            finished = active[done & fine]
            converged[finished] = True
            n_iter[finished] = it
            w_out[finished] = w[done & fine]
            active, zw, w = active[~stop], zw[~stop], w[~stop]
        if not len(active) or it == ICA_MAX_ITER:
            break
        it += 1
        g = np.tanh(zw @ _swap(w))
        g_prime_mean = (1.0 - g * g).mean(axis=1)
        w_new, fine = _sym_decorrelate(_swap(g) @ zw / n - g_prime_mean[:, :, None] * w)
        change = np.max(np.abs(np.abs(np.sum(w_new * w, axis=2)) - 1.0), axis=1)
        done = change < ICA_TOL
        w = w_new
    w_out[active] = w
    return w_out, n_iter, converged, ok


def fast_ica(data: StandardizedData, config: LingamConfig = LingamConfig()) -> IcaResult:
    """Symmetric fixed-point FastICA with the log-cosh contrast.

    Whitens through the covariance eigendecomposition, then iterates the
    tanh update with symmetric decorrelation from a start drawn from the
    stream (config.seed, ICA-key) until the component-wise change is below
    ICA_TOL or ICA_MAX_ITER is reached.  This is the bootstrap's stacked
    kernel on a batch of one.
    """
    x = data.x
    n, d = x.shape
    if n <= d + 1:
        raise LingamError(f"need more than d+1 = {d + 1} rows, got {n}")
    _check_collinear(x, data.names)
    zw, whiten, ok = _whiten_stack(x[None])
    if not ok[0]:
        raise LingamError("singular covariance matrix (collinear column set)")

    rng = rng_mod.stream(config.seed, rng_mod.KEY_ICA)
    w, n_iter, converged, ok = _ica_stack(zw, rng.standard_normal((1, d, d)))
    if not ok[0]:
        raise LingamError("FastICA diverged (non-finite demixing matrix)")
    if not converged[0]:
        warnings.warn(f"FastICA did not converge in {ICA_MAX_ITER} iterations")
    return IcaResult(
        demixing=w[0] @ whiten[0],
        n_iter=int(n_iter[0]),
        converged=bool(converged[0]),
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

    incoming = b0**2
    np.fill_diagonal(incoming, 0.0)
    remaining = np.ones(d, dtype=bool)
    order = []
    for _ in range(d):
        scores = np.where(remaining, incoming, 0.0).sum(axis=1)
        best = int(np.argmin(np.where(remaining, scores, np.inf)))
        order.append(best)
        remaining[best] = False
    return tuple(order)


def estimate_effects(
    data: StandardizedData | np.ndarray, order: Sequence[int]
) -> np.ndarray:
    """OLS of each variable on its causal predecessors.

    Returns the adjacency with exact structural zeros: entry (i, j) is the
    coefficient of variable i in the regression of variable j, nonzero only
    when i precedes j in ``order``.  One QR factorization serves every
    regression: with x[:, order] = QR and R = diag(r) U, the coefficients
    in order coordinates are I - U^-1.  A diagonal entry of R at lstsq's
    rank threshold, a variable in the span of its predecessors, is an error.
    """
    x = data.x if isinstance(data, StandardizedData) else np.asarray(data, float)
    n, d = x.shape
    if sorted(order) != list(range(d)):
        raise LingamError("order is not a permutation of the variables")
    if d > n:
        raise LingamError(
            f"variable {order[n]} has {n} predecessors but only {n} rows"
        )
    order = list(order)
    r = np.linalg.qr(x[:, order], mode="r")
    diag = np.abs(np.diag(r))
    deficient = np.flatnonzero(diag <= np.finfo(float).eps * max(n, d) * diag.max())
    if len(deficient):
        raise LingamError(
            f"rank-deficient predecessor block: variable {order[deficient[0]]} "
            "is a linear combination of the variables before it"
        )
    unit = r / np.diag(r)[:, None]
    b_ordered = np.triu(np.eye(d) - np.linalg.inv(unit), 1)
    b = np.zeros((d, d))
    b[np.ix_(order, order)] = b_ordered
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


def _fit_block(
    x: np.ndarray, seed: int, resamples: range
) -> list[tuple[np.ndarray, np.ndarray, bool] | None]:
    """Full re-runs on a block of row resamples, FastICA in lock-step.

    Resample b owns the stream (seed, bootstrap-key, b) and draws its rows,
    then its ICA start.  Each fit is the standardized adjacency, the same in
    raw units, and whether its ICA converged; None when the fit degenerates
    (constant or collinear columns, failed or non-finite decomposition).
    """
    n, d = x.shape
    rows = np.empty((len(resamples), n), dtype=np.intp)
    starts = np.empty((len(resamples), d, d))
    for k, b in enumerate(resamples):
        rng = rng_mod.stream(seed, rng_mod.KEY_BOOTSTRAP, b)
        rows[k] = rng.integers(0, n, size=n)
        starts[k] = rng.standard_normal((d, d))
    z, sd, ok = _standardize_stack(x[rows])
    live = np.flatnonzero(ok) if n > d + 1 else np.empty(0, dtype=np.intp)
    zw, whiten, ok = _whiten_stack(z[live])
    live, zw, whiten = live[ok], zw[ok], whiten[ok]
    w, n_iter, converged, ok = _ica_stack(zw, starts[live])
    live, n_iter, converged = live[ok], n_iter[ok], converged[ok]
    demixing = w[ok] @ whiten[ok]

    fits: list = [None] * len(resamples)
    for k, b in enumerate(live):
        ica = IcaResult(demixing[k], int(n_iter[k]), bool(converged[k]))
        try:
            b_std = estimate_effects(z[b], causal_order(ica))
        except (LingamError, np.linalg.LinAlgError):
            continue
        fits[b] = (b_std, b_std * sd[b][None, :] / sd[b][:, None], ica.converged)
    return fits


def bootstrap_cis(
    x: np.ndarray,
    point_estimate: np.ndarray,
    *,
    n_resamples: int,
    config: LingamConfig,
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

    Resamples run in blocks of consecutive indices, FastICA in lock-step
    within a block; blocks run sequentially or across worker processes
    (config.threads).  Each resample owns an independent RNG stream of
    config.seed and block boundaries depend on the data shape only, so
    results do not depend on the thread count.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if n < 10:
        raise LingamError(f"bootstrap needs n >= 10 rows, got {n}")
    if n_resamples < 1:
        raise LingamError(f"bootstrap needs n_resamples >= 1, got {n_resamples}")
    size = max(1, _BLOCK_ELEMENTS // (n * d))
    blocks = [range(s, min(s + size, n_resamples)) for s in range(0, n_resamples, size)]
    fitted = rng_mod.map_replicas(
        lambda k: _fit_block(x, config.seed, blocks[k]), len(blocks), config.threads
    )
    fits = [fit for block in fitted for fit in block if fit is not None]
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
    column_sds: np.ndarray
    dropped_columns: dict[str, str]  # name -> reason, as StandardizedData.dropped
    ica: IcaResult  # the point fit's decomposition
    bootstrap: BootstrapResult

    def edge_rows(self) -> list[dict]:
        """All (d+1)^2 ordered pairs with raw-unit effect and CIs."""
        boot = self.bootstrap
        rows = []
        for i, from_name in enumerate(self.variable_names):
            for j, to_name in enumerate(self.variable_names):
                rows.append(
                    {
                        "from": from_name,
                        "to": to_name,
                        "effect": float(
                            self.adjacency[i, j] * (self.column_sds[j] / self.column_sds[i])
                        ),
                        "ci_low": float(boot.ci_low_raw[i, j]),
                        "ci_high": float(boot.ci_high_raw[i, j]),
                        "sign_stability": float(boot.sign_stability[i, j]),
                    }
                )
        return rows

    def target_edge_table(self) -> list[dict]:
        """Feature -> target rows sorted by |effect| descending (raw units)."""
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
    return CausalModel(
        group=group.group.value,
        variable_names=std.names,
        causal_order=order,
        adjacency=adjacency,
        column_sds=std.sd,
        dropped_columns=std.dropped,
        ica=ica,
        bootstrap=bootstrap_cis(
            x_kept, adjacency, n_resamples=config.n_bootstrap, config=config
        ),
    )


_EDGE_FIELDS = ("effect", "ci_low", "ci_high", "sign_stability")
EFFECTS_HEADER = ["feature", *_EDGE_FIELDS]


def write_adjacency_csv(model: CausalModel, path: str | Path) -> None:
    write_table(
        path,
        ["from", "to", *_EDGE_FIELDS],
        ([r["from"], r["to"], *(r[f] for f in _EDGE_FIELDS)] for r in model.edge_rows()),
    )


def write_order_json(model: CausalModel, path: str | Path) -> None:
    ordered = [model.variable_names[i] for i in model.causal_order]
    Path(path).write_text(json.dumps(ordered, indent=2) + "\n", encoding="utf-8")


def write_effects_csv(model: CausalModel, path: str | Path, top_k: int | None = None) -> None:
    """Feature -> target effects by decreasing magnitude; the first ``top_k``
    of them when given."""
    rows = model.target_edge_table()[:top_k]
    write_table(
        path,
        EFFECTS_HEADER,
        ([r["from"], *(r[f] for f in _EDGE_FIELDS)] for r in rows),
    )


def write_discovery_json(model: CausalModel, path: str | Path, n_bootstrap: int) -> None:
    """How the group's discovery went: dropped columns, ICA, bootstrap."""
    record = {
        "dropped_columns": model.dropped_columns,
        "ica": {"iterations": model.ica.n_iter, "converged": model.ica.converged},
        "bootstrap": {
            "n_resamples": n_bootstrap,
            "n_flagged": model.bootstrap.n_flagged,
            "n_unconverged": model.bootstrap.n_unconverged,
        },
    }
    Path(path).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

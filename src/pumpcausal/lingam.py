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

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import rng as rng_mod
from .errors import InsufficientGroupError, LingamError
from .grouping import GroupDataset, min_members
from .tables import write_json, write_table

CONSTANT_SD_TOL = 1e-12
COLLINEAR_TOL = 1e-8  # pair is collinear when |corr| > 1 - COLLINEAR_TOL
# a column is dependent when its residual on the earlier kept columns has
# norm below DEPENDENT_TOL times its own; two kept columns with |corr| = r
# leave the later a ratio of at most sqrt(1 - r^2), so this bound drops
# every column that would form a collinear pair with an earlier one
DEPENDENT_TOL = math.sqrt(2.0 * COLLINEAR_TOL)
TARGET_NAME = "u"
# bootstrap resamples run in blocks of about this many stacked data elements
# (resamples x rows x columns); it bounds memory and does not change results
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
        if self.seed < 0:
            raise LingamError(f"seed must be >= 0, got {self.seed}")
        if self.threads < 0:
            raise LingamError(f"threads must be >= 0, got {self.threads}")


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
    constant or a linear combination of earlier columns, exact or to within
    DEPENDENT_TOL."""
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
            "dropping linearly dependent columns (combinations of earlier "
            f"columns, exact or near): {', '.join(linear)}"
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


def _assign(weight: np.ndarray) -> np.ndarray:
    """Row matched to each column by a maximum-total-weight assignment, for
    each matrix of a (B, d, d) stack of finite weights: (B, d).

    Shortest augmenting paths with dual potentials (Crouse 2016, IEEE TAES
    52(4)) on the cost -weight, the matrices in lock-step.  The duals start
    feasible at the column minima, which makes tight the greedy matching of
    each column to its cheapest row where that row is still free; each
    round then augments from one free row of every matrix that has one,
    scanning one column per step (Dijkstra on the reduced costs) until it
    reaches an unmatched column.  The assignment is exact: on a unique
    optimum it is that optimum, on ties one of equal total weight.
    """
    size, d, _ = weight.shape
    cost = -weight
    b = np.arange(size)
    bd = b * d
    v = cost.min(axis=1)
    u = np.zeros((size, d))
    row4col = np.full((size, d), -1)
    col4row = np.full((size, d), -1)
    cheapest = cost.argmin(axis=1)
    for j in range(d):
        i = cheapest[:, j]
        take = col4row[b, i] < 0
        row4col[take, j] = i[take]
        col4row[take, i[take]] = j
    # flat per-column state carries d trash slots past the end: a matrix
    # whose path is found scans those, and its row pointer stays among the
    # infinite trash rows of the reduced costs
    trash = size * d
    inf_rows = np.full((d, d), np.inf)
    while True:
        free = col4row < 0
        active = free.any(axis=1)
        if not active.any():
            return row4col
        cur = np.argmax(free, axis=1)
        reduced = np.concatenate(
            [(cost - u[:, :, None] - v[:, None, :]).reshape(-1, d), inf_rows]
        )
        r4c_flat = np.concatenate(
            [np.where(row4col < 0, trash, bd[:, None] + row4col).ravel(), np.full(d, trash)]
        )
        dist_flat = np.full(trash + d, np.inf)  # path length to each column
        dist = dist_flat[:trash].reshape(size, d)
        scanned_flat = np.zeros(trash + d)  # inf once a column is scanned
        scanned = scanned_flat[:trash].reshape(size, d)
        path = np.repeat(bd, d).reshape(size, d)  # flat row each column is reached from
        min_val = np.zeros(size)
        base = np.where(active, bd, trash)
        rowf = base + cur
        while True:
            r = reduced[rowf]
            r += min_val[:, None]
            r += scanned
            better = r < dist
            np.minimum(dist, r, out=dist)
            np.copyto(path, rowf[:, None], where=better)
            jf = base + (dist + scanned).argmin(axis=1)
            min_val = dist_flat[jf]
            scanned_flat[jf] = np.inf
            rowf = r4c_flat[jf]
            if rowf.min() >= trash:
                break
            base = np.where(rowf < trash, bd, trash)
        # dual update: the scanned columns and the rows matched to them
        sc = scanned == np.inf
        sink = np.argmax(sc & (row4col < 0), axis=1)
        min_val = np.where(active, dist[b, sink], 0.0)
        gap = np.where(sc, min_val[:, None] - dist, 0.0)
        mb, mj = np.nonzero(sc & (row4col >= 0))
        u[mb, row4col[mb, mj]] += gap[mb, mj]
        u[b, cur] += min_val
        v -= gap
        # augment along the path back from the sink, the unmatched scanned column
        path -= bd[:, None]
        j = sink
        live = active
        while live.any():
            i = path[b, j]
            row4col[b[live], j[live]] = i[live]
            before = col4row[b, i]
            col4row[b[live], i[live]] = j[live]
            live &= i != cur
            j = np.where(live, before, j)


def _order_stack(demixing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Causal orders of a (B, d, d) stack of finite demixing matrices: the
    (B, d) orders, and a mask of the matrices that keep a nonzero diagonal
    after row matching (the orders of the others are meaningless).
    """
    size, d, _ = demixing.shape
    rows = _assign(np.abs(demixing))
    w_matched = np.take_along_axis(demixing, rows[:, :, None], axis=1)
    diag = np.diagonal(w_matched, axis1=1, axis2=2).copy()
    signs = np.where(diag >= 0.0, 1.0, -1.0)
    w_matched = w_matched * signs[:, :, None]
    diag = np.abs(diag)
    ok = ~np.any(diag < 1e-12, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        b0 = np.eye(d) - w_matched / diag[:, :, None]

    incoming = b0**2
    incoming[:, np.arange(d), np.arange(d)] = 0.0
    remaining = np.ones((size, d), dtype=bool)
    order = np.empty((size, d), dtype=np.intp)
    for k in range(d):
        scores = np.where(remaining[:, None, :], incoming, 0.0).sum(axis=2)
        order[:, k] = np.argmin(np.where(remaining, scores, np.inf), axis=1)
        remaining[np.arange(size), order[:, k]] = False
    return order, ok


def causal_order(ica: IcaResult) -> tuple[int, ...]:
    """Causal order from the demixing matrix.

    Rows are matched one-to-one to variables by maximum-weight assignment on
    |W| (resolving ICA's permutation ambiguity), sign-normalized to a
    positive diagonal, and scaled to unit diagonal.  The order is then read
    off B0 = I - W' by repeatedly extracting the variable with the smallest
    squared incoming coefficients from the not-yet-ordered set; ties break
    toward the lower variable index.  This is the bootstrap's stacked
    ordering on a stack of one.
    """
    w = ica.demixing
    if not np.all(np.isfinite(w)):
        raise LingamError("non-finite demixing matrix")
    order, ok = _order_stack(w[None])
    if not ok[0]:
        raise LingamError("zero diagonal after ICA row matching")
    return tuple(order[0].tolist())


def _effects_stack(x: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``estimate_effects`` on (B, n, d) data and (B, d) orders, n >= d:
    the (B, d, d) adjacencies and the (B, d) mask of the order positions
    whose variable is in the span of its predecessors.  A matrix with such
    a position is a failed fit; its adjacency is meaningless.
    """
    size, n, d = x.shape
    r = np.linalg.qr(np.take_along_axis(x, order[:, None, :], axis=2), mode="r")
    r_diag = np.diagonal(r, axis1=1, axis2=2)
    diag = np.abs(r_diag)
    deficient = diag <= np.finfo(float).eps * max(n, d) * diag.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = r / r_diag[:, :, None]
    # unit upper triangular once the failed fits stand replaced, so invertible
    full = ~deficient.any(axis=1)
    inverse = np.linalg.inv(np.where(full[:, None, None], unit, np.eye(d)))
    b = np.zeros((size, d, d))
    b[np.arange(size)[:, None, None], order[:, :, None], order[:, None, :]] = np.triu(
        np.eye(d) - inverse, 1
    )
    return b, deficient


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
    This is the bootstrap's stacked regression on a stack of one.
    """
    x = data.x if isinstance(data, StandardizedData) else np.asarray(data, float)
    n, d = x.shape
    if sorted(order) != list(range(d)):
        raise LingamError("order is not a permutation of the variables")
    if d > n:
        raise LingamError(
            f"variable {order[n]} has {n} predecessors but only {n} rows"
        )
    b, deficient = _effects_stack(x[None], np.asarray(order)[None])
    if deficient.any():
        raise LingamError(
            f"rank-deficient predecessor block: variable "
            f"{order[np.flatnonzero(deficient[0])[0]]} "
            "is a linear combination of the variables before it"
        )
    return b[0]


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Per-edge 95% percentile intervals in raw units, and sign stability."""

    ci_low_raw: np.ndarray
    ci_high_raw: np.ndarray
    sign_stability: np.ndarray
    n_resamples: int
    n_flagged: int  # resamples whose fit failed, left out of the intervals
    n_unconverged: int  # resamples whose FastICA hit the iteration cap


def _resample_rows(x: np.ndarray, seed: int, resamples: range):
    """The standardized stack of a block of row resamples, its (B, d) column
    sds and mask of the resamples without a constant column, and each
    resample's stream after it drew its rows.

    Resample b owns the stream (seed, bootstrap-key, b) and draws its rows
    first, so the block's data can be drawn again from the seed alone.
    """
    n = len(x)
    streams = [rng_mod.stream(seed, rng_mod.KEY_BOOTSTRAP, b) for b in resamples]
    rows = np.stack([rng.integers(0, n, size=n) for rng in streams])
    return (*_standardize_stack(x[rows]), streams)


def _ica_block(x: np.ndarray, seed: int, resamples: range):
    """FastICA and causal ordering in lock-step on a block of row resamples,
    each decomposed from the ICA start its stream draws after its rows.

    Returns the indices of the resamples that decomposed and ordered, their
    (B, d) orders and whether each decomposition converged; the others
    degenerate (constant or collinear columns, failed or non-finite
    decomposition, zero diagonal after row matching).
    """
    n, d = x.shape
    z, _, ok, streams = _resample_rows(x, seed, resamples)
    starts = np.stack([rng.standard_normal((d, d)) for rng in streams])
    live = np.flatnonzero(ok) if n > d + 1 else np.empty(0, dtype=np.intp)
    zw, whiten, ok = _whiten_stack(z[live])
    live, zw, whiten = live[ok], zw[ok], whiten[ok]
    w, _, converged, ok = _ica_stack(zw, starts[live])
    live, converged = live[ok], converged[ok]
    orders, ok = _order_stack(w[ok] @ whiten[ok])
    return resamples.start + live[ok], orders[ok], converged[ok]


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

    Resamples run in blocks of consecutive indices, two steps per block:
    FastICA and causal ordering in lock-step on its stacked resamples, the
    blocks sequentially or across worker processes (config.threads); then
    the effects, one stacked regression on rows drawn again from the
    resamples' streams, written in raw units into one (resamples, d, d)
    array, so one block's data and that array are all that is held.  Each
    resample owns an independent RNG stream of config.seed, and every
    stacked operation treats its resamples apart, so the results depend on
    neither the block size nor the thread count.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if n < 10:
        raise LingamError(f"bootstrap needs n >= 10 rows, got {n}")
    if n_resamples < 1:
        raise LingamError(f"bootstrap needs n_resamples >= 1, got {n_resamples}")
    size = max(1, _BLOCK_ELEMENTS // (n * d))
    blocks = [range(s, min(s + size, n_resamples)) for s in range(0, n_resamples, size)]
    fits = rng_mod.map_replicas(
        lambda k: _ica_block(x, config.seed, blocks[k]), len(blocks), config.threads
    )
    est = np.empty((n_resamples, d, d))  # raw-unit estimates of the fitted resamples
    n_fit = n_unconverged = 0
    for block, (live, orders, converged) in zip(blocks, fits):
        z, sd, _, _ = _resample_rows(x, config.seed, block)
        k = live - block.start
        b_std, deficient = _effects_stack(z[k], orders)
        ok = ~deficient.any(axis=1)
        k = k[ok]
        est[n_fit : n_fit + len(k)] = b_std[ok] * sd[k, None, :] / sd[k, :, None]
        n_fit += len(k)
        n_unconverged += int(np.sum(~converged[ok]))
    if not n_fit:
        raise LingamError(f"all {n_resamples} bootstrap resamples degenerate")
    est = est[:n_fit]
    # column sds are positive, so raw signs are the standardized signs
    same_sign = ((est > 0) == (point_estimate > 0)) & ((est < 0) == (point_estimate < 0))
    ci_low_raw, ci_high_raw = np.percentile(est, [2.5, 97.5], axis=0, overwrite_input=True)
    return BootstrapResult(
        ci_low_raw=ci_low_raw,
        ci_high_raw=ci_high_raw,
        sign_stability=same_sign.mean(axis=0),
        n_resamples=n_resamples,
        n_flagged=n_resamples - n_fit,
        n_unconverged=n_unconverged,
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
    write_json(path, [model.variable_names[i] for i in model.causal_order])


def write_effects_csv(model: CausalModel, path: str | Path, top_k: int | None = None) -> None:
    """Feature -> target effects by decreasing magnitude; the first ``top_k``
    of them when given."""
    rows = model.target_edge_table()[:top_k]
    write_table(
        path,
        EFFECTS_HEADER,
        ([r["from"], *(r[f] for f in _EDGE_FIELDS)] for r in rows),
    )


def write_discovery_json(model: CausalModel, path: str | Path) -> None:
    """How the group's discovery went: dropped columns, ICA, bootstrap."""
    record = {
        "dropped_columns": model.dropped_columns,
        "ica": {"iterations": model.ica.n_iter, "converged": model.ica.converged},
        "bootstrap": {
            "n_resamples": model.bootstrap.n_resamples,
            "n_flagged": model.bootstrap.n_flagged,
            "n_unconverged": model.bootstrap.n_unconverged,
        },
    }
    write_json(path, record)

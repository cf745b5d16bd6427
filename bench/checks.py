"""Output checks for one pipeline run, made apart from the program.

Each check recomputes a result from the generated inputs with plain numpy,
or tests a property the method must have; none compares against a stored
copy of earlier output.  Artifacts are read with ``csv`` and ``json`` only.
``check_outputs`` returns one message per failed check (empty when all pass).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from gen import Fleet

FEATURE_RTOL = 1e-9
EFFECT_RTOL = 1e-6
TARGET = "u"
GROUPS = ("positive", "negative")


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rtol: float, scale: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol * scale)


def reference_features(values: np.ndarray) -> dict[str, float]:
    """The recomputed features of one window, by plain numpy."""
    q25, q50, q75 = np.percentile(values, [25, 50, 75])
    slope = np.polyfit(np.arange(len(values), dtype=float), values, 1)[0]
    return {
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "q25": float(q25),
        "q50": float(q50),
        "q75": float(q75),
        "trend_slope_90d": float(slope),
    }


def check_features(out: Path, fleet: Fleet, window: int, active: tuple[str, ...]) -> list[str]:
    rows = _rows(out / "features.csv")
    errors = []
    if [r["pump_id"] for r in rows] != list(fleet.pump_ids):
        return ["features.csv: pump rows differ from the generated fleet"]
    if tuple(rows[0]) != ("pump_id", *active):
        errors.append("features.csv: columns differ from the active feature set")
    end = fleet.study_days  # every series covers the whole study
    for row, values in zip(rows, fleet.series[:, end - window : end]):
        scale = float(np.max(np.abs(values)))
        for name, expected in reference_features(values).items():
            if name in row and not _close(float(row[name]), expected, FEATURE_RTOL, scale):
                errors.append(f"features.csv: {row['pump_id']} {name} {row[name]} != {expected!r}")
    return errors


def read_u(out: Path) -> dict[str, tuple[float, float, float]]:
    return {
        r["pump_id"]: (float(r["u_mean"]), float(r["hdi_low"]), float(r["hdi_high"]))
        for r in _rows(out / "u_estimates.csv")
    }


def check_u(out: Path, fleet: Fleet) -> list[str]:
    u = read_u(out)
    if sorted(u) != sorted(fleet.pump_ids):
        return ["u_estimates.csv: pump set differs from the generated fleet"]
    errors = [
        f"u_estimates.csv: {pid} HDI [{lo}, {hi}] excludes its mean {mean}"
        for pid, (mean, lo, hi) in u.items()
        if not lo <= mean <= hi
    ]
    est = np.array([u[pid][0] for pid in fleet.pump_ids])
    rmse = float(np.sqrt(np.mean((est - fleet.u_true) ** 2)))
    spread = float(np.std(fleet.u_true))
    if not rmse < spread:
        errors.append(f"u_estimates.csv: RMSE {rmse:.4f} not below the zero predictor's {spread:.4f}")
    corr = float(np.corrcoef(est, fleet.u_true)[0, 1])
    if not corr > 0.0:
        errors.append(f"u_estimates.csv: correlation with the truth {corr:.4f} is not positive")
    return errors


def check_groups(out: Path) -> list[str]:
    u = read_u(out)
    rows = _rows(out / "groups.csv")
    if sorted(r["pump_id"] for r in rows) != sorted(u):
        return ["groups.csv: pump set differs from u_estimates.csv"]
    errors = []
    for r in rows:
        mean = u[r["pump_id"]][0]
        expected = "positive" if mean > 0.0 else "negative"
        if float(r["u_mean"]) != mean or r["group"] != expected:
            errors.append(f"groups.csv: {r['pump_id']} u_mean {r['u_mean']} in {r['group']}")
    return errors


def _interval_errors(name: str, rows: list[dict[str, str]]) -> list[str]:
    errors = []
    for r in rows:
        if not float(r["ci_low"]) <= float(r["ci_high"]):
            errors.append(f"{name}: CI [{r['ci_low']}, {r['ci_high']}] reversed")
        if not 0.0 <= float(r["sign_stability"]) <= 1.0:
            errors.append(f"{name}: sign_stability {r['sign_stability']} outside [0, 1]")
    return errors


def check_group_model(out: Path, group: str, active: tuple[str, ...]) -> list[str]:
    order = json.loads((out / f"order_{group}.json").read_text(encoding="utf-8"))
    if sorted(order) != sorted((*active, TARGET)):
        return [f"order_{group}.json: variables differ from the features plus u"]
    position = {name: k for k, name in enumerate(order)}

    adjacency = _rows(out / f"adjacency_{group}.csv")
    errors = _interval_errors(f"adjacency_{group}.csv", adjacency)
    if len(adjacency) != len(order) ** 2:
        errors.append(f"adjacency_{group}.csv: {len(adjacency)} rows, expected {len(order) ** 2}")
    for r in adjacency:
        if position[r["from"]] >= position[r["to"]] and float(r["effect"]) != 0.0:
            errors.append(f"adjacency_{group}.csv: {r['from']}->{r['to']} against the order is {r['effect']}")

    # OLS of u on its predecessors, with an intercept, in raw units
    features = {r["pump_id"]: r for r in _rows(out / "features.csv")}
    members = [(r["pump_id"], float(r["u_mean"])) for r in _rows(out / "groups.csv") if r["group"] == group]
    parents = order[: position[TARGET]]
    design = np.array([[1.0] + [float(features[pid][p]) for p in parents] for pid, _ in members])
    target = np.array([u for _, u in members])
    coef = dict(zip(parents, np.linalg.lstsq(design, target, rcond=None)[0][1:].tolist()))
    scale = max((abs(c) for c in coef.values()), default=0.0)

    effects = _rows(out / f"effects_{group}.csv")
    errors += _interval_errors(f"effects_{group}.csv", effects)
    if sorted(r["feature"] for r in effects) != sorted(active):
        errors.append(f"effects_{group}.csv: features differ from the active set")
    for r in effects:
        effect = float(r["effect"])
        expected = coef.get(r["feature"], 0.0)
        ok = effect == 0.0 if r["feature"] not in coef else _close(effect, expected, EFFECT_RTOL, scale)
        if not ok:
            errors.append(f"effects_{group}.csv: {r['feature']}->u is {effect!r}, OLS gives {expected!r}")
    return errors


def check_report(out: Path, n_pumps: int) -> list[str]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    errors = []
    if report["skipped_groups"]:
        errors.append(f"report.json: skipped groups {report['skipped_groups']}")
    if sorted(report["effects"]) != sorted(GROUPS):
        errors.append(f"report.json: effects for {sorted(report['effects'])} only")
    counts = sum(report["groups"][g]["count"] for g in GROUPS)
    if counts != n_pumps:
        errors.append(f"report.json: group counts sum to {counts}, fleet has {n_pumps}")
    return errors


def check_outputs(out: Path, fleet: Fleet, window: int, active: tuple[str, ...]) -> list[str]:
    """Every check on one run's output directory."""
    errors = check_features(out, fleet, window, active) + check_u(out, fleet) + check_groups(out)
    errors += check_report(out, fleet.n_pumps)
    for group in GROUPS:
        if (out / f"order_{group}.json").exists():
            errors += check_group_model(out, group, active)
        else:
            errors.append(f"order_{group}.json: missing, so group {group} was not analysed")
    return errors

"""Sign-based binary partition of pumps by posterior-mean random effect."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .diagnostics import RandomEffectEstimate
from .errors import DataError
from .features import FeatureMatrix

logger = logging.getLogger(__name__)


class Group(str, Enum):
    POSITIVE = "positive"  # u_mean > 0: faster-than-average deterioration
    NEGATIVE = "negative"  # u_mean <= 0: slower-than-average deterioration

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GroupAssignment:
    pump_index: int
    u_mean: float
    group: Group


@dataclass(frozen=True)
class GroupSummary:
    group: Group
    count: int
    share: float
    u_min: float | None
    u_max: float | None


@dataclass(frozen=True, eq=False)
class GroupDataset:
    """Feature rows and targets restricted to one group's members."""

    group: Group
    features: np.ndarray  # (count, n_features)
    target: np.ndarray  # (count,) posterior-mean random effects
    pump_indices: tuple[int, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if not (
            self.features.shape[0] == len(self.target) == len(self.pump_indices)
        ):
            raise DataError("group feature rows, targets, and members disagree")

    @property
    def count(self) -> int:
        return len(self.pump_indices)

    def summary(self, total: int) -> GroupSummary:
        return GroupSummary(
            group=self.group,
            count=self.count,
            share=self.count / total if total else 0.0,
            u_min=float(self.target.min()) if self.count else None,
            u_max=float(self.target.max()) if self.count else None,
        )


def assign_groups(estimates: Iterable[RandomEffectEstimate]) -> list[GroupAssignment]:
    """u_mean > 0 goes to the positive group; u_mean <= 0 (ties included)
    to the negative group."""
    return [
        GroupAssignment(
            pump_index=e.pump_index,
            u_mean=e.u_mean,
            group=Group.POSITIVE if e.u_mean > 0.0 else Group.NEGATIVE,
        )
        for e in estimates
    ]


def min_members(n_features: int) -> int:
    """Smallest group size for which causal discovery is attempted."""
    return n_features + 2


def build_group_datasets(
    features: FeatureMatrix,
    assignments: Sequence[GroupAssignment],
) -> tuple[GroupDataset, GroupDataset]:
    """Split the feature matrix into (positive, negative) group datasets.

    Assignment pump indices refer to feature-matrix rows; both inputs must
    cover exactly the same pumps.  An empty group is allowed (warned, not an
    error); downstream size gating decides whether discovery runs.
    """
    assigned = {a.pump_index for a in assignments}
    expected = set(range(features.n_pumps))
    if assigned != expected:
        missing = sorted(expected - assigned)
        extra = sorted(assigned - expected)
        raise DataError(
            f"assignments do not cover the feature matrix rows "
            f"(missing {missing}, extra {extra})"
        )
    if len(assignments) != features.n_pumps:
        raise DataError("duplicate pump index in assignments")

    by_index = sorted(assignments, key=lambda a: a.pump_index)
    out = []
    for group in (Group.POSITIVE, Group.NEGATIVE):
        members = [a for a in by_index if a.group is group]
        idx = [a.pump_index for a in members]
        dataset = GroupDataset(
            group=group,
            features=features.values[idx] if idx else np.empty(
                (0, len(features.feature_names))
            ),
            target=np.array([a.u_mean for a in members]),
            pump_indices=tuple(idx),
            feature_names=features.feature_names,
        )
        summary = dataset.summary(features.n_pumps)
        if dataset.count == 0:
            logger.warning("group %s is empty", group.value)
        logger.info(
            "group %s: %d pumps (%.1f%%), u range [%s, %s]",
            group.value, summary.count, 100 * summary.share,
            summary.u_min, summary.u_max,
        )
        out.append(dataset)
    return out[0], out[1]

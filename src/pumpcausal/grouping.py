"""Sign-based binary partition of pumps by posterior-mean random effect."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError
from .features import FeatureMatrix


class Group(str, Enum):
    POSITIVE = "positive"  # u_mean > 0: faster-than-average deterioration
    NEGATIVE = "negative"  # u_mean <= 0: slower-than-average deterioration

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, eq=False)
class GroupDataset:
    """Feature rows and targets restricted to one group's members."""

    group: Group
    features: np.ndarray  # (count, n_features)
    target: np.ndarray  # (count,) posterior-mean random effects
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if self.features.shape[0] != len(self.target):
            raise DataError("group feature rows and targets disagree")

    @property
    def count(self) -> int:
        return len(self.target)


def sign_groups(u_mean: np.ndarray) -> np.ndarray:
    """Each pump's Group: positive where u_mean > 0, negative otherwise
    (ties, -0.0 included)."""
    labels = np.array([Group.NEGATIVE, Group.POSITIVE], dtype=object)
    return labels[(np.asarray(u_mean, float) > 0.0).astype(np.intp)]


def min_members(n_features: int) -> int:
    """Smallest group size for which causal discovery is attempted: the
    point fit of the features and the target needs more rows than variables
    plus one, and the bootstrap at least ten."""
    return max(n_features + 3, 10)


def group_datasets(
    features: FeatureMatrix, u_mean: np.ndarray, groups: np.ndarray
) -> tuple[GroupDataset, GroupDataset]:
    """The (positive, negative) group datasets: each the feature rows whose
    label in ``groups`` is the group's, with ``u_mean`` as the target.

    Entry i of ``u_mean`` and ``groups`` belongs to feature-matrix row i.  An
    empty group is allowed (warned, not an error); downstream size gating
    decides whether discovery runs.
    """
    if not len(u_mean) == len(groups) == features.n_pumps:
        raise DataError("random effects, groups and feature rows differ in length")
    u_mean, groups = np.asarray(u_mean, float), np.asarray(groups)
    out = []
    for group in Group:
        rows = np.flatnonzero(groups == group)
        if not len(rows):
            warnings.warn(f"group {group.value} is empty")
        out.append(
            GroupDataset(
                group=group,
                features=features.values[rows],
                target=u_mean[rows],
                feature_names=features.feature_names,
            )
        )
    return out[0], out[1]

"""Sign-rule grouping and group dataset construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpcausal.diagnostics import RandomEffectEstimate
from pumpcausal.errors import DataError
from pumpcausal.features import FeatureMatrix
from pumpcausal.grouping import (
    Group,
    GroupAssignment,
    assign_groups,
    build_group_datasets,
    min_members,
)


def _estimates(values):
    return [
        RandomEffectEstimate(i, float(v), float(v) - 0.1, float(v) + 0.1)
        for i, v in enumerate(values)
    ]


def _matrix(n, d=3):
    rng = np.random.default_rng(0)
    return FeatureMatrix(
        pump_ids=tuple(f"P{i:03d}" for i in range(n)),
        feature_names=tuple(f"f{j}" for j in range(d)),
        values=rng.standard_normal((n, d)),
    )


class TestAssignGroups:
    def test_sign_rule(self):
        groups = [a.group for a in assign_groups(_estimates([0.02, -0.01]))]
        assert groups == [Group.POSITIVE, Group.NEGATIVE]

    def test_exact_zero_goes_negative(self):
        (assignment,) = assign_groups(_estimates([0.0]))
        assert assignment.group is Group.NEGATIVE

    def test_all_positive_leaves_negative_empty(self):
        matrix = _matrix(4)
        assignments = assign_groups(_estimates([0.5, 1.0, 2.0, 0.1]))
        positive, negative = build_group_datasets(matrix, assignments)
        assert positive.count == 4
        assert negative.count == 0
        assert negative.count < min_members(len(negative.feature_names))

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=40),
           st.floats(min_value=1e-9, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_shift_never_demotes(self, values, delta):
        before = assign_groups(_estimates(values))
        after = assign_groups(_estimates([v + delta for v in values]))
        for a, b in zip(before, after):
            if a.group is Group.POSITIVE:
                assert b.group is Group.POSITIVE


class TestBuildGroupDatasets:
    def test_sixty_two_fifty_split_shares(self):
        values = [0.02 + i * 0.1 for i in range(62)] + [-0.01 - i * 0.1 for i in range(50)]
        matrix = _matrix(112)
        positive, negative = build_group_datasets(matrix, assign_groups(_estimates(values)))
        assert (positive.count, negative.count) == (62, 50)
        assert positive.summary(112).share == pytest.approx(0.554, abs=5e-4)
        assert negative.summary(112).share == pytest.approx(0.446, abs=5e-4)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 2, 25)
        matrix = _matrix(25)
        positive, negative = build_group_datasets(matrix, assign_groups(_estimates(values)))
        assert positive.count + negative.count == 25
        assert set(positive.pump_indices) | set(negative.pump_indices) == set(range(25))
        assert set(positive.pump_indices) & set(negative.pump_indices) == set()

    def test_rows_follow_pump_indices(self):
        matrix = _matrix(6)
        values = [1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
        positive, negative = build_group_datasets(matrix, assign_groups(_estimates(values)))
        np.testing.assert_array_equal(positive.features, matrix.values[[0, 2, 4]])
        np.testing.assert_array_equal(negative.features, matrix.values[[1, 3, 5]])
        np.testing.assert_array_equal(positive.target, [1.0, 2.0, 3.0])

    def test_assignment_order_irrelevant(self):
        matrix = _matrix(6)
        assignments = assign_groups(_estimates([1.0, -1.0, 2.0, -2.0, 3.0, -3.0]))
        forward = build_group_datasets(matrix, assignments)
        backward = build_group_datasets(matrix, list(reversed(assignments)))
        for a, b in zip(forward, backward):
            assert a.pump_indices == b.pump_indices
            np.testing.assert_array_equal(a.features, b.features)

    def test_mismatched_pump_sets(self):
        matrix = _matrix(3)
        assignments = assign_groups(_estimates([1.0, -1.0]))
        with pytest.raises(DataError, match="missing"):
            build_group_datasets(matrix, assignments)
        extra = assignments + [GroupAssignment(5, 1.0, Group.POSITIVE)]
        with pytest.raises(DataError):
            build_group_datasets(matrix, extra)

    def test_min_members_gate(self):
        assert min_members(22) == 24
        assert min_members(1) == 3

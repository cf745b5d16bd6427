"""Sign-rule grouping and group dataset construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpcausal.errors import DataError
from pumpcausal.features import FeatureMatrix
from pumpcausal.grouping import Group, group_datasets, min_members, sign_groups


def _matrix(n, d=3):
    rng = np.random.default_rng(0)
    return FeatureMatrix(
        pump_ids=tuple(f"P{i:03d}" for i in range(n)),
        feature_names=tuple(f"f{j}" for j in range(d)),
        values=rng.standard_normal((n, d)),
    )


def _split(matrix, values):
    u_mean = np.array(values, float)
    return group_datasets(matrix, u_mean, sign_groups(u_mean))


class TestSignGroups:
    def test_sign_rule(self):
        assert sign_groups([0.02, -0.01]).tolist() == [Group.POSITIVE, Group.NEGATIVE]

    def test_exact_zero_goes_negative(self):
        assert sign_groups([0.0, -0.0]).tolist() == [Group.NEGATIVE, Group.NEGATIVE]

    def test_all_positive_leaves_negative_empty(self):
        positive, negative = _split(_matrix(4), [0.5, 1.0, 2.0, 0.1])
        assert positive.count == 4
        assert negative.count == 0
        assert negative.count < min_members(len(negative.feature_names))

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=40),
           st.floats(min_value=1e-9, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_shift_never_demotes(self, values, delta):
        before = sign_groups(values)
        after = sign_groups([v + delta for v in values])
        assert np.all(after[before == Group.POSITIVE] == Group.POSITIVE)


class TestGroupDatasets:
    def test_sixty_two_fifty_split_shares(self):
        values = [0.02 + i * 0.1 for i in range(62)] + [-0.01 - i * 0.1 for i in range(50)]
        positive, negative = _split(_matrix(112), values)
        assert (positive.count, negative.count) == (62, 50)
        assert positive.count / 112 == pytest.approx(0.554, abs=5e-4)
        assert negative.count / 112 == pytest.approx(0.446, abs=5e-4)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        positive, negative = _split(_matrix(25), rng.normal(0, 2, 25))
        assert positive.count + negative.count == 25
        assert set(positive.pump_indices) | set(negative.pump_indices) == set(range(25))
        assert set(positive.pump_indices) & set(negative.pump_indices) == set()

    def test_rows_follow_indices(self):
        matrix = _matrix(6)
        positive, negative = _split(matrix, [1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
        np.testing.assert_array_equal(positive.features, matrix.values[[0, 2, 4]])
        np.testing.assert_array_equal(negative.features, matrix.values[[1, 3, 5]])
        np.testing.assert_array_equal(positive.target, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(negative.target, [-1.0, -2.0, -3.0])

    def test_labels_decide_not_the_sign(self):
        # groups read back from groups.csv are authoritative
        matrix = _matrix(3)
        labels = np.array([Group.NEGATIVE, Group.POSITIVE, Group.POSITIVE], dtype=object)
        positive, negative = group_datasets(matrix, np.array([1.0, 2.0, 3.0]), labels)
        assert positive.pump_indices == (1, 2)
        assert negative.pump_indices == (0,)

    def test_lengths_must_match_the_matrix(self):
        u_mean = np.array([1.0, -1.0])
        with pytest.raises(DataError, match="differ in length"):
            group_datasets(_matrix(3), u_mean, sign_groups(u_mean))

    def test_min_members_gate(self):
        assert min_members(22) == 25
        assert min_members(1) == 10

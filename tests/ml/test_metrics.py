"""Tests for evaluation metrics."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ml.labeling import ClassInfo
from repro.ml.metrics import confusion_matrix, range_accuracy, training_error
from repro.ml.tree import DecisionTree


def fitted_tree():
    x = np.array([[0], [0], [1], [1]], dtype=np.uint8)
    y = np.array([0, 0, 1, 1])
    return DecisionTree().fit(x, y), x, y


class TestTrainingError:
    def test_perfect(self):
        t, x, y = fitted_tree()
        assert training_error(t, x, y) == 0.0

    def test_half_wrong(self):
        t, x, _ = fitted_tree()
        y_flipped = np.array([0, 1, 1, 0])
        assert training_error(t, x, y_flipped) == 0.5


class TestRangeAccuracy:
    def test_all_within_range(self):
        t, x, _ = fitted_tree()
        classes = [
            ClassInfo(label=0, start=0, stop=2, t_min=1.0, t_max=2.0),
            ClassInfo(label=1, start=2, stop=4, t_min=3.0, t_max=4.0),
        ]
        times = np.array([1.5, 1.9, 3.5, 3.9])
        assert range_accuracy(t, x, times, classes) == 1.0

    def test_out_of_range_counted_wrong(self):
        t, x, _ = fitted_tree()
        classes = [
            ClassInfo(label=0, start=0, stop=2, t_min=1.0, t_max=2.0),
            ClassInfo(label=1, start=2, stop=4, t_min=3.0, t_max=4.0),
        ]
        # Second sample's time (5.0) is outside class 0's range; the last
        # two are inside class 1's.
        times = np.array([1.5, 5.0, 3.5, 3.9])
        assert range_accuracy(t, x, times, classes) == 0.75

    def test_empty_inputs(self):
        t, _, _ = fitted_tree()
        assert range_accuracy(t, np.zeros((0, 1)), np.array([]), []) == 0.0


class TestConfusion:
    def test_diagonal_when_perfect(self):
        m = confusion_matrix(np.array([0, 1, 2]), np.array([0, 1, 2]), 3)
        assert np.array_equal(m, np.eye(3, dtype=int))

    def test_counts(self):
        m = confusion_matrix(
            np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), 2
        )
        assert m.tolist() == [[1, 1], [0, 2]]

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_counts_every_pair(self, pairs):
        y_true = np.array([t for t, _ in pairs], dtype=int)
        y_pred = np.array([p for _, p in pairs], dtype=int)
        expected = np.zeros((4, 4), dtype=int)
        for t, p in pairs:
            expected[t, p] += 1
        m = confusion_matrix(y_true, y_pred, 4)
        assert m.dtype == expected.dtype
        assert m.tolist() == expected.tolist()


class TestRangeAccuracyCases:
    def test_prediction_without_class_counts_wrong(self):
        t, x, _ = fitted_tree()
        # Class 1 has no range: samples predicted 1 are never accurate.
        classes = [ClassInfo(label=0, start=0, stop=2, t_min=1.0, t_max=2.0)]
        times = np.array([1.0, 2.0, 3.5, 3.9])
        assert range_accuracy(t, x, times, classes) == 0.5

    def test_range_bounds_inclusive_nan_never(self):
        t, x, _ = fitted_tree()
        classes = [
            ClassInfo(label=0, start=0, stop=2, t_min=1.0, t_max=2.0),
            ClassInfo(label=1, start=2, stop=4, t_min=3.0, t_max=4.0),
        ]
        times = np.array([1.0, np.nan, 4.0, 4.0000001])
        assert range_accuracy(t, x, times, classes) == 0.5

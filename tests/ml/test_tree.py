"""Tests for the from-scratch CART decision tree."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.ml.metrics import training_error
from repro.ml.tree import DecisionTree, TreeConfig, _impurity


class TestImpurity:
    def test_pure_zero(self):
        assert _impurity(np.array([10.0, 0.0]), "gini") == 0.0
        assert _impurity(np.array([10.0, 0.0]), "entropy") == 0.0

    def test_uniform_max(self):
        assert _impurity(np.array([5.0, 5.0]), "gini") == pytest.approx(0.5)
        assert _impurity(np.array([5.0, 5.0]), "entropy") == pytest.approx(1.0)

    def test_empty_zero(self):
        assert _impurity(np.zeros(3), "gini") == 0.0


class TestConfigValidation:
    def test_bad_criterion(self):
        with pytest.raises(TrainingError):
            TreeConfig(criterion="mse")

    def test_bad_leaf_count(self):
        with pytest.raises(TrainingError):
            TreeConfig(max_leaf_nodes=1)

    def test_bad_class_weight(self):
        with pytest.raises(TrainingError):
            TreeConfig(class_weight="magic")


def xor_data():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 10, dtype=np.uint8)
    y = np.array([a ^ b for a, b in x], dtype=int)
    return x, y


class TestFitPredict:
    def test_single_feature_split(self):
        x = np.array([[0], [0], [1], [1]], dtype=np.uint8)
        y = np.array([0, 0, 1, 1])
        t = DecisionTree().fit(x, y)
        assert t.n_leaves == 2
        assert t.predict(x).tolist() == [0, 0, 1, 1]

    def test_xor_needs_three_leaves(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_leaf_nodes=4)).fit(x, y)
        assert training_error(t, x, y) == 0.0
        assert t.n_leaves >= 3

    def test_max_leaf_nodes_respected(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_leaf_nodes=2)).fit(x, y)
        assert t.n_leaves == 2

    def test_max_depth_respected(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_depth=1)).fit(x, y)
        assert t.depth <= 1

    def test_pure_data_single_leaf(self):
        x = np.zeros((10, 3), dtype=np.uint8)
        y = np.zeros(10, dtype=int)
        t = DecisionTree().fit(x, y)
        assert t.n_leaves == 1
        assert t.predict(x).tolist() == [0] * 10

    def test_unfitted_predict_rejected(self):
        with pytest.raises(TrainingError):
            DecisionTree().predict(np.zeros((1, 1)))

    def test_input_validation(self):
        with pytest.raises(TrainingError):
            DecisionTree().fit(np.zeros(3), np.zeros(3))
        with pytest.raises(TrainingError):
            DecisionTree().fit(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(TrainingError):
            DecisionTree().fit(np.zeros((0, 1)), np.zeros(0))

    def test_non_binary_features_rejected(self):
        """Splits are ``x[f] <= 0.5`` over 0/1 features; anything else
        would need thresholds the column search does not consider."""
        x = np.array([[1.0], [2.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        with pytest.raises(TrainingError, match="binary"):
            DecisionTree().fit(x, y)

    def test_bool_and_float_binary_features_accepted(self):
        y = np.array([0, 0, 1, 1])
        ref = DecisionTree().fit(np.array([[0], [0], [1], [1]], np.uint8), y)
        for dtype in (bool, float):
            x = np.array([[0], [0], [1], [1]], dtype=dtype)
            assert DecisionTree().fit(x, y).to_dict() == ref.to_dict()

    @pytest.mark.parametrize("class_weight", ["balanced", None])
    def test_negative_labels_rejected(self, class_weight):
        tree = DecisionTree(TreeConfig(class_weight=class_weight))
        with pytest.raises(TrainingError, match="non-negative"):
            tree.fit(np.array([[0], [1], [1]]), np.array([-1, 0, 0]))

    @pytest.mark.parametrize("class_weight", ["balanced", None])
    def test_fractional_labels_rejected(self, class_weight):
        tree = DecisionTree(TreeConfig(class_weight=class_weight))
        with pytest.raises(TrainingError, match="integers"):
            tree.fit(np.array([[0], [1], [1]]), np.array([0.5, 0.0, 1.0]))
        with pytest.raises(TrainingError, match="integers"):
            tree.fit(np.array([[0], [1]]), np.array(["a", "b"]))

    def test_integral_float_labels_accepted(self):
        x = np.array([[0], [0], [1], [1]], dtype=np.uint8)
        t = DecisionTree().fit(x, np.array([0.0, 0.0, 1.0, 1.0]))
        assert t.predict(x).tolist() == [0, 0, 1, 1]


class TestBalancedWeights:
    def test_minority_class_not_swamped(self):
        """95/5 imbalance: with balanced weights the minority class is
        predicted on its own side of a perfect split."""
        x = np.array([[0]] * 95 + [[1]] * 5, dtype=np.uint8)
        y = np.array([0] * 95 + [1] * 5)
        t = DecisionTree(TreeConfig(class_weight="balanced")).fit(x, y)
        assert t.predict(np.array([[1]], dtype=np.uint8)).tolist() == [1]

    def test_root_proportions_balanced(self):
        x = np.array([[0]] * 90 + [[1]] * 10, dtype=np.uint8)
        y = np.array([0] * 90 + [1] * 10)
        t = DecisionTree(TreeConfig(class_weight="balanced")).fit(x, y)
        # Weighted root proportions are ~50/50 regardless of raw imbalance
        # (this is why the paper's Fig. 6 root shows 33.3%/33.3%/33.3%).
        props = t.root.class_proportions()
        assert props[0] == pytest.approx(0.5)
        assert props[1] == pytest.approx(0.5)


class TestStructure:
    def test_paths_cover_all_leaves(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_leaf_nodes=4)).fit(x, y)
        paths = t.paths()
        assert len(paths) == t.n_leaves
        # Applying each path's conditions reaches its leaf.
        for conds, leaf in paths:
            row = np.zeros(x.shape[1], dtype=np.uint8)
            for f, val in conds:
                row[f] = 1 if val else 0
            assert t.apply(row[None, :])[0] == leaf.node_id

    def test_render_contains_samples_and_classes(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_leaf_nodes=3)).fit(x, y)
        out = t.render(feature_names=["f0 is one", "f1 is one"])
        assert "samples=" in out
        assert "classes=[" in out
        assert "f0 is one" in out or "f1 is one" in out

    def test_leaf_count_consistency(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_leaf_nodes=4)).fit(x, y)
        assert len(t.leaves()) == t.n_leaves
        assert sum(leaf.n_samples for leaf in t.leaves()) == len(y)

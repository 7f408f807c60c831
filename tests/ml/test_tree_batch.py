"""Lockstep split search and batch predict vs the frozen per-tree references.

The forest grower must produce the *identical* tree — structure,
thresholds, importances, probabilities — to both splitters frozen in
``tests.reference.tree_split``: the recursive presort search and the
O(n²) bruteforce scan, including tie-breaks between equal-gain splits
and duplicated feature values.  The compiled node-table predict must
match the frozen per-row walk in ``tests.reference.forest_walk``.
"""

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeClassifier
from tests.reference.forest_walk import leaf_counts
from tests.reference.tree_split import ReferenceTree


def make_data(rng, n=120, n_features=6, n_classes=3, quantize=None):
    X = rng.normal(size=(n, n_features))
    if quantize is not None:
        # Coarse grid → many duplicated values and tied candidate splits.
        X = np.round(X * quantize) / quantize
    y = rng.integers(0, n_classes, size=n).astype(object)
    return X, y


def assert_same_tree(a, b):
    """Structural, bitwise equality of two fitted trees."""

    def walk(na, nb):
        assert (na.left is None) == (nb.left is None)
        assert na.feature == nb.feature
        assert na.threshold == nb.threshold
        np.testing.assert_array_equal(na.class_counts, nb.class_counts)
        if na.left is not None:
            walk(na.left, nb.left)
            walk(na.right, nb.right)

    walk(a.root_, b.root_)
    np.testing.assert_array_equal(a.classes_, b.classes_)
    np.testing.assert_array_equal(a.feature_importances_, b.feature_importances_)


class TestSplitterParity:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("quantize", [None, 4])
    def test_identical_trees(self, criterion, quantize):
        rng = np.random.default_rng(11)
        for trial in range(8):
            X, y = make_data(rng, quantize=quantize)
            kwargs = dict(max_depth=8, criterion=criterion, random_state=trial)
            tree = DecisionTreeClassifier(**kwargs).fit(X, y)
            X_test = rng.normal(size=(50, X.shape[1]))
            for splitter in ("presort", "bruteforce"):
                reference = ReferenceTree(splitter=splitter, **kwargs).fit(X, y)
                assert_same_tree(tree, reference)
                np.testing.assert_array_equal(
                    tree.predict_proba(X_test), reference.predict_proba(X_test)
                )

    def test_max_features_uses_same_rng_stream(self):
        """Feature subsampling draws must follow the recursive preorder."""
        rng = np.random.default_rng(5)
        X, y = make_data(rng, n=200, n_features=8)
        kwargs = dict(max_depth=10, max_features="sqrt", random_state=0)
        tree = DecisionTreeClassifier(**kwargs).fit(X, y)
        for splitter in ("presort", "bruteforce"):
            assert_same_tree(tree, ReferenceTree(splitter=splitter, **kwargs).fit(X, y))

    def test_min_samples_constraints(self):
        rng = np.random.default_rng(9)
        X, y = make_data(rng, n=80)
        kwargs = dict(min_samples_split=10, min_samples_leaf=5)
        tree = DecisionTreeClassifier(**kwargs).fit(X, y)
        for splitter in ("presort", "bruteforce"):
            assert_same_tree(tree, ReferenceTree(splitter=splitter, **kwargs).fit(X, y))

    def test_constant_feature_and_pure_node(self):
        X = np.column_stack([np.ones(20), np.r_[np.zeros(10), np.ones(10)]])
        y = np.array(["a"] * 10 + ["b"] * 10, dtype=object)
        tree = DecisionTreeClassifier().fit(X, y)
        for splitter in ("presort", "bruteforce"):
            assert_same_tree(tree, ReferenceTree(splitter=splitter).fit(X, y))
        assert tree.root_.feature == 1  # the only informative feature


class TestBatchPredict:
    def test_matches_per_row_walk(self):
        rng = np.random.default_rng(21)
        X, y = make_data(rng, n=150)
        tree = DecisionTreeClassifier(max_depth=10, random_state=1).fit(X, y)
        X_test = rng.normal(size=(300, X.shape[1]))
        batch = tree.predict_proba(X_test)
        for i in range(len(X_test)):
            counts = leaf_counts(tree, X_test[i])
            expected = counts / counts.sum()
            np.testing.assert_array_equal(batch[i], expected)

    def test_single_node_tree(self):
        X = np.zeros((5, 2))
        y = np.array(["a", "a", "b", "a", "b"], dtype=object)
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)  # constant X → stump
        proba = tree.predict_proba(np.zeros((3, 2)))
        np.testing.assert_allclose(proba, [[0.6, 0.4]] * 3)

    def test_flat_table_rebuilt_after_refit(self):
        rng = np.random.default_rng(2)
        X, y = make_data(rng, n=60)
        tree = DecisionTreeClassifier(max_depth=6, random_state=0)
        tree.fit(X, y)
        first = tree.predict_proba(X)
        X2, y2 = make_data(rng, n=60)
        tree.fit(X2, y2)
        second = tree.predict_proba(X2)
        assert first.shape == second.shape
        # Refit on fresh data must not serve the stale node table.
        for i in range(len(X2)):
            counts = leaf_counts(tree, X2[i])
            np.testing.assert_array_equal(second[i], counts / counts.sum())

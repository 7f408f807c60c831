"""The compiled node table vs the frozen per-tree inference, bit for bit."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.persistence import load_forest, save_forest, tree_from_dict, tree_to_dict
from repro.ml.tree import DecisionTreeClassifier
from tests.reference.forest_walk import forest_proba, tree_proba


def make_data(rng, n=150, n_features=5, n_classes=3):
    X = rng.normal(size=(n, n_features))
    y = np.array(["BA", "RA", "NA"][:n_classes], dtype=object)[
        rng.integers(0, n_classes, size=n)
    ]
    return X, y


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def data():
    return make_data(np.random.default_rng(4))


@pytest.fixture(scope="module")
def forest(data):
    X, y = data
    return RandomForestClassifier(n_estimators=25, max_depth=9, random_state=3).fit(X, y)


class TestForestParity:
    def test_batch(self, forest):
        X_test = np.random.default_rng(8).normal(size=(400, 5))
        assert_bitwise(forest.predict_proba(X_test), forest_proba(forest, X_test))

    def test_single_rows(self, forest):
        for row in np.random.default_rng(9).normal(size=(60, 5)):
            assert_bitwise(forest.predict_proba(row), forest_proba(forest, row))
            assert_bitwise(
                forest.predict_proba(row[None, :]), forest_proba(forest, row)
            )

    def test_trees_that_saw_a_label_subset(self):
        rng = np.random.default_rng(1)
        X, y = make_data(rng, n=80)
        y[:] = "BA"
        y[:3] = "RA"  # rare: most bootstrap draws miss some of these rows
        y[3] = "NA"
        forest = RandomForestClassifier(n_estimators=30, max_depth=6, random_state=0)
        forest.fit(X, y)
        assert any(len(t.classes_) < len(forest.classes_) for t in forest.trees_)
        X_test = rng.normal(size=(200, 5))
        assert_bitwise(forest.predict_proba(X_test), forest_proba(forest, X_test))

    def test_nan_rows_from_empty_children(self):
        # The midpoint of two adjacent doubles rounds to the upper one, so
        # the split sends both rows left and leaves an empty right child.
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        X = np.array([[a], [b]])
        y = np.array(["x", "y"], dtype=object)
        forest = RandomForestClassifier(
            n_estimators=3, max_depth=3, bootstrap=False, random_state=0
        ).fit(X, y)
        X_test = np.array([[0.0], [a], [b], [2.0]])
        proba = forest.predict_proba(X_test)
        assert np.isnan(proba[-1]).all()
        assert_bitwise(proba, forest_proba(forest, X_test))
        tree = forest.trees_[0]
        assert_bitwise(tree.predict_proba(X_test), tree_proba(tree, X_test))

    def test_refit_rebuilds_the_table(self, data):
        X, y = data
        forest = RandomForestClassifier(n_estimators=10, max_depth=6, random_state=0)
        forest.fit(X, y)
        first = forest.predict_proba(X)
        X2, y2 = make_data(np.random.default_rng(12), n_classes=2)
        forest.fit(X2, y2)
        second = forest.predict_proba(X2)
        assert second.shape == (len(X2), 2) != first.shape
        assert_bitwise(second, forest_proba(forest, X2))

    def test_save_load_round_trip(self, forest, tmp_path):
        path = tmp_path / "forest.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        X_test = np.random.default_rng(10).normal(size=(120, 5))
        expected = forest_proba(forest, X_test)
        assert_bitwise(loaded.predict_proba(X_test), expected)
        assert_bitwise(forest_proba(loaded, X_test), expected)
        assert_bitwise(loaded.predict_proba(X_test[0]), expected[:1])


class TestTreeParity:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_batch_and_single_rows(self, data, criterion):
        X, y = data
        tree = DecisionTreeClassifier(criterion=criterion, random_state=0).fit(X, y)
        X_test = np.random.default_rng(13).normal(size=(300, 5))
        assert_bitwise(tree.predict_proba(X_test), tree_proba(tree, X_test))
        for row in X_test[:40]:
            assert_bitwise(tree.predict_proba(row), tree_proba(tree, row))

    def test_refit_rebuilds_the_table(self, data):
        X, y = data
        tree = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)
        tree.predict_proba(X)
        X2, y2 = make_data(np.random.default_rng(14), n_classes=2)
        tree.fit(X2, y2)
        assert_bitwise(tree.predict_proba(X2), tree_proba(tree, X2))

    def test_dict_round_trip(self, data):
        X, y = data
        tree = DecisionTreeClassifier(max_depth=7, random_state=0).fit(X, y)
        rebuilt = tree_from_dict(tree_to_dict(tree))
        X_test = np.random.default_rng(15).normal(size=(100, 5))
        assert_bitwise(rebuilt.predict_proba(X_test), tree_proba(tree, X_test))

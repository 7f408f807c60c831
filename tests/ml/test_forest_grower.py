"""The lockstep forest grower vs the frozen per-tree fits.

``repro.ml.tree.grow_forest`` grows every tree of a forest at once from
one shared presort, with each tree's bootstrap as integer row weights.
Each tree must equal, bit for bit, the tree the frozen recursive
splitters in ``tests.reference.tree_split`` grow on the expanded rows:
structure, thresholds, class counts, importances and probabilities.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, NodeTable, grow_forest
from repro.sim.sweep import paper_grid
from tests.reference.tree_split import ReferenceTree, reference_forest


def assert_same_tree(a, b):
    """Bitwise equality of two fitted trees."""

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
    assert a.feature_importances_.tobytes() == b.feature_importances_.tobytes()


def assert_same_forest(a, b, X):
    assert len(a.trees_) == len(b.trees_)
    for tree_a, tree_b in zip(a.trees_, b.trees_):
        assert_same_tree(tree_a, tree_b)
    assert a.feature_importances_.tobytes() == b.feature_importances_.tobytes()
    assert a.predict_proba(X).tobytes() == b.predict_proba(X).tobytes()


@pytest.fixture(scope="module")
def paper_grid_label_sets(main_dataset_with_na):
    """The training labels of the 8 paper-grid operating points."""
    return [
        main_dataset_with_na.labels(point.ground_truth_config())
        for point in paper_grid()
    ]


class TestPaperGridParity:
    """The benchmark's forests: depth 14 on the relabelled main campaign.

    Tree ``i`` of a forest depends only on the ``i``-th (seed, bootstrap)
    draw, so 20 trees are the first 20 of the grid's 60.
    """

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("point", range(8))
    def test_forest_equals_per_tree_fits(
        self, criterion, point, main_dataset_with_na, paper_grid_label_sets
    ):
        X = main_dataset_with_na.feature_matrix()
        y = paper_grid_label_sets[point]
        params = dict(
            n_estimators=20, max_depth=14, random_state=0, criterion=criterion
        )
        forest = RandomForestClassifier(**params).fit(X, y)
        assert_same_forest(forest, reference_forest(X, y, **params), X)

    @pytest.mark.parametrize("point", range(8))
    def test_unbounded_forest_grows_past_collisions(
        self, point, main_dataset_with_na, paper_grid_label_sets
    ):
        # The campaign's colliding pairs leave empty leaves in these trees.
        X = main_dataset_with_na.feature_matrix()
        y = paper_grid_label_sets[point]
        params = dict(n_estimators=10, max_depth=None, random_state=0)
        forest = RandomForestClassifier(**params).fit(X, y)
        assert_same_forest(forest, reference_forest(X, y, **params), X)


@st.composite
def weighted_problems(draw):
    n = draw(st.integers(2, 24))
    n_features = draw(st.integers(1, 4))
    # Quantized values: ties within a feature and whole duplicated rows.
    grid = draw(st.integers(1, 4))
    row = st.lists(st.integers(-grid, grid), min_size=n_features, max_size=n_features)
    X = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=float) / grid
    X = np.vstack([X, X[: draw(st.integers(0, n))]])
    n_labels = draw(st.integers(2, 4))
    y = np.array(
        [f"c{draw(st.integers(0, n_labels - 1))}" for _ in range(len(X))], dtype=object
    )
    n_trees = draw(st.integers(1, 3))
    # Bootstrap-like weights: zeros can drop a row, and with it a class.
    weights = np.array(
        draw(st.lists(
            st.lists(st.integers(0, 3), min_size=len(X), max_size=len(X)),
            min_size=n_trees, max_size=n_trees,
        )),
        dtype=np.int32,
    )
    weights[:, 0] += weights.sum(axis=1) == 0  # every tree sees a row
    params = dict(
        criterion=draw(st.sampled_from(["gini", "entropy"])),
        max_depth=draw(st.integers(1, 6)),
        min_samples_leaf=draw(st.integers(1, 3)),
        max_features=draw(st.sampled_from([None, "sqrt", *range(1, n_features + 1)])),
    )
    seed = st.integers(0, 2**31 - 2)
    seeds = draw(st.lists(seed, min_size=n_trees, max_size=n_trees))
    return X, y, weights, params, seeds, draw(st.integers(0, 2**32 - 1))


class TestWeightedGrowerProperties:
    @given(weighted_problems(), st.sampled_from([1, 5, 4096]))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_tree_fits_on_expanded_rows(self, problem, batch_rows):
        X, y, weights, params, seeds, shuffle_seed = problem
        trees = [DecisionTreeClassifier(random_state=s, **params) for s in seeds]
        # A cap of 1 or 5 rows splits every batched search into chunks.
        with mock.patch.object(tree_module, "_MAX_BATCH_ROWS", batch_rows):
            grow_forest(trees, X, y, weights)
        shuffle = np.random.default_rng(shuffle_seed)
        references = []
        for tree, row_weights, seed in zip(trees, weights, seeds):
            # Expanded in random order, as a bootstrap draws its indices.
            indices = shuffle.permutation(np.repeat(np.arange(len(X)), row_weights))
            for splitter in ("presort", "bruteforce"):
                reference = ReferenceTree(
                    splitter=splitter, random_state=seed, **params
                ).fit(X[indices], y[indices])
                assert_same_tree(tree, reference)
            references.append(reference)
        classes = np.unique(y)
        X_test = np.vstack([X, X + 0.25])
        assert (
            NodeTable(trees, classes).predict_proba(X_test).tobytes()
            == NodeTable(references, classes).predict_proba(X_test).tobytes()
        )


class TestMidpointCollision:
    """Adjacent values whose midpoint rounds to the upper one."""

    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)

    def problem(self):
        assert (self.a + self.b) / 2.0 == self.b
        return np.array([[self.a], [self.b]]), np.array(["x", "y"], dtype=object)

    def test_bounded_depth_keeps_the_upper_threshold(self):
        X, y = self.problem()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        for splitter in ("presort", "bruteforce"):
            assert_same_tree(
                tree, ReferenceTree(splitter=splitter, max_depth=3).fit(X, y)
            )
        # Every level splits at ``threshold == b``: both rows take the
        # ``<=`` side and the other side is an empty leaf.
        node = tree.root_
        for _ in range(3):
            assert node.threshold == self.b
            np.testing.assert_array_equal(node.left.class_counts, [1, 1])
            np.testing.assert_array_equal(node.right.class_counts, [0, 0])
            node = node.left
        assert node.is_leaf
        assert np.isnan(tree.predict_proba([[self.b + 1.0]])).all()
        np.testing.assert_array_equal(tree.predict_proba(X), [[0.5, 0.5]] * 2)

    def test_unbounded_depth_names_the_collision(self):
        X, y = self.problem()
        with pytest.raises(RecursionError):
            ReferenceTree(splitter="presort").fit(X, y)
        with pytest.raises(ValueError, match="midpoint.*leaves one side empty"):
            DecisionTreeClassifier().fit(X, y)
        with pytest.raises(ValueError, match="midpoint"):
            RandomForestClassifier(
                n_estimators=2, max_depth=None, bootstrap=False, max_features=None
            ).fit(X, y)

    @pytest.mark.parametrize("seed", range(8))
    def test_unbounded_depth_subsampling_grows_past_the_collision(self, seed):
        # Feature 0 collides, feature 1 splits cleanly.  A recursive fit
        # redraws one feature until it draws feature 1; so must the grower.
        X = np.array([[self.a, 0.0], [self.b, 1.0]])
        y = np.array(["x", "y"], dtype=object)
        params = dict(max_depth=None, max_features=1, random_state=seed)
        tree = DecisionTreeClassifier(**params).fit(X, y)
        for splitter in ("presort", "bruteforce"):
            assert_same_tree(tree, ReferenceTree(splitter=splitter, **params).fit(X, y))
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_unbounded_depth_names_a_collision_every_draw_repeats(self):
        # Both features collide: every one-feature draw splits the same way.
        X = np.array([[self.a, self.a], [self.b, self.b]])
        y = np.array(["x", "y"], dtype=object)
        with pytest.raises(RecursionError):
            ReferenceTree(max_features=1).fit(X, y)
        with pytest.raises(ValueError, match="midpoint.*leaves one side empty"):
            DecisionTreeClassifier(max_features=1).fit(X, y)


@st.composite
def colliding_problems(draw):
    """Unbounded-depth problems over values that include colliding pairs."""
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    n = draw(st.integers(2, 12))
    n_features = draw(st.integers(1, 4))
    value = st.sampled_from([-1.0, 0.0, 1.0, a, b, 2.0])
    row = st.lists(value, min_size=n_features, max_size=n_features)
    X = np.array(draw(st.lists(row, min_size=n, max_size=n)))
    y = np.array(
        [f"c{draw(st.integers(0, 2))}" for _ in range(n)], dtype=object
    )
    params = dict(
        criterion=draw(st.sampled_from(["gini", "entropy"])),
        max_depth=None,
        min_samples_leaf=draw(st.integers(1, 2)),
        max_features=draw(st.sampled_from([None, "sqrt", *range(1, n_features + 1)])),
        random_state=draw(st.integers(0, 2**31 - 2)),
    )
    return X, y, params


class TestUnboundedDepthProperties:
    @given(colliding_problems())
    @settings(max_examples=100, deadline=None)
    def test_equals_recursive_fit_or_names_the_collision(self, problem):
        X, y, params = problem
        try:
            reference = ReferenceTree(**params).fit(X, y)
        except RecursionError:
            with pytest.raises(ValueError, match="midpoint"):
                DecisionTreeClassifier(**params).fit(X, y)
        else:
            assert_same_tree(DecisionTreeClassifier(**params).fit(X, y), reference)

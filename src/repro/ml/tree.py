"""CART decision tree with Gini or entropy impurity (paper §6.2).

A standard binary classification/regression-tree classifier:

* exhaustive split search over (feature, threshold) candidates, where the
  thresholds are midpoints between consecutive sorted unique values;
* Gini index or Shannon entropy impurity, selectable like in the paper
  ("we tried two impurity measures: Gini index and entropy");
* ``max_depth`` and ``min_samples_split``/``min_samples_leaf`` regularisers
  ("we also limited the maximum depth of the trees to reduce overfitting");
* optional per-split feature subsampling (``max_features``) so the same
  tree powers the random forest;
* accumulated impurity decrease per feature → Gini importances (Table 3).

Every fit goes through one grower, :func:`grow_forest`, which grows all
trees of a forest in lockstep; a tree is a forest of one.  ``X`` is
argsorted once per feature for the whole forest, and a tree's bootstrap
is an integer weight per row.  A split can only fall between distinct
values, and the prefix class counts there are the same integers whether
a duplicated row is repeated or weighted, so each tree is the one a
recursive per-tree fit on its bootstrapped copy of the rows would grow:
same gains (same division order and impurity formula), same first-win
tie-breaks, same thresholds.  Unseen classes add zero terms to the
impurity sums, which leaves them unchanged while NumPy sums the class
terms sequentially (fewer than 8 classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.base import Estimator, check_Xy
from repro.obs.metrics import get_metrics

_CRITERIA = ("gini", "entropy")

_MAX_BATCH_ROWS = 4096
"""Candidate rows scored by one batched split search; a step's search
over more rows runs in chunks, which bounds the grower's scratch memory."""


@dataclass
class _Node:
    """One tree node; leaves carry a class distribution."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    class_counts: Optional[np.ndarray] = None  # set on leaves

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeClassifier(Estimator):
    """CART classifier.

    Args:
        max_depth: Depth cap (``None`` = grow until pure).
        criterion: ``"gini"`` or ``"entropy"``.
        min_samples_split: Nodes smaller than this become leaves.
        min_samples_leaf: Splits leaving fewer samples on a side are
            rejected.
        max_features: Per-split feature subsample size — ``None`` (all),
            an int, or ``"sqrt"``.  Random forests pass ``"sqrt"``.
        random_state: Seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        criterion: str = "gini",
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: Optional[int] = None,
    ):
        if criterion not in _CRITERIA:
            raise ValueError(f"criterion must be one of {sorted(_CRITERIA)}")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if isinstance(max_features, int) and max_features < 1:
            raise ValueError("max_features must be >= 1")
        self.max_depth = max_depth
        self.criterion = criterion
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.classes_: Optional[np.ndarray] = None
        self.root_: Optional[_Node] = None
        self.feature_importances_: Optional[np.ndarray] = None
        self._n_features = 0
        self._table: Optional[NodeTable] = None

    # -- fitting -----------------------------------------------------------

    def fit(self, X, y) -> "DecisionTreeClassifier":
        with get_metrics().span("ml.tree.fit"):
            return self._fit(X, y)

    def _fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_Xy(X, y)
        grow_forest([self], X, y, np.ones((1, X.shape[0]), dtype=np.int32))
        return self

    def _features_for_split(self) -> np.ndarray:
        if self.max_features is None:
            return np.arange(self._n_features)
        if self.max_features == "sqrt":
            k = max(1, int(math.isqrt(self._n_features)))
        else:
            k = min(int(self.max_features), self._n_features)
        return self._rng.choice(self._n_features, size=k, replace=False)

    # -- inference ---------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        with get_metrics().span("ml.tree.predict"):
            return self._predict_proba(X)

    def _predict_proba(self, X) -> np.ndarray:
        self._require_fitted("root_")
        X, _ = check_Xy(X)
        if self._table is None:
            self._table = NodeTable([self], self.classes_)
        return self._table.predict_proba(X)

    def depth(self) -> int:
        """Actual depth of the grown tree (0 for a stump/leaf-only tree)."""
        self._require_fitted("root_")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)

    def node_count(self) -> int:
        self._require_fitted("root_")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return 1 + walk(node.left) + walk(node.right)

        return walk(self.root_)


def grow_forest(
    trees: list[DecisionTreeClassifier], X: np.ndarray, y: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Fit every tree of ``trees`` on the validated ``(X, y)`` in lockstep.

    Tree ``t`` counts row ``r`` ``weights[t, r]`` times (an ``int32``
    array; a bootstrap is ``bincount(indices)``).  The trees share their
    hyper-parameters and differ in ``random_state`` and weights.

    Each tree grows depth-first in preorder from its own stack of open
    nodes.  Every step takes each unfinished tree's next open node,
    draws its candidate features from that tree's RNG (so the draws
    follow preorder, as in a recursive fit) and scores them all in one
    batched search; then it partitions the split nodes' rows and opens
    their children.

    Raises:
        ValueError: With ``max_depth=None``, on a split that leaves one
            side empty when no feature draw can do otherwise at that node.
            An empty side happens when the midpoint of two adjacent values
            rounds to the upper one, so every row lands on the ``<=``
            side.  The node's full child then has the node's rows; with
            feature subsampling a later draw usually splits it another way
            (the tree a recursive fit grows), but when every draw splits
            it the same way the tree would grow forever.
    """
    params = trees[0]
    grower = _Grower(params, X, y, weights)
    n_features = X.shape[1]
    counts, bounds = grower.counts, grower.bounds
    seen = counts > 0
    importance = np.zeros((len(trees), n_features))
    stacks: list[list] = [[] for _ in trees]
    # current[t]: tree t's open node as (node, start, end, depth,
    # class counts), or None once the tree is done.
    current: list = []
    for t, (tree, is_open) in enumerate(zip(trees, grower.opens(counts, 0))):
        tree.classes_ = grower.classes[seen[t]]
        tree._n_features = n_features
        tree._rng = np.random.default_rng(tree.random_state)
        tree._table = None
        tree.root_ = _Node(class_counts=counts[t, seen[t]])
        root = (tree.root_, bounds[t], bounds[t + 1], 0, counts[t])
        current.append(root if is_open else None)

    while True:
        active = [t for t in range(len(trees)) if current[t] is not None]
        if not active:
            break
        nodes = [current[t] for t in active]
        features = np.array([trees[t]._features_for_split() for t in active])
        starts = np.array([node[1] for node in nodes])
        sizes = np.array([node[2] - node[1] for node in nodes])
        node_counts = np.array([node[4] for node in nodes])
        totals = node_counts.sum(axis=1)
        k = features.shape[1]
        gains, lower, upper = grower.search(
            tree=np.repeat(active, k),
            feature=features.ravel(),
            start=np.repeat(starts, k),
            size=np.repeat(sizes, k),
            counts=np.repeat(node_counts, k, axis=0),
            total=np.repeat(totals, k),
            impurity=np.repeat(_impurity(params.criterion, node_counts, totals), k),
        )
        # Features compete in draw order with a strict ``>``: the
        # first maximum wins, and it must beat 1e-12.
        gains = gains.reshape(-1, k)
        pick = np.argmax(gains, axis=1)
        best = gains[np.arange(len(active)), pick]
        split = best > 1e-12
        chosen = np.flatnonzero(split) * k + pick[split]
        split_trees = np.array(active)[split]
        split_features = features.ravel()[chosen]
        thresholds = (lower[chosen] + upper[chosen]) / 2.0
        importance[split_trees, split_features] += best[split] * totals[split]
        left_sizes, child_counts = grower.partition(
            split_trees, starts[split], sizes[split], split_features, thresholds
        )
        if params.max_depth is None:
            # An empty side leaves the other child with the node's rows.
            # A recursive fit grows that child like its parent; it
            # ends once a fresh feature draw makes progress, and never
            # when every draw must split the same way again.
            empty = (child_counts.sum(axis=2) == 0).any(axis=1)
            for i in np.flatnonzero(empty).tolist():
                if grower.repeats_forever(
                    split_trees[i], starts[split][i], sizes[split][i],
                    node_counts[split][i], k,
                ):
                    raise ValueError(
                        f"split on feature {split_features[i]} at the midpoint "
                        f"of adjacent values {lower[chosen[i]]!r} and "
                        f"{upper[chosen[i]]!r} rounds to {thresholds[i]!r} and "
                        "leaves one side empty; with max_depth=None every "
                        "feature draw would split the same rows forever"
                    )
        depths = np.array([node[3] for node in nodes])[split] + 1
        children = zip(
            split_features.tolist(), thresholds.tolist(),
            (starts[split] + left_sizes).tolist(), child_counts,
            grower.opens(child_counts, depths[:, None]).tolist(),
        )
        for t, (node, start, end, depth, _), is_split in zip(
            active, nodes, split.tolist()
        ):
            stack = stacks[t]
            if is_split:
                feature, threshold, middle, child, child_open = next(children)
                node.feature = feature
                node.threshold = threshold
                node.left = _Node(class_counts=child[0][seen[t]])
                node.right = _Node(class_counts=child[1][seen[t]])
                if child_open[1]:
                    stack.append((node.right, middle, end, depth + 1, child[1]))
                if child_open[0]:
                    current[t] = (node.left, start, middle, depth + 1, child[0])
                    continue
            current[t] = stack.pop() if stack else None

    for tree, raw in zip(trees, importance):
        total = raw.sum()
        tree.feature_importances_ = raw / total if total > 0 else raw.copy()


class _Grower:
    """The arrays one forest fit shares across its trees.

    Shared: ``order``, each feature's rows sorted by value (flattened,
    feature after feature), the matching ``values``, and ``position[f,
    r]``, the index of row ``r`` in feature ``f``'s block of ``order``.
    Per tree: its rows with a non-zero weight in one flat ``rows`` array,
    where every open node owns a contiguous range.
    """

    def __init__(self, params: DecisionTreeClassifier, X, y, weights):
        self.params = params
        self.X = X
        self.weights = weights
        self.classes, self.codes = np.unique(y, return_inverse=True)
        self.n_classes = len(self.classes)
        n, n_features = X.shape
        order = np.argsort(X, axis=0, kind="stable").T
        self.values = np.take_along_axis(X.T, order, axis=1).ravel()
        self.position = np.empty((n_features, n), dtype=np.intp)
        np.put_along_axis(
            self.position, order, np.arange(order.size).reshape(order.shape), axis=1
        )
        self.order = order.ravel()
        onehot = np.eye(self.n_classes, dtype=np.int64)[self.codes]
        self.counts = weights @ onehot  # each tree's root class counts
        tree_of, self.rows = np.nonzero(weights)
        self.bounds = np.searchsorted(tree_of, np.arange(len(weights) + 1))

    def opens(self, counts: np.ndarray, depth) -> np.ndarray:
        """Which nodes (class counts ``(..., n_classes)``) get a split search."""
        total = counts.sum(axis=-1)
        is_open = total >= self.params.min_samples_split
        is_open &= counts.max(axis=-1) != total  # not pure
        if self.params.max_depth is not None:
            is_open &= depth < self.params.max_depth
        return is_open

    def search(
        self, *, tree, feature, start, size, counts, total, impurity
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best split of each (node, feature) candidate pair.

        Pair ``p`` scores feature ``feature[p]`` over the rows
        ``rows[start[p]:start[p] + size[p]]`` of tree ``tree[p]``, a node
        with class ``counts[p]``, weight ``total[p]`` and impurity
        ``impurity[p]``.  Returns per pair the best gain (``-inf`` when no
        split is valid) and the two adjacent values it falls between.
        Pairs are scored in chunks of at most ``_MAX_BATCH_ROWS`` rows (a
        larger pair runs alone).
        """
        n_pairs = len(tree)
        gains = np.empty(n_pairs)
        lower = np.empty(n_pairs)
        upper = np.empty(n_pairs)
        ends = np.cumsum(size)
        p0 = 0
        while p0 < n_pairs:
            limit = (ends[p0 - 1] if p0 else 0) + _MAX_BATCH_ROWS
            p1 = max(p0 + 1, int(np.searchsorted(ends, limit, "right")))
            sizes = size[p0:p1]
            firsts = np.cumsum(sizes) - sizes
            pair = np.repeat(np.arange(p1 - p0), sizes)
            node_rows = self.rows[_ranges(start[p0:p1], sizes)]
            # Sorting (pair, position) keys puts each pair's rows in its
            # feature's order; a pair's block stays where it was.
            offset = pair * len(self.order)
            key = self.position[feature[p0:p1][pair], node_rows] + offset
            key.sort()
            key -= offset
            row = self.order[key]
            value = self.values[key]
            onehot = np.zeros((len(row), self.n_classes), dtype=np.int64)
            onehot[np.arange(len(row)), self.codes[row]] = self.weights[
                tree[p0:p1][pair], row
            ]
            # left[i]: class counts of the pair's rows up to and including
            # i (candidate "split after i").
            left = np.cumsum(onehot, axis=0)
            before = np.zeros((p1 - p0, self.n_classes), dtype=np.int64)
            before[1:] = left[firsts[1:] - 1]
            left -= before[pair]
            right = counts[p0:p1][pair] - left
            n = total[p0:p1][pair]
            n_left = left.sum(axis=1)
            n_right = n - n_left
            # A block's last row reads the next block's first value here,
            # but it has n_right == 0, so it is never valid.
            following = np.append(value[1:], value[-1])
            valid = (
                (value != following)
                & (n_left >= self.params.min_samples_leaf)
                & (n_right >= self.params.min_samples_leaf)
            )
            il = _impurity(self.params.criterion, left, n_left)
            ir = _impurity(self.params.criterion, right, n_right)
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = impurity[p0:p1][pair] - (n_left / n * il + n_right / n * ir)
            gain = np.where(valid, gain, -np.inf)
            # The first maximum of each pair's block.
            hits = np.flatnonzero(gain == np.maximum.reduceat(gain, firsts)[pair])
            first = hits[np.searchsorted(hits, firsts)]
            gains[p0:p1] = gain[first]
            lower[p0:p1] = value[first]
            upper[p0:p1] = following[first]
            p0 = p1
        return gains, lower, upper

    def repeats_forever(self, tree, start, size, counts, k) -> bool:
        """Whether every draw of ``k`` features splits a node (tree
        ``tree``, rows ``rows[start:start + size]``, class ``counts``) so
        that one side is empty, with its rows all on the other side.

        Without subsampling the draw is always the same.  A random draw
        is any ordered ``k``-subset; it makes progress when its first
        best feature splits the rows, or none of its gains beats 1e-12.
        """
        if self.params.max_features is None:
            return True
        n_features = self.X.shape[1]
        total = counts.sum()
        gains, lower, upper = self.search(
            tree=np.full(n_features, tree),
            feature=np.arange(n_features),
            start=np.full(n_features, start),
            size=np.full(n_features, size),
            counts=np.tile(counts, (n_features, 1)),
            total=np.full(n_features, total),
            impurity=np.repeat(
                _impurity(self.params.criterion, counts[None], total[None]), n_features
            ),
        )
        splits = gains > 1e-12
        top = self.X[self.rows[start:start + size]].max(axis=0)
        stuck = splits & ((lower + upper) / 2.0 >= top)
        gain = np.where(splits, gains, 0.0)
        # A draw can put feature f first, then k - 1 features gaining no more.
        n_not_more = (gain[None, :] <= gain[:, None]).sum(axis=1) - 1
        return not (~stuck & (n_not_more >= k - 1)).any()

    def partition(
        self, trees, starts, sizes, features, thresholds
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reorder each split node's rows so those with ``X[r, f] <=
        threshold`` come first; return each node's left row count and its
        children's class counts ``(m, 2, n_classes)``."""
        positions = _ranges(starts, sizes)
        node = np.repeat(np.arange(len(starts)), sizes)
        node_rows = self.rows[positions]
        goes_right = self.X[node_rows, features[node]] > thresholds[node]
        side = 2 * node + goes_right
        self.rows[positions] = node_rows[np.argsort(side, kind="stable")]
        child_counts = np.bincount(
            side * self.n_classes + self.codes[node_rows],
            weights=self.weights[trees[node], node_rows],
            minlength=2 * len(starts) * self.n_classes,
        ).astype(np.int64).reshape(len(starts), 2, self.n_classes)
        n_right = np.bincount(node, weights=goes_right, minlength=len(starts))
        return sizes - n_right.astype(np.intp), child_counts


def _impurity(criterion: str, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Row-wise impurity of class ``counts`` (m, k) with row ``totals`` (m,).

    ``p = counts / total`` first, then the impurity sum over classes.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals[:, None]
        if criterion == "gini":
            return 1.0 - np.sum(p * p, axis=-1)
        plogp = np.where(counts > 0, p * np.log2(p), 0.0)
    return -np.sum(plogp, axis=-1)


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + m) for s, m in zip(starts, sizes)])``."""
    firsts = np.cumsum(sizes) - sizes
    return np.arange(sizes.sum()) + np.repeat(starts - firsts, sizes)


class NodeTable:
    """Fitted trees compiled into one flat node table.

    The nodes of every tree are concatenated, each tree breadth-first.
    Node ``i`` sends a row to ``children[i, 0]`` when ``row[feature[i]] <=
    threshold[i]`` and to ``children[i, 1]`` otherwise; a leaf is its own
    child on both sides, so routing every (row, tree) pair for ``depth``
    levels parks each pair on its leaf.  ``proba[i]`` is the node's class
    distribution over the table's ``classes``, zero in the columns of
    classes its tree never saw.  A tree predicts as a table of one.
    """

    def __init__(self, trees: list[DecisionTreeClassifier], classes: np.ndarray):
        column = {c: j for j, c in enumerate(classes)}
        nodes: list[_Node] = []
        children: list[tuple[int, int]] = []
        blocks: list[np.ndarray] = []
        self.roots = np.empty(len(trees), dtype=np.intp)
        for t, tree in enumerate(trees):
            self.roots[t] = base = len(nodes)
            bfs = [tree.root_]
            for i, node in enumerate(bfs, base):  # grows while iterated
                if node.is_leaf:
                    children.append((i, i))
                else:
                    children.append((base + len(bfs), base + len(bfs) + 1))
                    bfs += (node.left, node.right)
            nodes += bfs
            counts = np.array([node.class_counts for node in bfs])
            blocks.append(np.zeros((len(counts), len(classes))))
            # An empty child (possible when a midpoint threshold collides
            # with the next value) has an all-zero histogram: a NaN row.
            with np.errstate(invalid="ignore", divide="ignore"):
                blocks[-1][:, [column[c] for c in tree.classes_]] = (
                    counts / counts.sum(axis=1, keepdims=True)
                )
        self.depth = max(tree.depth() for tree in trees)
        self.feature = np.array([max(node.feature, 0) for node in nodes], dtype=np.intp)
        self.threshold = np.array([node.threshold for node in nodes])
        self.children = np.array(children, dtype=np.intp)
        self.proba = np.concatenate(blocks)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf distribution per row of a validated ``X``."""
        n, n_features = X.shape
        n_trees = len(self.roots)
        # Pair p = t * n + r routes row r through tree t, all pairs
        # advancing one level per iteration.
        node = np.repeat(self.roots, n)
        offset = np.tile(np.arange(n) * n_features, n_trees)
        flat = X.ravel()
        for _ in range(self.depth):
            right = flat[offset + self.feature[node]] > self.threshold[node]
            node = self.children[node, right.astype(np.intp)]
        # accumulate adds sequentially in tree order, so the sum is bitwise
        # the one a per-tree ``out += proba`` loop produces.
        leaves = self.proba[node].reshape(n_trees, n, -1)
        np.add.accumulate(leaves, axis=0, out=leaves)
        return leaves[-1] / n_trees

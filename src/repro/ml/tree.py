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

Two splitters grow identical trees:

* ``"presort"`` (default) sorts each feature once per fit and keeps the
  per-feature sorted row order alive down the tree by partitioning it at
  every split.  All candidate thresholds of all candidate features are
  scored in a single NumPy pass using one-hot label prefix sums, so a
  node costs O(n·k·c) vectorised work instead of a Python loop per
  candidate.
* ``"bruteforce"`` is the original per-candidate Python loop, kept as the
  reference implementation the fast path is tested against.

The fast path replicates the reference arithmetic operation for
operation (same division order, same impurity formula, same strict-``>``
first-win tie-break), so both splitters pick identical splits on
identical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.base import Estimator, check_Xy
from repro.obs.metrics import get_metrics


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


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return -float(np.sum(p * np.log2(p)))


_IMPURITIES = {"gini": _gini, "entropy": _entropy}

_SPLITTERS = ("presort", "bruteforce")


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
        splitter: ``"presort"`` (vectorised, default) or ``"bruteforce"``
            (reference per-candidate loop); both grow identical trees.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        criterion: str = "gini",
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: Optional[int] = None,
        splitter: str = "presort",
    ):
        if criterion not in _IMPURITIES:
            raise ValueError(f"criterion must be one of {sorted(_IMPURITIES)}")
        if splitter not in _SPLITTERS:
            raise ValueError(f"splitter must be one of {_SPLITTERS}")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.criterion = criterion
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.splitter = splitter
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
        self.classes_, y_encoded = np.unique(y, return_inverse=True)
        self._n_features = X.shape[1]
        self._impurity = _IMPURITIES[self.criterion]
        self._rng = np.random.default_rng(self.random_state)
        self._importance_raw = np.zeros(self._n_features)
        self._table = None
        if self.splitter == "bruteforce":
            self.root_ = self._grow(X, y_encoded, depth=0)
        else:
            self._y = y_encoded
            self._n_total = X.shape[0]
            self._n_classes = len(self.classes_)
            onehot = np.zeros((self._n_total, self._n_classes), dtype=np.int64)
            onehot[np.arange(self._n_total), y_encoded] = 1
            self._onehot = onehot
            # One stable sort per feature for the whole fit; children
            # inherit sorted order by partitioning (stable, so ties keep
            # ascending original-row order — exactly what a per-node
            # stable argsort of the subset would produce).
            order = np.argsort(X, axis=0, kind="stable")
            cols = np.ascontiguousarray(order.T)
            vals = np.ascontiguousarray(np.take_along_axis(X, order, axis=0).T)
            try:
                self.root_ = self._grow_fast(cols, vals, depth=0)
            finally:
                del self._y, self._onehot
        total = self._importance_raw.sum()
        self.feature_importances_ = (
            self._importance_raw / total if total > 0 else self._importance_raw.copy()
        )
        return self

    def _features_for_split(self) -> np.ndarray:
        if self.max_features is None:
            return np.arange(self._n_features)
        if self.max_features == "sqrt":
            k = max(1, int(math.isqrt(self._n_features)))
        else:
            k = min(int(self.max_features), self._n_features)
        return self._rng.choice(self._n_features, size=k, replace=False)

    # -- fitting: vectorised presort splitter ------------------------------

    def _grow_fast(self, cols: np.ndarray, vals: np.ndarray, depth: int) -> _Node:
        """Grow a subtree from per-feature sorted row indices/values.

        ``cols[f]`` lists this node's rows (indices into the fit arrays)
        sorted by feature ``f``; ``vals[f]`` is the matching sorted values.
        """
        n_node = cols.shape[1]
        counts = np.bincount(self._y[cols[0]], minlength=self._n_classes)
        node = _Node(class_counts=counts)
        if (
            n_node < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or counts.max() == n_node  # pure node
        ):
            return node
        split = self._best_split_fast(cols, vals, counts)
        if split is None:
            return node
        feature, threshold, gain = split
        self._importance_raw[feature] += gain * n_node
        node.feature = feature
        node.threshold = threshold
        # ``vals[feature]`` is sorted, so the rows with value <= threshold
        # are exactly a prefix of that feature's order.
        j = int(np.searchsorted(vals[feature], threshold, side="right"))
        member = np.zeros(self._n_total, dtype=bool)
        member[cols[feature, :j]] = True
        mask = member[cols]
        n_f = cols.shape[0]
        node.left = self._grow_fast(
            cols[mask].reshape(n_f, j), vals[mask].reshape(n_f, j), depth + 1
        )
        inv = ~mask
        node.right = self._grow_fast(
            cols[inv].reshape(n_f, n_node - j),
            vals[inv].reshape(n_f, n_node - j),
            depth + 1,
        )
        node.class_counts = counts
        return node

    def _best_split_fast(
        self, cols: np.ndarray, vals: np.ndarray, parent_counts: np.ndarray
    ) -> Optional[tuple[int, float, float]]:
        """Vectorised split search: all thresholds of all candidate
        features scored in one pass via one-hot label prefix sums."""
        parent_impurity = self._impurity(parent_counts)
        n = cols.shape[1]
        features = self._features_for_split()
        sub_vals = vals[features]  # (c, n)
        # Prefix class counts: left[c, i] = class histogram of the first
        # i+1 rows in feature c's sorted order (candidate "split after i").
        onehot = self._onehot[cols[features]]  # (c, n, k)
        left = np.cumsum(onehot[:, :-1, :], axis=1)  # (c, n-1, k)
        right = parent_counts[None, None, :] - left
        n_left = np.arange(1, n)
        n_right = n - n_left
        size_ok = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        valid = (sub_vals[:, :-1] != sub_vals[:, 1:]) & size_ok[None, :]
        if not valid.any():
            return None
        il = self._impurity_rows(left, n_left)
        ir = self._impurity_rows(right, n_right)
        gains = parent_impurity - (n_left / n * il + n_right / n * ir)
        gains = np.where(valid, gains, -np.inf)
        # argmax takes the first maximum per feature, and features are
        # compared in draw order with a strict ``>`` — the same first-win
        # tie-break as the bruteforce scan.
        arg = np.argmax(gains, axis=1)
        best: Optional[tuple[int, float, float]] = None
        best_gain = 1e-12  # require strictly positive improvement
        for c in range(len(features)):
            i = int(arg[c])
            gain = float(gains[c, i])
            if gain > best_gain:
                threshold = float((sub_vals[c, i] + sub_vals[c, i + 1]) / 2.0)
                best_gain = gain
                best = (int(features[c]), threshold, gain)
        return best

    def _impurity_rows(self, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """Row-wise impurity of ``counts`` (..., n, k) with ``totals`` (n,).

        Matches :func:`_gini` / :func:`_entropy` arithmetic exactly:
        ``p = counts / total`` first, then the impurity sum over classes.
        """
        denom = totals[:, None]
        if self.criterion == "gini":
            p = counts / denom
            return 1.0 - np.sum(p * p, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / denom
            plogp = np.where(counts > 0, p * np.log2(p), 0.0)
        return -np.sum(plogp, axis=-1)

    # -- fitting: reference bruteforce splitter ----------------------------

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        counts = np.bincount(y, minlength=len(self.classes_))
        node = _Node(class_counts=counts)
        if (
            len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or counts.max() == len(y)  # pure node
        ):
            return node
        split = self._best_split(X, y, counts)
        if split is None:
            return node
        feature, threshold, gain, left_mask = split
        self._importance_raw[feature] += gain * len(y)
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[left_mask], y[left_mask], depth + 1)
        node.right = self._grow(X[~left_mask], y[~left_mask], depth + 1)
        node.class_counts = counts
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, parent_counts: np.ndarray
    ) -> Optional[tuple[int, float, float, np.ndarray]]:
        """The (feature, threshold) with the largest impurity decrease.

        Uses the sorted-prefix trick: walking the sorted column once, class
        counts on the left side accumulate incrementally, so each candidate
        threshold is O(n_classes) instead of O(n).
        """
        parent_impurity = self._impurity(parent_counts)
        n = len(y)
        best: Optional[tuple[int, float, float, np.ndarray]] = None
        best_gain = 1e-12  # require strictly positive improvement
        for feature in self._features_for_split():
            order = np.argsort(X[:, feature], kind="stable")
            values = X[order, feature]
            labels = y[order]
            left_counts = np.zeros_like(parent_counts)
            for i in range(n - 1):
                left_counts[labels[i]] += 1
                if values[i] == values[i + 1]:
                    continue  # cannot split between equal values
                n_left = i + 1
                n_right = n - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                right_counts = parent_counts - left_counts
                gain = parent_impurity - (
                    n_left / n * self._impurity(left_counts)
                    + n_right / n * self._impurity(right_counts)
                )
                if gain > best_gain:
                    threshold = (values[i] + values[i + 1]) / 2.0
                    best_gain = gain
                    best = (feature, threshold, gain, X[:, feature] <= threshold)
        return best

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

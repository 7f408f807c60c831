"""Per-tree split search as ``repro.ml`` did it before the forest grower.

A tree was grown recursively on its own (bootstrapped) copy of the
training rows by one of two splitters:

* ``"presort"`` sorted each feature once per fit, kept the per-feature
  sorted row order alive down the tree by partitioning it at every split,
  and scored every threshold of every candidate feature in one NumPy pass
  over one-hot label prefix sums;
* ``"bruteforce"``, the original per-candidate Python loop.

Both grew identical trees.  A forest drew every tree's (seed, bootstrap
indices) pair from its master RNG, then fitted each tree on
``X[indices]``.  The lockstep grower in :mod:`repro.ml.tree` must
reproduce these bit for bit: structure, thresholds, class counts,
importances and probabilities.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.ml.base import check_Xy
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _Node


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


class ReferenceTree(DecisionTreeClassifier):
    """A tree grown by the frozen ``"presort"`` or ``"bruteforce"`` splitter."""

    def __init__(self, splitter: str = "presort", **params):
        super().__init__(**params)
        self.splitter = splitter

    def _fit(self, X, y) -> "ReferenceTree":
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


def reference_forest(
    X, y, *, splitter: str = "presort", **params
) -> RandomForestClassifier:
    """A forest whose trees the frozen splitter fitted one by one.

    Per-tree seeds and bootstrap indices come from the master RNG in the
    forest's draw order; each tree is fitted on ``X[indices]``.
    """
    forest = RandomForestClassifier(**params)
    X, y = check_Xy(X, y)
    rng = np.random.default_rng(forest.random_state)
    forest.classes_ = np.unique(y)
    n = X.shape[0]
    forest.trees_ = []
    for _ in range(forest.n_estimators):
        seed = int(rng.integers(0, 2**31 - 1))
        indices = rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n)
        tree = ReferenceTree(
            splitter=splitter,
            random_state=seed,
            max_depth=forest.max_depth,
            criterion=forest.criterion,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
        )
        forest.trees_.append(tree.fit(X[indices], y[indices]))
    importances = np.zeros(X.shape[1])
    for tree in forest.trees_:
        importances += tree.feature_importances_
    total = importances.sum()
    forest.feature_importances_ = importances / total if total > 0 else importances
    return forest

"""Random forest: bagged CART trees with per-split feature subsampling.

The paper's best model (98 % 5-fold CV accuracy, 88 % cross-building).
Gini importances — the normalised, tree-averaged impurity decrease each
feature contributes — reproduce Table 3.

Every tree's (seed, bootstrap indices) pair is drawn from the master RNG
in tree order; the bootstrap becomes the tree's integer row weights, and
one :func:`repro.ml.tree.grow_forest` call grows all trees in lockstep.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import Estimator, check_Xy
from repro.ml.tree import DecisionTreeClassifier, NodeTable, grow_forest
from repro.obs.metrics import get_metrics


class RandomForestClassifier(Estimator):
    """Bagging ensemble of :class:`DecisionTreeClassifier`.

    Args:
        n_estimators: Number of trees.
        max_depth / criterion / min_samples_leaf: Passed to each tree.
        max_features: Per-split feature subsample (default ``"sqrt"``).
        bootstrap: Draw each tree's training set with replacement.
        random_state: Master seed; per-tree seeds derive from it.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = 12,
        criterion: str = "gini",
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.criterion = criterion
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: Optional[list[DecisionTreeClassifier]] = None
        self.classes_: Optional[np.ndarray] = None
        self.feature_importances_: Optional[np.ndarray] = None
        self._table: Optional[NodeTable] = None

    def fit(self, X, y) -> "RandomForestClassifier":
        with get_metrics().span("ml.forest.fit"):
            return self._fit(X, y)

    def _fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_Xy(X, y)
        rng = np.random.default_rng(self.random_state)
        self.classes_ = np.unique(y)
        self._table = None
        n = X.shape[0]
        trees = []
        weights = np.ones((self.n_estimators, n), dtype=np.int32)
        for t in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            if self.bootstrap:
                weights[t] = np.bincount(rng.integers(0, n, size=n), minlength=n)
            trees.append(DecisionTreeClassifier(
                max_depth=self.max_depth,
                criterion=self.criterion,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            ))
        grow_forest(trees, X, y, weights)
        self.trees_ = trees
        importances = np.zeros(X.shape[1])
        for tree in self.trees_:
            # Trees may have seen a label subset; align importance directly
            # (importances are per-feature, label-independent).
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Average of the trees' leaf distributions over ``classes_``."""
        with get_metrics().span("ml.forest.predict"):
            return self._predict_proba(X)

    def _predict_proba(self, X) -> np.ndarray:
        self._require_fitted("trees_")
        X, _ = check_Xy(X)
        if self._table is None:
            self._table = NodeTable(self.trees_, self.classes_)
        return self._table.predict_proba(X)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def gini_importance(self) -> np.ndarray:
        """Alias matching the paper's Table 3 terminology."""
        self._require_fitted("feature_importances_")
        return self.feature_importances_

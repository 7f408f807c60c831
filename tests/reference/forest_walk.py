"""Per-tree inference as ``repro.ml`` did it before the node table.

A tree predicted by walking each row from the root to its leaf and
normalising the leaf's class histogram; a forest summed its trees'
distributions in tree order, each aligned to the forest's classes, then
divided by the tree count.  The compiled ``NodeTable`` must reproduce
these bit for bit.
"""

import numpy as np


def leaf_counts(tree, row: np.ndarray) -> np.ndarray:
    """Class histogram of the leaf ``row`` lands in."""
    node = tree.root_
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.class_counts


def tree_proba(tree, X: np.ndarray) -> np.ndarray:
    """Leaf distribution per row over ``tree.classes_``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty((X.shape[0], len(tree.classes_)))
    # An empty leaf (all-zero histogram) yields a NaN row.
    with np.errstate(invalid="ignore", divide="ignore"):
        for i, row in enumerate(X):
            counts = leaf_counts(tree, row)
            out[i] = counts / counts.sum()
    return out


def forest_proba(forest, X: np.ndarray) -> np.ndarray:
    """Tree-order sum of aligned per-tree distributions over the tree count."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros((X.shape[0], len(forest.classes_)))
    class_index = {c: i for i, c in enumerate(forest.classes_)}
    for tree in forest.trees_:
        proba = tree_proba(tree, X)
        for j, cls in enumerate(tree.classes_):
            out[:, class_index[cls]] += proba[:, j]
    out /= len(forest.trees_)
    return out

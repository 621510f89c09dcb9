"""Random forest over fusion feature vectors, built from scratch.

Plain CART trees on bootstrap samples: Gini-impurity splits over a random
feature subset (floor(sqrt(n_features)) = 2 of the 5), grown until nodes
are pure or too small. Trees are stored as parallel node arrays so models
serialize to explicit JSON and evaluate without recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NUM_FEATURES", "DEFAULT_TREE_COUNT", "DecisionTree", "ForestModel", "train_forest", "classify"]

NUM_FEATURES = 5
DEFAULT_TREE_COUNT = 50


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Binary tree as parallel arrays; node 0 is the root.

    Internal nodes carry (feature, threshold, left, right) and leaf_class
    -1; leaves carry leaf_class 0/1 and -1 elsewhere. An internal node's
    children have larger indices than the node. Samples with feature value
    <= threshold go left.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=int))
        object.__setattr__(self, "threshold", np.asarray(self.threshold, dtype=float))
        object.__setattr__(self, "left", np.asarray(self.left, dtype=int))
        object.__setattr__(self, "right", np.asarray(self.right, dtype=int))
        object.__setattr__(self, "leaf_class", np.asarray(self.leaf_class, dtype=int))
        n = self.feature.size
        if n == 0 or not all(a.size == n for a in (self.threshold, self.left, self.right, self.leaf_class)):
            raise ValueError("node arrays must have equal length and at least one node")
        if np.abs(self.leaf_class).max() > 1:
            raise ValueError("leaf_class must be -1 (internal), 0 or 1")
        node = np.flatnonzero(self.leaf_class < 0)
        if node.size:
            feature = self.feature[node]
            if feature.min() < 0 or feature.max() >= NUM_FEATURES:
                raise ValueError("internal node with out-of-range feature index")
            # Children lie after their node and inside the tree, as _TreeBuilder
            # lays them out, so every descent ends at a leaf of this tree.
            children = np.array((self.left[node], self.right[node]))
            if (children <= node).any() or children.max() >= n:
                raise ValueError("internal node with a child not after it inside the tree")

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "leaf_class": self.leaf_class.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        return cls(d["feature"], d["threshold"], d["left"], d["right"], d["leaf_class"])


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Bagged decision trees with majority-vote classification."""

    trees: tuple[DecisionTree, ...]
    tree_count: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if self.tree_count < 1:
            raise ValueError("a forest needs at least one tree")
        if len(self.trees) != self.tree_count:
            raise ValueError("tree_count must match the number of trees")

    def to_dict(self) -> dict:
        return {
            "tree_count": self.tree_count,
            "seed": self.seed,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ForestModel":
        return cls(tuple(DecisionTree.from_dict(t) for t in d["trees"]), d["tree_count"], d["seed"])


def _gini_costs(sorted_labels: np.ndarray) -> np.ndarray:
    """Weighted Gini impurity for every split position of a sorted node."""
    n = sorted_labels.size
    ones = np.cumsum(sorted_labels)
    left_n = np.arange(1, n)
    right_n = n - left_n
    left_ones = ones[:-1]
    right_ones = ones[-1] - left_ones
    p_l = left_ones / left_n
    p_r = right_ones / right_n
    gini_l = 1.0 - p_l**2 - (1.0 - p_l) ** 2
    gini_r = 1.0 - p_r**2 - (1.0 - p_r) ** 2
    return (left_n * gini_l + right_n * gini_r) / n


class _TreeBuilder:
    def __init__(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator, n_split_features: int):
        self.X = X
        self.y = y
        self.rng = rng
        self.n_split_features = n_split_features
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf_class: list[int] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_class.append(-1)
        return len(self.feature) - 1

    def _make_leaf(self, node: int, labels: np.ndarray) -> None:
        # Majority class; exact ties resolve to non-shot.
        self.leaf_class[node] = int(np.sum(labels) * 2 > labels.size)

    def build(self, indices: np.ndarray) -> int:
        # Iterative preorder so degenerate trees cannot hit the recursion limit.
        root = self._new_node()
        stack = [(indices, root)]
        while stack:
            node_indices, node = stack.pop()
            labels = self.y[node_indices]
            if node_indices.size < 2 or np.all(labels == labels[0]):
                self._make_leaf(node, labels)
                continue

            n_feats = self.X.shape[1]
            chosen = self.rng.choice(n_feats, size=min(self.n_split_features, n_feats), replace=False)
            best = None  # (cost, feature, threshold, order, split_pos)
            for f in chosen:
                values = self.X[node_indices, f]
                order = np.argsort(values, kind="stable")
                xs = values[order]
                valid = xs[1:] > xs[:-1]
                if not np.any(valid):
                    continue
                costs = _gini_costs(self.y[node_indices[order]])
                costs = np.where(valid, costs, np.inf)
                pos = int(np.argmin(costs))
                if best is None or costs[pos] < best[0]:
                    thr = 0.5 * (xs[pos] + xs[pos + 1])
                    best = (float(costs[pos]), int(f), thr, order, pos)

            if best is None:
                self._make_leaf(node, labels)
                continue

            _, f, thr, order, pos = best
            self.feature[node] = f
            self.threshold[node] = thr
            left = self._new_node()
            right = self._new_node()
            self.left[node] = left
            self.right[node] = right
            # Push right first so the left subtree is laid out next (preorder).
            stack.append((node_indices[order[pos + 1 :]], right))
            stack.append((node_indices[order[: pos + 1]], left))
        return root

    def tree(self) -> DecisionTree:
        return DecisionTree(self.feature, self.threshold, self.left, self.right, self.leaf_class)


def train_forest(X, y, tree_count: int = DEFAULT_TREE_COUNT, seed: int = 0) -> ForestModel:
    """Fit a forest on a (n, 5) feature matrix X and 0/1 labels y.

    Each tree sees a bootstrap sample of the full training size; splits
    consider 2 random features. Per-tree generators derive deterministically
    from the root seed, so results are reproducible (and trees could be
    trained in parallel without changing the model).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("no training candidates")
    if y.shape != (X.shape[0],):
        raise ValueError("need one label per candidate")
    if np.all(y == y[0]):
        raise ValueError("degenerate training set")

    n = X.shape[0]
    n_split = max(1, int(np.sqrt(X.shape[1])))
    trees = []
    for k in range(tree_count):
        rng = np.random.default_rng([seed, k])
        sample = rng.integers(0, n, size=n)
        builder = _TreeBuilder(X[sample], y[sample], rng, n_split)
        builder.build(np.arange(n))
        trees.append(builder.tree())
    return ForestModel(tuple(trees), tree_count, seed)


def classify(model: ForestModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Majority vote over the trees for every row of the (n, 5) matrix X.

    Returns (labels, scores) arrays where a score is the fraction of trees
    voting shot; an exact tie counts as non-shot. All (row, tree) pairs
    descend together, one tree level per step, on the trees' node arrays
    laid end to end (batched traversal, cf. Lucchese et al., QuickScorer,
    SIGIR 2015).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != NUM_FEATURES:
        raise ValueError(f"expected an (n, {NUM_FEATURES}) feature matrix")
    trees = model.trees
    sizes = [t.feature.size for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left + r for t, r in zip(trees, roots)])
    right = np.concatenate([t.right + r for t, r in zip(trees, roots)])
    leaf_class = np.concatenate([t.leaf_class for t in trees])

    node = np.tile(roots, X.shape[0])  # pair p = row p // n_trees, tree p % n_trees
    row = np.repeat(np.arange(X.shape[0]), len(trees))
    pending = np.flatnonzero(leaf_class[node] < 0)
    while pending.size:
        at = node[pending]
        go_left = X[row[pending], feature[at]] <= threshold[at]
        node[pending] = np.where(go_left, left[at], right[at])
        pending = pending[leaf_class[node[pending]] < 0]
    votes = leaf_class[node].reshape(X.shape[0], len(trees)).sum(axis=1)
    scores = votes / model.tree_count
    return (scores > 0.5).astype(int), scores

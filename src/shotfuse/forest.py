"""Random forest over fusion feature vectors, built from scratch.

Plain CART trees on bootstrap samples: Gini-impurity splits over a random
feature subset (floor(sqrt(n_features)) = 2 of the 5), grown until nodes
are pure or too small. All trees of a forest grow in lockstep, one node
per tree at a time (_LockstepForest). A forest is one node table: the
five node arrays of all its trees laid end to end, plus each tree's node
count. ForestModel has one constructor, which training and loading call
with the whole table and which checks it in one vectorized pass; votes
descend it without recursion, and its trees are one-tree forests viewing
their stretch of it. forest.json holds this table as it is: the seed,
sizes and the five node arrays, each flat. dataio alone writes and reads
it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .series import freeze, freeze_in_place

__all__ = [
    "NUM_FEATURES",
    "DEFAULT_TREE_COUNT",
    "NODE_FIELDS",
    "ForestModel",
    "check_integer",
    "check_seed",
    "train_forest",
    "classify",
]

NUM_FEATURES = 5
DEFAULT_TREE_COUNT = 50
#: A forest's node arrays, in the order ForestModel takes them.
NODE_FIELDS = ("feature", "threshold", "left", "right", "leaf_class")


def _check_nodes(feature, threshold, left, right, leaf_class, sizes) -> None:
    """Raise ValueError unless the node arrays hold whole trees of sizes[t] nodes laid end to end.

    There must be at least one tree, and every tree needs at least one
    node. Internal nodes carry leaf_class -1 and leaves 0 or 1. An internal
    node's feature indexes a feature vector, and its children, counted from
    its tree's root, lie after it and inside its tree, so every descent ends
    at a leaf of the same tree.
    """
    if sizes.ndim != 1 or not sizes.size:
        raise ValueError("a forest needs at least one tree")
    nodes = (feature, threshold, left, right, leaf_class)
    # No size past the arrays, so the int64 sum of sizes cannot wrap round to their length.
    if sizes.min() < 1 or sizes.max() > feature.size or any(a.shape != (sizes.sum(),) for a in nodes):
        raise ValueError("node arrays must have equal length and at least one node")
    if ((leaf_class < -1) | (leaf_class > 1)).any():
        raise ValueError("leaf_class must be -1 (internal), 0 or 1")
    node = np.flatnonzero(leaf_class < 0)
    if node.size:
        at = feature[node]
        if at.min() < 0 or at.max() >= NUM_FEATURES:
            raise ValueError("internal node with out-of-range feature index")
        end = sizes.cumsum()
        tree = end.searchsorted(node, side="right")
        number = node - (end - sizes)[tree]
        children = np.array((left[node], right[node]))
        if (children <= number).any() or (children >= sizes[tree]).any():
            raise ValueError("internal node with a child not after it inside the tree")


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Bagged decision trees with majority-vote classification, as one node table.

    feature, threshold, left, right and leaf_class hold every tree's node
    arrays laid end to end, tree after tree; sizes[t] is tree t's node
    count. Within a tree, nodes are numbered from its root, 0. Internal
    nodes carry (feature, threshold, left, right), with children numbered
    after them, and leaf_class -1; leaves carry leaf_class 0/1 and -1
    elsewhere. Samples with feature value <= threshold go left. The
    constructor takes the arrays through series.freeze as int64 (thresholds
    as float), so it adopts frozen ones and copies the rest, and checks
    them; the seed must be a non-negative integer and is stored as an int.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray
    sizes: np.ndarray
    seed: int

    def __post_init__(self):
        fields = NODE_FIELDS + ("sizes",)
        for name in fields:
            object.__setattr__(self, name, freeze(getattr(self, name), float if name == "threshold" else np.int64))
        _check_nodes(*(getattr(self, name) for name in fields))
        object.__setattr__(self, "seed", check_seed(self.seed))

    @property
    def tree_count(self) -> int:
        return self.sizes.size

    @property
    def trees(self) -> tuple[ForestModel, ...]:
        """Every tree as a one-tree forest viewing its stretch of the table."""
        nodes = [np.split(getattr(self, name), self.sizes.cumsum()[:-1]) for name in NODE_FIELDS]
        return tuple(ForestModel(*tree, [tree[0].size], self.seed) for tree in zip(*nodes))


def _ranges(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """np.arange(f, f + l) for every (f, l) pair, concatenated."""
    end = length.cumsum()
    return np.arange(end[-1]) + (first - end + length).repeat(length)


#: Distinct rows of the nodes split in one block (a larger node is a block of
#: its own). Up to this size every array a block makes (its nodes' slots for
#: the drawn features, or for all 5) stays under 128 KB, which glibc's malloc
#: serves from its heap; it maps fresh pages for each larger one, and numpy
#: ops on int64 arrays of 16k elements and more cost about three times as
#: much per element for it.
_BLOCK_ROWS = 2048


class _LockstepForest:
    """CART trees on bootstrap samples, one per generator, grown in lockstep.

    counts[t, i] is how often row i occurs in tree t's bootstrap. Each tree
    keeps a DFS stack of the nodes that still need a split. Every step pops
    the top node of each unfinished tree and draws its features from that
    tree's generator, so each tree sees its draws and numbers its nodes in
    its own preorder; then blocks of the popped nodes are split together,
    one pass scoring every split point of a block's (node, feature) pairs.

    A node owns the slot range [first, first + distinct) in every row of a
    (feature, slot) table: in feature f's row the range holds the node's
    distinct rows, as keys tree * n + row, in ascending value of f. A split
    partitions the range stably in every row, left rows first. Split points
    lie between slots of different value, so the counts left of a point,
    its Gini cost, the first minimum and the midpoint threshold do not
    depend on how equal values are ordered.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, rngs: list, counts: np.ndarray, n_draw: int):
        n, k = X.shape
        n_trees = len(rngs)
        self.n, self.k, self.n_draw, self.rngs = n, k, n_draw, rngs
        self.values = X.T.ravel()
        self.weight = counts.ravel()
        self.weight_ones = (counts * y).ravel()
        present = self.weight > 0
        self.slots = int(present.sum())
        self.table = np.empty(k * self.slots, dtype=np.int64)
        tree_start = np.arange(0, n_trees * n, n)[:, None]
        for f, order in enumerate(np.argsort(X.T, axis=1)):
            keys = (tree_start + order).ravel()
            self.table[f * self.slots : (f + 1) * self.slots] = keys.compress(present[keys])
        self.goes_right = np.zeros(n_trees * n, dtype=bool)

        # Node g, in creation order, is nodes[g] = (tree, number in its tree, first slot,
        # distinct rows, rows, positive rows); the arrays grow as nodes are made.
        capacity = 8 * n_trees
        self.nodes = np.empty((capacity, 6), dtype=np.int64)
        self.leaf_class = np.empty(capacity, dtype=np.int64)  # -1 once a node splits or while it waits
        self.feature = np.empty(capacity, dtype=np.int64)
        self.left = np.empty(capacity, dtype=np.int64)
        self.threshold = np.empty(capacity)
        distinct = present.reshape(n_trees, n).sum(axis=1)
        ones = self.weight_ones.reshape(n_trees, n).sum(axis=1)
        self.nodes[:n_trees] = np.stack(
            (np.arange(n_trees), np.zeros_like(ones), distinct.cumsum() - distinct, distinct, np.full(n_trees, n), ones),
            axis=1,
        )
        self.leaf_class[:n_trees] = np.where((ones == 0) | (ones == n), ones > 0, -1)
        self.stacks = [[t] if self.leaf_class[t] < 0 else [] for t in range(n_trees)]
        self.node_count = np.ones(n_trees, dtype=np.int64)
        self.top = n_trees

    def _make_room(self, count: int) -> None:
        """Grow the per-node arrays, to twice what they must hold, when count more nodes do not fit."""
        if self.top + count > self.threshold.size:
            size = 2 * (self.top + count)
            self.nodes, self.leaf_class, self.feature, self.left, self.threshold = (
                np.concatenate((a[: self.top], np.empty((size - self.top,) + a.shape[1:], dtype=a.dtype)))
                for a in (self.nodes, self.leaf_class, self.feature, self.left, self.threshold)
            )

    def grow(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Step until every stack is empty, then return the node table and the tree sizes."""
        stacks, rngs = self.stacks, self.rngs
        live = [t for t in range(len(stacks)) if stacks[t]]
        while live:
            popped = [stacks[t].pop() for t in live]
            draws = [rngs[t].choice(self.k, size=self.n_draw, replace=False) for t in live]
            begin = block_rows = 0
            for i, size in enumerate(self.nodes[popped, 3].tolist()):
                if block_rows and block_rows + size > _BLOCK_ROWS:
                    self._split(popped[begin:i], draws[begin:i])
                    begin, block_rows = i, 0
                block_rows += size
            self._split(popped[begin:], draws[begin:])
            live = [t for t in live if stacks[t]]
        return self._table()

    def _split(self, popped: list, draws: list) -> None:
        """Split or close each popped node (of distinct trees) on its drawn features."""
        n, k, n_draw = self.n, self.k, self.n_draw
        popped = np.array(popped)
        pair_feature = np.concatenate(draws)
        pair_tree, _, pair_first, pair_len, pair_rows, pair_ones = self.nodes[popped.repeat(n_draw)].T

        # Every (node, feature) pair's slots, concatenated pair after pair, with the rows and
        # positive rows up to each slot counted from the pair's start.
        pair_end = pair_len.cumsum()
        pair_begin = pair_end - pair_len
        at_key = self.table[np.arange(pair_end[-1]) + (pair_feature * self.slots + pair_first - pair_begin).repeat(pair_len)]
        v = self.values[at_key + ((pair_feature - pair_tree) * n).repeat(pair_len)]
        w = self.weight[at_key]
        w[pair_begin[1:]] -= pair_rows[:-1]
        cum_rows = w.cumsum()
        w = self.weight_ones[at_key]
        w[pair_begin[1:]] -= pair_ones[:-1]
        cum_ones = w.cumsum()

        # Split points: the last slot of a run of equal values inside a pair.
        valid = np.empty(v.size, dtype=bool)
        np.less(v[:-1], v[1:], out=valid[:-1])
        valid[pair_end - 1] = False
        j = valid.nonzero()[0]
        valid_end = j.searchsorted(pair_end)
        valid_len = valid_end - np.concatenate(([0], valid_end[:-1]))
        q = np.arange(pair_len.size).repeat(valid_len)
        n_j = pair_rows[q]
        left_n = cum_rows[j]
        left_ones = cum_ones[j]
        right_n = n_j - left_n
        p_l = left_ones / left_n
        p_r = (pair_ones[q] - left_ones) / right_n
        gini_l = 1.0 - p_l**2 - (1.0 - p_l) ** 2
        gini_r = 1.0 - p_r**2 - (1.0 - p_r) ** 2
        costs = (left_n * gini_l + right_n * gini_r) / n_j

        # The first minimum of each pair; of each node, the first drawn feature with the lowest.
        best_cost = np.full(pair_len.size, np.inf)
        best_at = np.zeros(pair_len.size, dtype=np.int64)
        has = valid_len > 0
        if j.size:
            starts = (valid_end - valid_len)[has]
            lowest = np.minimum.reduceat(costs, starts)
            hit = (costs == lowest.repeat(valid_len[has])).nonzero()[0]
            best_cost[has] = lowest
            best_at[has] = j[hit[hit.searchsorted(starts)]]
        pick = best_cost.reshape(-1, n_draw).argmin(axis=1) + np.arange(0, pair_len.size, n_draw)
        split = best_cost[pick] < np.inf
        # A node without a split point is a leaf of its majority class; exact ties go to non-shot.
        self.leaf_class[popped] = np.where(split, -1, pair_ones[::n_draw] * 2 > pair_rows[::n_draw])
        pick = pick[split]
        if not pick.size:
            return
        popped = popped[split]
        pos = best_at[pick]
        tree, first, size, rows, ones = pair_tree[pick], pair_first[pick], pair_len[pick], pair_rows[pick], pair_ones[pick]
        n_left = pos + 1 - pair_begin[pick]
        number = self.node_count[tree]
        self.node_count[tree] += 2
        self.feature[popped] = pair_feature[pick]
        self.threshold[popped] = 0.5 * (v[pos] + v[pos + 1])
        self.left[popped] = number

        # Stable partition of the split nodes' slots in every feature's row: left rows first.
        right_keys = at_key[_ranges(pos + 1, size - n_left)]
        self.goes_right[right_keys] = True
        by_feature = self.table.reshape(k, self.slots)
        moved = by_feature.take(_ranges(first, size), axis=1)
        right = self.goes_right[moved].ravel()
        self.goes_right[right_keys] = False
        by_feature[:, np.concatenate((_ranges(first, n_left), _ranges(first + n_left, size - n_left)))] = np.concatenate(
            (moved.compress(~right).reshape(k, -1), moved.compress(right).reshape(k, -1)), axis=1
        )

        # Children, left ones then right ones. A pure child is a leaf; the others go on
        # their tree's stack, the right child under the left one.
        l_rows, l_ones = cum_rows[pos], cum_ones[pos]
        children = np.array(
            [
                [tree, number, first, n_left, l_rows, l_ones],
                [tree, number + 1, first + n_left, size - n_left, rows - l_rows, ones - l_ones],
            ]
        ).transpose(0, 2, 1).reshape(-1, 6)
        self._make_room(children.shape[0])
        top = self.top
        self.top += children.shape[0]
        self.nodes[top : self.top] = children
        ones, rows = children[:, 5], children[:, 4]
        pure = (ones == 0) | (ones == rows)
        self.leaf_class[top : self.top] = np.where(pure, ones > 0, -1)
        waiting = (~pure).nonzero()[0][::-1]
        for t, g in zip(children[waiting, 0].tolist(), (waiting + top).tolist()):
            self.stacks[t].append(g)

    def _table(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Every tree's nodes laid out by their number in the tree, tree after tree, and each tree's size."""
        top, node_count = self.top, self.node_count
        at = (node_count.cumsum() - node_count)[self.nodes[:top, 0]] + self.nodes[:top, 1]
        leaf_class = self.leaf_class[:top]
        internal = leaf_class < 0
        feature, left, right, leaf = (np.empty(top, dtype=np.int64) for _ in range(4))
        threshold = np.empty(top)
        feature[at] = np.where(internal, self.feature[:top], -1)
        threshold[at] = np.where(internal, self.threshold[:top], 0.0)
        left[at] = np.where(internal, self.left[:top], -1)
        right[at] = np.where(internal, self.left[:top] + 1, -1)
        leaf[at] = leaf_class
        return [freeze_in_place(a) for a in (feature, threshold, left, right, leaf)], freeze_in_place(node_count)


def check_integer(value, name: str) -> int:
    """value as an int; anything else is rejected by name, a bool too (json.load's true and false)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """seed as an int; a non-integer or negative seed is rejected by name, before numpy sees it.

    SynthConfig, TrainConfig, ForestModel, train_forest and the
    train-forest workflow all check their seed here.
    """
    seed = check_integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def train_forest(X, y, tree_count: int = DEFAULT_TREE_COUNT, seed: int = 0) -> ForestModel:
    """Fit a forest on a (n, 5) feature matrix X and 0/1 labels y.

    Each tree sees a bootstrap sample of the full training size; splits
    consider 2 random features. Per-tree generators derive deterministically
    from the root seed, so results are reproducible: each tree is the one a
    per-node builder would grow from its own generator, whichever order the
    trees grow in.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or 0 in X.shape:
        raise ValueError("no training candidates")
    if y.shape != (X.shape[0],):
        raise ValueError("need one label per candidate")
    bad_rows = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad_rows.size:
        raise ValueError(f"features must not be infinite or NaN, found in row {bad_rows[0]}")
    other = y[(y != 0) & (y != 1)]
    if other.size:
        raise ValueError(f"labels must be 0 or 1, found {other[0]}")
    y = y.astype(int)
    if np.all(y == y[0]):
        raise ValueError("degenerate training set")
    if check_integer(tree_count, "tree_count") < 1:
        raise ValueError("a forest needs at least one tree")
    seed = check_seed(seed)

    n = X.shape[0]
    rngs = [np.random.default_rng([seed, k]) for k in range(tree_count)]
    counts = np.array([np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs])
    n_draw = max(1, int(np.sqrt(X.shape[1])))
    nodes, sizes = _LockstepForest(X, y, rngs, counts, n_draw).grow()
    return ForestModel(*nodes, sizes, seed)


#: Rows of X whose (row, tree) pairs classify descends together: its index
#: arrays hold CLASSIFY_ROWS * tree-count entries, however many rows X has.
CLASSIFY_ROWS = 256


def classify(model: ForestModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Majority vote over the trees for every row of the (n, 5) matrix X.

    Returns (labels, scores) arrays where a score is the fraction of trees
    voting shot; an exact tie counts as non-shot. The (row, tree) pairs of
    each block of CLASSIFY_ROWS rows descend together, one tree level per
    step, on the forest's node table (block-wise batched traversal, cf.
    Lucchese et al., QuickScorer, SIGIR 2015); a vote is per row, so the
    blocks do not change it.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != NUM_FEATURES:
        raise ValueError(f"expected an (n, {NUM_FEATURES}) feature matrix")
    sizes = model.sizes
    roots = sizes.cumsum() - sizes
    base = roots.repeat(sizes)  # each node's tree root in the table
    feature, threshold, leaf_class = model.feature, model.threshold, model.leaf_class
    left = model.left + base
    right = model.right + base

    votes = np.empty(X.shape[0], dtype=leaf_class.dtype)
    for lo in range(0, X.shape[0], CLASSIFY_ROWS):
        rows = X[lo : lo + CLASSIFY_ROWS]
        node = np.tile(roots, rows.shape[0])  # pair p = row p // n_trees, tree p % n_trees
        row = np.repeat(np.arange(rows.shape[0]), sizes.size)
        pending = np.flatnonzero(leaf_class[node] < 0)
        while pending.size:
            at = node[pending]
            go_left = rows[row[pending], feature[at]] <= threshold[at]
            node[pending] = np.where(go_left, left[at], right[at])
            pending = pending[leaf_class[node[pending]] < 0]
        votes[lo : lo + rows.shape[0]] = leaf_class[node].reshape(rows.shape[0], sizes.size).sum(axis=1)
    scores = votes / model.tree_count
    return (scores > 0.5).astype(int), scores

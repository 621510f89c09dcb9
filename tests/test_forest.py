import json
from collections import Counter

import numpy as np
import pytest

from shotfuse import ForestModel, classify, train_forest
from shotfuse.dataio import load_forest_model, save_forest_model
from shotfuse.forest import NODE_FIELDS
from shotfuse.series import freeze_in_place


def classify_one(model, features):
    """(label, score) of a single feature vector."""
    labels, scores = classify(model, np.asarray(features, dtype=float)[None, :])
    return int(labels[0]), float(scores[0])


def separable_dataset(rng, n=60):
    """Class decided by feature 0 alone: below 1 or above 2."""
    rows = []
    labels = []
    for _ in range(n):
        if rng.random() < 0.5:
            f0 = rng.uniform(-1.0, 1.0)
            label = 0
        else:
            f0 = rng.uniform(2.0, 4.0)
            label = 1
        rest = rng.uniform(-1.0, 1.0, 4)
        rows.append(np.r_[f0, rest])
        labels.append(label)
    return np.array(rows), np.array(labels)


def test_forest_fits_separable_data(rng):
    X, y = separable_dataset(rng)
    model = train_forest(X, y, tree_count=20, seed=1)
    for x, label in zip(X, y):
        assert classify_one(model, x)[0] == label


def test_forest_rejects_single_class(rng):
    with pytest.raises(ValueError, match="degenerate training set"):
        train_forest(rng.standard_normal((10, 5)), np.ones(10, dtype=int), tree_count=5, seed=0)


def same_forest(a, b) -> bool:
    """Whether two forests hold equal node arrays and tree sizes, values and dtype, and the same seed."""
    return a.seed == b.seed and all(
        getattr(a, name).dtype == getattr(b, name).dtype and np.array_equal(getattr(a, name), getattr(b, name))
        for name in NODE_FIELDS + ("sizes",)
    )


def tree(feature, threshold, left, right, leaf_class):
    """A hand-made tree as a one-tree forest."""
    return ForestModel(feature, threshold, left, right, leaf_class, [len(feature)], seed=0)


def forest_of(trees, seed=0):
    """The forest whose node table lays the one-tree forests trees end to end."""
    trees = tuple(trees)
    nodes = (np.concatenate([getattr(t, name) for t in trees]) for name in NODE_FIELDS)
    return ForestModel(*nodes, [t.feature.size for t in trees], seed)


def leaf(cls):
    return tree([-1], [0.0], [-1], [-1], [cls])


def stump(feature, threshold, left_cls, right_cls):
    return tree(
        [feature, -1, -1],
        [threshold, 0.0, 0.0],
        [1, -1, -1],
        [2, -1, -1],
        [-1, left_cls, right_cls],
    )


def test_hand_built_three_tree_majority():
    model = forest_of((stump(0, 1.0, 0, 1), stump(1, 0.5, 1, 0), leaf(1)))
    # votes: feature0=2 -> tree1 votes 1; feature1=0.2 -> tree2 votes 1; leaf votes 1
    label, score = classify_one(model, [2.0, 0.2, 0, 0, 0])
    assert (label, score) == (1, 1.0)
    # votes: tree1 0, tree2 0, leaf 1 -> minority
    label, score = classify_one(model, [0.5, 0.9, 0, 0, 0])
    assert label == 0
    assert score == pytest.approx(1.0 / 3.0)


def test_classify_unanimous_and_tie():
    all_shot = forest_of((leaf(1), leaf(1)))
    assert classify_one(all_shot, np.zeros(5)) == (1, 1.0)
    split = forest_of((leaf(1), leaf(0)))
    label, score = classify_one(split, np.zeros(5))
    assert (label, score) == (0, 0.5)  # exact tie counts as non-shot


def test_twenty_of_fifty_votes():
    trees = tuple(leaf(1) for _ in range(20)) + tuple(leaf(0) for _ in range(30))
    model = forest_of(trees)
    label, score = classify_one(model, np.zeros(5))
    assert (label, score) == (0, 0.4)


def manual_traverse(tree, x):
    node = 0
    while tree.leaf_class[node] < 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return int(tree.leaf_class[node])


def test_vote_majority_consistency_property(rng):
    X, y = separable_dataset(rng, n=40)
    model = train_forest(X, y, tree_count=9, seed=3)
    for _ in range(100):
        x = rng.uniform(-2.0, 5.0, 5)
        votes = [manual_traverse(t, x) for t in model.trees]
        label, score = classify_one(model, x)
        assert score == pytest.approx(sum(votes) / 9.0)
        assert label == (1 if score > 0.5 else 0)
        assert score in {k / 9.0 for k in range(10)}


def test_forest_deterministic_given_seed(rng):
    X, y = separable_dataset(rng)
    a = train_forest(X, y, tree_count=10, seed=7)
    b = train_forest(X, y, tree_count=10, seed=7)
    assert same_forest(a, b)
    c = train_forest(X, y, tree_count=10, seed=8)
    assert not same_forest(c, a)


def test_forest_serialization_round_trip(rng, tmp_path):
    X, y = separable_dataset(rng, n=30)
    model = train_forest(X, y, tree_count=5, seed=2)
    save_forest_model(tmp_path / "forest.json", model)
    rebuilt = load_forest_model(tmp_path / "forest.json")
    for _ in range(50):
        x = rng.uniform(-2.0, 5.0, 5)
        assert classify_one(rebuilt, x) == classify_one(model, x)


def test_forest_takes_its_node_arrays_as_read_only_int64_and_float():
    model = stump(0, 1, 0, 1)
    for name in ("feature", "left", "right", "leaf_class", "sizes"):
        assert getattr(model, name).dtype == np.int64
    assert model.threshold.dtype == float and model.threshold[0] == 1.0
    for name in NODE_FIELDS + ("sizes",):
        assert not getattr(model, name).flags.writeable
    # A frozen int64 array is taken as it is, not copied.
    left = freeze_in_place(np.array([1, -1, -1]))
    assert ForestModel([0, -1, -1], [1.0, 0.0, 0.0], left, [2, -1, -1], [-1, 0, 1], [3], seed=0).left is left


@pytest.mark.parametrize("alias", ["writeable array", "read-only view of a writeable array"])
def test_forest_copies_node_arrays_an_alias_can_write(alias):
    base = np.array([-1, 0, 1])
    given = base if alias == "writeable array" else base[:]
    given.flags.writeable = alias == "writeable array"
    model = ForestModel([0, -1, -1], [1.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1], given, [3], seed=0)
    assert not np.shares_memory(model.leaf_class, base) and not model.leaf_class.flags.writeable
    assert given.flags.writeable == (alias == "writeable array")  # the caller's flag is left as it was
    # A 7 written through the base after the checks does not reach the votes (it once scored 7.0).
    base[2] = 7
    assert classify_one(model, [2.0, 0.0, 0.0, 0.0, 0.0]) == (1, 1.0)


def test_tree_rejects_bad_feature_index():
    with pytest.raises(ValueError, match="feature index"):
        tree([7, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [-1, 0, 1])


def test_forest_needs_a_tree(rng):
    with pytest.raises(ValueError, match="at least one tree"):
        ForestModel([], [], [], [], [], [], seed=0)
    X, y = separable_dataset(rng, n=20)
    with pytest.raises(ValueError, match="at least one tree"):
        train_forest(X, y, tree_count=0, seed=0)


def test_a_numpy_integer_seed_trains_the_forest_of_its_int(rng, tmp_path):
    # An np.int64 seed used to fail inside json.dump, after the model file was opened and truncated.
    X, y = separable_dataset(rng, n=20)
    model = train_forest(X, y, tree_count=3, seed=np.int64(4))
    assert type(model.seed) is int
    save_forest_model(tmp_path / "numpy.json", model)
    save_forest_model(tmp_path / "int.json", train_forest(X, y, tree_count=3, seed=4))
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "int.json").read_bytes()
    assert load_forest_model(tmp_path / "numpy.json").seed == 4


def test_tree_rejects_a_child_that_is_its_node(tmp_path):
    with pytest.raises(ValueError, match="child not after it"):
        tree([0, -1, -1], [0.0, 0.0, 0.0], [0, -1, -1], [2, -1, -1], [-1, 0, 1])
    # The same tree read from a model file fails to load instead of looping in classify.
    path = tmp_path / "forest.json"
    save_forest_model(path, stump(0, 1.0, 0, 1))
    payload = json.loads(path.read_text())
    payload["right"][0] = 0
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="child not after it"):
        load_forest_model(path)


def test_tree_rejects_a_child_past_its_end():
    # Concatenated with a next tree, node 3 would be that tree's root.
    with pytest.raises(ValueError, match="child not after it"):
        tree([0, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1], [3, -1, -1], [-1, 0, 1])
    with pytest.raises(ValueError, match="at least one node"):
        tree([], [], [], [], [])


def test_tree_rejects_a_bad_leaf_class():
    with pytest.raises(ValueError, match="leaf_class"):
        tree([0, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [-1, 0, 2])
    with pytest.raises(ValueError, match="leaf_class"):
        tree([-1], [0.0], [-1], [-1], [-2])



def stump_nodes():
    return {"feature": [0, -1, -1], "threshold": [1.0, 0.0, 0.0], "left": [1, -1, -1], "right": [2, -1, -1],
            "leaf_class": [-1, 0, 1]}


def broken(**fields):
    return lambda: {**stump_nodes(), **fields}


#: Trees that fail to make a one-tree forest, each with its message.
MALFORMED_TREES = [
    (broken(threshold=[1.0, 0.0]), "node arrays must have equal length and at least one node"),
    (broken(leaf_class=[-1, 0, 1, 1]), "node arrays must have equal length and at least one node"),
    (lambda: {name: [] for name in stump_nodes()}, "node arrays must have equal length and at least one node"),
    (broken(leaf_class=[-1, 0, 2]), "leaf_class must be -1 \\(internal\\), 0 or 1"),
    (broken(leaf_class=[-2, 0, 1]), "leaf_class must be -1 \\(internal\\), 0 or 1"),
    (broken(feature=[5, -1, -1]), "internal node with out-of-range feature index"),
    (broken(feature=[-1, -1, -1]), "internal node with out-of-range feature index"),
    (broken(left=[0, -1, -1]), "internal node with a child not after it inside the tree"),
    (broken(right=[-1, -1, -1]), "internal node with a child not after it inside the tree"),
    # One past the end: laid end to end with a next tree, this child would be that tree's root.
    (broken(right=[3, -1, -1]), "internal node with a child not after it inside the tree"),
    (broken(left=[1, 2, -1], right=[2, 0, -1], leaf_class=[-1, -1, 1], feature=[0, 1, -1]),
     "internal node with a child not after it inside the tree"),
]


@pytest.mark.parametrize("make, message", MALFORMED_TREES)
@pytest.mark.parametrize("position", [2, 1, 0])
def test_loader_rejects_every_tree_the_tree_type_rejects(tmp_path, make, message, position):
    with pytest.raises(ValueError, match=f"^{message}$"):
        tree(**make())
    # The same defect in one tree of a 3-tree file; the last tree has no next tree to fall into.
    trees = [stump_nodes() for _ in range(3)]
    trees[position] = make()
    payload = {name: sum((t[name] for t in trees), []) for name in NODE_FIELDS}
    payload.update(sizes=[len(t["feature"]) for t in trees], seed=0)
    path = tmp_path / "forest.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^forest model: {message}$"):
        load_forest_model(path)


def test_trained_forest_round_trips_through_its_file(tmp_path):
    rng = np.random.default_rng(93)
    X, y = tied_dataset(rng, 600)
    model = train_forest(X, y, tree_count=50, seed=5)
    save_forest_model(tmp_path / "a.json", model)
    loaded = load_forest_model(tmp_path / "a.json")
    save_forest_model(tmp_path / "b.json", loaded)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    queries = np.concatenate((X, rng.uniform(-1.0, 4.0, (200, 5))))
    for got, want in zip(classify(loaded, queries), classify(model, queries)):
        assert np.array_equal(got, want)
    # The trees are one-tree forests viewing the table, and a forest rebuilt from them is the same table.
    assert [t.tree_count for t in loaded.trees] == [1] * 50
    rebuilt = forest_of(loaded.trees, loaded.seed)
    for name in ("feature", "threshold", "left", "right", "leaf_class", "sizes"):
        assert np.array_equal(getattr(rebuilt, name), getattr(model, name))
    assert all(np.shares_memory(t.threshold, loaded.threshold) for t in loaded.trees)


def random_tree(rng, values, max_depth):
    """A random tree in preorder whose thresholds come from values."""
    feature, threshold, left, right, leaf_class = [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_class.append(-1)
        if depth == max_depth or rng.random() < 0.3:
            leaf_class[node] = int(rng.integers(0, 2))
            return node
        feature[node] = int(rng.integers(0, 5))
        threshold[node] = float(rng.choice(values))
        left[node] = grow(depth + 1)
        right[node] = grow(depth + 1)
        return node

    grow(0)
    return tree(feature, threshold, left, right, leaf_class)


def test_batched_votes_match_per_tree_descent():
    rng = np.random.default_rng(29)
    values = np.array([-1.0, 0.0, 0.25, 0.5, 1.0])
    for _ in range(30):
        n_trees = int(rng.integers(1, 12))
        trees = tuple(random_tree(rng, values, int(rng.integers(0, 7))) for _ in range(n_trees))
        model = forest_of(trees)
        # Most cells equal some threshold, so "<= goes left" is exercised.
        X = rng.choice(values, size=(int(rng.integers(0, 40)), 5))
        X[rng.random(X.shape) < 0.3] += 0.1
        labels, scores = classify(model, X)
        assert labels.shape == scores.shape == (X.shape[0],)
        for x, label, score in zip(X, labels, scores):
            votes = sum(manual_traverse(t, x) for t in trees)
            assert score == votes / n_trees
            assert label == (1 if votes / n_trees > 0.5 else 0)


def test_classify_rejects_a_vector():
    with pytest.raises(ValueError, match="feature matrix"):
        classify(leaf(1), np.zeros(5))


# ---------------------------------------------------------------- reference builder


def _gini_costs(sorted_labels):
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


def _per_node_tree(X, y, rng, n_split, events):
    """One CART tree grown node by node in preorder: the reference for train_forest's trees."""
    feature, threshold, left, right, leaf_class = [], [], [], [], []

    def new_node():
        for column, default in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (leaf_class, -1)):
            column.append(default)
        return len(feature) - 1

    stack = [(np.arange(X.shape[0]), new_node())]
    while stack:
        node_indices, node = stack.pop()
        labels = y[node_indices]
        if node_indices.size < 2 or np.all(labels == labels[0]):
            events["single row" if node_indices.size < 2 else "single class"] += 1
            leaf_class[node] = int(np.sum(labels) * 2 > labels.size)
            continue
        n_feats = X.shape[1]
        chosen = rng.choice(n_feats, size=min(n_split, n_feats), replace=False)
        best = None  # (cost, feature, threshold, order, split_pos)
        for f in chosen:
            values = X[node_indices, f]
            order = np.argsort(values, kind="stable")
            xs = values[order]
            valid = xs[1:] > xs[:-1]
            if not np.any(valid):
                events["constant drawn feature"] += 1
                continue
            costs = np.where(valid, _gini_costs(y[node_indices[order]]), np.inf)
            pos = int(np.argmin(costs))
            if best is None or costs[pos] < best[0]:
                best = (float(costs[pos]), int(f), 0.5 * (xs[pos] + xs[pos + 1]), order, pos)
        if best is None:
            events["no split point"] += 1
            leaf_class[node] = int(np.sum(labels) * 2 > labels.size)
            continue
        _, f, thr, order, pos = best
        events["zero threshold"] += thr == 0.0
        feature[node], threshold[node] = f, thr
        left[node], right[node] = new_node(), new_node()
        stack.append((node_indices[order[pos + 1 :]], right[node]))
        stack.append((node_indices[order[: pos + 1]], left[node]))
    return tree(feature, threshold, left, right, leaf_class)


def per_node_forest(X, y, tree_count, seed):
    """The reference forest and a count of the node cases its trees met."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    n_split = max(1, int(np.sqrt(X.shape[1])))
    events = Counter()
    trees = []
    for k in range(tree_count):
        rng = np.random.default_rng([seed, k])
        sample = rng.integers(0, n, size=n)
        events["duplicate bootstrap rows"] += np.unique(sample).size < n
        trees.append(_per_node_tree(X[sample], y[sample], rng, n_split, events))
    return forest_of(trees, seed), events


def tied_dataset(rng, n):
    """Few distinct values per feature, a constant feature, and signed zeros.

    Feature 1 takes only 0.0 and -0.0 apart from a few 1.0s, so its split
    points sit next to zeros of either sign; feature 4 is constant. Labels
    follow feature 0 with noise, and a block of repeated rows carries both
    labels, so some nodes have rows but no split point.
    """
    X = np.empty((n, 5))
    X[:, 0] = rng.integers(0, 12, n) * 0.25
    X[:, 1] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    X[rng.random(n) < 0.1, 1] = 1.0
    X[:, 2] = np.round(rng.normal(0.0, 1.0, n), 1)
    X[:, 3] = rng.integers(-3, 4, n).astype(float)
    X[:, 4] = 2.5
    y = ((X[:, 0] + 0.3 * X[:, 3] + rng.normal(0.0, 0.6, n)) > 1.4).astype(int)
    X[: n // 10] = X[0]
    y[: n // 20] = 1 - y[0]
    return X, y


def assert_same_models(X, y, tree_count, seed, tmp_path):
    reference, events = per_node_forest(X, y, tree_count, seed)
    model = train_forest(X, y, tree_count, seed)
    assert same_forest(model, reference)
    save_forest_model(tmp_path / "lockstep.json", model)
    save_forest_model(tmp_path / "reference.json", reference)
    assert (tmp_path / "lockstep.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    return events


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_forest_equals_the_per_node_builder_on_tied_data(seed, tmp_path):
    rng = np.random.default_rng([91, seed])
    X, y = tied_dataset(rng, 720)
    events = assert_same_models(X, y, 50, seed, tmp_path)
    for case in ("duplicate bootstrap rows", "single row", "single class", "constant drawn feature",
                 "no split point", "zero threshold"):
        assert events[case] > 0, case


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_lockstep_forest_equals_the_per_node_builder_on_small_data(seed, tmp_path):
    rng = np.random.default_rng([92, seed])
    n = int(rng.integers(2, 40))
    X = rng.integers(0, 4, (n, 5)) * rng.choice([-0.0, 0.5], (n, 5))
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    assert_same_models(X, y, 1, seed, tmp_path)
    assert_same_models(X, y, 50, seed, tmp_path)


def test_lockstep_forest_equals_the_per_node_builder_on_continuous_data(rng, tmp_path):
    X, y = separable_dataset(rng, n=800)
    X[:, 3] = np.sin(np.arange(800))
    y[rng.random(800) < 0.1] ^= 1
    assert_same_models(X, y, 50, 11, tmp_path)
    assert_same_models(X, y, 1, 12, tmp_path)


def test_forest_rejects_labels_other_than_zero_and_one(rng):
    X, y = separable_dataset(rng, n=20)
    with pytest.raises(ValueError, match="labels must be 0 or 1, found -1"):
        train_forest(X, 2 * y - 1, tree_count=3, seed=0)
    y[5] = 2
    with pytest.raises(ValueError, match="labels must be 0 or 1, found 2"):
        train_forest(X, y, tree_count=3, seed=0)


def test_forest_rejects_nan_features(rng):
    X, y = separable_dataset(rng, n=20)
    X[7, 2] = np.nan
    with pytest.raises(ValueError, match="NaN, found in row 7"):
        train_forest(X, y, tree_count=3, seed=0)


@pytest.mark.parametrize("column, row", [([-np.inf, np.inf], 0), ([0.0, np.inf], 1)], ids=["both-signs", "positive"])
def test_forest_rejects_infinite_features(rng, column, row):
    # Used to grow a NaN or an infinite threshold, so that save_forest_model
    # wrote a model load_forest_model refuses.
    X, y = separable_dataset(rng, n=20)
    X[:, 1] = np.resize(column, 20)
    with pytest.raises(ValueError, match=f"^features must not be infinite or NaN, found in row {row}$"):
        train_forest(X, y, tree_count=3, seed=0)

import json

import numpy as np
import pytest

from shotfuse import ForestModel, classify, train_forest
from shotfuse.dataio import load_forest_model
from shotfuse.forest import DecisionTree


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


def leaf(cls):
    return DecisionTree([-1], [0.0], [-1], [-1], [cls])


def stump(feature, threshold, left_cls, right_cls):
    return DecisionTree(
        [feature, -1, -1],
        [threshold, 0.0, 0.0],
        [1, -1, -1],
        [2, -1, -1],
        [-1, left_cls, right_cls],
    )


def test_hand_built_three_tree_majority():
    model = ForestModel(
        (stump(0, 1.0, 0, 1), stump(1, 0.5, 1, 0), leaf(1)),
        tree_count=3,
        seed=0,
    )
    # votes: feature0=2 -> tree1 votes 1; feature1=0.2 -> tree2 votes 1; leaf votes 1
    label, score = classify_one(model, [2.0, 0.2, 0, 0, 0])
    assert (label, score) == (1, 1.0)
    # votes: tree1 0, tree2 0, leaf 1 -> minority
    label, score = classify_one(model, [0.5, 0.9, 0, 0, 0])
    assert label == 0
    assert score == pytest.approx(1.0 / 3.0)


def test_classify_unanimous_and_tie():
    all_shot = ForestModel((leaf(1), leaf(1)), tree_count=2, seed=0)
    assert classify_one(all_shot, np.zeros(5)) == (1, 1.0)
    split = ForestModel((leaf(1), leaf(0)), tree_count=2, seed=0)
    label, score = classify_one(split, np.zeros(5))
    assert (label, score) == (0, 0.5)  # exact tie counts as non-shot


def test_twenty_of_fifty_votes():
    trees = tuple(leaf(1) for _ in range(20)) + tuple(leaf(0) for _ in range(30))
    model = ForestModel(trees, tree_count=50, seed=0)
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
    assert a.to_dict() == b.to_dict()
    c = train_forest(X, y, tree_count=10, seed=8)
    assert c.to_dict() != a.to_dict()


def test_forest_serialization_round_trip(rng):
    X, y = separable_dataset(rng, n=30)
    model = train_forest(X, y, tree_count=5, seed=2)
    rebuilt = ForestModel.from_dict(model.to_dict())
    for _ in range(50):
        x = rng.uniform(-2.0, 5.0, 5)
        assert classify_one(rebuilt, x) == classify_one(model, x)


def test_tree_rejects_bad_feature_index():
    with pytest.raises(ValueError, match="feature index"):
        DecisionTree([7, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [-1, 0, 1])


def test_forest_needs_a_tree(rng):
    with pytest.raises(ValueError, match="at least one tree"):
        ForestModel((), tree_count=0, seed=0)
    X, y = separable_dataset(rng, n=20)
    with pytest.raises(ValueError, match="at least one tree"):
        train_forest(X, y, tree_count=0, seed=0)


def test_tree_rejects_a_child_that_is_its_node(tmp_path):
    with pytest.raises(ValueError, match="child not after it"):
        DecisionTree([0, -1, -1], [0.0, 0.0, 0.0], [0, -1, -1], [2, -1, -1], [-1, 0, 1])
    # The same tree read from a model file fails to load instead of looping in classify.
    payload = ForestModel((stump(0, 1.0, 0, 1),), tree_count=1, seed=0).to_dict()
    payload["trees"][0]["right"][0] = 0
    path = tmp_path / "forest.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="child not after it"):
        load_forest_model(path)


def test_tree_rejects_a_child_past_its_end():
    # Concatenated with a next tree, node 3 would be that tree's root.
    with pytest.raises(ValueError, match="child not after it"):
        DecisionTree([0, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1], [3, -1, -1], [-1, 0, 1])
    with pytest.raises(ValueError, match="at least one node"):
        DecisionTree([], [], [], [], [])


def test_tree_rejects_a_bad_leaf_class():
    with pytest.raises(ValueError, match="leaf_class"):
        DecisionTree([0, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [-1, 0, 2])
    with pytest.raises(ValueError, match="leaf_class"):
        DecisionTree([-1], [0.0], [-1], [-1], [-2])


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
    return DecisionTree(feature, threshold, left, right, leaf_class)


def test_batched_votes_match_per_tree_descent():
    rng = np.random.default_rng(29)
    values = np.array([-1.0, 0.0, 0.25, 0.5, 1.0])
    for _ in range(30):
        n_trees = int(rng.integers(1, 12))
        trees = tuple(random_tree(rng, values, int(rng.integers(0, 7))) for _ in range(n_trees))
        model = ForestModel(trees, tree_count=n_trees, seed=0)
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
        classify(ForestModel((leaf(1),), tree_count=1, seed=0), np.zeros(5))

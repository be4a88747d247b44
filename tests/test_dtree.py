import json
from bisect import bisect_left
from copy import deepcopy
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from wellmon import dtree
from wellmon.dtree import (
    PRE_PRUNING_SIZES,
    DecisionTree,
    PruningPath,
    TreeNode,
    ccp_path,
    cv_ccp_alpha,
    entropy,
    gini,
    grid_search,
    info_gain,
    pre_pruning_grid,
    weighted_child_impurity,
)
from wellmon.validation import cv_accuracy, stratified_kfold_indices

XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([0, 0, 1, 1])


# ---------------------------------------------------------------------------
# impurity measures
# ---------------------------------------------------------------------------

def test_gini_values():
    assert gini((5, 5)) == pytest.approx(0.5)
    assert gini((7, 0)) == 0.0
    assert gini((3, 1)) == pytest.approx(0.375)


def test_entropy_values():
    assert entropy((4, 4)) == pytest.approx(1.0)
    assert entropy((9, 0)) == 0.0
    assert entropy((3, 1)) == pytest.approx(0.8113, abs=1e-4)


def test_impurity_bounds(rng):
    for _ in range(100):
        counts = rng.integers(0, 50, size=2)
        if counts.sum() == 0:
            continue
        g = gini(counts)
        e = entropy(counts)
        assert 0.0 <= g <= 0.5
        assert 0.0 <= e <= 1.0
        pure = counts[0] == 0 or counts[1] == 0
        assert (g == 0.0) == pure
        assert (e == 0.0) == pure


def test_empty_node_rejected():
    with pytest.raises(ValueError):
        gini((0, 0))
    with pytest.raises(ValueError):
        entropy((0, 0))


def test_weighted_child_impurity():
    # class-isolating split
    assert weighted_child_impurity((4, 4), [(4, 0), (0, 4)], "gini") == 0.0
    # degenerate full/empty partition equals the parent impurity
    assert weighted_child_impurity((4, 4), [(4, 4), (0, 0)], "gini") == pytest.approx(
        gini((4, 4))
    )
    # hand value: (4,4) -> (3,1)/(1,3) under gini
    assert weighted_child_impurity((4, 4), [(3, 1), (1, 3)], "gini") == pytest.approx(
        0.375
    )
    with pytest.raises(ValueError, match="partition"):
        weighted_child_impurity((4, 4), [(3, 1), (2, 3)], "gini")


def test_info_gain():
    assert info_gain((4, 4), [(4, 0), (0, 4)]) == pytest.approx(1.0)
    assert info_gain((4, 4), [(2, 2), (2, 2)]) == pytest.approx(0.0)
    assert info_gain((4, 4), [(3, 1), (1, 3)]) == pytest.approx(
        1.0 - 0.8113, abs=1e-4
    )


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_separable_1d_depth_one():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    tree = DecisionTree().fit(X, y)
    assert tree.depth_ == 1
    assert np.array_equal(tree.predict(X), y)
    assert tree.root_.threshold == pytest.approx(6.0)  # midpoint of 2 and 10


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_xor_both_criteria(criterion):
    tree = DecisionTree(criterion=criterion).fit(XOR_X, XOR_Y)
    assert tree.depth_ == 2
    assert np.array_equal(tree.predict(XOR_X), XOR_Y)


def test_unrestricted_fit_reaches_full_train_accuracy(rng):
    # consistent data (continuous features, duplicates almost surely absent)
    X = rng.standard_normal((120, 3))
    y = (rng.random(120) > 0.5).astype(int)
    tree = DecisionTree().fit(X, y)
    assert np.mean(tree.predict(X) == y) == 1.0


def test_predict_routes_by_threshold():
    tree = DecisionTree().fit(XOR_X, XOR_Y)
    assert tree.predict(np.array([0.2, 0.1])) == 0
    assert tree.predict(np.array([0.2, 0.9])) == 1
    assert tree.predict(np.array([0.9, 0.1])) == 1


def test_pre_pruning_limits():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((100, 2))
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    shallow = DecisionTree(max_depth=2).fit(X, y)
    assert shallow.depth_ <= 2
    chunky = DecisionTree(min_samples_leaf=20).fit(X, y)
    assert _min_leaf_size(chunky.root_) >= 20
    lazy = DecisionTree(min_samples_split=200).fit(X, y)
    assert lazy.depth_ == 0


def _walk(node, x):
    """The leaf one row reaches, one node at a time."""
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def _nodes(node):
    """Every node of a view, in preorder."""
    if node.is_leaf:
        return [node]
    return [node, *_nodes(node.left), *_nodes(node.right)]


def _min_leaf_size(node):
    if node.is_leaf:
        return node.n_samples
    return min(_min_leaf_size(node.left), _min_leaf_size(node.right))


def brute_force_best_split(X, y, criterion):
    """Exhaustive (feature, threshold) search minimizing Eq.-style weighted
    impurity, with the same tie-break (lowest feature, lowest threshold)."""
    from wellmon.dtree import _CRITERIA

    impurity = _CRITERIA[criterion]
    best = None
    n = len(y)
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = 0.5 * (lo + hi)
            left = y[X[:, f] <= threshold]
            right = y[X[:, f] > threshold]
            weighted = (
                len(left) * impurity((np.sum(left == 0), np.sum(left == 1)))
                + len(right) * impurity((np.sum(right == 0), np.sum(right == 1)))
            ) / n
            if best is None or weighted < best[0] - 1e-15:
                best = (weighted, f, threshold)
    return best


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_greedy_root_matches_exhaustive_search(rng, criterion):
    for trial in range(60):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 3))
        X = np.round(rng.standard_normal((n, d)), 1)
        y = rng.integers(0, 2, size=n)
        if len(np.unique(y)) < 2:
            continue
        expected = brute_force_best_split(X, y, criterion)
        tree = DecisionTree(criterion=criterion).fit(X, y)
        if expected is None:
            assert tree.root_.is_leaf
        else:
            assert not tree.root_.is_leaf
            assert tree.root_.feature == expected[1]
            assert tree.root_.threshold == pytest.approx(expected[2])


def _reference_best_split(X, y, idx, criterion, min_samples_leaf):
    """One-threshold-at-a-time split scan with the scalar impurity: the
    library's split search before it scored a feature in one array pass."""
    impurity = dtree._CRITERIA[criterion]
    n = len(idx)
    best = None
    labels = y[idx]
    for f in range(X.shape[1]):
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = labels[order]
        distinct = np.flatnonzero(sv[:-1] < sv[1:])
        if distinct.size == 0:
            continue
        ones_cum = np.cumsum(sy)
        total_ones = ones_cum[-1]
        for i in distinct:
            n_left = i + 1
            n_right = n - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            left_ones = ones_cum[i]
            left_counts = (n_left - left_ones, left_ones)
            right_counts = (n_right - (total_ones - left_ones), total_ones - left_ones)
            weighted = (
                n_left * impurity(left_counts) + n_right * impurity(right_counts)
            ) / n
            if best is None or weighted < best[0] - 1e-15:
                threshold = 0.5 * (sv[i] + sv[i + 1])
                best = (weighted, f, threshold)
    return best


def _reference_tree(X, y, criterion="gini", max_depth=None, min_samples_split=2,
                    min_samples_leaf=1):
    """The tree as the library grew it before it held trees as arrays:
    nested nodes, one stable argsort per node and feature, one threshold
    at a time, and the scalar impurity for each node."""

    def grow(idx, depth):
        counts = np.array([np.sum(y[idx] == 0), np.sum(y[idx] == 1)], dtype=np.float64)
        node = TreeNode(counts, dtree._CRITERIA[criterion](counts))
        if (counts.min() == 0 or len(idx) < min_samples_split
                or (max_depth is not None and depth >= max_depth)):
            return node
        best = _reference_best_split(X, y, idx, criterion, min_samples_leaf)
        if best is None:
            return node
        _, node.feature, node.threshold = best
        mask = X[idx, node.feature] <= node.threshold
        node.left = grow(idx[mask], depth + 1)
        node.right = grow(idx[~mask], depth + 1)
        return node

    return grow(np.arange(len(y)), 0)


def _surrogate_cov_pca4():
    """COV+PCA(4) features of 3+3 noise-50 series: 120 one-minute windows."""
    from wellmon.dataset import generate, preset_config, window
    from wellmon.pca import PCA
    from wellmon.transforms import Standardizer, transform_segments

    cfg = preset_config(
        "slack", n_series_per_class=3, seed=1, noise_level=50, series_len=6001
    )
    fm = transform_segments(window(generate(cfg), 60.0), "cov")
    scaled = Standardizer().fit(fm).transform(fm)
    projected = PCA(4).fit(scaled).transform(scaled)
    return projected.values, projected.labels


def test_whole_tree_matches_reference_scan(rng):
    problems = []
    for trial in range(12):
        n = int(rng.integers(10, 90))
        X = rng.standard_normal((n, int(rng.integers(1, 4))))
        if trial % 2:
            X = np.round(X, 1)  # repeated values and tied thresholds
        y = rng.integers(0, 2, size=n)
        if len(np.unique(y)) == 2:
            problems.append((X, y))
    problems.append(_surrogate_cov_pca4())
    fits = 0
    for X, y in problems:
        for criterion in ("gini", "entropy"):
            for min_samples_leaf in (1, 2, 4, 7):
                for max_depth in (None, 3):
                    params = dict(
                        criterion=criterion,
                        min_samples_leaf=min_samples_leaf,
                        max_depth=max_depth,
                    )
                    tree = DecisionTree(**params).fit(X, y)
                    expected = _reference_tree(X, y, **params)
                    assert tree.root_.to_dict() == expected.to_dict(), params
                    fits += 1
    assert fits >= 16 * 10


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_fit_scores_thresholds_without_scalar_impurity_calls(monkeypatch, rng, criterion):
    # the scalar impurity is for node labels only: one call per grown node
    calls = []
    scalar = dtree._CRITERIA[criterion]

    def counting(counts):
        calls.append(1)
        return scalar(counts)

    monkeypatch.setitem(dtree._CRITERIA, criterion, counting)
    X = rng.standard_normal((200, 3))
    y = rng.integers(0, 2, size=200)
    tree = DecisionTree(criterion=criterion).fit(X, y)
    assert tree.n_nodes_ > 1
    assert len(calls) <= tree.n_nodes_


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_duplicated_column_splits_on_first_feature(criterion):
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    X = np.column_stack([x, x])
    y = np.array([0, 0, 0, 1, 1, 1])
    tree = DecisionTree(criterion=criterion).fit(X, y)
    assert tree.root_.feature == 0
    assert tree.root_.threshold == 2.5


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_min_samples_leaf_masks_the_best_threshold(criterion):
    # unconstrained, the best cut isolates the 0 at x = 0; with
    # min_samples_leaf = 3 the best allowed cut puts both 0s left of 4.5
    # and leaves a pure right child
    X = np.arange(10.0)[:, None]
    y = np.array([0, 1, 1, 1, 0, 1, 1, 1, 1, 1])
    free = DecisionTree(criterion=criterion, max_depth=1).fit(X, y)
    assert free.root_.threshold == 0.5
    tree = DecisionTree(criterion=criterion, max_depth=1, min_samples_leaf=3).fit(X, y)
    expected = _reference_tree(X, y, criterion=criterion, max_depth=1, min_samples_leaf=3)
    assert tree.root_.threshold == expected.threshold == 4.5


def test_executed_splits_never_increase_impurity(rng):
    X = rng.standard_normal((80, 2))
    y = rng.integers(0, 2, size=80)
    tree = DecisionTree(criterion="entropy").fit(X, y)

    def walk(node):
        if node.is_leaf:
            return
        children = [tuple(node.left.class_counts), tuple(node.right.class_counts)]
        assert info_gain(tuple(node.class_counts), children) >= -1e-12
        walk(node.left)
        walk(node.right)

    walk(tree.root_)


# ---------------------------------------------------------------------------
# cost-complexity pruning
# ---------------------------------------------------------------------------

def enumerate_pruned_subtrees(root):
    """All prunings of a tree: each internal node kept or collapsed."""
    if root.is_leaf:
        return [root]
    out = [replace(root, feature=None, threshold=None, left=None, right=None)]
    for left in enumerate_pruned_subtrees(root.left):
        for right in enumerate_pruned_subtrees(root.right):
            out.append(replace(root, left=left, right=right))
    return out


def _risk(node, n_total):
    if node.is_leaf:
        return (node.n_samples - node.class_counts.max()) / n_total
    return _risk(node.left, n_total) + _risk(node.right, n_total)


def _reference_path(root, n_total):
    """(alphas, node counts, depths, trees) of weakest-link pruning as the
    library computed it before it held trees as arrays: every collapse
    walks the whole tree again for the weakest link."""

    def weakest(node):
        if node.is_leaf:
            return None
        leaves = node.leaf_count()
        best = (((node.n_samples - node.class_counts.max()) / n_total
                 - _risk(node, n_total)) / (leaves - 1), node)
        for child in (node.left, node.right):
            candidate = weakest(child)
            if candidate is not None and candidate[0] < best[0] - 1e-15:
                best = candidate
        return best

    current = deepcopy(root)
    alphas, trees = [0.0], [deepcopy(current)]
    while not current.is_leaf:
        alpha, node = weakest(current)
        node.feature = node.threshold = node.left = node.right = None
        alphas.append(max(alpha, alphas[-1]))
        trees.append(deepcopy(current))
    return alphas, [len(_nodes(t)) for t in trees], [_height(t) for t in trees], trees


def _height(node):
    if node.is_leaf:
        return 0
    return 1 + max(_height(node.left), _height(node.right))


@pytest.mark.parametrize("decimals", [None, 0, 1])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_ccp_path_matches_the_whole_tree_walk(rng, criterion, decimals):
    # rounded features give impure leaves and tied alphas
    X, y = _noisy_threshold_data(rng, decimals, n=120)
    for params in (dict(), dict(max_depth=4), dict(min_samples_leaf=3)):
        tree = DecisionTree(criterion, **params).fit(X, y)
        path = ccp_path(tree, X, y)
        alphas, counts, depths, trees = _reference_path(tree.root_, len(y))
        assert path.alphas == tuple(alphas)
        assert path.node_counts == tuple(counts)
        assert path.depths == tuple(depths)
        assert [t.to_dict() for t in path.trees] == [t.to_dict() for t in trees]


def test_ccp_path_alpha_zero_is_original():
    tree = DecisionTree().fit(XOR_X, XOR_Y)
    path = ccp_path(tree, XOR_X, XOR_Y)
    assert path.alphas[0] == 0.0
    assert path.node_counts[0] == tree.n_nodes_ == 7
    assert path.depths[0] == 2


def test_ccp_path_xor_matches_brute_force():
    tree = DecisionTree().fit(XOR_X, XOR_Y)
    path = ccp_path(tree, XOR_X, XOR_Y)
    # weakest link is the root: alpha = (2/4 - 0)/(4 - 1)
    assert path.alphas == (0.0, pytest.approx(1.0 / 6.0))
    assert path.node_counts == (7, 1)
    subtrees = enumerate_pruned_subtrees(tree.root_)
    for alpha in (0.0, 0.05, 1.0 / 6.0 - 1e-9, 1.0 / 6.0 + 1e-9, 0.5, 10.0):
        best_cost = min(
            _risk(t, 4) + alpha * t.leaf_count() for t in subtrees
        )
        idx = max(i for i, a in enumerate(path.alphas) if a <= alpha)
        tree_cost = _risk(path.trees[idx], 4) + alpha * path.trees[idx].leaf_count()
        assert tree_cost == pytest.approx(best_cost, abs=1e-12)


def test_ccp_path_random_trees_match_brute_force(rng):
    for trial in range(10):
        X = np.round(rng.standard_normal((16, 2)), 1)
        y = rng.integers(0, 2, size=16)
        if len(np.unique(y)) < 2:
            continue
        tree = DecisionTree(max_depth=3).fit(X, y)
        path = ccp_path(tree, X, y)
        assert all(b <= a for a, b in zip(path.node_counts, path.node_counts[1:]))
        subtrees = enumerate_pruned_subtrees(tree.root_)
        n = len(y)
        for alpha in (0.0, 0.01, 0.03, 0.1, 0.5):
            best_cost = min(_risk(t, n) + alpha * t.leaf_count() for t in subtrees)
            idx = max(i for i, a in enumerate(path.alphas) if a <= alpha + 1e-12)
            cost = _risk(path.trees[idx], n) + alpha * path.trees[idx].leaf_count()
            assert cost == pytest.approx(best_cost, abs=1e-9)


def test_ccp_path_nesting_and_train_accuracy(rng):
    X = rng.standard_normal((60, 2))
    y = (X[:, 0] > 0.2).astype(int)
    y[rng.random(60) < 0.15] ^= 1  # label noise so pruning has work to do
    tree = DecisionTree().fit(X, y)
    path = ccp_path(tree, X, y)
    accuracies = []
    for pruned in path.trees:
        accuracies.append(np.mean([_walk(pruned, x).predicted for x in X] == y))
    assert all(b <= a + 1e-12 for a, b in zip(accuracies, accuracies[1:]))
    assert path.node_counts[-1] == 1


def test_beyond_last_alpha_gives_root_only():
    tree = DecisionTree().fit(XOR_X, XOR_Y)
    path = ccp_path(tree, XOR_X, XOR_Y)
    assert path.tree_at(1e6).is_leaf
    assert DecisionTree(ccp_alpha=1e6).fit(XOR_X, XOR_Y).root_.is_leaf
    assert path.tree_at(0.0).to_dict() == tree.root_.to_dict()


def test_fit_with_ccp_alpha():
    tree = DecisionTree(ccp_alpha=0.5).fit(XOR_X, XOR_Y)
    assert tree.n_nodes_ == 1
    tree = DecisionTree(ccp_alpha=0.01).fit(XOR_X, XOR_Y)
    assert tree.n_nodes_ == 7


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_level_steps_and_row_walk_reach_the_leaves_of_a_walk_down_the_view(rng, criterion):
    X, y = _noisy_threshold_data(rng, n=300)
    tree = DecisionTree(criterion).fit(X, y)
    root = tree.root_
    queries = [
        X,
        X[:1],
        X[:127],
        X[:128],
        rng.standard_normal((1, 3)),
        # far outside the training range: a few edge leaves take every row
        # and every other leaf stays empty
        rng.standard_normal((400, 3)) * 100.0,
        np.full((200, 3), 0.1),
        np.zeros((0, 3)),
        # every feature exactly at a split threshold, which goes left
        np.repeat([n.threshold for n in _nodes(root) if not n.is_leaf], 3).reshape(-1, 3),
    ]
    for Q in queries:
        expected = [_walk(root, x).predicted for x in Q]
        assert tree.predict(Q).tolist() == expected
        levels = tree.tree_.levels(Q)
        assert tree.tree_.predicted[levels[-1]].tolist() == expected
        assert np.array_equal(levels[-1], tree.tree_.leaves(Q))
        assert len(levels) <= tree.depth_ + 1
    assert tree.predict(X[0]) == _walk(root, X[0]).predicted


@pytest.mark.parametrize("decimals", [None, 0])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_fit_at_alpha_is_the_path_tree_at_that_alpha(rng, criterion, decimals):
    X, y = _noisy_threshold_data(rng, decimals)
    full = DecisionTree(criterion).fit(X, y)
    path = ccp_path(full, X, y)
    alphas = np.unique(path.alphas)
    for alpha in [*alphas, *(0.5 * (alphas[:-1] + alphas[1:])), 2 * alphas[-1]]:
        expected = path.tree_at(alpha)
        fitted = DecisionTree(criterion, ccp_alpha=alpha).fit(X, y)
        assert fitted.root_.to_dict() == expected.to_dict()
        assert fitted.n_nodes_ == path.node_counts[bisect_left(path.alphas, alpha, lo=1) - 1]
        assert fitted.depth_ == path.depths[bisect_left(path.alphas, alpha, lo=1) - 1]
        assert fitted.n_nodes_ == len(_nodes(expected))


def test_leaf_only_path():
    X = np.array([[0.0], [0.0], [0.0], [0.0]])
    y = np.array([0, 1, 0, 1])
    tree = DecisionTree().fit(X, y)  # no valid split: constant feature
    assert tree.root_.is_leaf
    path = ccp_path(tree, X, y)
    assert path.entries() == [(0.0, 1, 0)]


def test_leaf_tie_predicts_broken():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0, 1, 0, 1])
    tree = DecisionTree(max_depth=0).fit(X, y)
    assert tree.predict(np.array([0.0])) == 1


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def test_grid_search_tiebreak_prefers_the_simplest_tree(rng):
    grid = {"max_depth": range(2, 14), **PRE_PRUNING_SIZES}
    X = np.concatenate([rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + 8.0])
    y = np.array([0] * 30 + [1] * 30)
    best, score = grid_search(X, y, "entropy", grid, k_folds=3, seed=0)
    assert score == 1.0
    # separable: every config perfect, tie-break chooses the simplest tree
    assert best["max_depth"] == 2
    assert best["min_samples_leaf"] == 2


def test_grid_search_single_point():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((24, 2))
    y = np.array([0, 1] * 12)
    grid = {"max_depth": [3], "min_samples_split": [2], "min_samples_leaf": [1]}
    best, _ = grid_search(X, y, "gini", grid, k_folds=2, seed=1)
    assert best == {"max_depth": 3, "min_samples_split": 2, "min_samples_leaf": 1}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_grid_search_is_the_refit_cv_choice(monkeypatch, rng, criterion, seed):
    # min_samples_split 30 exceeds many node sizes of 80-row folds
    X, y = _noisy_threshold_data(rng, decimals=1, n=120)
    grid = {"max_depth": [1, 3, None, 6], "min_samples_split": [2, 5, 30],
            "min_samples_leaf": [1, 3]}
    folds = stratified_kfold_indices(y, 3, seed)
    names = ("max_depth", "min_samples_split", "min_samples_leaf")
    refit = {}
    for combo in product(*(grid[name] for name in names)):
        params = dict(zip(names, combo))
        refit[combo] = cv_accuracy(lambda: DecisionTree(criterion, **params), X, y, folds)

    def refit_choice(depths):
        return min(
            (c for c in refit if c[0] in depths),
            key=lambda c: (-refit[c], np.inf if c[0] is None else c[0], -c[2], c[1]),
        )

    fits = []
    fit = DecisionTree.fit
    monkeypatch.setattr(DecisionTree, "fit", lambda self, *a: fits.append(1) or fit(self, *a))
    best, score = grid_search(X, y, criterion, grid, k_folds=3, seed=seed)
    expected = refit_choice(grid["max_depth"])
    assert (best, score) == (dict(zip(names, expected)), refit[expected])
    # one grown tree per fold and min_samples_leaf
    assert len(fits) == 3 * 2
    for depths in ([1, 6, 3], *([depth] for depth in grid["max_depth"])):
        best, score = grid_search(X, y, criterion, dict(grid, max_depth=depths), 3, seed)
        expected = refit_choice(depths)
        assert (best, score) == (dict(zip(names, expected)), refit[expected])


@pytest.mark.parametrize("decimals", [None, 1])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_grid_truncation_is_the_refit_tree(rng, criterion, decimals):
    X, y = _noisy_threshold_data(rng, decimals, n=150)
    for leaf_size in (1, 3):
        grown = DecisionTree(criterion, None, 2, leaf_size).fit(X, y).tree_
        for depth, split in product([0, 1, 2, 4, 7, None], [2, 3, 6, 25, 151]):
            truncated = grown.pruned(dtree._truncation(grown, depth, split)).root()
            refit = DecisionTree(criterion, depth, split, leaf_size).fit(X, y)
            assert truncated.to_dict() == refit.root_.to_dict(), (depth, split)


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_pre_pruning_grid_depths_run_to_the_full_tree(rng, criterion):
    X, y = _noisy_threshold_data(rng, n=150)
    depth = DecisionTree(criterion).fit(X, y).depth_
    assert depth > 3
    grid = pre_pruning_grid(X, y, criterion)
    assert list(grid["max_depth"]) == list(range(1, depth + 1))
    assert {k: list(v) for k, v in grid.items() if k != "max_depth"} == {
        "min_samples_split": [2, 3, 4], "min_samples_leaf": [1, 2]}
    best, _ = grid_search(X, y, criterion, grid, k_folds=3, seed=0)
    assert 1 <= best["max_depth"] <= depth


def test_pre_pruning_on_constant_features_searches_depth_1():
    # no split exists, so the full tree is one leaf of depth 0
    X = np.ones((20, 3))
    y = np.array([0, 1] * 10)
    grid = pre_pruning_grid(X, y, "gini")
    assert list(grid["max_depth"]) == [1]
    best, score = grid_search(X, y, "gini", grid, k_folds=2, seed=0)
    assert best == {"max_depth": 1, "min_samples_split": 2, "min_samples_leaf": 2}
    assert score == 0.5


def test_grid_search_requires_enough_per_class():
    X = np.zeros((4, 1))
    y = np.array([0, 0, 0, 1])
    grid = {"max_depth": [2], "min_samples_split": [2], "min_samples_leaf": [1]}
    with pytest.raises(ValueError, match="fewer than"):
        grid_search(X, y, "gini", grid, k_folds=2, seed=0)


def test_criteria_agree_on_surrogate_features():
    # gini and entropy test accuracies stay within 3 percentage points
    from wellmon.dataset import generate, preset_config, split, window
    from wellmon.pca import PCA
    from wellmon.transforms import Standardizer, transform_segments

    cfg = preset_config("slack", n_series_per_class=6, seed=2, series_len=6001)
    segments = window(generate(cfg), 60.0)
    train, test = split(segments, 0.2, seed=2)
    train_fm = transform_segments(train, "cov")
    test_fm = transform_segments(test, "cov")
    scaler = Standardizer().fit(train_fm)
    pca = PCA(4).fit(scaler.transform(train_fm))
    train_p = pca.transform(scaler.transform(train_fm))
    test_p = pca.transform(scaler.transform(test_fm))
    accs = {}
    for criterion in ("gini", "entropy"):
        tree = DecisionTree(criterion=criterion).fit(train_p.values, train_p.labels)
        accs[criterion] = np.mean(tree.predict(test_p.values) == test_p.labels)
    assert abs(accs["gini"] - accs["entropy"]) < 0.03


def _noisy_threshold_data(rng, decimals=None, n=80):
    X = rng.standard_normal((n, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0.1).astype(int)
    y[rng.random(n) < 0.2] ^= 1  # label noise so the path has many alphas
    # rounded, equal rows carry both labels: impure leaves, whose parents
    # collapse at alpha 0
    return (X if decimals is None else np.round(X, decimals)), y


def _candidates(X, y, criterion):
    """The geometric midpoints of the full tree's distinct path alphas."""
    full = DecisionTree(criterion).fit(X, y)
    alphas = np.unique(ccp_path(full, X, y).alphas)
    return np.sqrt(alphas[:-1] * alphas[1:])


@pytest.mark.parametrize("decimals", [None, 0])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_path_lookup_is_prune_tree_on_every_fold(rng, criterion, decimals):
    X, y = _noisy_threshold_data(rng, decimals)
    candidates = _candidates(X, y, criterion)
    assert candidates[0] == 0.0 and len(candidates) > 3
    for train_idx, _ in stratified_kfold_indices(y, 5, seed=0):
        fold_tree = DecisionTree(criterion).fit(X[train_idx], y[train_idx])
        path = ccp_path(fold_tree, X[train_idx], y[train_idx])
        for alpha in candidates:
            # the tree a refit at that alpha grows on the fold's rows
            refit = DecisionTree(criterion, ccp_alpha=alpha).fit(X[train_idx], y[train_idx])
            assert path.tree_at(alpha).to_dict() == refit.root_.to_dict()


@pytest.mark.parametrize("decimals", [None, 0])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_cv_ccp_alpha_is_the_refit_cv_choice(rng, criterion, decimals):
    # scoring each candidate's path tree gives the same fold accuracies as
    # refitting DecisionTree(ccp_alpha=candidate) on every fold
    X, y = _noisy_threshold_data(rng, decimals)
    folds = stratified_kfold_indices(y, 5, seed=3)
    candidates = _candidates(X, y, criterion)
    scores = [
        cv_accuracy(lambda: DecisionTree(criterion, ccp_alpha=alpha), X, y, folds)
        for alpha in candidates
    ]
    best = max(range(len(scores)), key=lambda c: (scores[c], c))
    alpha, score = cv_ccp_alpha(DecisionTree(criterion), X, y, 5, seed=3)
    assert (alpha, score) == (candidates[best], scores[best])
    assert cv_ccp_alpha(DecisionTree(criterion), X, y, 5, seed=3) == (alpha, score)


def test_cv_ccp_alpha_ties_go_to_the_larger_alpha(rng):
    # one class-1 outlier far out on feature 1 inside class 0's range:
    # the split that isolates it never moves a held-out prediction, so the
    # unpruned tree and the tree without that split tie on every fold
    X = np.concatenate([
        np.c_[rng.uniform(-2, -1, 20), rng.uniform(0, 1, 20)],
        np.c_[rng.uniform(1, 2, 20), rng.uniform(0, 1, 20)],
        [[-1.5, 10.0]],
    ])
    y = np.array([0] * 20 + [1] * 21)
    candidates = _candidates(X, y, "gini")
    assert len(candidates) == 2
    alpha, score = cv_ccp_alpha(DecisionTree("gini"), X, y, 3, seed=0)
    folds = stratified_kfold_indices(y, 3, seed=0)
    unpruned = cv_accuracy(lambda: DecisionTree("gini"), X, y, folds)
    assert score == unpruned
    assert alpha == candidates[1] > 0
    assert DecisionTree("gini", ccp_alpha=alpha).fit(X, y).n_nodes_ == 3


def test_cv_ccp_alpha_requires_enough_per_class():
    X = np.arange(6.0)[:, None]
    y = np.array([0, 0, 0, 0, 1, 1])
    with pytest.raises(ValueError, match="fewer than"):
        cv_ccp_alpha(DecisionTree("gini"), X, y, 3)
    with pytest.raises(ValueError, match="k must be >= 2"):
        cv_ccp_alpha(DecisionTree("gini"), X, y, 1)


# ---------------------------------------------------------------------------
# persistence and misc
# ---------------------------------------------------------------------------

def test_json_roundtrip(tmp_path, rng):
    X = rng.standard_normal((50, 3))
    y = (X[:, 1] > 0).astype(int)
    tree = DecisionTree(criterion="entropy", max_depth=4).fit(X, y)
    tree.save(tmp_path / "tree.json")
    loaded = DecisionTree.load(tmp_path / "tree.json")
    assert np.array_equal(loaded.predict(X), tree.predict(X))
    assert loaded.n_nodes_ == tree.n_nodes_


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_saved_model_is_byte_identical_after_load_and_save(tmp_path, rng, criterion):
    X, y = _noisy_threshold_data(rng, n=200)
    tree = DecisionTree(criterion, ccp_alpha=0.005).fit(X, y)
    tree.save(tmp_path / "dtree_model.json")
    DecisionTree.load(tmp_path / "dtree_model.json").save(tmp_path / "again.json")
    saved = (tmp_path / "dtree_model.json").read_bytes()
    assert (tmp_path / "again.json").read_bytes() == saved
    assert json.loads(saved)["tree"] == tree.root_.to_dict()


def test_pruning_path_invariant():
    with pytest.raises(ValueError, match="non-increasing"):
        PruningPath(alphas=(0.0, 0.1), node_counts=(3, 5), depths=(1, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite(bad):
    tree = DecisionTree().fit(XOR_X, XOR_Y)
    with pytest.raises(ValueError, match="non-finite"):
        tree.predict(np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        tree.predict(np.array([[0.0, 1.0], [0.0, bad]]))


def test_errors():
    with pytest.raises(ValueError, match="both classes"):
        DecisionTree().fit(np.zeros((3, 1)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="criterion"):
        DecisionTree(criterion="mse").fit(XOR_X, XOR_Y)
    with pytest.raises(ValueError):
        DecisionTree(min_samples_leaf=0).fit(XOR_X, XOR_Y)

"""CART-style binary decision tree with pre- and post-pruning.

A fitted tree is held as flat preorder arrays, the layout CART
implementations use (Breiman et al. 1984): node i has feature[i],
threshold[i], left[i], right[i], class_counts[i], impurity[i] and
depth[i]; at a leaf feature, left and right are -1. A node's left child
follows it, so its subtree fills the index range from i up to the next
node no deeper than i. root_ is a read-only nested TreeNode view of the
arrays, and save/load write and read that view's JSON.

Splits compare feature <= threshold going left, with thresholds at midpoints
between consecutive sorted unique values. Splits with zero impurity
reduction are still taken when nothing better exists (needed to solve
XOR-like structure), so an unrestricted fit reaches 100% train accuracy on
consistent data. Growth argsorts each column once at the root; a child
takes its slice of the parent's per-column order, which is the stable
argsort of its own rows because row indices stay ascending. A node scores
all thresholds of all features as one 2-D array expression over the
cumulative class counts. gini and entropy of one node are the one-row case
of those array expressions, so a node's impurity and its candidate
children's share one arithmetic. Predict moves every row down one level
per numpy step; under 128 rows each row walks the node lists instead.

Post-pruning is weakest-link cost-complexity pruning with R = total weighted
misclassification rate. The pruning path computes each node's subtree risk,
leaf count and weakest link once, bottom-up; a collapse updates only the
collapsed node's ancestors. The path stores the order of its collapses, so
the tree at any alpha is one mask over the grown tree's nodes.

Both prunings tune by one k-fold CV loop on training rows (_cv_choice), and
both take their candidates from the tree grown on all the rows:
pre_pruning_grid searches max_depth up to that tree's depth, cv_ccp_alpha
the midpoints of its path's alphas. grid_search grows one tree per fold and
min_samples_leaf, at the grid's largest max_depth and smallest
min_samples_split, and scores each setting on that tree truncated: a node
is a leaf when depth >= max_depth or n_samples < min_samples_split, which
is the tree a refit at that setting grows. cv_ccp_alpha grows one tree per
fold with the estimator's limits and scores every candidate alpha on that
fold's path.
"""

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product
from pathlib import Path

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .validation import (
    as_query_rows, check_width, check_X_y, require_both_classes,
    stratified_kfold_indices,
)


# ---------------------------------------------------------------------------
# impurity measures
# ---------------------------------------------------------------------------

def _counts(counts):
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (2,) or np.any(counts < 0):
        raise ValueError("counts must be a non-negative 2-vector")
    if counts.sum() <= 0:
        raise ValueError("empty node has no impurity")
    return counts


def _gini_rows(zeros, ones, n_side):
    """gini per row of class counts (zeros, ones) summing to n_side."""
    p0 = zeros / n_side
    p1 = ones / n_side
    return 1.0 - (p0 * p0 + p1 * p1)


def _entropy_rows(zeros, ones, n_side):
    """entropy per row of class counts; a zero class adds an exact 0 term
    (p * log2(1))."""
    terms = []
    for count in (zeros, ones):
        p = count / n_side
        terms.append(p * np.log2(np.where(p > 0, p, 1.0)))
    return -(terms[0] + terms[1])


_ROW_CRITERIA = {"gini": _gini_rows, "entropy": _entropy_rows}


def gini(counts):
    """1 - sum(p^2); 0 for a pure node, 0.5 at a balanced binary node."""
    counts = _counts(counts)
    return float(_gini_rows(counts[0], counts[1], counts.sum()))


def entropy(counts):
    """-sum(p log2 p) over nonzero classes; 0 for a pure node."""
    counts = _counts(counts)
    return float(_entropy_rows(counts[0], counts[1], counts.sum()))


_CRITERIA = {"gini": gini, "entropy": entropy}


def weighted_child_impurity(parent_counts, children_counts, criterion):
    """Size-weighted average impurity of children partitioning the parent."""
    parent = _counts(parent_counts)
    children = [np.asarray(c, dtype=np.float64) for c in children_counts]
    if not np.array_equal(sum(children), parent):
        raise ValueError("children do not partition the parent counts")
    impurity = _CRITERIA[criterion]
    total = parent.sum()
    return float(
        sum(c.sum() / total * impurity(c) for c in children if c.sum() > 0)
    )


def info_gain(parent_counts, children_counts):
    """Entropy before the split minus weighted entropy after."""
    return entropy(parent_counts) - weighted_child_impurity(
        parent_counts, children_counts, "entropy"
    )


# ---------------------------------------------------------------------------
# tree nodes
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    """Internal node (feature/threshold/children set) or leaf (children None).

    Samples with feature <= threshold go left. Leaf prediction is the
    majority class; ties go to 1 (broken). A fitted tree's root_ is a view
    built from its arrays: changing a node changes no model.
    """

    class_counts: np.ndarray
    impurity: float
    feature: int = None
    threshold: float = None
    left: "TreeNode" = None
    right: "TreeNode" = None

    @property
    def is_leaf(self):
        return self.left is None

    @property
    def n_samples(self):
        return int(self.class_counts.sum())

    @property
    def predicted(self):
        return 1 if self.class_counts[1] >= self.class_counts[0] else 0

    def leaf_count(self):
        if self.is_leaf:
            return 1
        return self.left.leaf_count() + self.right.leaf_count()

    def to_dict(self):
        record = {
            "class_counts": [int(c) for c in self.class_counts],
            "impurity": self.impurity,
        }
        if not self.is_leaf:
            record.update(
                feature=int(self.feature),
                threshold=float(self.threshold),
                left=self.left.to_dict(),
                right=self.right.to_dict(),
            )
        else:
            record["predicted"] = self.predicted
        return record

    @classmethod
    def from_dict(cls, record):
        counts = np.array(record["class_counts"], dtype=np.float64)
        if "feature" in record:
            return cls(
                counts,
                record["impurity"],
                record["feature"],
                record["threshold"],
                cls.from_dict(record["left"]),
                cls.from_dict(record["right"]),
            )
        return cls(counts, record["impurity"])


# Below this many rows, predict walks each row down Python lists of the
# node arrays: one row takes about 1 us that way and 40-70 us in numpy
# level steps, and the two cost the same near 128 rows (a 2-vCPU x86 VM).
_WALK_ROWS = 128


@dataclass(frozen=True, eq=False)
class FlatTree:
    """A tree as preorder node arrays; feature, left and right are -1 (and
    threshold 0) at a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    class_counts: np.ndarray
    impurity: np.ndarray
    depth: np.ndarray

    @classmethod
    def from_lists(cls, feature, threshold, left, right, class_counts, impurity, depth):
        return cls(
            np.array(feature, dtype=np.intp),
            np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp),
            np.array(class_counts, dtype=np.float64).reshape(-1, 2),
            np.array(impurity, dtype=np.float64),
            np.array(depth, dtype=np.intp),
        )

    @classmethod
    def from_root(cls, root):
        """The arrays of a nested TreeNode tree."""
        columns = ([], [], [], [], [], [], [])
        feature, threshold, left, right, counts, impurity, depth = columns

        def visit(node, level):
            i = len(feature)
            for column, value in zip(columns, (-1, 0.0, -1, -1, node.class_counts,
                                               node.impurity, level)):
                column.append(value)
            if not node.is_leaf:
                feature[i], threshold[i] = node.feature, node.threshold
                left[i] = visit(node.left, level + 1)
                right[i] = visit(node.right, level + 1)
            return i

        visit(root, 0)
        return cls.from_lists(*columns)

    def root(self):
        """A nested TreeNode copy of the tree."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        impurity = self.impurity.tolist()

        def node(i):
            counts = self.class_counts[i].copy()
            if left[i] < 0:
                return TreeNode(counts, impurity[i])
            return TreeNode(counts, impurity[i], feature[i], threshold[i],
                            node(left[i]), node(right[i]))

        return node(0)

    @property
    def n_nodes(self):
        return len(self.feature)

    @property
    def is_leaf(self):
        return self.left < 0

    @cached_property
    def predicted(self):
        """Majority class of each node; ties go to 1 (broken)."""
        return (self.class_counts[:, 1] >= self.class_counts[:, 0]).astype(np.int64)

    @cached_property
    def _node_lists(self):
        return (self.feature.tolist(), self.threshold.tolist(), self.left.tolist(),
                self.right.tolist())

    def leaves(self, X):
        """The leaf each row reaches."""
        if len(X) >= _WALK_ROWS:
            return self.levels(X)[-1]
        feature, threshold, left, right = self._node_lists
        leaves = []
        for x in X.tolist():
            i = 0
            while left[i] >= 0:
                i = left[i] if x[feature[i]] <= threshold[i] else right[i]
            leaves.append(i)
        return np.array(leaves, dtype=np.intp)

    def levels(self, X):
        """The node of every row at each level, root first. Each numpy step
        moves every row one level down; a row at a leaf stays there, and
        the walk stops once every row is at a leaf."""
        rows = np.arange(len(X))
        node = np.zeros(len(X), dtype=np.intp)
        levels = [node]
        while True:
            goes_left = X[rows, self.feature[node]] <= self.threshold[node]
            child = np.where(goes_left, self.left[node], self.right[node])
            at_leaf = child < 0
            if at_leaf.all():
                return levels
            node = np.where(at_leaf, node, child)
            levels.append(node)

    def labels_at(self, paths, leaf):
        """Label of each row when the nodes where the mask leaf holds are
        leaves; paths[r] holds row r's nodes from the root down, as
        np.stack(levels(X), axis=1) gives them, and leaf covers every leaf."""
        first = np.argmax(leaf[paths], axis=1)
        return self.predicted[paths[np.arange(len(paths)), first]]

    def pruned(self, leaf):
        """The tree with every node where the mask leaf holds made a leaf and
        its descendants dropped; leaf covers every leaf."""
        split = ~leaf
        inner = np.flatnonzero(~self.is_leaf)
        parent = np.full(self.n_nodes, -1)
        parent[self.left[inner]] = inner
        parent[self.right[inner]] = inner
        kept = np.ones(self.n_nodes, dtype=bool)
        for level in range(1, int(self.depth.max()) + 1):
            at = np.flatnonzero(self.depth == level)
            kept[at] = kept[parent[at]] & split[parent[at]]
        index = np.cumsum(kept) - 1
        split &= kept
        return FlatTree(
            np.where(split, self.feature, -1)[kept],
            np.where(split, self.threshold, 0.0)[kept],
            np.where(split, index[self.left], -1)[kept],
            np.where(split, index[self.right], -1)[kept],
            self.class_counts[kept],
            self.impurity[kept],
            self.depth[kept],
        )

    def with_counts(self, X, y):
        """The tree with class counts tabulated from the rows (X, y)."""
        leaf = self.leaves(X)
        counts = np.bincount(2 * leaf + y, minlength=2 * self.n_nodes)
        counts = counts.reshape(-1, 2).astype(np.float64)
        inner = ~self.is_leaf
        for level in range(int(self.depth.max()) - 1, -1, -1):
            at = np.flatnonzero(inner & (self.depth == level))
            counts[at] = counts[self.left[at]] + counts[self.right[at]]
        return replace(self, class_counts=counts)


def _best_split(XT, y, order, criterion, min_samples_leaf):
    """Best (feature, threshold) minimizing weighted child impurity.

    XT is the training matrix transposed and order[f] the node's rows sorted
    by feature f. Candidates are midpoints between consecutive sorted unique
    values whose children both hold at least min_samples_leaf samples. All
    cuts of all features are scored in one 2-D pass over the cumulative
    class counts, and a cut between equal values is set to inf; gini and
    entropy of one node are the one-row case of the same expressions, so
    the weighted impurities are bit-identical to scoring them one at a time.
    Tie-break: lowest feature index, then lowest threshold; a candidate
    replaces the best so far only when it is below it by more than 1e-15.
    Only a strict record of a feature's running minimum can pass that test,
    so just those records are compared, in feature order.
    """
    n = order.shape[1]
    first, stop = min_samples_leaf - 1, n - min_samples_leaf  # cut after first..stop-1
    if first >= stop:
        return None
    impurity = _ROW_CRITERIA[criterion]
    values = np.take_along_axis(XT, order, axis=1)
    ones_cum = np.cumsum(y[order], axis=1)
    n_left = np.arange(first + 1, stop + 1)
    n_right = n - n_left
    left_ones = ones_cum[:, first:stop]
    right_ones = ones_cum[:, -1:] - left_ones
    weighted = (
        n_left * impurity(n_left - left_ones, left_ones, n_left)
        + n_right * impurity(n_right - right_ones, right_ones, n_right)
    ) / n
    weighted[values[:, first:stop] == values[:, first + 1:stop + 1]] = np.inf
    running = np.minimum.accumulate(weighted, axis=1)
    records = np.empty(weighted.shape, dtype=bool)
    records[:, 0] = running[:, 0] < np.inf
    np.less(running[:, 1:], running[:, :-1], out=records[:, 1:])
    best = None  # (weighted_impurity, feature, cut)
    features, cuts = np.nonzero(records)
    for w, f, i in zip(weighted[records].tolist(), features.tolist(), cuts.tolist()):
        if best is None or w < best[0] - 1e-15:
            best = (w, f, i)
    if best is None:
        return None
    _, f, i = best
    return f, 0.5 * (values[f, first + i] + values[f, first + i + 1])


def _grow(X, y, criterion, max_depth, min_samples_split, min_samples_leaf):
    """The greedy tree on (X, y), as flat preorder arrays."""
    XT = np.ascontiguousarray(X.T)
    goes_left = np.empty(len(y), dtype=bool)
    columns = ([], [], [], [], [], [])
    feature, threshold, left, right, counts, depth = columns

    def grow(order, level):
        i = len(feature)
        n = order.shape[1]
        ones = int(np.count_nonzero(y[order[0]]))
        for column, value in zip(columns, (-1, 0.0, -1, -1, (n - ones, ones), level)):
            column.append(value)
        if (
            ones == 0
            or ones == n
            or n < min_samples_split
            or (max_depth is not None and level >= max_depth)
        ):
            return i
        best = _best_split(XT, y, order, criterion, min_samples_leaf)
        if best is None:
            return i
        feature[i], threshold[i] = best
        rows = order[feature[i]]
        goes_left[rows] = XT[feature[i], rows] <= threshold[i]
        side = goes_left[order]
        left[i] = grow(order[side].reshape(len(order), -1), level + 1)
        right[i] = grow(order[~side].reshape(len(order), -1), level + 1)
        return i

    grow(np.argsort(XT, axis=1, kind="stable"), 0)
    class_counts = np.array(counts, dtype=np.float64)
    impurity = _ROW_CRITERIA[criterion](
        class_counts[:, 0], class_counts[:, 1], class_counts.sum(axis=1)
    )
    return FlatTree.from_lists(feature, threshold, left, right, class_counts,
                               impurity, depth)


class DecisionTree(BaseEstimator):
    """Greedy recursive binary-split classifier.

    Parameters
    ----------
    criterion : str
        "gini" or "entropy".
    max_depth : int or None
        Depth limit in edges; None means unlimited.
    min_samples_split : int
        Minimum node size eligible for splitting.
    min_samples_leaf : int
        Minimum samples in each child of a split.
    ccp_alpha : float
        Cost-complexity parameter; subtrees with effective alpha strictly
        below this are collapsed after fitting.
    """

    def __init__(
        self,
        criterion="gini",
        max_depth=None,
        min_samples_split=2,
        min_samples_leaf=1,
        ccp_alpha=0.0,
    ):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.ccp_alpha = ccp_alpha

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        require_both_classes(y)
        if self.criterion not in _CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.min_samples_split < 2 or self.min_samples_leaf < 1:
            raise ValueError("invalid pre-pruning parameters")
        if self.ccp_alpha < 0:
            raise ValueError("ccp_alpha must be >= 0")
        tree = _grow(X, y, self.criterion, self.max_depth,
                     self.min_samples_split, self.min_samples_leaf)
        if self.ccp_alpha > 0:
            path = _pruning_path(tree, len(y))
            tree = tree.pruned(path.leaves_at(self.ccp_alpha))
        self.tree_ = tree
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X):
        check_is_fitted(self, "tree_")
        X, single = as_query_rows(X, self.n_features_in_)
        labels = self._predict_rows(X)
        return int(labels[0]) if single else labels

    def _predict_rows(self, X):
        """predict of 2-D float64 rows already screened finite."""
        X = check_width(X, self.n_features_in_)
        return self.tree_.predicted[self.tree_.leaves(X)]

    @property
    def root_(self):
        check_is_fitted(self, "tree_")
        return self.tree_.root()

    @property
    def depth_(self):
        check_is_fitted(self, "tree_")
        return int(self.tree_.depth.max())

    @property
    def n_nodes_(self):
        check_is_fitted(self, "tree_")
        return self.tree_.n_nodes

    def save(self, path):
        check_is_fitted(self, "tree_")
        payload = {
            "kind": "dtree",
            "criterion": self.criterion,
            "n_features": self.n_features_in_,
            "tree": self.root_.to_dict(),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def load(cls, path):
        payload = json.loads(Path(path).read_text())
        model = cls(criterion=payload["criterion"])
        model.tree_ = FlatTree.from_root(TreeNode.from_dict(payload["tree"]))
        model.n_features_in_ = payload["n_features"]
        return model


# ---------------------------------------------------------------------------
# cost-complexity pruning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PruningPath:
    """Nested tree sequence indexed by ascending alpha thresholds: entry k
    is tree after its first k collapses, order[:k]."""

    alphas: tuple
    node_counts: tuple
    depths: tuple
    tree: FlatTree = field(repr=False, compare=False, default=None)
    order: tuple = field(repr=False, default=())

    def __post_init__(self):
        for a, b in zip(self.node_counts, self.node_counts[1:]):
            if b > a:
                raise ValueError("node counts must be non-increasing along the path")

    def entries(self):
        return list(zip(self.alphas, self.node_counts, self.depths))

    def _leaves_after(self, k):
        leaf = self.tree.is_leaf
        leaf[list(self.order[:k])] = True
        return leaf

    def leaves_at(self, alpha):
        """Mask of tree's nodes that are leaves after every collapse whose
        alpha is below alpha; for alpha > 0 that is the tree a fit at
        ccp_alpha=alpha keeps."""
        return self._leaves_after(bisect_left(self.alphas, alpha, lo=1) - 1)

    def tree_at(self, alpha):
        return self.tree.pruned(self.leaves_at(alpha)).root()

    @property
    def trees(self):
        """Each entry's tree, built on demand."""
        return tuple(
            self.tree.pruned(self._leaves_after(k)).root() for k in range(len(self.alphas))
        )


def _pruning_path(tree, n_total):
    """Weakest-link pruning path of a FlatTree, with risks measured on its
    class counts over n_total rows.

    A node's subtree risk, leaf count, height and weakest link (alpha_eff,
    node) are computed once, bottom-up, and a collapse recomputes them only
    on the collapsed node's ancestors. The weakest link of a subtree is its
    root's unless a child subtree's is lower by more than 1e-15, left child
    first. Each collapse adds one entry at its effective alpha, clamped so
    the alpha sequence is non-decreasing.
    """
    left, right = tree.left.tolist(), tree.right.tolist()
    parent = [-1] * len(left)
    for i, (l, r) in enumerate(zip(left, right)):
        if l >= 0:
            parent[l] = parent[r] = i
    leaf_risk = [(c0 + c1 - max(c0, c1)) / n_total for c0, c1 in tree.class_counts.tolist()]
    risk = list(leaf_risk)
    leaves = [1] * len(left)
    height = [0] * len(left)
    weakest = [None] * len(left)

    def update(i):
        l, r = left[i], right[i]
        risk[i] = risk[l] + risk[r]
        leaves[i] = leaves[l] + leaves[r]
        height[i] = 1 + max(height[l], height[r])
        best = ((leaf_risk[i] - risk[i]) / (leaves[i] - 1), i)
        for candidate in (weakest[l], weakest[r]):
            if candidate is not None and candidate[0] < best[0] - 1e-15:
                best = candidate
        weakest[i] = best

    for i in reversed(range(len(left))):
        if left[i] >= 0:
            update(i)
    alphas, node_counts, depths, order = [0.0], [len(left)], [height[0]], []
    while weakest[0] is not None:
        alpha, node = weakest[0]
        order.append(node)
        node_counts.append(node_counts[-1] - 2 * (leaves[node] - 1))
        risk[node], leaves[node], height[node], weakest[node] = leaf_risk[node], 1, 0, None
        ancestor = parent[node]
        while ancestor >= 0:
            update(ancestor)
            ancestor = parent[ancestor]
        alphas.append(max(alpha, alphas[-1]))
        depths.append(height[0])
    return PruningPath(tuple(alphas), tuple(node_counts), tuple(depths), tree, tuple(order))


def ccp_path(tree, X_train, y_train) -> PruningPath:
    """Weakest-link pruning path of a fitted tree on its training data.

    Node class counts are re-tabulated from (X_train, y_train), so the path
    risk R is always consistent with the data passed in. The first entry is
    always (0, original tree); each collapse adds one entry at its effective
    alpha, clamped so the alpha sequence is non-decreasing. At tied alphas
    the last entry holds the tree valid just beyond that alpha.
    """
    check_is_fitted(tree, "tree_")
    X_train, y_train = check_X_y(X_train, y_train)
    return _pruning_path(tree.tree_.with_counts(X_train, y_train), len(y_train))


# ---------------------------------------------------------------------------
# tuning by cross-validation on the training rows
# ---------------------------------------------------------------------------

# the DecisionTree parameters that --prune pre searches, and the values of
# its two size limits; its max_depth range comes from the data
# (pre_pruning_grid)
PRE_PRUNING_PARAMS = ("max_depth", "min_samples_split", "min_samples_leaf")
PRE_PRUNING_SIZES = {"min_samples_split": range(2, 5), "min_samples_leaf": range(1, 3)}


def pre_pruning_grid(X, y, criterion):
    """The grid --prune pre searches on (X, y): max_depth from 1 to the
    depth of the tree grown on all of (X, y), as cv_ccp_alpha takes its
    candidates from that tree's path (1 alone when the tree is one leaf),
    and PRE_PRUNING_SIZES."""
    depth = DecisionTree(criterion).fit(X, y).depth_
    return {"max_depth": range(1, max(depth, 1) + 1), **PRE_PRUNING_SIZES}


def _truncation(tree, max_depth, min_samples_split):
    """Mask of the nodes that are leaves of the tree a refit at max_depth and
    min_samples_split grows, given a tree grown at no smaller max_depth and
    no larger min_samples_split (and the same min_samples_leaf)."""
    leaf = tree.is_leaf | (tree.class_counts.sum(axis=1) < min_samples_split)
    if max_depth is not None:
        leaf |= tree.depth >= max_depth
    return leaf


def _cv_choice(X, y, k_folds, seed, grow, groups, size):
    """The candidate with the best stratified k-fold CV mean accuracy, and
    that accuracy.

    groups maps a key to the candidates scored on the tree grow(rows, key)
    grows; grow returns that FlatTree and a function from a candidate to
    the mask of the tree's nodes that are the candidate's leaves. Each fold
    grows each group's tree once and routes its held-out rows down it once.
    Fold scores are averaged as cv_accuracy averages them, and ties go to
    the least size(candidate), the smaller tree.
    """
    folds = stratified_kfold_indices(y, k_folds, seed)
    scored = []
    for key, candidates in groups.items():
        scores = [[] for _ in candidates]
        for train_idx, test_idx in folds:
            tree, leaves_of = grow(train_idx, key)
            paths = np.stack(tree.levels(X[test_idx]), axis=1)
            for candidate, fold_scores in zip(candidates, scores):
                pred = tree.labels_at(paths, leaves_of(candidate))
                fold_scores.append(float(np.mean(pred == y[test_idx])))
        scored += [(float(np.mean(s)), c) for c, s in zip(candidates, scores)]
    score, best = min(scored, key=lambda pair: (-pair[0], size(pair[1])))
    return best, score


def grid_search(X, y, criterion, grid, k_folds, seed=0):
    """Exhaustive pre-pruning search by stratified k-fold CV mean accuracy.

    grid maps parameter name -> iterable of values for max_depth,
    min_samples_split and min_samples_leaf. Each fold grows one tree per
    min_samples_leaf, at the largest max_depth and the smallest
    min_samples_split, and scores every setting on its truncation, the tree
    a refit at that setting grows. Ties are broken by smaller max_depth
    (None is unlimited), then larger min_samples_leaf, then smaller
    min_samples_split. Returns (best_params, best_cv_accuracy).
    """
    X, y = check_X_y(X, y)
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    depths, splits, leaf_sizes = (list(grid[name]) for name in PRE_PRUNING_PARAMS)
    if not (depths and splits and leaf_sizes):
        raise ValueError("grid is empty")
    deepest = None if None in depths else max(depths)

    def grow(rows, leaf_size):
        tree = DecisionTree(criterion, deepest, min(splits), leaf_size).fit(
            X[rows], y[rows]
        ).tree_
        return tree, lambda setting: _truncation(tree, *setting[:2])

    best, score = _cv_choice(
        X, y, k_folds, seed, grow,
        {leaf_size: list(product(depths, splits, [leaf_size])) for leaf_size in leaf_sizes},
        lambda setting: (math.inf if setting[0] is None else setting[0], -setting[2],
                         setting[1]),
    )
    return dict(zip(PRE_PRUNING_PARAMS, best)), score


def cv_ccp_alpha(estimator, X, y, k_folds, seed=0):
    """Post-pruning alpha for the DecisionTree estimator by stratified k-fold
    CV mean accuracy, as CART chooses it (Breiman et al. 1984, ch. 3).

    Every tree is the estimator at ccp_alpha 0, with the criterion and limits
    of the tree the alpha prunes. Candidates are the geometric midpoints of
    consecutive distinct alphas on the pruning path of the tree grown on
    all of (X, y); the first is 0, the unpruned tree. Each fold grows one
    tree and takes its path once. A candidate's tree is the path's tree
    after every collapse whose alpha is below the candidate, which is the
    tree a refit at that alpha fits on the fold, so no candidate is refit.
    Ties go to the larger alpha, the smaller tree. Returns (alpha, cv_accuracy).
    """
    X, y = check_X_y(X, y)

    def path_of(rows):
        tree = DecisionTree(**{**estimator.get_params(), "ccp_alpha": 0.0})
        return _pruning_path(tree.fit(X[rows], y[rows]).tree_, len(rows))

    def grow(rows, _):
        path = path_of(rows)
        return path.tree, path.leaves_at

    alphas = np.unique(path_of(np.arange(len(y))).alphas)
    candidates = np.r_[0.0, np.sqrt(alphas[1:-1] * alphas[2:])].tolist()
    return _cv_choice(X, y, k_folds, seed, grow, {None: candidates}, lambda alpha: -alpha)

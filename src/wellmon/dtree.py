"""CART-style binary decision tree with pre- and post-pruning.

Splits compare feature <= threshold going left, with thresholds at midpoints
between consecutive sorted unique values. Splits with zero impurity
reduction are still taken when nothing better exists (needed to solve
XOR-like structure), so an unrestricted fit reaches 100% train accuracy on
consistent data. A node's split search sorts each feature once and scores
all its thresholds as one array expression over the cumulative class
counts (CART, Breiman et al. 1984). gini and entropy of one node are the
one-row case of those array expressions, so a node's impurity and its
candidate children's share one arithmetic. Post-pruning is weakest-link
cost-complexity pruning with R = total weighted misclassification rate.
Both prunings tune by k-fold CV on training rows: grid_search, cv_ccp_alpha.
"""

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .validation import (
    as_query_rows, check_width, check_X_y, cv_accuracy, require_both_classes,
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
    majority class; ties go to 1 (broken).
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

    def node_count(self):
        if self.is_leaf:
            return 1
        return 1 + self.left.node_count() + self.right.node_count()

    def leaf_count(self):
        if self.is_leaf:
            return 1
        return self.left.leaf_count() + self.right.leaf_count()

    def depth(self):
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def copy(self):
        if self.is_leaf:
            return TreeNode(self.class_counts.copy(), self.impurity)
        return TreeNode(
            self.class_counts.copy(),
            self.impurity,
            self.feature,
            self.threshold,
            self.left.copy(),
            self.right.copy(),
        )

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


def _route(node, x):
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def _best_split(X, y, idx, criterion, min_samples_leaf):
    """Best (feature, threshold) minimizing weighted child impurity.

    Candidates are midpoints between consecutive sorted unique values whose
    children both hold at least min_samples_leaf samples. Each feature
    scores all its candidates in one array pass over the cumulative class
    counts; gini/entropy of one node are the one-row case of the same
    expressions, so the weighted impurities are bit-identical to scoring
    them one at a time.
    Tie-break: lowest feature index, then lowest threshold; a candidate
    replaces the best so far only when it is below it by more than 1e-15.
    Only a strict record of a feature's running minimum can pass that test,
    so just those records are compared in ascending order.
    """
    impurity = _ROW_CRITERIA[criterion]
    n = len(idx)
    best = None  # (weighted_impurity, feature, threshold)
    labels = y[idx]
    for f in range(X.shape[1]):
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        ones_cum = np.cumsum(labels[order])
        cut = np.flatnonzero(sv[:-1] < sv[1:])  # split after position i
        n_left = cut + 1
        n_right = n - n_left
        allowed = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        cut, n_left, n_right = cut[allowed], n_left[allowed], n_right[allowed]
        if cut.size == 0:
            continue
        left_ones = ones_cum[cut]
        right_ones = ones_cum[-1] - left_ones
        weighted = (
            n_left * impurity(n_left - left_ones, left_ones, n_left)
            + n_right * impurity(n_right - right_ones, right_ones, n_right)
        ) / n
        running = np.minimum.accumulate(weighted)
        records = np.flatnonzero(np.r_[True, running[1:] < running[:-1]])
        for r in records:
            if best is None or weighted[r] < best[0] - 1e-15:
                i = cut[r]
                best = (weighted[r], f, 0.5 * (sv[i] + sv[i + 1]))
    return best


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
        root = self._grow(X, y, np.arange(len(y)), depth=0)
        if self.ccp_alpha > 0:
            root = prune_tree(root, self.ccp_alpha)
        self.root_ = root
        self.n_features_in_ = X.shape[1]
        return self

    def _grow(self, X, y, idx, depth):
        counts = np.array(
            [np.sum(y[idx] == 0), np.sum(y[idx] == 1)], dtype=np.float64
        )
        impurity = _CRITERIA[self.criterion](counts)
        leaf = TreeNode(counts, impurity)
        if (
            counts[0] == 0
            or counts[1] == 0
            or len(idx) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return leaf
        best = _best_split(X, y, idx, self.criterion, self.min_samples_leaf)
        if best is None:
            return leaf
        _, feature, threshold = best
        mask = X[idx, feature] <= threshold
        leaf.feature = feature
        leaf.threshold = threshold
        leaf.left = self._grow(X, y, idx[mask], depth + 1)
        leaf.right = self._grow(X, y, idx[~mask], depth + 1)
        return leaf

    def predict(self, X):
        check_is_fitted(self, "root_")
        X, single = as_query_rows(X, self.n_features_in_)
        labels = self._predict_rows(X)
        return int(labels[0]) if single else labels

    def _predict_rows(self, X):
        """predict of 2-D float64 rows already screened finite."""
        X = check_width(X, self.n_features_in_)
        return np.array([_route(self.root_, x).predicted for x in X], dtype=np.int64)

    @property
    def depth_(self):
        check_is_fitted(self, "root_")
        return self.root_.depth()

    @property
    def n_nodes_(self):
        check_is_fitted(self, "root_")
        return self.root_.node_count()

    def save(self, path):
        check_is_fitted(self, "root_")
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
        model.root_ = TreeNode.from_dict(payload["tree"])
        model.n_features_in_ = payload["n_features"]
        return model


# ---------------------------------------------------------------------------
# cost-complexity pruning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PruningPath:
    """Nested tree sequence indexed by ascending alpha thresholds."""

    alphas: tuple
    node_counts: tuple
    depths: tuple
    trees: tuple = field(repr=False, default=())

    def __post_init__(self):
        for a, b in zip(self.node_counts, self.node_counts[1:]):
            if b > a:
                raise ValueError("node counts must be non-increasing along the path")

    def entries(self):
        return list(zip(self.alphas, self.node_counts, self.depths))

    def tree_at(self, alpha):
        """The tree after every collapse whose alpha is below alpha; for
        alpha > 0 that is prune_tree(trees[0], alpha)."""
        return self.trees[bisect_left(self.alphas, alpha, lo=1) - 1]


def _leaf_risk(node, n_total):
    """Weighted misclassification rate of the node collapsed to a leaf."""
    return float(node.n_samples - node.class_counts.max()) / n_total


def _subtree_risk(node, n_total):
    if node.is_leaf:
        return _leaf_risk(node, n_total)
    return _subtree_risk(node.left, n_total) + _subtree_risk(node.right, n_total)


def _weakest_link(node, n_total):
    """(alpha_eff, node) over internal nodes; first minimum in preorder."""
    if node.is_leaf:
        return None
    alpha = (_leaf_risk(node, n_total) - _subtree_risk(node, n_total)) / (
        node.leaf_count() - 1
    )
    best = (alpha, node)
    for child in (node.left, node.right):
        candidate = _weakest_link(child, n_total)
        if candidate is not None and candidate[0] < best[0] - 1e-15:
            best = candidate
    return best


def _collapse(node):
    node.feature = None
    node.threshold = None
    node.left = None
    node.right = None


def prune_tree(root, ccp_alpha):
    """Collapse weakest links while their effective alpha is < ccp_alpha."""
    root = root.copy()
    n_total = root.n_samples
    while not root.is_leaf:
        alpha, node = _weakest_link(root, n_total)
        if alpha >= ccp_alpha:
            break
        _collapse(node)
    return root


def ccp_path(tree, X_train, y_train) -> PruningPath:
    """Weakest-link pruning path of a fitted tree on its training data.

    Node class counts are re-tabulated from (X_train, y_train), so the path
    risk R is always consistent with the data passed in. The first entry is
    always (0, original tree); each collapse adds one entry at its effective
    alpha, clamped so the alpha sequence is non-decreasing. At tied alphas
    the last entry holds the tree valid just beyond that alpha.
    """
    root = tree.root_ if isinstance(tree, DecisionTree) else tree
    X_train, y_train = check_X_y(X_train, y_train)
    root = _retabulate(root, X_train, y_train)
    n_total = len(y_train)
    alphas = [0.0]
    trees = [root.copy()]
    current = root.copy()
    while not current.is_leaf:
        alpha, node = _weakest_link(current, n_total)
        _collapse(node)
        alphas.append(max(alpha, alphas[-1]))
        trees.append(current.copy())
    return PruningPath(
        alphas=tuple(alphas),
        node_counts=tuple(t.node_count() for t in trees),
        depths=tuple(t.depth() for t in trees),
        trees=tuple(trees),
    )


def _retabulate(root, X, y):
    root = root.copy()

    def fill(node, idx):
        node.class_counts = np.array(
            [np.sum(y[idx] == 0), np.sum(y[idx] == 1)], dtype=np.float64
        )
        if not node.is_leaf:
            mask = X[idx, node.feature] <= node.threshold
            fill(node.left, idx[mask])
            fill(node.right, idx[~mask])

    fill(root, np.arange(len(y)))
    return root


# ---------------------------------------------------------------------------
# tuning by cross-validation on the training rows
# ---------------------------------------------------------------------------

# hyperparameter ranges used for pre-pruning, per transform and criterion
PRE_PRUNING_GRIDS = {
    ("std", "entropy"): {"max_depth": range(2, 14), "min_samples_split": range(2, 5),
                         "min_samples_leaf": range(1, 3)},
    ("std", "gini"): {"max_depth": range(2, 14), "min_samples_split": range(2, 5),
                      "min_samples_leaf": range(1, 3)},
    ("cov", "entropy"): {"max_depth": range(2, 6), "min_samples_split": range(2, 5),
                         "min_samples_leaf": range(1, 3)},
    ("cov", "gini"): {"max_depth": range(2, 7), "min_samples_split": range(2, 5),
                      "min_samples_leaf": range(1, 3)},
    ("cov_pca4", "entropy"): {"max_depth": range(2, 9), "min_samples_split": range(2, 5),
                              "min_samples_leaf": range(1, 3)},
    ("cov_pca4", "gini"): {"max_depth": range(2, 9), "min_samples_split": range(2, 5),
                           "min_samples_leaf": range(1, 3)},
}


def grid_search(X, y, criterion, grid, k_folds, seed=0):
    """Exhaustive pre-pruning search by stratified k-fold CV mean accuracy.

    grid maps parameter name -> iterable of values for max_depth,
    min_samples_split and min_samples_leaf. Ties are broken by smaller
    max_depth, then larger min_samples_leaf, then smaller min_samples_split.
    Returns (best_params, best_cv_accuracy).
    """
    X, y = check_X_y(X, y)
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    names = ("max_depth", "min_samples_split", "min_samples_leaf")
    values = [list(grid[name]) for name in names]
    if any(len(v) == 0 for v in values):
        raise ValueError("grid is empty")
    folds = stratified_kfold_indices(y, k_folds, seed)
    best_key = None
    best = None
    for combo in product(*values):
        params = dict(zip(names, combo))
        score = cv_accuracy(
            lambda: DecisionTree(criterion=criterion, **params), X, y, folds
        )
        key = (
            -score,
            params["max_depth"],
            -params["min_samples_leaf"],
            params["min_samples_split"],
        )
        if best_key is None or key < best_key:
            best_key = key
            best = (params, score)
    return best


def cv_ccp_alpha(X, y, criterion, k_folds, seed=0):
    """Post-pruning alpha by stratified k-fold CV mean accuracy, as CART
    chooses it (Breiman et al. 1984, ch. 3).

    Candidates are the geometric midpoints of consecutive distinct alphas
    on the pruning path of the tree grown on all of (X, y); the first is 0,
    the unpruned tree. Each fold grows one tree and takes its path once. A
    candidate's tree is the path's tree after every collapse whose alpha
    is below the candidate, which is what prune_tree(fold_root, candidate)
    gives, so no candidate is refit. Ties go to the larger alpha, the
    smaller tree. Returns (alpha, cv_accuracy).
    """
    X, y = check_X_y(X, y)
    folds = stratified_kfold_indices(y, k_folds, seed)
    alphas = np.unique(ccp_path(DecisionTree(criterion).fit(X, y), X, y).alphas)
    candidates = np.r_[0.0, np.sqrt(alphas[1:-1] * alphas[2:])]
    scores = np.empty((len(folds), len(candidates)))
    for f, (train_idx, test_idx) in enumerate(folds):
        fold_tree = DecisionTree(criterion).fit(X[train_idx], y[train_idx])
        path = ccp_path(fold_tree, X[train_idx], y[train_idx])
        for c, alpha in enumerate(candidates):
            tree = path.tree_at(alpha)
            pred = np.array([_route(tree, x).predicted for x in X[test_idx]])
            scores[f, c] = np.mean(pred == y[test_idx])
    # averaged one column at a time, in the order cv_accuracy sums its folds
    means = [float(np.mean(column)) for column in scores.T]
    best = max(range(len(candidates)), key=lambda c: (means[c], c))
    return float(candidates[best]), means[best]

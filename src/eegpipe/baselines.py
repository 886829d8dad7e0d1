"""Classical baselines: softmax regression, CART, random forest,
one-vs-rest linear SVM, and depth-limited gradient boosting.

Everything is built on numpy with deterministic, seeded training. Every
predict_* returns class ids only: the argmax of the model's own scores,
ties to the lowest class id. Trees are flat arrays grown by one iterative
grower and walked one depth level at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .nn import softmax_cross_entropy_batch


# ---------------------------------------------------------------------------
# logistic regression (softmax + L2, full-batch gradient descent)


@dataclass
class LinearModel:
    W: np.ndarray  # [classes, features]
    b: np.ndarray  # [classes]


def logistic_loss_grad(W, b, X, y, l2: float):
    """Mean cross-entropy with L2 weight decay (bias excluded) and its gradient."""
    n = len(y)
    losses, delta = softmax_cross_entropy_batch(X @ W.T + b, y)
    loss = float(np.mean(losses)) + 0.5 * l2 * float(np.sum(W * W))
    gW = delta.T @ X / n + l2 * W
    gb = delta.sum(axis=0) / n
    return loss, gW, gb


def fit_logistic(
    X, y, n_classes: int, learning_rate: float = 0.5, iterations: int = 500, l2: float = 1e-4
) -> LinearModel:
    """Softmax regression by full-batch gradient descent from zero weights."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if n_classes < 2:
        raise ConfigError("need at least 2 classes")
    W = np.zeros((n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    for _ in range(iterations):
        loss, gW, gb = logistic_loss_grad(W, b, X, y, l2)
        if not math.isfinite(loss):
            raise NumericError("logistic regression diverged (non-finite loss)")
        W -= learning_rate * gW
        b -= learning_rate * gb
    return LinearModel(W, b)


def predict_logistic(model: LinearModel, X):
    """Argmax of the class scores X @ W.T + b."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return (X @ model.W.T + model.b).argmax(axis=1)


# ---------------------------------------------------------------------------
# CART


@dataclass
class Tree:
    """Flat binary tree, nodes in depth-first, left-child-first order.

    Node i splits on X[:, feature[i]] <= threshold[i] into left[i] and
    right[i]; both are -1 at a leaf. leaf[i] is the node's output:
    [n_nodes, classes] probabilities for a classification tree, [n_nodes]
    Newton values for a regression tree. Prediction reads it at leaves.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf: np.ndarray


def _grow(X, n_rows: int, max_depth: int, min_leaf: int, find_split, leaf_value) -> Tree:
    """Grow a tree over rows 0..n_rows-1 of X with an explicit stack.

    A node below max_depth with at least 2*min_leaf rows asks
    find_split(idx) for a (feature, threshold, score) split or None;
    leaf_value(idx) gives every node's output. The right child is pushed
    before the left, so nodes (and any random draws inside find_split)
    come in depth-first, left-first order: a left child is always the
    node right after its parent.
    """
    feature, threshold, left, right, leaf = [], [], [], [], []
    stack = [(np.arange(n_rows), 0, -1)]  # rows, depth, parent if a right child
    while stack:
        idx, depth, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        split = None
        if depth < max_depth and len(idx) >= 2 * min_leaf:
            split = find_split(idx)
        f, thr = (-1, 0.0) if split is None else split[:2]
        feature.append(f)
        threshold.append(thr)
        left.append(-1 if split is None else node + 1)
        right.append(-1)
        leaf.append(leaf_value(idx))
        if split is not None:
            mask = X[idx, f] <= thr
            stack.append((idx[~mask], depth + 1, node))
            stack.append((idx[mask], depth + 1, -1))
    return Tree(np.array(feature), np.array(threshold), np.array(left),
                np.array(right), np.array(leaf))


def _tree_outputs(tree: Tree, X) -> np.ndarray:
    """Leaf output of every row of X: [n, classes] probabilities for a
    classification tree, [n] values for a regression tree.

    All rows move down one depth level per pass, one comparison
    X[row, feature] <= threshold per row still at a split node, so rows
    equal to a threshold go left.
    """
    node = np.zeros(len(X), dtype=np.intp)
    rows, at = np.arange(len(X)), node  # rows still moving and their nodes
    while True:
        inner = tree.left[at] >= 0
        rows, at = rows[inner], at[inner]
        if not rows.size:
            return tree.leaf[node]
        go_left = X[rows, tree.feature[at]] <= tree.threshold[at]
        at = np.where(go_left, tree.left[at], tree.right[at])
        node[rows] = at


def _gini_sum(counts: np.ndarray, n: int) -> float:
    """n * gini(counts) = n - sum(c^2)/n, from integer class counts."""
    return n - float(np.sum(counts.astype(float) ** 2)) / n


def _best_prefix_split(X, feature_indices, min_leaf: int, side_scores, bound: float,
                       order=None):
    """Exact prefix-sum split scan shared by the Gini and MSE splitters.

    Each column of X (restricted to feature_indices, in that order) is
    stable-sorted, unless `order`, the [d, n] stable sort order of X's
    columns (one row per column), is given; side_scores(order, n_left)
    maps that order and the [n-1] left-side sizes to the [d, n-1] scores
    of splitting after each sorted position. A position is a candidate
    only when its value differs from the next one, both sides hold at
    least min_leaf rows and its score is below bound. argmin over the
    feature-major scores takes the first minimum, so ties go to the lower
    feature, then the lower threshold. Returns (feature, threshold, score)
    or None.
    """
    if feature_indices is not None:
        X = X[:, feature_indices]
    n, d = X.shape
    if n < 2 or d == 0:
        return None
    if order is None:
        order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take(X, order * d + np.arange(d)[:, None])  # xs[j, i] = X[order[j, i], j]
    n_left = np.arange(1, n, dtype=float)
    scores = side_scores(order, n_left)
    sizes_ok = (n_left >= min_leaf) & (n - n_left >= min_leaf)
    ok = (xs[:, :-1] != xs[:, 1:]) & sizes_ok & (scores < bound)
    scores = np.where(ok, scores, np.inf)
    j, i = divmod(int(np.argmin(scores)), n - 1)
    if not ok[j, i]:
        return None
    feature = j if feature_indices is None else feature_indices[j]
    return int(feature), float((xs[j, i] + xs[j, i + 1]) / 2.0), float(scores[j, i])


def _node_order(order, idx):
    """The [d, len(idx)] stable column order of X[idx], from the [d, n] one
    of X; idx is ascending.

    Filtering each column's order to the node's rows keeps their relative
    order, and a stable sort breaks ties by row, so this equals sorting
    X[idx] afresh.
    """
    d, n = order.shape
    if len(idx) == n:
        return order
    local = np.full(n, -1)
    local[idx] = np.arange(len(idx))
    node = local[order]
    return node[node >= 0].reshape(d, len(idx))


def best_gini_split(X, y, n_classes: int, min_leaf: int, feature_indices=None):
    """Exhaustive scan for the split minimizing the weighted Gini impurity.

    Candidate thresholds are midpoints between consecutive distinct
    sorted values. Ties are broken by lower feature index, then lower
    threshold (the scan accepts strict improvements only). Returns
    (feature, threshold, score) or None if no split beats the parent.
    """
    n = len(y)
    counts_total = np.bincount(y, minlength=n_classes)

    def side_scores(order, n_left):
        ys = y[order]
        n_right = n - n_left
        sq_left = np.zeros((ys.shape[0], n - 1))
        sq_right = np.zeros((ys.shape[0], n - 1))
        for c in range(n_classes):
            left = np.cumsum(ys[:, :-1] == c, axis=1)
            sq_left += left.astype(float) ** 2
            sq_right += (counts_total[c] - left).astype(float) ** 2
        return (n_left - sq_left / n_left) + (n_right - sq_right / n_right)

    return _best_prefix_split(
        X, feature_indices, min_leaf, side_scores, _gini_sum(counts_total, n)
    )


def fit_tree(
    X,
    y,
    n_classes: int,
    max_depth: int = 12,
    min_leaf: int = 1,
    rng: np.random.Generator | None = None,
    max_features: int | None = None,
) -> Tree:
    """Grow a CART classification tree with Gini impurity.

    When rng/max_features are given, each split considers a random
    feature subset (used by the random forest). A pure node is a leaf
    and draws no subset.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise DataError("cannot fit a tree on an empty dataset")
    subsample = max_features is not None and max_features < X.shape[1]

    def find_split(idx):
        if np.all(y[idx] == y[idx[0]]):
            return None
        feats = None
        if subsample:
            feats = np.sort(rng.choice(X.shape[1], size=max_features, replace=False))
        return best_gini_split(X[idx], y[idx], n_classes, min_leaf, feats)

    def leaf_value(idx):
        return np.bincount(y[idx], minlength=n_classes) / len(idx)

    return _grow(X, len(y), max_depth, min_leaf, find_split, leaf_value)


# ---------------------------------------------------------------------------
# random forest


@dataclass
class ForestModel:
    trees: list[Tree]
    n_classes: int


def fit_forest(
    X,
    y,
    n_classes: int,
    n_trees: int = 100,
    max_depth: int = 12,
    feature_subsample: float | None = None,
    bootstrap: bool = True,
    min_leaf: int = 1,
    seed: int = 0,
) -> ForestModel:
    """Bootstrap-aggregated CART trees with per-split feature subsampling.

    feature_subsample is the fraction of features per split; the default
    None means sqrt(n_features). Per-tree seeds are pre-assigned so the
    result does not depend on fitting order.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if n_trees < 1:
        raise ConfigError("n_trees must be >= 1")
    n, d = X.shape
    if feature_subsample is None:
        max_features = max(1, int(round(math.sqrt(d))))
    elif feature_subsample >= 1.0:
        max_features = None
    else:
        max_features = max(1, int(round(feature_subsample * d)))
    seeds = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for ss in seeds:
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(
            fit_tree(
                X[idx], y[idx], n_classes, max_depth, min_leaf,
                rng=rng, max_features=max_features,
            )
        )
    return ForestModel(trees, n_classes)


def predict_forest(model: ForestModel, X):
    """Argmax of the trees' summed leaf probabilities."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    votes = np.zeros((len(X), model.n_classes))
    for tree in model.trees:
        votes += _tree_outputs(tree, X)
    return votes.argmax(axis=1)


# ---------------------------------------------------------------------------
# linear SVM (one-vs-rest hinge, averaged stochastic subgradient)


def fit_linear_svm(
    X, y, n_classes: int, c: float = 1.0, epochs: int = 50, seed: int = 0
) -> LinearModel:
    """One-vs-rest hinge loss via seeded SGD with iterate averaging.

    Objective per class: lambda/2 ||w||^2 + mean hinge, lambda = 1/(c*n).
    The returned weights are the average over all SGD iterates, which
    stabilizes the final decision rule.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n, d = X.shape
    lam = 1.0 / (c * n)
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    W_avg = np.zeros_like(W)
    b_avg = np.zeros_like(b)
    rng = np.random.default_rng(seed)
    all_targets = np.where(np.arange(n_classes) == y[:, None], 1.0, -1.0)  # [n, classes] of +-1
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            xi, targets = X[i], all_targets[i]
            active = targets * (W @ xi + b) < 1.0
            W *= 1.0 - eta * lam
            if active.any():
                W[active] += eta * np.outer(targets[active], xi)
                b[active] += eta * targets[active]
            W_avg += W
            b_avg += b
    return LinearModel(W_avg / t, b_avg / t)


predict_svm = predict_logistic  # the same argmax of linear class scores


# ---------------------------------------------------------------------------
# gradient boosting (one-vs-rest logistic loss, depth-limited MSE trees)


@dataclass
class BoostModel:
    init_scores: np.ndarray  # [classes], log-odds of the class priors
    trees: list[list[Tree]]  # per round, one regression tree per class
    learning_rate: float
    n_classes: int


def best_mse_split(X, g, min_leaf: int, order=None):
    """Variance-reduction split for regression targets g; same tie rules as
    Gini, and a split must beat the parent by more than 1e-12. A constant
    target has no variance to reduce, so it is never split. `order`, when
    given, is the [d, n] stable sort order of X's columns."""
    n = len(g)
    if n < 2 or (g == g[0]).all():
        return None
    total = float(np.sum(g))
    total_sq = float(np.sum(g * g))
    parent = total_sq - total * total / n

    def side_scores(order, n_left):
        s = np.cumsum(g[order][:, :-1], axis=1)
        return total_sq - s * s / n_left - (total - s) ** 2 / (n - n_left)

    return _best_prefix_split(X, None, min_leaf, side_scores, parent - 1e-12, order)


def _fit_regression_tree(X, residual, hessian, max_depth: int, min_leaf: int, order) -> Tree:
    """Regression tree on residuals; leaf value is the Newton step
    sum(residual) / sum(hessian). `order` is the [d, n] stable sort order
    of X's columns, from which each node's own order is derived."""

    def find_split(idx):
        g = residual[idx]
        if (g == g[0]).all():  # best_mse_split returns None before it reads an order
            return best_mse_split(X[idx], g, min_leaf)
        return best_mse_split(X[idx], g, min_leaf, _node_order(order, idx))

    def leaf_value(idx):
        return float(residual[idx].sum()) / max(float(hessian[idx].sum()), 1e-12)

    return _grow(X, len(residual), max_depth, min_leaf, find_split, leaf_value)


def fit_boosting(
    X,
    y,
    n_classes: int,
    n_rounds: int = 100,
    max_depth: int = 3,
    learning_rate: float = 0.1,
    min_leaf: int = 1,
) -> BoostModel:
    """Gradient boosting with one-vs-rest logistic loss.

    Scores start at the log-odds of the class priors; each round fits
    one regression tree per class to the negative gradient (y_c - p_c)
    with Newton leaf values, added with the learning rate. Fitting is
    deterministic.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if n_rounds < 0:
        raise ConfigError("n_rounds must be >= 0")
    n = len(y)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    priors = np.clip(onehot.mean(axis=0), 1e-12, 1.0 - 1e-12)
    init_scores = np.log(priors / (1.0 - priors))
    F = np.tile(init_scores, (n, 1))
    order = np.argsort(X.T, axis=1, kind="stable")  # once: every tree splits rows of X
    rounds: list[list[Tree]] = []
    for _ in range(n_rounds):
        per_class = []
        for cidx in range(n_classes):
            p = 1.0 / (1.0 + np.exp(-F[:, cidx]))
            residual = onehot[:, cidx] - p
            hessian = p * (1.0 - p)
            tree = _fit_regression_tree(X, residual, hessian, max_depth, min_leaf, order)
            F[:, cidx] += learning_rate * _tree_outputs(tree, X)
            per_class.append(tree)
        rounds.append(per_class)
    return BoostModel(init_scores, rounds, learning_rate, n_classes)


def boost_scores(model: BoostModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    F = np.tile(model.init_scores, (len(X), 1))
    for per_class in model.trees:
        for cidx, tree in enumerate(per_class):
            F[:, cidx] += model.learning_rate * _tree_outputs(tree, X)
    return F


def predict_boost(model: BoostModel, X):
    return boost_scores(model, X).argmax(axis=1)

"""Classical baselines: softmax regression, CART, random forest,
one-vs-rest linear SVM, and depth-limited gradient boosting.

Everything is built on numpy with deterministic, seeded training. All
classifiers expose predict_* returning (class ids, probability matrix)
with rows on the simplex, and every model serializes to versioned JSON
with an exact roundtrip.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .nn import softmax

MODEL_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# logistic regression (softmax + L2, full-batch gradient descent)


@dataclass
class LinearModel:
    kind: str  # "logistic" | "svm"
    W: np.ndarray  # [classes, features]
    b: np.ndarray  # [classes]


def logistic_loss_grad(W, b, X, y, l2: float):
    """Mean cross-entropy with L2 weight decay (bias excluded) and its gradient."""
    n = len(y)
    probs = softmax(X @ W.T + b)
    eps = 1e-300
    loss = -float(np.mean(np.log(probs[np.arange(n), y] + eps)))
    loss += 0.5 * l2 * float(np.sum(W * W))
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
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
    return LinearModel("logistic", W, b)


def predict_logistic(model: LinearModel, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    probs = softmax(X @ model.W.T + model.b)
    return np.argmax(probs, axis=1), probs


# ---------------------------------------------------------------------------
# CART


@dataclass
class TreeNode:
    """Split node (feature/threshold/children) or leaf (probs/value)."""

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    probs: np.ndarray | None = None  # classification leaf
    value: float | None = None  # regression leaf

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini_sum(counts: np.ndarray, n: int) -> float:
    """n * gini(counts) = n - sum(c^2)/n, from integer class counts."""
    return n - float(np.sum(counts.astype(float) ** 2)) / n


def _best_prefix_split(X, feature_indices, min_leaf: int, side_scores, bound: float):
    """Exact prefix-sum split scan shared by the Gini and MSE splitters.

    Each column of X (restricted to feature_indices, in that order) is
    stable-sorted; side_scores(order, n_left) maps the [n, d] sort order
    and the [n-1, 1] left-side sizes to the [n-1, d] scores of splitting
    after each sorted position. A position is a candidate only when its
    value differs from the next one, both sides hold at least min_leaf
    rows and its score is below bound. argmin over the feature-major array
    takes the first minimum, so ties go to the lower feature, then the
    lower threshold. Returns (feature, threshold, score) or None.
    """
    if feature_indices is not None:
        X = X[:, feature_indices]
    n, d = X.shape
    if n < 2 or d == 0:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    n_left = np.arange(1, n, dtype=float)[:, None]
    scores = side_scores(order, n_left)
    sizes_ok = (n_left >= min_leaf) & (n - n_left >= min_leaf)
    ok = (xs[:-1] != xs[1:]) & sizes_ok & (scores < bound)
    scores = np.where(ok, scores, np.inf).T
    j, i = divmod(int(np.argmin(scores)), n - 1)
    if not ok[i, j]:
        return None
    feature = j if feature_indices is None else feature_indices[j]
    return int(feature), float((xs[i, j] + xs[i + 1, j]) / 2.0), float(scores[j, i])


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
        sq_left = np.zeros((n - 1, ys.shape[1]))
        sq_right = np.zeros((n - 1, ys.shape[1]))
        for c in range(n_classes):
            left = np.cumsum(ys[:-1] == c, axis=0)
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
) -> TreeNode:
    """Grow a CART classification tree with Gini impurity.

    When rng/max_features are given, each split considers a random
    feature subset (used by the random forest).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise DataError("cannot fit a tree on an empty dataset")

    def grow(idx, depth):
        counts = np.bincount(y[idx], minlength=n_classes)
        node_n = len(idx)
        if depth >= max_depth or node_n < 2 * min_leaf or np.max(counts) == node_n:
            return TreeNode(probs=counts / node_n)
        if max_features is not None and max_features < X.shape[1]:
            feats = np.sort(rng.choice(X.shape[1], size=max_features, replace=False))
        else:
            feats = None
        split = best_gini_split(X[idx], y[idx], n_classes, min_leaf, feats)
        if split is None:
            return TreeNode(probs=counts / node_n)
        f, thr, _ = split
        mask = X[idx, f] <= thr
        return TreeNode(
            feature=f,
            threshold=thr,
            left=grow(idx[mask], depth + 1),
            right=grow(idx[~mask], depth + 1),
        )

    return grow(np.arange(len(y)), 0)


def _tree_outputs(tree: TreeNode, X) -> np.ndarray:
    """Leaf output of every row of X: [n, classes] probabilities for a
    classification tree, [n] values for a regression tree.

    Rows are routed down the tree as index arrays, one comparison
    X[idx, feature] <= threshold per split node, so rows equal to a
    threshold go left.
    """
    out = None
    stack = [(tree, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            leaf = node.value if node.probs is None else node.probs
            if out is None:
                out = np.empty((len(X),) + np.shape(leaf))
            out[idx] = leaf
            continue
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.right, idx[~go_left]))
        stack.append((node.left, idx[go_left]))
    return out


def predict_tree(tree: TreeNode, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    probs = _tree_outputs(tree, X)
    return np.argmax(probs, axis=1), probs


# ---------------------------------------------------------------------------
# random forest


@dataclass
class ForestModel:
    trees: list[TreeNode]
    n_classes: int
    seed: int


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
    return ForestModel(trees, n_classes, seed)


def predict_forest(model: ForestModel, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    probs = np.zeros((len(X), model.n_classes))
    for tree in model.trees:
        probs += _tree_outputs(tree, X)
    probs /= len(model.trees)
    return np.argmax(probs, axis=1), probs


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
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            xi = X[i]
            targets = np.where(np.arange(n_classes) == y[i], 1.0, -1.0)
            margins = targets * (W @ xi + b)
            active = margins < 1.0
            W *= 1.0 - eta * lam
            if np.any(active):
                W[active] += (eta / 1.0) * np.outer(targets[active], xi)
                b[active] += eta * targets[active]
            W_avg += W
            b_avg += b
    return LinearModel("svm", W_avg / t, b_avg / t)


def svm_hinge_loss(model: LinearModel, X, y) -> float:
    """Mean one-vs-rest hinge loss of a fitted model (no regularizer)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    scores = X @ model.W.T + model.b
    targets = np.where(np.arange(model.W.shape[0])[None, :] == y[:, None], 1.0, -1.0)
    return float(np.mean(np.maximum(0.0, 1.0 - targets * scores)))


def predict_svm(model: LinearModel, X):
    """Argmax margin; probabilities are a softmax over margins for reporting."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    scores = X @ model.W.T + model.b
    probs = softmax(scores)
    return np.argmax(scores, axis=1), probs


# ---------------------------------------------------------------------------
# gradient boosting (one-vs-rest logistic loss, depth-limited MSE trees)


@dataclass
class BoostModel:
    init_scores: np.ndarray  # [classes], log-odds of the class priors
    trees: list[list[TreeNode]]  # per round, one regression tree per class
    learning_rate: float
    n_classes: int


def best_mse_split(X, g, min_leaf: int):
    """Variance-reduction split for regression targets g; same tie rules as
    Gini, and a split must beat the parent by more than 1e-12."""
    n = len(g)
    total = float(np.sum(g))
    total_sq = float(np.sum(g * g))
    parent = total_sq - total * total / n

    def side_scores(order, n_left):
        s = np.cumsum(g[order][:-1], axis=0)
        return total_sq - s * s / n_left - (total - s) ** 2 / (n - n_left)

    return _best_prefix_split(X, None, min_leaf, side_scores, parent - 1e-12)


def _fit_regression_tree(X, residual, hessian, max_depth: int, min_leaf: int) -> TreeNode:
    """Regression tree on residuals; leaf value is the Newton step
    sum(residual) / sum(hessian)."""

    def grow(idx, depth):
        if depth >= max_depth or len(idx) < 2 * min_leaf:
            return _leaf(idx)
        split = best_mse_split(X[idx], residual[idx], min_leaf)
        if split is None:
            return _leaf(idx)
        f, thr, _ = split
        mask = X[idx, f] <= thr
        return TreeNode(
            feature=f,
            threshold=thr,
            left=grow(idx[mask], depth + 1),
            right=grow(idx[~mask], depth + 1),
        )

    def _leaf(idx):
        denom = float(np.sum(hessian[idx]))
        num = float(np.sum(residual[idx]))
        return TreeNode(value=num / max(denom, 1e-12))

    return grow(np.arange(len(residual)), 0)


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
    rounds: list[list[TreeNode]] = []
    for _ in range(n_rounds):
        per_class = []
        for cidx in range(n_classes):
            p = 1.0 / (1.0 + np.exp(-F[:, cidx]))
            residual = onehot[:, cidx] - p
            hessian = p * (1.0 - p)
            tree = _fit_regression_tree(X, residual, hessian, max_depth, min_leaf)
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


def boost_logistic_loss(model: BoostModel, X, y) -> float:
    """Mean one-vs-rest logistic loss of the fitted ensemble."""
    y = np.asarray(y, dtype=int)
    F = boost_scores(model, X)
    onehot = np.zeros_like(F)
    onehot[np.arange(len(y)), y] = 1.0
    # log(1 + exp(-t*F)) with t in {-1, +1}, numerically stable
    t = 2.0 * onehot - 1.0
    z = -t * F
    return float(np.mean(np.logaddexp(0.0, z)))


def predict_boost(model: BoostModel, X):
    """Argmax of per-class scores; probabilities are normalized sigmoids,
    so a 0-round model predicts the class priors exactly."""
    F = boost_scores(model, X)
    sig = 1.0 / (1.0 + np.exp(-F))
    probs = sig / sig.sum(axis=1, keepdims=True)
    return np.argmax(probs, axis=1), probs


# ---------------------------------------------------------------------------
# JSON serialization


def _tree_to_obj(node: TreeNode):
    if node.is_leaf:
        if node.probs is not None:
            return {"probs": [float(p) for p in node.probs]}
        return {"value": float(node.value)}
    return {
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "left": _tree_to_obj(node.left),
        "right": _tree_to_obj(node.right),
    }


def _tree_from_obj(obj) -> TreeNode:
    if "probs" in obj:
        return TreeNode(probs=np.asarray(obj["probs"], dtype=float))
    if "value" in obj:
        return TreeNode(value=float(obj["value"]))
    return TreeNode(
        feature=int(obj["feature"]),
        threshold=float(obj["threshold"]),
        left=_tree_from_obj(obj["left"]),
        right=_tree_from_obj(obj["right"]),
    )


def save_model(model, path: str) -> None:
    """Write any baseline model as versioned JSON."""
    if isinstance(model, LinearModel):
        doc = {
            "type": model.kind,
            "W": model.W.tolist(),
            "b": model.b.tolist(),
        }
    elif isinstance(model, TreeNode):
        doc = {"type": "tree", "root": _tree_to_obj(model)}
    elif isinstance(model, ForestModel):
        doc = {
            "type": "forest",
            "n_classes": model.n_classes,
            "seed": model.seed,
            "trees": [_tree_to_obj(t) for t in model.trees],
        }
    elif isinstance(model, BoostModel):
        doc = {
            "type": "boost",
            "n_classes": model.n_classes,
            "learning_rate": model.learning_rate,
            "init_scores": model.init_scores.tolist(),
            "rounds": [[_tree_to_obj(t) for t in rnd] for rnd in model.trees],
        }
    else:
        raise ConfigError(f"cannot serialize model of type {type(model).__name__}")
    doc["format_version"] = MODEL_FORMAT_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {doc.get('format_version')}")
    kind = doc["type"]
    if kind in ("logistic", "svm"):
        return LinearModel(kind, np.asarray(doc["W"], dtype=float), np.asarray(doc["b"], dtype=float))
    if kind == "tree":
        return _tree_from_obj(doc["root"])
    if kind == "forest":
        return ForestModel(
            [_tree_from_obj(t) for t in doc["trees"]], doc["n_classes"], doc["seed"]
        )
    if kind == "boost":
        return BoostModel(
            np.asarray(doc["init_scores"], dtype=float),
            [[_tree_from_obj(t) for t in rnd] for rnd in doc["rounds"]],
            doc["learning_rate"],
            doc["n_classes"],
        )
    raise DataError(f"unknown model type {kind!r}")

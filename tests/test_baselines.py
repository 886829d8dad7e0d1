import math
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegpipe import baselines


def blob_dataset(seed=0, n=40, gap=4.0):
    """Two well-separated Gaussian blobs in 2D."""
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0, 0.5, size=(n, 2))
    X1 = rng.normal(gap, 0.5, size=(n, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * n + [1] * n)
    return X, y


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def same_trees(trees_a, trees_b):
    """Whether two lists of trees hold equal arrays, field by field."""
    return len(trees_a) == len(trees_b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for a, b in zip(trees_a, trees_b) for f in fields(baselines.Tree)
    )


def svm_hinge_loss(model, X, y):
    """Mean one-vs-rest hinge loss of a fitted linear model (no regularizer)."""
    scores = np.asarray(X, dtype=float) @ model.W.T + model.b
    targets = np.where(np.arange(model.W.shape[0])[None, :] == y[:, None], 1.0, -1.0)
    return float(np.mean(np.maximum(0.0, 1.0 - targets * scores)))


def boost_logistic_loss(model, X, y):
    """Mean one-vs-rest logistic loss of a boosted ensemble."""
    F = baselines.boost_scores(model, X)
    t = np.where(np.arange(F.shape[1])[None, :] == y[:, None], 1.0, -1.0)
    return float(np.mean(np.logaddexp(0.0, -t * F)))


def logistic_objective(W, b, X, y, l2):
    """The objective fit_logistic descends, computed here on its own: the mean
    cross-entropy of the scores X @ W.T + b by log-sum-exp, plus
    l2 / 2 * sum(W**2)."""
    scores = X @ W.T + b
    log_z = np.logaddexp.reduce(scores, axis=1)
    return float(np.mean(log_z - scores[np.arange(len(y)), y])) + 0.5 * l2 * float(np.sum(W * W))


def xor_cluster_dataset(n_per_corner=12, noise=0.08, seed=42):
    """XOR-pattern clusters around the four unit-square corners.

    Jitter is needed so the greedy splitters see a strict impurity
    improvement; on the four exact corner points every threshold leaves
    both sides perfectly mixed and no split beats the parent.
    """
    rng = np.random.default_rng(seed)
    X = np.vstack([c + rng.normal(0, noise, size=(n_per_corner, 2)) for c in XOR_X])
    y = np.repeat(XOR_Y, n_per_corner)
    return X, y


class TestLogistic:
    def test_separable_blobs_perfect(self):
        X, y = blob_dataset()
        model = baselines.fit_logistic(X, y, n_classes=2)
        assert np.array_equal(baselines.predict_logistic(model, X), y)

    def test_zero_weights_uniform_probs(self):
        # zero weights, where every fit starts, give every class probability
        # 1/2: the loss is ln 2 and the bias gradient is 1/2 minus each
        # class's share; the scores tie, so every row goes to class 0
        X, y = blob_dataset()
        model = baselines.LinearModel(W=np.zeros((2, X.shape[1])), b=np.zeros(2))
        loss = logistic_objective(model.W, model.b, X, y, l2=1e-4)
        _, gb = baselines.logistic_grad(model.W, model.b, X, y, l2=1e-4)
        assert abs(loss - math.log(2.0)) < 1e-15
        assert np.max(np.abs(gb - (0.5 - np.bincount(y) / len(y)))) < 1e-15
        assert not baselines.predict_logistic(model, X).any()

    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 3))
        y = rng.integers(0, 3, size=12)
        W = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        dW, db = baselines.logistic_grad(W, b, X, y, l2=0.01)
        eps = 1e-6
        for arr, grad in ((W, dW), (b, db)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = logistic_objective(W, b, X, y, l2=0.01)
                flat[i] = orig - eps
                lm = logistic_objective(W, b, X, y, l2=0.01)
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                assert abs(num - gflat[i]) < 1e-7

    def test_loss_decreases(self):
        # the fit starts from zero weights, whose loss is ln 2 (see above)
        X, y = blob_dataset(seed=1)
        model = baselines.fit_logistic(X, y, n_classes=2)
        loss = logistic_objective(model.W, model.b, X, y, l2=1e-4)
        assert loss < math.log(2.0)

    def test_xor_not_linearly_solvable(self):
        # no line classifies more than 3 of the 4 XOR corners, so no linear
        # model, however long it trains, scores above 0.75 on their clusters
        X, y = xor_cluster_dataset()
        model = baselines.fit_logistic(X, y, n_classes=2)
        preds = baselines.predict_logistic(model, X)
        assert np.mean(preds == y) <= 0.75


def brute_force_split(X, criterion, features=None):
    """Independent exhaustive split search over every feature of features (all
    when None), in that order, and every threshold between consecutive
    distinct values: their midpoint, or the lower value where the midpoint
    rounds to the upper one. criterion is (score, bound): score maps the
    [thresholds, rows] masks X[:, j] <= threshold to the score of each
    partition, never through sorted prefix sums, and a split must score below
    bound. Ties go to the lower feature, then the lower threshold."""
    score, bound = criterion
    best = None  # (feature, threshold, score)
    for j in range(X.shape[1]) if features is None else features:
        vals = np.unique(X[:, j])
        mid = (vals[:-1] + vals[1:]) / 2.0
        thr = np.where(mid == vals[1:], vals[:-1], mid)
        scores = score(X[:, j] <= thr[:, None])
        if scores.size and scores.min() < bound:
            i = int(np.argmin(scores))
            best, bound = (j, float(thr[i]), float(scores[i])), scores[i]
    return best


def gini(y, k):
    """The Gini criterion: the scan's float expression (n_l - sq_l / n_l) +
    (n_r - sq_r / n_r) from integer class counts, below the parent's."""
    onehot = np.eye(k, dtype=int)[y]

    def side(counts):
        n = counts.sum(axis=-1).astype(float)
        return n - (counts.astype(float) ** 2).sum(axis=-1) / n

    def score(mask):
        left = mask @ onehot
        return side(left) + side(total - left)

    total = onehot.sum(axis=0)
    return score, side(total)


def mse(g):
    """The variance-reduction criterion from masked sums: a split must beat
    the parent by more than 1e-12 times the larger of 1 and sum(g**2)."""
    total, total_sq = float(np.sum(g)), float(np.sum(g * g))

    def side(mask):
        return (mask @ g) ** 2 / mask.sum(axis=-1)

    parent = total_sq - total * total / len(g)
    return (lambda mask: total_sq - side(mask) - side(~mask)), \
        parent - 1e-12 * max(1.0, total_sq)


# three adjacent floats and 0.5: the midpoint of the first two rounds up to
# the second, that of the second and third down to the second
ADJACENT = np.array([0.3, np.nextafter(0.3, 1), np.nextafter(np.nextafter(0.3, 1), 1), 0.5])


@st.composite
def tie_heavy_split_problem(draw):
    """Features with many ties, each column small integers or ADJACENT,
    labels, integer-valued residuals (so every prefix sum is exact) and a
    random feature subset."""
    n = draw(st.integers(1, 16))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, 3))
    X = np.array(draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))).reshape(n, d)
    adjacent = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    X = np.where(adjacent, ADJACENT[X], X.astype(float))
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    features = draw(st.permutations(range(d)).flatmap(
        lambda p: st.integers(1, d).map(lambda m: list(p[:m]))))
    return X, y, k, g, features


class TestTree:
    def test_pure_node_is_leaf(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        y = np.ones(10, dtype=int)
        tree = baselines.fit_tree(X, y, 2, 12, None, X.shape[1])
        assert tree.left.tolist() == [-1] and tree.right.tolist() == [-1]
        assert tree.leaf.tolist() == [[0.0, 1.0]]

    def test_one_dimensional_midpoint(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        tree = baselines.fit_tree(X, y, 2, 12, None, X.shape[1])
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 2.5
        assert tree.left.tolist() == [1, -1, -1]
        assert tree.right.tolist() == [2, -1, -1]
        assert tree.leaf[1:].tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_gini_closed_forms(self):
        # pure node: impurity 0; perfectly mixed 3-class node: 1 - 3*(1/3)^2 = 2/3
        assert baselines._gini_sum(np.array([5, 0]), 5) == 0.0
        mixed = baselines._gini_sum(np.array([2, 2, 2]), 6) / 6
        assert mixed == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_xor_tree_beats_linear(self):
        X, y = xor_cluster_dataset()
        tree = baselines.fit_tree(X, y, 2, 12, None, X.shape[1])
        preds = baselines._tree_outputs(tree, X).argmax(axis=1)
        assert np.mean(preds == y) == 1.0
        linear = baselines.fit_logistic(X, y, n_classes=2)
        pl = baselines.predict_logistic(linear, X)
        assert np.mean(preds == y) >= np.mean(pl == y)

    def test_split_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            X = rng.normal(size=(25, 4)).round(2)
            y = rng.integers(0, 3, size=25)
            want = brute_force_split(X, gini(y, 3))
            got = baselines.best_gini_split(X, y, 3, None)
            if want is None:
                assert got is None
            else:
                assert got is not None
                feat, thr, score = got
                assert feat == want[0]
                assert thr == want[1]
                assert score == want[2]

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_split_problem())
    def test_scans_match_brute_force_on_ties(self, problem):
        X, y, k, g, features = problem
        assert baselines.best_gini_split(X, y, k, features) == \
            brute_force_split(X, gini(y, k), features)
        assert baselines.best_mse_split(X, g) == brute_force_split(X, mse(g))

    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_split_problem(), st.data())
    def test_node_order_equals_a_fresh_stable_sort(self, problem, data):
        # boosting sorts X once and derives each node's order from it
        X, _, _, g, _ = problem
        rows = data.draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X)))
        idx = np.flatnonzero(rows)
        order = baselines._node_order(np.argsort(X.T, axis=1, kind="stable"), idx)
        assert np.array_equal(order, np.argsort(X[idx], axis=0, kind="stable").T)
        assert baselines.best_mse_split(X[idx], g[idx], order) == \
            baselines.best_mse_split(X[idx], g[idx])

    def test_mse_split_needs_more_than_rounding_gain(self):
        # both sides have mean -2/3, so no split gains anything, yet the
        # computed score lands one ulp below the parent's
        X = np.array([[0.0]] * 3 + [[1.0]] * 3)
        g = np.array([-1.0, -3.0, 2.0, -1.0, 0.0, -1.0])
        assert baselines.best_mse_split(X, g) is None
        assert brute_force_split(X, mse(g)) is None

    @pytest.mark.parametrize("value", [5.07, 13.7, 1e3 / 3])
    def test_mse_split_leaves_constant_target_alone(self, value):
        # rounding in the prefix sums of a large constant target can beat the
        # fixed 1e-12 margin; a constant target must still have no split
        for seed in range(10):
            X = np.random.default_rng(seed).normal(size=(180, 56))
            assert baselines.best_mse_split(X, np.full(180, value)) is None

    @pytest.mark.parametrize("value", [13.7, 100 / 3, 1e3 / 3])
    def test_mse_split_leaves_nearly_constant_target_alone(self, value):
        # one entry one ulp above the rest: no split gains more than 1e-26,
        # but the rounding of sums near 180 * value**2 reached 3.7e-9 below
        # the parent's score, past a fixed 1e-12 margin
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(180, 56))
            g = np.full(180, value)
            g[rng.integers(180)] = np.nextafter(value, np.inf)
            assert baselines.best_mse_split(X, g) is None
            assert brute_force_split(X, mse(g)) is None

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, size=200)
        tree = baselines.fit_tree(X, y, 2, 2, None, X.shape[1])

        def depth(node):
            if tree.left[node] < 0:
                return 0
            return 1 + max(depth(tree.left[node]), depth(tree.right[node]))

        assert depth(0) <= 2

    def test_row_equal_to_threshold_goes_left(self):
        stump = baselines.Tree(
            feature=np.array([1, -1, -1]), threshold=np.array([2.0, 0.0, 0.0]),
            left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
            leaf=np.array([0.0, -1.0, 1.0]),
        )
        X = np.array([[9.0, 2.0], [9.0, np.nextafter(2.0, 3.0)], [9.0, 1.0]])
        assert baselines._tree_outputs(stump, X).tolist() == [-1.0, 1.0, -1.0]

    def test_tie_prefers_lowest_feature(self):
        # duplicated feature columns give identical best scores
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.array([0, 0, 1, 1])
        feat, thr, _ = baselines.best_gini_split(X, y, 2, None)
        assert feat == 0
        assert thr == 2.5

    def test_split_between_adjacent_floats_separates_them(self):
        # the midpoint of 0.3 and the float after it rounds up to that float:
        # split there, both values went left and the tree split the same rows
        # again, down to empty leaves of NaN probabilities
        X = np.repeat([[0.3], [np.nextafter(0.3, 1)]], 4, axis=0)
        y = np.repeat([0, 1], 4)
        query = np.array([[0.3], [np.nextafter(0.3, 1)], [0.5]])
        tree = baselines.fit_tree(X, y, 2, 12, None, 1)
        forest = baselines.fit_forest(X, y, 2, n_trees=5, max_depth=12, seed=0)
        boost = baselines.fit_boosting(X, y, 2, n_rounds=3, max_depth=3, learning_rate=0.1)
        assert len(tree.feature) == 3 and tree.threshold[0] == 0.3
        for t in [tree, *forest.trees, *(t for trees in boost.trees for t in trees)]:
            assert len(t.feature) == 3 and not np.isnan(t.leaf).any()
        assert baselines._tree_outputs(tree, query).argmax(axis=1).tolist() == [0, 1, 1]
        assert baselines.predict_forest(forest, query).tolist() == [0, 1, 1]
        assert baselines.predict_boost(boost, query).tolist() == [0, 1, 1]


class TestForest:
    def test_degenerate_forest_equals_single_tree(self):
        # a one-tree forest is one tree grown on a bootstrap sample, drawing
        # round(sqrt(d)) features per split from the tree's own generator
        X, y = blob_dataset(seed=2)
        forest = baselines.fit_forest(X, y, 2, n_trees=1, max_depth=12, seed=5)
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
        rows = rng.integers(0, len(y), size=len(y))
        tree = baselines.fit_tree(X[rows], y[rows], 2, 12, rng,
                                  max(1, round(math.sqrt(X.shape[1]))))
        assert same_trees(forest.trees, [tree])
        assert np.array_equal(baselines.predict_forest(forest, X),
                              baselines._tree_outputs(tree, X).argmax(axis=1))

    def test_seed_determinism(self):
        X, y = blob_dataset(seed=3)
        f1 = baselines.fit_forest(X, y, 2, n_trees=5, max_depth=12, seed=11)
        f2 = baselines.fit_forest(X, y, 2, n_trees=5, max_depth=12, seed=11)
        assert same_trees(f1.trees, f2.trees)
        assert np.array_equal(baselines.predict_forest(f1, X), baselines.predict_forest(f2, X))

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 2, size=60)
        f1 = baselines.fit_forest(X, y, 2, n_trees=3, max_depth=12, seed=1)
        f2 = baselines.fit_forest(X, y, 2, n_trees=3, max_depth=12, seed=2)
        assert not same_trees(f1.trees, f2.trees)
        votes = [sum(baselines._tree_outputs(t, X) for t in f.trees) for f in (f1, f2)]
        assert not np.array_equal(*votes)

    def test_probabilities_on_simplex(self):
        # every node of every tree holds class probabilities
        X, y = blob_dataset(seed=5)
        forest = baselines.fit_forest(X, y, 2, n_trees=7, max_depth=12, seed=0)
        for tree in forest.trees:
            assert tree.leaf.shape == (len(tree.feature), 2)
            assert np.all(tree.leaf >= 0)
            assert np.max(np.abs(tree.leaf.sum(axis=1) - 1.0)) < 1e-12

    def test_separable_accuracy(self):
        X, y = blob_dataset(seed=6)
        forest = baselines.fit_forest(X, y, 2, n_trees=15, max_depth=12, seed=3)
        preds = baselines.predict_forest(forest, X)
        assert np.mean(preds == y) >= 0.95


def ref_fit_linear_svm(X, y, n_classes, epochs, seed, c=1.0):
    """Reference per-sample SGD loop, building each example's +-1 targets at every step."""
    n, d = X.shape
    lam = 1.0 / (c * n)
    W, b = np.zeros((n_classes, d)), np.zeros(n_classes)
    W_avg, b_avg = np.zeros_like(W), np.zeros_like(b)
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
    return baselines.LinearModel(W_avg / t, b_avg / t)


class TestSvm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_matches_per_sample_reference(self, seed, n_classes):
        rng = np.random.default_rng(seed + 40)
        X, y = rng.normal(size=(45, 5)), rng.integers(0, n_classes, 45)
        got = baselines.fit_linear_svm(X, y, n_classes, seed=seed)
        want = ref_fit_linear_svm(X, y, n_classes, epochs=50, seed=seed)
        assert got.W.tobytes() == want.W.tobytes()
        assert got.b.tobytes() == want.b.tobytes()

    def test_separable_margin_hinge_near_zero(self):
        # blobs at distance 4 with radius ~0.5 have margin > 1 under the
        # analytic separator w=(0.5,0.5), b=-2, so zero hinge is attainable
        X, y = blob_dataset(seed=7, gap=4.0)
        w = np.array([0.5, 0.5])
        margins = (2 * y - 1) * (X @ w - 2.0)
        assert margins.min() > 0  # sanity: truly separable
        model = baselines.fit_linear_svm(X, y, n_classes=2, seed=0)
        loss = svm_hinge_loss(model, X, y)
        assert loss < 0.01
        assert np.array_equal(baselines.predict_svm(model, X), y)

    def test_feature_scaling_changes_nothing_after_norm(self):
        # invariance holds when inputs are standardized first
        X, y = blob_dataset(seed=8)
        Xs = X * np.array([100.0, 0.01])

        def standardize(A):
            return (A - A.mean(axis=0)) / A.std(axis=0)

        m1 = baselines.fit_linear_svm(standardize(X), y, n_classes=2, seed=1)
        m2 = baselines.fit_linear_svm(standardize(Xs), y, n_classes=2, seed=1)
        p1 = baselines.predict_svm(m1, standardize(X))
        p2 = baselines.predict_svm(m2, standardize(Xs))
        assert np.array_equal(p1, p2)

    def test_three_class(self):
        # non-collinear class centers: one-vs-rest argmax cannot pick a
        # middle class whose region is sandwiched on a line
        rng = np.random.default_rng(9)
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        X = np.vstack([rng.normal(c, 0.5, size=(30, 2)) for c in centers])
        y = np.repeat(np.arange(3), 30)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        model = baselines.fit_linear_svm(X, y, n_classes=3, seed=2)
        preds = baselines.predict_svm(model, X)
        assert np.mean(preds == y) >= 0.95
        assert np.array_equal(preds, np.argmax(X @ model.W.T + model.b, axis=1))

    def test_determinism(self):
        X, y = blob_dataset(seed=10)
        m1 = baselines.fit_linear_svm(X, y, n_classes=2, seed=5)
        m2 = baselines.fit_linear_svm(X, y, n_classes=2, seed=5)
        assert np.array_equal(m1.W, m2.W)
        assert np.array_equal(m1.b, m2.b)


class TestBoosting:
    def test_zero_rounds_predicts_priors(self):
        y = np.array([0] * 6 + [1] * 3 + [2] * 1)
        X = np.random.default_rng(0).normal(size=(10, 2))
        model = baselines.fit_boosting(X, y, 3, n_rounds=0, max_depth=3, learning_rate=0.1)
        priors = np.array([0.6, 0.3, 0.1])
        F = baselines.boost_scores(model, X)
        assert np.max(np.abs(F - np.log(priors / (1.0 - priors)))) < 1e-12
        assert not baselines.predict_boost(model, X).any()

    def test_training_loss_monotone_nonincreasing(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] + X[:, 1] ** 2 > 0.5).astype(int)
        losses = []
        for rounds in (0, 5, 15, 40):
            model = baselines.fit_boosting(X, y, 2, n_rounds=rounds, max_depth=3,
                                           learning_rate=0.1)
            losses.append(boost_logistic_loss(model, X, y))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_xor_solved_with_depth_two(self):
        # representability oracle: a hand-built depth-2 tree computes XOR,
        # returning +1 on the off-diagonal corners and -1 elsewhere
        hand = baselines.Tree(
            feature=np.array([0, 1, -1, -1, 1, -1, -1]),
            threshold=np.array([0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0]),
            left=np.array([1, 2, -1, -1, 5, -1, -1]),
            right=np.array([4, 3, -1, -1, 6, -1, -1]),
            leaf=np.array([0.0, 0.0, -1.0, 1.0, 0.0, 1.0, -1.0]),
        )
        assert baselines._tree_outputs(hand, XOR_X).tolist() == [-1.0, 1.0, 1.0, -1.0]

        X, y = xor_cluster_dataset()
        model = baselines.fit_boosting(X, y, 2, n_rounds=50, max_depth=2, learning_rate=0.1)
        assert np.mean(baselines.predict_boost(model, X) == y) == 1.0

    def test_determinism(self):
        X, y = blob_dataset(seed=12)
        m1 = baselines.fit_boosting(X, y, 2, n_rounds=10, max_depth=3, learning_rate=0.1)
        m2 = baselines.fit_boosting(X, y, 2, n_rounds=10, max_depth=3, learning_rate=0.1)
        assert all(same_trees(r1, r2) for r1, r2 in zip(m1.trees, m2.trees, strict=True))
        assert baselines.boost_scores(m1, X).tobytes() == baselines.boost_scores(m2, X).tobytes()


class TestDecisionRule:
    """Every predict_* is the exact argmax of its model's scores."""

    # a gap that a softmax rounds away, one that saturated sigmoids round
    # away, and an exact tie, which goes to the lowest class id
    @pytest.mark.parametrize("scores", [[0.0, 1e-17], [40.0, 41.0], [0.0, 2.0, 2.0]])
    def test_near_tie_goes_to_the_larger_score(self, scores):
        X = np.ones((2, 3))
        linear = baselines.LinearModel(W=np.zeros((len(scores), 3)), b=np.array(scores))
        boost = baselines.BoostModel(np.array(scores), [], 0.1, len(scores))
        assert baselines.predict_logistic(linear, X).tolist() == [1, 1]
        assert baselines.predict_svm(linear, X).tolist() == [1, 1]
        assert baselines.predict_boost(boost, X).tolist() == [1, 1]


@dataclass
class TreeNode:
    """Node of the reference trees: a split (feature, threshold, children)
    or a leaf (probabilities or Newton value)."""

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    leaf: object = None


def ref_fit_tree(X, y, n_classes, max_depth=12, rng=None, max_features=None):
    """Reference recursive CART grower: purity stop, then the feature draw."""

    def grow(idx, depth):
        counts = np.bincount(y[idx], minlength=n_classes)
        node_n = len(idx)
        if depth >= max_depth or node_n < 2 or np.max(counts) == node_n:
            return TreeNode(leaf=counts / node_n)
        if max_features is not None and max_features < X.shape[1]:
            feats = np.sort(rng.choice(X.shape[1], size=max_features, replace=False))
        else:
            feats = None
        split = baselines.best_gini_split(X[idx], y[idx], n_classes, feats)
        if split is None:
            return TreeNode(leaf=counts / node_n)
        f, thr, _ = split
        mask = X[idx, f] <= thr
        return TreeNode(f, thr, grow(idx[mask], depth + 1), grow(idx[~mask], depth + 1))

    return grow(np.arange(len(y)), 0)


def ref_fit_regression_tree(X, residual, hessian, max_depth):
    """Reference recursive regression grower with Newton leaf values."""

    def leaf(idx):
        denom = float(np.sum(hessian[idx]))
        return TreeNode(leaf=float(np.sum(residual[idx])) / max(denom, 1e-12))

    def grow(idx, depth):
        if depth >= max_depth or len(idx) < 2:
            return leaf(idx)
        split = baselines.best_mse_split(X[idx], residual[idx])
        if split is None:
            return leaf(idx)
        f, thr, _ = split
        mask = X[idx, f] <= thr
        return TreeNode(f, thr, grow(idx[mask], depth + 1), grow(idx[~mask], depth + 1))

    return grow(np.arange(len(residual)), 0)


def ref_outputs(root, X):
    """Leaf output of every row, walking the reference tree one row at a time."""
    out = []
    for x in X:
        node = root
        while node.feature is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        out.append(node.leaf)
    return np.array(out)


def ref_fit_forest(X, y, n_classes, n_trees, seed):
    """Reference forest: bootstrap rows and sqrt(d) features per split."""
    max_features = max(1, int(round(math.sqrt(X.shape[1]))))
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, len(y), size=len(y))
        trees.append(ref_fit_tree(X[idx], y[idx], n_classes, rng=rng, max_features=max_features))
    return trees


def ref_fit_boosting(X, y, n_classes, n_rounds, max_depth, learning_rate=0.1):
    """Reference boosting rounds: one regression tree per class and round."""
    onehot = np.eye(n_classes)[y]
    priors = np.clip(onehot.mean(axis=0), 1e-12, 1.0 - 1e-12)
    F = np.tile(np.log(priors / (1.0 - priors)), (len(y), 1))
    rounds = []
    for _ in range(n_rounds):
        per_class = []
        for c in range(n_classes):
            p = 1.0 / (1.0 + np.exp(-F[:, c]))
            tree = ref_fit_regression_tree(X, onehot[:, c] - p, p * (1.0 - p), max_depth)
            F[:, c] += learning_rate * ref_outputs(tree, X)
            per_class.append(tree)
        rounds.append(per_class)
    return rounds


def assert_same_tree(flat, ref):
    """flat holds ref's nodes in preorder with equal feature, threshold
    and leaf bits."""
    visited = []

    def walk(i, node):
        visited.append(i)
        if node.feature is None:
            assert flat.left[i] == -1 and flat.right[i] == -1
            assert np.asarray(flat.leaf[i]).tobytes() == \
                np.asarray(node.leaf, dtype=float).tobytes()
            return
        assert flat.feature[i] == node.feature
        assert flat.threshold[i].tobytes() == np.float64(node.threshold).tobytes()
        walk(flat.left[i], node.left)
        walk(flat.right[i], node.right)

    walk(0, ref)
    assert visited == list(range(len(flat.feature)))


def tie_heavy_dataset(seed, n, d, k):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)).round(1), rng.integers(0, k, size=n)


class TestReferenceGrower:
    """The flat grower against the recursive growers it replaced."""

    @pytest.mark.parametrize("max_depth", [12, 3])
    def test_fit_tree_matches_reference(self, max_depth):
        X, y = tie_heavy_dataset(21, 80, 5, 3)
        tree = baselines.fit_tree(X, y, 3, max_depth, None, X.shape[1])
        want = ref_fit_tree(X, y, 3, max_depth)
        assert len(tree.feature) > 3
        assert_same_tree(tree, want)
        assert baselines._tree_outputs(tree, X).tobytes() == ref_outputs(want, X).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_forest_matches_reference(self, seed):
        X, y = tie_heavy_dataset(seed + 100, 70, 9, 3)
        forest = baselines.fit_forest(X, y, 3, n_trees=6, max_depth=12, seed=seed)
        want = ref_fit_forest(X, y, 3, n_trees=6, seed=seed)
        assert all(len(t.feature) > 3 for t in forest.trees)
        for tree, ref in zip(forest.trees, want, strict=True):
            assert_same_tree(tree, ref)
            assert baselines._tree_outputs(tree, X).tobytes() == ref_outputs(ref, X).tobytes()

    def test_boosting_matches_reference(self):
        X, y = tie_heavy_dataset(33, 60, 4, 3)
        model = baselines.fit_boosting(X, y, 3, n_rounds=8, max_depth=3, learning_rate=0.1)
        want = ref_fit_boosting(X, y, 3, n_rounds=8, max_depth=3)
        assert all(len(t.feature) > 1 for t in model.trees[0])
        for got_round, want_round in zip(model.trees, want, strict=True):
            for tree, ref in zip(got_round, want_round, strict=True):
                assert_same_tree(tree, ref)

import warnings
from dataclasses import asdict
from functools import partial

import numpy as np
import pytest

from kgstruct.classify import (
    ForestConfig,
    LogisticConfig,
    LogisticRegressionClassifier,
    RandomForestClassifier,
    cross_validate,
    stratified_folds,
)
from kgstruct.errors import ConfigError, DataError, TrainingDivergedError


def separable_blobs(n=200, gap=6.0, seed=0, d=2):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [rng.normal(0.0, 1.0, size=(half, d)), rng.normal(gap, 1.0, size=(n - half, d))]
    )
    y = np.asarray([0] * half + [1] * (n - half))
    return x, y


def xor_blobs(n=400, seed=1):
    rng = np.random.default_rng(seed)
    quadrant = rng.integers(0, 4, size=n)
    centers = np.asarray([[0.0, 0.0], [4.0, 4.0], [0.0, 4.0], [4.0, 0.0]])
    x = centers[quadrant] + rng.normal(0.0, 0.5, size=(n, 2))
    y = (quadrant >= 2).astype(np.int64)  # off-diagonal quadrants are class 1
    return x, y


# -- logistic regression -----------------------------------------------------------


def test_linear_separable_high_train_accuracy():
    x, y = separable_blobs()
    clf = LogisticRegressionClassifier().fit(x, y)
    accuracy = float((clf.predict(x) == y).mean())
    assert accuracy >= 0.99
    proba = clf.predict_proba(x)
    assert proba.shape == (len(x), 2)
    assert np.allclose(proba.sum(axis=1), 1.0)


def test_linear_no_signal_is_chance():
    x = np.ones((100, 3))
    y = np.asarray([0, 1] * 50)
    clf = LogisticRegressionClassifier().fit(x, y)
    accuracy = float((clf.predict(x) == y).mean())
    assert 0.45 <= accuracy <= 0.55


def test_linear_l2_shrinks_weights():
    x, y = separable_blobs(seed=3)
    weak = LogisticRegressionClassifier(LogisticConfig(l2=1e-4)).fit(x, y)
    strong = LogisticRegressionClassifier(LogisticConfig(l2=1.0)).fit(x, y)
    assert np.linalg.norm(strong.weights_) < np.linalg.norm(weak.weights_)


def test_linear_rejects_single_class():
    x = np.zeros((10, 2))
    with pytest.raises(DataError):
        LogisticRegressionClassifier().fit(x, np.zeros(10, dtype=int))


def test_linear_large_learning_rate_raises_no_overflow_warning():
    x, y = separable_blobs(gap=20.0, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # l2 well below 1 / learning_rate, so the step can converge
        config = LogisticConfig(learning_rate=1e4, iterations=50, l2=1e-5)
        clf = LogisticRegressionClassifier(config).fit(x, y)
        proba = clf.predict_proba(x * 100.0)
    assert np.isfinite(proba).all()
    assert ((proba == 0.0) | (proba == 1.0)).any()  # saturated, at the correct limit


@pytest.mark.parametrize(
    "config, field",
    [
        (partial(LogisticConfig, learning_rate=0.0), "learning_rate"),
        (partial(LogisticConfig, learning_rate=-1.0), "learning_rate"),
        (partial(LogisticConfig, learning_rate=float("nan")), "learning_rate"),
        (partial(LogisticConfig, iterations=0), "iterations"),
        (partial(ForestConfig, n_trees=0), "n_trees"),
        (partial(ForestConfig, max_depth=0), "max_depth"),
        (partial(LogisticConfig, l2=-1.0), "l2"),
        (partial(LogisticConfig, l2=float("nan")), "l2"),
        (partial(ForestConfig, min_samples_split=1), "min_samples_split"),
        (partial(ForestConfig, min_samples_split=-3), "min_samples_split"),
    ],
)
def test_classifier_configs_reject_degenerate_values(config, field):
    block = "linear" if config.func is LogisticConfig else "forest"
    with pytest.raises(ConfigError, match=rf"^negation\.{block}\.{field}: "):
        config()


@pytest.mark.parametrize("config", [{"learning_rate": 1e30}, {"l2": 1e30}], ids=["lr", "l2"])
def test_linear_divergence_is_a_config_error_without_warnings(config):
    # learning_rate * l2 >= 1 cannot converge, so the config is refused before any fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ConfigError,
            match=r"^negation\.linear\.learning_rate \* negation\.linear\.l2: must be < 1, got ",
        ):
            LogisticConfig(**config)


def test_linear_overflowing_weights_are_a_config_error_without_warnings():
    x, y = separable_blobs(n=40)
    config = LogisticConfig(learning_rate=1e200, l2=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError, match="negation.linear.learning_rate"):
            LogisticRegressionClassifier(config).fit(x * 1e200, y)
    assert issubclass(TrainingDivergedError, ConfigError)


@pytest.mark.parametrize("learning_rate, l2", [(0.5, 3.0), (0.5, 2.0), (1e30, 1e-3)])
def test_linear_rejects_a_step_that_flips_the_weights(learning_rate, l2):
    # each step scales w by 1 - learning_rate * l2; at or below 0 its sign flips
    flips = r"^negation\.linear\.learning_rate \* negation\.linear\.l2: must be < 1"
    with pytest.raises(ConfigError, match=flips):
        LogisticConfig(learning_rate=learning_rate, l2=l2)
    LogisticConfig(learning_rate=learning_rate, l2=0.999 / learning_rate)


def test_linear_unfitted_predict():
    with pytest.raises(DataError):
        LogisticRegressionClassifier().predict(np.zeros((2, 2)))


# -- random forest -------------------------------------------------------------------


def test_forest_xor_beats_linear():
    x, y = xor_blobs()
    train_x, train_y = x[:300], y[:300]
    test_x, test_y = x[300:], y[300:]
    forest = RandomForestClassifier(ForestConfig(n_trees=30, max_depth=8), seed=2).fit(
        train_x, train_y
    )
    linear = LogisticRegressionClassifier().fit(train_x, train_y)
    forest_acc = float((forest.predict(test_x) == test_y).mean())
    linear_acc = float((linear.predict(test_x) == test_y).mean())
    assert forest_acc >= 0.9
    assert 0.4 <= linear_acc <= 0.6


def test_single_stump_matches_exhaustive_threshold_search():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 10, size=(60, 1))
    y = (x[:, 0] > 6.3).astype(np.int64)
    stump = RandomForestClassifier(
        ForestConfig(n_trees=1, max_depth=1, bootstrap=False, max_features="all"), seed=0
    ).fit(x, y)
    # brute-force stump oracle over all midpoints
    values = np.sort(np.unique(x[:, 0]))
    best_err, best_pred = None, None
    for threshold in (values[:-1] + values[1:]) / 2:
        left = x[:, 0] <= threshold
        for left_label in (0, 1):
            pred = np.where(left, left_label, 1 - left_label)
            err = float((pred != y).mean())
            if best_err is None or err < best_err:
                best_err, best_pred = err, pred
    got = stump.predict(x)
    assert float((got != y).mean()) == pytest.approx(best_err)
    assert np.array_equal(got, best_pred)


# -- the recursive tree builder that the level-wise one replaced, kept as reference --


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "prediction")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.prediction = -1


def _gini_best_split(x, y, features):
    """Best (feature, threshold, impurity) over candidate midpoints, or None.

    All candidate columns are sorted together; positions that are not a
    boundary between distinct values score +inf. Ties go to the earliest
    feature, at its lowest position.
    """
    n = len(y)
    if n < 2 or len(features) == 0:
        return None
    cols = x[:, features]
    order = np.argsort(cols, axis=0)
    sorted_cols = np.take_along_axis(cols, order, axis=0)
    cum_pos = np.cumsum(y[order], axis=0)[:-1].astype(np.float64)
    left_n = np.arange(1.0, n)[:, None]
    right_n = n - left_n
    total_pos = float(y.sum())
    p_left = cum_pos / left_n
    p_right = (total_pos - cum_pos) / right_n
    gini = (
        left_n * (2.0 * p_left * (1.0 - p_left))
        + right_n * (2.0 * p_right * (1.0 - p_right))
    ) / n
    gini[~(sorted_cols[1:] > sorted_cols[:-1])] = np.inf
    at = gini.argmin(axis=0)
    scores = gini[at, np.arange(len(features))]
    best = int(scores.argmin())
    if scores[best] == np.inf:
        return None
    cut = at[best]
    threshold = 0.5 * (sorted_cols[cut, best] + sorted_cols[cut + 1, best])
    return int(features[best]), float(threshold), float(scores[best])


def _build_tree(x, y, depth, config, n_features_per_split, rng):
    node = _TreeNode()
    pos = int(y.sum())
    if (
        pos == 0
        or pos == len(y)
        or depth >= config.max_depth
        or len(y) < config.min_samples_split
    ):
        node.prediction = int(pos * 2 > len(y))
        return node
    d = x.shape[1]
    if n_features_per_split >= d:
        features = np.arange(d)
    else:
        features = np.sort(rng.choice(d, size=n_features_per_split, replace=False))
    best = _gini_best_split(x, y, features)
    if best is None:
        node.prediction = int(pos * 2 > len(y))
        return node
    node.feature, node.threshold, _ = best
    mask = x[:, node.feature] <= node.threshold
    node.left = _build_tree(x[mask], y[mask], depth + 1, config, n_features_per_split, rng)
    node.right = _build_tree(x[~mask], y[~mask], depth + 1, config, n_features_per_split, rng)
    return node


def _tree_predict(node, x, out, rows):
    if node.prediction >= 0:
        out[rows] = node.prediction
        return
    mask = x[rows, node.feature] <= node.threshold
    _tree_predict(node.left, x, out, rows[mask])
    _tree_predict(node.right, x, out, rows[~mask])


def reference_forest(x, y, config, seed):
    """The recursive forest's trees: same seeds, same bootstrap draw."""
    n, d = x.shape
    per_split = config.features_per_split(d)
    trees = []
    for seq in np.random.SeedSequence(seed).spawn(config.n_trees):
        rng = np.random.default_rng(seq)
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        trees.append(_build_tree(x[rows], y[rows], 0, config, per_split, rng))
    return trees


def reference_proba(trees, x):
    votes = np.zeros(len(x))
    scratch = np.empty(len(x), dtype=np.int64)
    for tree in trees:
        _tree_predict(tree, x, scratch, np.arange(len(x)))
        votes += scratch
    p1 = votes / len(trees)
    return np.column_stack([1.0 - p1, p1])


def nested(node):
    """A reference tree as nested tuples: (feature, threshold, left, right) or ("leaf", class)."""
    if node.prediction >= 0:
        return ("leaf", node.prediction)
    return (node.feature, node.threshold, nested(node.left), nested(node.right))


def nested_flat(forest, tree):
    """Tree ``tree`` of a fitted forest in the form of ``nested``."""
    def walk(i):
        if forest.feature_[i] < 0:
            return ("leaf", int(forest.value_[i]))
        left = int(forest.left_[i])
        return (int(forest.feature_[i]), float(forest.threshold_[i]), walk(left), walk(left + 1))
    return walk(int(forest.roots_[tree]))


def per_feature_best_split(x, y, features):
    """The split search as one stable argsort and Gini scan per feature."""
    n = len(y)
    best = None
    for feat in features:
        col = x[:, feat]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        sorted_y = y[order]
        distinct = np.flatnonzero(sorted_col[1:] > sorted_col[:-1])
        if len(distinct) == 0:
            continue
        left_n = distinct + 1.0
        right_n = n - left_n
        cum_pos = np.cumsum(sorted_y)[distinct].astype(np.float64)
        total_pos = float(y.sum())
        p_left = cum_pos / left_n
        p_right = (total_pos - cum_pos) / right_n
        gini = (
            left_n * (2.0 * p_left * (1.0 - p_left))
            + right_n * (2.0 * p_right * (1.0 - p_right))
        ) / n
        at = int(np.argmin(gini))
        score = float(gini[at])
        if best is None or score < best[2]:
            threshold = 0.5 * (sorted_col[distinct[at]] + sorted_col[distinct[at] + 1])
            best = (int(feat), float(threshold), score)
    return best


@pytest.mark.parametrize("trial", range(40))
def test_gini_split_matches_per_feature_scan(trial):
    rng = np.random.default_rng(trial)
    n = int(rng.integers(2, 400))
    d = int(rng.integers(1, 12))
    # few distinct values: duplicates everywhere, and tied impurities
    x = rng.integers(0, int(rng.integers(1, 6)), size=(n, d)).astype(np.float64)
    x[:, rng.random(d) < 0.5] += rng.normal(size=n)[:, None]
    x[:, rng.random(d) < 0.3] = 2.5  # constant columns
    y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
    features = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
    expected = per_feature_best_split(x, y, features)
    assert _gini_best_split(x, y, features) == expected
    if min(y.sum(), n - y.sum()) >= 2:
        # the level-wise builder's root split on the same candidate columns
        stump = RandomForestClassifier(
            ForestConfig(n_trees=1, max_depth=1, bootstrap=False, max_features="all")
        ).fit(x[:, features], y)
        if expected is None:
            assert stump.feature_[0] == -1
        else:
            root = (int(features[stump.feature_[0]]), float(stump.threshold_[0]))
            assert root == expected[:2]


def test_gini_split_none_without_boundary():
    x = np.full((10, 3), 4.0)
    y = np.asarray([0, 1] * 5)
    assert _gini_best_split(x, y, np.arange(3)) is None
    assert _gini_best_split(x[:1], y[:1], np.arange(3)) is None


def tie_heavy(kind):
    """Features full of tied values, with noisy labels so trees grow deep."""
    rng = np.random.default_rng(21)
    if kind == "integers":
        x = rng.integers(0, 4, size=(90, 5)).astype(np.float64)
    elif kind == "constant-columns":
        x = rng.normal(size=(90, 6))
        x[:, [1, 4]] = 3.0
    else:  # every row twice, and a column with few distinct values
        half = rng.normal(size=(45, 4))
        half[:, 2] = np.round(half[:, 2])
        x = np.vstack([half, half])
    y = ((x[:, 0] + rng.normal(scale=1.0, size=len(x))) > x[:, -1]).astype(np.int64)
    return x, y


@pytest.mark.parametrize("bootstrap", [True, False], ids=["bootstrap", "no-bootstrap"])
@pytest.mark.parametrize("max_depth", [1, 3, 16])
@pytest.mark.parametrize("min_samples_split", [2, 5])
@pytest.mark.parametrize("kind", ["integers", "constant-columns", "duplicated-rows"])
def test_level_wise_trees_equal_the_recursive_reference(kind, min_samples_split, max_depth, bootstrap):
    # without per-split feature draws the two builders see the same candidates
    x, y = tie_heavy(kind)
    config = ForestConfig(
        n_trees=4, max_depth=max_depth, min_samples_split=min_samples_split,
        max_features="all", bootstrap=bootstrap,
    )
    forest = RandomForestClassifier(config, seed=7).fit(x, y)
    reference = reference_forest(x, y, config, seed=7)
    assert [nested_flat(forest, i) for i in range(4)] == [nested(t) for t in reference]
    probe = np.vstack([x, np.random.default_rng(3).normal(size=(40, x.shape[1])) * 2])
    assert np.array_equal(forest.predict_proba(probe), reference_proba(reference, probe))


def test_forest_rejects_more_features_per_split_than_columns():
    x, y = separable_blobs(n=40, d=3)
    with pytest.raises(DataError, match=r"^negation\.forest\.max_features = 4 exceeds the 3 features$"):
        RandomForestClassifier(ForestConfig(max_features=4)).fit(x, y)
    RandomForestClassifier(ForestConfig(n_trees=2, max_features=3)).fit(x, y)


def test_forest_duplicated_rows_invariant_without_bootstrap():
    x, y = separable_blobs(n=60, gap=3.0, seed=5)
    cfg = ForestConfig(n_trees=7, max_depth=6, bootstrap=False)
    base = RandomForestClassifier(cfg, seed=9).fit(x, y)
    doubled = RandomForestClassifier(cfg, seed=9).fit(
        np.vstack([x, x]), np.concatenate([y, y])
    )
    probe, _ = separable_blobs(n=40, gap=3.0, seed=6)
    assert np.array_equal(base.predict(probe), doubled.predict(probe))


def test_forest_deterministic():
    x, y = xor_blobs(n=120, seed=7)
    a = RandomForestClassifier(ForestConfig(n_trees=10), seed=3).fit(x, y)
    b = RandomForestClassifier(ForestConfig(n_trees=10), seed=3).fit(x, y)
    assert np.array_equal(a.predict(x), b.predict(x))


def test_forest_label_validation():
    x = np.zeros((10, 2))
    with pytest.raises(DataError):
        RandomForestClassifier().fit(x, np.full(10, 1, dtype=int))
    with pytest.raises(DataError):
        RandomForestClassifier().fit(x, np.asarray([0, 1, 2] * 3 + [0]))


def test_forest_unfitted_predict():
    with pytest.raises(DataError):
        RandomForestClassifier().predict(np.zeros((2, 2)))


# -- cross-validation -----------------------------------------------------------------


def test_stratified_folds_partition_and_balance():
    labels = np.asarray([0] * 37 + [1] * 23)
    rng = np.random.default_rng(0)
    folds = stratified_folds(labels, 5, rng)
    joined = np.sort(np.concatenate(folds))
    assert np.array_equal(joined, np.arange(60))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    for fold in folds:
        pos = int(labels[fold].sum())
        assert abs(pos - 23 / 5) <= 1.0
        neg = len(fold) - pos
        assert abs(neg - 37 / 5) <= 1.0


def reference_stratified_folds(labels, folds, rng):
    """The per-index round-robin loop: one fold pointer runs across the classes."""
    buckets = [[] for _ in range(folds)]
    pointer = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        for i in idx:
            buckets[pointer % folds].append(int(i))
            pointer += 1
    return [np.sort(np.asarray(b, dtype=np.int64)) for b in buckets]


def test_stratified_folds_equal_the_reference_loop_bitwise():
    rng = np.random.default_rng(0)
    for case in range(300):
        labels = rng.integers(0, int(rng.integers(1, 5)), size=int(rng.integers(1, 120)))
        folds = int(rng.integers(2, 12))
        seed = int(rng.integers(2**32))
        got = stratified_folds(labels, folds, np.random.default_rng(seed))
        want = reference_stratified_folds(labels, folds, np.random.default_rng(seed))
        assert len(got) == len(want) == folds, case
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), case


def test_cross_validate_partition_property():
    x, y = separable_blobs(n=83, seed=8)
    report = cross_validate(x, y, "linear", folds=7, seed=1)
    assert report.folds == 7
    assert len(report.accuracies) == 7
    assert report.baseline_accuracy == pytest.approx(max(np.bincount(y)) / len(y))


def test_cross_validate_separable_high_accuracy():
    x, y = separable_blobs(n=240, gap=8.0, seed=9)
    for kind in ("linear", "forest"):
        config = ForestConfig(n_trees=15, max_depth=8) if kind == "forest" else None
        report = cross_validate(x, y, kind, folds=10, seed=2, config=config)
        assert report.mean_accuracy >= 0.95, kind


def test_cross_validate_shuffled_labels_chance():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(400, 4))
    y = np.asarray([0, 1] * 200)
    report = cross_validate(x, y, "linear", folds=10, seed=3)
    assert 0.4 <= report.mean_accuracy <= 0.6


def test_cross_validate_deterministic():
    x, y = separable_blobs(n=100, seed=11)
    a = cross_validate(x, y, "forest", folds=5, seed=4, config=ForestConfig(n_trees=5))
    b = cross_validate(x, y, "forest", folds=5, seed=4, config=ForestConfig(n_trees=5))
    assert a.accuracies == b.accuracies


def test_cross_validate_validation():
    x, y = separable_blobs(n=20, seed=12)
    with pytest.raises(ConfigError):
        cross_validate(x, y, "linear", folds=1, seed=0)
    with pytest.raises(DataError):
        cross_validate(x[:4], y[:4], "linear", folds=10, seed=0)
    with pytest.raises(ConfigError):
        cross_validate(x, y, "svm", folds=5, seed=0)


def test_cv_report_records_hyperparams():
    x, y = separable_blobs(n=60, seed=13)
    cfg = ForestConfig(n_trees=3, max_depth=4)
    report = cross_validate(x, y, "forest", folds=3, seed=5, config=cfg)
    assert report.classifier == "forest"
    assert report.hyperparams["n_trees"] == 3
    assert asdict(report)["folds"] == 3


def test_forest_cv_report_hyperparams_hold_no_seed(monkeypatch):
    # each fold seeds its own forest from the report's seed and the fold index
    x, y = separable_blobs(n=60, seed=13)
    fold_seeds = []
    original = RandomForestClassifier.__init__

    def recording_init(self, config=None, seed=0):
        fold_seeds.append(seed)
        original(self, config, seed)

    monkeypatch.setattr(RandomForestClassifier, "__init__", recording_init)
    report = cross_validate(x, y, "forest", folds=3, seed=5, config=ForestConfig(n_trees=3))
    assert report.hyperparams == asdict(ForestConfig(n_trees=3))
    assert "seed" not in report.hyperparams and report.seed == 5
    assert fold_seeds == [5000, 5001, 5002]

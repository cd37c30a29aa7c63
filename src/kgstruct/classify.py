"""Binary classifiers and stratified cross-validation for the negation probe.

Both classifiers are self-contained: logistic regression fit by full-batch
gradient descent with an L2 penalty, and a random forest of axis-aligned
Gini trees with bootstrap aggregation and per-split feature subsampling.
Both are deterministic for a fixed seed.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError, check_at_least

log = logging.getLogger(__name__)


def _check_binary(labels: np.ndarray) -> None:
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) < 2:
        raise DataError("training data contains a single class")
    if not set(classes.tolist()) <= {0, 1}:
        raise DataError(f"expected 0/1 labels, got classes {classes.tolist()}")
    if counts.min() < 2:
        raise DataError("need at least 2 examples per class")


@dataclass(frozen=True)
class LogisticConfig:
    learning_rate: float = 0.5
    iterations: int = 500
    l2: float = 1e-3

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError(
                f"negation.linear.learning_rate: must be > 0, got {self.learning_rate}"
            )
        check_at_least("negation.linear.iterations", self.iterations, 1)
        check_at_least("negation.linear.l2", self.l2, 0)
        # each step scales w by 1 - learning_rate * l2; at or below 0 the
        # weights flip sign every iteration instead of converging
        decay = self.learning_rate * self.l2
        if decay >= 1:
            raise ConfigError(
                "negation.linear.learning_rate * negation.linear.l2: "
                f"must be < 1, got {decay}"
            )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-z) overflows to inf for z below about -709; 1 / (1 + inf) is
    # then 0.0, the correct limit, so the warning carries no information
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


class LogisticRegressionClassifier:
    """Logistic regression with L2-penalized full-batch gradient descent.

    Weights start at zero, so the fit is deterministic without any seed.
    The intercept is not penalized.
    """

    def __init__(self, config: LogisticConfig | None = None):
        self.config = config or LogisticConfig()
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegressionClassifier":
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        _check_binary(y)
        n, d = x.shape
        w = np.zeros(d)
        b = 0.0
        lr = self.config.learning_rate
        lam = self.config.l2
        # a step too large overflows to inf and then NaN; the check below
        # reports that, so the intermediate warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.config.iterations):
                p = _sigmoid(x @ w + b)
                err = p - y
                w -= lr * (x.T @ err / n + lam * w)
                b -= lr * float(err.mean())
        if not (np.isfinite(w).all() and np.isfinite(b)):
            raise TrainingDivergedError(
                "logistic regression diverged to non-finite weights; lower "
                "negation.linear.learning_rate or negation.linear.l2"
            )
        self.weights_ = w
        self.bias_ = b
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self.weights_ is None:
            raise DataError("classifier is not fitted")
        p1 = _sigmoid(np.asarray(features, dtype=np.float64) @ self.weights_ + self.bias_)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features)[:, 1] >= 0.5).astype(np.int64)


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 16
    min_samples_split: int = 2
    max_features: str | int = "sqrt"  # "sqrt", "all", or a fixed count
    bootstrap: bool = True

    def __post_init__(self):
        check_at_least("negation.forest.n_trees", self.n_trees, 1)
        check_at_least("negation.forest.max_depth", self.max_depth, 1)
        check_at_least("negation.forest.min_samples_split", self.min_samples_split, 2)
        mf = self.max_features
        if mf not in ("sqrt", "all") and not (
            isinstance(mf, int) and not isinstance(mf, bool) and mf >= 1
        ):
            raise ConfigError(
                f"negation.forest.max_features: must be 'sqrt', 'all' or an int >= 1, got {mf!r}"
            )


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "prediction")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.prediction = -1


def _gini_best_split(
    x: np.ndarray, y: np.ndarray, features: np.ndarray
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity) over candidate midpoints.

    Thresholds sit halfway between consecutive distinct sorted values; the
    split sends rows with value <= threshold left. All candidate features
    are scanned at once: their columns are sorted together, and positions
    that are not a boundary between distinct values score +inf. Ties go to
    the lowest position, then to the earliest feature. Returns None when no
    candidate feature admits a split.
    """
    n = len(y)
    if n < 2 or len(features) == 0:
        return None
    cols = x[:, features]
    # the rows left of a boundary are the same set whatever the order of
    # tied values, so an unstable (faster) sort finds the same split
    order = np.argsort(cols, axis=0)
    sorted_cols = np.take_along_axis(cols, order, axis=0)
    # cumulative positives left of each cut -> vectorized Gini scan
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


def _build_tree(
    x: np.ndarray,
    y: np.ndarray,
    depth: int,
    config: ForestConfig,
    n_features_per_split: int,
    rng: np.random.Generator,
) -> _TreeNode:
    node = _TreeNode()
    pos = int(y.sum())
    if (
        pos == 0
        or pos == len(y)
        or depth >= config.max_depth
        or len(y) < config.min_samples_split
    ):
        node.prediction = int(pos * 2 > len(y))  # majority; ties go to class 0
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


def _tree_predict(node: _TreeNode, x: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
    if node.prediction >= 0:
        out[rows] = node.prediction
        return
    mask = x[rows, node.feature] <= node.threshold
    _tree_predict(node.left, x, out, rows[mask])
    _tree_predict(node.right, x, out, rows[~mask])


class RandomForestClassifier:
    """Bootstrap-aggregated Gini decision trees with majority voting.

    ``seed`` fixes the bootstrap rows and per-split feature subsets of every tree.
    """

    def __init__(self, config: ForestConfig | None = None, seed: int = 0):
        self.config = config or ForestConfig()
        self.seed = seed
        self.trees_: list[_TreeNode] = []

    def _features_per_split(self, d: int) -> int:
        mf = self.config.max_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(d)))
        if mf == "all":
            return d
        return min(mf, d)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "RandomForestClassifier":
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        _check_binary(y)
        n, d = x.shape
        per_split = self._features_per_split(d)
        seeds = np.random.SeedSequence(self.seed).spawn(self.config.n_trees)
        self.trees_ = []
        for seq in seeds:
            rng = np.random.default_rng(seq)
            if self.config.bootstrap:
                rows = rng.integers(0, n, size=n)
                xb, yb = x[rows], y[rows]
            else:
                xb, yb = x, y
            self.trees_.append(_build_tree(xb, yb, 0, self.config, per_split, rng))
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise DataError("classifier is not fitted")
        x = np.asarray(features, dtype=np.float64)
        votes = np.zeros(len(x))
        scratch = np.empty(len(x), dtype=np.int64)
        rows = np.arange(len(x))
        for tree in self.trees_:
            _tree_predict(tree, x, scratch, rows)
            votes += scratch
        p1 = votes / len(self.trees_)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features)[:, 1] > 0.5).astype(np.int64)


# -- cross-validation ---------------------------------------------------------


@dataclass(frozen=True)
class CvReport:
    """Held-out accuracies of a stratified k-fold run."""

    folds: int
    accuracies: tuple[float, ...]
    mean_accuracy: float
    baseline_accuracy: float  # majority-class frequency
    classifier: str
    hyperparams: dict = field(default_factory=dict)
    seed: int = 0


def stratified_folds(
    labels: np.ndarray, folds: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffled per-class round-robin assignment into ``folds`` buckets.

    A single fold pointer runs across classes, so fold sizes differ by at
    most one overall and per-class counts differ by at most one per fold.
    """
    labels = np.asarray(labels)
    buckets: list[list[int]] = [[] for _ in range(folds)]
    pointer = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        for i in idx:
            buckets[pointer % folds].append(int(i))
            pointer += 1
    return [np.sort(np.asarray(b, dtype=np.int64)) for b in buckets]


def cross_validate(
    features: np.ndarray,
    labels: np.ndarray,
    kind: str,
    folds: int = 10,
    seed: int = 0,
    config=None,
) -> CvReport:
    """Stratified k-fold accuracy of one classifier kind.

    Each fold is held out once; the classifier is refit on the rest. Fold
    ``i`` seeds its forest with ``seed * 1000 + i``, keeping the whole run
    deterministic.
    """
    if kind not in ("linear", "forest"):
        raise ConfigError(f"unknown classifier kind: {kind!r}")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    if len(y) < folds:
        raise DataError(f"dataset of {len(y)} rows cannot fill {folds} folds")
    _check_binary(y)
    rng = np.random.default_rng(seed)
    fold_indices = stratified_folds(y, folds, rng)
    accuracies = []
    for i, held_out in enumerate(fold_indices):
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[held_out] = False
        if kind == "linear":
            clf = LogisticRegressionClassifier(config)
        else:
            clf = RandomForestClassifier(config, seed=seed * 1000 + i)
        clf.fit(x[train_mask], y[train_mask])
        predicted = clf.predict(x[held_out])
        accuracies.append(float((predicted == y[held_out]).mean()))
    counts = np.bincount(y)
    return CvReport(
        folds=folds,
        accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        baseline_accuracy=float(counts.max() / len(y)),
        classifier=kind,
        hyperparams=asdict(clf.config),
        seed=seed,
    )

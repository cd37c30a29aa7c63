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

    def features_per_split(self, d: int) -> int:
        """Candidate features per split among ``d``; a count above ``d`` is a DataError."""
        mf = self.max_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(d)))
        if mf == "all":
            return d
        if mf > d:
            raise DataError(f"negation.forest.max_features = {mf} exceeds the {d} features")
        return mf


def _grow_tree(columns, ranks, y, rows, config: ForestConfig, per_split: int, rng, root: int):
    """One Gini tree on the sample ``rows`` (repeats allowed), grown a level at a time.

    ``columns`` is the (d, n) feature matrix and ``ranks`` each column's dense
    value ranks. A node splits while it holds both classes and at least
    min_samples_split rows above max_depth; one draw per level picks every
    open node's candidate features. Each (open node, candidate) pair is a
    segment of one sort by ``segment * n + rank``, whose cumulative sums score
    every midpoint cut; ties go to the lowest feature, then the lowest cut.
    Returns (feature, threshold, left, value) per node in level order from
    ``root``. A leaf has feature -1 and predicts value, the majority class
    (ties to 0); an inner node sends value <= threshold to left[i], the rest
    to left[i] + 1.
    """
    d, n = columns.shape
    levels = []
    node = np.zeros(len(rows), dtype=np.int64)  # each row's node on this level
    width, first_id = 1, root  # the level's node count and its first node's id
    for depth in range(config.max_depth + 1):
        size = np.bincount(node, minlength=width)
        pos = np.bincount(node[y[rows] == 1], minlength=width)
        feature, threshold, left = np.full(width, -1), np.zeros(width), np.zeros(width, np.int64)
        levels.append((feature, threshold, left, (pos * 2 > size).astype(np.int64)))
        is_open = (pos > 0) & (pos < size) & (size >= config.min_samples_split)
        if depth == config.max_depth or not is_open.any():
            break
        opened = np.flatnonzero(is_open)
        k, p = len(opened), min(per_split, d)
        draw = rng.random((k, d)).argsort(axis=1)[:, :p] if p < d else np.tile(np.arange(d), (k, 1))
        picked = np.sort(draw, axis=1)
        kept = is_open[node]
        rows, node = rows[kept], (np.cumsum(is_open) - 1)[node[kept]]  # open node -> 0..k-1
        key = ((node * p + np.arange(p)[:, None]) * n + ranks[picked.T[:, node], rows]).ravel()
        order = np.argsort(key)
        key, members = key[order], np.tile(rows, p)[order]
        segment, at = key // n, np.arange(len(key))
        seg_size = np.repeat(size[opened], p)
        seg_start = np.cumsum(seg_size) - seg_size
        y_sorted = y[members]
        cum_pos = np.cumsum(y_sorted)
        cum_pos = (cum_pos - (cum_pos - y_sorted)[seg_start][segment]).astype(np.float64)
        left_n = (at + 1.0) - seg_start[segment]
        n_node = seg_size[segment]
        right_n = n_node - left_n
        total_pos = pos[opened][segment // p].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):  # right_n is 0 at segment ends
            p_left = cum_pos / left_n
            p_right = (total_pos - cum_pos) / right_n
            gini = (
                left_n * (2.0 * p_left * (1.0 - p_left))
                + right_n * (2.0 * p_right * (1.0 - p_right))
            ) / n_node
        # a cut needs a larger value after it in its segment
        gini[(right_n == 0) | np.append(key[1:] == key[:-1], True)] = np.inf
        best = np.minimum.reduceat(gini, seg_start).reshape(k, p)
        col = best.argmin(axis=1)
        score = best[np.arange(k), col]
        owner = segment // p
        hit = (gini == score[owner]) & (segment % p == col[owner])
        cut = np.minimum.reduceat(np.where(hit, at, len(at)), seg_start[::p])
        splitting = score < np.inf
        if not splitting.any():
            break
        split_nodes, f, cut = opened[splitting], picked[splitting, col[splitting]], cut[splitting]
        t = 0.5 * (columns[f, members[cut]] + columns[f, members[cut + 1]])
        feature[split_nodes], threshold[split_nodes] = f, t
        left[split_nodes] = first_id + width + 2 * np.arange(len(f))
        kept = splitting[node]
        rows, node = rows[kept], (np.cumsum(splitting) - 1)[node[kept]]  # split node -> slot
        node = 2 * node + ~(columns[f[node], rows] <= t[node])
        first_id, width = first_id + width, 2 * len(f)
    return tuple(np.concatenate(part) for part in zip(*levels))


class RandomForestClassifier:
    """Bootstrap-aggregated Gini decision trees with majority voting.

    ``seed`` fixes the bootstrap rows and per-level feature draws of every
    tree. The fitted trees are flat node arrays, concatenated over trees:
    ``feature_``, ``threshold_``, ``left_`` and ``value_``, with each tree's
    root in ``roots_`` (see ``_grow_tree``).
    """

    def __init__(self, config: ForestConfig | None = None, seed: int = 0):
        self.config = config or ForestConfig()
        self.seed = seed
        self.roots_: np.ndarray | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "RandomForestClassifier":
        columns = np.asarray(features, dtype=np.float64).T.copy()
        y = np.asarray(labels, dtype=np.int64)
        _check_binary(y)
        d, n = columns.shape
        per_split = self.config.features_per_split(d)
        ranks = np.array([np.unique(c, return_inverse=True)[1] for c in columns])
        trees, roots = [], [0]
        for seq in np.random.SeedSequence(self.seed).spawn(self.config.n_trees):
            rng = np.random.default_rng(seq)
            rows = rng.integers(0, n, size=n) if self.config.bootstrap else np.arange(n)
            tree = _grow_tree(columns, ranks, y, rows, self.config, per_split, rng, roots[-1])
            trees.append(tree)
            roots.append(roots[-1] + len(tree[0]))
        self.roots_ = np.array(roots[:-1])
        self.feature_, self.threshold_, self.left_, self.value_ = map(np.concatenate, zip(*trees))
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self.roots_ is None:
            raise DataError("classifier is not fitted")
        x = np.asarray(features, dtype=np.float64)
        at = np.arange(len(x))
        node = np.repeat(self.roots_[:, None], len(x), axis=1)  # (tree, row)
        for _ in range(self.config.max_depth):
            feature = self.feature_[node]
            goes_right = ~(x[at, feature] <= self.threshold_[node])
            node = np.where(feature >= 0, self.left_[node] + goes_right, node)
        p1 = self.value_[node].sum(axis=0) / len(self.roots_)
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
    fold_of = np.empty(len(labels), dtype=np.int64)
    start = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        fold_of[idx[rng.permutation(len(idx))]] = (start + np.arange(len(idx))) % folds
        start += len(idx)
    return [np.flatnonzero(fold_of == f) for f in range(folds)]


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

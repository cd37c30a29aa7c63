"""Binary classifiers and stratified cross-validation for the negation probe.

Both classifiers are self-contained: logistic regression fit by full-batch
gradient descent with an L2 penalty, and a random forest of axis-aligned
Gini trees with bootstrap aggregation and per-split feature subsampling,
whose splits are searched over at most 32 bins per feature. Both are
deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError, check_at_least


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
                b -= lr * (float(err.sum()) / n)  # err.mean()'s bits
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


BINS = 32  # split candidates per column: a column with at most BINS distinct values keeps each
GROUP_ENTRIES = 1 << 16  # (tree x row x candidate) entries per group of trees grown together


def _bin_codes(columns: np.ndarray) -> np.ndarray:
    """Each value's bin in its column: one bin per distinct value up to BINS, else quantiles.

    A column with more than BINS distinct values is cut before the values at
    its sorted positions ``i * n // BINS``; a cut that repeats leaves an empty
    bin, which splits nothing.
    """
    n = columns.shape[1]
    codes = np.empty(columns.shape, dtype=np.intp)
    for c, col in enumerate(columns):
        s = np.sort(col)
        values = s[np.append(True, s[1:] != s[:-1])]
        edges = values[1:] if len(values) <= BINS else s[np.arange(1, BINS) * n // BINS]
        codes[c] = np.searchsorted(edges, col, side="right")
    return codes


def _grow_trees(columns, codes, y, rngs, config: ForestConfig, per_split: int, base: int):
    """One Gini tree per generator in ``rngs``, all grown together a level at a time.

    ``columns`` is the (d, n) feature matrix and ``codes`` its bins. Each tree
    draws its sample rows (repeats allowed), then one feature draw per level
    for its open nodes. A node splits while it holds both classes and at
    least min_samples_split rows above max_depth. One bincount over (class,
    bin, candidate, open node) cells gives every candidate's histogram, whose
    cumulative sums score each cut between bins. A node's first Gini minimum
    splits it: ties go to the lowest feature, then the lowest cut. The
    threshold is the midpoint of the node's largest value at or below the cut
    and its smallest value above it. Rows are routed by value <= threshold,
    as ``predict_proba`` does: by bin they could differ where that midpoint
    rounds up onto the value above.

    Returns each tree's root and (feature, threshold, left, value) per node,
    numbered from ``base`` in level order, each level's nodes tree by tree.
    A leaf has feature -1 and predicts value, the majority class (ties to
    0); an inner node sends value <= threshold to left[i], the rest to
    left[i] + 1.
    """
    d, n = columns.shape
    p = per_split
    rows = np.concatenate(
        [rng.integers(0, n, size=n) if config.bootstrap else np.arange(n) for rng in rngs]
    )
    node = np.repeat(np.arange(len(rngs)), n)  # each row's node on this level
    tree = np.arange(len(rngs))  # each node's tree on this level
    levels = []
    first_id = base  # the level's first node id
    for depth in range(config.max_depth + 1):
        width = len(tree)
        size = np.bincount(node, minlength=width)
        pos = np.bincount(node[y[rows] == 1], minlength=width)
        feature, threshold, left = np.full(width, -1), np.zeros(width), np.zeros(width, np.int64)
        levels.append((feature, threshold, left, (pos * 2 > size).astype(np.int64)))
        is_open = (pos > 0) & (pos < size) & (size >= config.min_samples_split)
        if depth == config.max_depth or not is_open.any():
            break
        opened = np.flatnonzero(is_open)
        k = len(opened)
        counts = np.bincount(tree[opened], minlength=len(rngs))  # open nodes per tree
        draw = np.concatenate(
            [rng.random((c, d)).argsort(axis=1)[:, :p] for rng, c in zip(rngs, counts) if c]
        )
        picked = np.sort(draw, axis=1)  # at p == d, arange(d) on every row
        kept = is_open[node]
        rows, node = rows[kept], (np.cumsum(is_open) - 1)[node[kept]]  # open node -> 0..k-1
        # each (candidate, row) pair's histogram cell, in (class, bin, candidate, node) order
        cell = (picked.T * n).take(node, axis=1)
        cell += rows
        cell = codes.take(cell) * (p * k)
        cell += node + y[rows] * (BINS * p * k)
        cell += (np.arange(p) * k)[:, None]
        hist = np.bincount(cell.ravel(), minlength=2 * BINS * p * k).reshape(2, BINS, p, k)
        below = hist.astype(np.float64)  # counts in bins up to each: exact in float
        for b in range(1, BINS):  # np.cumsum is several times slower along this short axis
            below[:, b] += below[:, b - 1]
        cum_pos, left_n = below[1], below[0] + below[1]
        n_node = size[opened]
        right_n = n_node - left_n
        total_pos = pos[opened].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            p_left = cum_pos / left_n
            p_right = (total_pos - cum_pos) / right_n
            gini = (
                left_n * (2.0 * p_left * (1.0 - p_left))
                + right_n * (2.0 * p_right * (1.0 - p_right))
            ) / n_node
        gini[np.isnan(gini)] = np.inf  # 0 / 0: a cut with an empty side
        at = gini.argmin(axis=0)  # (candidate, node): the lowest cut at each minimum
        score = np.take_along_axis(gini, at[None], axis=0)[0]
        col = score.argmin(axis=0)  # then the lowest candidate
        splitting = score[col, np.arange(k)] < np.inf
        if not splitting.any():
            break
        split_nodes, col = opened[splitting], col[splitting]
        f, cut = picked[splitting, col], at[col, np.flatnonzero(splitting)]
        kept = splitting[node]
        rows, slot = rows[kept], (np.cumsum(splitting) - 1)[node[kept]]  # split node -> slot
        value = columns[f[slot], rows]
        low = codes[f[slot], rows] <= cut[slot]
        lo, hi = np.full(len(f), -np.inf), np.full(len(f), np.inf)
        np.maximum.at(lo, slot[low], value[low])
        np.minimum.at(hi, slot[~low], value[~low])
        t = 0.5 * (lo + hi)
        feature[split_nodes], threshold[split_nodes] = f, t
        left[split_nodes] = first_id + width + 2 * np.arange(len(f))
        node = 2 * slot + ~(value <= t[slot])
        tree = np.repeat(tree[split_nodes], 2)
        first_id += width
    return (base + np.arange(len(rngs)), *map(np.concatenate, zip(*levels)))


class RandomForestClassifier:
    """Bootstrap-aggregated Gini decision trees with majority voting.

    ``seed`` fixes the bootstrap rows and per-level feature draws of every
    tree. The fitted trees share flat node arrays, ``feature_``,
    ``threshold_``, ``left_`` and ``value_``, with each tree's root in
    ``roots_`` (see ``_grow_trees``).
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
        codes = _bin_codes(columns)
        seqs = np.random.SeedSequence(self.seed).spawn(self.config.n_trees)
        rngs = [np.random.default_rng(seq) for seq in seqs]
        per_group = max(1, GROUP_ENTRIES // (n * per_split))
        parts, base = [], 0
        for start in range(0, len(rngs), per_group):
            group = rngs[start : start + per_group]
            parts.append(_grow_trees(columns, codes, y, group, self.config, per_split, base))
            base += len(parts[-1][1])
        self.roots_, self.feature_, self.threshold_, self.left_, self.value_ = map(
            np.concatenate, zip(*parts)
        )
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


def check_fold_sizes(labels: np.ndarray, folds: int) -> None:
    """DataError unless 0/1 ``labels`` fill ``folds`` folds and leave every fit 2 rows per class."""
    if len(labels) < folds:
        raise DataError(f"dataset of {len(labels)} rows cannot fill {folds} folds")
    _check_binary(labels)
    for cls, count in enumerate(np.bincount(labels).tolist()):
        held_out = -(-count // folds)  # the most rows of the class that one fold holds out
        if count - held_out < 2:
            raise DataError(
                f"class {cls} has {count} rows, too few for {folds} folds: a fold holds out "
                f"{held_out} of them and each fit needs at least 2"
            )


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
    deterministic. ``check_fold_sizes`` refuses the labels before the first
    fit.
    """
    if kind not in ("linear", "forest"):
        raise ConfigError(f"unknown classifier kind: {kind!r}")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    check_fold_sizes(y, folds)
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

import inspect
import math
import warnings

import numpy as np
import pytest

from conftest import from_labeled_triples, make_table, run_python
from kgstruct.cluster import (
    ClusteringResult,
    calinski_harabasz_index,
    cohesion_scores,
    davies_bouldin_index,
    k_selection_scores,
    lloyd_kmeans,
    pca_project_2d,
    quality_report,
    relation_point_set,
    sample_cluster_exemplars,
    separation_scores,
    silhouette_score,
)
from kgstruct import cluster
from kgstruct.embedding import unit_rows
from kgstruct.errors import DataError
from kgstruct.graph import KnowledgeGraph


# -- brute-force reference implementations (independent oracles) -----------------


def brute_silhouette(x, labels):
    n = len(x)
    dist = np.asarray([[np.linalg.norm(x[i] - x[j]) for j in range(n)] for i in range(n)])
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = float(np.mean([dist[i][j] for j in own]))
        b = min(
            float(np.mean([dist[i][j] for j in range(n) if labels[j] == lab]))
            for lab in set(labels)
            if lab != labels[i]
        )
        scores.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return float(np.mean(scores))


def brute_davies_bouldin(x, labels):
    labs = sorted(set(labels))
    cents = {lab: np.mean([x[i] for i in range(len(x)) if labels[i] == lab], axis=0) for lab in labs}
    scatter = {
        lab: float(
            np.mean(
                [np.linalg.norm(x[i] - cents[lab]) for i in range(len(x)) if labels[i] == lab]
            )
        )
        for lab in labs
    }
    total = 0.0
    for a in labs:
        worst = max(
            (scatter[a] + scatter[b]) / np.linalg.norm(cents[a] - cents[b])
            for b in labs
            if b != a
        )
        total += worst
    return total / len(labs)


def brute_calinski_harabasz(x, labels):
    n = len(x)
    labs = sorted(set(labels))
    overall = np.mean(x, axis=0)
    between = 0.0
    within = 0.0
    for lab in labs:
        members = np.asarray([x[i] for i in range(n) if labels[i] == lab])
        c = members.mean(axis=0)
        between += len(members) * float(np.sum((c - overall) ** 2))
        within += float(np.sum((members - c) ** 2))
    if within == 0.0:
        return float("inf")
    return (between / (len(labs) - 1)) / (within / (n - len(labs)))


def adjusted_rand_index(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    classes_a = np.unique(a)
    classes_b = np.unique(b)
    contingency = np.zeros((len(classes_a), len(classes_b)))
    for i, ca in enumerate(classes_a):
        for j, cb in enumerate(classes_b):
            contingency[i, j] = np.sum((a == ca) & (b == cb))
    comb = lambda v: v * (v - 1) / 2.0
    sum_ij = comb(contingency).sum()
    sum_a = comb(contingency.sum(axis=1)).sum()
    sum_b = comb(contingency.sum(axis=0)).sum()
    total = comb(len(a))
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    return (sum_ij - expected) / (max_index - expected)


def two_blobs(n=60, separation=12.0, seed=0):
    rng = np.random.default_rng(seed)
    x = np.vstack(
        [
            rng.normal(0.0, 1.0, size=(n // 2, 2)),
            rng.normal(separation, 1.0, size=(n - n // 2, 2)),
        ]
    )
    labels = np.asarray([0] * (n // 2) + [1] * (n - n // 2))
    return x, labels


# -- lloyd_kmeans ------------------------------------------------------------------


def test_kmeans_k1_closed_form():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 3))
    result = lloyd_kmeans(x, 1, seed=0)
    assert np.allclose(result.centroids[0], x.mean(axis=0), atol=1e-12)
    assert result.inertia == pytest.approx(((x - x.mean(axis=0)) ** 2).sum())


def test_kmeans_k_equals_n_distinct_points():
    x = np.asarray([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    result = lloyd_kmeans(x, 4, seed=0)
    assert result.inertia == pytest.approx(0.0, abs=1e-18)
    assert sorted(result.assignments.tolist()) == [0, 1, 2, 3]


def test_kmeans_bounds():
    x = np.zeros((3, 2))
    with pytest.raises(DataError):
        lloyd_kmeans(x, 0, seed=0)
    with pytest.raises(DataError):
        lloyd_kmeans(x, 4, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(50, 4))
    a = lloyd_kmeans(x, 5, seed=3)
    b = lloyd_kmeans(x, 5, seed=3)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_inertia_never_increases_per_iteration():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(n, 6) + 1))
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        result = lloyd_kmeans(x, k, seed=trial)
        history = result.inertia_history
        assert all(
            later <= earlier + 1e-9 for earlier, later in zip(history, history[1:])
        ), f"trial {trial}: {history}"


def test_kmeans_final_assignments_are_nearest():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    result = lloyd_kmeans(x, 4, seed=1)
    dists = ((x[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(result.assignments, dists.argmin(axis=1))
    # moving any single point to any other cluster cannot lower inertia
    own = dists[np.arange(len(x)), result.assignments]
    assert np.all(own[:, None] <= dists + 1e-12)


def test_kmeans_duplicate_points_keep_k_and_count():
    x = np.asarray([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5 + [[2.0, 0.0]])
    result = lloyd_kmeans(x, 3, seed=2)
    assert result.k == 3
    assert len(result.assignments) == len(x)
    assert sorted(np.bincount(result.assignments, minlength=3).tolist()) == [1, 5, 5]


def test_kmeans_rejects_more_clusters_than_distinct_points():
    x = np.asarray([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5 + [[2.0, 0.0]])
    with pytest.raises(DataError, match="k = 5 exceeds the 3 distinct points"):
        lloyd_kmeans(x, 5, seed=2)
    with pytest.raises(DataError, match="k = 4 exceeds the 3 distinct points"):
        k_selection_scores(x, range(2, 6), seed=2)


def test_kmeans_two_blob_recovery():
    x, planted = two_blobs(n=80, separation=10.0, seed=3)
    result = lloyd_kmeans(x, 2, seed=7)
    assert adjusted_rand_index(result.assignments, planted) >= 0.95


def test_kmeans_warm_start_initial_centroids():
    x, _ = two_blobs(n=20, separation=8.0, seed=1)
    init = np.asarray([[0.0, 0.0], [8.0, 8.0]])
    result = lloyd_kmeans(x, 2, seed=0, initial_centroids=init)
    assert result.k == 2
    with pytest.raises(DataError):
        lloyd_kmeans(x, 2, seed=0, initial_centroids=np.zeros((3, 2)))


def test_kmeans_centroid_sums_match_add_at_reference(monkeypatch):
    # the benchmark's HasContext size: 4,000 points, d = 32, k = 20
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4000, 32)) + rng.integers(0, 6, size=(4000, 1))
    start = x[rng.choice(len(x), size=20, replace=False)]
    start[-1] = 1e6  # far from every point: this cluster stays empty
    monkeypatch.setattr(cluster, "LLOYD_MAX_ROUNDS", 1)
    result = lloyd_kmeans(x, 20, initial_centroids=start)

    assigned = ((x[:, None, :] - start[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    sums = np.zeros_like(start)
    np.add.at(sums, assigned, x)
    counts = np.bincount(assigned, minlength=20)
    assert counts[-1] == 0
    expected = sums[:-1] / counts[:-1, None]
    # one bincount adds each cluster's rows in row order, as np.add.at does
    np.testing.assert_allclose(result.centroids[:-1], expected, rtol=1e-12, atol=1e-12)
    # the empty cluster was reseeded at a data point
    assert any(np.array_equal(result.centroids[-1], row) for row in x)


def reference_lloyd_round(x, centers):
    """One Lloyd round of the old loop: np.add.at sums, then each empty
    cluster in turn takes the point farthest from its centroid (argmax)."""
    k, n = len(centers), len(x)
    dists = cluster._squared_distances(x, centers, cluster._squared_norms(x))
    assigned = dists.argmin(axis=1)
    sums = np.zeros_like(centers)
    np.add.at(sums, assigned, x)
    counts = np.bincount(assigned, minlength=k)
    new = centers.copy()
    nonempty = counts > 0
    new[nonempty] = sums[nonempty] / counts[nonempty, None]
    point_dist = dists[np.arange(n), assigned].copy()
    for j in np.flatnonzero(~nonempty):
        far = int(point_dist.argmax())
        new[j] = x[far]
        point_dist[far] = -1.0
    return new


def _round_cases():
    wide = np.random.default_rng(2).normal(size=(4000, 32))
    wide_start = wide[np.random.default_rng(1).choice(4000, size=20, replace=False)]
    wide_start[[3, 11, 19]] = [[1e6], [2e6], [3e6]]  # far from every point: these stay empty
    # five distinct points tie for farthest from the one centroid that gets
    # members; the three empty clusters take the first three, in index order
    ring = [[3.0, 4.0], [5.0, 0.0], [-4.0, 3.0], [0.0, -5.0], [-3.0, -4.0]]
    inner = np.random.default_rng(4).integers(-2, 3, size=(30, 2)).astype(float)
    ties = np.vstack([inner[:10], ring, inner[10:]])
    return [
        pytest.param(wide, wide_start, id="4000x32-three-empty"),
        pytest.param(ties, np.array([[0.0, 0.0], [1e6, 0.0], [2e6, 0.0], [3e6, 0.0]]),
                     id="tied-farthest-points"),
    ]


@pytest.mark.parametrize("x, start", _round_cases())
def test_kmeans_round_equals_the_add_at_and_argmax_reference(x, start, monkeypatch):
    monkeypatch.setattr(cluster, "LLOYD_MAX_ROUNDS", 1)
    result = lloyd_kmeans(x, len(start), initial_centroids=start)
    np.testing.assert_array_equal(result.centroids, reference_lloyd_round(x, start))


def reference_squared_distances(x, centers, x_sq):
    sq = x_sq[:, None] + cluster._squared_norms(centers)[None, :] - 2.0 * (x @ centers.T)
    return np.maximum(sq, 0.0)


def reference_cluster_means(values, label_of, k):
    """_cluster_means as it was: one bincount over the (label, column) codes of (n, d) rows."""
    d = values.shape[1]
    counts = np.bincount(label_of, minlength=k)
    codes = (label_of[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(codes, weights=values.ravel(), minlength=k * d).reshape(k, d)
    return counts, sums / np.maximum(counts, 1)[:, None]


# the benchmark's HasContext shape: 4,000 translation vectors of dimension 32
DESK_POINTS = (
    np.random.default_rng(30).normal(size=(4000, 32)).astype(np.float32).astype(np.float64)
    + np.random.default_rng(29).integers(0, 6, size=(4000, 1))
)


def reference_lloyd_kmeans(points, k, seed=0, max_iters=300, tol=1e-4, initial_centroids=None):
    """Lloyd as it was written with a second assignment step after the loop."""
    x = np.asarray(points, dtype=np.float64)
    n = len(x)
    if not 1 <= k <= n:
        raise DataError(f"k must satisfy 1 <= k <= {n}, got {k}")
    rng = np.random.default_rng(seed)
    x_sq = cluster._squared_norms(x)
    if initial_centroids is not None:
        centers = np.array(initial_centroids, dtype=np.float64)
        if centers.shape != (k, x.shape[1]):
            raise DataError(
                f"initial centroids must have shape {(k, x.shape[1])}, "
                f"got {centers.shape}"
            )
    else:
        centers = cluster._kmeans_plus_plus(x, k, rng, x_sq)

    history: list[float] = []
    assignments = np.zeros(n, dtype=np.int64)
    converged = False
    iteration = 0
    for iteration in range(1, max_iters + 1):
        dists = reference_squared_distances(x, centers, x_sq)
        assignments = dists.argmin(axis=1)
        point_dist = dists[np.arange(n), assignments]
        inertia = float(point_dist.sum())
        history.append(inertia)

        counts, new_centers = reference_cluster_means(x, assignments, k)
        empty = counts == 0
        if empty.any():
            # empty clusters in order take the farthest points, ties to the
            # lowest index: what repeated argmax with each pick removed gives
            farthest = np.argsort(-point_dist, kind="stable")[: int(empty.sum())]
            new_centers[empty] = x[farthest]

        shift = float(((new_centers - centers) ** 2).sum(axis=1).max())
        centers = new_centers
        if shift < tol:
            converged = True
            break

    # final assignment against the final centroids
    dists = reference_squared_distances(x, centers, x_sq)
    assignments = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), assignments].sum())
    history.append(inertia)
    if np.bincount(assignments, minlength=k).min() == 0:
        distinct = len(np.unique(x, axis=0))
        if distinct < k:
            raise DataError(f"k = {k} exceeds the {distinct} distinct points")
    return ClusteringResult(
        k=k,
        assignments=assignments,
        centroids=centers,
        inertia=inertia,
        inertia_history=history,
        n_iterations=iteration,
        converged=converged,
    )


def _lloyd_cases():
    rng = np.random.default_rng(12)
    blobs = rng.normal(size=(600, 16)) + rng.integers(0, 5, size=(600, 1)) * 3.0
    warm = blobs[rng.choice(600, size=6, replace=False)]
    far = warm.copy()
    far[[1, 4]] = 1e6  # far from every point: these clusters start empty
    return [
        pytest.param(blobs, 6, None, id="cold"),
        pytest.param(blobs, 6, warm, id="warm"),
        pytest.param(blobs, 6, far, id="empty-reseed"),
        pytest.param(DESK_POINTS, 20, None, id="4000x32-k20"),
    ]


@pytest.mark.parametrize("max_iters", [0, 1, 2, 300])
@pytest.mark.parametrize("x, k, start", _lloyd_cases())
def test_lloyd_equals_the_two_assignment_reference(x, k, start, max_iters, monkeypatch):
    monkeypatch.setattr(cluster, "LLOYD_MAX_ROUNDS", max_iters)
    got = lloyd_kmeans(x, k, seed=5, initial_centroids=start)
    want = reference_lloyd_kmeans(x, k, seed=5, max_iters=max_iters, initial_centroids=start)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.assignments.tobytes() == want.assignments.tobytes()
    assert np.float64(got.inertia).tobytes() == np.float64(want.inertia).tobytes()
    assert np.array(got.inertia_history).tobytes() == np.array(want.inertia_history).tobytes()
    assert (got.n_iterations, got.converged) == (want.n_iterations, want.converged)
    assert len(got.inertia_history) == got.n_iterations + 1
    if max_iters == 300:
        assert got.converged and got.n_iterations < 300


@pytest.mark.parametrize("max_iters", [0, 1, 2, 300])
def test_lloyd_raises_the_references_error_on_too_few_distinct_points(max_iters, monkeypatch):
    x = np.asarray([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5 + [[2.0, 0.0]])
    with pytest.raises(DataError) as want:
        reference_lloyd_kmeans(x, 5, seed=2, max_iters=max_iters)
    monkeypatch.setattr(cluster, "LLOYD_MAX_ROUNDS", max_iters)
    with pytest.raises(DataError) as got:
        lloyd_kmeans(x, 5, seed=2)
    assert str(got.value) == str(want.value) == "k = 5 exceeds the 3 distinct points"


def _column_mean_cases():
    rng = np.random.default_rng(31)
    wide = rng.normal(size=(7000, 64)) + rng.integers(0, 6, size=(7000, 1))
    yield "lloyd-4000x32", DESK_POINTS, lloyd_kmeans(DESK_POINTS, 20, seed=1).assignments, 20
    yield "7000x64", wide, rng.integers(0, 20, size=7000), 20
    # labels with gaps: the clusters between them get no members
    yield "non-contiguous-labels", wide[:500], rng.choice([3, 7, 10, 42], size=500), 43
    yield "empty-clusters", DESK_POINTS[:300], rng.integers(0, 5, size=300), 9
    # the Davies-Bouldin scatter and the cohesion distances: one value per point
    spread = np.sqrt((DESK_POINTS**2).sum(axis=1))
    yield "one-column", spread[:, None], rng.integers(0, 20, size=4000), 20


COLUMN_MEAN_CASES = {name: case for name, *case in _column_mean_cases()}


@pytest.mark.parametrize("case", list(COLUMN_MEAN_CASES))
def test_cluster_means_by_column_have_the_bits_of_the_codes_version(case):
    x, labels, k = COLUMN_MEAN_CASES[case]
    want_counts, want_means = reference_cluster_means(x, labels, k)
    if case in ("non-contiguous-labels", "empty-clusters"):
        assert (want_counts == 0).any()
    # Lloyd passes a contiguous (d, n) copy; the scores pass x.T, a view
    for columns in (np.ascontiguousarray(x.T), x.T):
        counts, means = cluster._cluster_means(columns, labels, k)
        assert counts.tobytes() == want_counts.tobytes()
        assert means.tobytes() == want_means.tobytes()
        assert means.flags.c_contiguous


SQUARED_DISTANCE_BITS = f"""
import numpy as np
from kgstruct import cluster

{inspect.getsource(reference_squared_distances)}
rng = np.random.default_rng(6)
x = rng.normal(size=(4000, 32)).astype(np.float32).astype(np.float64)
x += rng.integers(0, 6, size=(4000, 1))
centers = x[rng.choice(4000, size=20, replace=False)]
# Lloyd's round, a k-means++ step, one silhouette chunk of 128 rows
for name, a, b in [("20 centres", x, centers), ("1 centre", x, centers[:1]),
                   ("128-row chunk", x[256:384], x)]:
    a_sq = cluster._squared_norms(a)
    want = reference_squared_distances(a, b, a_sq)
    out, work = np.empty_like(want), np.empty_like(want)
    got = cluster._squared_distances(a, b, a_sq, cluster._squared_norms(b), out, work)
    print(name, got.shape, got.tobytes() == want.tobytes())
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_squared_distances_equal_the_three_temporary_reference_bitwise(threads):
    """Doubling the operand with fewer rows keeps the bits of 2.0 * (x @ y.T) at 1 and 2 BLAS threads."""
    assert run_python(["-c", SQUARED_DISTANCE_BITS], threads).splitlines() == [
        "20 centres (4000, 20) True",
        "1 centre (4000, 1) True",
        "128-row chunk (128, 4000) True",
    ]


# -- scores vs brute force -----------------------------------------------------------


@pytest.mark.parametrize("trial", range(12))
def test_scores_match_bruteforce_on_small_fixtures(trial):
    rng = np.random.default_rng(trial)
    n = int(rng.integers(4, 13))
    d = int(rng.integers(1, 4))
    k = int(rng.integers(2, n))
    x = rng.normal(size=(n, d))
    labels = lloyd_kmeans(x, k, seed=trial).assignments
    if len(np.unique(labels)) < 2:
        pytest.skip("degenerate clustering")
    assert silhouette_score(x, labels) == pytest.approx(
        brute_silhouette(x, labels), abs=1e-9
    )
    assert davies_bouldin_index(x, labels) == pytest.approx(
        brute_davies_bouldin(x, labels), abs=1e-9
    )
    assert calinski_harabasz_index(x, labels) == pytest.approx(
        brute_calinski_harabasz(x, labels), abs=1e-9, rel=1e-9
    )


def test_silhouette_five_point_hand_fixture():
    x = np.asarray([[0.0], [1.0], [10.0], [11.0], [12.0]])
    labels = np.asarray([0, 0, 1, 1, 1])
    assert silhouette_score(x, labels) == pytest.approx(brute_silhouette(x, labels), abs=1e-12)


def test_silhouette_blas_path_matches_bruteforce(monkeypatch):
    # the BLAS distance path at a size the O(n^2) Python oracle can afford;
    # 7-row chunks leave a partial last chunk
    rng = np.random.default_rng(5)
    x = rng.normal(size=(150, 4)) + rng.integers(0, 3, size=(150, 1)) * 4.0
    labels = lloyd_kmeans(x, 5, seed=1).assignments
    labels[0] = 7  # a singleton cluster scores 0
    for chunk in (7, 128, 1000):
        monkeypatch.setattr(cluster, "SILHOUETTE_ROWS", chunk)
        assert silhouette_score(x, labels) == pytest.approx(
            brute_silhouette(x, labels), abs=1e-9
        )


def test_silhouette_blas_path_at_benchmark_size():
    n = 2500
    rng = np.random.default_rng(6)
    x = rng.normal(size=(n, 8)) + rng.integers(0, 4, size=(n, 1)) * 3.0
    labels = lloyd_kmeans(x, 6, seed=2).assignments
    # brute_silhouette's Python loops take ~30 s at this size; this oracle
    # keeps its direct differencing and per-point means, one row at a time
    sizes = np.bincount(labels)
    expected = np.empty(n)
    for i in range(n):
        dist = np.linalg.norm(x - x[i], axis=1)
        means = np.bincount(labels, weights=dist) / sizes
        own = labels[i]
        a = dist[labels == own].sum() / (sizes[own] - 1)
        b = np.delete(means, own).min()
        expected[i] = (b - a) / max(a, b)
    assert silhouette_score(x, labels) == pytest.approx(float(expected.mean()), abs=1e-9)


def _exact_distances(a, b, col_chunk=1024):
    """Euclidean distances by direct differencing (no cancellation error)."""
    out = np.empty((len(a), len(b)))
    for start in range(0, len(b), col_chunk):
        diff = a[:, None, :] - b[None, start : start + col_chunk, :]
        out[:, start : start + col_chunk] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def exact_silhouette(x, labels, chunk=128):
    """Mean silhouette from directly differenced distances, a row chunk at a time."""
    n = len(x)
    _, label_of = np.unique(labels, return_inverse=True)
    counts = np.bincount(label_of)
    onehot = np.eye(len(counts))[label_of]
    scores = np.empty(n)
    for start in range(0, n, chunk):
        rows = np.arange(start, min(start + chunk, n))
        sums = _exact_distances(x[rows], x) @ onehot
        own = label_of[rows]
        a = sums[np.arange(len(rows)), own] / np.maximum(counts[own] - 1, 1)
        means = sums / counts
        means[np.arange(len(rows)), own] = np.inf
        b = means.min(axis=1)
        scores[rows] = np.where(counts[own] > 1, (b - a) / np.maximum(a, b), 0.0)
    return float(scores.mean())


def far_points(n):
    """Tight clusters (spread 0.01) offset by 1e4, with some points labelled into the wrong one."""
    rng = np.random.default_rng(n)
    centers = rng.normal(size=(6, 4))
    planted = rng.integers(0, 6, size=n)
    x = 1e4 + centers[planted] + 0.01 * rng.normal(size=(n, 4))
    labels = planted.copy()
    labels[:n // 20] = (labels[:n // 20] + 1) % 6
    return x, labels


@pytest.mark.parametrize("n", [300, 2100])
def test_silhouette_is_exact_far_from_the_origin(n):
    # |x|^2 + |y|^2 - 2 x.y of the raw points cancels ~1e8 down to ~1e-4 and
    # keeps only a few digits
    x, labels = far_points(n)
    assert silhouette_score(x, labels) == pytest.approx(exact_silhouette(x, labels), abs=1e-12)


def test_silhouette_rejects_single_cluster():
    x = np.zeros((5, 2))
    with pytest.raises(DataError):
        silhouette_score(x, np.zeros(5, dtype=int))


def silhouette_rows(sums, own, counts):
    """s(i) of each chunk row from its per-cluster distance sums; ``own`` holds each row's cluster."""
    m = len(own)
    own_count = counts[own]
    a = np.where(own_count > 1, sums[np.arange(m), own] / np.maximum(own_count - 1, 1), 0.0)
    means = sums / counts[None, :]
    means[np.arange(m), own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    return np.where((own_count > 1) & (denom > 0), (b - a) / np.where(denom > 0, denom, 1.0), 0.0)


def reference_silhouettes(points, labelings, chunk=128):
    """The BLAS-sum silhouette kernel that the grid kernel replaced, for each labeling.

    Its distance rows are built as the grid kernel builds them: centered
    points, the BLAS expansion, and each point's own entry set to 0. Each
    labeling's per-cluster sums are one product of the raw distances with its
    own indicator matrix, so each score has the bits of a one-labeling call.
    """
    x = np.asarray(points, dtype=np.float64)
    x = x - x.mean(axis=0)
    n = len(x)
    cases = []
    for assignments in labelings:
        labels = np.unique(assignments)
        label_of = np.searchsorted(labels, assignments)
        onehot = np.zeros((n, len(labels)))
        onehot[np.arange(n), label_of] = 1.0
        cases.append((label_of, np.bincount(label_of, minlength=len(labels)), onehot))
    x_sq = (x * x).sum(axis=1)
    buffer = np.empty((min(chunk, n), n))
    gram = np.empty_like(buffer)
    scores = np.empty((len(labelings), n), dtype=np.float64)
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        m = rows.stop - start
        d, g = buffer[:m], gram[:m]
        np.add(x_sq[rows, None], x_sq[None, :], out=d)
        np.matmul(x[rows], x.T, out=g)
        g *= 2.0
        d -= g
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        d[np.arange(m), np.arange(start, start + m)] = 0.0
        for out, (label_of, counts, onehot) in zip(scores, cases):
            out[rows] = silhouette_rows(d @ onehot, label_of[rows], counts)
    return [float(row.mean()) for row in scores]


def reference_silhouette(points, assignments, chunk=128):
    """The single-k silhouette of the BLAS-sum kernel."""
    return reference_silhouettes(points, [assignments], chunk)[0]


def grid_distance_chunks(points, chunk=128):
    """(rows, distances) of each row chunk of the centered points, in steps of the grid kernel.

    Frozen from the grid kernel: the expansion's distances, each point's own
    entry 0, scaled by 2^(52 - e) with n (2 max|x_i| + 1) < 2^e and rounded
    to integers.
    """
    x = np.asarray(points, dtype=np.float64)
    x = x - x.mean(axis=0)
    n = len(x)
    x_sq = (x * x).sum(axis=1)
    scale = 2.0 ** (52 - math.frexp(n * (2.0 * math.sqrt(x_sq.max()) + 1.0))[1])
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        d = np.sqrt(reference_squared_distances(x[rows], x, x_sq[rows]))
        d[np.arange(rows.stop - start), np.arange(start, rows.stop)] = 0.0
        yield rows, np.rint(d * scale)


def grid_silhouettes(points, labelings, chunk=128):
    """The grid kernel, frozen: one product per chunk with every labeling's indicators side by side."""
    n = len(points)
    cases = [np.unique(labels, return_inverse=True)[1] for labels in labelings]
    counts = [np.bincount(label_of) for label_of in cases]
    offsets = np.cumsum([0] + [len(c) for c in counts])
    onehot = np.zeros((n, offsets[-1]))
    for offset, label_of in zip(offsets, cases):
        onehot[np.arange(n), offset + label_of] = 1.0
    scores = np.empty((len(labelings), n))
    for rows, d in grid_distance_chunks(points, chunk):
        sums = d @ onehot
        for out, offset, label_of, count in zip(scores, offsets, cases, counts):
            out[rows] = silhouette_rows(sums[:, offset : offset + len(count)], label_of[rows], count)
    return [float(row.mean()) for row in scores]


def reference_curve(x, ks, seed):
    """k_selection_scores as one fit and one call of each score per k, in k order; and the labelings."""
    x_sq = (x * x).sum(axis=1)
    curve = {"inertia": [], "silhouette": [], "davies_bouldin": [], "calinski_harabasz": []}
    labelings = []
    previous = None
    for k in ks:
        result = lloyd_kmeans(x, k, seed=seed + k)
        if previous is not None:
            centers = previous.centroids
            closest = cluster._squared_distances(x, centers, x_sq).min(axis=1)
            for _ in range(k - previous.k):
                far = int(closest.argmax())
                centers = np.vstack([centers, x[far : far + 1]])
                closest = np.minimum(closest, cluster._squared_distances(x, centers[-1:], x_sq)[:, 0])
            warm = lloyd_kmeans(x, k, seed=seed + k, initial_centroids=centers)
            if warm.inertia < result.inertia:
                result = warm
        previous = result
        labelings.append(result.assignments)
        curve["inertia"].append(result.inertia)
        curve["silhouette"].append(grid_silhouettes(x, [result.assignments])[0])
        curve["davies_bouldin"].append(reference_davies_bouldin_index(x, result.assignments))
        curve["calinski_harabasz"].append(
            reference_calinski_harabasz_index(x, result.assignments)
        )
    return curve, labelings


def relabelled(x, labelings):
    """Each labeling as the k sweep hands it to ``_silhouette_scores``."""
    need = f"silhouette needs 2 <= clusters <= {len(x) - 1}"
    return [cluster._relabel(labels, len(x) - 1, need) for labels in labelings]


@pytest.mark.parametrize("n", [300, 2100], ids=["300-points", "2100-points"])
def test_batched_silhouette_has_the_bits_of_one_call_per_labeling(n, monkeypatch):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 6)) + rng.integers(0, 4, size=(n, 1)) * 3.0
    labelings = [lloyd_kmeans(x, k, seed=k).assignments for k in (2, 5, 9)]
    labelings.append(labelings[1] * 7 - 3)  # labels that are not 0..k-1
    labelings.append(np.where(np.arange(n) == 0, 99, labelings[0]))  # with a singleton
    expected = grid_silhouettes(x, labelings)
    assert cluster._silhouette_scores(x, relabelled(x, labelings)) == expected
    assert [silhouette_score(x, labels) for labels in labelings] == expected
    monkeypatch.setattr(cluster, "SILHOUETTE_ROWS", 50)
    assert cluster._silhouette_scores(x, relabelled(x, labelings)) == grid_silhouettes(
        x, labelings, chunk=50
    )
    assert expected == pytest.approx(reference_silhouettes(x, labelings), rel=1e-12, abs=0)


def test_silhouettes_have_the_same_bits_at_every_chunk_size(monkeypatch):
    x, labels = LABELING_CASES["4000x32-k20"]
    labelings = relabelled(x, [labels, lloyd_kmeans(x, 3, seed=1).assignments])
    want = cluster._silhouette_scores(x, labelings)
    for chunk in (7, 50):
        monkeypatch.setattr(cluster, "SILHOUETTE_ROWS", chunk)
        assert cluster._silhouette_scores(x, labelings) == want


@pytest.mark.parametrize("case", ["7000x64-k24", "far-from-the-origin"])
def test_grid_sums_are_exact(case):
    """On the grid, n distances sum below 2^52, so the BLAS product equals the integer one."""
    x, labels = LABELING_CASES[case] if case in LABELING_CASES else far_points(2100)
    onehot = np.eye(labels.max() + 1)[labels]
    for _, d in grid_distance_chunks(x):
        assert d.max() * len(x) < 2.0**52
        assert np.array_equal(d @ onehot, d.astype(np.int64) @ onehot.astype(np.int64))


def test_grid_silhouettes_of_a_23_labeling_sweep_are_within_1e_12_of_the_blas_sums(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7000, 64)) + rng.integers(0, 6, size=(7000, 1))
    monkeypatch.setattr(cluster, "LLOYD_MAX_ROUNDS", 5)
    labelings = [lloyd_kmeans(x, k, seed=k).assignments for k in range(2, 25)]
    got = cluster._silhouette_scores(x, relabelled(x, labelings))
    assert got == pytest.approx(reference_silhouettes(x, labelings), rel=1e-12, abs=0)


def test_k_selection_equals_the_per_k_reference_curve():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(400, 5)) + rng.integers(0, 5, size=(400, 1)) * 2.5
    curve = k_selection_scores(x, range(2, 8), seed=3)
    want, labelings = reference_curve(x, range(2, 8), 3)
    assert vars(curve) == {"ks": list(range(2, 8)), **want}
    assert curve.silhouette == pytest.approx(reference_silhouettes(x, labelings), rel=1e-12, abs=0)


def test_batched_silhouette_rejects_a_one_cluster_labeling():
    x, planted = two_blobs(n=30, seed=2)
    with pytest.raises(DataError, match=r"^silhouette needs 2 <= clusters <= 29, got 1$"):
        cluster._silhouette_scores(x, relabelled(x, [planted, np.full(30, 4)]))
    with pytest.raises(DataError, match=r"^silhouette needs 2 <= clusters <= 29, got 1$"):
        silhouette_score(x, np.full(30, 4))


def test_scores_bounds():
    x, planted = two_blobs(n=30, separation=9.0, seed=2)
    sil = silhouette_score(x, planted)
    assert -1.0 <= sil <= 1.0
    assert davies_bouldin_index(x, planted) >= 0.0
    assert calinski_harabasz_index(x, planted) > 0.0


def reference_davies_bouldin(points, assignments):
    """davies_bouldin_index as it was: a mask and a mean per label."""
    x = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    labels = np.unique(assignments)
    centroids = np.vstack([x[assignments == lab].mean(axis=0) for lab in labels])
    scatter = np.array(
        [
            np.sqrt(((x[assignments == lab] - centroids[j]) ** 2).sum(axis=1)).mean()
            for j, lab in enumerate(labels)
        ]
    )
    dist = np.sqrt(((centroids[:, None] - centroids[None]) ** 2).sum(axis=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (scatter[:, None] + scatter[None, :]) / dist
    np.fill_diagonal(ratio, -np.inf)
    return float(np.max(ratio, axis=1).mean())


def reference_calinski_harabasz(points, assignments):
    """calinski_harabasz_index as it was: per-label sums into Python floats."""
    x = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    n = len(x)
    labels = np.unique(assignments)
    k = len(labels)
    overall = x.mean(axis=0)
    between = 0.0
    within = 0.0
    for lab in labels:
        members = x[assignments == lab]
        centroid = members.mean(axis=0)
        between += len(members) * float(((centroid - overall) ** 2).sum())
        within += float(((members - centroid) ** 2).sum())
    if within == 0.0:
        return float("inf")
    return (between / (k - 1)) / (within / (n - k))


def reference_davies_bouldin_index(points, assignments):
    """davies_bouldin_index before the k sweep shared its relabel and centroids with
    Calinski-Harabasz, on the frozen codes version of ``_cluster_means``."""
    x = np.asarray(points, dtype=np.float64)
    labels, label_of = np.unique(np.asarray(assignments), return_inverse=True)
    k = len(labels)
    if k < 2:
        raise DataError(f"Davies-Bouldin needs >= 2 clusters, got {k}")
    _, centroids = reference_cluster_means(x, label_of, k)
    spread = np.sqrt(((x - centroids[label_of]) ** 2).sum(axis=1))
    scatter = reference_cluster_means(spread[:, None], label_of, k)[1][:, 0]
    dist = np.sqrt(((centroids[:, None] - centroids[None]) ** 2).sum(axis=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (scatter[:, None] + scatter[None, :]) / dist
    np.fill_diagonal(ratio, -np.inf)
    return float(np.max(ratio, axis=1).mean())


def reference_calinski_harabasz_index(points, assignments):
    """calinski_harabasz_index with its own relabel, centroids and residuals."""
    x = np.asarray(points, dtype=np.float64)
    n = len(x)
    labels, label_of = np.unique(np.asarray(assignments), return_inverse=True)
    k = len(labels)
    if not 2 <= k < n:
        raise DataError(f"Calinski-Harabasz needs 2 <= clusters < {n}, got {k}")
    counts, centroids = reference_cluster_means(x, label_of, k)
    between = float((counts * ((centroids - x.mean(axis=0)) ** 2).sum(axis=1)).sum())
    within = float(((x - centroids[label_of]) ** 2).sum())
    if within == 0.0:
        return float("inf")
    return (between / (k - 1)) / (within / (n - k))


def reference_separation_scores(result):
    """separation_scores with its per-cluster loop over the other unit centroids."""
    if result.k < 2:
        raise DataError("separation needs k >= 2")
    unit, ok = unit_rows(result.centroids)
    if not ok.all():
        cluster.log.warning("separation: %d zero-norm centroids get NaN", int((~ok).sum()))
    dist = np.sqrt(((unit[:, None] - unit[None]) ** 2).sum(axis=2))
    out = np.full(result.k, np.nan)
    for j in range(result.k):
        others = [i for i in range(result.k) if i != j and ok[i]]
        if ok[j] and others:
            out[j] = float(dist[j, others].mean())
    return out


def same_bits(got, want):
    as_bytes = [np.asarray(value, dtype=np.float64).tobytes() for value in (got, want)]
    return as_bytes[0] == as_bytes[1]


def _labeling_cases():
    rng = np.random.default_rng(40)
    wide = rng.normal(size=(7000, 64)) + rng.integers(0, 6, size=(7000, 1))
    small = rng.normal(size=(300, 8)) + rng.integers(0, 4, size=(300, 1)) * 2.0
    tiny = rng.normal(size=(40, 3)) + 5.0
    two = rng.normal(size=(2500, 64)) + rng.integers(0, 2, size=(2500, 1)) * 4.0
    for name, x, k in [
        ("4000x32-k20", DESK_POINTS, 20),
        ("7000x64-k24", wide, 24),
        ("300x8-k6", small, 6),
        ("40x3-k4", tiny, 4),
        ("2500x64-k2", two, 2),
    ]:
        labels = lloyd_kmeans(x, k, seed=3).assignments
        yield name, x, labels
        yield f"{name}-renumbered", x, 7 * labels - 3


LABELING_CASES = {name: case for name, *case in _labeling_cases()}


@pytest.mark.parametrize("case", list(LABELING_CASES))
def test_scores_have_the_bits_of_the_per_index_references(case):
    x, labels = LABELING_CASES[case]
    assert same_bits(davies_bouldin_index(x, labels), reference_davies_bouldin_index(x, labels))
    assert same_bits(
        calinski_harabasz_index(x, labels), reference_calinski_harabasz_index(x, labels)
    )
    assert same_bits(silhouette_score(x, labels), grid_silhouettes(x, [labels])[0])
    assert silhouette_score(x, labels) == pytest.approx(
        reference_silhouette(x, labels), rel=1e-12, abs=0
    )
    # the k sweep's path: one contiguous column block and one relabel for every score
    (label_of, counts), = relabelled(x, [labels])
    dispersion = cluster._dispersion_scores(x, np.ascontiguousarray(x.T), label_of, counts)
    assert same_bits(
        dispersion,
        [reference_davies_bouldin_index(x, labels), reference_calinski_harabasz_index(x, labels)],
    )


def test_davies_bouldin_of_singletons_has_the_reference_bits():
    x = np.random.default_rng(41).normal(size=(40, 3))
    for labels in (np.arange(40), np.arange(40)[::-1] * 5 + 2):
        assert same_bits(
            davies_bouldin_index(x, labels), reference_davies_bouldin_index(x, labels)
        )


def test_k_selection_at_the_benchmark_shape_has_the_reference_bits():
    curve = k_selection_scores(DESK_POINTS, range(18, 23), seed=11)
    want, labelings = reference_curve(DESK_POINTS, range(18, 23), 11)
    assert curve.ks == list(range(18, 23))
    for name, values in want.items():
        assert same_bits(getattr(curve, name), values), name
    old = reference_silhouettes(DESK_POINTS, labelings)
    assert curve.silhouette == pytest.approx(old, rel=1e-12, abs=0)


def _centroid_sets():
    rng = np.random.default_rng(42)
    for k in (1, 2, 3, 7, 20, 24):
        for zeros in (0, 1, 2):
            centroids = rng.normal(size=(k, 16))
            centroids[rng.choice(k, size=min(zeros, k), replace=False)] = 0.0
            yield pytest.param(centroids, id=f"k{k}-{zeros}-zero")


@pytest.mark.parametrize("centroids", _centroid_sets())
def test_separation_has_the_bits_of_the_per_cluster_loop(centroids, caplog):
    k = len(centroids)
    result = ClusteringResult(k, np.arange(k), centroids, 0.0, [0.0], 1, True)
    if k < 2:
        for scores in (separation_scores, reference_separation_scores):
            with pytest.raises(DataError, match=r"^separation needs k >= 2$"):
                scores(result)
        return
    with caplog.at_level("WARNING", logger=cluster.log.name):
        want = reference_separation_scores(result)
        expected_warnings = caplog.messages
        caplog.clear()
        got = separation_scores(result)
    assert caplog.messages == expected_warnings
    assert got.tobytes() == want.tobytes()


def test_each_score_keeps_its_own_error_text():
    x, planted = two_blobs(n=30, seed=2)
    with pytest.raises(DataError, match=r"^Davies-Bouldin needs >= 2 clusters, got 1$"):
        davies_bouldin_index(x, np.full(30, 4))
    with pytest.raises(DataError, match=r"^Calinski-Harabasz needs 2 <= clusters < 30, got 1$"):
        calinski_harabasz_index(x, np.full(30, 4))
    with pytest.raises(DataError, match=r"^Calinski-Harabasz needs 2 <= clusters < 30, got 30$"):
        calinski_harabasz_index(x, np.arange(30))
    with pytest.raises(DataError, match=r"^silhouette needs 2 <= clusters <= 29, got 30$"):
        silhouette_score(x, np.arange(30))
    with pytest.raises(DataError, match=r"^silhouette needs 2 <= clusters <= 29, got 1$"):
        silhouette_score(x, np.full(30, 4))
    # k = n singletons are a Davies-Bouldin labeling, but not a Calinski-Harabasz one
    assert davies_bouldin_index(x, np.arange(30)) == 0.0


def reference_cohesion(points, result):
    """cohesion_scores as it was: one masked pass per cluster j, same warnings."""
    x = np.asarray(points, dtype=np.float64)
    unit_points, point_ok = unit_rows(x)
    if not point_ok.all():
        cluster.log.warning("cohesion: skipping %d zero-norm points", int((~point_ok).sum()))
    unit_centroids, centroid_ok = unit_rows(result.centroids)
    raw = np.full(result.k, np.nan)
    for j in range(result.k):
        members = np.flatnonzero((result.assignments == j) & point_ok)
        if len(members) == 0 or not centroid_ok[j]:
            if not centroid_ok[j]:
                cluster.log.warning("cohesion: cluster %d has a zero-norm centroid", j)
            continue
        deltas = unit_points[members] - unit_centroids[j]
        raw[j] = float(np.sqrt((deltas * deltas).sum(axis=1)).mean())
    return raw, 1.0 - raw


def _result_of(x, assignments, k):
    """A ClusteringResult whose centroids are the label means (zero for an empty label)."""
    centroids = np.zeros((k, x.shape[1]))
    for j in np.unique(assignments):
        centroids[j] = x[assignments == j].mean(axis=0)
    return ClusteringResult(k, assignments, centroids, 0.0, [0.0], 1, True)


def _cluster_mean_cases():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(300, 8)) + rng.integers(0, 4, size=(300, 1)) * 2.0
    yield "lloyd", x, lloyd_kmeans(x, 6, seed=2)
    # labels with gaps: the missing ones are empty clusters with zero centroids
    yield "non-contiguous labels", x, _result_of(x, rng.choice([3, 7, 10, 42], size=300), 43)
    small = rng.normal(size=(40, 3)) + 5.0
    labels = np.repeat([0, 1, 2, 3, 4], [1, 1, 20, 1, 17])
    yield "singletons", small, _result_of(small, rng.permutation(labels), 5)
    # duplicate start centroids: argmin leaves the second one empty
    start = np.vstack([small[0], small[0], small[1]])
    yield "empty cluster left by Lloyd", small, reference_lloyd_kmeans(
        small, 3, initial_centroids=start, max_iters=0
    )
    # cluster 1's members cancel to a zero-norm centroid; three points are zero
    zeros = rng.normal(size=(32, 4))
    zeros[1::8], zeros[5::8] = [1.0, -2.0, 0.5, 3.0], [-1.0, 2.0, -0.5, -3.0]
    zeros[[2, 12, 20]] = 0.0
    labels = np.arange(32) % 4
    yield "zero-norm points and centroids", zeros, _result_of(zeros, labels, 4)


CLUSTER_MEAN_CASES = {name: (x, result) for name, x, result in _cluster_mean_cases()}


@pytest.mark.parametrize("case", list(CLUSTER_MEAN_CASES))
def test_cluster_means_equal_the_per_cluster_references(case, caplog):
    x, result = CLUSTER_MEAN_CASES[case]
    labels = result.assignments
    assert davies_bouldin_index(x, labels) == pytest.approx(
        reference_davies_bouldin(x, labels), rel=1e-12, abs=0
    )
    assert calinski_harabasz_index(x, labels) == pytest.approx(
        reference_calinski_harabasz(x, labels), rel=1e-12, abs=0
    )
    with caplog.at_level("WARNING", logger=cluster.log.name):
        expected = reference_cohesion(x, result)
        expected_warnings = caplog.messages
        caplog.clear()
        got = cohesion_scores(x, result)
    assert caplog.messages == expected_warnings
    for got_part, expected_part in zip(got, expected):
        np.testing.assert_allclose(got_part, expected_part, rtol=1e-12, atol=0)


KMEANS_HASHES = """
import hashlib
import numpy as np
from kgstruct.cluster import k_selection_scores, lloyd_kmeans
rng = np.random.default_rng(5)
x = rng.normal(size=(7000, 64)) + rng.integers(0, 6, size=(7000, 1))
fit = lloyd_kmeans(x, 20, seed=1)
curve = k_selection_scores(x, [2, 12, 24], seed=1)
for part in (fit.centroids, fit.assignments, curve.inertia, curve.silhouette,
             curve.davies_bouldin, curve.calinski_harabasz):
    print(hashlib.sha256(np.asarray(part).tobytes()).hexdigest())
"""


def test_kmeans_bits_do_not_depend_on_the_blas_thread_count():
    # FormOf's size on full desk
    assert run_python(["-c", KMEANS_HASHES], 1) == run_python(["-c", KMEANS_HASHES], 2)


# -- k selection -----------------------------------------------------------------------


def test_k_selection_rejects_k1():
    x, _ = two_blobs(n=20, seed=0)
    with pytest.raises(DataError):
        k_selection_scores(x, [1, 2, 3], seed=0)
    with pytest.raises(DataError):
        k_selection_scores(x, [], seed=0)
    with pytest.raises(DataError):
        k_selection_scores(x, [2, 25], seed=0)


def test_k_selection_curve_shapes_and_monotone_inertia():
    x, _ = two_blobs(n=50, separation=6.0, seed=4)
    curve = k_selection_scores(x, range(2, 7), seed=1)
    assert curve.ks == [2, 3, 4, 5, 6]
    for series in (curve.inertia, curve.silhouette, curve.davies_bouldin, curve.calinski_harabasz):
        assert len(series) == 5
    assert all(b <= a + 1e-9 for a, b in zip(curve.inertia, curve.inertia[1:]))
    assert all(-1.0 <= s <= 1.0 for s in curve.silhouette)
    assert all(db >= 0.0 for db in curve.davies_bouldin)
    assert all(ch > 0.0 for ch in curve.calinski_harabasz)


def test_k_selection_two_blob_silhouette_peaks_at_two():
    x, _ = two_blobs(n=60, separation=15.0, seed=5)
    curve = k_selection_scores(x, [2, 3], seed=2)
    assert curve.silhouette[0] > curve.silhouette[1]


# -- cohesion / separation ----------------------------------------------------------


def test_cohesion_identical_members():
    x = np.asarray([[2.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    result = ClusteringResult(
        k=2,
        assignments=np.asarray([0, 0, 1]),
        centroids=np.asarray([[3.0, 0.0], [0.0, 3.0]]),
        inertia=2.0,
        inertia_history=[2.0],
        n_iterations=1,
        converged=True,
    )
    raw, cohesion = cohesion_scores(x, result)
    # members of cluster 0 normalize to (1,0), centroid too
    assert raw[0] == pytest.approx(0.0, abs=1e-12)
    assert cohesion[0] == pytest.approx(1.0, abs=1e-12)
    assert raw[1] == pytest.approx(0.0, abs=1e-12)  # singleton


def test_cohesion_three_member_hand_fixture():
    x = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    centroid = x.mean(axis=0, keepdims=True)
    result = ClusteringResult(
        k=1,
        assignments=np.zeros(3, dtype=int),
        centroids=centroid,
        inertia=0.0,
        inertia_history=[0.0],
        n_iterations=1,
        converged=True,
    )
    raw, _ = cohesion_scores(x, result)
    unit_c = centroid[0] / np.linalg.norm(centroid[0])
    expected = np.mean(
        [np.linalg.norm(p / np.linalg.norm(p) - unit_c) for p in x]
    )
    assert raw[0] == pytest.approx(expected, abs=1e-12)


def test_cohesion_scale_invariance():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 3)) + 2.0
    r1 = lloyd_kmeans(x, 3, seed=4)
    r2 = lloyd_kmeans(x * 37.5, 3, seed=4)
    raw1, _ = cohesion_scores(x, r1)
    raw2, _ = cohesion_scores(x * 37.5, r2)
    assert np.allclose(raw1, raw2, atol=1e-9)


def test_cohesion_skips_zero_norm_points(caplog):
    x = np.asarray([[0.0, 0.0], [1.0, 0.0], [1.0, 0.1]])
    result = lloyd_kmeans(x, 1, seed=0)
    with caplog.at_level("WARNING"):
        raw, _ = cohesion_scores(x, result)
    assert "zero-norm" in caplog.text
    assert np.isfinite(raw[0])


def test_separation_identical_and_antipodal():
    result = ClusteringResult(
        k=2,
        assignments=np.asarray([0, 1]),
        centroids=np.asarray([[1.0, 0.0], [2.0, 0.0]]),
        inertia=0.0,
        inertia_history=[0.0],
        n_iterations=1,
        converged=True,
    )
    sep = separation_scores(result)
    assert np.allclose(sep, 0.0)  # same direction after normalization

    antipodal = ClusteringResult(
        k=2,
        assignments=np.asarray([0, 1]),
        centroids=np.asarray([[3.0, 0.0], [-0.5, 0.0]]),
        inertia=0.0,
        inertia_history=[0.0],
        n_iterations=1,
        converged=True,
    )
    assert np.allclose(separation_scores(antipodal), 2.0)


def test_separation_four_centroid_pair_enumeration():
    centroids = np.asarray([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.4, 0.4]])
    result = ClusteringResult(
        k=4,
        assignments=np.arange(4),
        centroids=centroids,
        inertia=0.0,
        inertia_history=[0.0],
        n_iterations=1,
        converged=True,
    )
    sep = separation_scores(result)
    unit = centroids / np.linalg.norm(centroids, axis=1, keepdims=True)
    for i in range(4):
        expected = np.mean(
            [np.linalg.norm(unit[i] - unit[j]) for j in range(4) if j != i]
        )
        assert sep[i] == pytest.approx(expected, abs=1e-12)


def test_separation_requires_k2():
    result = ClusteringResult(
        k=1,
        assignments=np.zeros(2, dtype=int),
        centroids=np.ones((1, 2)),
        inertia=0.0,
        inertia_history=[0.0],
        n_iterations=1,
        converged=True,
    )
    with pytest.raises(DataError):
        separation_scores(result)


def test_quality_report_row_count():
    x, _ = two_blobs(n=24, seed=6)
    result = lloyd_kmeans(x, 3, seed=5)
    report = quality_report(x, result, relation="demo")
    assert len(report.cohesion_raw) == 3
    assert len(report.separation) == 3
    assert report.sizes.sum() == 24
    assert np.isfinite(report.cohesion_raw_mean)


@pytest.mark.parametrize(
    "centroids", [np.zeros((1, 2)), np.zeros((2, 2))], ids=["k1-zero", "k2-both-zero"]
)
def test_quality_report_without_a_number_is_nan_without_warnings(centroids):
    """No finite cohesion or separation: every summary is NaN, and numpy writes nothing."""
    k = len(centroids)
    result = ClusteringResult(k, np.arange(4) % k, centroids, 0.0, [0.0], 1, True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = quality_report(np.ones((4, 2)), result)
    summaries = [report.cohesion_raw_mean, report.cohesion_raw_std,
                 report.separation_mean, report.separation_std]
    assert all(math.isnan(value) for value in summaries)


# -- point sets, exemplars, projection -------------------------------------------------


def cluster_graph():
    rows = [(f"h{i}", "r", f"t{i}") for i in range(6)]
    graph = from_labeled_triples(rows)
    rng = np.random.default_rng(2)
    table = make_table(
        {name: rng.normal(size=3).tolist() for name in graph.entity_names},
        {"r": [0.0, 0.0, 0.0]},
    )
    return graph, table


def test_relation_point_set_rows_match_translations():
    graph, table = cluster_graph()
    points = relation_point_set(table, graph, "r")
    assert points.dtype == np.float64 and points.shape == (6, 3)
    for i, row in enumerate(graph.relation_index[0]):
        h, _, t = graph.triples[row]
        expected = (
            table.entity_vectors[t].astype(np.float64) - table.entity_vectors[h].astype(np.float64)
        )
        assert np.array_equal(points[i], expected)


def test_relation_point_set_missing_relation():
    graph, table = cluster_graph()
    with pytest.raises(DataError):
        relation_point_set(table, graph, "absent")


def test_exemplars_exhaust_small_cluster_and_are_deterministic():
    graph, table = cluster_graph()
    points = relation_point_set(table, graph, "r")
    result = lloyd_kmeans(points, 3, seed=1)
    rows_a = sample_cluster_exemplars(result, graph, "r", per_cluster=5, seed=4)
    rows_b = sample_cluster_exemplars(result, graph, "r", per_cluster=5, seed=4)
    assert rows_a == rows_b
    sizes = np.bincount(result.assignments, minlength=3)
    per_cluster = {j: 0 for j in range(3)}
    for cluster, head, relation, tail in rows_a:
        assert relation == "r"
        per_cluster[cluster] += 1
    for j in range(3):
        assert per_cluster[j] == min(5, sizes[j])


def test_exemplars_distinct_members():
    x, _ = two_blobs(n=100, seed=9)
    rows = [(f"h{i}", "r", f"t{i}") for i in range(100)]
    graph = from_labeled_triples(rows)
    result = lloyd_kmeans(x, 2, seed=0)
    table = sample_cluster_exemplars(result, graph, "r", per_cluster=5, seed=1)
    assert len(table) == 10
    assert len(set(table)) == 10


def test_exemplars_misaligned_result():
    graph, table = cluster_graph()
    result = lloyd_kmeans(np.zeros((3, 2)), 1, seed=0)
    with pytest.raises(DataError):
        sample_cluster_exemplars(result, graph, "r", per_cluster=2, seed=0)


def test_pca_preserves_2d_geometry():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 2))
    projection = pca_project_2d(x)
    original = np.linalg.norm(x[:, None] - x[None, :], axis=2)
    projected = np.linalg.norm(
        projection.coordinates[:, None] - projection.coordinates[None, :], axis=2
    )
    assert np.allclose(original, projected, atol=1e-9)
    assert projection.explained.sum() == pytest.approx(1.0, abs=1e-12)


def test_pca_collinear_points():
    direction = np.asarray([1.0, 2.0, -0.5])
    x = np.outer(np.asarray([0.0, 1.0, 2.0, 3.5]), direction)
    projection = pca_project_2d(x)
    assert projection.explained[0] == pytest.approx(1.0, abs=1e-12)
    assert projection.explained[1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(projection.coordinates[:, 1], 0.0, atol=1e-9)


def test_pca_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 3)) @ np.diag([3.0, 1.0, 0.2])
    projection = pca_project_2d(x)
    centered = x - x.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / (len(x) - 1))
    order = np.argsort(eigvals)[::-1]
    for c in range(2):
        axis = eigvecs[:, order[c]]
        expected = centered @ axis
        got = projection.coordinates[:, c]
        agreement = min(
            np.abs(expected - got).max(), np.abs(expected + got).max()
        )  # sign-free comparison
        assert agreement < 1e-9


def test_pca_rejects_degenerate_inputs():
    with pytest.raises(DataError):
        pca_project_2d(np.ones((5, 2)))  # rank 0
    with pytest.raises(DataError):
        pca_project_2d(np.ones((1, 3)))
    with pytest.raises(DataError):
        pca_project_2d(np.ones((5, 1)))


def test_relation_point_set_single_triple():
    graph = from_labeled_triples([("a", "r", "b")])
    table = make_table({"a": [0.5, 1.0], "b": [1.0, 3.0]}, {"r": [0.0, 0.0]})
    points = relation_point_set(table, graph, "r")
    assert points.shape == (1, 2)
    assert np.allclose(points[0], [0.5, 2.0])


def test_relation_point_set_row_count_at_bulk_scale():
    # row count must equal the relation's triple count even at the scale of
    # a high-volume relation (133,038 assertions)
    n = 133_038
    rng = np.random.default_rng(0)
    heads = rng.integers(0, 40_000, size=n)
    tails = rng.integers(40_000, 80_000, size=n)
    triples = np.column_stack([heads, np.zeros(n, dtype=np.int64), tails])
    names = [f"e{i}" for i in range(80_000)]
    graph = KnowledgeGraph.from_id_triples(names, ["HasContext"], triples)
    from kgstruct.embedding import EmbeddingTable

    vecs = rng.normal(size=(80_000, 4)).astype(np.float32)
    table = EmbeddingTable(names, ["HasContext"], vecs, np.zeros((1, 4), dtype=np.float32))
    points = relation_point_set(table, graph, "HasContext")
    assert len(points) == graph.relation_index[0].shape[0]
    assert points.shape == (graph.n_triples, 4)

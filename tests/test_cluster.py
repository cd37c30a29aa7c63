import numpy as np
import pytest

from conftest import make_table
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
    result = lloyd_kmeans(x, 5, seed=2)
    assert result.k == 5
    assert len(result.assignments) == len(x)
    assert result.assignments.min() >= 0 and result.assignments.max() < 5


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


def test_kmeans_centroid_sums_match_add_at_reference():
    # the benchmark's HasContext size: 4,000 points, d = 32, k = 20
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4000, 32)) + rng.integers(0, 6, size=(4000, 1))
    start = x[rng.choice(len(x), size=20, replace=False)]
    start[-1] = 1e6  # far from every point: this cluster stays empty
    result = lloyd_kmeans(x, 20, initial_centroids=start, max_iters=1)

    assigned = ((x[:, None, :] - start[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    sums = np.zeros_like(start)
    np.add.at(sums, assigned, x)
    counts = np.bincount(assigned, minlength=20)
    assert counts[-1] == 0
    expected = sums[:-1] / counts[:-1, None]
    # sorted reduceat sums in another order than np.add.at: equal up to rounding
    np.testing.assert_allclose(result.centroids[:-1], expected, rtol=1e-12, atol=1e-12)
    # the empty cluster was reseeded at a data point
    assert any(np.array_equal(result.centroids[-1], row) for row in x)


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
    # force the BLAS distance path at a size the O(n^2) Python oracle can afford;
    # chunk=7 leaves a partial last chunk
    monkeypatch.setattr(cluster, "_EXACT_DISTANCE_LIMIT", 0)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(150, 4)) + rng.integers(0, 3, size=(150, 1)) * 4.0
    labels = lloyd_kmeans(x, 5, seed=1).assignments
    labels[0] = 7  # a singleton cluster scores 0
    for chunk in (7, 128, 1000):
        assert silhouette_score(x, labels, chunk=chunk) == pytest.approx(
            brute_silhouette(x, labels), abs=1e-9
        )


def test_silhouette_blas_path_at_benchmark_size():
    n = 2500  # above _EXACT_DISTANCE_LIMIT, so distances come from BLAS
    assert n > cluster._EXACT_DISTANCE_LIMIT
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


def test_silhouette_rejects_single_cluster():
    x = np.zeros((5, 2))
    with pytest.raises(DataError):
        silhouette_score(x, np.zeros(5, dtype=int))


def test_scores_bounds():
    x, planted = two_blobs(n=30, separation=9.0, seed=2)
    sil = silhouette_score(x, planted)
    assert -1.0 <= sil <= 1.0
    assert davies_bouldin_index(x, planted) >= 0.0
    assert calinski_harabasz_index(x, planted) > 0.0


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


# -- point sets, exemplars, projection -------------------------------------------------


def cluster_graph():
    rows = [(f"h{i}", "r", f"t{i}") for i in range(6)]
    graph = KnowledgeGraph.from_labeled_triples(rows)
    rng = np.random.default_rng(2)
    table = make_table(
        {name: rng.normal(size=3).tolist() for name in graph.entity_names},
        {"r": [0.0, 0.0, 0.0]},
    )
    return graph, table


def test_relation_point_set_rows_match_translations():
    graph, table = cluster_graph()
    points = relation_point_set(table, graph, "r")
    assert points.points.shape == (6, 3)
    from kgstruct.embedding import translation_vector

    for i in range(6):
        expected = translation_vector(table, graph.triple(points.triple_indices[i]))
        assert np.allclose(points.points[i], expected.astype(np.float64), atol=0)


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
    graph = KnowledgeGraph.from_labeled_triples(rows)
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
    graph = KnowledgeGraph.from_labeled_triples([("a", "r", "b")])
    table = make_table({"a": [0.5, 1.0], "b": [1.0, 3.0]}, {"r": [0.0, 0.0]})
    points = relation_point_set(table, graph, "r")
    assert points.points.shape == (1, 2)
    assert np.allclose(points.points[0], [0.5, 2.0])


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
    assert points.points.shape == (graph.n_triples, 4)

"""Substructure mining inside one relation via k-means over translation vectors.

A relation's triples each contribute one translation vector; Lloyd iteration
with seeded k-means++ initialization partitions them. Choice of k is scored
four ways (inertia elbow, silhouette, Davies-Bouldin, Calinski-Harabasz),
and cluster quality is quantified with normalized cohesion and separation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable, _scatter_add, check_aligned, translation_matrix, unit_rows
from .errors import DataError
from .graph import KnowledgeGraph

log = logging.getLogger(__name__)


@dataclass
class ClusteringResult:
    """Converged (or iteration-capped) k-means state."""

    k: int
    assignments: np.ndarray  # (n,) cluster id per point
    centroids: np.ndarray  # (k, d)
    inertia: float
    inertia_history: list[float]  # recorded after every assignment step
    n_iterations: int
    converged: bool


@dataclass
class KSelectionCurve:
    """Per-k scores from fresh k-means runs on one seed schedule."""

    ks: list[int]
    inertia: list[float]
    silhouette: list[float]
    davies_bouldin: list[float]
    calinski_harabasz: list[float]


@dataclass
class ClusterQualityReport:
    """Per-cluster cohesion/separation rows plus across-cluster summaries.

    Cohesion raw is the mean Euclidean distance between unit-normalized
    members and the unit-normalized centroid; ``cohesion`` is 1 minus that.
    Separation is the mean distance from a cluster's normalized centroid to
    every other normalized centroid. NaN marks clusters where the value is
    undefined (empty cluster or zero-norm centroid).
    """

    relation: str
    k: int
    sizes: np.ndarray
    cohesion_raw: np.ndarray
    cohesion: np.ndarray
    separation: np.ndarray
    cohesion_raw_mean: float
    cohesion_raw_std: float
    separation_mean: float
    separation_std: float


def relation_point_set(table: EmbeddingTable, graph: KnowledgeGraph, relation: str) -> np.ndarray:
    """Translation vectors of every triple asserting the relation, as a float64 (n, d) matrix.

    Row i belongs to the relation's i-th triple in ``graph.relation_rows`` order.
    """
    check_aligned(table, graph)
    rows = graph.relation_rows(relation)
    return translation_matrix(table, graph.triples[rows, 0], graph.triples[rows, 2])


def _squared_norms(x: np.ndarray) -> np.ndarray:
    return (x * x).sum(axis=1)


def _squared_distances(x: np.ndarray, centers: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    # |x|^2 + |c|^2 - 2 x.c, clamped: cancellation can dip slightly below 0.
    # Fast (BLAS) but loses ~1e-8 precision; fine for nearest-centroid work.
    # ``x_sq`` is _squared_norms(x), computed once by the caller.
    sq = x_sq[:, None] + _squared_norms(centers)[None, :] - 2.0 * (x @ centers.T)
    return np.maximum(sq, 0.0)


def _exact_distances(a: np.ndarray, b: np.ndarray, col_chunk: int = 1024) -> np.ndarray:
    """Euclidean distances by direct differencing (no cancellation error)."""
    out = np.empty((len(a), len(b)))
    for start in range(0, len(b), col_chunk):
        diff = a[:, None, :] - b[None, start : start + col_chunk, :]
        out[:, start : start + col_chunk] = np.sqrt(
            np.einsum("ijk,ijk->ij", diff, diff)
        )
    return out


# direct differencing is exact but O(n^2 d) elementwise; beyond this many
# points the BLAS expansion's ~1e-8 error is irrelevant to the score
_EXACT_DISTANCE_LIMIT = 2000


def _kmeans_plus_plus(
    x: np.ndarray, k: int, rng: np.random.Generator, x_sq: np.ndarray
) -> np.ndarray:
    n = len(x)
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    chosen = np.full(n, False)
    first = int(rng.integers(n))
    centers[0] = x[first]
    chosen[first] = True
    closest = _squared_distances(x, centers[0:1], x_sq)[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            # all points coincide with a center; j < k <= n leaves an unused one
            unused = np.flatnonzero(~chosen)
            idx = int(unused[rng.integers(len(unused))])
        centers[j] = x[idx]
        chosen[idx] = True
        closest = np.minimum(closest, _squared_distances(x, centers[j : j + 1], x_sq)[:, 0])
    return centers


def lloyd_kmeans(
    points,
    k: int,
    seed: int = 0,
    max_iters: int = 300,
    tol: float = 1e-4,
    initial_centroids: np.ndarray | None = None,
) -> ClusteringResult:
    """Seeded k-means++ initialization followed by Lloyd iteration.

    Converges when the maximum squared centroid shift drops below ``tol``
    or after ``max_iters`` rounds. Each round reseeds an empty cluster at the
    point farthest from its assigned centroid. Points with fewer than k
    distinct rows cannot fill k clusters: if the final assignment leaves one
    empty there, that is a DataError. The recorded inertia (after each
    assignment step) never increases.
    ``initial_centroids`` bypasses the k-means++ step (used for warm starts).
    """
    x = np.asarray(points, dtype=np.float64)
    n = len(x)
    if not 1 <= k <= n:
        raise DataError(f"k must satisfy 1 <= k <= {n}, got {k}")
    rng = np.random.default_rng(seed)
    x_sq = _squared_norms(x)
    if initial_centroids is not None:
        centers = np.array(initial_centroids, dtype=np.float64)
        if centers.shape != (k, x.shape[1]):
            raise DataError(
                f"initial centroids must have shape {(k, x.shape[1])}, "
                f"got {centers.shape}"
            )
    else:
        centers = _kmeans_plus_plus(x, k, rng, x_sq)

    history: list[float] = []
    assignments = np.zeros(n, dtype=np.int64)
    converged = False
    iteration = 0
    for iteration in range(1, max_iters + 1):
        dists = _squared_distances(x, centers, x_sq)
        assignments = dists.argmin(axis=1)
        inertia = float(dists[np.arange(n), assignments].sum())
        history.append(inertia)

        new_centers = centers.copy()
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centers)
        _scatter_add(sums, assignments, x)
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]

        empty = np.flatnonzero(~nonempty)
        if len(empty):
            point_dist = dists[np.arange(n), assignments].copy()
            for cluster in empty:
                far = int(point_dist.argmax())
                new_centers[cluster] = x[far]
                point_dist[far] = -1.0  # do not reuse for another empty cluster

        shift = float(((new_centers - centers) ** 2).sum(axis=1).max())
        centers = new_centers
        if shift < tol:
            converged = True
            break

    # final assignment against the final centroids
    dists = _squared_distances(x, centers, x_sq)
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


# -- k selection scores ------------------------------------------------------


def silhouette_score(points, assignments: np.ndarray, chunk: int = 128) -> float:
    """Mean silhouette over all points, Euclidean distance.

    s(i) = (b - a) / max(a, b) with a the mean distance to the point's own
    cluster (0 for singletons, yielding s = 0) and b the smallest mean
    distance to another cluster. Needs 2 <= k <= n - 1. Distances come in
    row chunks: by direct differencing (exact) up to _EXACT_DISTANCE_LIMIT
    points, and from the BLAS expansion |x|^2 + |y|^2 - 2 x.y (~1e-8 error)
    above it. Each chunk's per-cluster distance sums are one product with
    the n x k cluster indicator matrix.
    """
    return _silhouette_scores(points, [assignments], chunk)[0]


def _silhouette_scores(points, labelings, chunk: int = 128) -> list[float]:
    """``silhouette_score`` of each labeling of the same points, one distance pass for all.

    Each distance chunk is computed once and multiplied by every labeling's
    indicator matrix, so each score has the bits a single call would give.
    """
    x = np.asarray(points, dtype=np.float64)
    n = len(x)
    clusterings = []
    for assignments in labelings:
        labels, label_of = np.unique(np.asarray(assignments), return_inverse=True)
        k = len(labels)
        if not 2 <= k <= n - 1:
            raise DataError(f"silhouette needs 2 <= clusters <= {n - 1}, got {k}")
        onehot = np.zeros((n, k))
        onehot[np.arange(n), label_of] = 1.0
        clusterings.append((label_of, np.bincount(label_of, minlength=k), onehot))

    exact = n <= _EXACT_DISTANCE_LIMIT
    if not exact:
        x_sq = _squared_norms(x)
        buffer = np.empty((min(chunk, n), n))
        gram = np.empty_like(buffer)
    scores = np.empty((len(clusterings), n), dtype=np.float64)
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        m = rows.stop - start
        if exact:
            d = _exact_distances(x[rows], x)
        else:
            # np.sqrt(_squared_distances(x[rows], x, x_sq[rows])) in place:
            # the same operations in the same order, so the same bits
            d, g = buffer[:m], gram[:m]
            np.add(x_sq[rows, None], x_sq[None, :], out=d)
            np.matmul(x[rows], x.T, out=g)
            g *= 2.0
            d -= g
            np.maximum(d, 0.0, out=d)
            np.sqrt(d, out=d)
        for out, (label_of, counts, onehot) in zip(scores, clusterings):
            sums = d @ onehot
            own = label_of[rows]
            own_count = counts[own]
            # own-cluster mean excludes the point itself
            a = sums[np.arange(m), own] / np.maximum(own_count - 1, 1)
            a = np.where(own_count > 1, a, 0.0)
            means = sums / counts[None, :]
            means[np.arange(m), own] = np.inf
            b = means.min(axis=1)
            denom = np.maximum(a, b)
            s = (b - a) / np.where(denom > 0, denom, 1.0)
            out[rows] = np.where((own_count > 1) & (denom > 0), s, 0.0)
    return [float(row.mean()) for row in scores]


def davies_bouldin_index(points, assignments: np.ndarray) -> float:
    """Mean over clusters of the worst (S_i + S_j) / distance(c_i, c_j)."""
    x = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    labels = np.unique(assignments)
    k = len(labels)
    if k < 2:
        raise DataError(f"Davies-Bouldin needs >= 2 clusters, got {k}")
    centroids = np.vstack([x[assignments == lab].mean(axis=0) for lab in labels])
    scatter = np.array(
        [
            np.sqrt(((x[assignments == lab] - centroids[j]) ** 2).sum(axis=1)).mean()
            for j, lab in enumerate(labels)
        ]
    )
    dist = _exact_distances(centroids, centroids)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (scatter[:, None] + scatter[None, :]) / dist
    np.fill_diagonal(ratio, -np.inf)
    return float(np.max(ratio, axis=1).mean())


def calinski_harabasz_index(points, assignments: np.ndarray) -> float:
    """Between-cluster over within-cluster dispersion ratio."""
    x = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    n = len(x)
    labels = np.unique(assignments)
    k = len(labels)
    if not 2 <= k < n:
        raise DataError(f"Calinski-Harabasz needs 2 <= clusters < {n}, got {k}")
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


def k_selection_scores(points, k_range, seed: int = 0) -> KSelectionCurve:
    """All four k-selection scores for each k, one fresh run per k.

    Every k in the range must satisfy 2 <= k <= n - 1 (silhouette and the
    two indices are undefined outside it); runs use child seeds derived
    deterministically from ``seed``. Each k also tries a warm start from
    the previous k's centroids plus the point farthest from its centroid,
    which guarantees the reported inertia never increases with k. The
    silhouettes of all k come from one distance pass after the last fit.
    """
    x = np.asarray(points, dtype=np.float64)
    ks = sorted(int(k) for k in k_range)
    if not ks:
        raise DataError("empty k range")
    if ks[0] < 2 or ks[-1] > len(x) - 1:
        raise DataError(
            f"k range must lie within [2, {len(x) - 1}], got [{ks[0]}, {ks[-1]}]"
        )
    curve = KSelectionCurve(ks=ks, inertia=[], silhouette=[], davies_bouldin=[], calinski_harabasz=[])
    x_sq = _squared_norms(x)
    results: list[ClusteringResult] = []
    for k in ks:
        result = lloyd_kmeans(x, k, seed=seed + k)
        if results and k > results[-1].k:
            centers = results[-1].centroids
            closest = _squared_distances(x, centers, x_sq).min(axis=1)
            for _ in range(k - results[-1].k):
                far = int(closest.argmax())
                centers = np.vstack([centers, x[far : far + 1]])
                closest = np.minimum(
                    closest, _squared_distances(x, centers[-1:], x_sq)[:, 0]
                )
            warm = lloyd_kmeans(x, k, seed=seed + k, initial_centroids=centers)
            if warm.inertia < result.inertia:
                result = warm
        results.append(result)
        curve.inertia.append(result.inertia)
        curve.davies_bouldin.append(davies_bouldin_index(x, result.assignments))
        curve.calinski_harabasz.append(calinski_harabasz_index(x, result.assignments))
    curve.silhouette = _silhouette_scores(x, [r.assignments for r in results])
    return curve


# -- cohesion / separation ---------------------------------------------------


def cohesion_scores(points, result: ClusteringResult) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster (raw mean normalized distance, 1 - raw).

    Members and centroids are unit-normalized before measuring Euclidean
    distance; zero-norm members are skipped with a warning, and clusters
    that are empty or have a zero-norm centroid get NaN.
    """
    x = np.asarray(points, dtype=np.float64)
    unit_points, point_ok = unit_rows(x)
    if not point_ok.all():
        log.warning(
            "cohesion: skipping %d zero-norm points", int((~point_ok).sum())
        )
    unit_centroids, centroid_ok = unit_rows(result.centroids)
    raw = np.full(result.k, np.nan)
    for j in range(result.k):
        members = np.flatnonzero((result.assignments == j) & point_ok)
        if len(members) == 0 or not centroid_ok[j]:
            if not centroid_ok[j]:
                log.warning("cohesion: cluster %d has a zero-norm centroid", j)
            continue
        deltas = unit_points[members] - unit_centroids[j]
        raw[j] = float(np.sqrt((deltas * deltas).sum(axis=1)).mean())
    return raw, 1.0 - raw


def separation_scores(result: ClusteringResult) -> np.ndarray:
    """Per-cluster mean distance from its normalized centroid to the others."""
    if result.k < 2:
        raise DataError("separation needs k >= 2")
    unit, ok = unit_rows(result.centroids)
    if not ok.all():
        log.warning(
            "separation: %d zero-norm centroids get NaN", int((~ok).sum())
        )
    dist = _exact_distances(unit, unit)
    out = np.full(result.k, np.nan)
    for j in range(result.k):
        others = [i for i in range(result.k) if i != j and ok[i]]
        if ok[j] and others:
            out[j] = float(dist[j, others].mean())
    return out


def quality_report(points, result: ClusteringResult, relation: str = "") -> ClusterQualityReport:
    raw, _cohesion = cohesion_scores(points, result)
    separation = separation_scores(result) if result.k >= 2 else np.full(result.k, np.nan)
    sizes = np.bincount(result.assignments, minlength=result.k)
    return ClusterQualityReport(
        relation=relation,
        k=result.k,
        sizes=sizes,
        cohesion_raw=raw,
        cohesion=_cohesion,
        separation=separation,
        cohesion_raw_mean=float(np.nanmean(raw)),
        cohesion_raw_std=float(np.nanstd(raw)),
        separation_mean=float(np.nanmean(separation)) if result.k >= 2 else float("nan"),
        separation_std=float(np.nanstd(separation)) if result.k >= 2 else float("nan"),
    )


# -- exemplars and projection -------------------------------------------------


def sample_cluster_exemplars(
    result: ClusteringResult,
    graph: KnowledgeGraph,
    relation: str,
    per_cluster: int = 5,
    seed: int = 0,
) -> list[tuple[int, str, str, str]]:
    """Uniformly sample readable (cluster, head, relation, tail) rows.

    Assignments must come from :func:`relation_point_set` on the same graph
    and relation, whose rows align with the relation's triple index order.
    Each cluster contributes min(per_cluster, cluster size) distinct triples.
    """
    if per_cluster < 1:
        raise DataError(f"per_cluster must be >= 1, got {per_cluster}")
    rows = graph.relation_rows(relation)
    if len(rows) != len(result.assignments):
        raise DataError(
            "clustering result does not align with the relation's triples"
        )
    rng = np.random.default_rng(seed)
    table: list[tuple[int, str, str, str]] = []
    for j in range(result.k):
        members = np.flatnonzero(result.assignments == j)
        take = min(per_cluster, len(members))
        if take == 0:
            continue
        picked = np.sort(rng.choice(members, size=take, replace=False))
        for idx in picked:
            h, _, t = graph.triples[rows[idx]]
            table.append((j, graph.entity_names[h], relation, graph.entity_names[t]))
    return table


@dataclass
class Projection2D:
    """Coordinates on the top-2 principal axes of the mean-centered points."""

    coordinates: np.ndarray  # (n, 2)
    explained: np.ndarray  # fraction of variance per component, (2,)


def pca_project_2d(points) -> Projection2D:
    """Project onto the two leading principal components.

    Uses SVD of the centered matrix; component signs are fixed so the
    largest-magnitude coordinate of each axis is positive. All-identical
    points (rank 0) are an error; rank-1 data yields a second coordinate
    of (numerically) zero and an explained fraction of 0.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or len(x) < 2 or x.shape[1] < 2:
        raise DataError("projection needs >= 2 points of dimension >= 2")
    centered = x - x.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    total = float((singular**2).sum())
    if total == 0.0:
        raise DataError("all points coincide; projection is undefined")
    components = vt[:2].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    coords = centered @ components.T
    # n >= 2 and d >= 2, so the SVD returns at least two singular values
    return Projection2D(coordinates=coords, explained=(singular[:2] ** 2) / total)

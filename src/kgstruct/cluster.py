"""Substructure mining inside one relation via k-means over translation vectors.

A relation's triples each contribute one translation vector; Lloyd iteration
with seeded k-means++ initialization partitions them. Choice of k is scored
four ways (inertia elbow, silhouette, Davies-Bouldin, Calinski-Harabasz),
and cluster quality is quantified with normalized cohesion and separation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable, check_aligned, translation_matrix, unit_rows
from .errors import DataError
from .graph import KnowledgeGraph

log = logging.getLogger(__name__)

LLOYD_MAX_ROUNDS = 300  # Lloyd stops after this many rounds if it has not converged
SILHOUETTE_ROWS = 128  # the silhouette pass's distance chunks; a multiple of 4 keeps its bits


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


def _squared_distances(x, y, x_sq, y_sq=None, out=None, work=None) -> np.ndarray:
    # |x|^2 + |y|^2 - 2 x.y, clamped: cancellation can dip slightly below 0.
    # Fast (BLAS) but loses ~1e-8 precision; fine for nearest-centroid work.
    # ``x_sq`` is _squared_norms(x), computed once by the caller (``y_sq``
    # likewise); ``out`` and ``work`` are optional len(x) x len(y) buffers.
    # The factor 2 goes into the operand with fewer rows: doubling is exact
    # and commutes with every rounding of the product, so the bits are those
    # of 2.0 * (x @ y.T) without a full-size pass.
    if y_sq is None:
        y_sq = _squared_norms(y)
    out = np.add(x_sq[:, None], y_sq[None, :], out=out)
    if len(x) <= len(y):
        work = np.matmul(2.0 * x, y.T, out=work)
    else:
        work = np.matmul(x, (2.0 * y).T, out=work)
    out -= work
    return np.maximum(out, 0.0, out=out)


def _cluster_means(
    columns: np.ndarray, label_of: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Member counts (k,) and per-cluster means (k, d) of n points given by column.

    ``columns`` is (d, n): row j holds coordinate j of every point, best
    C-contiguous (a transposed view is copied one column at a time).
    ``label_of`` holds each point's cluster in [0, k); an empty cluster's
    mean is 0. One bincount per column adds each cluster's points in point
    order from 0.0, without BLAS, so the bits do not depend on the thread
    count.
    """
    counts = np.bincount(label_of, minlength=k)
    sums = np.empty((k, len(columns)))
    for j, column in enumerate(columns):
        sums[:, j] = np.bincount(label_of, weights=column, minlength=k)
    return counts, sums / np.maximum(counts, 1)[:, None]


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
    initial_centroids: np.ndarray | None = None,
) -> ClusteringResult:
    """Seeded k-means++ initialization followed by Lloyd iteration.

    Converges when the maximum squared centroid shift drops below 1e-4
    or after ``LLOYD_MAX_ROUNDS`` rounds. Each round reseeds an empty cluster
    at the point farthest from its assigned centroid. Points with fewer than
    k distinct rows cannot fill k clusters: if the final assignment leaves
    one empty there, that is a DataError. The recorded inertia (after each
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
    dists, work = np.empty((n, k)), np.empty((n, k))
    columns = np.ascontiguousarray(x.T)
    flat = np.arange(0, n * k, k)  # each row's first entry in the flattened dists
    converged = False
    iteration = 0
    while True:
        _squared_distances(x, centers, x_sq, out=dists, work=work)
        assignments = dists.argmin(axis=1)
        point_dist = np.take(dists, flat + assignments)
        inertia = float(point_dist.sum())
        history.append(inertia)
        # the last assignment is against the final centroids
        if converged or iteration >= LLOYD_MAX_ROUNDS:
            break
        iteration += 1

        counts, new_centers = _cluster_means(columns, assignments, k)
        empty = counts == 0
        if empty.any():
            # empty clusters in order take the farthest points, ties to the
            # lowest index: what repeated argmax with each pick removed gives
            farthest = np.argsort(-point_dist, kind="stable")[: int(empty.sum())]
            new_centers[empty] = x[farthest]

        shift = float(((new_centers - centers) ** 2).sum(axis=1).max())
        centers = new_centers
        converged = shift < 1e-4

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


def _relabel(assignments, k_max: int, need: str) -> tuple[np.ndarray, np.ndarray]:
    """Labels renumbered 0..k-1 and the cluster sizes; DataError ``need`` unless 2 <= k <= k_max."""
    labels, label_of = np.unique(np.asarray(assignments), return_inverse=True)
    k = len(labels)
    if not 2 <= k <= k_max:
        raise DataError(f"{need}, got {k}")
    return label_of, np.bincount(label_of, minlength=k)


def silhouette_score(points, assignments: np.ndarray) -> float:
    """Mean silhouette over all points, Euclidean distance.

    s(i) = (b - a) / max(a, b) with a the mean distance to the point's own
    cluster (0 for singletons, yielding s = 0) and b the smallest mean
    distance to another cluster. Needs 2 <= k <= n - 1. Distances come in
    row chunks from the BLAS expansion |x|^2 + |y|^2 - 2 x.y of the centered
    points, so rounding scales with their spread, not their offset; each
    point's distance to itself is set to exactly 0. Each chunk's per-cluster
    distance sums are one product with the n x k cluster indicator matrix,
    taken on distances rounded to a grid (step at most n (2 max|x_i| + 1) / 2^51)
    on which they are exact, so the bits do not depend on the BLAS thread count.
    """
    x = np.asarray(points, dtype=np.float64)
    need = f"silhouette needs 2 <= clusters <= {len(x) - 1}"
    return _silhouette_scores(x, [_relabel(assignments, len(x) - 1, need)])[0]


def _silhouette_scores(x: np.ndarray, labelings) -> list[float]:
    """``silhouette_score`` of each ``_relabel``-ed labeling of the float64 points ``x``.

    Each distance chunk is rounded to a power-of-two grid on which every
    per-cluster sum is exact, then multiplied once by all labelings'
    indicator columns side by side. So each score has the bits a single call
    would give, whatever the BLAS thread count, blocking or summation order.
    """
    n = len(x)
    offsets = np.cumsum([0] + [len(counts) for _, counts in labelings])
    onehot = np.zeros((n, offsets[-1]))  # every labeling's indicator columns, side by side
    for offset, (label_of, _) in zip(offsets, labelings):
        onehot[np.arange(n), offset + label_of] = 1.0

    # centering keeps every distance and makes the expansion's rounding scale
    # with the points' spread instead of their distance from the origin
    x = x - x.mean(axis=0)
    x_sq = _squared_norms(x)
    # a distance is below 2 max|x_i| + 1 (the 1 covers the expansion's rounding);
    # with n of them below 2^e, scaled by 2^(52 - e) and rounded to integers they
    # sum below 2^52, exactly. A score is a ratio of sums, so the scale cancels
    scale = 2.0 ** (52 - math.frexp(n * (2.0 * math.sqrt(x_sq.max()) + 1.0))[1])
    buffer = np.empty((min(SILHOUETTE_ROWS, n), n))
    gram = np.empty_like(buffer)
    scores = np.empty((len(labelings), n), dtype=np.float64)
    for start in range(0, n, SILHOUETTE_ROWS):
        rows = slice(start, min(start + SILHOUETTE_ROWS, n))
        m = rows.stop - start
        d = _squared_distances(x[rows], x, x_sq[rows], x_sq, buffer[:m], gram[:m])
        np.sqrt(d, out=d)
        # rounding leaves |x_i - x_i| near 1e-8, which would enter the mean a
        d[np.arange(m), np.arange(start, start + m)] = 0.0
        d *= scale
        all_sums = np.rint(d, out=d) @ onehot
        for out, offset, (label_of, counts) in zip(scores, offsets, labelings):
            sums = all_sums[:, offset : offset + len(counts)]
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


def _dispersion_scores(x, columns, label_of, counts) -> tuple[float, float]:
    """Davies-Bouldin and Calinski-Harabasz of one ``_relabel``-ed labeling; ``columns`` is x.T."""
    n, k = len(x), len(counts)
    _, centroids = _cluster_means(columns, label_of, k)
    residual = (x - centroids[label_of]) ** 2
    scatter = np.bincount(label_of, weights=np.sqrt(residual.sum(axis=1)), minlength=k) / counts
    dist = np.sqrt(((centroids[:, None] - centroids[None]) ** 2).sum(axis=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (scatter[:, None] + scatter[None, :]) / dist
    np.fill_diagonal(ratio, -np.inf)
    between = float((counts * ((centroids - x.mean(axis=0)) ** 2).sum(axis=1)).sum())
    within = float(residual.sum())
    ch = (between / (k - 1)) / (within / (n - k)) if within else float("inf")
    return float(np.max(ratio, axis=1).mean()), ch


def davies_bouldin_index(points, assignments: np.ndarray) -> float:
    """Mean over clusters of the worst (S_i + S_j) / distance(c_i, c_j)."""
    x = np.asarray(points, dtype=np.float64)
    need = "Davies-Bouldin needs >= 2 clusters"
    return _dispersion_scores(x, x.T, *_relabel(assignments, len(x), need))[0]


def calinski_harabasz_index(points, assignments: np.ndarray) -> float:
    """Between-cluster over within-cluster dispersion ratio."""
    x = np.asarray(points, dtype=np.float64)
    need = f"Calinski-Harabasz needs 2 <= clusters < {len(x)}"
    return _dispersion_scores(x, x.T, *_relabel(assignments, len(x) - 1, need))[1]


def k_selection_scores(points, k_range, seed: int = 0) -> KSelectionCurve:
    """All four k-selection scores for each k, one fresh run per k.

    Every k in the range must satisfy 2 <= k <= n - 1 (silhouette and the
    two indices are undefined outside it); runs use child seeds derived
    deterministically from ``seed``. Each k also tries a warm start from
    the previous k's centroids plus the point farthest from its centroid,
    which guarantees the reported inertia never increases with k. Once all
    k are fitted, each labeling is renumbered once for all three scores,
    and the silhouettes of all k share one distance pass.
    """
    x = np.asarray(points, dtype=np.float64)
    n = len(x)
    ks = sorted(int(k) for k in k_range)
    if not ks:
        raise DataError("empty k range")
    if ks[0] < 2 or ks[-1] > n - 1:
        raise DataError(f"k range must lie within [2, {n - 1}], got [{ks[0]}, {ks[-1]}]")
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
    need = f"silhouette needs 2 <= clusters <= {n - 1}"
    labelings = [_relabel(r.assignments, n - 1, need) for r in results]
    silhouette = _silhouette_scores(x, labelings)
    columns = np.ascontiguousarray(x.T)
    db, ch = zip(*(_dispersion_scores(x, columns, *labeling) for labeling in labelings))
    return KSelectionCurve(ks, [r.inertia for r in results], silhouette, list(db), list(ch))


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
    for j in np.flatnonzero(~centroid_ok):
        log.warning("cohesion: cluster %d has a zero-norm centroid", j)
    label_of = result.assignments[point_ok]
    deltas = unit_points[point_ok] - unit_centroids[label_of]
    distance = np.sqrt((deltas * deltas).sum(axis=1))
    counts, means = _cluster_means(distance[None, :], label_of, result.k)
    raw = np.where((counts > 0) & centroid_ok, means[:, 0], np.nan)
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
    out = np.full(result.k, np.nan)
    m = int(ok.sum())
    if m >= 2:
        # row j of the off-diagonal block: the other centroids in index order
        dist = np.sqrt(((unit[:, None] - unit[None]) ** 2).sum(axis=2))[np.ix_(ok, ok)]
        out[ok] = dist[~np.eye(m, dtype=bool)].reshape(m, m - 1).mean(axis=1)
    return out


def _nan_mean_std(values: np.ndarray) -> tuple[float, float]:
    """nanmean and nanstd of ``values``, without numpy's warnings: NaN twice if all are NaN."""
    if np.isnan(values).all():
        return math.nan, math.nan
    return float(np.nanmean(values)), float(np.nanstd(values))


def quality_report(points, result: ClusteringResult, relation: str = "") -> ClusterQualityReport:
    raw, _cohesion = cohesion_scores(points, result)
    separation = separation_scores(result) if result.k >= 2 else np.full(result.k, np.nan)
    sizes = np.bincount(result.assignments, minlength=result.k)
    cohesion_raw_mean, cohesion_raw_std = _nan_mean_std(raw)
    separation_mean, separation_std = _nan_mean_std(separation)
    return ClusterQualityReport(
        relation=relation,
        k=result.k,
        sizes=sizes,
        cohesion_raw=raw,
        cohesion=_cohesion,
        separation=separation,
        cohesion_raw_mean=cohesion_raw_mean,
        cohesion_raw_std=cohesion_raw_std,
        separation_mean=separation_mean,
        separation_std=separation_std,
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

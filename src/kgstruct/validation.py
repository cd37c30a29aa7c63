"""Embedding self-consistency checks via per-relation similarity lists.

For each relation, two aligned lists of cosine similarities are built over
its translation vectors: one against the relation's directly learned vector
and one against the centroid (mean translation) vector. Agreement between
the two lists, measured with rank correlation and KL divergence of their
histograms, indicates the table behaves translationally.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable, translation_matrix
from .errors import DataError
from .graph import KnowledgeGraph

log = logging.getLogger(__name__)

DEFAULT_BINS = 100
DEFAULT_EPSILON = 1e-9


@dataclass
class RelationProfile:
    """Per-relation vectors and the two aligned similarity lists.

    ``direct_sims[i]`` and ``centroid_sims[i]`` refer to the same triple.
    Triples whose translation vector is exactly zero are excluded from both
    lists (cosine undefined) and counted in ``skipped``.
    """

    relation: str
    relation_id: int
    centroid: np.ndarray
    direct: np.ndarray
    direct_sims: np.ndarray
    centroid_sims: np.ndarray
    triple_count: int
    skipped: int


@dataclass(frozen=True)
class ValidationRecord:
    """Agreement statistics between the two similarity lists of a relation.

    ``spearman`` is the signed rank correlation (None when a list is
    constant and the coefficient is undefined); ``spearman_abs`` is its
    absolute value. ``kl`` is the divergence of the centroid-list histogram
    from the direct-list histogram.
    """

    relation: str
    spearman: float | None
    spearman_abs: float | None
    kl: float
    triple_count: int
    skipped: int


def _cosine_to_rows(vector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    vnorm = np.linalg.norm(vector)
    return (rows @ vector) / (norms * vnorm)


def similarity_lists(
    table: EmbeddingTable, graph: KnowledgeGraph, relation: int | str
) -> RelationProfile:
    """Build the aligned direct-vector and centroid similarity lists."""
    rid = graph.resolve_relation(relation)
    name = graph.relation_names[rid]
    rows = graph.relation_triples(rid)
    if len(rows) == 0:
        raise DataError(f"relation has no triples: {name!r}")
    direct = table.relation_vector(table.relation_row(name)).astype(np.float64)
    vecs = translation_matrix(table, rows)
    centroid = vecs.mean(axis=0)

    nonzero = np.linalg.norm(vecs, axis=1) > 0.0
    skipped = int(len(vecs) - nonzero.sum())
    if skipped:
        log.warning(
            "relation %s: skipped %d zero translation vectors", name, skipped
        )
    vecs = vecs[nonzero]
    if len(vecs) == 0:
        raise DataError(f"relation {name!r}: all translation vectors are zero")
    if np.linalg.norm(direct) == 0.0:
        raise DataError(f"relation {name!r}: direct vector has zero norm")
    if np.linalg.norm(centroid) == 0.0:
        raise DataError(f"relation {name!r}: centroid vector has zero norm")

    return RelationProfile(
        relation=name,
        relation_id=rid,
        centroid=centroid,
        direct=direct,
        direct_sims=_cosine_to_rows(direct, vecs),
        centroid_sims=_cosine_to_rows(centroid, vecs),
        triple_count=len(rows),
        skipped=skipped,
    )


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing their average rank.

    Values tie when they compare equal, so -0.0 ties with 0.0 and every NaN
    is a group of its own.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], n]  # exclusive
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def spearman_rho(a, b) -> float | None:
    """Spearman rank correlation with average ranks for ties.

    Returns None when either list has zero rank variance (constant input),
    where the coefficient is undefined.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if len(a) < 2:
        raise ValueError("need at least 2 observations")
    ra = average_ranks(a)
    rb = average_ranks(b)
    da = ra - ra.mean()
    db = rb - rb.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        return None
    rho = float((da * db).sum() / denom)
    return min(1.0, max(-1.0, rho))


def similarity_histogram(
    values: np.ndarray, bins: int = DEFAULT_BINS, lo: float = -1.0, hi: float = 1.0
) -> np.ndarray:
    """Bin counts over equal-width bins spanning [lo, hi]; values clipped."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    clipped = np.clip(np.asarray(values, dtype=np.float64), lo, hi)
    counts, _ = np.histogram(clipped, bins=bins, range=(lo, hi))
    return counts.astype(np.float64)


def kl_divergence(p, q, epsilon: float = DEFAULT_EPSILON) -> float:
    """D(p || q) over two histograms on the same support.

    Both inputs are epsilon-smoothed and renormalized before evaluating
    sum(p * (log p - log q)), so zero bins stay finite. The measure is
    asymmetric and nonnegative.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"histogram bin counts differ: {p.shape} vs {q.shape}")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("histograms must be nonnegative")
    p = p + epsilon
    q = q + epsilon
    if p.sum() == 0.0 or q.sum() == 0.0:
        raise ValueError("histograms must have positive mass after smoothing")
    p = p / p.sum()
    q = q / q.sum()
    # Gibbs' inequality guarantees nonnegativity; clamp away rounding dust.
    return max(0.0, float(np.sum(p * (np.log(p) - np.log(q)))))


def validate_relation(
    table: EmbeddingTable,
    graph: KnowledgeGraph,
    relation: int | str,
    bins: int = DEFAULT_BINS,
) -> ValidationRecord:
    """Rank correlation and histogram divergence of a relation's two lists.

    The centroid-list histogram is compared against the direct-list
    histogram as the reference distribution.
    """
    profile = similarity_lists(table, graph, relation)
    if len(profile.direct_sims) < 2:
        raise DataError(
            f"relation {profile.relation!r}: need >= 2 usable triples to validate"
        )
    rho = spearman_rho(profile.direct_sims, profile.centroid_sims)
    p = similarity_histogram(profile.centroid_sims, bins=bins)
    q = similarity_histogram(profile.direct_sims, bins=bins)
    return ValidationRecord(
        relation=profile.relation,
        spearman=rho,
        spearman_abs=None if rho is None else abs(rho),
        kl=kl_divergence(p, q),
        triple_count=profile.triple_count,
        skipped=profile.skipped,
    )

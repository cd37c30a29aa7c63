"""Pair structure of a relation and its negation, with Unknown-pair sampling.

Known pairs are the contradiction-free (head, tail) pairs of the two
relations; a graph holds each triple once, so they are distinct by
construction. The unknown universe is every head x tail combination of the
known participants that neither relation asserts; a per-head tail sampling
ratio keeps the drawn unknown set comparable in size to the known set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import CvReport, ForestConfig, LogisticConfig, cross_validate
from .embedding import EmbeddingTable, check_aligned, translation_matrix
from .errors import DataError
from .graph import KnowledgeGraph


@dataclass
class PairUniverse:
    """Known pairs of a relation/negation pair plus the implied unknowns.

    ``positive_pairs`` belong to the primary relation, ``negative_pairs`` to
    its negation, each sorted and distinct. ``heads``/``tails`` are the sorted
    participating entity ids of ``graph``. The unknown set (heads x tails
    minus known pairs) is kept implicit: only its size and the index of each
    head's known tails are materialized.
    """

    relation: str
    negation_relation: str
    graph: KnowledgeGraph
    heads: np.ndarray
    tails: np.ndarray
    positive_pairs: np.ndarray  # (n, 2) head/tail entity ids
    negative_pairs: np.ndarray
    contradictions_removed: int  # pairs asserted under both relations

    @property
    def known_pair_count(self) -> int:
        return len(self.positive_pairs) + len(self.negative_pairs)

    @property
    def unknown_pair_count(self) -> int:
        return len(self.heads) * len(self.tails) - self.known_pair_count

    def known_tail_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Each head's known tails as sorted positions in ``tails``.

        Returns ``(starts, positions)``: the tails known with ``heads[i]``
        under either relation are ``tails[positions[starts[i]:starts[i + 1]]]``.
        """
        known = np.vstack([self.positive_pairs, self.negative_pairs])
        head_at = np.searchsorted(self.heads, known[:, 0])
        tail_at = np.searchsorted(self.tails, known[:, 1])
        order = np.lexsort((tail_at, head_at))
        counts = np.bincount(head_at, minlength=len(self.heads))
        return np.r_[0, np.cumsum(counts)], tail_at[order]


@dataclass
class UnknownSample:
    """Drawn unknown pairs, capped per head by the tail sampling ratio."""

    pairs: np.ndarray  # (m, 2) head/tail entity ids
    tail_ratio: int
    unknown_heads: int  # heads with at least one unknown tail; each gets a draw


def build_pair_universe(
    graph: KnowledgeGraph, relation: str, negation_relation: str
) -> PairUniverse:
    """Clean and index the known pairs of a relation and its negation.

    Any (head, tail) asserted under both relations is contradictory and
    removed from both sides. The unknown universe is then heads x tails
    minus the remaining known pairs.
    """
    if relation == negation_relation:
        raise DataError("relation and negation relation must differ")
    # a relation's pairs are already distinct; np.unique only sorts them
    pos, neg = (
        np.unique(graph.triples[graph.relation_rows(name)][:, [0, 2]], axis=0)
        for name in (relation, negation_relation)
    )

    pos_keys = pos[:, 0] * graph.n_entities + pos[:, 1]
    neg_keys = neg[:, 0] * graph.n_entities + neg[:, 1]
    contradictions = np.intersect1d(pos_keys, neg_keys, assume_unique=True)
    pos = pos[~np.isin(pos_keys, contradictions)]
    neg = neg[~np.isin(neg_keys, contradictions)]
    if len(pos) + len(neg) == 0:
        raise DataError("no known pairs remain after removing contradictions")

    known = np.vstack([pos, neg])
    return PairUniverse(
        relation=relation,
        negation_relation=negation_relation,
        graph=graph,
        heads=np.unique(known[:, 0]),
        tails=np.unique(known[:, 1]),
        positive_pairs=pos,
        negative_pairs=neg,
        contradictions_removed=len(contradictions),
    )


def tail_sampling_ratio(universe: PairUniverse, n_unknown_heads: int) -> int:
    """Per-head cap chosen so the sampled unknowns roughly match the knowns."""
    if n_unknown_heads == 0:
        raise DataError("no head has an unknown tail; nothing to sample")
    return max(1, -(-universe.known_pair_count // (2 * n_unknown_heads)))


def sample_unknown_pairs(universe: PairUniverse, seed: int = 0) -> UnknownSample:
    """Per head, draw up to the tail-sampling-ratio unknown tails uniformly.

    Heads with an unknown tail are visited in ascending id order. Each draws
    ``min(ratio, its unknown tails)`` distinct ranks uniformly without
    replacement, and rank r names the r-th tail the head is not known with.
    Deterministic for a fixed seed.
    """
    starts, known = universe.known_tail_positions()
    eligible = len(universe.tails) - np.diff(starts)
    drawing = np.flatnonzero(eligible > 0)
    ratio = tail_sampling_ratio(universe, len(drawing))
    rng = np.random.default_rng(seed)
    chunks = [np.empty((0, 2), dtype=np.int64)]
    for i in drawing:
        ranks = rng.choice(eligible[i], min(ratio, eligible[i]), replace=False)
        head_known = known[starts[i] : starts[i + 1]]
        # known position j has head_known[j] - j unknown tails before it;
        # rank r lies past every known position with at most r of them
        skipped = np.searchsorted(head_known - np.arange(len(head_known)), ranks, "right")
        tails = universe.tails[ranks + skipped]
        chunks.append(np.column_stack([np.full(len(tails), universe.heads[i]), tails]))
    return UnknownSample(pairs=np.vstack(chunks), tail_ratio=ratio, unknown_heads=len(drawing))


def assemble_dataset(
    table: EmbeddingTable, universe: PairUniverse
) -> tuple[np.ndarray, np.ndarray]:
    """Tail-minus-head feature rows and 1/0 labels: positive pairs, then negative pairs."""
    check_aligned(table, universe.graph)
    pairs = np.vstack([universe.positive_pairs, universe.negative_pairs])
    labels = np.zeros(len(pairs), dtype=np.int64)
    labels[: len(universe.positive_pairs)] = 1
    return translation_matrix(table, pairs[:, 0], pairs[:, 1]), labels


@dataclass
class NegationStudyReport:
    """Everything the negation probe produces for one relation pair."""

    universe: dict
    sample_size: int
    tail_ratio: int
    label_counts: dict[str, int]
    cross_validation: list[CvReport]


def run_negation_study(
    table: EmbeddingTable,
    graph: KnowledgeGraph,
    relation: str,
    negation_relation: str,
    folds: int = 10,
    seed: int = 0,
    classifier: str = "both",
    linear_config: LogisticConfig | None = None,
    forest_config: ForestConfig | None = None,
) -> tuple[NegationStudyReport, PairUniverse, UnknownSample]:
    """Build the pair universe, sample unknowns, and cross-validate on the known pairs."""
    universe = build_pair_universe(graph, relation, negation_relation)
    sample = sample_unknown_pairs(universe, seed=seed)
    x, y = assemble_dataset(table, universe)
    kinds = ("linear", "forest") if classifier == "both" else (classifier,)
    configs = {"linear": linear_config, "forest": forest_config}
    reports = [
        cross_validate(x, y, kind, folds=folds, seed=seed, config=configs[kind]) for kind in kinds
    ]
    summary = {
        "relation": universe.relation,
        "negation_relation": universe.negation_relation,
        "known_pairs": universe.known_pair_count,
        "positive_pairs": len(universe.positive_pairs),
        "negative_pairs": len(universe.negative_pairs),
        "heads": len(universe.heads),
        "tails": len(universe.tails),
        "unknown_pairs": universe.unknown_pair_count,
        "contradictions_removed": universe.contradictions_removed,
        "unknown_heads_equal_heads": sample.unknown_heads == len(universe.heads),
    }
    report = NegationStudyReport(
        universe=summary,
        sample_size=len(sample.pairs),
        tail_ratio=sample.tail_ratio,
        label_counts={
            "negative": len(universe.negative_pairs),
            "positive": len(universe.positive_pairs),
            "unknown": len(sample.pairs),
        },
        cross_validation=reports,
    )
    return report, universe, sample

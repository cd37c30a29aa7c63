"""Pair structure of a relation and its negation, with Unknown-pair sampling.

Known pairs are the deduplicated, contradiction-free triples of the two
relations. The unknown universe is every head x tail combination of the
known participants that neither relation asserts; a per-head tail sampling
ratio keeps the drawn unknown set comparable in size to the known set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .classify import CvReport, ForestConfig, LogisticConfig, cross_validate
from .embedding import EmbeddingTable, check_aligned, translation_matrix
from .errors import DataError
from .graph import KnowledgeGraph

log = logging.getLogger(__name__)


@dataclass
class PairUniverse:
    """Cleaned known pairs of a relation/negation pair plus the implied unknowns.

    ``positive_pairs`` belong to the primary relation, ``negative_pairs`` to
    its negation. ``heads``/``tails`` are the sorted participating entity
    ids of ``graph``. The unknown set (heads x tails minus known pairs) is
    kept implicit: only its size and per-head membership tests are
    materialized.
    """

    relation: str
    negation_relation: str
    graph: KnowledgeGraph
    heads: np.ndarray
    tails: np.ndarray
    positive_pairs: np.ndarray  # (n, 2) head/tail entity ids
    negative_pairs: np.ndarray
    contradictions_removed: int  # pairs asserted under both relations
    duplicates_removed: int

    @property
    def known_pair_count(self) -> int:
        return len(self.positive_pairs) + len(self.negative_pairs)

    @property
    def unknown_pair_count(self) -> int:
        return len(self.heads) * len(self.tails) - self.known_pair_count

    def known_tails_by_head(self) -> dict[int, np.ndarray]:
        """head id -> sorted tail ids asserted with it under either relation."""
        known = np.vstack([self.positive_pairs, self.negative_pairs])
        order = np.lexsort((known[:, 1], known[:, 0]))
        known = known[order]
        out: dict[int, np.ndarray] = {}
        boundaries = np.flatnonzero(np.r_[True, known[1:, 0] != known[:-1, 0]])
        boundaries = np.r_[boundaries, len(known)]
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            out[int(known[a, 0])] = known[a:b, 1]
        return out

    def unknown_heads(self, by_head: dict[int, np.ndarray] | None = None) -> np.ndarray:
        """Heads with at least one unknown tail (empirically usually all).

        ``by_head`` is this universe's ``known_tails_by_head()``, if the caller has it.
        """
        if by_head is None:
            by_head = self.known_tails_by_head()
        n_tails = len(self.tails)
        return np.asarray(
            [h for h in self.heads if n_tails - len(by_head.get(int(h), ())) > 0],
            dtype=np.int64,
        )


@dataclass
class UnknownSample:
    """Drawn unknown pairs, capped per head by the tail sampling ratio."""

    pairs: np.ndarray  # (m, 2) head/tail entity ids
    tail_ratio: int
    unknown_heads: int  # heads with at least one unknown tail; each gets a draw


def _relation_pairs(graph: KnowledgeGraph, relation: str) -> tuple[np.ndarray, int]:
    pairs = graph.triples[graph.relation_rows(relation)][:, [0, 2]]
    uniq = np.unique(pairs, axis=0)
    return uniq, len(pairs) - len(uniq)


def build_pair_universe(
    graph: KnowledgeGraph, relation: str, negation_relation: str
) -> PairUniverse:
    """Clean and index the known pairs of a relation and its negation.

    Duplicate pairs collapse; any (head, tail) asserted under both relations
    is contradictory and removed from both sides. The unknown universe is
    then heads x tails minus the remaining known pairs.
    """
    if relation == negation_relation:
        raise DataError("relation and negation relation must differ")
    pos, dup_pos = _relation_pairs(graph, relation)
    neg, dup_neg = _relation_pairs(graph, negation_relation)

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
        duplicates_removed=dup_pos + dup_neg,
    )


def tail_sampling_ratio(universe: PairUniverse, n_unknown_heads: int) -> int:
    """Per-head cap chosen so the sampled unknowns roughly match the knowns."""
    if n_unknown_heads == 0:
        raise DataError("no head has an unknown tail; nothing to sample")
    return max(1, -(-universe.known_pair_count // (2 * n_unknown_heads)))


def sample_unknown_pairs(universe: PairUniverse, seed: int = 0) -> UnknownSample:
    """Per head, draw up to the tail-sampling-ratio unknown tails uniformly.

    Heads are visited in sorted id order; each head's tails are a uniform
    sample without replacement from its eligible (unknown) set, drawn either
    as the distinct prefix of an iid stream or as a permutation prefix when
    few tails are eligible. Deterministic for a fixed seed either way.
    """
    by_head = universe.known_tails_by_head()
    tails = universe.tails
    n_tails = len(tails)
    heads_u = universe.unknown_heads(by_head)
    ratio = tail_sampling_ratio(universe, len(heads_u))
    rng = np.random.default_rng(seed)
    chunks = []
    for h in heads_u:
        known = by_head.get(int(h))
        k_h = 0 if known is None else len(known)
        eligible = n_tails - k_h
        take_n = min(ratio, eligible)
        if eligible > 4 * ratio + k_h:
            # Plenty of eligible tails: take the first take_n distinct
            # eligible values of an iid uniform stream, which is a uniform
            # sample without replacement.
            seen = set(known.tolist()) if k_h else set()
            picked: list[int] = []
            while len(picked) < take_n:
                draws = rng.integers(0, n_tails, size=take_n + k_h + 8)
                for idx in draws.tolist():
                    t = int(tails[idx])
                    if t not in seen:
                        seen.add(t)
                        picked.append(t)
                        if len(picked) == take_n:
                            break
            take = np.asarray(picked, dtype=np.int64)
        else:
            # Few eligible tails: a full permutation prefix is exact and cheap.
            candidates = tails[rng.permutation(n_tails)]
            if k_h:
                candidates = candidates[~np.isin(candidates, known)]
            take = candidates[:take_n]
        chunks.append(np.column_stack([np.full(len(take), h, dtype=np.int64), take]))
    pairs = np.vstack(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    return UnknownSample(pairs=pairs, tail_ratio=ratio, unknown_heads=len(heads_u))


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
        "duplicates_removed": universe.duplicates_removed,
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

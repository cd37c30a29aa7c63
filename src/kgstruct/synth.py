"""Seeded synthetic multi-relational graphs with planted translation structure.

Entities live in latent blocks; every relation is realized as a handful of
(source block -> target block) senses. Triples drawn from a sense connect a
random entity of the source block to a random entity of the target block,
so each relation's translation vectors form distinct lobes: learnable by a
translational trainer, clusterable by k-means, and noisy enough that the
similarity-list validation statistics behave like real data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import KnowledgeGraph

# Pairs drawn per array call. A chunk stops at its first rejected pair, which
# costs a rewind of the stream and a redraw, so plans that reject most pairs
# draw more slowly than one scalar call per endpoint would.
_CHUNK = 256


@dataclass(frozen=True)
class RelationPlan:
    """How one synthetic relation is realized."""

    name: str
    n_triples: int
    n_senses: int


@dataclass(frozen=True)
class GraphPlan:
    """Blueprint for one synthetic graph."""

    n_entities: int
    n_blocks: int
    relations: tuple[RelationPlan, ...]
    seed: int = 0


def synthetic_graph(plan: GraphPlan) -> KnowledgeGraph:
    """Materialize a blueprint into a deduplicated KnowledgeGraph.

    Each relation gets exactly its requested triple count (distinct (head,
    tail) pairs per relation), drawn from its senses round-robin so every
    sense is populated. Entity j of block b is ``b + n_blocks * j``.

    The random stream is that of one scalar ``rng.integers(block size)`` call
    per endpoint, head then tail, with a rejected pair (a self-loop or a
    repeat) redrawn for the same sense. Pairs are drawn up to ``_CHUNK`` at a
    time in one array call, which numpy fills with the scalar calls' values;
    after a rejection the stream is rewound and advanced past the rejected
    pair only. So the same plan gives the same graph, byte for byte.
    """
    if plan.n_blocks < 1 or plan.n_entities < plan.n_blocks:
        raise ConfigError("need at least one block and one entity per block")
    n_blocks = plan.n_blocks
    rng = np.random.default_rng(plan.seed)
    block_sizes = np.bincount(np.arange(plan.n_entities) % n_blocks)
    endpoints: list[int] = []  # head, tail, head, ... of every emitted pair
    counts = []
    for rel in plan.relations:
        if rel.n_senses < 1:
            raise ConfigError(f"{rel.name}: need at least one sense")
        senses = [int(rng.integers(n_blocks)) for _ in range(2 * rel.n_senses)]
        # endpoint blocks (head, tail, head, ...) in round-robin order; from
        # any sense on, the cycle holds at least _CHUNK + 2 pairs
        ends_cycle = np.array(senses * (_CHUNK // rel.n_senses + 2))
        highs_cycle = block_sizes[ends_cycle]
        used: set[int] = set()
        emitted = 0
        attempts = 0
        limit = rel.n_triples * 50 + 1000
        while emitted < rel.n_triples:
            m = min(_CHUNK, rel.n_triples - emitted, limit - attempts)
            if m < 1:
                raise ConfigError(
                    f"{rel.name}: cannot place {rel.n_triples} distinct pairs; "
                    "increase entities or senses"
                )
            # the next m pairs, if none is rejected
            start = 2 * (emitted % rel.n_senses)
            highs = highs_cycle[start : start + 2 * m]
            state = rng.bit_generator.state
            draws = rng.integers(0, highs)
            ends = (ends_cycle[start : start + 2 * m] + n_blocks * draws).tolist()
            kept = 0
            for h, t in zip(ends[0::2], ends[1::2]):
                code = h * plan.n_entities + t
                if h == t or code in used:
                    break
                used.add(code)
                kept += 1
            endpoints.extend(ends[: 2 * kept])
            emitted += kept
            attempts += kept
            if kept < m:
                attempts += 1  # the rejected pair
                # rewind, then draw only up to and including the rejected pair
                rng.bit_generator.state = state
                rng.integers(0, highs[: 2 * kept + 2])
        counts.append(emitted)
    triples = np.empty((len(endpoints) // 2, 3), dtype=np.int64)
    triples[:, [0, 2]] = np.reshape(endpoints, (-1, 2))
    triples[:, 1] = np.repeat(np.arange(len(counts)), counts)
    entity_names = [f"e{i:05d}" for i in range(plan.n_entities)]
    relation_names = [rel.name for rel in plan.relations]
    return KnowledgeGraph.from_id_triples(entity_names, relation_names, triples)


def demo_plan() -> GraphPlan:
    """A 500-triple miniature graph at seed 7 exercising every pipeline stage."""
    return GraphPlan(
        n_entities=160,
        n_blocks=8,
        relations=(
            RelationPlan("HasContext", 160, 4),
            RelationPlan("FormOf", 80, 2),
            RelationPlan("UsedFor", 70, 2),
            RelationPlan("Desires", 100, 3),
            RelationPlan("NotDesires", 90, 3),
        ),
        seed=7,
    )


def desk_scale_plan(seed: int = 11) -> GraphPlan:
    """A 50k-triple graph: the bundled desk config trains on it in 2-4 s on 2 vCPUs.

    Sense counts of 6-8 per relation keep the per-relation translation
    lobes broad enough that similarity-list histograms overlap well after
    training.
    """
    return GraphPlan(
        n_entities=6000,
        n_blocks=24,
        relations=(
            RelationPlan("RelatedTo", 15000, 6),
            RelationPlan("Synonym", 8000, 7),
            RelationPlan("FormOf", 7000, 8),
            RelationPlan("IsA", 5000, 6),
            RelationPlan("HasContext", 4000, 7),
            RelationPlan("DerivedFrom", 3000, 8),
            RelationPlan("SymbolOf", 2500, 6),
            RelationPlan("AtLocation", 2000, 7),
            RelationPlan("UsedFor", 1500, 8),
            RelationPlan("Desires", 800, 6),
            RelationPlan("NotDesires", 700, 7),
            RelationPlan("PartOf", 400, 8),
            RelationPlan("CapableOf", 60, 6),
            RelationPlan("MadeOf", 40, 7),
        ),
        seed=seed,
    )

from unittest import mock

import numpy as np
import pytest

from kgstruct import synth
from kgstruct.errors import ConfigError
from kgstruct.graph import KnowledgeGraph
from kgstruct.synth import GraphPlan, RelationPlan, demo_plan, desk_scale_plan, synthetic_graph


def reference_synthetic_graph(plan: GraphPlan) -> KnowledgeGraph:
    """The generator as one loop iteration and two scalar draws per attempted pair."""
    if plan.n_blocks < 1 or plan.n_entities < plan.n_blocks:
        raise ConfigError("need at least one block and one entity per block")
    rng = np.random.default_rng(plan.seed)
    blocks = [
        np.arange(plan.n_entities)[b :: plan.n_blocks] for b in range(plan.n_blocks)
    ]
    rows = []
    for rel_id, rel in enumerate(plan.relations):
        if rel.n_senses < 1:
            raise ConfigError(f"{rel.name}: need at least one sense")
        senses = [
            (int(rng.integers(plan.n_blocks)), int(rng.integers(plan.n_blocks)))
            for _ in range(rel.n_senses)
        ]
        used: set[tuple[int, int]] = set()
        emitted = 0
        attempts = 0
        limit = rel.n_triples * 50 + 1000
        while emitted < rel.n_triples:
            attempts += 1
            if attempts > limit:
                raise ConfigError(
                    f"{rel.name}: cannot place {rel.n_triples} distinct pairs; "
                    "increase entities or senses"
                )
            src, dst = senses[emitted % rel.n_senses]
            h = int(blocks[src][rng.integers(len(blocks[src]))])
            t = int(blocks[dst][rng.integers(len(blocks[dst]))])
            if h == t or (h, t) in used:
                continue
            used.add((h, t))
            rows.append((h, rel_id, t))
            emitted += 1
    entity_names = [f"e{i:05d}" for i in range(plan.n_entities)]
    relation_names = [rel.name for rel in plan.relations]
    return KnowledgeGraph.from_id_triples(
        entity_names, relation_names, np.asarray(rows, dtype=np.int64)
    )


def outcome(generate, plan):
    """The graph's triples and names, or the ConfigError's message, and the stream's end.

    The random stream's final state shows that both generators drew the same
    values; after an error, that it fired on the same attempt.
    """
    made = []
    real = np.random.default_rng

    def recording(seed):
        made.append(real(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", recording):
        try:
            graph = generate(plan)
            result = "graph", graph.triples.tolist(), graph.entity_names, graph.relation_names
        except ConfigError as exc:
            result = "error", str(exc)
    return result, [rng.bit_generator.state for rng in made]


PLANS = {
    "demo": demo_plan(),
    "desk-11": desk_scale_plan(11),
    "desk-4099": desk_scale_plan(4099),
    # one block: every sense maps the block to itself
    "self-senses": GraphPlan(
        40, 1, (RelationPlan("A", 600, 3), RelationPlan("B", 300, 5)), seed=2
    ),
    # blocks of one entity: each sense holds one pair, so only a plan that
    # draws no same-block sense and no sense twice is placed
    "one-entity-blocks": GraphPlan(
        12, 12, (RelationPlan("A", 3, 4), RelationPlan("B", 5, 5)), seed=1
    ),
    # 19,000 of the 20,000 pairs a 2-block graph of 200 entities holds
    "saturated": GraphPlan(200, 2, (RelationPlan("S", 19_000, 4),), seed=5),
    "empty-and-short": GraphPlan(
        60,
        3,
        (
            RelationPlan("Empty", 0, 2),
            RelationPlan("Short", 17, 3),
            RelationPlan("Long", 500, 2),
            RelationPlan("AlsoEmpty", 0, 1),
        ),
        seed=3,
    ),
}


@pytest.mark.parametrize("name", list(PLANS))
def test_generator_equals_the_scalar_loop(name):
    plan = PLANS[name]
    expected = outcome(reference_synthetic_graph, plan)
    assert expected[0][0] == "graph"
    assert outcome(synthetic_graph, plan) == expected


@pytest.mark.parametrize("chunk", [1, 2, 3, 16])
@pytest.mark.parametrize("name", ["demo", "self-senses", "one-entity-blocks", "empty-and-short"])
def test_generator_equals_the_scalar_loop_at_any_chunk_size(monkeypatch, name, chunk):
    monkeypatch.setattr(synth, "_CHUNK", chunk)
    plan = PLANS[name]
    assert outcome(synthetic_graph, plan) == outcome(reference_synthetic_graph, plan)


class DrawLog:
    """A Generator that logs each array draw's length and each rewind of its stream."""

    def __init__(self, rng):
        self.rng = rng
        self.log = []

    def integers(self, low, high=None):
        if np.ndim(high):
            self.log.append(("draw", len(high)))
        return self.rng.integers(low, high)

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.rng.bit_generator.state

    @state.setter
    def state(self, value):
        self.log.append(("rewind", None))
        self.rng.bit_generator.state = value


@pytest.mark.parametrize("chunk", [3, 16, synth._CHUNK])
@pytest.mark.parametrize("name", ["self-senses", "saturated", "empty-and-short"])
def test_every_chunk_draws_the_pairs_still_missing_up_to_the_chunk_size(monkeypatch, name, chunk):
    """Each chunk draws 2 x min(_CHUNK, pairs missing) values, from any sense on;
    after a rejection, the redraw stops at the rejected pair."""
    monkeypatch.setattr(synth, "_CHUNK", chunk)
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: made.append(DrawLog(real(seed))) or made[-1]
    )
    plan = PLANS[name]
    synthetic_graph(plan)
    log = made[0].log
    i = 0
    for rel in plan.relations:
        emitted = 0
        while emitted < rel.n_triples:
            kind, n = log[i]
            assert (kind, n) == ("draw", 2 * min(chunk, rel.n_triples - emitted))
            kept = n // 2
            if log[i + 1 : i + 2] == [("rewind", None)]:
                kind, redrawn = log[i + 2]
                assert kind == "draw" and redrawn <= n
                kept = redrawn // 2 - 1
                i += 2
            emitted += kept
            i += 1
    assert i == len(log)


@pytest.mark.parametrize(
    "plan",
    [
        # B fits at most 25 distinct pairs, so its attempt limit runs out
        GraphPlan(10, 2, (RelationPlan("A", 5, 1), RelationPlan("B", 1000, 1)), seed=3),
        # a one-entity block mapped to itself rejects every draw
        GraphPlan(3, 3, (RelationPlan("Loop", 1, 1),), seed=1),
        GraphPlan(10, 2, (RelationPlan("A", 5, 1), RelationPlan("None", 5, 0)), seed=3),
        GraphPlan(3, 4, (RelationPlan("A", 1, 1),)),
        GraphPlan(3, 0, (RelationPlan("A", 1, 1),)),
    ],
    ids=["cannot-place", "self-loop-only", "no-senses", "too-many-blocks", "no-blocks"],
)
def test_generator_raises_the_scalar_loops_error(plan):
    expected = outcome(reference_synthetic_graph, plan)
    assert expected[0][0] == "error"
    assert outcome(synthetic_graph, plan) == expected


def test_numpy_array_high_draws_the_values_of_scalar_calls():
    # synthetic_graph draws a chunk of endpoints with one array ``high``; its
    # graphs equal the scalar loop's only while this holds
    highs = np.random.default_rng(0).choice(
        [1, 2, 3, 7, 40, 187, 250, 6000, 2**31 + 1, 2**32 - 1, 2**32, 2**33 + 5], size=1000
    )
    scalar, array = np.random.default_rng(42), np.random.default_rng(42)
    expected = [int(scalar.integers(high)) for high in highs.tolist()]
    got = array.integers(0, highs).tolist()
    assert got == expected, (
        "numpy's Generator.integers no longer gives an array `high` the values of "
        "one scalar call per element, which synthetic_graph's chunked draws rely on"
    )
    assert array.bit_generator.state == scalar.bit_generator.state

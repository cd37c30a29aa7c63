import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_labeled_triples, make_table, run_python
from kgstruct import embedding
from kgstruct.cluster import relation_point_set
from kgstruct.embedding import (
    _PAIRWISE_SEQUENTIAL_ROWS,
    EmbeddingTable,
    TrainConfig,
    _scatter_add,
    _tail_scores,
    hits_at_k,
    train,
    translation_matrix,
    unit_rows,
)
from kgstruct.errors import ConfigError, DataError, TrainingDivergedError
from kgstruct.graph import KnowledgeGraph, SplitSpec, split_indices
from kgstruct.negation import assemble_dataset, build_pair_universe
from kgstruct.synth import demo_plan, synthetic_graph
from kgstruct.validation import relation_profiles, similarity_lists


def planted_block_graph(n_heads=300, n_tails=20, n_triples=1000, seed=5):
    """Heads in one block, tails in a small target block: learnable hits@k."""
    rng = np.random.default_rng(seed)
    used = set()
    rows = []
    while len(rows) < n_triples:
        h = int(rng.integers(n_heads))
        t = n_heads + int(rng.integers(n_tails))
        if (h, t) in used:
            continue
        used.add((h, t))
        rows.append((h, 0, t))
    names = [f"h{i}" for i in range(n_heads)] + [f"t{i}" for i in range(n_tails)]
    return KnowledgeGraph.from_id_triples(names, ["r"], np.asarray(rows))


# -- training -------------------------------------------------------------------


def test_train_loss_decreases_on_single_triple():
    graph = from_labeled_triples([("a", "r", "b")])
    table = train(graph, TrainConfig(dimension=2, epochs=30, seed=0, batch_size=1))
    assert table.epoch_losses[-1] < table.epoch_losses[0]
    assert all(np.isfinite(loss) for loss in table.epoch_losses)


def test_train_deterministic_bitwise():
    graph = planted_block_graph(n_heads=30, n_tails=5, n_triples=80)
    cfg = TrainConfig(dimension=8, epochs=5, seed=11)
    a = train(graph, cfg)
    b = train(graph, cfg)
    assert np.array_equal(a.entity_vectors, b.entity_vectors)
    assert np.array_equal(a.relation_vectors, b.relation_vectors)
    assert a.epoch_losses == b.epoch_losses


def test_train_covers_all_symbols():
    graph = planted_block_graph(n_heads=40, n_tails=6, n_triples=100)
    table = train(graph, TrainConfig(dimension=4, epochs=1, seed=0))
    assert table.n_entities == graph.n_entities
    assert table.n_relations == graph.n_relations
    assert np.isfinite(table.entity_vectors).all()


def test_train_planted_structure_beats_random_baseline():
    graph = planted_block_graph()
    train_idx, _, test_idx = split_indices(
        graph.n_triples, SplitSpec(0.8, 0.1, 0.1, seed=1)
    )
    trained = train(
        graph, TrainConfig(dimension=32, epochs=25, seed=2), triple_indices=train_idx
    )
    untrained = train(graph, TrainConfig(dimension=32, epochs=0, seed=2))
    test_graph = graph.subset(test_idx, recompact=False)  # the table's interning
    hits_trained = hits_at_k(trained, test_graph, 10)
    hits_untrained = hits_at_k(untrained, test_graph, 10)
    assert hits_trained >= 5 * max(hits_untrained, 1e-9)


def test_train_rejects_empty_graph():
    with pytest.raises(DataError):
        train(from_labeled_triples([]), TrainConfig(dimension=2))


def test_train_rejects_bad_config():
    graph = from_labeled_triples([("a", "r", "b")])
    with pytest.raises(ConfigError):
        train(graph, TrainConfig(dimension=0))
    with pytest.raises(ConfigError):
        train(graph, TrainConfig(margin=0.0))
    with pytest.raises(ConfigError):
        train(graph, TrainConfig(negatives=0))


@pytest.mark.parametrize("margin", [0.0, -1.0, float("nan"), float("inf")])
def test_train_config_names_a_bad_margin(margin):
    with pytest.raises(ConfigError, match=r"^train\.margin: must be finite and > 0"):
        TrainConfig(margin=margin)


def test_train_divergence_detected():
    graph = planted_block_graph(n_heads=30, n_tails=5, n_triples=80)
    cfg = TrainConfig(dimension=4, epochs=3, seed=0, learning_rate=1e30, batch_size=8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError):
        train(graph, cfg)


# -- the trainer against its reference -------------------------------------------


def reference_train(
    graph: KnowledgeGraph,
    config: TrainConfig = TrainConfig(),
    triple_indices: np.ndarray | None = None,
) -> EmbeddingTable:
    """``train`` as it was before its batch body gathered with np.take into one buffer.

    The body is kept verbatim, except that it scatters through
    ``reference_scatter_add``, which the scatter tests below hold to
    ``_scatter_add``'s bits, and logs nothing.
    """
    if graph.n_triples == 0:
        raise DataError("cannot train on an empty graph")
    if triple_indices is None:
        triple_indices = np.arange(graph.n_triples)
    triple_indices = np.asarray(triple_indices, dtype=np.int64)
    if len(triple_indices) == 0:
        raise DataError("cannot train on an empty triple selection")

    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    bound = np.float32(6.0 / np.sqrt(dim))
    ent = rng.uniform(-bound, bound, size=(graph.n_entities, dim)).astype(np.float32)
    rel = rng.uniform(-bound, bound, size=(graph.n_relations, dim)).astype(np.float32)
    rel, _ = unit_rows(rel)

    triples = graph.triples[triple_indices]
    n = len(triples)
    n_neg = config.negatives
    losses: list[float] = []

    # a step too large overflows to inf and then NaN; the isfinite checks
    # report that, so the intermediate warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            ent, _ = unit_rows(ent)
            lr = np.float32(config.learning_rate * (1.0 - epoch / config.epochs))
            perm = rng.permutation(n)
            epoch_loss = 0.0
            n_pairs = 0
            for start in range(0, n, config.batch_size):
                batch = triples[perm[start : start + config.batch_size]]
                b = len(batch)
                h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]

                corrupt = rng.integers(0, graph.n_entities, size=b * n_neg)
                corrupt_head = rng.random(b * n_neg) < 0.5
                h_neg = np.repeat(h, n_neg)
                t_neg = np.repeat(t, n_neg)
                h_neg = np.where(corrupt_head, corrupt, h_neg)
                t_neg = np.where(corrupt_head, t_neg, corrupt)
                r_neg = np.repeat(r, n_neg)

                diff_pos = ent[h] + rel[r] - ent[t]
                diff_neg = ent[h_neg] + rel[r_neg] - ent[t_neg]
                d_pos = (diff_pos * diff_pos).sum(axis=1)
                d_neg = (diff_neg * diff_neg).sum(axis=1)
                hinge = np.float32(config.margin) + np.repeat(d_pos, n_neg) - d_neg
                if not np.isfinite(hinge).all():
                    raise TrainingDivergedError(
                        f"non-finite margin loss at epoch {epoch}; lower "
                        "train.learning_rate or train.margin"
                    )
                active = hinge > 0

                epoch_loss += float(hinge[active].sum())
                n_pairs += b * n_neg
                if not active.any():
                    continue

                # Per-pair SGD at full learning rate, averaged over each
                # positive's negatives; summing over the batch then matches a
                # sequential pass. d(pos)/d(h) = 2*diff_pos, d(pos)/d(t) =
                # -2*diff_pos; negatives enter with opposite sign.
                scale = lr / np.float32(n_neg)
                active_per_pos = active.reshape(b, n_neg).sum(axis=1).astype(np.float32)
                g_pos = (2.0 * scale) * diff_pos * active_per_pos[:, None]
                g_neg = (-2.0 * scale) * diff_neg[active]

                rows = np.concatenate([h, t, h_neg[active], t_neg[active]])
                # each negated block is built once, in place, and read by both scatters
                grads = np.concatenate([g_pos, g_pos, g_neg, g_neg])
                minus_pos, minus_neg = grads[:b], grads[2 * b : 2 * b + len(g_neg)]
                np.negative(minus_pos, out=minus_pos)
                np.negative(minus_neg, out=minus_neg)
                reference_scatter_add(ent, rows, grads)
                rel_rows = np.concatenate([r, r_neg[active]])
                reference_scatter_add(rel, rel_rows, np.concatenate([minus_pos, minus_neg]))

            mean_loss = epoch_loss / max(n_pairs, 1)
            if not np.isfinite(mean_loss):
                raise TrainingDivergedError(
                    f"non-finite loss {mean_loss} at epoch {epoch}; lower "
                    "train.learning_rate or train.margin"
                )
            losses.append(mean_loss)

    return EmbeddingTable(
        graph.entity_names,
        graph.relation_names,
        ent,
        rel,
        config=config,
        epoch_losses=losses,
    )


def _assert_trains_like_the_reference(graph, config, triple_indices=None):
    got = train(graph, config, triple_indices=triple_indices)
    expected = reference_train(graph, config, triple_indices=triple_indices)
    assert got.entity_vectors.tobytes() == expected.entity_vectors.tobytes()
    assert got.relation_vectors.tobytes() == expected.relation_vectors.tobytes()
    assert got.epoch_losses == expected.epoch_losses


@pytest.mark.parametrize("negatives", [1, 3, 10])
@pytest.mark.parametrize("dimension", [1, 5, 32, 100])
def test_train_equals_the_reference_trainer_bitwise(dimension, negatives):
    graph = synthetic_graph(demo_plan())
    # 96 does not divide the 500 triples, so the last batch holds 20
    config = TrainConfig(
        dimension=dimension, epochs=3, negatives=negatives, batch_size=96, seed=dimension
    )
    _assert_trains_like_the_reference(graph, config)


def _hub_graph():
    """One head with 60 tails beside 40 unrelated triples: the hub fills every batch."""
    rows = [("hub", "r", f"t{i}") for i in range(60)]
    rows += [(f"a{i}", "s", f"b{i}") for i in range(40)]
    return from_labeled_triples(rows)


BATCH_PATHS = {
    # case: (graph, config, triple indices)
    "one-batch-above-the-train-count": (
        lambda: synthetic_graph(demo_plan()),
        TrainConfig(dimension=16, epochs=3, negatives=4, batch_size=1_000, seed=4),
        split_indices(500, SplitSpec(0.75, 0.125, 0.125, seed=2))[0],
    ),
    "a-row-updated-more-than-8-times": (
        _hub_graph,
        TrainConfig(dimension=8, epochs=3, negatives=3, batch_size=32, seed=5),
        None,
    ),
    "a-batch-with-no-active-pair": (
        lambda: from_labeled_triples([("a", "r", "b"), ("c", "r", "d"), ("e", "s", "f")]),
        TrainConfig(dimension=4, epochs=40, negatives=1, batch_size=1, margin=0.01, seed=6),
        None,
    ),
}


@pytest.mark.parametrize("case", list(BATCH_PATHS))
def test_train_equals_the_reference_trainer_on_every_batch_path(case, monkeypatch):
    make_graph, config, triple_indices = BATCH_PATHS[case]
    graph = make_graph()
    assert graph.n_entities != graph.n_relations  # tells the two scatters apart
    entity_rows = []  # the largest number of rows of one entity, per entity scatter

    def recorded(target, rows, grads, pick=None):
        if len(target) == graph.n_entities:
            entity_rows.append(int(np.bincount(rows).max()))
        _scatter_add(target, rows, grads, pick)

    monkeypatch.setattr("kgstruct.embedding._scatter_add", recorded)
    _assert_trains_like_the_reference(graph, config, triple_indices)
    n_train = graph.n_triples if triple_indices is None else len(triple_indices)
    batches = config.epochs * -(-n_train // config.batch_size)
    if case == "one-batch-above-the-train-count":
        assert len(entity_rows) == batches == config.epochs
    elif case == "a-row-updated-more-than-8-times":
        assert max(entity_rows) > _PAIRWISE_SEQUENTIAL_ROWS
    else:
        assert 0 < len(entity_rows) < batches


# -- translation and centroid -----------------------------------------------------


def _translation(table, h, t):
    return translation_matrix(table, np.asarray([h]), np.asarray([t]))[0]


def test_translation_componentwise():
    table = make_table({"h": [0.5, 1.0], "t": [1.0, 2.0]}, {"r": [0.0, 0.0]})
    assert _translation(table, 0, 1).tolist() == [0.5, 1.0]


def test_translation_zero_for_identical_embeddings():
    table = make_table({"a": [0.3, -0.7], "b": [0.3, -0.7]}, {"r": [0.0, 0.0]})
    assert _translation(table, 0, 1).tolist() == [0.0, 0.0]


@given(
    h=st.lists(st.floats(-10, 10, width=32), min_size=3, max_size=3),
    t=st.lists(st.floats(-10, 10, width=32), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_translation_antisymmetry_exact(h, t):
    table = make_table({"h": h, "t": t}, {"r": [0.0, 0.0, 0.0]})
    assert np.array_equal(_translation(table, 0, 1), -_translation(table, 1, 0))


def test_translation_unknown_entity():
    graph = from_labeled_triples([("a", "r", "b")])
    table = make_table({"a": [0.0]}, {"r": [0.0]})
    with pytest.raises(DataError, match="'b'"):
        table.aligned_to(graph)


def test_centroid_single_triple_equals_translation(tiny_graph=None):
    graph = from_labeled_triples([("a", "r", "b")])
    table = make_table({"a": [1.0, 2.0], "b": [4.0, 6.0]}, {"r": [1.0, 0.0]})
    centroid = similarity_lists(table, graph, "r").centroid
    assert centroid.tolist() == [3.0, 4.0]


def test_centroid_symmetric_cancellation():
    graph = from_labeled_triples([("a", "r", "b"), ("c", "r", "d")])
    table = make_table(
        {"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 0.0], "d": [-1.0, 0.0]},
        {"r": [1.0, 0.0]},
    )
    translations = translation_matrix(table, graph.triples[:, 0], graph.triples[:, 2])
    assert translations.mean(axis=0).tolist() == [0.0, 0.0]
    with pytest.raises(DataError, match="centroid vector has zero norm"):
        similarity_lists(table, graph, "r")


def test_centroid_matches_bruteforce_mean():
    rng = np.random.default_rng(3)
    rows = [(f"h{i}", "r", f"t{i}") for i in range(5)]
    graph = from_labeled_triples(rows)
    vectors = {name: rng.normal(size=4).tolist() for name in graph.entity_names}
    table = make_table(vectors, {"r": [1.0] * 4})
    centroid = similarity_lists(table, graph, "r").centroid
    # independent accumulation oracle: plain python sums in float64
    sums = [0.0] * 4
    for h, _, t in graph.triples:
        th = np.asarray(vectors[graph.entity_names[t]], dtype=np.float32)
        hh = np.asarray(vectors[graph.entity_names[h]], dtype=np.float32)
        diff = th.astype(np.float64) - hh.astype(np.float64)
        for d in range(4):
            sums[d] += diff[d]
    expected = [s / 5 for s in sums]
    assert np.allclose(centroid, expected, atol=1e-12, rtol=0)


def test_centroid_empty_relation():
    graph = from_labeled_triples([("a", "r", "b")])
    table = make_table({"a": [0.0], "b": [1.0]}, {"r": [1.0]})
    with pytest.raises(DataError):
        similarity_lists(table, graph, "missing")


# -- hits@k ----------------------------------------------------------------------


def test_hits_at_k_everything_in_topk():
    graph = from_labeled_triples([("a", "r", "b"), ("b", "r", "a")])
    table = train(graph, TrainConfig(dimension=2, epochs=0, seed=0))
    assert hits_at_k(table, graph, k=graph.n_entities) == 1.0


def test_hits_at_one_on_exact_translation_fixture():
    positions = {f"e{i}": [float(i), 0.0] for i in range(10)}
    table = make_table(positions, {"r": [5.0, 0.0]})
    rows = [(f"e{i}", "r", f"e{i + 5}") for i in range(5)]
    graph = from_labeled_triples(rows)
    assert hits_at_k(table.aligned_to(graph), graph, 1) == 1.0


def test_hits_at_one_random_baseline():
    rng = np.random.default_rng(0)
    n = 100
    rows = [(f"e{i}", "r", f"e{int(rng.integers(n))}") for i in range(n) ]
    rows = [(h, r, t) for h, r, t in rows if h != t]
    graph = from_labeled_triples(rows)
    table = train(graph, TrainConfig(dimension=16, epochs=0, seed=1))
    hits = hits_at_k(table, graph, 1)
    assert 0.0 <= hits <= 0.05  # ~1/100 up to sampling noise


def test_hits_rejects_bad_k_and_empty():
    graph = from_labeled_triples([("a", "r", "b")])
    table = train(graph, TrainConfig(dimension=2, epochs=0, seed=0))
    with pytest.raises(ConfigError):
        hits_at_k(table, graph, 0)
    with pytest.raises(DataError):
        hits_at_k(table, from_labeled_triples([]), 1)


def test_hits_names_a_symbol_missing_from_the_table():
    positions = {f"e{i}": [float(i), 0.0] for i in range(10)}
    table = make_table(positions, {"r": [5.0, 0.0]})
    rows = [("e0", "r", "e5"), ("unseen", "r", "e5")]
    graph = from_labeled_triples(rows)
    with pytest.raises(DataError, match="interning"):
        hits_at_k(table, graph, 1)
    with pytest.raises(DataError, match="'unseen'"):
        table.aligned_to(graph)


def test_hits_maps_table_rows_by_name():
    graph = planted_block_graph(n_heads=40, n_tails=8, n_triples=120)
    table = train(graph, TrainConfig(dimension=8, epochs=5, seed=2))
    order = np.random.default_rng(4).permutation(table.n_entities)
    rel_order = np.arange(table.n_relations)[::-1]
    shuffled = EmbeddingTable(
        [table.entity_names[i] for i in order],
        [table.relation_names[i] for i in rel_order],
        table.entity_vectors[order],
        table.relation_vectors[rel_order],
    )
    test_graph = graph.subset(np.arange(0, graph.n_triples, 3), recompact=False)
    for g in (test_graph, graph):
        with pytest.raises(DataError, match="interning"):
            hits_at_k(shuffled, g, 1)
        aligned = shuffled.aligned_to(g)
        for k in (1, 3, 10):
            assert hits_at_k(aligned, g, k) == hits_at_k(table, g, k)


def reference_hits_at_k(table, graph, k, batch_size=256):
    """hits_at_k with the optimistic tie rule: rank counts only the entities strictly closer.

    Scores come from the three-temporary expression that ``_tail_scores`` replaced.
    """
    rows = graph.triples
    ent = table.entity_vectors.astype(np.float64)
    ent_sq = (ent * ent).sum(axis=1)
    hits = 0
    for start in range(0, len(rows), batch_size):
        chunk = rows[start : start + batch_size]
        query = (
            table.entity_vectors[chunk[:, 0]].astype(np.float64)
            + table.relation_vectors[chunk[:, 1]].astype(np.float64)
        )
        scores = ent_sq[None, :] - 2.0 * (query @ ent.T)
        true_scores = scores[np.arange(len(chunk)), chunk[:, 2]]
        ranks = (scores < true_scores[:, None]).sum(axis=1) + 1
        hits += int((ranks <= k).sum())
    return hits / len(rows)


def realistic_hits(table, graph, k):
    """One triple at a time: the mean of the optimistic and the pessimistic rank, within k."""
    ent = table.entity_vectors.astype(np.float64)
    ent_sq = (ent * ent).sum(axis=1)
    hits = 0
    for h, r, t in graph.triples.tolist():
        query = table.entity_vectors[h].astype(np.float64) + table.relation_vectors[r]
        scores = ent_sq - 2.0 * (ent @ query)
        optimistic = 1 + int((scores < scores[t]).sum())
        pessimistic = int((scores <= scores[t]).sum())
        hits += (optimistic + pessimistic) / 2 <= k
    return hits / graph.n_triples


def random_fixture(n_entities, n_triples, dimension, seed, values=None):
    """A graph over ``n_entities`` and a table of uniform vectors, or of ``values`` with repeats."""
    rng = np.random.default_rng(seed)
    names = [f"e{i}" for i in range(n_entities)]
    rows = rng.integers(0, [n_entities, 3, n_entities], size=(n_triples, 3))
    graph = KnowledgeGraph.from_id_triples(names, ["r0", "r1", "r2"], rows)
    if values is None:
        vectors = rng.uniform(-1, 1, (n_entities + 3, dimension))
    else:
        vectors = rng.choice(values, (n_entities + 3, dimension))
    table = EmbeddingTable(names, graph.relation_names, vectors[:n_entities], vectors[n_entities:])
    return table, graph


@pytest.mark.parametrize("n_entities", [19, 20, 160])
@pytest.mark.parametrize("value", [0.0, 1.0])
def test_a_table_of_one_entity_vector_ranks_every_tail_in_the_middle(n_entities, value):
    """Every tail ties with every entity: rank (E + 1) / 2, so hits@10 is 0 from E = 20 on."""
    table, graph = random_fixture(n_entities, 300, 8, seed=n_entities)
    table.entity_vectors[:] = value
    assert hits_at_k(table, graph, 10) == (1.0 if n_entities < 20 else 0.0)
    assert hits_at_k(table, graph, n_entities) == 1.0


@pytest.mark.parametrize("seed", range(6))
def test_hits_without_ties_equal_the_optimistic_reference(seed):
    n_entities = [12, 40, 300][seed % 3]
    table, graph = random_fixture(n_entities, 700, 4 + seed, seed)
    ent = table.entity_vectors.astype(np.float64)
    for h, r, t in graph.triples[:50].tolist():  # the fixture is tie-free
        query = table.entity_vectors[h].astype(np.float64) + table.relation_vectors[r]
        assert len(np.unique(((ent - query) ** 2).sum(axis=1))) == n_entities
    for k in (1, 3, 10, n_entities):
        got = hits_at_k(table, graph, k, batch_size=97)
        assert got * graph.n_triples == reference_hits_at_k(table, graph, k) * graph.n_triples


@pytest.mark.parametrize("seed", range(6))
def test_hits_with_ties_take_the_realistic_rank(seed):
    # vectors of a few small integers: many entities tie at each distance
    table, graph = random_fixture(30 + 20 * seed, 400, 2, seed, values=[-1.0, 0.0, 1.0])
    for k in (1, 2, 5, 10, 25):
        assert hits_at_k(table, graph, k, batch_size=64) == realistic_hits(table, graph, k)
    assert hits_at_k(table, graph, 10) <= reference_hits_at_k(table, graph, 10)


@pytest.mark.parametrize("n_entities", [255, 256, 65_536])
def test_narrow_hit_counts_equal_the_reference_where_the_count_type_steps(n_entities):
    """The strictly-closer count is uint8 up to E = 255, uint16 from 256, uint32 from 65,536."""
    # few triples and 16-row reference chunks: the reference's full-size temporaries stay small
    table, graph = random_fixture(n_entities, 40, 8, seed=n_entities)
    n = graph.n_triples
    for k in (1, 10, n_entities // 2, n_entities - 1, n_entities):
        got = hits_at_k(table, graph, k)
        assert got * n == reference_hits_at_k(table, graph, k, batch_size=16) * n


@pytest.mark.parametrize("rows", [2, 3, 7, 64, 256])
def test_hits_equal_the_reference_at_every_chunk_size(rows, monkeypatch):
    table, graph = random_fixture(300, 700, 6, seed=rows)
    # the budget below one row per entity still leaves 2-row chunks
    budget = 1 if rows == 2 else rows * 8 * 300
    monkeypatch.setattr(embedding, "HITS_BUFFER_BYTES", budget)
    chunks = []

    def recorded(query, *args, **kwargs):
        chunks.append(len(query))
        return _tail_scores(query, *args, **kwargs)

    monkeypatch.setattr(embedding, "_tail_scores", recorded)
    n = graph.n_triples
    for k in (1, 10, 150, 300):
        assert hits_at_k(table, graph, k) * n == reference_hits_at_k(table, graph, k) * n
    assert chunks[: n // rows] == [rows] * (n // rows)
    assert sum(chunks) == 4 * n


def test_hits_scores_within_the_buffer_budget():
    """65,536 entities: 32 rows of scores fit in the 16 MiB budget, not the 256 asked for."""
    table, graph = random_fixture(65_536, 100, 8, seed=1)
    tracemalloc.start()
    try:
        hits_at_k(table, graph, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond the buffer: the float64 entity table, its squared norms and
    # a chunk's comparison mask, each once
    entity_bytes = table.n_entities * (8 * table.dimension + 8 + 32)
    assert embedding.HITS_BUFFER_BYTES < peak <= embedding.HITS_BUFFER_BYTES + 2 * entity_bytes


# -- persistence -------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    graph = planted_block_graph(n_heads=20, n_tails=4, n_triples=40)
    cfg = TrainConfig(dimension=6, epochs=3, seed=7)
    table = train(graph, cfg)
    path = tmp_path / "emb.kgt"
    table.save(path)
    loaded = EmbeddingTable.load(path)
    assert np.array_equal(loaded.entity_vectors, table.entity_vectors)
    assert np.array_equal(loaded.relation_vectors, table.relation_vectors)
    assert loaded.entity_names == table.entity_names
    assert loaded.relation_names == table.relation_names
    assert loaded.config == cfg
    assert loaded.epoch_losses == table.epoch_losses


@pytest.mark.parametrize("kind", ["trained", "int-valued-float", "no-config-no-losses"])
def test_save_load_save_keeps_every_byte(kind, tmp_path):
    """A loaded table saves to the bytes it was read from, so a ``--table`` run echoes its input."""
    graph = planted_block_graph(n_heads=20, n_tails=4, n_triples=40)
    table = train(graph, TrainConfig(dimension=6, epochs=3, seed=7))
    if kind == "int-valued-float":
        table.config = TrainConfig(dimension=6, epochs=3, learning_rate=1, seed=7)
    elif kind == "no-config-no-losses":
        table = EmbeddingTable(
            table.entity_names, table.relation_names, table.entity_vectors, table.relation_vectors
        )
    first, second = tmp_path / "first.kgt", tmp_path / "second.kgt"
    table.save(first)
    EmbeddingTable.load(first).save(second)
    raw = first.read_bytes()
    assert second.read_bytes() == raw
    expected = {
        "trained": b'"learning_rate": 0.05',
        "int-valued-float": b'"learning_rate": 1,',
        "no-config-no-losses": b'"config": null, "dimension": 6, "entity_count": 24, "entity_names"',
    }[kind]
    assert expected in raw
    assert (b'"epoch_losses": null' in raw) == (kind == "no-config-no-losses")


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "x.kgt"
    path.write_bytes(b"not a table")
    with pytest.raises(DataError):
        EmbeddingTable.load(path)


def test_load_rejects_truncated_matrix(tmp_path):
    graph = planted_block_graph(n_heads=10, n_tails=3, n_triples=20)
    table = train(graph, TrainConfig(dimension=4, epochs=1, seed=0))
    path = tmp_path / "emb.kgt"
    table.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])  # chop the tail off the float matrix
    with pytest.raises(DataError):
        EmbeddingTable.load(path)


def test_hits_monotone_in_k():
    graph = planted_block_graph(n_heads=40, n_tails=8, n_triples=120)
    table = train(graph, TrainConfig(dimension=8, epochs=5, seed=2))
    values = [hits_at_k(table, graph, k) for k in (1, 3, 10, graph.n_entities)]
    assert values == sorted(values)
    assert values[-1] == 1.0


# -- row normalisation ---------------------------------------------------------------
# The three formulas unit_rows replaced, kept as references.


def _old_normalize_rows(mat):  # embedding, float32, in place
    norms = np.sqrt((mat * mat).sum(axis=1, keepdims=True))
    np.maximum(norms, np.float32(1e-12), out=norms)
    mat /= norms


def _old_cluster_normalize(vectors):
    norms = np.linalg.norm(vectors, axis=1)
    ok = norms > 0.0
    unit = np.zeros_like(vectors)
    unit[ok] = vectors[ok] / norms[ok, None]
    return unit, ok


def _old_cosine_unit(vectors):  # the unit step of relsim._cosine_matrix
    norms = np.linalg.norm(vectors, axis=1)
    zero = norms == 0.0
    return vectors / np.where(zero, 1.0, norms)[:, None], ~zero


@pytest.mark.parametrize("shape", [(7500, 32), (40, 32), (3, 1)])
def test_unit_rows_matches_the_replaced_formulas_bitwise(shape):
    rng = np.random.default_rng(shape[0])
    x32 = rng.uniform(-0.7, 0.7, size=shape).astype(np.float32)
    expected = x32.copy()
    _old_normalize_rows(expected)
    unit, ok = unit_rows(x32)
    assert unit.dtype == np.float32 and ok.all()
    assert unit.tobytes() == expected.tobytes()

    x64 = rng.normal(size=shape) * 3.0
    x64[shape[0] // 2] = 0.0
    for old in (_old_cluster_normalize, _old_cosine_unit):
        old_unit, old_ok = old(x64)
        unit, ok = unit_rows(x64)
        assert unit.tobytes() == old_unit.tobytes(), old.__name__
        assert np.array_equal(ok, old_ok)
        assert not ok[shape[0] // 2] and not unit[shape[0] // 2].any()


def reference_scatter_add(target, rows, grads):
    """_scatter_add before the short-segment pass: an int64 stable sort, then reduceat."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    grads = grads[order]
    boundaries = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    target[rows[boundaries]] += np.add.reduceat(grads, boundaries, axis=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_target", [7, 300, 70_000])  # uint8, uint16 and uint32 keys
def test_scatter_add_matches_the_int64_sort_bitwise(dtype, n_target):
    rng = np.random.default_rng(n_target)
    rows = rng.integers(0, n_target, 2_000)
    rows[rng.permutation(2_000)[:400]] = n_target - 1  # one segment longer than 128 rows
    grads = rng.standard_normal((2_000, 5)).astype(dtype)
    start = rng.standard_normal((n_target, 5)).astype(dtype)
    expected, got = start.copy(), start.copy()
    reference_scatter_add(expected, rows, grads)
    _scatter_add(got, rows, grads)
    assert got.tobytes() == expected.tobytes()


def _scatter_case(lengths, width, dtype, seed):
    """Rows repeating target row i ``lengths[i]`` times, shuffled, with grads and a target.

    Magnitudes span 1e-6 to 1e6, and about a tenth of the grads and a fifth of
    the target entries are +0.0 or -0.0. Every fifth segment is -0.0 throughout.
    """
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths)
    ids = rng.permutation(len(lengths) + 3)[: len(lengths)]  # 3 rows get no update
    rows = np.repeat(ids, lengths)[rng.permutation(lengths.sum())]
    magnitude = 10.0 ** rng.uniform(-6, 6, (len(rows), 1))
    grads = (rng.standard_normal((len(rows), width)) * magnitude).astype(dtype)
    zero = rng.random(grads.shape)
    grads[zero < 0.05] = 0.0
    grads[zero > 0.95] = -0.0
    grads[np.isin(rows, ids[::5])] = -0.0
    target = (rng.standard_normal((len(lengths) + 3, width)) * 1e3).astype(dtype)
    zero = rng.random(target.shape)
    target[zero < 0.1] = 0.0
    target[zero > 0.9] = -0.0
    return target, rows, grads


SCATTER_LAYOUTS = {
    # at most 8 rows each: the sequential pass alone
    "short": [*range(1, 9)] * 40 + [8, 8, 1],
    # more than 8 rows each: reduceat alone, as Lloyd's sums and the relation scatter
    "long": [*range(9, 301)],
    # both, every length from 1 to 300
    "mixed": [*range(1, 301)],
    # every row once, as in a batch whose entities are all distinct
    "distinct": [1] * 50,
}


@pytest.mark.parametrize("picked", [False, True], ids=["all-rows", "picked-rows"])
@pytest.mark.parametrize("layout", list(SCATTER_LAYOUTS))
@pytest.mark.parametrize("width", [1, 5, 32, 64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_add_matches_sort_and_reduceat_at_every_segment_length(
    layout, width, dtype, picked
):
    # This also guards against a numpy whose reduceat sums in another order:
    # the sequential pass for short segments would then move every checksum.
    target, rows, grads = _scatter_case(SCATTER_LAYOUTS[layout], width, dtype, seed=width)
    expected, got = target.copy(), target.copy()
    reference_scatter_add(expected, rows, grads)
    if picked:
        # the grads scattered out of order from a buffer twice their size, as
        # the trainer's relation scatter reads its gradient buffer
        rng = np.random.default_rng(width)
        buffer = np.full((2 * len(grads), width), np.nan, dtype=dtype)
        pick = rng.permutation(len(buffer))[: len(grads)]
        buffer[pick] = grads
        _scatter_add(got, rows, buffer, pick)
    else:
        _scatter_add(got, rows, grads)
    assert got.tobytes() == expected.tobytes()


def test_tail_scores_equal_the_three_temporary_expression_bitwise():
    """hits_at_k's per-chunk scores, in its reused buffer, equal the old expression's bits."""
    rng = np.random.default_rng(3)
    vectors = rng.uniform(-1, 1, (7_500, 32)).astype(np.float32)
    ent = vectors.astype(np.float64)
    ent_sq = (ent * ent).sum(axis=1)
    n_queries, batch = 600, 256  # the last chunk holds 88 rows
    queries = (vectors[rng.integers(0, 7_500, n_queries)] + vectors[:1]).astype(np.float64)
    buffer = np.empty((batch, len(ent)))
    for start in range(0, n_queries, batch):
        query = queries[start : start + batch]
        got = _tail_scores(query, ent, ent_sq, out=buffer[: len(query)])
        assert np.shares_memory(got, buffer)
        assert got.tobytes() == (ent_sq[None, :] - 2.0 * (query @ ent.T)).tobytes()


TAIL_SCORE_BITS = """
import numpy as np
from kgstruct.embedding import _tail_scores

rng = np.random.default_rng(4)
vectors = rng.uniform(-1, 1, (6_000, 32)).astype(np.float32)
ent = vectors.astype(np.float64)
ent_sq = (ent * ent).sum(axis=1)
buffer = np.empty((256, len(ent)))
for rows in (256, 88):  # a full chunk of desk's hits@10 and a last, shorter one
    query = (vectors[rng.integers(0, 6_000, rows)] + vectors[:1]).astype(np.float64)
    got = _tail_scores(query, ent, ent_sq, out=buffer[:rows])
    print(rows, got.tobytes() == (ent_sq[None, :] - 2.0 * (query @ ent.T)).tobytes())
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_tail_scores_equal_the_three_temporary_expression_at_each_thread_count(threads):
    assert run_python(["-c", TAIL_SCORE_BITS], threads).splitlines() == ["256 True", "88 True"]


# -- the alignment contract ------------------------------------------------------------


def _by_name(table, graph):
    """Float64 entity and relation vectors of ``graph``'s symbols, looked up by name."""
    ent = {name: i for i, name in enumerate(table.entity_names)}
    rel = {name: i for i, name in enumerate(table.relation_names)}
    return (
        table.entity_vectors[[ent[n] for n in graph.entity_names]].astype(np.float64),
        table.relation_vectors[[rel[n] for n in graph.relation_names]].astype(np.float64),
    )


def _reference_hits(table, graph):
    ent, rel = _by_name(table, graph)
    hits = 0
    for h, r, t in graph.triples:
        dist = ((ent - (ent[h] + rel[r])) ** 2).sum(axis=1)
        hits += int((dist < dist[t]).sum() < 10)
    return (hits / graph.n_triples,)


def _reference_points(table, graph):
    ent, _ = _by_name(table, graph)
    rows = graph.triples[graph.triples[:, 1] == graph.relation_names.index("Desires")]
    return (ent[rows[:, 2]] - ent[rows[:, 0]],)


def _reference_lists(table, graph):
    _, rel = _by_name(table, graph)
    return _reference_points(table, graph)[0].mean(axis=0), rel[graph.relation_names.index("Desires")]


def _reference_dataset(table, graph):
    ent, _ = _by_name(table, graph)
    universe = build_pair_universe(graph, "Desires", "NotDesires")
    pairs = np.vstack([universe.positive_pairs, universe.negative_pairs])
    return (ent[pairs[:, 1]] - ent[pairs[:, 0]],)


def _lists(table, graph):
    profile = similarity_lists(table, graph, "Desires")
    return profile.centroid, profile.direct


def _profiles(table, graph):
    profile = relation_profiles(table, graph)[graph.relation_names.index("Desires")]
    return profile.centroid, profile.direct


def _dataset(table, graph):
    return assemble_dataset(table, build_pair_universe(graph, "Desires", "NotDesires"))[:1]


# entry point -> (analysis, the same values computed by name)
ENTRY_POINTS = {
    "hits_at_k": (lambda table, graph: (hits_at_k(table, graph, 10),), _reference_hits),
    "similarity_lists": (_lists, _reference_lists),
    "relation_profiles": (_profiles, _reference_lists),
    "relation_point_set": (
        lambda table, graph: (relation_point_set(table, graph, "Desires"),),
        _reference_points,
    ),
    "assemble_dataset": (_dataset, _reference_dataset),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_analysis_checks_the_tables_interning(entry):
    graph = synthetic_graph(demo_plan())
    table = train(graph, TrainConfig(dimension=8, epochs=4, seed=1))
    keep = np.sort(np.random.default_rng(0).choice(graph.n_triples, 200, replace=False))
    subset = graph.subset(keep[::-1])  # recompacted: both name tables are renumbered
    assert subset.entity_names != graph.entity_names
    assert subset.relation_names != graph.relation_names
    analysis, reference = ENTRY_POINTS[entry]
    with pytest.raises(DataError, match="interning"):
        analysis(table, subset)
    got = analysis(table.aligned_to(subset), subset)
    expected = reference(table, subset)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_table
from kgstruct.embedding import (
    EmbeddingTable,
    TrainConfig,
    _scatter_add,
    hits_at_k,
    train,
    translation_matrix,
    unit_rows,
)
from kgstruct.errors import ConfigError, DataError, TrainingDivergedError
from kgstruct.graph import KnowledgeGraph, SplitSpec, split_indices
from kgstruct.validation import similarity_lists


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
    graph = KnowledgeGraph.from_labeled_triples([("a", "r", "b")])
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
    test_graph = graph.subset(test_idx)
    hits_trained = hits_at_k(trained, test_graph, 10)
    hits_untrained = hits_at_k(untrained, test_graph, 10)
    assert hits_trained >= 5 * max(hits_untrained, 1e-9)


def test_train_rejects_empty_graph():
    with pytest.raises(DataError):
        train(KnowledgeGraph.from_labeled_triples([]), TrainConfig(dimension=2))


def test_train_rejects_bad_config():
    graph = KnowledgeGraph.from_labeled_triples([("a", "r", "b")])
    with pytest.raises(ConfigError):
        train(graph, TrainConfig(dimension=0))
    with pytest.raises(ConfigError):
        train(graph, TrainConfig(margin=0.0))
    with pytest.raises(ConfigError):
        train(graph, TrainConfig(negatives=0))


@pytest.mark.parametrize("margin", [0.0, -1.0, float("nan"), float("inf")])
def test_train_config_names_a_bad_margin(margin):
    with pytest.raises(ConfigError, match=r"^train\.margin: must be finite and > 0"):
        TrainConfig(margin=margin).validate("train")


def test_train_divergence_detected():
    graph = planted_block_graph(n_heads=30, n_tails=5, n_triples=80)
    cfg = TrainConfig(dimension=4, epochs=3, seed=0, learning_rate=1e30, batch_size=8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError):
        train(graph, cfg)


# -- translation and centroid -----------------------------------------------------


def _translation(table, h, t):
    return translation_matrix(table, np.asarray([[h, 0, t]]))[0]


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
    graph = KnowledgeGraph.from_labeled_triples([("a", "r", "b")])
    table = make_table({"a": [0.0]}, {"r": [0.0]})
    with pytest.raises(DataError, match="'b'"):
        table.aligned_to(graph)


def test_centroid_single_triple_equals_translation(tiny_graph=None):
    graph = KnowledgeGraph.from_labeled_triples([("a", "r", "b")])
    table = make_table({"a": [1.0, 2.0], "b": [4.0, 6.0]}, {"r": [1.0, 0.0]})
    centroid = similarity_lists(table, graph, "r").centroid
    assert centroid.tolist() == [3.0, 4.0]


def test_centroid_symmetric_cancellation():
    graph = KnowledgeGraph.from_labeled_triples([("a", "r", "b"), ("c", "r", "d")])
    table = make_table(
        {"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 0.0], "d": [-1.0, 0.0]},
        {"r": [1.0, 0.0]},
    )
    assert translation_matrix(table, graph.triples).mean(axis=0).tolist() == [0.0, 0.0]
    with pytest.raises(DataError, match="centroid vector has zero norm"):
        similarity_lists(table, graph, "r")


def test_centroid_matches_bruteforce_mean():
    rng = np.random.default_rng(3)
    rows = [(f"h{i}", "r", f"t{i}") for i in range(5)]
    graph = KnowledgeGraph.from_labeled_triples(rows)
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
    graph = KnowledgeGraph.from_labeled_triples([("a", "r", "b")])
    table = make_table({"a": [0.0], "b": [1.0]}, {"r": [1.0]})
    with pytest.raises(DataError):
        similarity_lists(table, graph, "missing")


# -- hits@k ----------------------------------------------------------------------


def test_hits_at_k_everything_in_topk():
    graph = KnowledgeGraph.from_labeled_triples([("a", "r", "b"), ("b", "r", "a")])
    table = train(graph, TrainConfig(dimension=2, epochs=0, seed=0))
    assert hits_at_k(table, graph, k=graph.n_entities) == 1.0


def test_hits_at_one_on_exact_translation_fixture():
    positions = {f"e{i}": [float(i), 0.0] for i in range(10)}
    table = make_table(positions, {"r": [5.0, 0.0]})
    rows = [(f"e{i}", "r", f"e{i + 5}") for i in range(5)]
    graph = KnowledgeGraph.from_labeled_triples(rows)
    assert hits_at_k(table, graph, 1) == 1.0


def test_hits_at_one_random_baseline():
    rng = np.random.default_rng(0)
    n = 100
    rows = [(f"e{i}", "r", f"e{int(rng.integers(n))}") for i in range(n) ]
    rows = [(h, r, t) for h, r, t in rows if h != t]
    graph = KnowledgeGraph.from_labeled_triples(rows)
    table = train(graph, TrainConfig(dimension=16, epochs=0, seed=1))
    hits = hits_at_k(table, graph, 1)
    assert 0.0 <= hits <= 0.05  # ~1/100 up to sampling noise


def test_hits_rejects_bad_k_and_empty():
    graph = KnowledgeGraph.from_labeled_triples([("a", "r", "b")])
    table = train(graph, TrainConfig(dimension=2, epochs=0, seed=0))
    with pytest.raises(ConfigError):
        hits_at_k(table, graph, 0)
    with pytest.raises(DataError):
        hits_at_k(table, KnowledgeGraph.from_labeled_triples([]), 1)


def test_hits_names_a_symbol_missing_from_the_table():
    positions = {f"e{i}": [float(i), 0.0] for i in range(10)}
    table = make_table(positions, {"r": [5.0, 0.0]})
    rows = [("e0", "r", "e5"), ("unseen", "r", "e5")]
    graph = KnowledgeGraph.from_labeled_triples(rows)
    with pytest.raises(DataError, match="'unseen'"):
        hits_at_k(table, graph, 1)


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
    test_graph = graph.subset(np.arange(0, graph.n_triples, 3))  # recompacted
    for k in (1, 3, 10):
        assert hits_at_k(shuffled, test_graph, k) == hits_at_k(table, test_graph, k)
        assert hits_at_k(shuffled, graph, k) == hits_at_k(table, graph, k)


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
    """_scatter_add with the old int64 sort key."""
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

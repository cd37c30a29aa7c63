import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_labeled_triples
from kgstruct import relsim
from kgstruct.embedding import unit_rows
from kgstruct.errors import DataError
from kgstruct.relsim import (
    DefinitionCorpus,
    SimilarityMatrix,
    embedding_similarity_matrix,
    jaccard_overlap_matrix,
    mutual_nearest_pairs,
    nearest_relations,
    tfidf_reference_check,
    tfidf_similarity_matrix,
    tokenize,
)
from kgstruct.validation import RelationProfile


def profile(name, centroid, direct):
    return RelationProfile(
        relation=name,
        centroid=np.asarray(centroid, dtype=np.float64),
        direct=np.asarray(direct, dtype=np.float64),
        direct_sims=np.asarray([1.0]),
        centroid_sims=np.asarray([1.0]),
        triple_count=1,
        skipped=0,
    )


# -- tokenization / tfidf -------------------------------------------------------


def test_tokenize_lowercases_and_keeps_placeholders():
    assert tokenize("A is a word-like THING, b2!") == [
        "a", "is", "a", "word", "like", "thing", "b2",
    ]


def test_tfidf_identical_definitions():
    corpus = DefinitionCorpus(
        {"R1": "the same text", "R2": "the same text", "R3": "something else here"}
    )
    matrix = tfidf_similarity_matrix(corpus)
    assert matrix.score("R1", "R2") == pytest.approx(1.0, abs=1e-12)


def test_tfidf_disjoint_definitions_orthogonal():
    corpus = DefinitionCorpus({"R1": "alpha beta", "R2": "gamma delta"})
    matrix = tfidf_similarity_matrix(corpus)
    assert matrix.score("R1", "R2") == 0.0


def test_tfidf_weighs_a_token_every_definition_uses():
    """Smoothed idf: "x" is in both definitions and keeps weight 1, so the pair is not 0."""
    matrix = tfidf_similarity_matrix(DefinitionCorpus({"A": "x y", "B": "x z"}))
    rare = math.log(1.5) + 1  # ln((1 + 2) / (1 + 1)) + 1
    assert matrix.score("A", "B") == pytest.approx(1 / (1 + rare**2), abs=1e-15)
    assert matrix.score("A", "B") == pytest.approx(0.336097, abs=1e-6)


def test_tfidf_reference_pair_falls_inside_the_band():
    note = tfidf_reference_check(tfidf_similarity_matrix(DefinitionCorpus.bundled()))
    assert note["within_band"] and "discrepancy" not in note
    assert note["score"] == pytest.approx(0.1500, abs=1e-4)


def test_tfidf_bundled_corpus_mutual_nearest_subevents():
    matrix = tfidf_similarity_matrix(DefinitionCorpus.bundled())
    assert len(matrix.relations) == 33
    table = nearest_relations(matrix)
    closest = {name: other for name, other, _ in table.rows}
    assert closest["HasFirstSubevent"] == "HasLastSubevent"
    assert closest["HasLastSubevent"] == "HasFirstSubevent"
    assert ("HasFirstSubevent", "HasLastSubevent") in {
        (a, b) for a, b, _ in mutual_nearest_pairs(table)
    }


def test_tfidf_reference_pair_note():
    matrix = tfidf_similarity_matrix(DefinitionCorpus.bundled())
    note = tfidf_reference_check(matrix)
    assert note["variant"]
    assert 0.0 <= note["score"] <= 1.0
    if not note["within_band"]:
        assert "discrepancy" in note


def test_tfidf_requires_two_definitions():
    with pytest.raises(DataError):
        tfidf_similarity_matrix(DefinitionCorpus({"only": "one definition"}))


def test_empty_definition_rejected():
    with pytest.raises(DataError):
        DefinitionCorpus({"R": "   "})


def test_corpus_from_json(tmp_path):
    path = tmp_path / "defs.json"
    path.write_text('{"A": "first words", "B": "second words"}', encoding="utf-8")
    corpus = DefinitionCorpus.from_json(path)
    assert corpus.relations == ["A", "B"]


# -- jaccard ----------------------------------------------------------------------


def jaccard_fixture():
    rows = [
        ("a", "r1", "x"), ("b", "r1", "x"), ("c", "r1", "y"),
        ("b", "r2", "y"), ("c", "r2", "z"), ("d", "r2", "z"),
    ]
    return from_labeled_triples(rows)


def test_jaccard_hand_counts():
    graph = jaccard_fixture()
    matrix = jaccard_overlap_matrix(graph, "head")
    # head sets {a,b,c} and {b,c,d}: intersection 2, union 4
    assert matrix.score("r1", "r2") == pytest.approx(0.5)
    assert matrix.score("r1", "r1") == 1.0


def test_jaccard_identical_and_disjoint_sets():
    rows = [("a", "r1", "x"), ("b", "r1", "x"), ("a", "r2", "y"), ("b", "r2", "y"),
            ("c", "r3", "z")]
    graph = from_labeled_triples(rows)
    matrix = jaccard_overlap_matrix(graph, "head")
    assert matrix.score("r1", "r2") == 1.0
    assert matrix.score("r1", "r3") == 0.0


def test_jaccard_tail_side():
    graph = jaccard_fixture()
    matrix = jaccard_overlap_matrix(graph, "tail")
    # tail sets {x,y} and {y,z}: intersection 1, union 3
    assert matrix.score("r1", "r2") == pytest.approx(1 / 3)


def test_jaccard_side_validation():
    with pytest.raises(DataError):
        jaccard_overlap_matrix(jaccard_fixture(), "middle")


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 2), st.integers(0, 8)),
        min_size=2,
        max_size=40,
    ),
    perm_seed=st.integers(0, 100),
)
@settings(max_examples=40, deadline=None)
def test_jaccard_invariant_under_entity_relabeling(rows, perm_seed):
    graph = from_labeled_triples(
        [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rows]
    )
    rng = np.random.default_rng(perm_seed)
    renames = {
        name: f"x{j}" for name, j in
        zip(graph.entity_names, rng.permutation(graph.n_entities))
    }
    relabeled = from_labeled_triples(
        [
            (renames[graph.entity_names[h]], graph.relation_names[r],
             renames[graph.entity_names[t]])
            for h, r, t in graph.triples
        ]
    )
    a = jaccard_overlap_matrix(graph, "head")
    b = jaccard_overlap_matrix(relabeled, "head")
    assert a.relations == b.relations
    assert np.allclose(a.values, b.values, atol=0)


def reference_jaccard(graph, col):
    """jaccard_overlap_matrix's old frozenset formula."""
    sets = [
        frozenset(graph.triples[graph.triples[:, 1] == rid, col].tolist())
        for rid in range(graph.n_relations)
    ]
    n = len(sets)
    sims = np.eye(n, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            union = len(sets[i] | sets[j])
            sims[i, j] = sims[j, i] = len(sets[i] & sets[j]) / union if union else 0.0
    return sims


@pytest.mark.parametrize("side, col", [("head", 0), ("tail", 2)])
def test_jaccard_equals_the_frozenset_formula_bitwise(edge_case_graphs, side, col):
    for graph in edge_case_graphs:
        matrix = jaccard_overlap_matrix(graph, side)
        assert matrix.relations == graph.relation_names
        assert matrix.values.tobytes() == reference_jaccard(graph, col).tobytes()


def test_jaccard_locality_of_added_triple():
    graph = jaccard_fixture()
    before = jaccard_overlap_matrix(graph, "head").score("r1", "r2")
    extended = from_labeled_triples(
        [
            (graph.entity_names[h], graph.relation_names[r], graph.entity_names[t])
            for h, r, t in graph.triples
        ]
        + [("zznew", "r3", "zzother")]
    )
    after = jaccard_overlap_matrix(extended, "head").score("r1", "r2")
    assert before == after


# -- embedding cosine ---------------------------------------------------------------


def test_embedding_matrix_diagonal_and_orthogonal():
    profiles = [
        profile("r1", [1.0, 0.0], [1.0, 1.0]),
        profile("r2", [0.0, 1.0], [1.0, -1.0]),
    ]
    matrix = embedding_similarity_matrix(profiles, "centroid")
    assert matrix.score("r1", "r1") == pytest.approx(1.0, abs=1e-9)
    assert matrix.score("r1", "r2") == pytest.approx(0.0, abs=1e-12)


def test_cosine_blocks_keep_the_bits_and_the_buffer_budget(monkeypatch):
    """64 rows in blocks of 20: the one-shot product's bits, within the budget plus the output."""
    n, d = 64, 40
    unit, _ = unit_rows(np.random.default_rng(5).standard_normal((n, d)))
    one_shot = np.clip((unit[:, None, :] * unit[None, :, :]).sum(axis=2), -1.0, 1.0)
    budget = 20 * 8 * n * d
    assert one_shot.size * d * 8 > 3 * budget  # the one-shot product fills more than 3 blocks
    monkeypatch.setattr(relsim, "BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        blocked = relsim._cosine_matrix(unit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocked.tobytes() == one_shot.tobytes()
    # beyond the budget and the output: at most two of numpy's 8192-element iterator buffers
    assert budget < peak <= budget + blocked.nbytes + 2 * 8192 * 8


def test_embedding_matrix_hand_cosines():
    profiles = [
        profile("r1", [1.0, 0.0], [0.0, 0.0]),
        profile("r2", [1.0, 1.0], [0.0, 0.0]),
        profile("r3", [-1.0, 0.0], [0.0, 0.0]),
    ]
    matrix = embedding_similarity_matrix(profiles, "centroid")
    assert matrix.score("r1", "r2") == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert matrix.score("r1", "r3") == pytest.approx(-1.0, abs=1e-12)
    assert matrix.score("r2", "r3") == pytest.approx(-1 / np.sqrt(2), abs=1e-12)


def test_embedding_matrix_excludes_zero_vectors(caplog):
    profiles = [
        profile("r1", [1.0, 0.0], [1.0, 0.0]),
        profile("zero", [0.0, 0.0], [1.0, 0.0]),
        profile("r2", [0.5, 0.5], [1.0, 0.0]),
    ]
    with caplog.at_level("WARNING"):
        matrix = embedding_similarity_matrix(profiles, "centroid")
    assert matrix.relations == ["r1", "r2"]
    assert "zero" in caplog.text


def test_embedding_matrix_dimension_mismatch():
    profiles = [profile("r1", [1.0, 0.0], [1.0]), profile("r2", [1.0, 0.0, 0.0], [1.0])]
    with pytest.raises(DataError):
        embedding_similarity_matrix(profiles, "centroid")


def test_matrix_symmetry_and_diagonal_invariants():
    graph = jaccard_fixture()
    for matrix in (
        jaccard_overlap_matrix(graph, "head"),
        tfidf_similarity_matrix(DefinitionCorpus.bundled()),
    ):
        assert np.array_equal(matrix.values, matrix.values.T)
        assert np.all(np.diag(matrix.values) == 1.0)
        assert matrix.values.min() >= 0.0 and matrix.values.max() <= 1.0
    # symmetric by construction, with no symmetrising pass
    vectors = np.random.default_rng(5).normal(size=(9, 37))
    cosine = embedding_similarity_matrix(
        [profile(f"r{i}", v, v) for i, v in enumerate(vectors)], "direct"
    )
    assert np.array_equal(cosine.values, cosine.values.T)


# -- nearest relations ----------------------------------------------------------------


def test_nearest_two_relations():
    matrix = SimilarityMatrix(["a", "b"], np.asarray([[1.0, 0.3], [0.3, 1.0]]), "tfidf")
    table = nearest_relations(matrix)
    assert table.rows == [("a", "b", pytest.approx(0.3)), ("b", "a", pytest.approx(0.3))]


def test_nearest_three_by_three_argmax():
    values = np.asarray(
        [[1.0, 0.2, 0.8], [0.2, 1.0, 0.5], [0.8, 0.5, 1.0]]
    )
    table = nearest_relations(SimilarityMatrix(["a", "b", "c"], values, "tfidf"))
    assert [(name, other) for name, other, _ in table.rows] == [("a", "c"), ("b", "c"), ("c", "a")]
    assert mutual_nearest_pairs(table) == [("a", "c", pytest.approx(0.8))]


def test_nearest_tie_takes_lowest_index():
    values = np.asarray(
        [[1.0, 0.4, 0.4], [0.4, 1.0, 0.1], [0.4, 0.1, 1.0]]
    )
    table = nearest_relations(SimilarityMatrix(["a", "b", "c"], values, "tfidf"))
    assert table.rows[0][:2] == ("a", "b")


def test_nearest_single_relation_rejected():
    with pytest.raises(DataError):
        nearest_relations(SimilarityMatrix(["a"], np.asarray([[1.0]]), "tfidf"))

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgstruct.errors import ConfigError, ParseError
from kgstruct.graph import (
    GraphStats,
    KnowledgeGraph,
    RelationStats,
    SplitSpec,
    compute_stats,
    filter_relations,
    parse_edge_file,
    sample_triples,
    split_indices,
    write_generic_3col,
)
from kgstruct.report import stage_stats


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- parsing -----------------------------------------------------------------


def test_parse_conceptnet_dump_line(tmp_path):
    path = tmp_path / "dump.tsv"
    write_lines(
        path,
        [
            "/a/[/r/RelatedTo/,/c/en/person/,/c/fr/francais/]\t/r/RelatedTo"
            '\t/c/en/person\t/c/fr/francais\t{"weight": 1.0}',
            "/a/x\t/r/dbpedia/knownFor\t/c/en/actor/n\t/c/en/film\t{}",
        ],
    )
    graph = parse_edge_file(path, "conceptnet-dump")
    assert graph.entity_names == ["person", "francais", "actor", "film"]
    assert graph.relation_names == ["RelatedTo", "dbpedia/knownFor"]
    triple = graph.triple(0)
    assert graph.entity_names[triple.head] == "person"
    assert graph.relation_names[triple.relation] == "RelatedTo"
    assert graph.entity_names[triple.tail] == "francais"


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    graph = parse_edge_file(path)
    assert (graph.n_entities, graph.n_relations, graph.n_triples) == (0, 0, 0)


def test_parse_duplicates_collapse_with_count(tmp_path):
    path = tmp_path / "five.tsv"
    write_lines(
        path,
        [
            "a\tr\tb",
            "b\tr\tc",
            "a\tr\tb",  # duplicate of line 1
            "c\ts\ta",
            "a\ts\tc",
        ],
    )
    graph = parse_edge_file(path)
    assert graph.n_triples == 4
    assert graph.duplicates_removed == 1
    assert graph.multiplicities.tolist() == [2, 1, 1, 1]


def test_parse_preserves_input_order(tmp_path):
    path = tmp_path / "order.tsv"
    write_lines(path, ["z\tr\ty", "a\tr\tb", "z\ts\ta"])
    graph = parse_edge_file(path)
    assert graph.entity_names == ["z", "y", "a", "b"]
    names = [
        (graph.entity_names[h], graph.relation_names[r], graph.entity_names[t])
        for h, r, t in graph.triples
    ]
    assert names == [("z", "r", "y"), ("a", "r", "b"), ("z", "s", "a")]


def test_parse_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.tsv"
    write_lines(path, ["# header", "", "a\tr\tb"])
    assert parse_edge_file(path).n_triples == 1


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    write_lines(path, ["a\tr\tb", "only\ttwo"])
    with pytest.raises(ParseError) as err:
        parse_edge_file(path)
    assert err.value.line_number == 2


def test_parse_conceptnet_too_few_columns(tmp_path):
    path = tmp_path / "bad.tsv"
    write_lines(path, ["/a/x\t/r/IsA\t/c/en/cat"])
    with pytest.raises(ParseError):
        parse_edge_file(path, "conceptnet-dump")


def test_parse_unknown_format(tmp_path):
    path = tmp_path / "x.tsv"
    write_lines(path, ["a\tr\tb"])
    with pytest.raises(ConfigError):
        parse_edge_file(path, "csv")


def test_parse_missing_file(tmp_path):
    from kgstruct.errors import DataError

    with pytest.raises(DataError):
        parse_edge_file(tmp_path / "nope.tsv")


def test_roundtrip_multiset(tmp_path):
    path = tmp_path / "in.tsv"
    write_lines(path, ["a\tr\tb", "a\tr\tb", "b\tr\tc", "a\ts\tb"])
    graph = parse_edge_file(path)
    out = tmp_path / "out.tsv"
    write_generic_3col(graph, out, expand_multiplicity=True)
    again = parse_edge_file(out)
    assert again.multiplicities.tolist() == graph.multiplicities.tolist()
    assert again.entity_names == graph.entity_names
    assert np.array_equal(again.triples, graph.triples)


# -- filtering ----------------------------------------------------------------


def test_filter_removes_excluded_relation(tmp_path):
    rows = [("a", "ExternalURL", "u1"), ("b", "ExternalURL", "u2"),
            ("c", "ExternalURL", "u3"), ("a", "IsA", "b")]
    graph = KnowledgeGraph.from_labeled_triples(rows)
    filtered = filter_relations(graph, {"ExternalURL"})
    assert filtered.n_triples == 1
    assert filtered.relation_names == ["IsA"]
    assert "ExternalURL" not in filtered.relation_names


def test_filter_empty_exclusion_is_identity(tiny_graph):
    same = filter_relations(tiny_graph, set())
    assert same.entity_names == tiny_graph.entity_names
    assert same.relation_names == tiny_graph.relation_names
    assert np.array_equal(same.triples, tiny_graph.triples)


def test_filter_absent_relation_is_noop(tiny_graph):
    same = filter_relations(tiny_graph, {"NoSuchRelation"})
    assert same.n_triples == tiny_graph.n_triples


def test_filter_leaves_one_index_key(tiny_graph):
    filtered = filter_relations(tiny_graph, {"IsA"})
    assert list(filtered.relation_index) == [0]
    assert filtered.relation_names == ["PartOf"]


def test_filter_recompacts_entities(tiny_graph):
    filtered = filter_relations(tiny_graph, {"PartOf"})
    assert filtered.entity_names == ["cat", "animal", "dog", "bird"]


def test_filter_idempotent(tiny_graph):
    once = filter_relations(tiny_graph, {"IsA"})
    twice = filter_relations(once, {"IsA"})
    assert np.array_equal(once.triples, twice.triples)
    assert once.entity_names == twice.entity_names


# -- sampling -----------------------------------------------------------------


def test_sample_exhausts_population(tiny_graph):
    sampled = sample_triples(tiny_graph, 100, seed=1)
    assert sampled.n_triples == tiny_graph.n_triples


def test_sample_zero(tiny_graph):
    assert sample_triples(tiny_graph, 0, seed=1).n_triples == 0


def test_sample_negative_rejected(tiny_graph):
    with pytest.raises(ConfigError):
        sample_triples(tiny_graph, -1, seed=1)


def test_sample_deterministic(tiny_graph):
    a = sample_triples(tiny_graph, 3, seed=9)
    b = sample_triples(tiny_graph, 3, seed=9)
    assert np.array_equal(a.triples, b.triples)
    assert a.entity_names == b.entity_names


def test_sample_is_subset(tiny_graph):
    sampled = sample_triples(tiny_graph, 4, seed=2)
    parent = {
        (tiny_graph.entity_names[h], tiny_graph.relation_names[r], tiny_graph.entity_names[t])
        for h, r, t in tiny_graph.triples
    }
    child = {
        (sampled.entity_names[h], sampled.relation_names[r], sampled.entity_names[t])
        for h, r, t in sampled.triples
    }
    assert child <= parent and len(child) == 4


# -- splitting ----------------------------------------------------------------


def named_triples(graph):
    return {
        (graph.entity_names[h], graph.relation_names[r], graph.entity_names[t])
        for h, r, t in graph.triples
    }


def test_split_sizes_floor_with_train_remainder():
    rows = [(f"h{i}", "r", f"t{i}") for i in range(8)]
    graph = KnowledgeGraph.from_labeled_triples(rows)
    spec = SplitSpec(0.75, 0.125, 0.125, seed=0)
    train, val, test = (graph.subset(i) for i in split_indices(graph.n_triples, spec))
    assert (train.n_triples, val.n_triples, test.n_triples) == (6, 1, 1)


def test_split_all_train():
    rows = [(f"h{i}", "r", f"t{i}") for i in range(5)]
    graph = KnowledgeGraph.from_labeled_triples(rows)
    spec = SplitSpec(1.0, 0.0, 0.0, seed=3)
    train, val, test = (graph.subset(i) for i in split_indices(graph.n_triples, spec))
    assert (train.n_triples, val.n_triples, test.n_triples) == (5, 0, 0)


def test_split_invalid_fractions():
    with pytest.raises(ConfigError):
        SplitSpec(0.5, 0.2, 0.2, seed=0).validate()
    with pytest.raises(ConfigError):
        SplitSpec(1.2, -0.1, -0.1, seed=0).validate()


@given(n=st.integers(1, 60), seed=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_split_partitions(n, seed):
    rows = [(f"h{i}", f"r{i % 3}", f"t{i}") for i in range(n)]
    graph = KnowledgeGraph.from_labeled_triples(rows)
    parts = [graph.subset(i) for i in split_indices(graph.n_triples, SplitSpec(seed=seed))]
    sets = [named_triples(g) for g in parts]
    assert sets[0] | sets[1] | sets[2] == named_triples(graph)
    assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])
    sizes = [g.n_triples for g in parts]
    assert sizes[1] == int(np.floor(0.125 * n)) and sizes[2] == int(np.floor(0.125 * n))


# -- statistics ---------------------------------------------------------------


def test_stats_inclusion_exclusion_from_published_counts():
    stats = GraphStats(
        triples=4_000_000,
        entities=3_933_840,
        heads=2_781_892,
        tails=1_387_571,
        head_tail_overlap=235_623,
        entity_triple_ratio=3_933_840 / 4_000_000,
        per_relation={},
    )
    assert stats.inclusion_exclusion_holds()
    assert 2_781_892 + 1_387_571 - 235_623 == 3_933_840


def test_stats_empty_graph():
    graph = KnowledgeGraph.from_labeled_triples([])
    stats = compute_stats(graph)
    assert stats.triples == stats.entities == stats.heads == stats.tails == 0
    assert stats.entity_triple_ratio is None
    assert stats.per_relation == {}


def test_stats_tiny_fixture_hand_counts(tiny_graph):
    stats = compute_stats(tiny_graph)
    assert stats.triples == 6
    # entities: cat, dog, bird, animal, wing, paw
    assert stats.entities == 6
    assert stats.heads == 5  # cat, dog, bird, wing, paw
    assert stats.tails == 4  # animal, bird, cat, dog
    assert stats.head_tail_overlap == 3  # cat, dog, bird
    assert stats.inclusion_exclusion_holds()
    isa = stats.per_relation["IsA"]
    assert (isa.triples, isa.entities) == (3, 4)
    assert isa.head_tail_ratio == pytest.approx(3.0)
    part = stats.per_relation["PartOf"]
    assert (part.triples, part.entities) == (3, 5)
    assert part.head_tail_ratio == pytest.approx(2 / 3)


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 3), st.integers(0, 12)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_stats_inclusion_exclusion_property(rows):
    graph = KnowledgeGraph.from_labeled_triples(
        [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rows]
    )
    stats = compute_stats(graph)
    assert stats.inclusion_exclusion_holds()
    assert stats.entities == graph.n_entities


DUPLICATE_HEAVY_STATS = Path(__file__).parent / "fixtures" / "duplicate_heavy_stats_sha256.json"


def write_duplicate_heavy_edges(path, seed=11, lines=200_000):
    """Seeded edge file whose lines mostly repeat one of 20,000 distinct triples.

    About 2,000 entity ids and 5 relations of unequal size, every 50th pooled
    triple a self-loop, plus one comment line and one blank line.
    """
    rng = np.random.default_rng(seed)
    pool = np.column_stack(
        [
            rng.integers(0, 2_000, 20_000),
            rng.choice(5, 20_000, p=[0.4, 0.3, 0.15, 0.1, 0.05]),
            rng.integers(0, 2_000, 20_000),
        ]
    )
    pool[::50, 2] = pool[::50, 0]
    picks = pool[(rng.zipf(1.2, size=lines) - 1) % len(pool)]
    text = [f"e{h}\tr{r}\te{t}" for h, r, t in picks.tolist()]
    text.insert(0, "# duplicate-heavy stats fixture")
    text.insert(lines // 2, "")
    write_lines(path, text)


def test_duplicate_heavy_stats_reproduce_the_golden_bytes(tmp_path):
    """stats.json and relation_stats.csv of a 200k-line, duplicate-heavy file.

    The SHA-256 map was written by the code before the dense-id counting
    kernels, so it locks their counts at a scale where duplicates occur.
    """
    edges = tmp_path / "edges.tsv"
    write_duplicate_heavy_edges(edges)
    graph = parse_edge_file(edges)
    assert graph.duplicates_removed > graph.n_triples  # most lines are repeats
    stage_stats(graph, tmp_path)
    golden = json.loads(DUPLICATE_HEAVY_STATS.read_text(encoding="utf-8"))
    sha = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden}
    assert sha == golden


def reference_stats(graph):
    """compute_stats as sorted unique / union / intersection passes, the old formulas."""
    if graph.n_triples == 0:
        return GraphStats(0, 0, 0, 0, 0, None, {})
    heads = np.unique(graph.triples[:, 0])
    tails = np.unique(graph.triples[:, 2])
    overlap = np.intersect1d(heads, tails, assume_unique=True)
    used = np.union1d(heads, tails)
    per_relation = {}
    for rid in range(graph.n_relations):
        sub = graph.triples[graph.triples[:, 1] == rid]
        if not len(sub):
            continue
        r_heads = np.unique(sub[:, 0])
        r_tails = np.unique(sub[:, 2])
        per_relation[graph.relation_names[rid]] = RelationStats(
            triples=len(sub),
            entities=len(np.union1d(r_heads, r_tails)),
            head_tail_ratio=len(r_heads) / len(r_tails) if len(r_tails) else None,
        )
    return GraphStats(
        graph.n_triples, len(used), len(heads), len(tails), len(overlap),
        len(used) / graph.n_triples, per_relation,
    )


def test_stats_equal_the_reference_formulas(edge_case_graphs):
    for graph in edge_case_graphs:
        stats = compute_stats(graph)
        assert stats == reference_stats(graph)
        assert list(stats.per_relation) == list(reference_stats(graph).per_relation)


def test_stats_files_roundtrip(tiny_graph, tmp_path):
    stage_stats(tiny_graph, tmp_path)
    loaded = json.loads((tmp_path / "stats.json").read_text())
    assert loaded["entities"] == 6
    lines = (tmp_path / "relation_stats.csv").read_text().strip().splitlines()
    assert lines[0] == "relation,triples,entities,head_tail_ratio"
    assert len(lines) == 3


# -- graph type invariants ------------------------------------------------------


def test_dedup_merges_multiplicities():
    rows = np.asarray([[0, 0, 1], [0, 0, 1], [1, 0, 2], [0, 0, 1]])
    graph = KnowledgeGraph.from_id_triples(["a", "b", "c"], ["r"], rows)
    assert graph.n_triples == 2
    assert graph.multiplicities.tolist() == [3, 1]
    assert graph.duplicates_removed == 2


def reference_dedupe(n_entities, n_relations, triples, multiplicities):
    """from_id_triples' old collapse: first occurrences ordered by argsort(first)."""
    codes = (triples[:, 0] * n_relations + triples[:, 1]) * n_entities + triples[:, 2]
    uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    merged = np.bincount(inverse, weights=multiplicities.astype(np.float64))
    removed = int(multiplicities.sum() - len(uniq))
    return triples[first[order]], merged[order].astype(np.int64), removed


def test_dedupe_equals_the_reference_collapse(edge_case_graphs):
    rng = np.random.default_rng(5)
    for graph in edge_case_graphs:
        rows = graph.triples[rng.integers(0, max(graph.n_triples, 1), 3 * graph.n_triples)]
        mult = rng.integers(1, 4, len(rows))
        built = KnowledgeGraph.from_id_triples(
            graph.entity_names, graph.relation_names, rows, mult
        )
        kept, merged, removed = reference_dedupe(graph.n_entities, graph.n_relations, rows, mult)
        assert np.array_equal(built.triples, kept)
        assert np.array_equal(built.multiplicities, merged)
        assert built.duplicates_removed == removed


def test_relation_index_rows_ascend_and_partition(edge_case_graphs):
    for graph in edge_case_graphs:
        index = graph.relation_index
        for rid, rows in index.items():
            assert len(rows) and (np.diff(rows) > 0).all()
            assert (graph.triples[rows, 1] == rid).all()
        assert graph.n_relations - 1 not in index  # the empty relation has no key
        all_rows = np.sort(np.concatenate([np.empty(0, np.int64), *index.values()]))
        assert np.array_equal(all_rows, np.arange(graph.n_triples))


def test_relation_index_partitions(tiny_graph):
    index = tiny_graph.relation_index
    all_rows = np.sort(np.concatenate(list(index.values())))
    assert np.array_equal(all_rows, np.arange(tiny_graph.n_triples))


def test_unknown_symbols_raise(tiny_graph):
    from kgstruct.errors import DataError

    with pytest.raises(DataError):
        tiny_graph.relation_id("nope")
    with pytest.raises(DataError):
        tiny_graph.entity_id("nope")


def test_serializer_rejects_unserializable_names(tmp_path):
    from kgstruct.errors import DataError

    graph = KnowledgeGraph.from_labeled_triples([("a\tb", "r", "c")])
    with pytest.raises(DataError):
        write_generic_3col(graph, tmp_path / "bad.tsv")
    graph = KnowledgeGraph.from_labeled_triples([("#lead", "r", "c")])
    with pytest.raises(DataError):
        write_generic_3col(graph, tmp_path / "bad2.tsv")


@given(
    names=st.lists(
        st.text(
            alphabet=st.characters(
                blacklist_characters="\t\n\r#",
                blacklist_categories=("Cs", "Cc"),
            ),
            min_size=1,
            max_size=8,
        ),
        min_size=2,
        max_size=8,
        unique=True,
    ),
    seed=st.integers(0, 50),
)
@settings(max_examples=40, deadline=None)
def test_serializer_roundtrips_arbitrary_names(tmp_path_factory, names, seed):
    rng = np.random.default_rng(seed)
    rows = [
        (
            names[int(rng.integers(len(names)))],
            "rel",
            names[int(rng.integers(len(names)))],
        )
        for _ in range(6)
    ]
    graph = KnowledgeGraph.from_labeled_triples(rows)
    path = tmp_path_factory.mktemp("rt") / "graph.tsv"
    write_generic_3col(graph, path, expand_multiplicity=True)
    again = parse_edge_file(path)
    assert again.entity_names == graph.entity_names
    assert np.array_equal(again.triples, graph.triples)
    assert again.multiplicities.tolist() == graph.multiplicities.tolist()

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_table
from kgstruct.errors import DataError
from kgstruct.graph import KnowledgeGraph, parse_edge_file
from kgstruct.negation import (
    PairUniverse,
    assemble_dataset,
    build_pair_universe,
    run_negation_study,
    sample_unknown_pairs,
    tail_sampling_ratio,
)
from kgstruct.report import NegationStage, stage_negation


def pair_graph(pos_pairs, neg_pairs):
    rows = [(f"h{h}", "Desires", f"t{t}") for h, t in pos_pairs]
    rows += [(f"h{h}", "NotDesires", f"t{t}") for h, t in neg_pairs]
    return KnowledgeGraph.from_labeled_triples(rows)


def unknown_tails_by_head(universe):
    """Brute force: each head id -> the set of tail ids it is not known with."""
    known = {
        (int(h), int(t))
        for h, t in np.vstack([universe.positive_pairs, universe.negative_pairs])
    }
    return {
        int(h): {int(t) for t in universe.tails if (int(h), int(t)) not in known}
        for h in universe.heads
    }


def named_pairs(universe, pairs):
    return {
        (universe.graph.entity_names[h], universe.graph.entity_names[t]) for h, t in pairs
    }


# -- universe construction -------------------------------------------------------


def test_universe_counts_by_enumeration():
    graph = pair_graph([(0, 0), (0, 1), (1, 0)], [(1, 1), (2, 0), (2, 2)])
    universe = build_pair_universe(graph, "Desires", "NotDesires")
    assert len(universe.heads) == 3 and len(universe.tails) == 3
    assert universe.known_pair_count == 6
    # brute-force: all head x tail combinations not asserted
    heads = {universe.graph.entity_names[h] for h in universe.heads}
    tails = {universe.graph.entity_names[t] for t in universe.tails}
    known = named_pairs(universe, universe.positive_pairs) | named_pairs(
        universe, universe.negative_pairs
    )
    unknown = {
        (h, t) for h, t in itertools.product(heads, tails) if (h, t) not in known
    }
    assert universe.unknown_pair_count == len(unknown) == 3


def test_universe_removes_contradictions_from_both_sides():
    graph = pair_graph([(0, 0), (0, 1)], [(0, 0), (1, 1)])
    universe = build_pair_universe(graph, "Desires", "NotDesires")
    assert universe.contradictions_removed == 1
    known = named_pairs(universe, universe.positive_pairs) | named_pairs(
        universe, universe.negative_pairs
    )
    assert ("h0", "t0") not in known
    assert universe.known_pair_count == 2


def test_universe_cleaning_symmetric_under_swap():
    graph = pair_graph([(0, 0), (1, 2), (2, 1)], [(0, 1), (1, 0), (0, 0)])
    forward = build_pair_universe(graph, "Desires", "NotDesires")
    swapped = build_pair_universe(graph, "NotDesires", "Desires")
    assert named_pairs(forward, forward.positive_pairs) == named_pairs(
        swapped, swapped.negative_pairs
    )
    assert named_pairs(forward, forward.negative_pairs) == named_pairs(
        swapped, swapped.positive_pairs
    )
    assert forward.unknown_pair_count == swapped.unknown_pair_count
    assert forward.contradictions_removed == swapped.contradictions_removed


def test_universe_errors():
    graph = pair_graph([(0, 0)], [(0, 0)])
    with pytest.raises(DataError):
        build_pair_universe(graph, "Desires", "Desires")
    with pytest.raises(DataError):
        build_pair_universe(graph, "Desires", "Missing")
    with pytest.raises(DataError):
        # the single shared pair is contradictory; nothing remains
        build_pair_universe(graph, "Desires", "NotDesires")


@given(
    pos=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=20),
    neg=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=20),
)
@settings(max_examples=50, deadline=None)
def test_universe_identity_bruteforce(pos, neg):
    if not pos - neg or not neg - pos:
        return  # cleaning could empty a side; covered by the error test
    graph = pair_graph(sorted(pos), sorted(neg))
    universe = build_pair_universe(graph, "Desires", "NotDesires")
    heads = {universe.graph.entity_names[h] for h in universe.heads}
    tails = {universe.graph.entity_names[t] for t in universe.tails}
    known = named_pairs(universe, universe.positive_pairs) | named_pairs(
        universe, universe.negative_pairs
    )
    assert known <= set(itertools.product(heads, tails))
    assert universe.unknown_pair_count == len(heads) * len(tails) - len(known)
    assert universe.contradictions_removed == len(pos & neg)


# -- unknown sampling ----------------------------------------------------------------


def test_tail_ratio_formula():
    graph = pair_graph([(0, 0), (0, 1), (1, 0)], [(1, 1), (2, 0), (2, 2)])
    universe = build_pair_universe(graph, "Desires", "NotDesires")
    sample = sample_unknown_pairs(universe, seed=0)
    # ceil(6 / (2 * |H_U|)); every head has at least one unknown tail here
    assert sample.unknown_heads == 3
    assert tail_sampling_ratio(universe, sample.unknown_heads) == sample.tail_ratio == 1


def test_sampling_respects_cap_and_known_pairs():
    pos = [(0, t) for t in range(4)] + [(1, 0)]
    neg = [(1, 1), (2, 2)]
    graph = pair_graph(pos, neg)
    universe = build_pair_universe(graph, "Desires", "NotDesires")
    sample = sample_unknown_pairs(universe, seed=5)
    known = named_pairs(universe, universe.positive_pairs) | named_pairs(
        universe, universe.negative_pairs
    )
    drawn = named_pairs(universe, sample.pairs)
    assert not drawn & known
    per_head = {}
    for h, t in sample.pairs:
        per_head[h] = per_head.get(h, 0) + 1
    assert max(per_head.values()) <= sample.tail_ratio
    assert len(drawn) == len(sample.pairs)  # all distinct


def test_sampling_caps_at_availability():
    # head h0 knows all tails but one: it can contribute only that pair
    tails = range(5)
    pos = [(0, t) for t in list(tails)[:-1]]
    neg = [(1, 4), (1, 0)]
    graph = pair_graph(pos, neg)
    universe = build_pair_universe(graph, "Desires", "NotDesires")
    sample = sample_unknown_pairs(universe, seed=0)
    ratio = tail_sampling_ratio(universe, sample.unknown_heads)
    assert ratio == sample.tail_ratio == 2
    h0_pairs = [(h, t) for h, t in sample.pairs if universe.graph.entity_names[h] == "h0"]
    assert len(h0_pairs) == 1
    assert universe.graph.entity_names[h0_pairs[0][1]] == "t4"


def test_sampling_deterministic():
    rng = np.random.default_rng(0)
    pos = {(int(rng.integers(10)), int(rng.integers(15))) for _ in range(30)}
    neg = {(int(rng.integers(10)), int(rng.integers(15))) for _ in range(30)} - pos
    graph = pair_graph(sorted(pos), sorted(neg))
    universe = build_pair_universe(graph, "Desires", "NotDesires")
    a = sample_unknown_pairs(universe, seed=9)
    b = sample_unknown_pairs(universe, seed=9)
    assert np.array_equal(a.pairs, b.pairs)
    c = sample_unknown_pairs(universe, seed=10)
    assert not np.array_equal(a.pairs, c.pairs)


@given(
    pos=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 6)), min_size=1, max_size=25),
    neg=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 6)), min_size=1, max_size=25),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_sampling_matches_bruteforce(pos, neg, seed):
    assume(pos ^ neg)  # otherwise cleaning leaves no known pair
    universe = build_pair_universe(pair_graph(sorted(pos), sorted(neg)), "Desires", "NotDesires")
    unknown = {h: tails for h, tails in unknown_tails_by_head(universe).items() if tails}
    if not unknown:
        with pytest.raises(DataError, match="no head has an unknown tail"):
            sample_unknown_pairs(universe, seed=seed)
        return
    sample = sample_unknown_pairs(universe, seed=seed)
    ratio = max(1, -(-universe.known_pair_count // (2 * len(unknown))))
    assert sample.unknown_heads == len(unknown)
    assert sample.tail_ratio == ratio
    assert sample.pairs.dtype == np.int64 and sample.pairs.shape[1] == 2
    drawn = [(int(h), int(t)) for h, t in sample.pairs]
    assert len(set(drawn)) == len(drawn)
    assert all(t in unknown[h] for h, t in drawn)
    assert Counter(h for h, _ in drawn) == {h: min(ratio, len(t)) for h, t in unknown.items()}
    assert np.all(np.diff(sample.pairs[:, 0]) >= 0)


def test_sampling_draws_each_subset_equally_often():
    # h0 knows t0 and t1, so 4 unknown tails; h1 knows t2..t5; ratio ceil(6 / 4) = 2
    graph = pair_graph([(0, 0), (0, 1)], [(1, t) for t in range(2, 6)])
    universe = build_pair_universe(graph, "Desires", "NotDesires")
    h0 = graph.entity_names.index("h0")
    counts = Counter()
    for seed in range(6000):
        sample = sample_unknown_pairs(universe, seed=seed)
        assert sample.tail_ratio == 2
        counts[frozenset(graph.entity_names[t] for h, t in sample.pairs if h == h0)] += 1
    assert set(counts) == {frozenset(s) for s in itertools.combinations(["t2", "t3", "t4", "t5"], 2)}
    assert all(900 <= count <= 1100 for count in counts.values()), counts


# -- dataset assembly ----------------------------------------------------------------


def universe_with_table(n_pos=10, n_neg=10, dim=4, seed=3, messy=False):
    rng = np.random.default_rng(seed)
    pos = [(i, i % 5) for i in range(n_pos)]
    neg = [(i, (i + 2) % 5 + 5) for i in range(n_neg)]
    if messy:
        # pairs repeated under one relation, and pairs asserted under both
        pos, neg = pos + pos[:3] + neg[:2], neg + neg[1:4] + pos[4:6]
    graph = pair_graph(pos, neg)
    universe = build_pair_universe(graph, "Desires", "NotDesires")
    table = make_table(
        {name: rng.normal(size=dim).tolist() for name in graph.entity_names},
        {"Desires": [0.0] * dim, "NotDesires": [0.0] * dim},
    )
    return graph, universe, table


def test_assemble_counts_and_features():
    graph, universe, table = universe_with_table()
    x, y = assemble_dataset(table, universe)
    assert int(y.sum()) == len(universe.positive_pairs)
    assert int((y == 0).sum()) == len(universe.negative_pairs)
    assert len(x) == len(y) == universe.known_pair_count
    # each row is exactly tail vector minus head vector, positives first
    pairs = np.vstack([universe.positive_pairs, universe.negative_pairs])
    for row, (h, t), label in zip(x, pairs, y):
        expected = table.entity_vectors[t].astype(np.float64) - table.entity_vectors[
            h
        ].astype(np.float64)
        assert np.array_equal(row, expected)
        assert label == int(any((universe.positive_pairs == (h, t)).all(axis=1)))


def test_assemble_binary_subset():
    graph, universe, table = universe_with_table()
    x, y = assemble_dataset(table, universe)
    assert set(np.unique(y)) == {0, 1}
    assert len(x) == len(universe.positive_pairs) + len(universe.negative_pairs)


def test_assemble_missing_embedding():
    graph, universe, table = universe_with_table()
    small = make_table({"h0": [0.0] * 4}, {"Desires": [0.0] * 4})
    with pytest.raises(DataError):
        assemble_dataset(small, universe)


def test_assemble_mismatched_interning():
    graph, universe, table = universe_with_table()
    shuffled_names = list(reversed(table.entity_names))
    wrong = make_table(
        {name: [0.0] * 4 for name in shuffled_names},
        {"Desires": [0.0] * 4},
    )
    with pytest.raises(DataError, match="interning"):
        assemble_dataset(wrong, universe)


def reference_binary_dataset(table, universe, sample):
    """Features and labels by the earlier two-step formula: a tail-minus-head
    row for every positive, negative and sampled unknown pair, labelled 1, 0
    and 2, then a mask that keeps the known rows."""
    features, labels = [], []
    for block, label in (
        (universe.positive_pairs, 1),
        (universe.negative_pairs, 0),
        (sample.pairs, 2),
    ):
        if len(block) == 0:
            continue
        heads = table.entity_vectors[block[:, 0]].astype(np.float64)
        tails = table.entity_vectors[block[:, 1]].astype(np.float64)
        features.append(tails - heads)
        labels.append(np.full(len(block), label, dtype=np.int64))
    features, labels = np.vstack(features), np.concatenate(labels)
    known = labels != 2
    return features[known], labels[known]


@pytest.mark.parametrize("messy", [False, True], ids=["clean", "duplicates-contradictions"])
@pytest.mark.parametrize("seed", [0, 3, 17, 4099])
def test_assemble_equals_the_reference_bitwise(seed, messy):
    graph, universe, table = universe_with_table(n_pos=9 + seed % 4, seed=seed, messy=messy)
    # the graph collapses the repeated rows; contradictory pairs leave both sides
    assert (universe.contradictions_removed > 0) == messy
    sample = sample_unknown_pairs(universe, seed=seed)
    assert len(sample.pairs) > 0
    ref_x, ref_y = reference_binary_dataset(table, universe, sample)
    x, y = assemble_dataset(table, universe)
    assert x.dtype == ref_x.dtype and x.shape == ref_x.shape
    assert x.tobytes() == ref_x.tobytes()
    assert y.dtype == ref_y.dtype and y.tobytes() == ref_y.tobytes()


def test_study_builds_known_tails_once_and_counts_labels(monkeypatch):
    graph, _, table = universe_with_table(seed=5)
    calls = []
    original = PairUniverse.known_tail_positions

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PairUniverse, "known_tail_positions", counting)
    report, universe, sample = run_negation_study(
        table, graph, "Desires", "NotDesires", folds=2, seed=1, classifier="linear"
    )
    assert len(calls) == 1
    assert report.label_counts == {
        "negative": len(universe.negative_pairs),
        "positive": len(universe.positive_pairs),
        "unknown": len(sample.pairs),
    }
    assert report.sample_size == len(sample.pairs) > 0
    assert report.universe["unknown_heads_equal_heads"] == all(
        unknown_tails_by_head(universe).values()
    )


def test_unknown_pairs_export_roundtrip(tmp_path):
    graph, universe, table = universe_with_table()
    sample = sample_unknown_pairs(universe, seed=2)
    stage = NegationStage(enabled=True, folds=2, classifier="linear", seed=2)
    stage_negation(table, graph, stage, tmp_path)
    parsed = parse_edge_file(tmp_path / "unknown_pairs.tsv")
    assert parsed.relation_names == ["Unknown"]
    assert parsed.n_triples == len(sample.pairs)
    names = parsed.entity_names
    assert {(names[h], names[t]) for h, _, t in parsed.triples} == named_pairs(universe, sample.pairs)

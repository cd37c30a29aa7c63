import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_labeled_triples, make_table
from kgstruct import validation
from kgstruct.errors import DataError
from kgstruct.validation import (
    RelationProfile,
    average_ranks,
    kl_divergence,
    similarity_histogram,
    similarity_lists,
    spearman_rho,
    validate_relation,
    validate_working_set_bytes,
)


# -- spearman ---------------------------------------------------------------


def test_spearman_identical_lists():
    assert spearman_rho([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]) == 1.0


def test_spearman_exact_reversal():
    assert spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0


def test_spearman_tie_fixture_hand_ranked():
    # ranks of a = [1, 2.5, 2.5, 4] (average ranks), b = [1, 2, 3, 4]
    # pearson of ranks = 4.5 / sqrt(4.5 * 5) = 0.9486832980505138
    rho = spearman_rho([1, 2, 2, 3], [1, 2, 3, 4])
    assert rho == pytest.approx(0.9486832980505138, abs=1e-12)


def test_spearman_constant_list_undefined():
    assert spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None


def test_spearman_errors():
    with pytest.raises(ValueError):
        spearman_rho([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])


def test_average_ranks_ties():
    assert average_ranks(np.asarray([10.0, 20.0, 20.0, 5.0])).tolist() == [2.0, 3.5, 3.5, 1.0]


def loop_average_ranks(values):
    """Average ranks by walking each run of equal sorted values in Python."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_average_ranks_nan_and_signed_zero():
    values = np.asarray([np.nan, 0.0, -0.0, 1.0, np.nan, 0.0])
    # the zeros tie; each NaN sorts last and ranks alone
    assert average_ranks(values).tolist() == [5.0, 2.0, 2.0, 4.0, 6.0, 2.0]
    assert average_ranks(np.asarray([])).tolist() == []


@pytest.mark.parametrize("trial", range(10))
def test_average_ranks_match_loop(trial):
    rng = np.random.default_rng(trial)
    n = int(rng.integers(1, 5000))
    values = np.round(rng.normal(size=n), int(rng.integers(0, 4)))  # many ties
    values[rng.random(n) < 0.05] = np.nan
    values[rng.random(n) < 0.05] = 0.0
    values[rng.random(n) < 0.05] = -0.0
    values[rng.random(n) < 0.02] = np.inf
    assert average_ranks(values).tobytes() == loop_average_ranks(values).tobytes()


@given(
    values=st.lists(
        st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=2, max_size=40
    )
)
@settings(max_examples=80, deadline=None)
def test_spearman_matches_scipy(values):
    import warnings

    a = [v[0] for v in values]
    b = [v[1] for v in values]
    ours = spearman_rho(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on constant input
        reference = scipy.stats.spearmanr(a, b).statistic
    if ours is None:
        assert math.isnan(reference)
    else:
        assert ours == pytest.approx(reference, abs=1e-12)


coarse = st.integers(-200, 200).map(lambda i: i / 10.0)


@given(
    pairs=st.lists(st.tuples(coarse, coarse), min_size=3, max_size=30),
    scale=st.integers(1, 50).map(lambda i: i / 10.0),
    shift=coarse,
)
@settings(max_examples=50, deadline=None)
def test_spearman_invariant_under_increasing_transform(pairs, scale, shift):
    # coarse grid keeps distinct values distinct under the affine transform
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    transformed = [scale * x + shift for x in a]
    original = spearman_rho(a, b)
    moved = spearman_rho(transformed, b)
    if original is None:
        assert moved is None
    else:
        assert moved == pytest.approx(original, abs=1e-9)


# -- KL divergence -------------------------------------------------------------


def test_kl_identical_distributions():
    p = np.asarray([0.1, 0.4, 0.5])
    assert kl_divergence(p, p) <= 1e-12


def test_kl_two_term_hand_evaluation():
    # direct evaluation: 0.5*ln(0.5/0.25) + 0.5*ln(0.5/0.75)
    expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-9)


def test_kl_asymmetric():
    p, q = [0.5, 0.5], [0.1, 0.9]
    assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p), abs=1e-6)


def test_kl_zero_bin_finite_and_monotone_in_epsilon(monkeypatch):
    p, q = [0.7, 0.3], [1.0, 0.0]
    monkeypatch.setattr(validation, "DEFAULT_EPSILON", 1e-9)
    tight = kl_divergence(p, q)
    monkeypatch.setattr(validation, "DEFAULT_EPSILON", 1e-6)
    loose = kl_divergence(p, q)
    assert np.isfinite(tight) and np.isfinite(loose)
    assert loose < tight  # more smoothing, less divergence


def test_kl_errors():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        kl_divergence([-0.1, 1.1], [0.5, 0.5])


@given(
    counts=st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=2, max_size=30
    )
)
@settings(max_examples=100, deadline=None)
def test_kl_nonnegative(counts):
    p = [c[0] for c in counts]
    q = [c[1] for c in counts]
    assert kl_divergence(p, q) >= 0.0


def test_histogram_bins_and_clipping():
    h = similarity_histogram([-1.5, -1.0, 0.0, 1.0, 1.0001], bins=4)
    assert h.tolist() == [2.0, 0.0, 1.0, 2.0]
    assert h.sum() == 5


# -- similarity lists ------------------------------------------------------------


def four_triple_fixture():
    graph = from_labeled_triples(
        [("a", "r", "b"), ("c", "r", "d"), ("e", "r", "f"), ("g", "r", "h")]
    )
    table = make_table(
        {
            "a": [0.0, 0.0], "b": [1.0, 2.0],
            "c": [1.0, 1.0], "d": [3.0, 1.5],
            "e": [-1.0, 0.5], "f": [0.5, 0.25],
            "g": [2.0, -1.0], "h": [0.5, 0.5],
        },
        {"r": [1.0, 1.0]},
    )
    return graph, table


def test_similarity_lists_all_ones_when_direct_equals_translations():
    graph = from_labeled_triples([("a", "r", "b"), ("c", "r", "d")])
    table = make_table(
        {"a": [0.0, 0.0], "b": [1.0, 2.0], "c": [5.0, 1.0], "d": [6.0, 3.0]},
        {"r": [1.0, 2.0]},
    )
    profile = similarity_lists(table, graph, "r")
    assert np.allclose(profile.direct_sims, 1.0, atol=1e-12)
    assert np.allclose(profile.centroid_sims, 1.0, atol=1e-12)


def test_similarity_lists_single_triple():
    graph = from_labeled_triples([("a", "r", "b")])
    table = make_table({"a": [0.0, 1.0], "b": [2.0, 0.0]}, {"r": [1.0, 1.0]})
    profile = similarity_lists(table, graph, "r")
    assert len(profile.direct_sims) == 1 and len(profile.centroid_sims) == 1
    assert profile.triple_count == 1


def test_similarity_lists_match_hand_cosines():
    graph, table = four_triple_fixture()
    profile = similarity_lists(table, graph, "r")
    # independent oracle: plain dot/norm per triple
    direct = np.asarray([1.0, 1.0])
    translations = [
        np.asarray([1.0, 2.0]) - np.asarray([0.0, 0.0]),
        np.asarray([3.0, 1.5]) - np.asarray([1.0, 1.0]),
        np.asarray([0.5, 0.25]) - np.asarray([-1.0, 0.5]),
        np.asarray([0.5, 0.5]) - np.asarray([2.0, -1.0]),
    ]
    centroid = sum(translations) / 4
    for i, vec in enumerate(translations):
        cos_d = float(vec @ direct / (np.linalg.norm(vec) * np.linalg.norm(direct)))
        cos_c = float(vec @ centroid / (np.linalg.norm(vec) * np.linalg.norm(centroid)))
        assert profile.direct_sims[i] == pytest.approx(cos_d, abs=1e-12)
        assert profile.centroid_sims[i] == pytest.approx(cos_c, abs=1e-12)
    assert np.all(np.abs(profile.direct_sims) <= 1.0)


def test_similarity_lists_skip_zero_translations(caplog):
    graph = from_labeled_triples([("a", "r", "b"), ("c", "r", "c2")])
    table = make_table(
        {"a": [0.5, 0.5], "b": [0.5, 0.5], "c": [0.0, 1.0], "c2": [1.0, 0.0]},
        {"r": [1.0, 0.0]},
    )
    with caplog.at_level("WARNING"):
        profile = similarity_lists(table, graph, "r")
    assert profile.skipped == 1
    assert len(profile.direct_sims) == 1
    assert "zero translation" in caplog.text


def test_similarity_lists_absent_relation():
    graph, table = four_triple_fixture()
    with pytest.raises(DataError):
        similarity_lists(table, graph, "nope")


# -- validate_relation ------------------------------------------------------------


def test_validate_identical_lists_perfect():
    graph = from_labeled_triples(
        [("a", "r", "b"), ("c", "r", "d"), ("e", "r", "f")]
    )
    rng = np.random.default_rng(1)
    positions = {name: rng.normal(size=3) for name in graph.entity_names}
    translations = [
        positions[graph.entity_names[t]] - positions[graph.entity_names[h]]
        for h, _, t in graph.triples
    ]
    centroid = np.mean(translations, axis=0)
    table = make_table(
        {k: v.tolist() for k, v in positions.items()}, {"r": centroid.tolist()}
    )
    record = validate_relation(similarity_lists(table, graph, "r"), bins=20)
    assert record.spearman_abs == pytest.approx(1.0, abs=1e-9)
    assert record.kl <= 1e-9


def test_validate_matches_independent_recomputation():
    rng = np.random.default_rng(7)
    rows = [(f"h{i}", "r", f"t{i}") for i in range(10)]
    graph = from_labeled_triples(rows)
    positions = {name: rng.normal(size=5).tolist() for name in graph.entity_names}
    direct = rng.normal(size=5).tolist()
    table = make_table(positions, {"r": direct})
    record = validate_relation(similarity_lists(table, graph, "r"), bins=25)

    # recompute both lists with independent code, then the two statistics
    f32 = {k: np.asarray(v, dtype=np.float32) for k, v in positions.items()}
    translations = np.asarray(
        [
            f32[graph.entity_names[t]].astype(np.float64)
            - f32[graph.entity_names[h]].astype(np.float64)
            for h, _, t in graph.triples
        ]
    )
    direct64 = np.asarray(direct, dtype=np.float32).astype(np.float64)
    centroid = translations.mean(axis=0)
    sl_direct = [
        float(v @ direct64 / (np.linalg.norm(v) * np.linalg.norm(direct64)))
        for v in translations
    ]
    sl_centroid = [
        float(v @ centroid / (np.linalg.norm(v) * np.linalg.norm(centroid)))
        for v in translations
    ]
    assert record.spearman == pytest.approx(
        scipy.stats.spearmanr(sl_direct, sl_centroid).statistic, abs=1e-12
    )
    p, _ = np.histogram(np.clip(sl_centroid, -1, 1), bins=25, range=(-1, 1))
    q, _ = np.histogram(np.clip(sl_direct, -1, 1), bins=25, range=(-1, 1))
    assert record.kl == pytest.approx(kl_divergence(p, q), abs=1e-12)


def test_validate_requires_two_usable_triples():
    graph = from_labeled_triples([("a", "r", "b")])
    table = make_table({"a": [0.0, 1.0], "b": [1.0, 0.0]}, {"r": [1.0, 1.0]})
    with pytest.raises(DataError):
        validate_relation(similarity_lists(table, graph, "r"))


def test_validate_constant_lists_propagate_none():
    # two triples with identical translation vectors -> constant lists
    graph = from_labeled_triples([("a", "r", "b"), ("c", "r", "d")])
    table = make_table(
        {"a": [0.0, 0.0], "b": [1.0, 1.0], "c": [2.0, 0.0], "d": [3.0, 1.0]},
        {"r": [0.5, 0.5]},
    )
    record = validate_relation(similarity_lists(table, graph, "r"))
    assert record.spearman is None and record.spearman_abs is None
    assert record.kl <= 1e-12


@pytest.mark.parametrize("bins", [10**4, 10**5, 10**6])
def test_validate_working_set_bounds_the_traced_peak(bins):
    """The bins-sized arrays validate_relation holds at once, against the estimate."""
    rng = np.random.default_rng(0)
    direct = rng.uniform(-1.0, 1.0, 200)
    centroid = np.clip(direct + rng.normal(scale=0.1, size=200), -1.0, 1.0)
    profile = RelationProfile("r", np.ones(2), np.ones(2), direct, centroid, 200, 0)
    tracemalloc.start()
    try:
        validate_relation(profile, bins=bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # six or seven arrays of bins float64 values are alive at the peak
    assert 0.7 * validate_working_set_bytes(bins) <= peak <= validate_working_set_bytes(bins)

import hashlib
import json
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_labeled_triples
from kgstruct import graph as graph_module
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
    head, relation, tail = graph.triples[0]
    assert graph.entity_names[head] == "person"
    assert graph.relation_names[relation] == "RelatedTo"
    assert graph.entity_names[tail] == "francais"


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


def test_roundtrip_keeps_names_and_triples(tmp_path):
    path = tmp_path / "in.tsv"
    write_lines(path, ["a\tr\tb", "a\tr\tb", "b\tr\tc", "a\ts\tb"])
    graph = parse_edge_file(path)
    out = tmp_path / "out.tsv"
    write_generic_3col(graph, out)
    again = parse_edge_file(out)
    assert again.entity_names == graph.entity_names
    assert again.relation_names == graph.relation_names
    assert np.array_equal(again.triples, graph.triples)


# -- the block parser against the line-by-line reference ------------------------


def reference_concept_label(uri):
    parts = uri.split("/")
    if len(parts) >= 4 and parts[1] == "c":
        return parts[3]
    return uri


def reference_relation_label(uri):
    if uri.startswith("/r/"):
        return uri[3:]
    return uri


def reference_undecodable_line(path):
    """Number of the first line of ``path`` that is not valid UTF-8.

    Lines end at LF, CRLF or a lone CR: latin-1 reads each byte as one
    character, so universal newlines split the bytes where they split UTF-8
    text.
    """
    with open(path, encoding="latin-1") as handle:
        for lineno, line in enumerate(handle, 1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 0


def reference_edge_rows(handle, path, format):
    """The parser's old line loop: checked (head, relation, tail) name rows."""
    try:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if format == "generic-3col":
                if len(cols) != 3:
                    raise ParseError(
                        path, lineno, f"expected 3 tab-separated columns, got {len(cols)}"
                    )
                head, relation, tail = cols
            else:
                if len(cols) < 4:
                    raise ParseError(
                        path,
                        lineno,
                        f"expected at least 4 tab-separated columns, got {len(cols)}",
                    )
                relation = reference_relation_label(cols[1])
                head = reference_concept_label(cols[2])
                tail = reference_concept_label(cols[3])
            if not head or not relation or not tail:
                raise ParseError(path, lineno, "empty head, relation, or tail")
            yield head, relation, tail
    except UnicodeDecodeError as exc:
        raise ParseError(
            path, reference_undecodable_line(path), f"not valid UTF-8 ({exc.reason})"
        ) from exc


def reference_parse(path, format="generic-3col"):
    """The old parser: the line loop above, interned name by name in a dict."""
    with open(path, "r", encoding="utf-8") as handle:
        return from_labeled_triples(reference_edge_rows(handle, Path(path), format))


def outcome(parse, path, format):
    """What a parser makes of a file: the graph's exact contents, or its ParseError."""
    try:
        graph = parse(path, format)
    except ParseError as exc:
        return ("error", str(exc), exc.line_number)
    return (
        "graph", graph.entity_names, graph.relation_names,
        graph.triples.dtype.str, graph.triples.tobytes(),
    )


# names of 1 to 40 UTF-8 bytes: any text, and runs of 1- to 4-byte characters
# whose lengths cross the 8- and 16-byte word edges
NAMES = st.one_of(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
        min_size=1,
        max_size=12,
    ),
    st.builds(lambda c, n: c * n, st.sampled_from("aé€𝄞/"), st.integers(1, 40)),
).filter(lambda name: len(name.encode("utf-8")) <= 40)


@st.composite
def edge_files(draw, format):
    """Edge file text with comments, blank lines, repeats and mixed line ends."""
    names = draw(st.lists(NAMES, min_size=3, max_size=12))
    if format == "conceptnet-dump":
        # concept URIs, and look-alikes that keep their whole text
        prefixes = ["/c/en/", "/c/fr/", "x/c/en/", "/c/", "/d/en/", "/cc/en/", "c/en/", ""]
        uri = st.builds(
            lambda prefix, name, suffix: prefix + name + suffix,
            st.sampled_from(prefixes), st.sampled_from(names), st.sampled_from(["", "/n", "/n/wn/x"]),
        )
        relation = st.builds(
            lambda prefix, name: prefix + name,
            st.sampled_from(["/r/", "", "/r", "r/", "/x/"]), st.sampled_from(names),
        )
        row = st.builds(
            lambda r, h, t, extra: "\t".join(["/a/x", r, h, t] + extra),
            relation, uri, uri, st.lists(st.sampled_from(["{}", "", "x"]), max_size=2),
        )
    else:
        row = st.builds(
            lambda h, r, t: f"{h}\t{r}\t{t}",
            st.sampled_from(names), st.sampled_from(names), st.sampled_from(names),
        )
    rows = draw(st.lists(row, min_size=3, max_size=8)) + ["", "# comment\tx"]
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=30))
    lines = draw(st.permutations(rows + [rows[i] for i in repeats]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, ends))
    if draw(st.booleans()) and text:
        text = text[: -len(ends[-1])]  # no final newline
    return text


@pytest.mark.parametrize("format", ["generic-3col", "conceptnet-dump"])
@given(
    data=st.data(),
    block=st.sampled_from([1, 2, 3, 7, 64, graph_module._BLOCK_BYTES]),
    small_run=st.sampled_from([1, 3, 1 << 16]),
)
@settings(max_examples=120, deadline=None)
def test_block_parser_equals_the_line_reference(tmp_path_factory, format, data, block, small_run):
    """Names, name order and triples are bitwise the reference's.

    Blocks of a few bytes split the file between most lines, and a
    small ``_SMALL_RUN`` keeps the interner's key tables in several runs.
    """
    text = data.draw(edge_files(format))
    path = tmp_path_factory.mktemp("blocks") / "edges.tsv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(graph_module, "_BLOCK_BYTES", block), mock.patch.object(
        graph_module, "_SMALL_RUN", small_run
    ):
        assert outcome(parse_edge_file, path, format) == outcome(reference_parse, path, format)


def test_names_that_differ_only_in_trailing_zero_bytes_stay_apart(tmp_path):
    """Keys are zero-padded words: the span's length keeps "a" and "a\\0" apart."""
    names = [base + "\0" * k for base in ("a", "abcdefg", "abcdefgh", "é" * 8) for k in range(10)]
    path = tmp_path / "nul.tsv"
    path.write_text("".join(f"{n}\tr{n}\t{n}x\n" for n in names), encoding="utf-8")
    graph = parse_edge_file(path)
    assert graph.entity_names == [m for n in names for m in (n, n + "x")]
    assert graph.relation_names == [f"r{n}" for n in names]
    assert outcome(parse_edge_file, path, "generic-3col") == outcome(
        reference_parse, path, "generic-3col"
    )


PARSE_ERROR_CASES = {
    "two columns": ("generic-3col", b"a\tr\tb\nonly\ttwo\n"),
    "four columns": ("generic-3col", b"a\tr\tb\nc\tr\td\te\n"),
    "one column after a comment": ("generic-3col", b"# c\n\na\n"),
    "empty head": ("generic-3col", b"a\tr\tb\n\tr\tb\n"),
    "empty relation": ("generic-3col", b"a\t\tb\n"),
    "empty tail without final newline": ("generic-3col", b"a\tr\tb\r\nc\tr\t"),
    "empty field before a bad count": ("generic-3col", b"a\tr\t\nb\n"),
    "bad count before an empty field": ("generic-3col", b"b\na\tr\t\n"),
    "short dump row": ("conceptnet-dump", b"/a/x\t/r/IsA\t/c/en/cat\n"),
    "short dump row after good ones": (
        "conceptnet-dump", b"/a/x\t/r/IsA\t/c/en/cat\t/c/en/pet\n/a/y\t/r/IsA\n"
    ),
    "empty concept label": ("conceptnet-dump", b"/a/x\t/r/IsA\t/c/en/\t/c/en/pet\n"),
    "empty concept label with sense": ("conceptnet-dump", b"/a/x\t/r/IsA\t/c/en/cat\t/c/en//n\n"),
    "empty relation label": ("conceptnet-dump", b"/a/x\t/r/\t/c/en/cat\t/c/en/pet\n"),
    "empty raw uri": ("conceptnet-dump", b"/a/x\t/r/IsA\t\t/c/en/pet\t{}\n"),
    "invalid byte": ("generic-3col", b"a\tr\tb\nc\tr\t\xff\n"),
    "invalid byte after a bad line": ("generic-3col", b"a\tr\tb\nbad line\nc\tr\t\xff\n"),
    "truncated character at the end": ("generic-3col", b"a\tr\tb\nc\tr\t\xe2\x82"),
    "invalid byte in a dump": ("conceptnet-dump", b"/a/x\t/r/IsA\t/c/en/\xc3\x28\t/c/en/pet\n"),
    "invalid byte after lone carriage returns": (
        "generic-3col", b"a\tr\tb\rc\tr\td\re\tr\t\xff\r"
    ),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERROR_CASES))
def test_parse_errors_equal_the_reference(tmp_path, case):
    format, raw = PARSE_ERROR_CASES[case]
    path = tmp_path / "bad.tsv"
    path.write_bytes(raw)
    got = outcome(parse_edge_file, path, format)
    assert got[0] == "error"
    assert got == outcome(reference_parse, path, format)


def test_undecodable_byte_precedes_structural_errors_of_its_block(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"a\tr\tb\nbad line\nc\tr\t\xff\n")
    with pytest.raises(ParseError, match=r"bad\.tsv:3: not valid UTF-8") as err:
        parse_edge_file(path)
    assert err.value.line_number == 3


@pytest.mark.parametrize("block", [1, 7, graph_module._BLOCK_BYTES])
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_undecodable_line_counts_every_line_end(tmp_path, end, block):
    path = tmp_path / "bad.tsv"
    path.write_bytes(end.join([b"a\tr\tb", b"c\tr\td", b"e\tr\t\xff", b""]))
    with mock.patch.object(graph_module, "_BLOCK_BYTES", block):
        with pytest.raises(ParseError, match=r"bad\.tsv:3: not valid UTF-8") as err:
            parse_edge_file(path)
    assert err.value.line_number == 3


@pytest.mark.parametrize("block", [1, graph_module._BLOCK_BYTES])
def test_parse_skips_a_leading_byte_order_mark(tmp_path, block):
    """At block size 1 the first read splits the mark; it is dropped once the line is whole."""
    path = tmp_path / "bom.tsv"
    with mock.patch.object(graph_module, "_BLOCK_BYTES", block):
        path.write_bytes(b"\xef\xbb\xbfa\tr\tb")
        graph = parse_edge_file(path)
        assert graph.entity_names == ["a", "b"] and graph.n_triples == 1
        path.write_bytes(b"\xef\xbb\xbf# header\na\tr\tb\n")
        assert parse_edge_file(path).entity_names == ["a", "b"]
        # only the first character: a mark inside a name stays part of it
        path.write_bytes("a\tr\tb\n\ufeffc\tr\tb\n".encode("utf-8"))
        assert parse_edge_file(path).entity_names == ["a", "b", "\ufeffc"]


LINE_ENDS = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


def test_lone_cr_files_are_read_in_bounded_blocks(tmp_path):
    """Every line-end style is cut into blocks of at most one read plus one line."""
    lines = [f"e{i}\tr{i % 7}\te{i * 7919 % 50_000}".encode() for i in range(200_000)]
    longest = max(len(line) for line in lines) + 2
    outcomes = {}
    for style, end in LINE_ENDS.items():
        path = tmp_path / f"{style}.tsv"
        path.write_bytes(end.join(lines) + end)
        sizes = []
        real = graph_module._parse_block

        def counting(data, *args):
            sizes.append(len(data))
            return real(data, *args)

        with mock.patch.object(graph_module, "_parse_block", counting):
            outcomes[style] = outcome(parse_edge_file, path, "generic-3col")
        assert len(sizes) > 1, style
        assert max(sizes) <= graph_module._BLOCK_BYTES + longest, style
    assert outcomes["lf"][0] == "graph"
    assert outcomes["cr"] == outcomes["crlf"] == outcomes["lf"]


@pytest.mark.parametrize("style", list(LINE_ENDS))
def test_a_line_of_many_reads_is_joined_once(tmp_path, style):
    """A 2 MiB line read 16 bytes at a time: the 131,072 reads are kept and joined
    once, when the line ends, in about 0.8 s of CPU time on a 2-vCPU host. Joining
    each read to the line so far, and searching all of it for a line end, took
    19 s there: time quadratic in the line's length."""
    end = LINE_ENDS[style]
    long_tail = b"x" * (1 << 21)
    path = tmp_path / "long.tsv"
    path.write_bytes(end.join([b"a\tr\tb", b"c\tr\t" + long_tail, b"d\tr\te", b""]))
    sizes = []
    real = graph_module._parse_block

    def counting(data, *args):
        sizes.append(len(data))
        return real(data, *args)

    started = time.process_time()
    with mock.patch.object(graph_module, "_BLOCK_BYTES", 16), mock.patch.object(
        graph_module, "_parse_block", counting
    ):
        graph = parse_edge_file(path)
    assert time.process_time() - started < 5
    assert graph.entity_names == ["a", "b", "c", long_tail.decode(), "d", "e"]
    assert max(sizes) <= 16 + len(long_tail) + 6


@pytest.mark.parametrize("style", list(LINE_ENDS))
@pytest.mark.parametrize("bad", [b"only\ttwo", b"c\tr\t\xff"], ids=["columns", "utf-8"])
def test_bad_line_after_a_block_boundary_is_named_in_every_style(tmp_path, style, bad):
    """Blocks of 5 to 40 bytes put a boundary before the bad line, and split CRLFs."""
    end = LINE_ENDS[style]
    path = tmp_path / "bad.tsv"
    path.write_bytes(end.join([b"a\tr\tb", b"cc\tr\tdd", b"", b"e\tr\tf", bad, b"g\tr\th", b""]))
    for block in range(5, 41):
        with mock.patch.object(graph_module, "_BLOCK_BYTES", block):
            with pytest.raises(ParseError) as err:
                parse_edge_file(path)
        assert err.value.line_number == 5, block


def write_conceptnet_dump(path, lines, seed):
    """ConceptNet-shaped assertion lines: sense suffixes, relation URIs with a
    slash inside, non-ASCII terms, repeated assertions and JSON metadata whose
    values hold slashes."""
    rng = np.random.default_rng(seed)
    terms = [f"w{i}" for i in range(3_000)] + ["café", "über_alles", "北京", "a_b/c"]
    relations = ["/r/IsA", "/r/RelatedTo", "/r/dbpedia/genre", "/r/HasContext"]
    senses = ["", "/n", "/v", "/n/wn/food", "/a/wn"]
    langs = ["en", "fr", "zh", "de"]
    rows = []
    for i in range(lines):
        if rows and i % 50 == 0:
            rows.append(rows[int(rng.integers(0, len(rows)))])  # a repeated assertion
            continue
        h, t = (terms[int(rng.integers(0, len(terms)))] for _ in range(2))
        rel = relations[int(rng.integers(0, len(relations)))]
        start = f"/c/{langs[i % 4]}/{h}{senses[int(rng.integers(0, 5))]}"
        end = f"/c/{langs[(i // 4) % 4]}/{t}{senses[int(rng.integers(0, 5))]}"
        meta = json.dumps(
            {
                "dataset": "/d/conceptnet/4/en",
                "license": "cc:by/4.0",
                "sources": [{"contributor": f"/s/contributor/omcs/user{i % 97}"}],
                "surfaceText": f"[[{h}]] is related to [[{t}]]",
                "weight": 1.0,
            },
            ensure_ascii=False,
        )
        rows.append(f"/a/[{rel}/,{start}/,{end}/]\t{rel}\t{start}\t{end}\t{meta}\n")
    path.write_text("".join(rows), encoding="utf-8")


def test_conceptnet_dump_of_several_blocks_equals_the_line_reference(tmp_path):
    """A dump of at least 3 default-size blocks parses to the reference's graph."""
    path = tmp_path / "dump.csv"
    write_conceptnet_dump(path, 14_000, seed=3)
    assert path.stat().st_size >= 3 * graph_module._BLOCK_BYTES
    blocks = []
    real = graph_module._parse_block

    def counting(data, *args):
        blocks.append(len(data))
        return real(data, *args)

    with mock.patch.object(graph_module, "_parse_block", counting):
        got = outcome(parse_edge_file, path, "conceptnet-dump")
    assert len(blocks) >= 3
    assert got[0] == "graph" and "dbpedia/genre" in got[2]
    assert got == outcome(reference_parse, path, "conceptnet-dump")


# Measured with tracemalloc on short generic lines (about 13.5 bytes, so
# 78,000 lines a 1 MiB block): reading peaked 12.1 and 11.6 blocks above what
# it held at its end, on files of 4 and of 8 blocks, and the whole parse 1.4
# and 0.8 blocks above twice the triple array. The bound leaves a quarter of
# the larger reading figure as headroom.
READ_WORKING_SET_BLOCKS = 16


@pytest.mark.parametrize("n_blocks", [4, 8])
def test_parse_memory_is_one_block_beyond_the_rows_and_names(tmp_path, n_blocks):
    """Reading holds the rows read so far, the names with their keys, and one
    block's working set, whatever the file's length; deduplicating the rows
    then holds at most twice the graph's triple array beyond that bound."""
    rng = np.random.default_rng(n_blocks)
    n = n_blocks * graph_module._BLOCK_BYTES // 13
    heads, tails = rng.integers(0, 1_000, (2, n)).tolist()
    path = tmp_path / "edges.tsv"
    path.write_text(
        "".join(f"e{h}\tr{i % 40}\te{t}\n" for i, (h, t) in enumerate(zip(heads, tails))),
        encoding="utf-8",
    )
    assert path.stat().st_size >= n_blocks * graph_module._BLOCK_BYTES
    reading = {}
    real = KnowledgeGraph.from_id_triples.__func__

    def deduplicate(cls, *args):
        reading["held"], reading["peak"] = tracemalloc.get_traced_memory()
        return real(cls, *args)

    tracemalloc.start()
    try:
        with mock.patch.object(KnowledgeGraph, "from_id_triples", classmethod(deduplicate)):
            graph = parse_edge_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = READ_WORKING_SET_BLOCKS * graph_module._BLOCK_BYTES
    assert graph.n_triples > 0.99 * n
    # the rows take 12 bytes a line; the last block's bytes and rows are still
    # referenced, and 1,000 names with their keys take far less than a block
    assert reading["held"] <= 12 * n + 2 * graph_module._BLOCK_BYTES
    assert reading["peak"] - reading["held"] <= bound
    assert peak <= 2 * graph.triples.nbytes + bound


# -- filtering ----------------------------------------------------------------


def test_filter_removes_excluded_relation(tmp_path):
    rows = [("a", "ExternalURL", "u1"), ("b", "ExternalURL", "u2"),
            ("c", "ExternalURL", "u3"), ("a", "IsA", "b")]
    graph = from_labeled_triples(rows)
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
    graph = from_labeled_triples(rows)
    spec = SplitSpec(0.75, 0.125, 0.125, seed=0)
    train, val, test = (graph.subset(i) for i in split_indices(graph.n_triples, spec))
    assert (train.n_triples, val.n_triples, test.n_triples) == (6, 1, 1)


def test_split_all_train():
    rows = [(f"h{i}", "r", f"t{i}") for i in range(5)]
    graph = from_labeled_triples(rows)
    spec = SplitSpec(1.0, 0.0, 0.0, seed=3)
    train, val, test = (graph.subset(i) for i in split_indices(graph.n_triples, spec))
    assert (train.n_triples, val.n_triples, test.n_triples) == (5, 0, 0)


def test_split_invalid_fractions():
    with pytest.raises(ConfigError, match=r"^split\.train/validation/test: must sum to 1\.0"):
        SplitSpec(0.5, 0.2, 0.2, seed=0)
    with pytest.raises(ConfigError, match=r"^split\.train/validation/test: must lie in \[0, 1\]"):
        SplitSpec(1.2, -0.1, -0.1, seed=0)


@given(n=st.integers(1, 60), seed=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_split_partitions(n, seed):
    rows = [(f"h{i}", f"r{i % 3}", f"t{i}") for i in range(n)]
    graph = from_labeled_triples(rows)
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
    assert stats.heads + stats.tails - stats.head_tail_overlap == stats.entities
    assert 2_781_892 + 1_387_571 - 235_623 == 3_933_840


def test_stats_empty_graph():
    named = KnowledgeGraph.from_id_triples(["a"], ["r"], np.empty((0, 3), dtype=np.int64))
    for graph in [from_labeled_triples([]), named]:
        stats = compute_stats(graph)
        assert stats.triples == stats.entities == stats.heads == stats.tails == 0
        assert stats.entity_triple_ratio is None
        assert stats.per_relation == {}
        assert stats == GraphStats(0, 0, 0, 0, 0, None, {})


def test_stats_tiny_fixture_hand_counts(tiny_graph):
    stats = compute_stats(tiny_graph)
    assert stats.triples == 6
    # entities: cat, dog, bird, animal, wing, paw
    assert stats.entities == 6
    assert stats.heads == 5  # cat, dog, bird, wing, paw
    assert stats.tails == 4  # animal, bird, cat, dog
    assert stats.head_tail_overlap == 3  # cat, dog, bird
    assert stats.heads + stats.tails - stats.head_tail_overlap == stats.entities
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
    graph = from_labeled_triples(
        [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rows]
    )
    stats = compute_stats(graph)
    assert stats.heads + stats.tails - stats.head_tail_overlap == stats.entities
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
    lines = edges.read_text(encoding="utf-8").splitlines()
    data_lines = sum(1 for line in lines if line and not line.startswith("#"))
    assert data_lines - graph.n_triples > graph.n_triples  # most lines are repeats
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


def test_dedup_keeps_first_occurrences():
    rows = np.asarray([[0, 0, 1], [0, 0, 1], [1, 0, 2], [0, 0, 1]])
    graph = KnowledgeGraph.from_id_triples(["a", "b", "c"], ["r"], rows)
    assert graph.n_triples == 2
    assert graph.triples.tolist() == [[0, 0, 1], [1, 0, 2]]


def reference_dedupe(n_entities, n_relations, triples):
    """from_id_triples' old collapse: np.unique's first indices, in input order."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    n_entities, n_relations = max(n_entities, 1), max(n_relations, 1)
    codes = (triples[:, 0] * n_relations + triples[:, 1]) * n_entities + triples[:, 2]
    _, first = np.unique(codes, return_index=True)
    return triples[np.sort(first)]


def test_dedupe_equals_the_reference_collapse(edge_case_graphs):
    rng = np.random.default_rng(5)
    for graph in edge_case_graphs:
        rows = graph.triples[rng.integers(0, max(graph.n_triples, 1), 3 * graph.n_triples)]
        built = KnowledgeGraph.from_id_triples(graph.entity_names, graph.relation_names, rows)
        kept = reference_dedupe(graph.n_entities, graph.n_relations, rows)
        assert built.triples.dtype == kept.dtype and built.triples.tobytes() == kept.tobytes()


@given(
    pool=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)), min_size=1, max_size=8
    ),
    picks=st.lists(st.integers(0, 7), max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_dedupe_of_many_repeated_rows_equals_the_reference(pool, picks):
    rows = np.asarray([pool[i % len(pool)] for i in picks], dtype=np.int64).reshape(-1, 3)
    built = KnowledgeGraph.from_id_triples([f"e{i}" for i in range(6)], ["r0", "r1", "r2"], rows)
    kept = reference_dedupe(6, 3, rows)
    assert built.triples.dtype == kept.dtype and built.triples.tobytes() == kept.tobytes()


def reference_from_id_triples(cls, entity_names, relation_names, triples):
    """from_id_triples before it shared ``_group``'s sort: a stable sort and a head mask."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    n_ent = max(len(entity_names), 1)
    n_rel = max(len(relation_names), 1)
    codes = triples[:, 0] * n_rel
    codes += triples[:, 1]
    codes *= n_ent
    codes += triples[:, 2]
    # a stable sort puts each code's first row at the head of its run
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    head = np.empty(len(codes), dtype=bool)
    head[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=head[1:])
    del codes
    first = order[head]
    del order, head
    first.sort()
    return cls(entity_names, relation_names, triples[first])


def assert_same_graph(got, expected):
    assert got.triples.dtype == expected.triples.dtype
    assert got.triples.tobytes() == expected.triples.tobytes()
    assert got.entity_names == expected.entity_names
    assert got.relation_names == expected.relation_names


@pytest.mark.parametrize(
    "rows",
    [
        np.empty((0, 3), np.int64),
        np.asarray([[1, 0, 2]] * 50),
        np.asarray([[2, 0, 1], [0, 0, 1], [1, 0, 0], [1, 0, 2]], dtype=np.int32),
    ],
    ids=["none", "one-repeated", "distinct-int32"],
)
def test_from_id_triples_equals_the_stable_sort_reference(rows):
    names = (["a", "b", "c"], ["r"])
    built = KnowledgeGraph.from_id_triples(*names, rows)
    assert_same_graph(built, reference_from_id_triples(KnowledgeGraph, *names, rows))
    assert built.n_triples == len(np.unique(rows, axis=0))


@given(
    n_ent=st.integers(1, 9),
    n_rel=st.integers(1, 4),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=400),
    pool=st.integers(1, 12),
)
@settings(max_examples=80, deadline=None)
def test_from_id_triples_of_many_repeats_equals_the_reference(n_ent, n_rel, picks, pool):
    # ``pool`` distinct draws repeated over up to 400 rows: runs of every length
    rng = np.random.default_rng(pool)
    distinct = np.column_stack(
        [rng.integers(0, n, pool) for n in (n_ent, n_rel, n_ent)]
    )
    rows = distinct[np.asarray(picks) % pool]
    names = ([f"e{i}" for i in range(n_ent)], [f"r{i}" for i in range(n_rel)])
    built = KnowledgeGraph.from_id_triples(*names, rows)
    assert_same_graph(built, reference_from_id_triples(KnowledgeGraph, *names, rows))


class IdsOnlyGraph(KnowledgeGraph):
    """A graph that keeps only its triples, so that name tables can be ranges too long to list."""

    def __init__(self, entity_names, relation_names, triples):
        self.triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)


def test_from_id_triples_near_the_code_bound_equals_the_reference():
    # n_entities^2 * n_relations = 2^63 - 2^33 + 2: the largest code is just below 2^63
    n_ent, n_rel = 2**31 - 1, 2
    assert n_ent * n_ent * n_rel < 2**63 - 1 < (n_ent + 1) * (n_ent + 1) * n_rel
    rng = np.random.default_rng(7)
    near = np.asarray([0, 1, n_ent - 2, n_ent - 1])
    rows = np.column_stack(
        [near[rng.integers(0, 4, 300)], rng.integers(0, n_rel, 300), near[rng.integers(0, 4, 300)]]
    )
    rows[0] = [n_ent - 1, n_rel - 1, n_ent - 1]  # the largest code
    names = (range(n_ent), range(n_rel))
    built = IdsOnlyGraph.from_id_triples(*names, rows)
    expected = reference_from_id_triples(IdsOnlyGraph, *names, rows)
    assert built.triples.tobytes() == expected.triples.tobytes()
    assert len(built.triples) == len(np.unique(rows, axis=0))


def assert_groups_like_unique(keys):
    got = graph_module._group(keys)
    expected = np.unique(keys, return_index=True, return_inverse=True)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(st.lists(st.sampled_from([0, 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1), max_size=300))
@settings(max_examples=80, deadline=None)
def test_group_equals_unique_on_uint64_keys(values):
    assert_groups_like_unique(np.asarray(values, dtype=np.uint64))


@given(
    words=st.integers(2, 4),
    pool=st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=10),
    picks=st.lists(st.integers(0, 9), max_size=300),
)
@settings(max_examples=80, deadline=None)
def test_group_equals_unique_on_void_keys(words, pool, picks):
    # names of 8 * (words - 1) to 8 * words - 1 bytes, packed as the interner packs them
    names = [(name * 32)[: 8 * (words - 1) + len(name) % 8] for name in pool]
    spans = [names[i % len(names)] for i in picks]
    buf = np.frombuffer(b"".join(spans) + bytes(8), dtype=np.uint8)
    length = np.asarray([len(span) for span in spans], dtype=np.int64)
    keys = graph_module._pack(buf, np.cumsum(length) - length, length, words)
    assert keys.dtype == np.dtype((np.void, 8 * words))
    assert_groups_like_unique(keys)


def test_from_id_triples_peaks_no_higher_than_the_reference():
    """The shared sort holds no more at once than the stable sort did.

    tracemalloc counts numpy's array buffers, and Python's own objects too:
    those differ by a few bytes from call to call, so 1 KiB is allowed for
    them. On input this close to duplicate-free, both peak at the final copy
    of the kept rows.
    """
    import tracemalloc

    rng = np.random.default_rng(11)
    n, n_ent, n_rel = 200_000, 60_000, 30
    rows = np.column_stack(
        [rng.integers(0, n_ent, n), rng.integers(0, n_rel, n), rng.integers(0, n_ent, n)]
    )
    rows[rng.integers(0, n, n // 50)] = rows[rng.integers(0, n, n // 50)]  # some repeats
    names = ([f"e{i}" for i in range(n_ent)], [f"r{i}" for i in range(n_rel)])
    peaks = []
    for build in (
        KnowledgeGraph.from_id_triples,
        lambda *args: reference_from_id_triples(KnowledgeGraph, *args),
    ):
        build(*names, rows[:100])  # first calls allocate numpy's and Python's caches
        tracemalloc.start()
        try:
            graph = build(*names, rows)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del graph
    assert peaks[1] > n * 24  # the reference's copy of the kept rows was traced
    assert peaks[0] <= peaks[1] + 1024


# The sort's working set, in bytes a row: the int64 codes, their int64 order
# and the sorted codes, the run-start mask and the comparison it is copied from.
SORT_BYTES_PER_ROW = 8 + 8 + 8 + 1 + 1
# The copy's working set, in bytes a block row: one block's int32 rows and
# their int64 indices, while the block before's rows are still held.
BLOCK_BYTES_PER_ROW = 12 + 8 + 12


@pytest.mark.parametrize(
    "n_ent, n_rel, repeats",
    [(1_000, 10, 0), (1_000, 10, 1), (30, 30, None)],
    ids=["distinct", "one-repeat", "87pct-repeats"],
)
def test_from_id_triples_holds_the_sort_or_the_output_never_both(n_ent, n_rel, repeats):
    """The sort's arrays are freed before the graph's int64 rows are built.

    The kept rows are marked in a mask and copied block by block to int64,
    with no index sort and no whole int32 gather, so one repeated row costs
    no more than none. Here the sort peaks at 5.20 MB and the copy at 5.53
    MB: the mask and the int64 rows (5.00 MB) and one block's gather. They
    peaked at 7.21 MB when the rows were gathered whole as well. 200k rows
    over 30 x 30 ids (87 % repeats) peak in the sort, at 5.20 MB. 64 KiB
    covers the name lists and Python's own objects.
    """
    rng = np.random.default_rng(3)
    n = 200_000
    if repeats is None:
        rows = np.column_stack([rng.integers(0, k, n) for k in (n_ent, n_rel, n_ent)])
    else:
        codes = rng.choice(n_ent * n_rel * n_ent, n - repeats, replace=False)
        codes = np.concatenate([codes, codes[:repeats]])
        rows = np.column_stack([codes // (n_rel * n_ent), codes // n_ent % n_rel, codes % n_ent])
    rows = rows.astype(np.int32)  # the parser's rows
    names = ([f"e{i}" for i in range(n_ent)], [f"r{i}" for i in range(n_rel)])
    KnowledgeGraph.from_id_triples(*names, rows[:100])  # first calls fill numpy's caches
    tracemalloc.start()
    try:
        graph = KnowledgeGraph.from_id_triples(*names, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if repeats is not None:
        assert graph.n_triples == n - repeats
    copying = n + graph.triples.nbytes + BLOCK_BYTES_PER_ROW * graph_module._KEEP_BLOCK
    assert peak <= max(SORT_BYTES_PER_ROW * n, copying) + 64 * 1024


@pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "repeated"])
def test_graph_keeps_its_rows_when_the_caller_changes_an_int64_input(repeat):
    rows = np.asarray([[0, 0, 1], [1, 0, 2], [2, 0, 0]], dtype=np.int64)
    if repeat:
        rows = np.concatenate([rows, rows[:1]])
    graph = KnowledgeGraph.from_id_triples(["a", "b", "c"], ["r"], rows)
    before = graph.triples.copy()
    rows[:] = 0
    assert np.array_equal(graph.triples, before) and graph.n_triples == 3


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

    with pytest.raises(DataError, match="'nope'"):
        tiny_graph.relation_rows("nope")


def test_relation_rows_are_the_relation_index_rows(edge_case_graphs):
    from kgstruct.errors import DataError

    for graph in edge_case_graphs:
        for rid, name in enumerate(graph.relation_names):
            if rid in graph.relation_index:
                assert np.array_equal(graph.relation_rows(name), graph.relation_index[rid])
            else:
                with pytest.raises(DataError, match=repr(name)):
                    graph.relation_rows(name)


@pytest.mark.parametrize("relations", [[], ["r", "s"]])
def test_a_graph_without_triples_has_an_empty_relation_index(relations):
    from kgstruct.errors import DataError

    graph = KnowledgeGraph.from_id_triples(["a"], relations, np.empty((0, 3), dtype=np.int64))
    assert graph.relation_index == {}
    for name in [*relations, "nope"]:
        with pytest.raises(DataError, match=repr(name)):
            graph.relation_rows(name)


def test_relation_rows_of_a_relation_without_triples_raise(tiny_graph):
    from kgstruct.errors import DataError

    is_a = tiny_graph.relation_names.index("IsA")
    kept = np.flatnonzero(tiny_graph.triples[:, 1] != is_a)
    subset = tiny_graph.subset(kept, recompact=False)
    assert "IsA" in subset.relation_names
    with pytest.raises(DataError, match="'IsA'"):
        subset.relation_rows("IsA")
    assert np.array_equal(subset.relation_rows("PartOf"), np.arange(len(kept)))


def reference_write_generic_3col(graph, path):
    """The serializer's old loop: each triple's names checked and written one by one."""
    from kgstruct.errors import DataError

    def check(name, role):
        if "\t" in name or "\n" in name:
            raise DataError(f"{role} {name!r} contains a tab or newline")
        return name

    with open(path, "w", encoding="utf-8") as out:
        for h, r, t in graph.triples:
            head = check(graph.entity_names[h], "entity")
            if head.startswith("#"):
                raise DataError(f"entity {head!r} would serialize as a comment line")
            out.write(
                f"{head}\t{check(graph.relation_names[r], 'relation')}"
                f"\t{check(graph.entity_names[t], 'entity')}\n"
            )


def write_outcome(write, graph, path):
    from kgstruct.errors import DataError

    try:
        write(graph, path)
    except DataError as exc:
        return ("error", str(exc))
    return ("bytes", path.read_bytes())


def test_serializer_rejects_unserializable_names(tmp_path):
    from kgstruct.errors import DataError

    graph = from_labeled_triples([("a\tb", "r", "c")])
    with pytest.raises(DataError):
        write_generic_3col(graph, tmp_path / "bad.tsv")
    graph = from_labeled_triples([("#lead", "r", "c")])
    with pytest.raises(DataError):
        write_generic_3col(graph, tmp_path / "bad2.tsv")


def test_serializer_writes_the_reference_bytes(edge_case_graphs, tiny_graph, tmp_path):
    # a graph without triples writes an empty file, whatever names its tables hold
    empty = KnowledgeGraph(["#a\t", ""], ["r\n"], np.empty((0, 3), dtype=np.int64))
    for graph in [tiny_graph, *edge_case_graphs, empty]:
        got = write_outcome(write_generic_3col, graph, tmp_path / "new.tsv")
        assert got[0] == "bytes"
        assert got == write_outcome(reference_write_generic_3col, graph, tmp_path / "old.tsv")
    assert got == ("bytes", b"")


@pytest.mark.parametrize(
    "rows",
    [
        [("a\tb", "r", "c")],
        [("#lead", "r", "c")],
        [("a", "r\nx", "b")],
        [("a", "r", "b\nc")],
        [("a", "r", "b"), ("c", "r", "#tail"), ("#lead", "r", "a")],  # '#' only matters as a head
        [("a", "r", "#x"), ("b", "r\tq", "c"), ("#x", "r", "b")],  # the first bad triple wins
        [("#h\tx", "r", "b")],  # a head's tab is reported before its '#'
        [("a", "r\t", "b\t"), ("b\t", "r", "a")],  # the relation before the tail
    ],
)
def test_serializer_raises_the_reference_error(tmp_path, rows):
    graph = from_labeled_triples(rows)
    path = tmp_path / "new.tsv"
    got = write_outcome(write_generic_3col, graph, path)
    assert got[0] == "error"
    assert got == write_outcome(reference_write_generic_3col, graph, tmp_path / "old.tsv")
    assert not path.exists()  # nothing is written


@pytest.mark.parametrize(
    "rows, message",
    [
        ([("a", "r", "b"), ("a\rb", "r", "c")], "entity 'a\\rb' contains a tab or newline"),
        ([("a", "r", "b\r")], "entity 'b\\r' contains a tab or newline"),
        ([("a", "r\r", "b")], "relation 'r\\r' contains a tab or newline"),
        ([("\ufeffd", "r", "b")], "entity '\\ufeffd' would be read as a byte-order mark"),
        ([("a", "r", "b"), ("", "r", "a")], "entity '' is empty"),
        ([("a", "", "b")], "relation '' is empty"),
        ([("a", "r", "")], "entity '' is empty"),
        ([("a", "r", "b"), ("x\ud800", "r", "a")], "entity 'x\\ud800' cannot be encoded as UTF-8"),
        ([("a", "\udfff", "b")], "relation '\\udfff' cannot be encoded as UTF-8"),
        ([("a", "r", "\ud800")], "entity '\\ud800' cannot be encoded as UTF-8"),
    ],
    ids=[
        "cr-in-a-head", "cr-in-a-tail", "cr-in-a-relation", "bom-first-head",
        "empty-head", "empty-relation", "empty-tail",
        "surrogate-head", "surrogate-relation", "surrogate-tail",
    ],
)
def test_serializer_refuses_what_the_parser_would_read_back_otherwise(tmp_path, rows, message):
    """The parser ends a line at a lone CR, skips a byte-order mark that opens the file,
    refuses an empty field, and reads UTF-8, which has no lone surrogates."""
    from kgstruct.errors import DataError

    path = tmp_path / "out.tsv"
    with pytest.raises(DataError) as err:
        write_generic_3col(from_labeled_triples(rows), path)
    assert str(err.value) == message
    assert not path.exists()


def test_serializer_writes_a_byte_order_mark_after_the_first_line(tmp_path):
    graph = from_labeled_triples([("a", "r", "\ufeffb"), ("\ufeffc", "r", "a")])
    write_generic_3col(graph, tmp_path / "out.tsv")
    again = parse_edge_file(tmp_path / "out.tsv")
    assert again.entity_names == graph.entity_names == ["a", "\ufeffb", "\ufeffc"]
    assert np.array_equal(again.triples, graph.triples)


def test_serializer_skips_names_no_triple_uses(tmp_path):
    graph = from_labeled_triples([("a", "r", "b"), ("#c\t", "s\n", "d")])
    kept = graph.subset(np.asarray([0]), recompact=False)
    write_generic_3col(kept, tmp_path / "out.tsv")
    assert (tmp_path / "out.tsv").read_text(encoding="utf-8") == "a\tr\tb\n"


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
    graph = from_labeled_triples(rows)
    path = tmp_path_factory.mktemp("rt") / "graph.tsv"
    if rows[0][0].startswith("\ufeff"):  # the parser would skip it as the file's byte-order mark
        from kgstruct.errors import DataError

        with pytest.raises(DataError, match="byte-order mark"):
            write_generic_3col(graph, path)
        return
    write_generic_3col(graph, path)
    reference = path.with_name("reference.tsv")
    reference_write_generic_3col(graph, reference)
    assert path.read_bytes() == reference.read_bytes()
    again = parse_edge_file(path)
    assert again.entity_names == graph.entity_names
    assert again.relation_names == graph.relation_names
    assert np.array_equal(again.triples, graph.triples)

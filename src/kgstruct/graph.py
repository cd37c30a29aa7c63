"""Knowledge graph ingestion: parsing, filtering, sampling, splitting, statistics."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import ConfigError, DataError, ParseError

GENERIC_3COL = "generic-3col"
CONCEPTNET_DUMP = "conceptnet-dump"
FORMATS = (GENERIC_3COL, CONCEPTNET_DUMP)

# Rows copied at once into a new graph's int64 triples: their narrower
# gathered copy stays small beside the whole table.
_KEEP_BLOCK = 1 << 14


class KnowledgeGraph:
    """In-memory multi-relational graph with interned entities and relations.

    Entities and relations get dense integer ids in first-seen order. Triples
    are stored as an (n, 3) int64 array of (head, relation, tail) ids; the
    parser and ``from_id_triples`` keep each distinct triple once, at its
    first occurrence. Relations are looked up by name with
    :meth:`relation_rows`. Instances are immutable once built and safe to
    share across concurrent readers.
    """

    def __init__(self, entity_names: list[str], relation_names: list[str], triples: np.ndarray):
        self.entity_names = list(entity_names)
        self.relation_names = list(relation_names)
        self.triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_id_triples(
        cls, entity_names: list[str], relation_names: list[str], triples: np.ndarray
    ) -> "KnowledgeGraph":
        """Build a graph from raw id rows, keeping each triple's first occurrence in input order.

        Row codes are sorted by ``_sorted_runs``, as ``_group``'s keys are; the
        least row index of a run is its first occurrence. No inverse is built.
        The first occurrences are marked in a mask over the rows, which puts
        them in input order without sorting their indices, and are copied
        block by block into a new int64 array, so the graph never shares a
        caller's array and holds no second copy of its rows at any width. The
        rows may be of any integer type (the parser's are int32); the codes
        are int64 and the graph's triples int64.
        """
        triples = np.asarray(triples).reshape(-1, 3)
        n_ent, n_rel = max(len(entity_names), 1), max(len(relation_names), 1)
        codes = triples[:, 0].astype(np.int64)
        codes *= n_rel
        codes += triples[:, 1]
        codes *= n_ent
        codes += triples[:, 2]
        order, starts = _sorted_runs(codes)
        del codes
        first = np.minimum.reduceat(order, np.flatnonzero(starts))
        del order, starts
        keep = np.zeros(len(triples), dtype=bool)
        keep[first] = True
        del first
        kept = np.empty((np.count_nonzero(keep), 3), dtype=np.int64)
        at = 0
        for lo in range(0, len(triples), _KEEP_BLOCK):
            block = slice(lo, lo + _KEEP_BLOCK)
            rows = np.compress(keep[block], triples[block], axis=0)
            kept[at : at + len(rows)] = rows
            at += len(rows)
        return cls(entity_names, relation_names, kept)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    @cached_property
    def relation_index(self) -> dict[int, np.ndarray]:
        """relation id -> sorted array of triple row indices, for each relation with triples."""
        # a key narrower than 16 bits is radix-sorted; stability keeps each
        # relation's rows ascending, so each relation's rows are one run
        rel_col = self.triples[:, 1].astype(np.min_scalar_type(self.n_relations))
        order = np.argsort(rel_col, kind="stable")
        runs = np.split(order, np.searchsorted(rel_col[order], np.arange(1, self.n_relations)))
        return {rid: rows for rid, rows in enumerate(runs) if len(rows)}

    @cached_property
    def _relation_ids(self) -> dict[str, int]:
        return {name: rid for rid, name in enumerate(self.relation_names)}

    def relation_rows(self, name: str) -> np.ndarray:
        """Ascending triple row indices of the relation called ``name``.

        A name that no triple of this graph asserts (unknown here, or left
        without triples by ``subset(..., recompact=False)``) is a DataError.
        """
        rid = self._relation_ids.get(name)
        rows = None if rid is None else self.relation_index.get(rid)
        if rows is None:
            raise DataError(f"relation has no triples: {name!r}")
        return rows

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(entities={self.n_entities}, "
            f"relations={self.n_relations}, triples={self.n_triples})"
        )

    # -- derived graphs ----------------------------------------------------

    def subset(self, indices: np.ndarray, recompact: bool = True) -> "KnowledgeGraph":
        """New graph keeping only the given triple rows.

        With ``recompact`` the entity and relation tables are rebuilt in
        first-seen order over the kept triples, so the interning invariant
        (every id is referenced) holds on the result.
        """
        indices = np.asarray(indices, dtype=np.int64)
        rows = self.triples[indices]
        if not recompact:
            return KnowledgeGraph(self.entity_names, self.relation_names, rows)
        ent_flat = rows[:, [0, 2]].ravel()  # h0, t0, h1, t1, ... first-seen order
        ent_old, ent_new = _compact_ids(ent_flat)
        rel_old, rel_new = _compact_ids(rows[:, 1])
        out = np.empty_like(rows)
        out[:, [0, 2]] = ent_new.reshape(-1, 2)
        out[:, 1] = rel_new
        entity_names = [self.entity_names[i] for i in ent_old]
        relation_names = [self.relation_names[i] for i in rel_old]
        return KnowledgeGraph(entity_names, relation_names, out)


def _compact_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ids densely in first-seen order.

    Returns (old ids in first-seen order, renumbered copy of ``values``).
    """
    distinct, first, inverse = _group(values)
    order = np.argsort(first)
    return distinct[order], np.argsort(order)[inverse]


# -- parsing ---------------------------------------------------------------

# Bytes read per block. A block is parsed up to its last line end, of any
# style, and the partial line after it opens the next block. Beyond the rows
# read so far and the distinct names and their keys, the parser holds one
# block's working set, whatever the file's length.
_BLOCK_BYTES = 1 << 20


def parse_edge_file(path: str | Path, format: str = GENERIC_3COL) -> KnowledgeGraph:
    """Parse a tab-separated edge list into a deduplicated KnowledgeGraph.

    ``generic-3col`` lines hold exactly head, relation and tail; blank lines
    and ``#`` comments are skipped. ``conceptnet-dump`` lines hold at least
    assertion URI, relation URI, start URI and end URI (a trailing JSON
    metadata column is ignored); an entity URI ``x/c/<lang>/<term>[/...]``
    is reduced to its term and a relation URI ``/r/<name>`` to its name.
    Input order is preserved; a repeated triple is kept once, at its first
    occurrence. Lines end at LF, CRLF or a lone CR. A UTF-8 byte-order mark
    at the start of the file is skipped.

    The file is read once, in blocks of whole lines, and each ``ParseError``
    names the first bad line. One precedence rule follows from the blocks:
    a byte that is not UTF-8 is reported before any structural error (a
    column count, an empty field) of its own block, even on an earlier line.
    Errors in earlier blocks come first.
    """
    if format not in FORMATS:
        raise ConfigError(f"unknown edge file format: {format!r}")
    path = Path(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    entities, relations = _SpanInterner(), _SpanInterner()
    blocks = []
    lines_before = 0
    with handle:
        for data in _line_blocks(handle):
            if not blocks and data.startswith(b"\xef\xbb\xbf"):
                data = data[3:]
            if b"\r" in data:
                data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            rows, n_lines = _parse_block(data, format, entities, relations, path, lines_before)
            blocks.append(rows)
            lines_before += n_lines
    triples = np.concatenate(blocks) if blocks else np.empty((0, 3), np.int32)
    del blocks
    return KnowledgeGraph.from_id_triples(entities.names, relations.names, triples)


def _line_blocks(handle: BinaryIO) -> Iterator[bytes]:
    """``handle``'s bytes in blocks of whole lines, cut at the last line end of each read.

    A CR that ends a read may be half of a CRLF, so it waits: it ends its line
    unless the next read opens with an LF. Only the new bytes are searched for
    line ends, and a line longer than a read is joined once, when its end
    arrives.
    """
    pending: list[bytes] = []  # the reads since the last line end
    while read := handle.read(_BLOCK_BYTES):
        cut = max(read.rfind(b"\n"), read.rfind(b"\r", 0, -1)) + 1
        if cut or pending and pending[-1].endswith(b"\r"):
            block = b"".join([*pending, memoryview(read)[:cut]])
            pending = [read[cut:]]
            del read  # one read less held while the block is parsed
            yield block
        else:
            pending.append(read)
    if rest := b"".join(pending):
        yield rest


def _parse_block(
    data: bytes,
    format: str,
    entities: _SpanInterner,
    relations: _SpanInterner,
    path: Path,
    lines_before: int,
) -> tuple[np.ndarray, int]:
    """Checked (head, relation, tail) id rows of a block of whole lines, and its line count."""
    try:
        data.isascii() or data.decode("utf-8")  # ASCII needs no decoding
    except UnicodeDecodeError as exc:
        line = lines_before + data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, f"not valid UTF-8 ({exc.reason})") from exc
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data + bytes(8), dtype=np.uint8)  # key words may overrun a span
    ent_lo, ent_hi, rel_lo, rel_hi, n_lines = _field_spans(buf, format, path, lines_before)
    out = np.empty((len(rel_lo), 3), dtype=np.int32)
    out[:, ::2] = entities.intern(buf, ent_lo, ent_hi).reshape(-1, 2)
    out[:, 1] = relations.intern(buf, rel_lo, rel_hi)
    return out, n_lines


def _field_spans(
    buf: np.ndarray, format: str, path: Path, lines_before: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Byte spans [lo, hi) of the names on a block's data lines, and its line count.

    Entity spans come first, each line's head before its tail, so that
    entities are interned in line order; then one relation span per line.
    Positions are int32, as a block is far below 2 GiB; bytes are gathered
    at them with ``np.take``, which fancy indexing by int32 trails. Lines end
    at byte 10 and fields at byte 9; both are ASCII, so no multi-byte
    character of valid UTF-8 holds them.
    """
    # tabs and line ends in one scan, with the rarer bytes below the tab left
    # out after it; each line's separators then follow each other
    seps = np.flatnonzero(buf <= ord("\n")).astype(np.int32)
    seps = seps[np.take(buf, seps) >= ord("\t")]
    line_end = np.flatnonzero(np.take(buf, seps) == ord("\n"))  # index in seps of each line's end
    first_sep = np.concatenate(([0], line_end[:-1] + 1))
    n_tabs = line_end - first_sep
    starts = np.concatenate(([0], seps[line_end[:-1]] + 1), dtype=np.int32)
    data_line = (seps[line_end] > starts) & (np.take(buf, starts) != ord("#"))
    generic = format == GENERIC_3COL
    bad_count = data_line & ((n_tabs != 2) if generic else (n_tabs < 3))
    rows = np.flatnonzero(data_line & ~bad_count)
    base = first_sep[rows]

    def field(j):
        # a good row has a separator after each column read here: seps[base + j]
        return (starts[rows] if j == 0 else seps[base + (j - 1)] + 1), seps[base + j]

    if generic:
        head, relation, tail = field(0), field(1), field(2)
    else:
        slashes = np.flatnonzero(buf == ord("/")).astype(np.int32)
        head, tail = (_concept_term(buf, slashes, *field(j)) for j in (2, 3))
        relation = _relation_name(buf, *field(1))
    empty = (head[0] == head[1]) | (relation[0] == relation[1]) | (tail[0] == tail[1])

    bad = np.flatnonzero(bad_count)
    first_empty = rows[np.argmax(empty)] if empty.any() else len(line_end)
    if len(bad) and bad[0] < first_empty:
        expected = "3" if generic else "at least 4"
        raise ParseError(
            path,
            lines_before + int(bad[0]) + 1,
            f"expected {expected} tab-separated columns, got {int(n_tabs[bad[0]]) + 1}",
        )
    if first_empty < len(line_end):
        raise ParseError(path, lines_before + int(first_empty) + 1, "empty head, relation, or tail")
    ent_lo = np.column_stack((head[0], tail[0])).ravel()
    ent_hi = np.column_stack((head[1], tail[1])).ravel()
    return ent_lo, ent_hi, *relation, len(line_end)


def _concept_term(
    buf: np.ndarray, slashes: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Spans of ``uri.split("/")[3]`` where ``uri.split("/")[1] == "c"``, else of the URI.

    ``slashes`` holds the ascending positions of ``/`` in ``buf``.
    """
    lo, hi = lo.copy(), hi.copy()
    k = np.searchsorted(slashes, lo)
    count = np.searchsorted(slashes, hi) - k
    at = np.flatnonzero(count >= 3)
    k = k[at]
    concept = (slashes[k + 1] == slashes[k] + 2) & (buf[slashes[k] + 1] == ord("c"))
    at, k = at[concept], k[concept]
    lo[at] = slashes[k + 2] + 1
    more = count[at] > 3
    hi[at[more]] = slashes[k[more] + 3]
    return lo, hi


def _relation_name(
    buf: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Spans of each URI after a leading ``/r/``, or of the whole URI."""
    prefixed = (hi - lo >= 3) & (buf[lo] == ord("/")) & (buf[lo + 1] == ord("r"))
    prefixed &= buf[lo + 2] == ord("/")
    return np.where(prefixed, lo + 3, lo), hi


# A key run smaller than this absorbs every run after it, so the key tables
# of a graph with few names stay one sorted array each.
_SMALL_RUN = 1 << 16


class _SpanInterner:
    """Dense ids, in first-seen order, for names given as byte spans of blocks.

    A span of n bytes is packed into n // 8 + 1 little-endian uint64 words,
    zero-padded, with n % 8 in the top byte of the last word. Two spans with
    the same word count are then equal exactly when their keys are. Keys of
    one word are uint64, longer ones one void scalar each.

    For each word count the interner keeps sorted runs of every key seen so
    far, with its id. A block's keys are grouped by sorting, its distinct
    keys are looked up in the runs with ``searchsorted``, and only names
    never seen before are decoded; their keys become a new run. A run merges
    into the run before it while that one holds fewer than ``_SMALL_RUN``
    keys or less than twice its own. So each key is copied O(log names)
    times, there are at most log2(names) runs, and the state grows with the
    distinct names, not with the spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self._runs: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    def intern(self, buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Ids of the spans ``buf[lo:hi]``, interning new names in span order."""
        length = hi - lo
        ids, new_keys, new_spans = self._lookup(buf, lo, length)
        if not new_spans:
            return ids
        # names never seen before get ids in the order of their first span
        first_spans = np.concatenate(new_spans)
        order = np.argsort(first_spans)
        new_ids = np.empty(len(order), dtype=np.int32)
        new_ids[order] = np.arange(len(self.names), len(self.names) + len(order))
        provisional = np.flatnonzero(ids < 0)
        ids[provisional] = new_ids[-1 - ids[provisional]]
        offset = 0
        for size, keys in new_keys:
            self._add_run(size, keys, new_ids[offset : offset + len(keys)])
            offset += len(keys)
        first_spans = first_spans[order]
        self.names += _decode_spans(buf, lo[first_spans], length[first_spans])
        return ids

    def _lookup(
        self, buf: np.ndarray, lo: np.ndarray, length: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[int, np.ndarray]], list[np.ndarray]]:
        """The id of each span's name, or -1 - k for the k-th name new to the runs.

        Also the new names' keys, as (word count, sorted keys) pairs, and the
        first span of each, in the same order. A block's spans are grouped by
        word count, and each group's arrays die with its turn.
        """
        ids = np.empty(len(lo), dtype=np.int32)
        new_keys, new_spans = [], []
        if not len(lo):
            return ids, new_keys, new_spans
        narrow = (length // 8 + 1).astype(np.min_scalar_type(int(length.max()) // 8 + 1))
        by_words = np.argsort(narrow, kind="stable")  # radix below 16 bits
        sizes = narrow[by_words]
        bounds = np.flatnonzero(np.concatenate(([True], sizes[1:] != sizes[:-1], [True])))
        n_new = 0
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            at = by_words[a:b]
            size = int(sizes[a])
            keys, first, inverse = _group(_pack(buf, lo[at], length[at], size))
            key_ids = self._find(size, keys)
            new = np.flatnonzero(key_ids < 0)
            if len(new):
                key_ids[new] = np.arange(-1 - n_new, -1 - n_new - len(new), -1)
                n_new += len(new)
                new_keys.append((size, keys[new]))
                new_spans.append(at[first[new]])
            ids[at] = key_ids[inverse]
        return ids, new_keys, new_spans

    def _find(self, size: int, keys: np.ndarray) -> np.ndarray:
        """Id of each sorted distinct key of ``size`` words, or -1 for a key never seen."""
        ids = np.full(len(keys), -1, dtype=np.int32)
        for run_keys, run_ids in self._runs.get(size, ()):
            pos = np.minimum(np.searchsorted(run_keys, keys), len(run_keys) - 1)
            hit = run_keys[pos] == keys
            ids[hit] = run_ids[pos[hit]]
        return ids

    def _add_run(self, size: int, keys: np.ndarray, ids: np.ndarray) -> None:
        runs = self._runs.setdefault(size, [])
        runs.append((keys, ids))
        while len(runs) > 1 and len(runs[-2][0]) < max(2 * len(runs[-1][0]), _SMALL_RUN):
            (old_keys, old_ids), (keys, ids) = runs[-2:]
            pos = np.searchsorted(old_keys, keys)
            runs[-2:] = [(np.insert(old_keys, pos, keys), np.insert(old_ids, pos, ids))]


# a word's low t bytes, and the byte count t in a word's top byte, for t = 0..7
_LOW_BYTES = np.array([(1 << 8 * t) - 1 for t in range(8)], dtype="<u8")
_TOP_COUNT = np.arange(8, dtype="<u8") << np.uint64(56)


def _pack(buf: np.ndarray, lo: np.ndarray, length: np.ndarray, n_words: int) -> np.ndarray:
    """Keys of the spans ``buf[lo:lo + length]`` of ``n_words`` words each (see ``_SpanInterner``)."""
    word_at = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    packed = np.empty((len(lo), n_words), dtype="<u8")
    for j in range(n_words):
        packed[:, j] = word_at[lo + 8 * j]
    tail = length & 7  # the bytes in the last word
    packed[:, -1] &= np.take(_LOW_BYTES, tail)
    packed[:, -1] |= np.take(_TOP_COUNT, tail)
    return packed.ravel() if n_words == 1 else packed.view((np.void, 8 * n_words)).ravel()


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An unstable argsort of ``keys``, and a mask of the sorted places that start a run."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    starts[1:] = ordered[1:] != ordered[:-1]  # np.not_equal(..., out=) has no loop for void keys
    return order, starts


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)``, by ``_sorted_runs``."""
    order, starts = _sorted_runs(keys)
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return keys[first], first, inverse


def _decode_spans(buf: np.ndarray, lo: np.ndarray, length: np.ndarray) -> list[str]:
    """The UTF-8 text of each span ``buf[lo:lo + length]``, decoded in one call.

    Each span is gathered with the byte after it, every such byte is made a
    tab, and the text is split there; a name holds no tab.
    """
    ends = np.cumsum(length + 1)
    # each gathered place's buffer position, as steps from the place before
    at = np.ones(int(ends[-1]), dtype=np.int64)
    at[0] = lo[0]
    at[ends[:-1]] = lo[1:] - (lo[:-1] + length[:-1])
    gathered = buf[np.cumsum(at, out=at)]
    del at
    gathered[ends - 1] = ord("\t")
    return gathered[:-1].tobytes().decode("utf-8").split("\t")


def _unwritable(name: str) -> str:
    """Why ``name`` cannot be a field of a generic-3col line, or "" if it can."""
    if "\t" in name or "\n" in name or "\r" in name:
        return "contains a tab or newline"
    if name.isascii():
        return "" if name else "is empty"
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return "cannot be encoded as UTF-8"
    return ""


def write_generic_3col(graph: KnowledgeGraph, path: str | Path) -> None:
    """Serialize as tab-separated head/relation/tail lines, one per triple.

    Symbols that cannot survive the format (an empty name, one that UTF-8
    cannot encode, such as a lone surrogate, an embedded tab, LF or CR, a head
    starting with the ``#`` comment marker, or a first head starting with
    U+FEFF, which would read as a byte-order mark) are rejected rather than
    written unparseably: the error names the first such symbol in triple
    order, and nothing is written.
    """
    ent, rel = graph.entity_names, graph.relation_names
    triples = graph.triples
    if len(triples) and ent[triples[0, 0]].startswith("\ufeff"):
        raise DataError(f"entity {ent[triples[0, 0]]!r} would be read as a byte-order mark")
    # one reason per name and column, "" where the name can fill the column
    tail = [_unwritable(name) for name in ent]
    comment = "would serialize as a comment line"
    head = [why or (comment if name.startswith("#") else "") for name, why in zip(ent, tail)]
    reasons = (head, [_unwritable(name) for name in rel], tail)
    flags = [np.fromiter(map(bool, why), bool, len(why)) for why in reasons]
    bad = np.column_stack([flag[triples[:, j]] for j, flag in enumerate(flags)])
    if bad.any():
        row, j = divmod(int(np.argmax(bad)), 3)
        i = triples[row, j]
        kind, names = ("relation", rel) if j == 1 else ("entity", ent)
        raise DataError(f"{kind} {names[i]!r} {reasons[j][i]}")
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(f"{ent[h]}\t{rel[r]}\t{ent[t]}\n" for h, r, t in triples.tolist())


# -- filtering / sampling / splitting ---------------------------------------


def filter_relations(graph: KnowledgeGraph, exclude: set[str]) -> KnowledgeGraph:
    """Drop all triples whose relation name is in ``exclude``.

    Excluding an absent relation is a no-op. Entity and relation tables are
    re-compacted to the symbols still referenced.
    """
    excluded_ids = [i for i, name in enumerate(graph.relation_names) if name in exclude]
    keep = ~np.isin(graph.triples[:, 1], excluded_ids)
    return graph.subset(np.flatnonzero(keep))


def sample_triples(graph: KnowledgeGraph, n: int, seed: int) -> KnowledgeGraph:
    """Uniform sample of min(n, |triples|) triples without replacement.

    Deterministic for a fixed seed; the kept triples stay in input order.
    """
    if n < 0:
        raise ConfigError(f"sample size must be >= 0, got {n}")
    m = min(int(n), graph.n_triples)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(graph.n_triples, size=m, replace=False)
    return graph.subset(np.sort(chosen))


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the shuffling seed."""

    train: float = 0.75
    validation: float = 0.125
    test: float = 0.125
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train, self.validation, self.test)
        if any(not 0.0 <= f <= 1.0 for f in fracs):
            raise ConfigError(f"split.train/validation/test: must lie in [0, 1], got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split.train/validation/test: must sum to 1.0, got {fracs}")


def split_indices(
    n: int, spec: SplitSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint (train, validation, test) row indices covering range(n).

    Validation and test get floor(fraction * n) rows each; train absorbs the
    remainder. Each index array is sorted ascending.
    """
    n_val = int(np.floor(spec.validation * n))
    n_test = int(np.floor(spec.test * n))
    rng = np.random.default_rng(spec.seed)
    train, val, test = np.split(rng.permutation(n), [n - n_val - n_test, n - n_test])
    return np.sort(train), np.sort(val), np.sort(test)


# -- statistics --------------------------------------------------------------


@dataclass(frozen=True)
class RelationStats:
    triples: int
    entities: int
    head_tail_ratio: float | None  # |head set| / |tail set|, None if tails empty


@dataclass(frozen=True)
class GraphStats:
    """Global and per-relation counts with the head/tail overlap breakdown."""

    triples: int
    entities: int
    heads: int
    tails: int
    head_tail_overlap: int
    entity_triple_ratio: float | None
    per_relation: dict[str, RelationStats]


def compute_stats(graph: KnowledgeGraph) -> GraphStats:
    """Count triples and entities globally and per relation.

    The inclusion-exclusion identity |heads| + |tails| - |overlap| = |entities|
    holds on every graph whose entity table is compacted. Ratios with a zero
    denominator are reported as None.
    """
    mark = np.zeros(graph.n_entities, dtype=bool)
    heads = len(distinct_ids(mark, graph.triples[:, 0]))
    tails = len(distinct_ids(mark, graph.triples[:, 2]))
    used = len(distinct_ids(mark, graph.triples[:, 0], graph.triples[:, 2]))
    per_relation: dict[str, RelationStats] = {}
    for rid, rows in graph.relation_index.items():
        h, t = graph.triples[rows, 0], graph.triples[rows, 2]
        r_heads = len(distinct_ids(mark, h))
        r_tails = len(distinct_ids(mark, t))
        n_entities = len(distinct_ids(mark, h, t))
        ratio = r_heads / r_tails if r_tails else None
        per_relation[graph.relation_names[rid]] = RelationStats(
            triples=len(rows), entities=n_entities, head_tail_ratio=ratio
        )
    return GraphStats(
        triples=graph.n_triples,
        entities=used,
        heads=heads,
        tails=tails,
        head_tail_overlap=heads + tails - used,
        entity_triple_ratio=used / graph.n_triples if graph.n_triples else None,
        per_relation=per_relation,
    )


def distinct_ids(mark: np.ndarray, *columns: np.ndarray) -> np.ndarray:
    """Ascending distinct values of ``columns``, which hold ids in [0, len(mark)).

    Equals ``np.unique`` of their concatenation, without a sort or hash pass:
    ``mark`` is an all-False scratch mask that is set, read and cleared again.
    """
    for col in columns:
        mark[col] = True
    ids = np.flatnonzero(mark)
    mark[ids] = False
    return ids

"""Knowledge graph ingestion: parsing, filtering, sampling, splitting, statistics."""

from __future__ import annotations

import array
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, DataError, ParseError

log = logging.getLogger(__name__)

GENERIC_3COL = "generic-3col"
CONCEPTNET_DUMP = "conceptnet-dump"
FORMATS = (GENERIC_3COL, CONCEPTNET_DUMP)


class Triple(NamedTuple):
    """One directed assertion, as interned integer ids."""

    head: int
    relation: int
    tail: int


def _concept_label(uri: str) -> str:
    # "/c/en/person" or "/c/en/person/n/..." -> "person"; anything else unchanged
    parts = uri.split("/")
    if len(parts) >= 4 and parts[1] == "c":
        return parts[3]
    return uri


def _relation_label(uri: str) -> str:
    # "/r/RelatedTo" -> "RelatedTo", "/r/dbpedia/knownFor" -> "dbpedia/knownFor"
    if uri.startswith("/r/"):
        return uri[3:]
    return uri


class KnowledgeGraph:
    """In-memory multi-relational graph with interned entities and relations.

    Entities and relations get dense integer ids in first-seen order. Triples
    are stored as an (n, 3) int64 array of (head, relation, tail) ids with no
    duplicate rows; ``multiplicities`` records how often each triple occurred
    in the source, and ``duplicates_removed`` the total number of collapsed
    occurrences. Instances are immutable once built and safe to share across
    concurrent readers.
    """

    def __init__(
        self,
        entity_names: list[str],
        relation_names: list[str],
        triples: np.ndarray,
        multiplicities: np.ndarray | None = None,
        duplicates_removed: int = 0,
    ):
        self.entity_names = list(entity_names)
        self.relation_names = list(relation_names)
        self.triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if multiplicities is None:
            multiplicities = np.ones(len(self.triples), dtype=np.int64)
        self.multiplicities = np.asarray(multiplicities, dtype=np.int64)
        if len(self.multiplicities) != len(self.triples):
            raise ValueError("multiplicities must align with triples")
        self.duplicates_removed = int(duplicates_removed)
        self._entity_ids: dict[str, int] | None = None
        self._relation_ids: dict[str, int] | None = None
        self._relation_index: dict[int, np.ndarray] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_id_triples(
        cls,
        entity_names: list[str],
        relation_names: list[str],
        triples: np.ndarray,
        multiplicities: np.ndarray | None = None,
    ) -> "KnowledgeGraph":
        """Build a graph from raw id rows, collapsing duplicate triples.

        The first occurrence of each (head, relation, tail) row is kept, in
        input order, and its multiplicity accumulates all later occurrences.
        """
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if multiplicities is None:
            multiplicities = np.ones(len(triples), dtype=np.int64)
        multiplicities = np.asarray(multiplicities, dtype=np.int64)
        if len(triples) == 0:
            return cls(entity_names, relation_names, triples.reshape(0, 3))
        n_ent = max(len(entity_names), 1)
        n_rel = max(len(relation_names), 1)
        codes = (triples[:, 0] * n_rel + triples[:, 1]) * n_ent + triples[:, 2]
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        is_first = np.zeros(len(triples), dtype=bool)
        is_first[first] = True
        kept = np.flatnonzero(is_first)  # first occurrences, in input order
        merged = np.bincount(inverse, weights=multiplicities.astype(np.float64))
        merged = merged[inverse[kept]].astype(np.int64)
        removed = int(multiplicities.sum() - len(kept))
        return cls(entity_names, relation_names, triples[kept], merged, removed)

    @classmethod
    def from_labeled_triples(
        cls, rows: Iterable[tuple[str, str, str]]
    ) -> "KnowledgeGraph":
        """Intern (head, relation, tail) name rows in first-seen order."""
        ent_ids: dict[str, int] = {}
        rel_ids: dict[str, int] = {}
        hs = array.array("q")
        rs = array.array("q")
        ts = array.array("q")
        for head, relation, tail in rows:
            hs.append(ent_ids.setdefault(head, len(ent_ids)))
            rs.append(rel_ids.setdefault(relation, len(rel_ids)))
            ts.append(ent_ids.setdefault(tail, len(ent_ids)))
        triples = np.column_stack(
            [np.frombuffer(a, dtype=np.int64) for a in (hs, rs, ts)]
        ) if hs else np.empty((0, 3), dtype=np.int64)
        return cls.from_id_triples(list(ent_ids), list(rel_ids), triples)

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

    def entity_id(self, name: str) -> int:
        if self._entity_ids is None:
            self._entity_ids = {n: i for i, n in enumerate(self.entity_names)}
        try:
            return self._entity_ids[name]
        except KeyError:
            raise DataError(f"unknown entity: {name!r}") from None

    def relation_id(self, name: str) -> int:
        if self._relation_ids is None:
            self._relation_ids = {n: i for i, n in enumerate(self.relation_names)}
        try:
            return self._relation_ids[name]
        except KeyError:
            raise DataError(f"unknown relation: {name!r}") from None

    def resolve_relation(self, relation: int | str) -> int:
        """Accept either a relation name or an interned id."""
        if isinstance(relation, str):
            return self.relation_id(relation)
        rid = int(relation)
        if not 0 <= rid < self.n_relations:
            raise DataError(f"relation id out of range: {rid}")
        return rid

    def triple(self, i: int) -> Triple:
        h, r, t = self.triples[i]
        return Triple(int(h), int(r), int(t))

    @property
    def relation_index(self) -> dict[int, np.ndarray]:
        """relation id -> sorted array of triple row indices (lazy, cached)."""
        if self._relation_index is None:
            index: dict[int, np.ndarray] = {}
            # a key narrower than 16 bits is radix-sorted; stability keeps
            # each relation's rows ascending
            rel_col = self.triples[:, 1].astype(np.min_scalar_type(self.n_relations))
            order = np.argsort(rel_col, kind="stable")
            boundaries = np.searchsorted(
                rel_col[order], np.arange(self.n_relations + 1)
            )
            for rid in range(self.n_relations):
                rows = order[boundaries[rid] : boundaries[rid + 1]]
                if len(rows):
                    index[rid] = rows
            self._relation_index = index
        return self._relation_index

    def relation_triples(self, relation: int | str) -> np.ndarray:
        """All (head, relation, tail) rows for one relation, in input order."""
        rid = self.resolve_relation(relation)
        rows = self.relation_index.get(rid)
        if rows is None:
            return np.empty((0, 3), dtype=np.int64)
        return self.triples[rows]

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
        mult = self.multiplicities[indices]
        if not recompact:
            return KnowledgeGraph(self.entity_names, self.relation_names, rows, mult)
        ent_flat = rows[:, [0, 2]].ravel()  # h0, t0, h1, t1, ... first-seen order
        ent_old, ent_new = _compact_ids(ent_flat)
        rel_old, rel_new = _compact_ids(rows[:, 1])
        out = np.empty_like(rows)
        out[:, [0, 2]] = ent_new.reshape(-1, 2)
        out[:, 1] = rel_new
        entity_names = [self.entity_names[i] for i in ent_old]
        relation_names = [self.relation_names[i] for i in rel_old]
        return KnowledgeGraph(entity_names, relation_names, out, mult)


def _compact_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ids densely in first-seen order.

    Returns (old ids in first-seen order, renumbered copy of ``values``).
    """
    if len(values) == 0:
        return np.empty(0, dtype=np.int64), values.copy()
    uniq, first = np.unique(values, return_index=True)
    order = np.argsort(first, kind="stable")
    new_of_sorted = np.empty(len(uniq), dtype=np.int64)
    new_of_sorted[order] = np.arange(len(uniq))
    renumbered = new_of_sorted[np.searchsorted(uniq, values)]
    return uniq[order], renumbered


# -- parsing ---------------------------------------------------------------


def parse_edge_file(path: str | Path, format: str = GENERIC_3COL) -> KnowledgeGraph:
    """Parse a tab-separated edge list into a deduplicated KnowledgeGraph.

    ``generic-3col`` lines hold exactly head, relation and tail; blank lines
    and ``#`` comments are skipped. ``conceptnet-dump`` lines hold at least
    assertion URI, relation URI, start URI and end URI (a trailing JSON
    metadata column is ignored); entity URIs are reduced to their concept
    term and relation URIs to the part after ``/r/``. Input order is
    preserved; duplicates collapse into multiplicities.
    """
    if format not in FORMATS:
        raise ConfigError(f"unknown edge file format: {format!r}")
    path = Path(path)
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        return KnowledgeGraph.from_labeled_triples(_edge_rows(handle, path, format))


def _edge_rows(handle, path: Path, format: str) -> Iterator[tuple[str, str, str]]:
    """Checked (head, relation, tail) name rows of an open edge file."""
    try:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if format == GENERIC_3COL:
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
                relation = _relation_label(cols[1])
                head = _concept_label(cols[2])
                tail = _concept_label(cols[3])
            if not head or not relation or not tail:
                raise ParseError(path, lineno, "empty head, relation, or tail")
            yield head, relation, tail
    except UnicodeDecodeError as exc:
        raise ParseError(path, _undecodable_line(path), f"not valid UTF-8 ({exc.reason})") from exc


def _undecodable_line(path: Path) -> int:
    """Number of the first line of ``path`` that is not valid UTF-8."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 0


def write_generic_3col(
    graph: KnowledgeGraph, path: str | Path, expand_multiplicity: bool = False
) -> None:
    """Serialize as tab-separated head/relation/tail lines.

    With ``expand_multiplicity`` each triple is written as many times as it
    occurred in the original input, so parse -> write -> parse round-trips
    the pre-deduplication multiset. Symbols that cannot survive the format
    (embedded tabs or newlines, or a head starting with the ``#`` comment
    marker) are rejected rather than written unparseably.
    """
    def check(name: str, role: str) -> str:
        if "\t" in name or "\n" in name:
            raise DataError(f"{role} {name!r} contains a tab or newline")
        return name

    with open(path, "w", encoding="utf-8") as out:
        for (h, r, t), m in zip(graph.triples, graph.multiplicities):
            head = check(graph.entity_names[h], "entity")
            if head.startswith("#"):
                raise DataError(
                    f"entity {head!r} would serialize as a comment line"
                )
            line = (
                f"{head}\t{check(graph.relation_names[r], 'relation')}"
                f"\t{check(graph.entity_names[t], 'entity')}\n"
            )
            out.write(line * (int(m) if expand_multiplicity else 1))


# -- filtering / sampling / splitting ---------------------------------------


def filter_relations(graph: KnowledgeGraph, exclude: set[str]) -> KnowledgeGraph:
    """Drop all triples whose relation name is in ``exclude``.

    Excluding an absent relation is a no-op. Entity and relation tables are
    re-compacted to the symbols still referenced.
    """
    if not exclude:
        return graph.subset(np.arange(graph.n_triples))
    excluded_ids = {
        i for i, name in enumerate(graph.relation_names) if name in exclude
    }
    keep = ~np.isin(graph.triples[:, 1], sorted(excluded_ids))
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

    def validate(self) -> None:
        fracs = (self.train, self.validation, self.test)
        if any(not 0.0 <= f <= 1.0 for f in fracs):
            raise ConfigError(f"split fractions must lie in [0, 1]: {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1.0: {fracs}")


def split_indices(
    n: int, spec: SplitSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint (train, validation, test) row indices covering range(n).

    Validation and test get floor(fraction * n) rows each; train absorbs the
    remainder. Each index array is sorted ascending.
    """
    spec.validate()
    n_val = int(np.floor(spec.validation * n))
    n_test = int(np.floor(spec.test * n))
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    train = perm[: n - n_val - n_test]
    val = perm[n - n_val - n_test : n - n_test]
    test = perm[n - n_test :]
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

    def inclusion_exclusion_holds(self) -> bool:
        return self.heads + self.tails - self.head_tail_overlap == self.entities


def compute_stats(graph: KnowledgeGraph) -> GraphStats:
    """Count triples and entities globally and per relation.

    The inclusion-exclusion identity |heads| + |tails| - |overlap| = |entities|
    holds on every graph whose entity table is compacted. Ratios with a zero
    denominator are reported as None.
    """
    if graph.n_triples == 0:
        return GraphStats(0, 0, 0, 0, 0, None, {})
    mark = np.zeros(graph.n_entities, dtype=bool)
    heads = len(_distinct_ids(mark, graph.triples[:, 0]))
    tails = len(_distinct_ids(mark, graph.triples[:, 2]))
    used = len(_distinct_ids(mark, graph.triples[:, 0], graph.triples[:, 2]))
    per_relation: dict[str, RelationStats] = {}
    for rid, rows in graph.relation_index.items():
        h, t = graph.triples[rows, 0], graph.triples[rows, 2]
        r_heads = len(_distinct_ids(mark, h))
        r_tails = len(_distinct_ids(mark, t))
        n_entities = len(_distinct_ids(mark, h, t))
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
        entity_triple_ratio=used / graph.n_triples,
        per_relation=per_relation,
    )


def _distinct_ids(mark: np.ndarray, *columns: np.ndarray) -> np.ndarray:
    """Ascending distinct values of ``columns``, which hold ids in [0, len(mark)).

    Equals ``np.unique`` of their concatenation, without a sort or hash pass:
    ``mark`` is an all-False scratch mask that is set, read and cleared again.
    """
    for col in columns:
        mark[col] = True
    ids = np.flatnonzero(mark)
    mark[ids] = False
    return ids

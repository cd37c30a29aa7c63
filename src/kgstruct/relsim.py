"""Relation-to-relation similarity via three complementary measures.

1. Definition text: TF/IDF vectors over the relation glossary, cosine.
2. Usage: Jaccard overlap of head-entity (or tail-entity) sets.
3. Embedding space: cosine between centroid or directly learned vectors.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .definitions import CONCEPTNET_RELATION_DEFINITIONS
from .embedding import BLOCK_BYTES, unit_rows
from .errors import DataError, read_json_object
from .graph import KnowledgeGraph, distinct_ids
from .validation import RelationProfile

log = logging.getLogger(__name__)

TOKEN_RE = re.compile(r"[a-z0-9]+")

TFIDF_VARIANT = "raw term counts, smoothed idf = ln((1 + N)/(1 + df)) + 1, cosine similarity"
TFIDF_REFERENCE_PAIR = ("HasContext", "PartOf")
TFIDF_REFERENCE_SCORE = 0.178
TFIDF_REFERENCE_BAND = 0.05


@dataclass(frozen=True)
class DefinitionCorpus:
    """Relation name -> definition text, used as TF/IDF documents."""

    definitions: dict[str, str]

    def __post_init__(self):
        for name, text in self.definitions.items():
            if not text or not text.strip():
                raise DataError(f"empty definition for relation {name!r}")

    @classmethod
    def bundled(cls) -> "DefinitionCorpus":
        return cls(dict(CONCEPTNET_RELATION_DEFINITIONS))

    @classmethod
    def from_json(cls, path: str | Path) -> "DefinitionCorpus":
        data = read_json_object(path, "definition corpus", DataError)
        for name, text in data.items():
            if not isinstance(text, str):
                raise DataError(f"{path}: definition of {name!r} must be a string, got {text!r}")
            if not text.strip():
                raise DataError(f"{path}: empty definition for relation {name!r}")
        if len(data) < 2:
            raise DataError(f"{path}: need at least 2 definitions for a similarity matrix")
        return cls(data)

    @property
    def relations(self) -> list[str]:
        return list(self.definitions)

    def __len__(self) -> int:
        return len(self.definitions)


@dataclass
class SimilarityMatrix:
    """Square symmetric similarity scores over an ordered relation list."""

    relations: list[str]
    values: np.ndarray
    kind: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = len(self.relations)
        if self.values.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.values.shape} does not match {n} relations"
            )

    def score(self, a: str, b: str) -> float:
        i = self.relations.index(a)
        j = self.relations.index(b)
        return float(self.values[i, j])


@dataclass(frozen=True)
class NearestRelationTable:
    """Per relation: the other relation with the highest similarity score."""

    kind: str
    rows: list[tuple[str, str, float]]  # (relation, closest relation, score)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; placeholders kept."""
    return TOKEN_RE.findall(text.lower())


def tfidf_vectors(corpus: DefinitionCorpus) -> tuple[list[str], np.ndarray]:
    """Raw-count TF weighted by idf = ln((1 + N) / (1 + df)) + 1; one row per definition.

    This smoothed idf is scikit-learn's default: a token every definition uses weighs 1, not 0.
    """
    names = corpus.relations
    docs = [tokenize(corpus.definitions[name]) for name in names]
    # every token, numbered in first-seen order
    vocab = {token: j for j, token in enumerate(dict.fromkeys(t for doc in docs for t in doc))}
    n_docs = len(docs)
    tf = np.zeros((n_docs, len(vocab)), dtype=np.float64)
    for i, doc in enumerate(docs):
        for token in doc:
            tf[i, vocab[token]] += 1.0
    df = (tf > 0).sum(axis=0)
    idf = np.log((1 + n_docs) / (1 + df)) + 1
    return names, tf * idf[None, :]


def tfidf_reference_check(matrix: SimilarityMatrix) -> dict:
    """Score the documented reference pair and flag band membership."""
    a, b = TFIDF_REFERENCE_PAIR
    note: dict = {"variant": TFIDF_VARIANT}
    if a in matrix.relations and b in matrix.relations:
        score = matrix.score(a, b)
        in_band = abs(score - TFIDF_REFERENCE_SCORE) <= TFIDF_REFERENCE_BAND
        note.update(
            {
                "reference_pair": [a, b],
                "score": score,
                "reference_score": TFIDF_REFERENCE_SCORE,
                "band": TFIDF_REFERENCE_BAND,
                "within_band": in_band,
            }
        )
        if not in_band:
            note["discrepancy"] = (
                f"{a}/{b} similarity {score:.6f} falls outside "
                f"{TFIDF_REFERENCE_SCORE} +/- {TFIDF_REFERENCE_BAND} under this variant"
            )
    return note


def _cosine_matrix(unit: np.ndarray) -> np.ndarray:
    # exact products and numpy's pairwise sum, not BLAS: symmetric, the same bits on every CPU;
    # rows in blocks within BLOCK_BYTES, each entry summing only its own products
    n, d = unit.shape
    rows = max(1, BLOCK_BYTES // (unit.itemsize * n * max(d, 1)))
    sims = np.empty((n, n), dtype=unit.dtype)
    for lo in range(0, n, rows):
        np.sum(unit[lo:lo + rows, None, :] * unit[None, :, :], axis=2, out=sims[lo:lo + rows])
    return np.clip(sims, -1.0, 1.0, out=sims)


def tfidf_similarity_matrix(corpus: DefinitionCorpus) -> SimilarityMatrix:
    """Cosine similarity of TF/IDF definition vectors.

    Each definition is one document; the vocabulary is every token that
    occurs in any definition. Diagonal entries are pinned to 1.0
    (self-similarity by definition).
    """
    if len(corpus) < 2:
        raise DataError("need at least 2 definitions for a similarity matrix")
    names, vectors = tfidf_vectors(corpus)
    unit, ok = unit_rows(vectors)
    if not ok.all():
        bad = [names[i] for i in np.flatnonzero(~ok)]
        log.warning("zero-norm vectors get similarity 0 to everything: %s", bad)
    sims = _cosine_matrix(unit)
    np.fill_diagonal(sims, 1.0)
    return SimilarityMatrix(names, sims, "tfidf")


def jaccard_overlap_matrix(graph: KnowledgeGraph, side: str) -> SimilarityMatrix:
    """Jaccard similarity of per-relation head (or tail) entity sets."""
    if side not in ("head", "tail"):
        raise DataError(f"side must be 'head' or 'tail', got {side!r}")
    col = 0 if side == "head" else 2
    names = list(graph.relation_names)
    mark = np.zeros(graph.n_entities, dtype=bool)
    index = graph.relation_index
    sets = [
        distinct_ids(mark, graph.triples[index.get(rid, []), col])
        for rid in range(graph.n_relations)
    ]
    n = len(names)
    sims = np.eye(n, dtype=np.float64)
    for i in range(n):
        mark[sets[i]] = True
        for j in range(i + 1, n):
            inter = int(np.count_nonzero(mark[sets[j]]))
            union = len(sets[i]) + len(sets[j]) - inter
            sims[i, j] = sims[j, i] = inter / union if union else 0.0
        mark[sets[i]] = False
    return SimilarityMatrix(names, sims, f"jaccard-{side}")


def embedding_similarity_matrix(
    profiles: Sequence[RelationProfile], kind: str
) -> SimilarityMatrix:
    """Pairwise cosine of per-relation centroid or direct vectors.

    Relations whose chosen vector has zero norm are excluded with a warning.
    """
    if kind not in ("centroid", "direct"):
        raise DataError(f"kind must be 'centroid' or 'direct', got {kind!r}")
    names = np.array([p.relation for p in profiles], dtype=object)
    chosen = [p.centroid if kind == "centroid" else p.direct for p in profiles]
    dims = {len(vec) for vec in chosen}
    if len(dims) > 1:
        raise DataError(f"profiles mix dimensions: {sorted(dims)}")
    unit, ok = unit_rows(np.reshape(chosen, (len(chosen), max(dims, default=0))))  # (0, 0) if none
    if not ok.all():
        log.warning("excluding zero-norm %s vectors: %s", kind, names[~ok].tolist())
    if ok.sum() < 2:
        raise DataError("need at least 2 nonzero relation vectors")
    return SimilarityMatrix(names[ok].tolist(), _cosine_matrix(unit[ok]), f"cosine-{kind}")


def nearest_relations(matrix: SimilarityMatrix) -> NearestRelationTable:
    """Row-wise argmax excluding the diagonal; ties go to the lowest index."""
    if len(matrix.relations) < 2:
        raise DataError("nearest relations need a matrix over >= 2 relations")
    scores = matrix.values.copy()
    np.fill_diagonal(scores, -np.inf)
    nearest = np.argmax(scores, axis=1).tolist()  # the first (lowest) index on ties
    names = matrix.relations
    rows = [(names[i], names[j], float(scores[i, j])) for i, j in enumerate(nearest)]
    return NearestRelationTable(matrix.kind, rows)


def mutual_nearest_pairs(table: NearestRelationTable) -> list[tuple[str, str, float]]:
    """Pairs (a, b) where each is the other's closest relation."""
    closest = {name: other for name, other, _ in table.rows}
    return [(a, b, score) for a, b, score in table.rows if closest.get(b) == a and a < b]

"""Relation-to-relation similarity via three complementary measures.

1. Definition text: TF/IDF vectors over the relation glossary, cosine.
2. Usage: Jaccard overlap of head-entity (or tail-entity) sets.
3. Embedding space: cosine between centroid or directly learned vectors.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .definitions import CONCEPTNET_RELATION_DEFINITIONS
from .embedding import unit_rows
from .errors import DataError
from .graph import KnowledgeGraph, _distinct_ids
from .validation import RelationProfile

log = logging.getLogger(__name__)

TOKEN_RE = re.compile(r"[a-z0-9]+")


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
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise DataError(f"cannot read definition corpus {path}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise DataError(f"definition corpus {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise DataError(f"{path}: definition corpus must be a JSON object")
        for name, text in data.items():
            if not isinstance(text, str):
                raise DataError(f"{path}: definition of {name!r} must be a string, got {text!r}")
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

    def closest(self, relation: str) -> tuple[str, float]:
        for name, other, score in self.rows:
            if name == relation:
                return other, score
        raise KeyError(relation)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; placeholders kept."""
    return TOKEN_RE.findall(text.lower())


def tfidf_vectors(corpus: DefinitionCorpus) -> tuple[list[str], np.ndarray]:
    """Raw-count TF weighted by idf = ln(N / df); one row per definition."""
    names = corpus.relations
    docs = [tokenize(corpus.definitions[name]) for name in names]
    vocab: dict[str, int] = {}
    for doc in docs:
        for token in doc:
            vocab.setdefault(token, len(vocab))
    n_docs = len(docs)
    tf = np.zeros((n_docs, len(vocab)), dtype=np.float64)
    for i, doc in enumerate(docs):
        for token in doc:
            tf[i, vocab[token]] += 1.0
    df = (tf > 0).sum(axis=0)
    idf = np.log(n_docs / df)
    return names, tf * idf[None, :]


def _cosine_matrix(vectors: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    unit, ok = unit_rows(vectors)
    if not ok.all():
        bad = [labels[i] for i in np.flatnonzero(~ok)]
        log.warning("zero-norm vectors get similarity 0 to everything: %s", bad)
    sims = unit @ unit.T
    sims = 0.5 * (sims + sims.T)  # enforce exact symmetry
    return np.clip(sims, -1.0, 1.0)


def tfidf_similarity_matrix(corpus: DefinitionCorpus) -> SimilarityMatrix:
    """Cosine similarity of TF/IDF definition vectors.

    Each definition is one document; the vocabulary is every token that
    occurs in any definition. Diagonal entries are pinned to 1.0
    (self-similarity by definition).
    """
    if len(corpus) < 2:
        raise DataError("need at least 2 definitions for a similarity matrix")
    names, vectors = tfidf_vectors(corpus)
    sims = _cosine_matrix(vectors, names)
    np.fill_diagonal(sims, 1.0)
    return SimilarityMatrix(names, sims, "tfidf")


def jaccard_overlap_matrix(graph: KnowledgeGraph, side: str) -> SimilarityMatrix:
    """Jaccard similarity of per-relation head (or tail) entity sets."""
    if side not in ("head", "tail"):
        raise DataError(f"side must be 'head' or 'tail', got {side!r}")
    col = 0 if side == "head" else 2
    names = list(graph.relation_names)
    mark = np.zeros(graph.n_entities, dtype=bool)
    sets = [
        _distinct_ids(mark, graph.relation_triples(rid)[:, col])
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
    chosen = [
        (p.relation, p.centroid if kind == "centroid" else p.direct)
        for p in profiles
    ]
    kept = [(name, vec) for name, vec in chosen if np.linalg.norm(vec) > 0.0]
    dropped = [name for name, vec in chosen if np.linalg.norm(vec) == 0.0]
    if dropped:
        log.warning("excluding zero-norm %s vectors: %s", kind, dropped)
    if len(kept) < 2:
        raise DataError("need at least 2 nonzero relation vectors")
    dims = {len(vec) for _, vec in kept}
    if len(dims) != 1:
        raise DataError(f"profiles mix dimensions: {sorted(dims)}")
    names = [name for name, _ in kept]
    vectors = np.vstack([vec for _, vec in kept])
    return SimilarityMatrix(names, _cosine_matrix(vectors, names), f"cosine-{kind}")


def nearest_relations(matrix: SimilarityMatrix) -> NearestRelationTable:
    """Row-wise argmax excluding the diagonal; ties go to the lowest index."""
    n = len(matrix.relations)
    if n < 2:
        raise DataError("nearest relations need a matrix over >= 2 relations")
    rows = []
    for i in range(n):
        scores = matrix.values[i].copy()
        scores[i] = -np.inf
        j = int(np.argmax(scores))  # argmax returns the first (lowest) index on ties
        rows.append((matrix.relations[i], matrix.relations[j], float(scores[j])))
    return NearestRelationTable(matrix.kind, rows)


def mutual_nearest_pairs(table: NearestRelationTable) -> list[tuple[str, str, float]]:
    """Pairs (a, b) where each is the other's closest relation."""
    closest = {name: other for name, other, _ in table.rows}
    pairs = []
    for name, other, score in table.rows:
        if closest.get(other) == name and name < other:
            pairs.append((name, other, score))
    return pairs

"""Translational embedding training and the trained-vector table.

Entities and relations are embedded so that head + relation approximately
equals tail, via minibatch SGD on a margin-ranking loss with corrupted
negatives. Training is single-threaded and bitwise deterministic for a
fixed seed.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError
from .graph import KnowledgeGraph

log = logging.getLogger(__name__)

_MAGIC = b"KGT1"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the margin-ranking trainer."""

    dimension: int = 100
    epochs: int = 30
    learning_rate: float = 0.05
    margin: float = 1.0
    negatives: int = 10
    batch_size: int = 1024
    seed: int = 0

    def validate(self, where: str = "") -> None:
        """Raise ConfigError naming the field, prefixed by the dotted ``where``."""
        prefix = f"{where}." if where else ""
        if self.dimension < 1:
            raise ConfigError(f"{prefix}dimension: must be >= 1, got {self.dimension}")
        if self.epochs < 0:
            raise ConfigError(f"{prefix}epochs: must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ConfigError(f"{prefix}margin: must be finite and > 0, got {self.margin}")
        if self.negatives < 1:
            raise ConfigError(f"{prefix}negatives: must be >= 1, got {self.negatives}")
        if self.batch_size < 1:
            raise ConfigError(f"{prefix}batch_size: must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigError(f"{prefix}learning_rate: must be > 0, got {self.learning_rate}")


class EmbeddingTable:
    """Dense float32 vectors for every entity and relation of one graph.

    Row order equals interning order of the source graph. ``epoch_losses``
    holds the mean per-pair hinge loss of each training epoch when the table
    came out of :func:`train`.
    """

    def __init__(
        self,
        entity_names: list[str],
        relation_names: list[str],
        entity_vectors: np.ndarray,
        relation_vectors: np.ndarray,
        config: TrainConfig | None = None,
        epoch_losses: list[float] | None = None,
    ):
        self.entity_names = list(entity_names)
        self.relation_names = list(relation_names)
        self.entity_vectors = np.asarray(entity_vectors, dtype=np.float32)
        self.relation_vectors = np.asarray(relation_vectors, dtype=np.float32)
        if self.entity_vectors.shape[0] != len(self.entity_names):
            raise ValueError("entity vector count does not match names")
        if self.relation_vectors.shape[0] != len(self.relation_names):
            raise ValueError("relation vector count does not match names")
        if (
            self.entity_vectors.size
            and self.relation_vectors.size
            and self.entity_vectors.shape[1] != self.relation_vectors.shape[1]
        ):
            raise ValueError("entity and relation dimensions differ")
        self.config = config
        self.epoch_losses = epoch_losses
        self._entity_ids: dict[str, int] | None = None
        self._relation_ids: dict[str, int] | None = None

    @property
    def dimension(self) -> int:
        return int(self.entity_vectors.shape[1])

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def entity_row(self, name: str) -> int:
        if self._entity_ids is None:
            self._entity_ids = {n: i for i, n in enumerate(self.entity_names)}
        try:
            return self._entity_ids[name]
        except KeyError:
            raise DataError(f"entity not embedded: {name!r}") from None

    def relation_row(self, name: str) -> int:
        if self._relation_ids is None:
            self._relation_ids = {n: i for i, n in enumerate(self.relation_names)}
        try:
            return self._relation_ids[name]
        except KeyError:
            raise DataError(f"relation not embedded: {name!r}") from None

    def rows_of(self, graph: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
        """This table's row of every entity and relation of ``graph``, by name.

        Raises DataError naming the first graph symbol the table lacks.
        """
        return (
            np.asarray([self.entity_row(name) for name in graph.entity_names], dtype=np.int64),
            np.asarray([self.relation_row(name) for name in graph.relation_names], dtype=np.int64),
        )

    def aligned_to(self, graph: KnowledgeGraph) -> "EmbeddingTable":
        """This table's rows reordered into ``graph``'s interning, matched by name."""
        ent_rows, rel_rows = self.rows_of(graph)
        return EmbeddingTable(
            graph.entity_names,
            graph.relation_names,
            self.entity_vectors[ent_rows],
            self.relation_vectors[rel_rows],
            config=self.config,
            epoch_losses=self.epoch_losses,
        )

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a JSON header followed by the raw little-endian f32 matrix.

        Layout: magic, uint32 header length, UTF-8 JSON header, then entity
        rows and relation rows in interning order.
        """
        header = {
            "dimension": self.dimension,
            "entity_count": self.n_entities,
            "relation_count": self.n_relations,
            "entity_names": self.entity_names,
            "relation_names": self.relation_names,
            "config": asdict(self.config) if self.config else None,
            "epoch_losses": self.epoch_losses,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as out:
            out.write(_MAGIC)
            out.write(struct.pack("<I", len(blob)))
            out.write(blob)
            out.write(np.ascontiguousarray(self.entity_vectors, "<f4").tobytes())
            out.write(np.ascontiguousarray(self.relation_vectors, "<f4").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        """Read a table written by :meth:`save`.

        A damaged file, including one whose matrix holds a NaN or infinity,
        is a DataError naming the path.
        """
        try:
            with open(path, "rb") as handle:
                if handle.read(4) != _MAGIC:
                    raise DataError(f"{path}: not an embedding table file")
                (length,) = struct.unpack("<I", handle.read(4))
                blob = handle.read(length)
                if len(blob) != length:
                    raise DataError(f"{path}: truncated embedding table header")
                header = json.loads(blob.decode("utf-8"))
                dim = header["dimension"]
                n_ent = header["entity_count"]
                n_rel = header["relation_count"]
                raw = handle.read()
            if len(raw) != 4 * (n_ent + n_rel) * dim:
                raise DataError(f"{path}: truncated embedding matrix")
            data = np.frombuffer(raw, dtype="<f4")
            if not np.isfinite(data).all():
                raise DataError(f"{path}: non-finite value in embedding matrix")
            config = TrainConfig(**header["config"]) if header.get("config") else None
            return cls(
                header["entity_names"],
                header["relation_names"],
                data[: n_ent * dim].reshape(n_ent, dim).copy(),
                data[n_ent * dim :].reshape(n_rel, dim).copy(),
                config=config,
                epoch_losses=header.get("epoch_losses"),
            )
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: malformed embedding table: {exc!r}") from exc


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``x`` scaled to unit length, and the mask of nonzero rows.

    Zero rows stay zero. The dtype of ``x`` is kept.
    """
    norms = np.sqrt((x * x).sum(axis=1))
    ok = norms > 0
    return np.divide(x, norms[:, None], out=np.zeros_like(x), where=ok[:, None]), ok


def _scatter_add(target: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
    # np.add.at is unbuffered and correct with repeated rows but slow; a
    # sort + reduceat pass gives the same result much faster. The narrowest
    # key dtype sorts fastest (radix below 16 bits), and a stable sort's
    # permutation does not depend on the dtype, so the sums are unchanged.
    order = np.argsort(rows.astype(np.min_scalar_type(len(target))), kind="stable")
    rows = rows[order]
    grads = grads[order]
    boundaries = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    summed = np.add.reduceat(grads, boundaries, axis=0)
    target[rows[boundaries]] += summed


def train(
    graph: KnowledgeGraph,
    config: TrainConfig = TrainConfig(),
    triple_indices: np.ndarray | None = None,
) -> EmbeddingTable:
    """Fit translational embeddings by margin-ranking SGD.

    Every entity and relation of ``graph`` gets a row; optimization runs
    over ``triple_indices`` (default: all triples). For each positive in a
    batch, ``config.negatives`` corrupted triples are drawn by replacing
    the head or the tail with a uniform entity; the squared-Euclidean
    margin loss max(0, margin + d_pos - d_neg) is minimized. Entity rows
    are renormalized to unit norm at the start of each epoch.
    """
    config.validate()
    if graph.n_triples == 0:
        raise DataError("cannot train on an empty graph")
    if triple_indices is None:
        triple_indices = np.arange(graph.n_triples)
    triple_indices = np.asarray(triple_indices, dtype=np.int64)
    if len(triple_indices) == 0:
        raise DataError("cannot train on an empty triple selection")

    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    bound = np.float32(6.0 / np.sqrt(dim))
    ent = rng.uniform(-bound, bound, size=(graph.n_entities, dim)).astype(np.float32)
    rel = rng.uniform(-bound, bound, size=(graph.n_relations, dim)).astype(np.float32)
    rel, _ = unit_rows(rel)

    triples = graph.triples[triple_indices]
    n = len(triples)
    n_neg = config.negatives
    losses: list[float] = []

    # a step too large overflows to inf and then NaN; the isfinite checks
    # report that, so the intermediate warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            ent, _ = unit_rows(ent)
            lr = np.float32(config.learning_rate * (1.0 - epoch / config.epochs))
            perm = rng.permutation(n)
            epoch_loss = 0.0
            n_pairs = 0
            for start in range(0, n, config.batch_size):
                batch = triples[perm[start : start + config.batch_size]]
                b = len(batch)
                h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]

                corrupt = rng.integers(0, graph.n_entities, size=b * n_neg)
                corrupt_head = rng.random(b * n_neg) < 0.5
                h_neg = np.repeat(h, n_neg)
                t_neg = np.repeat(t, n_neg)
                h_neg = np.where(corrupt_head, corrupt, h_neg)
                t_neg = np.where(corrupt_head, t_neg, corrupt)
                r_neg = np.repeat(r, n_neg)

                diff_pos = ent[h] + rel[r] - ent[t]
                diff_neg = ent[h_neg] + rel[r_neg] - ent[t_neg]
                d_pos = (diff_pos * diff_pos).sum(axis=1)
                d_neg = (diff_neg * diff_neg).sum(axis=1)
                hinge = np.float32(config.margin) + np.repeat(d_pos, n_neg) - d_neg
                if not np.isfinite(hinge).all():
                    raise TrainingDivergedError(
                        f"non-finite margin loss at epoch {epoch}; lower "
                        "train.learning_rate or train.margin"
                    )
                active = hinge > 0

                epoch_loss += float(hinge[active].sum())
                n_pairs += b * n_neg
                if not active.any():
                    continue

                # Per-pair SGD at full learning rate, averaged over each
                # positive's negatives; summing over the batch then matches a
                # sequential pass. d(pos)/d(h) = 2*diff_pos, d(pos)/d(t) =
                # -2*diff_pos; negatives enter with opposite sign.
                scale = lr / np.float32(n_neg)
                active_per_pos = active.reshape(b, n_neg).sum(axis=1).astype(np.float32)
                g_pos = (2.0 * scale) * diff_pos * active_per_pos[:, None]
                g_neg = (-2.0 * scale) * diff_neg[active]

                rows = np.concatenate([h, t, h_neg[active], t_neg[active]])
                grads = np.concatenate([-g_pos, g_pos, -g_neg, g_neg])
                _scatter_add(ent, rows, grads)
                rel_rows = np.concatenate([r, r_neg[active]])
                _scatter_add(rel, rel_rows, np.concatenate([-g_pos, -g_neg]))

            mean_loss = epoch_loss / max(n_pairs, 1)
            if not np.isfinite(mean_loss):
                raise TrainingDivergedError(
                    f"non-finite loss {mean_loss} at epoch {epoch}; lower "
                    "train.learning_rate or train.margin"
                )
            losses.append(mean_loss)
            log.debug("epoch %d: loss=%.6f lr=%.5f", epoch, mean_loss, lr)

    return EmbeddingTable(
        graph.entity_names,
        graph.relation_names,
        ent,
        rel,
        config=config,
        epoch_losses=losses,
    )


def translation_matrix(table: EmbeddingTable, triple_rows: np.ndarray) -> np.ndarray:
    """Stack tail-minus-head vectors for (h, r, t) id rows, as float64."""
    heads = table.entity_vectors[triple_rows[:, 0]].astype(np.float64)
    tails = table.entity_vectors[triple_rows[:, 2]].astype(np.float64)
    return tails - heads


def hits_at_k(
    table: EmbeddingTable,
    graph: KnowledgeGraph,
    k: int,
    batch_size: int = 256,
) -> float:
    """Fraction of triples whose true tail is ranked in the top k.

    The graph's symbols are mapped to table rows by name, and candidates
    are every entity of the table, ranked by ascending squared distance to
    head + relation; rank counts entities strictly closer than the true
    tail, so ties rank optimistically. A graph symbol the table lacks
    raises DataError naming it.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if graph.n_triples == 0:
        raise DataError("empty test set")
    ent_rows, rel_rows = table.rows_of(graph)
    h, r, t = graph.triples.T
    rows = np.column_stack([ent_rows[h], rel_rows[r], ent_rows[t]])
    ent = table.entity_vectors.astype(np.float64)
    ent_sq = (ent * ent).sum(axis=1)
    hits = 0
    for start in range(0, len(rows), batch_size):
        chunk = rows[start : start + batch_size]
        query = (
            table.entity_vectors[chunk[:, 0]].astype(np.float64)
            + table.relation_vectors[chunk[:, 1]].astype(np.float64)
        )
        # squared distance to every entity: |q|^2 + |e|^2 - 2 q.e
        scores = ent_sq[None, :] - 2.0 * (query @ ent.T)
        true_scores = scores[np.arange(len(chunk)), chunk[:, 2]]
        ranks = (scores < true_scores[:, None]).sum(axis=1) + 1
        hits += int((ranks <= k).sum())
    return hits / len(rows)

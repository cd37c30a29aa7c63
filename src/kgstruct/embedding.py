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
import reprlib
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError, check_at_least, load_dataclass
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

    def __post_init__(self):
        check_at_least("train.dimension", self.dimension, 1)
        check_at_least("train.epochs", self.epochs, 0)
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ConfigError(f"train.margin: must be finite and > 0, got {self.margin}")
        check_at_least("train.negatives", self.negatives, 1)
        check_at_least("train.batch_size", self.batch_size, 1)
        if not self.learning_rate > 0:
            raise ConfigError(f"train.learning_rate: must be > 0, got {self.learning_rate}")


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

    @property
    def dimension(self) -> int:
        return int(self.entity_vectors.shape[1])

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def aligned_to(self, graph: KnowledgeGraph) -> "EmbeddingTable":
        """This table's rows reordered into ``graph``'s interning, matched by name.

        Raises DataError naming the first graph symbol the table lacks, or
        the first name the table lists twice.
        """

        def rows(kind: str, table_names: list[str], graph_names: list[str]) -> np.ndarray:
            index: dict[str, int] = {}
            for i, name in enumerate(table_names):
                if index.setdefault(name, i) != i:
                    raise DataError(f"{kind} {name!r} is listed twice in the table")
            try:
                return np.asarray([index[name] for name in graph_names], dtype=np.int64)
            except KeyError as exc:
                raise DataError(f"{kind} not embedded: {exc.args[0]!r}") from None

        ent_rows = rows("entity", self.entity_names, graph.entity_names)
        rel_rows = rows("relation", self.relation_names, graph.relation_names)
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

        A damaged file, including one whose matrix holds a NaN or infinity
        or whose header holds a mistyped size, name list, config or epoch
        losses, is a DataError naming the path and the field.
        """
        try:
            with open(path, "rb") as handle:
                if handle.read(4) != _MAGIC:
                    raise DataError(f"{path}: not an embedding table file")
                (length,) = struct.unpack("<I", handle.read(4))
                blob = handle.read(length)
                if len(blob) != length:
                    raise DataError(f"{path}: truncated embedding table header")
                header = {"config": None, "epoch_losses": None, **json.loads(blob.decode("utf-8"))}
                dim, n_ent, n_rel = (
                    _header_field(path, header, key, _is_count, "a non-negative int")
                    for key in ("dimension", "entity_count", "relation_count")
                )
                for key in ("entity_names", "relation_names"):
                    _header_field(path, header, key, _is_names, "a list of strings")
                raw = handle.read()
            if len(raw) != 4 * (n_ent + n_rel) * dim:
                raise DataError(f"{path}: truncated embedding matrix")
            data = np.frombuffer(raw, dtype="<f4")
            if not np.isfinite(data).all():
                raise DataError(f"{path}: non-finite value in embedding matrix")
            config = header["config"]
            if config is not None:
                config = load_dataclass(TrainConfig, config, "config")
            return cls(
                header["entity_names"],
                header["relation_names"],
                data[: n_ent * dim].reshape(n_ent, dim).copy(),
                data[n_ent * dim :].reshape(n_rel, dim).copy(),
                config=config,
                epoch_losses=_header_field(
                    path, header, "epoch_losses", _is_losses, "null or a list of numbers"
                ),
            )
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        except (struct.error, ValueError, KeyError, TypeError, ConfigError) as exc:
            # ConfigError: the header's train config is mistyped or fails its checks
            raise DataError(f"{path}: malformed embedding table: {exc!r}") from exc


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_names(value) -> bool:
    return isinstance(value, list) and all(type(x) is str for x in value)


def _is_losses(value) -> bool:
    return value is None or (
        isinstance(value, list) and all(type(x) in (int, float) for x in value)
    )


def _header_field(path: str | Path, header: dict, key: str, valid, expected: str):
    """``header[key]``, or a DataError naming ``path`` and ``key`` if ``valid`` refuses it."""
    value = header[key]
    if not valid(value):
        got = reprlib.repr(value)
        raise DataError(f"{path}: malformed embedding table: {key} must be {expected}, got {got}")
    return value


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``x`` scaled to unit length, and the mask of nonzero rows.

    Zero rows stay zero. The dtype of ``x`` is kept.
    """
    norms = np.sqrt((x * x).sum(axis=1))
    ok = norms > 0
    return np.divide(x, norms[:, None], out=np.zeros_like(x), where=ok[:, None]), ok


# np.add.reduceat sums a segment g0, ..., g(m-1) as g0 + pairwise(g1, ...),
# and numpy's pairwise sum adds fewer than 8 terms one at a time onto -0.0.
# A segment of at most this many rows is therefore g0 + ((-0.0 + g1) + ...).
_PAIRWISE_SEQUENTIAL_ROWS = 8


def _add_to_rows(target: np.ndarray, rows: np.ndarray, sums: np.ndarray) -> None:
    # target[rows] += sums for distinct rows, overwriting sums. The store views
    # each row of the C-contiguous target and sums as one opaque item, so
    # numpy copies a whole row per index rather than one value at a time.
    np.add(np.take(target, rows, axis=0), sums, out=sums)
    row = np.dtype((np.void, target.shape[1] * target.itemsize))
    target.view(row)[rows, 0] = sums.view(row)[:, 0]


def _scatter_add(
    target: np.ndarray, rows: np.ndarray, grads: np.ndarray, pick: np.ndarray | None = None
) -> None:
    # Adds grads row pick[i] (row i without a pick) into target at rows[i],
    # with the bits of a stable sort by row followed by np.add.reduceat. A
    # pick lets a caller scatter some rows of a buffer without copying them
    # out first. np.add.at is unbuffered and correct with repeated rows but
    # slow. The narrowest key dtype sorts fastest (radix below 16 bits), and
    # a stable sort's permutation does not depend on the dtype. reduceat calls
    # its inner loop once per segment and column, which dominates when most
    # segments hold 1-3 rows. So segments short enough for the sequential
    # rule above are summed in that same order, one vectorised pass per row
    # position, and only long ones go to reduceat. Each grads row is gathered
    # once with np.take, straight into the pass that reads it.
    order = np.argsort(rows.astype(np.min_scalar_type(len(target))), kind="stable")
    rows = rows[order]
    if pick is not None:
        order = pick[order]
    edges = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1], [True])))
    starts, lengths = edges[:-1], edges[1:] - edges[:-1]
    long = lengths > _PAIRWISE_SEQUENTIAL_ROWS
    if long.all():
        sums = np.add.reduceat(np.take(grads, order, axis=0), starts, axis=0)
        _add_to_rows(target, rows[starts], sums)
        return
    if long.any():
        long_lengths = lengths[long]
        long_grads = np.take(grads, order[np.repeat(long, lengths)], axis=0)
        long_starts = np.cumsum(long_lengths) - long_lengths
        _add_to_rows(target, rows[starts[long]], np.add.reduceat(long_grads, long_starts, axis=0))
    # short segments longest first: row j of the first m of them is one slice
    short = ~long
    by_length = np.argsort(-lengths[short].astype(np.int8), kind="stable")
    first = starts[short][by_length]
    first_lengths = lengths[short][by_length]
    rest = np.full((len(first),) + grads.shape[1:], -0.0, dtype=grads.dtype)
    for j in range(1, int(first_lengths[0])):
        m = np.count_nonzero(first_lengths > j)
        rest[:m] += np.take(grads, order[first[:m] + j], axis=0)
    _add_to_rows(target, rows[first], np.add(np.take(grads, order[first], axis=0), rest, out=rest))


def train_working_set_bytes(
    n_train: int, n_entities: int, n_relations: int, config: TrainConfig
) -> int:
    """Estimated bytes of the arrays :func:`train` holds at once.

    A batch has b = min(batch_size, n_train) positives and b x negatives
    negative pairs; its gradient buffer holds two rows per positive and up
    to two per pair. At most five times (positives + pairs) x dimension
    float32 values are alive at once: the negatives' differences (once), the
    buffer (twice), and either the previous batch's buffer, until the new one
    replaces it, or the entity scatter's gathered copy of the buffer (twice).
    The estimate counts six. Index, loss and mask arrays take up to about 90
    bytes per pair whatever the dimension (counted as 96), and the entity
    and relation tables are held in up to three copies. Measured with
    tracemalloc on the demo graph and a 2,000-triple slice of desk at
    dimensions 1-64 and 100 and 400 negatives, the peak was 0.65-0.82 of this
    estimate, and 0.83-0.93 of it when every pair is active (margin 100). At
    1 and 10 negatives, where the estimate is below 20 MiB, it was up to 2.3.
    """
    batch = min(config.batch_size, n_train)
    pairs = batch * config.negatives
    tables = 3 * (n_entities + n_relations)
    return 4 * config.dimension * (6 * (batch + pairs) + tables) + 96 * pairs


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

                # (a + b) - c in place; every gather is one np.take, and a
                # positive's relation row is added to its negatives by
                # broadcasting, not gathered once per negative
                rel_rows = np.take(rel, r, axis=0)
                diff_pos = np.take(ent, h, axis=0)
                diff_pos += rel_rows
                diff_pos -= np.take(ent, t, axis=0)
                diff_neg = np.take(ent, h_neg, axis=0)
                by_positive = diff_neg.reshape(b, n_neg, dim)
                by_positive += rel_rows[:, None, :]
                diff_neg -= np.take(ent, t_neg, axis=0)
                d_pos = np.square(diff_pos).sum(axis=1)
                d_neg = np.square(diff_neg).sum(axis=1)
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
                act = np.flatnonzero(active)
                n_act = len(act)
                # one buffer of the blocks [-g_pos, g_pos, -g_neg, g_neg], each
                # written once: the entity scatter reads all of it, the
                # relation scatter the two negated blocks through a pick
                grads = np.empty((2 * b + 2 * n_act, dim), dtype=np.float32)
                minus_pos, g_pos = grads[:b], grads[b : 2 * b]
                minus_neg, g_neg = grads[2 * b : 2 * b + n_act], grads[2 * b + n_act :]
                np.multiply(diff_pos, 2.0 * scale, out=g_pos)
                g_pos *= active_per_pos[:, None]
                np.multiply(np.take(diff_neg, act, axis=0), -2.0 * scale, out=g_neg)
                np.negative(g_pos, out=minus_pos)
                np.negative(g_neg, out=minus_neg)

                _scatter_add(ent, np.concatenate([h, t, h_neg[act], t_neg[act]]), grads)
                pick = np.arange(b + n_act)
                pick[b:] += b
                _scatter_add(rel, np.concatenate([r, r[act // n_neg]]), grads, pick)

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


def check_aligned(table: EmbeddingTable, graph: KnowledgeGraph) -> None:
    """Raise DataError unless ``table``'s rows follow ``graph``'s interning.

    Every analysis indexes the table by graph id; a table trained on another
    graph, or loaded from a file, goes through :meth:`EmbeddingTable.aligned_to`
    first.
    """
    if table.entity_names != graph.entity_names or table.relation_names != graph.relation_names:
        raise DataError(
            "embedding table interning does not match the graph's; "
            "call table.aligned_to(graph) first"
        )


def translation_matrix(
    table: EmbeddingTable, heads: np.ndarray, tails: np.ndarray
) -> np.ndarray:
    """Stack tail-minus-head vectors for aligned head and tail entity ids, as float64."""
    vectors = table.entity_vectors
    return vectors[tails].astype(np.float64) - vectors[heads].astype(np.float64)


def _tail_scores(
    query: np.ndarray, ent: np.ndarray, ent_sq: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """|e|^2 - 2 q.e for each query row q and entity e, written into ``out``.

    That is the squared distance less |q|^2, which does not change a row's
    ranking. The bits equal ``ent_sq[None, :] - 2.0 * (query @ ent.T)``,
    without its two full-size temporaries: doubling the query rows is exact
    and commutes with every rounding of the product.
    """
    np.matmul(2.0 * query, ent.T, out=out)
    return np.subtract(ent_sq[None, :], out, out=out)


# hits_at_k scores its queries against every entity in chunks of at most
# this many float64 bytes (but never fewer than 2 rows: numpy sends a 1-row
# product down its matrix-vector path, whose bits can differ from the same
# row's in a larger chunk)
HITS_BUFFER_BYTES = 16 * 2**20


def hits_at_k(
    table: EmbeddingTable,
    graph: KnowledgeGraph,
    k: int,
    batch_size: int = 256,
) -> float:
    """Fraction of triples whose true tail is ranked in the top k.

    The table must follow the graph's interning (:func:`check_aligned`).
    Candidates are every entity of the table, ranked by ascending squared
    distance to head + relation. A tie takes the realistic rank (Sun et al.,
    ACL 2020): the mean of 1 + the entities strictly closer than the true
    tail and the entities no farther, the true tail among them. So a table
    whose entities all coincide ranks each tail (E + 1) / 2, not 1.
    Queries are scored ``batch_size`` at a time, fewer when that many rows
    of scores would exceed ``HITS_BUFFER_BYTES``.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if graph.n_triples == 0:
        raise DataError("empty test set")
    check_aligned(table, graph)
    rows = graph.triples
    ent = table.entity_vectors.astype(np.float64)
    ent_sq = (ent * ent).sum(axis=1)
    chunk_rows = max(2, min(batch_size, HITS_BUFFER_BYTES // (8 * len(ent))))
    # a row has at most E - 1 entities strictly closer than its true tail
    count_type = np.min_scalar_type(len(ent))
    hits = 0
    buffer = np.empty((min(chunk_rows, len(rows)), len(ent)))
    for start in range(0, len(rows), chunk_rows):
        chunk = rows[start : start + chunk_rows]
        query = (
            table.entity_vectors[chunk[:, 0]].astype(np.float64)
            + table.relation_vectors[chunk[:, 1]].astype(np.float64)
        )
        scores = _tail_scores(query, ent, ent_sq, out=buffer[: len(chunk)])
        true_scores = scores[np.arange(len(chunk)), chunk[:, 2]][:, None]
        closer = (scores < true_scores).view(np.uint8).sum(axis=1, dtype=count_type)
        closer = closer.astype(np.intp)  # 1 + a narrow count would stay narrow
        # the realistic rank is at least the optimistic 1 + closer: only those within k can hit
        near = np.flatnonzero(closer < k)
        no_farther = (scores[near] <= true_scores[near]).sum(axis=1)
        hits += int((1 + closer[near] + no_farther <= 2 * k).sum())
    return hits / len(rows)

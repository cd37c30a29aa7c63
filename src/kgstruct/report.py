"""Declarative pipeline configuration, stage runners, and the report bundle.

A single JSON config pins input, seeds, and analysis selections; running it
produces a directory of CSV/JSON artifacts plus a manifest with a checksum
for every emitted file. Identical configs reproduce identical checksums.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import platform
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .classify import ForestConfig, LogisticConfig, check_fold_sizes
from .cluster import (
    k_selection_scores,
    lloyd_kmeans,
    pca_project_2d,
    quality_report,
    relation_point_set,
    sample_cluster_exemplars,
)
from .embedding import EmbeddingTable, TrainConfig, hits_at_k, train, train_working_set_bytes
from .errors import ConfigError, DataError, check_at_least, load_dataclass, read_json_object
from .graph import (
    FORMATS,
    GENERIC_3COL,
    KnowledgeGraph,
    SplitSpec,
    compute_stats,
    filter_relations,
    parse_edge_file,
    sample_triples,
    split_indices,
    write_generic_3col,
)
from .negation import build_pair_universe, run_negation_study
from .relsim import (
    DefinitionCorpus,
    SimilarityMatrix,
    embedding_similarity_matrix,
    jaccard_overlap_matrix,
    mutual_nearest_pairs,
    nearest_relations,
    tfidf_reference_check,
    tfidf_similarity_matrix,
)
from .validation import (
    Profiles, RelationProfile, ValidationRecord, relation_profiles, validate_relation,
    validate_working_set_bytes,
)

log = logging.getLogger(__name__)


# -- configuration -----------------------------------------------------------

ANALYSIS_STAGES = ("validate", "relsim", "cluster", "negation")


# Each block checks its own values when it is built, whether or not its stage
# is enabled; checks that need the graph run in ``preflight``.


@dataclass(frozen=True)
class ValidateStage:
    enabled: bool = False
    bins: int = 100
    min_triples: int = 2

    def __post_init__(self):
        check_at_least("validate.bins", self.bins, 2)
        check_at_least("validate.min_triples", self.min_triples, 1)


@dataclass(frozen=True)
class RelsimStage:
    enabled: bool = False
    definitions_path: str | None = None  # None -> bundled corpus


def _cluster_dir(relation: str) -> str:
    """The bundle subdirectory that holds one clustered relation's tables."""
    return f"cluster_{relation.replace('/', '_')}"


# metric -> merged table, one column per clustered relation, beside their directories
_MERGED_TABLES = {m: f"cluster_{m}_by_relation.csv" for m in ("cohesion_raw", "separation")}


@dataclass(frozen=True)
class ClusterStage:
    enabled: bool = False
    relations: tuple[str, ...] = ()
    k: int = 20
    k_range: tuple[int, int] | None = None  # inclusive; adds the selection curve
    exemplars_per_cluster: int = 5
    seed: int | None = None

    def __post_init__(self):
        if self.enabled and not self.relations:
            raise ConfigError("cluster.relations: stage enabled but no relations listed")
        dirs = [_cluster_dir(name) for name in self.relations]
        clash = sorted({name for name, d in zip(self.relations, dirs) if dirs.count(d) > 1})
        if clash:
            raise ConfigError(
                f"cluster.relations: repeated names {clash}; "
                "each needs its own cluster_<name> directory, with '/' written as '_'"
            )
        taken = sorted(n for n, d in zip(self.relations, dirs) if d in _MERGED_TABLES.values())
        if taken:
            raise ConfigError(
                f"cluster.relations: {taken} would write their cluster_<name> directory "
                f"where a merged table goes, one of {sorted(_MERGED_TABLES.values())}"
            )
        check_at_least("cluster.k", self.k, 1)
        if self.k_range is not None:
            lo, hi = self.k_range
            if lo < 2 or hi < lo:
                raise ConfigError(f"cluster.k_range: must satisfy 2 <= lo <= hi, got {lo}:{hi}")
        check_at_least("cluster.exemplars_per_cluster", self.exemplars_per_cluster, 1)


@dataclass(frozen=True)
class NegationStage:
    enabled: bool = False
    relation: str = "Desires"
    negation_relation: str = "NotDesires"
    folds: int = 10
    classifier: str = "both"  # "linear", "forest", or "both"
    seed: int | None = None
    linear: LogisticConfig = LogisticConfig()
    forest: ForestConfig = ForestConfig()

    def __post_init__(self):
        if self.relation == self.negation_relation:
            raise ConfigError(
                "negation.negation_relation: must differ from negation.relation, "
                f"got {self.relation!r} for both"
            )
        check_at_least("negation.folds", self.folds, 2)
        if self.classifier not in ("linear", "forest", "both"):
            raise ConfigError(
                "negation.classifier: must be 'linear', 'forest' or 'both', "
                f"got {self.classifier!r}"
            )


# an omitted seed is the master seed plus its field's offset
_SEED_OFFSETS = {"sample_seed": 1, "split": 2, "train": 3, "cluster": 4, "negation": 5}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a reproducible run needs; all randomness is seeded here."""

    input: str
    out: str = "report"
    format: str = GENERIC_3COL
    exclude_relations: tuple[str, ...] = ()
    sample_size: int | None = None
    seed: int = 0
    sample_seed: int | None = None
    split: SplitSpec | None = None
    train: TrainConfig | None = None
    analysis_scope: str = "full"  # analyses read "full" graph or "train" split
    validate: ValidateStage = ValidateStage()
    relsim: RelsimStage = RelsimStage()
    cluster: ClusterStage = ClusterStage()
    negation: NegationStage = NegationStage()

    def __post_init__(self):
        """Fill every omitted seed from the master seed, then check the top-level fields.

        Each block checked its own fields when it was built. ``dataclasses.replace``
        builds a new object, so a replaced config is filled and checked again.
        A ``train`` block is filled in only when an analysis stage is enabled:
        a config that trains nothing has none.
        """
        s, fill = self.seed, object.__setattr__  # the dataclass is frozen
        if self.sample_seed is None:
            fill(self, "sample_seed", s + _SEED_OFFSETS["sample_seed"])
        if self.split is None:
            fill(self, "split", SplitSpec(seed=s + _SEED_OFFSETS["split"]))
        if self.train is None and any(getattr(self, st).enabled for st in ANALYSIS_STAGES):
            fill(self, "train", TrainConfig(seed=s + _SEED_OFFSETS["train"]))
        if self.cluster.seed is None:
            fill(self, "cluster", replace(self.cluster, seed=s + _SEED_OFFSETS["cluster"]))
        if self.negation.seed is None:
            fill(self, "negation", replace(self.negation, seed=s + _SEED_OFFSETS["negation"]))

        if self.format not in FORMATS:
            raise ConfigError(f"format: must be one of {list(FORMATS)}, got {self.format!r}")
        if self.analysis_scope not in ("full", "train"):
            raise ConfigError(
                f"analysis_scope: must be 'full' or 'train', got {self.analysis_scope!r}"
            )
        if self.sample_size is not None:
            check_at_least("sample_size", self.sample_size, 0)

    def to_json_dict(self) -> dict:
        return _jsonable(asdict(self))

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipelineConfig":
        config = load_dataclass(cls, data)
        # a split or train block that leaves out its seed derives it from the
        # master seed, as an omitted block does; only the raw JSON shows which
        derived = {
            name: replace(getattr(config, name), seed=config.seed + _SEED_OFFSETS[name])
            for name in ("split", "train")
            if data.get(name) is not None and "seed" not in data[name]
        }
        return replace(config, **derived)


def read_config(path: str | Path) -> dict:
    """The JSON object held by the config file at ``path``."""
    return read_json_object(path, "config", ConfigError)


# -- small IO helpers ---------------------------------------------------------


def _jsonable(obj):
    """``obj`` with numpy arrays and scalars as Python values, and each non-finite float as None."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path: str | Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as out:
        json.dump(_jsonable(payload), out, indent=2, sort_keys=True)
        out.write("\n")


def write_csv(path: str | Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    if value is None or not math.isfinite(value):
        return ""
    return f"{value:.6f}"


def emit_matrix_csv(matrix: SimilarityMatrix, path: str | Path) -> None:
    """Similarity matrix as CSV with a relation-name header row and column.

    Values carry 6 decimal places; names with commas or quotes are escaped
    by the csv module, so a parse-back recovers the matrix within 1e-6.
    """
    write_csv(
        path,
        ["relation", *matrix.relations],
        ([name, *(_fmt(v) for v in row)] for name, row in zip(matrix.relations, matrix.values)),
    )


# -- stage runners ------------------------------------------------------------


def stage_stats(graph: KnowledgeGraph, out_dir: Path) -> dict:
    stats = asdict(compute_stats(graph))
    write_json(out_dir / "stats.json", stats)
    write_csv(
        out_dir / "relation_stats.csv",
        ["relation", "triples", "entities", "head_tail_ratio"],
        (
            [name, rs["triples"], rs["entities"], _fmt(rs["head_tail_ratio"])]
            for name, rs in stats["per_relation"].items()
        ),
    )
    return stats


def stage_validate(
    graph: KnowledgeGraph, profiles: Profiles, cfg: ValidateStage, out_dir: Path
) -> list[dict]:
    records = []
    for rid, profile in profiles.items():
        if len(graph.relation_index[rid]) < cfg.min_triples:
            continue
        if isinstance(profile, RelationProfile):
            try:
                records.append(asdict(validate_relation(profile, bins=cfg.bins)))
                continue
            except DataError as exc:
                log.warning("validation skipped: %s", exc)
                profile = exc
        records.append({"relation": graph.relation_names[rid], "error": str(profile)})
    write_json(out_dir / "validation.json", records)
    header = [field.name for field in fields(ValidationRecord)]
    write_csv(
        out_dir / "validation.csv",
        header,
        (
            [*(rec[key] for key in header[:3]), *(_fmt(rec[key]) for key in header[3:])]
            for rec in records
            if "error" not in rec
        ),
    )
    return records


def stage_relsim(
    graph: KnowledgeGraph,
    cfg: RelsimStage,
    out_dir: Path,
    profiles: Profiles,
) -> dict:
    usable = [p for p in profiles.values() if isinstance(p, RelationProfile)]
    path = cfg.definitions_path
    corpus = DefinitionCorpus.from_json(path) if path else DefinitionCorpus.bundled()
    matrices = {"tfidf": tfidf_similarity_matrix(corpus)}
    matrices["jaccard_head"] = jaccard_overlap_matrix(graph, "head")
    matrices["jaccard_tail"] = jaccard_overlap_matrix(graph, "tail")
    for kind in ("centroid", "direct"):
        try:
            matrices[f"cosine_{kind}"] = embedding_similarity_matrix(usable, kind)
        except DataError as exc:
            log.warning("skipping cosine-%s matrix: %s", kind, exc)

    summary: dict = {"tfidf": tfidf_reference_check(matrices["tfidf"])}
    for label, matrix in matrices.items():
        emit_matrix_csv(matrix, out_dir / f"{label}_similarity.csv")
        write_json(
            out_dir / f"{label}_similarity.json",
            {"kind": matrix.kind, "relations": matrix.relations, "values": matrix.values},
        )
        if len(matrix.relations) >= 2:
            nearest = nearest_relations(matrix)
            write_csv(
                out_dir / f"nearest_{label}.csv",
                ["relation", "closest_relation", "score"],
                ([name, other, _fmt(score)] for name, other, score in nearest.rows),
            )
            summary.setdefault("mutual_nearest", {})[label] = [
                list(pair) for pair in mutual_nearest_pairs(nearest)
            ]
    write_json(out_dir / "relsim_summary.json", summary)
    return summary


def stage_cluster(
    table: EmbeddingTable, graph: KnowledgeGraph, cfg: ClusterStage, out_dir: Path
) -> dict:
    """Cluster each relation at ``cfg.k``, which ``preflight`` checked against its points.

    Before the first fit, every ``cluster.k`` and ``k_range`` top must not exceed
    the relation's distinct translation vectors, since no more clusters can be
    filled, and the 2-D projection needs 2 of them; otherwise a DataError names
    the relation (and the field and the count).
    """
    point_sets = {name: relation_point_set(table, graph, name) for name in cfg.relations}
    tops = {"cluster.k": cfg.k, "cluster.k_range top": cfg.k_range[1] if cfg.k_range else 0}
    for relation, points in point_sets.items():
        distinct = len(np.unique(points, axis=0))
        for field, k in tops.items():
            if k > distinct:
                raise DataError(
                    f"{field} = {k} exceeds the {distinct} distinct points of relation {relation!r}"
                )
        if distinct < 2:
            raise DataError(f"the 2-D projection of relation {relation!r} needs 2 distinct points")
    notes = {}
    reports = []
    for relation, points in point_sets.items():
        rel_dir = out_dir / _cluster_dir(relation)
        rel_dir.mkdir()
        if cfg.k_range is not None:
            lo, hi = cfg.k_range
            curve = k_selection_scores(points, range(lo, hi + 1), seed=cfg.seed)
            header = ["k", "inertia", "silhouette", "davies_bouldin", "calinski_harabasz"]
            scores = [getattr(curve, name) for name in header[1:]]
            write_csv(
                rel_dir / "kselection.csv",
                header,
                ([k, *map(_fmt, row)] for k, *row in zip(curve.ks, *scores)),
            )
        result = lloyd_kmeans(points, cfg.k, seed=cfg.seed)
        report = quality_report(points, result, relation=relation)
        reports.append(report)
        per_cluster = (report.cohesion_raw, report.cohesion, report.separation)
        write_csv(
            rel_dir / "quality.csv",
            ["cluster", "size", "cohesion_raw", "cohesion", "separation"],
            [
                *(
                    [j, int(report.sizes[j]), *(_fmt(m[j]) for m in per_cluster)]
                    for j in range(result.k)
                ),
                ["mean", "", _fmt(report.cohesion_raw_mean), "", _fmt(report.separation_mean)],
                ["std_dev", "", _fmt(report.cohesion_raw_std), "", _fmt(report.separation_std)],
            ],
        )
        exemplars = sample_cluster_exemplars(
            result, graph, relation, per_cluster=cfg.exemplars_per_cluster, seed=cfg.seed
        )
        write_csv(rel_dir / "exemplars.csv", ["cluster", "head", "relation", "tail"], exemplars)
        projection = pca_project_2d(points)
        write_csv(
            rel_dir / "pca2d.csv",
            ["x", "y", "cluster"],
            (
                [_fmt(x), _fmt(y), cluster]
                for (x, y), cluster in zip(
                    projection.coordinates.tolist(), result.assignments.tolist()
                )
            ),
        )
        notes[relation] = {
            "points": len(points),
            "k": result.k,
            "inertia": result.inertia,
            "converged": result.converged,
            "explained_variance_2d": projection.explained,
        }
    # rows are cluster ids, assigned independently per relation: the columns
    # share k but are not aligned in any semantic sense
    for metric, name in _MERGED_TABLES.items():
        write_csv(
            out_dir / name,
            ["cluster", *(r.relation for r in reports)],
            [
                *([j, *(_fmt(getattr(r, metric)[j]) for r in reports)] for j in range(cfg.k)),
                ["mean", *(_fmt(getattr(r, f"{metric}_mean")) for r in reports)],
                ["std_dev", *(_fmt(getattr(r, f"{metric}_std")) for r in reports)],
            ],
        )
    return notes


def stage_negation(
    table: EmbeddingTable, graph: KnowledgeGraph, cfg: NegationStage, out_dir: Path
) -> dict:
    report, _, sample = run_negation_study(
        table,
        graph,
        cfg.relation,
        cfg.negation_relation,
        folds=cfg.folds,
        seed=cfg.seed,
        classifier=cfg.classifier,
        linear_config=cfg.linear,
        forest_config=cfg.forest,
    )
    payload = asdict(report)
    write_json(out_dir / "negation_report.json", payload)
    summary = report.universe
    write_csv(out_dir / "negation_universe.csv", list(summary), [list(summary.values())])
    write_csv(
        out_dir / "negation_cv.csv",
        ["classifier", "fold", "accuracy"],
        (
            [cv.classifier, fold, _fmt(acc)]
            for cv in report.cross_validation
            for fold, acc in [*enumerate(cv.accuracies), ("mean", cv.mean_accuracy)]
        ),
    )
    unknown = KnowledgeGraph(graph.entity_names, ["Unknown"], np.insert(sample.pairs, 1, 0, axis=1))
    # recompacted to the entities the pairs use, so the writer checks only their names
    write_generic_3col(unknown.subset(np.arange(unknown.n_triples)), out_dir / "unknown_pairs.tsv")
    return payload


# -- the full pipeline --------------------------------------------------------


@dataclass
class ReportBundle:
    out_dir: Path
    manifest: dict


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def ingest(config: PipelineConfig) -> tuple[KnowledgeGraph, dict]:
    """Parse, filter, and (optionally) sample the input per the config.

    Also returns the manifest's ingest notes: the ``exclude_relations`` names
    the parsed graph lacks (excluding them removes nothing), and a
    ``sample_size`` above the triple count (the sample is every triple).
    """
    if not Path(config.input).exists():
        raise DataError(f"input file does not exist: {config.input}")
    graph = parse_edge_file(config.input, config.format)
    notes: dict = {}
    absent = [name for name in config.exclude_relations if name not in graph.relation_names]
    if absent:
        log.warning("exclude_relations names absent from the graph: %s", absent)
        notes["exclude_relations_absent"] = absent
    if config.exclude_relations:
        graph = filter_relations(graph, set(config.exclude_relations))
    if config.sample_size is not None:
        if config.sample_size > graph.n_triples:
            log.warning(
                "sample_size %d exceeds the %d triples; the sample is every triple",
                config.sample_size, graph.n_triples,
            )
            notes["sample_size_exceeds_triples"] = {
                "sample_size": config.sample_size, "triples": graph.n_triples
            }
        graph = sample_triples(graph, config.sample_size, config.sample_seed)
    return graph, notes


def environment() -> dict:
    """What the run's numbers may depend on beyond its config, for the manifest.

    The Python, numpy and BLAS versions, ``OPENBLAS_NUM_THREADS`` and
    ``OPENBLAS_CORETYPE`` (None when unset) and the cores this process may
    run on. The BLAS name and version are None where numpy's build record
    has no BLAS entry (numpy before 1.26 has no build record).
    """
    build = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = build.get("blas", {})
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "cores": cores,
    }


# stage -> what its working set is called, and the fields that size it
_WORKING_SETS = {
    "train": ("training", "train.negatives, train.batch_size or train.dimension"),
    "validate": ("validation", "validate.bins"),
}


def preflight(
    graph: KnowledgeGraph,
    config: PipelineConfig,
    table: EmbeddingTable | None,
    n_train: int,
    n_triples: int,
) -> dict[str, int]:
    """Check the enabled stages against ``graph``, the graph the analyses read.

    Returns the bytes each stage with an estimate holds at once, by stage:
    training on ``n_train`` (at least 1) of the ``n_triples`` triples split,
    over ``graph``'s entities, when there is no ``table``, and validation
    when it is enabled. The largest estimate must fit in physical memory.
    Every configured relation needs triples in ``graph``. A cluster
    relation's n triples must support the 2-D projection (n >= 2),
    ``cluster.k`` (at most n) and ``cluster.k_range`` (within [2, n - 1]).
    The embedding dimension, ``table``'s or else ``train.dimension``, must be
    at least 2 for clustering and at least a forest's features per split.
    The negation classes, without contradictions, must pass ``check_fold_sizes``.
    Each failure is a DataError, raised before training.
    """
    estimates = {}
    if table is None:
        if n_train == 0:
            raise DataError(
                f"split.train = {config.split.train} selects 0 of the {n_triples} triples; "
                "training needs at least 1"
            )
        estimates["train"] = train_working_set_bytes(
            n_train, graph.n_entities, graph.n_relations, config.train
        )
    if config.validate.enabled:
        estimates["validate"] = validate_working_set_bytes(config.validate.bins)
    if estimates:
        largest = max(estimates, key=estimates.get)
        need = estimates[largest]
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > memory:
            work, sizes = _WORKING_SETS[largest]
            raise DataError(
                f"{work} would hold about {need / 2**30:.2f} GiB of arrays at once, more "
                f"than the {memory / 2**30:.2f} GiB of physical memory; lower {sizes}"
            )
    source = "train.dimension" if table is None else "table dimension"
    dimension = config.train.dimension if table is None else table.dimension
    if config.cluster.enabled and dimension < 2:
        raise DataError(f"the cluster stage's 2-D projection needs {source} >= 2, got {dimension}")
    if config.negation.enabled and config.negation.classifier != "linear":
        config.negation.forest.features_per_split(dimension)
    wanted = []
    if config.cluster.enabled:
        wanted.extend(config.cluster.relations)
    if config.negation.enabled:
        wanted.extend([config.negation.relation, config.negation.negation_relation])
    if not wanted:
        return estimates
    counts = {graph.relation_names[rid]: len(rows) for rid, rows in graph.relation_index.items()}
    missing = [name for name in wanted if name not in counts]
    if missing:
        analysed = "graph" if config.analysis_scope == "full" else "train split"
        raise DataError(f"configured relations are absent from the {analysed}: {missing}")
    if config.negation.enabled:
        neg = config.negation
        universe = build_pair_universe(graph, neg.relation, neg.negation_relation)
        check_fold_sizes(universe.labels, neg.folds)
    if not config.cluster.enabled:
        return estimates
    k, k_range = config.cluster.k, config.cluster.k_range
    for relation in config.cluster.relations:
        n = counts[relation]
        if n < 2:
            raise DataError(f"the 2-D projection of relation {relation!r} needs 2 points, got {n}")
        if k > n:
            raise DataError(f"cluster.k = {k} exceeds the {n} points of relation {relation!r}")
        if k_range is not None and k_range[1] > n - 1:
            raise DataError(
                f"cluster.k_range {k_range[0]}:{k_range[1]} must lie within [2, {n - 1}] "
                f"for the {n} points of relation {relation!r}"
            )
    return estimates


def run_pipeline(
    config: PipelineConfig, table: EmbeddingTable | None = None
) -> ReportBundle:
    """Execute the selected stages in dependency order, atomically.

    Embeddings are trained when the config has a ``train`` block, which
    every config that enables an analysis stage has; ``preflight`` runs
    first. A given ``table`` replaces training: its rows are matched to the
    graph by name, every stage reads it, and the manifest notes its training
    settings. Everything is written to a fresh sibling of the output
    directory that the run creates itself, so no existing directory is ever
    removed. It is renamed into place only after the manifest lands; a
    failing stage therefore leaves no partial bundle behind, and neither
    the parent directories the run created.
    """
    out_dir = Path(config.out)
    if out_dir.exists():
        raise DataError(f"output directory already exists: {out_dir}")
    created = [parent for parent in out_dir.parents if not parent.exists()]  # deepest first
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    # the run's own staging directory, so no existing directory is removed;
    # the bundle inside it gets the mode a plain mkdir gives
    stage = tempfile.mkdtemp(dir=out_dir.parent, prefix=out_dir.name + ".", suffix=".partial")
    tmp_dir = Path(stage) / out_dir.name
    done = False

    timings: dict[str, float] = {}
    notes: dict = {}

    def timed(name: str, fn):
        start = time.perf_counter()
        value = fn()
        timings[name] = time.perf_counter() - start
        return value

    try:
        tmp_dir.mkdir()
        graph, ingest_notes = timed("ingest", lambda: ingest(config))
        if ingest_notes:
            notes["ingest"] = ingest_notes
        timed("stats", lambda: stage_stats(graph, tmp_dir))

        analysis_graph = graph
        if table is not None or config.train is not None:
            train_idx, _val_idx, test_idx = split_indices(graph.n_triples, config.split)
            if config.analysis_scope == "train":
                # analyses see only the train split; interning is kept so
                # the graph stays aligned with the table's rows
                analysis_graph = graph.subset(train_idx, recompact=False)
            estimates = preflight(analysis_graph, config, table, len(train_idx), graph.n_triples)
            if table is not None:
                notes["table"] = asdict(table.config) if table.config else None
                table = table.aligned_to(graph)
            else:
                table = timed(
                    "train", lambda: train(graph, config.train, triple_indices=train_idx)
                )
                losses = table.epoch_losses or []
                notes["train"] = {
                    "triples": int(len(train_idx)),
                    "first_epoch_loss": losses[0] if losses else None,
                    "final_epoch_loss": losses[-1] if losses else None,
                    "epoch_losses": losses,
                    # the estimates preflight held to physical memory
                    "working_set_bytes": estimates["train"],
                }
                if len(test_idx):
                    notes["train"]["test_hits_at_10"] = timed(
                        "hits",
                        lambda: hits_at_k(table, graph.subset(test_idx, recompact=False), k=10),
                    )
            table.save(tmp_dir / "embeddings.kgt")
        if config.validate.enabled or config.relsim.enabled:
            profiles = timed("profiles", lambda: relation_profiles(table, analysis_graph))
        if config.validate.enabled:
            notes["validate"] = {"working_set_bytes": estimates["validate"]}
            timed(
                "validate",
                lambda: stage_validate(analysis_graph, profiles, config.validate, tmp_dir),
            )
        if config.relsim.enabled:
            notes["relsim"] = timed(
                "relsim",
                lambda: stage_relsim(analysis_graph, config.relsim, tmp_dir, profiles),
            )
        if config.cluster.enabled:
            notes["cluster"] = timed(
                "cluster",
                lambda: stage_cluster(table, analysis_graph, config.cluster, tmp_dir),
            )
        if config.negation.enabled:
            notes["negation"] = timed(
                "negation",
                lambda: stage_negation(table, analysis_graph, config.negation, tmp_dir),
            )

        files = {}
        for path in sorted(tmp_dir.rglob("*")):
            if path.is_file():
                rel = path.relative_to(tmp_dir).as_posix()
                files[rel] = {"sha256": _sha256(path), "bytes": path.stat().st_size}
        manifest = {
            "tool": "kgstruct",
            "version": __version__,
            "config": config.to_json_dict(),
            "files": files,
            "notes": _jsonable(notes),
            "timings_seconds": timings,
            "environment": environment(),
        }
        write_json(tmp_dir / "manifest.json", manifest)
        os.replace(tmp_dir, out_dir)
        done = True
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if not done:
            for parent in created:  # rmdir refuses a directory that is not empty
                try:
                    parent.rmdir()
                except OSError:
                    break
    return ReportBundle(out_dir=out_dir, manifest=manifest)

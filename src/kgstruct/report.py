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
import os
import shutil
import time
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .classify import ForestConfig, LogisticConfig
from .cluster import (
    k_selection_scores,
    lloyd_kmeans,
    pca_project_2d,
    quality_report,
    relation_point_set,
    sample_cluster_exemplars,
)
from .embedding import EmbeddingTable, TrainConfig, hits_at_k, train
from .errors import ConfigError, DataError
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
)
from .negation import run_negation_study, write_unknown_pairs
from .relsim import (
    DefinitionCorpus,
    SimilarityMatrix,
    embedding_similarity_matrix,
    jaccard_overlap_matrix,
    mutual_nearest_pairs,
    nearest_relations,
    tfidf_similarity_matrix,
)
from .validation import RelationProfile, similarity_lists, validate_relation

log = logging.getLogger(__name__)

TFIDF_VARIANT = "raw term counts, idf = ln(N/df), cosine similarity"
TFIDF_REFERENCE_PAIR = ("HasContext", "PartOf")
TFIDF_REFERENCE_SCORE = 0.178
TFIDF_REFERENCE_BAND = 0.05


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class ValidateStage:
    enabled: bool = False
    bins: int = 100
    min_triples: int = 2


@dataclass(frozen=True)
class RelsimStage:
    enabled: bool = False
    definitions_path: str | None = None  # None -> bundled corpus


@dataclass(frozen=True)
class ClusterStage:
    enabled: bool = False
    relations: tuple[str, ...] = ()
    k: int = 20
    k_range: tuple[int, int] | None = None  # inclusive; adds the selection curve
    exemplars_per_cluster: int = 5
    seed: int | None = None


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

    def resolved(self) -> "PipelineConfig":
        """Fill every omitted seed deterministically from the master seed."""
        split = self.split or SplitSpec(seed=self.seed + 2)
        train_cfg = self.train or TrainConfig(seed=self.seed + 3)
        return replace(
            self,
            sample_seed=self.sample_seed if self.sample_seed is not None else self.seed + 1,
            split=split,
            train=train_cfg,
            cluster=replace(
                self.cluster,
                seed=self.cluster.seed if self.cluster.seed is not None else self.seed + 4,
            ),
            negation=replace(
                self.negation,
                seed=self.negation.seed if self.negation.seed is not None else self.seed + 5,
            ),
        )

    def validate_fields(self) -> None:
        if self.format not in FORMATS:
            raise ConfigError(f"unknown input format: {self.format!r}")
        if self.analysis_scope not in ("full", "train"):
            raise ConfigError(
                f"analysis_scope must be 'full' or 'train', got {self.analysis_scope!r}"
            )
        if self.sample_size is not None and self.sample_size < 0:
            raise ConfigError(f"sample_size must be >= 0, got {self.sample_size}")
        if self.split:
            self.split.validate()
        if self.train:
            self.train.validate("train")
        if self.validate.bins < 1:
            raise ConfigError("validate.bins must be >= 1")
        if self.cluster.enabled:
            if not self.cluster.relations:
                raise ConfigError("cluster stage enabled but no relations listed")
            if self.cluster.k < 1:
                raise ConfigError("cluster.k must be >= 1")
            if self.cluster.exemplars_per_cluster < 1:
                raise ConfigError(
                    "cluster.exemplars_per_cluster must be >= 1, "
                    f"got {self.cluster.exemplars_per_cluster}"
                )
            if self.cluster.k_range is not None:
                lo, hi = self.cluster.k_range
                if lo < 2 or hi < lo:
                    raise ConfigError(f"bad cluster.k_range: {self.cluster.k_range}")
        if self.negation.enabled:
            if self.negation.classifier not in ("linear", "forest", "both"):
                raise ConfigError(
                    f"unknown classifier: {self.negation.classifier!r}"
                )
            if self.negation.folds < 2:
                raise ConfigError("negation.folds must be >= 2")
            self.negation.linear.validate("negation.linear")
            self.negation.forest.validate("negation.forest")

    def to_json_dict(self) -> dict:
        return _jsonable(asdict(self))

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipelineConfig":
        config = _load(cls, data, "")
        # a split or train block that leaves out its seed derives it from the
        # master seed, as resolved() does for an omitted block
        derived = {
            name: replace(getattr(config, name), seed=config.seed + offset)
            for name, offset in (("split", 2), ("train", 3))
            if getattr(config, name) is not None and "seed" not in data[name]
        }
        return replace(config, **derived)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_json_dict(read_config(path))


def read_config(path: str | Path) -> dict:
    """The JSON object held by the config file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _load(cls, data, where: str):
    """Build dataclass ``cls`` from parsed JSON, checking every field's type.

    ``where`` is the dotted path of ``data`` within the config ("" at the
    top). An unknown key, a missing required field or a value of the wrong
    type raises ConfigError naming the dotted field.
    """
    label = where or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{label}: expected an object, got {type(data).__name__} {data!r}")
    declared = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ConfigError(f"{label}: unknown keys {unknown}")
    for name, spec in declared.items():
        if name not in data and spec.default is MISSING and spec.default_factory is MISSING:
            raise ConfigError(f"{label}: missing required field {name!r}")
    hints = typing.get_type_hints(cls)
    prefix = f"{where}." if where else ""
    return cls(**{name: _check(hints[name], value, prefix + name) for name, value in data.items()})


def _check(hint, value, where: str):
    """``value`` checked against the field type ``hint``; JSON lists become tuples."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_dataclass(hint):
        return _load(hint, value, where)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        options = [a for a in args if a is not type(None)]
        if len(options) == 1:
            return _check(options[0], value, where)
        for option in options:
            try:
                return _check(option, value, where)
            except ConfigError:
                pass
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            kinds = (args[0],) * len(value) if args[1:] == (Ellipsis,) else args
            if len(kinds) == len(value):
                return tuple(
                    _check(kind, item, f"{where}[{i}]")
                    for i, (kind, item) in enumerate(zip(kinds, value))
                )
    elif hint is float:
        # kept as given: embeddings.kgt echoes the train config, so turning
        # 1 into 1.0 would change its bytes
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
    elif isinstance(value, hint) and not (hint is int and isinstance(value, bool)):
        return value
    expected = str(hint) if origin else hint.__name__
    raise ConfigError(f"{where}: expected {expected}, got {type(value).__name__} {value!r}")


# -- small IO helpers ---------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
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


def _fmt(value, places: int = 6) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return ""
    return f"{value:.{places}f}"


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


def _relation_profiles(
    table: EmbeddingTable, graph: KnowledgeGraph
) -> list[RelationProfile]:
    profiles = []
    for rid in range(graph.n_relations):
        try:
            profiles.append(similarity_lists(table, graph, rid))
        except DataError as exc:
            log.warning("skipping relation in profile pass: %s", exc)
    return profiles


def stage_validate(
    table: EmbeddingTable, graph: KnowledgeGraph, cfg: ValidateStage, out_dir: Path
) -> list[dict]:
    records = []
    for rid in range(graph.n_relations):
        rows = graph.relation_index.get(rid)
        if rows is None or len(rows) < cfg.min_triples:
            continue
        name = graph.relation_names[rid]
        try:
            rec = validate_relation(table, graph, rid, bins=cfg.bins)
        except DataError as exc:
            log.warning("validation skipped for %s: %s", name, exc)
            records.append({"relation": name, "error": str(exc)})
            continue
        records.append(
            {
                "relation": rec.relation,
                "triples": rec.triple_count,
                "skipped": rec.skipped,
                "spearman": rec.spearman,
                "spearman_abs": rec.spearman_abs,
                "kl": rec.kl,
            }
        )
    write_json(out_dir / "validation.json", records)
    header = ["relation", "triples", "skipped", "spearman", "spearman_abs", "kl"]
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


def stage_relsim(
    graph: KnowledgeGraph,
    cfg: RelsimStage,
    out_dir: Path,
    profiles: list[RelationProfile],
) -> dict:
    corpus = (
        DefinitionCorpus.from_json(cfg.definitions_path)
        if cfg.definitions_path
        else DefinitionCorpus.bundled()
    )
    matrices = {"tfidf": tfidf_similarity_matrix(corpus)}
    matrices["jaccard_head"] = jaccard_overlap_matrix(graph, "head")
    matrices["jaccard_tail"] = jaccard_overlap_matrix(graph, "tail")
    for kind in ("centroid", "direct"):
        try:
            matrices[f"cosine_{kind}"] = embedding_similarity_matrix(profiles, kind)
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
    notes = {}
    reports = []
    for relation in cfg.relations:
        points = relation_point_set(table, graph, relation)
        rel_dir = out_dir / f"cluster_{relation.replace('/', '_')}"
        rel_dir.mkdir(parents=True, exist_ok=True)
        if cfg.k_range is not None and len(points) - 1 >= cfg.k_range[0]:
            lo, hi = cfg.k_range
            hi = min(hi, len(points) - 1)
            curve = k_selection_scores(points, range(lo, hi + 1), seed=cfg.seed)
            header = ["k", "inertia", "silhouette", "davies_bouldin", "calinski_harabasz"]
            scores = [getattr(curve, name) for name in header[1:]]
            write_csv(
                rel_dir / "kselection.csv",
                header,
                ([k, *map(_fmt, row)] for k, *row in zip(curve.ks, *scores)),
            )
        k = min(cfg.k, len(points))
        result = lloyd_kmeans(points, k, seed=cfg.seed)
        report = quality_report(points, result, relation=points.relation)
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
                [_fmt(x), _fmt(y), int(cluster)]
                for (x, y), cluster in zip(projection.coordinates, result.assignments)
            ),
        )
        notes[relation] = {
            "points": len(points),
            "k": result.k,
            "inertia": result.inertia,
            "converged": result.converged,
            "explained_variance_2d": projection.explained,
        }
    _emit_merged_quality(reports, out_dir)
    return notes


def _emit_merged_quality(reports: list, out_dir: Path) -> None:
    """Cross-relation cohesion/separation tables (cluster id x relation).

    Only written when every clustered relation ended with the same k, since
    the rows are cluster ids. Cluster ids are assigned independently per
    relation; columns are not aligned in any semantic sense.
    """
    if len(reports) < 1 or len({r.k for r in reports}) != 1:
        if len(reports) > 1:
            log.warning("clustered relations have different k; skipping merged tables")
        return
    k = reports[0].k
    for metric, mean_of, std_of in (
        ("cohesion_raw", "cohesion_raw_mean", "cohesion_raw_std"),
        ("separation", "separation_mean", "separation_std"),
    ):
        write_csv(
            out_dir / f"cluster_{metric}_by_relation.csv",
            ["cluster", *(r.relation for r in reports)],
            [
                *([j, *(_fmt(getattr(r, metric)[j]) for r in reports)] for j in range(k)),
                ["mean", *(_fmt(getattr(r, mean_of)) for r in reports)],
                ["std_dev", *(_fmt(getattr(r, std_of)) for r in reports)],
            ],
        )


def stage_negation(
    table: EmbeddingTable, graph: KnowledgeGraph, cfg: NegationStage, out_dir: Path
) -> dict:
    report, universe, sample = run_negation_study(
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
    write_unknown_pairs(universe, sample, out_dir / "unknown_pairs.tsv")
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


def ingest(config: PipelineConfig) -> KnowledgeGraph:
    """Parse, filter, and (optionally) sample the input per the config."""
    if not Path(config.input).exists():
        raise DataError(f"input file does not exist: {config.input}")
    graph = parse_edge_file(config.input, config.format)
    if config.exclude_relations:
        graph = filter_relations(graph, set(config.exclude_relations))
    if config.sample_size is not None:
        graph = sample_triples(graph, config.sample_size, config.sample_seed or 0)
    return graph


def _check_referenced_relations(graph: KnowledgeGraph, config: PipelineConfig) -> None:
    wanted = []
    if config.cluster.enabled:
        wanted.extend(config.cluster.relations)
    if config.negation.enabled:
        wanted.extend([config.negation.relation, config.negation.negation_relation])
    known = set(graph.relation_names)
    missing = [name for name in wanted if name not in known]
    if missing:
        raise DataError(f"configured relations are absent from the graph: {missing}")


ANALYSIS_STAGES = ("validate", "relsim", "cluster", "negation")


def run_pipeline(
    config: PipelineConfig, table: EmbeddingTable | None = None
) -> ReportBundle:
    """Execute the selected stages in dependency order, atomically.

    Embeddings are trained when the config has a ``train`` block or enables
    an analysis stage. A given ``table`` replaces training: its rows are
    matched to the graph by name, and every stage reads it. Everything is
    written to a temporary sibling of the output directory, which is renamed
    into place only after the manifest lands; a failing stage therefore
    leaves no partial bundle behind.
    """
    config.validate_fields()
    wants_table = config.train is not None or any(
        getattr(config, stage).enabled for stage in ANALYSIS_STAGES
    )
    config = config.resolved()
    out_dir = Path(config.out)
    if out_dir.exists():
        raise DataError(f"output directory already exists: {out_dir}")
    tmp_dir = out_dir.parent / (out_dir.name + ".partial")
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir(parents=True)

    timings: dict[str, float] = {}
    notes: dict = {}

    def timed(name: str, fn):
        start = time.perf_counter()
        value = fn()
        timings[name] = time.perf_counter() - start
        return value

    try:
        graph = timed("ingest", lambda: ingest(config))
        _check_referenced_relations(graph, config)
        timed("stats", lambda: stage_stats(graph, tmp_dir))

        analysis_graph = graph
        if table is not None or wants_table:
            train_idx, _val_idx, test_idx = split_indices(graph.n_triples, config.split)
            if table is not None:
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
                }
                if len(test_idx):
                    notes["train"]["test_hits_at_10"] = timed(
                        "hits",
                        lambda: hits_at_k(table, graph.subset(test_idx, recompact=False), k=10),
                    )
            table.save(tmp_dir / "embeddings.kgt")
            if config.analysis_scope == "train":
                # analyses see only the train split; interning is kept so
                # the graph stays aligned with the table's rows
                analysis_graph = graph.subset(train_idx, recompact=False)
        if config.validate.enabled:
            timed(
                "validate",
                lambda: stage_validate(table, analysis_graph, config.validate, tmp_dir),
            )
        if config.relsim.enabled:
            notes["relsim"] = timed(
                "relsim",
                lambda: stage_relsim(
                    analysis_graph,
                    config.relsim,
                    tmp_dir,
                    _relation_profiles(table, analysis_graph),
                ),
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
        }
        write_json(tmp_dir / "manifest.json", manifest)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise

    os.replace(tmp_dir, out_dir)
    return ReportBundle(out_dir=out_dir, manifest=manifest)

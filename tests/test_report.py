import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from kgstruct import report
from kgstruct.cli import _load_config, build_parser
from kgstruct.errors import ConfigError, DataError
from kgstruct.graph import write_generic_3col
from kgstruct.relsim import SimilarityMatrix
from kgstruct.report import (
    PipelineConfig,
    emit_matrix_csv,
    run_pipeline,
)
from kgstruct.synth import demo_plan, synthetic_graph


@pytest.fixture(scope="module")
def demo_kg(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("kg") / "demo.tsv"
    write_generic_3col(synthetic_graph(demo_plan()), path)
    return path


def full_config(demo_kg: Path, out: Path) -> dict:
    return {
        "input": str(demo_kg),
        "out": str(out),
        "seed": 9,
        "train": {"dimension": 16, "epochs": 8, "seed": 3},
        "validate": {"enabled": True},
        "relsim": {"enabled": True},
        "cluster": {"enabled": True, "relations": ["HasContext"], "k": 4},
        "negation": {
            "enabled": True,
            "relation": "Desires",
            "negation_relation": "NotDesires",
            "folds": 5,
            "forest": {"n_trees": 10, "max_depth": 6},
        },
    }


@pytest.fixture(scope="module")
def full_bundle(demo_kg, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "report"
    config = PipelineConfig.from_json_dict(full_config(demo_kg, out))
    return run_pipeline(config)


# -- configuration ---------------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_dict({"input": "x", "typo_field": 1})
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_dict({"input": "x", "train": {"dims": 4}})


def test_config_requires_input():
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_dict({"out": "y"})


def test_config_resolves_all_seeds(tmp_path):
    config = PipelineConfig.from_json_dict({"input": "x", "seed": 40}).resolved()
    assert config.sample_seed == 41
    assert config.split.seed == 42
    assert config.train.seed == 43
    assert config.cluster.seed == 44
    assert config.negation.seed == 45
    # a split or train block without a seed derives it as an omitted block does
    blocks = {"split": {"train": 0.5, "validation": 0.25, "test": 0.25}, "train": {"epochs": 2}}
    for master in (40, 41):
        config = PipelineConfig.from_json_dict({"input": "x", "seed": master, **blocks})
        assert (config.split.seed, config.train.seed) == (master + 2, master + 3)
        assert config.resolved().train.epochs == 2
    explicit = {"split": {**blocks["split"], "seed": 0}, "train": {"epochs": 2, "seed": 0}}
    config = PipelineConfig.from_json_dict({"input": "x", "seed": 40, **explicit})
    assert (config.split.seed, config.train.seed) == (0, 0)
    # --seed overrides the master seed before the omitted block seeds derive
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input": "x", "seed": 40, **blocks}), encoding="utf-8")
    for command in ("train", "run"):
        args = build_parser().parse_args([command, "--config", str(path), "--seed", "7"])
        config = _load_config(args).resolved()
        assert (config.seed, config.split.seed, config.train.seed) == (7, 9, 10)


def test_config_validation_catches_bad_stages():
    base = {"input": "x"}
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_dict(
            {**base, "cluster": {"enabled": True, "relations": []}}
        ).validate_fields()
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_dict(
            {**base, "negation": {"enabled": True, "classifier": "svm"}}
        ).validate_fields()
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_dict({**base, "format": "xml"}).validate_fields()


def test_config_json_file_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input": "a.tsv", "seed": 5}), encoding="utf-8")
    config = PipelineConfig.from_json_file(path)
    assert config.input == "a.tsv" and config.seed == 5
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_file(bad)


# -- matrix csv -------------------------------------------------------------------


def test_emit_matrix_csv_three_lines(tmp_path):
    matrix = SimilarityMatrix(["a", "b"], np.asarray([[1.0, 0.25], [0.25, 1.0]]), "tfidf")
    path = tmp_path / "m.csv"
    emit_matrix_csv(matrix, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "relation,a,b"
    assert lines[1] == "a,1.000000,0.250000"


def read_matrix_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Relation names and values of a matrix CSV, parsed back with the csv module."""
    with open(path, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    return header[1:], np.asarray([[float(v) for v in row[1:]] for row in rows])


def test_matrix_csv_roundtrip_within_tolerance(tmp_path):
    rng = np.random.default_rng(2)
    base = rng.uniform(size=(5, 5))
    values = (base + base.T) / 2
    np.fill_diagonal(values, 1.0)
    matrix = SimilarityMatrix([f"r{i}" for i in range(5)], values, "tfidf")
    path = tmp_path / "m.csv"
    emit_matrix_csv(matrix, path)
    names, values = read_matrix_csv(path)
    assert names == matrix.relations
    assert np.abs(values - matrix.values).max() <= 1e-6


def test_matrix_csv_quotes_commas(tmp_path):
    matrix = SimilarityMatrix(
        ["plain", "with, comma"], np.asarray([[1.0, 0.5], [0.5, 1.0]]), "tfidf"
    )
    path = tmp_path / "m.csv"
    emit_matrix_csv(matrix, path)
    text = path.read_text()
    assert '"with, comma"' in text
    names, values = read_matrix_csv(path)
    assert names == ["plain", "with, comma"]
    assert values.tolist() == [[1.0, 0.5], [0.5, 1.0]]


# -- full pipeline -----------------------------------------------------------------


EXPECTED_MATRICES = {
    "tfidf_similarity.csv",
    "jaccard_head_similarity.csv",
    "jaccard_tail_similarity.csv",
    "cosine_centroid_similarity.csv",
    "cosine_direct_similarity.csv",
}


def test_bundle_contains_all_stage_outputs(full_bundle):
    files = set(full_bundle.manifest["files"])
    assert "stats.json" in files and "relation_stats.csv" in files
    assert "validation.csv" in files and "validation.json" in files
    assert EXPECTED_MATRICES <= files
    json_matrices = {name.replace(".csv", ".json") for name in EXPECTED_MATRICES}
    assert json_matrices <= files
    assert "cluster_HasContext/quality.csv" in files
    assert "cluster_HasContext/exemplars.csv" in files
    assert "cluster_HasContext/pca2d.csv" in files
    assert "negation_report.json" in files
    assert "negation_universe.csv" in files
    assert "unknown_pairs.tsv" in files
    assert "embeddings.kgt" in files


def test_manifest_lists_exactly_the_emitted_files(full_bundle):
    out = full_bundle.out_dir
    on_disk = {
        p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()
    }
    assert on_disk - {"manifest.json"} == set(full_bundle.manifest["files"])
    for entry in full_bundle.manifest["files"].values():
        assert len(entry["sha256"]) == 64 and entry["bytes"] > 0


def test_manifest_carries_tfidf_note_and_config(full_bundle):
    note = full_bundle.manifest["notes"]["relsim"]["tfidf"]
    assert "variant" in note
    if not note.get("within_band", True):
        assert "discrepancy" in note
    config = full_bundle.manifest["config"]
    assert config["train"]["dimension"] == 16
    assert config["negation"]["seed"] is not None


def test_pipeline_deterministic_checksums(demo_kg, tmp_path):
    config = full_config(demo_kg, tmp_path / "run1")
    first = run_pipeline(PipelineConfig.from_json_dict(config))
    config["out"] = str(tmp_path / "run2")
    second = run_pipeline(PipelineConfig.from_json_dict(config))
    checksums_a = {k: v["sha256"] for k, v in first.manifest["files"].items()}
    checksums_b = {k: v["sha256"] for k, v in second.manifest["files"].items()}
    assert checksums_a == checksums_b


def test_stage_isolation_disabling_cluster(demo_kg, tmp_path, full_bundle):
    config = full_config(demo_kg, tmp_path / "nocluster")
    config["cluster"] = {"enabled": False}
    partial = run_pipeline(PipelineConfig.from_json_dict(config))
    full_files = {k: v["sha256"] for k, v in full_bundle.manifest["files"].items()}
    partial_files = {k: v["sha256"] for k, v in partial.manifest["files"].items()}
    assert not any(k.startswith("cluster_") for k in partial_files)
    for name, digest in partial_files.items():
        assert full_files[name] == digest, name


def test_pipeline_no_stages_gives_stats_only(demo_kg, tmp_path):
    config = PipelineConfig.from_json_dict(
        {"input": str(demo_kg), "out": str(tmp_path / "statsonly")}
    )
    bundle = run_pipeline(config)
    assert set(bundle.manifest["files"]) == {"stats.json", "relation_stats.csv"}


def test_relsim_timing_includes_the_profile_pass(demo_kg, tmp_path, monkeypatch):
    profiles = report._relation_profiles

    def slow_profiles(*args):
        time.sleep(0.5)
        return profiles(*args)

    monkeypatch.setattr(report, "_relation_profiles", slow_profiles)
    config = PipelineConfig.from_json_dict(
        {
            "input": str(demo_kg),
            "out": str(tmp_path / "relsim"),
            "train": {"dimension": 4, "epochs": 1, "seed": 1},
            "relsim": {"enabled": True},
        }
    )
    assert run_pipeline(config).manifest["timings_seconds"]["relsim"] >= 0.5


def test_pipeline_train_block_alone_trains(demo_kg, tmp_path):
    config = PipelineConfig.from_json_dict(
        {
            "input": str(demo_kg),
            "out": str(tmp_path / "trained"),
            "train": {"dimension": 4, "epochs": 2, "seed": 1},
        }
    )
    bundle = run_pipeline(config)
    assert set(bundle.manifest["files"]) == {
        "stats.json", "relation_stats.csv", "embeddings.kgt",
    }
    assert bundle.manifest["notes"]["train"]["triples"] == 376


def test_config_type_errors_name_the_field():
    with pytest.raises(ConfigError, match=r"cluster\.k: expected int, got str '4'"):
        PipelineConfig.from_json_dict({"input": "x", "cluster": {"k": "4"}})
    with pytest.raises(ConfigError, match=r"validate\.enabled: expected bool"):
        PipelineConfig.from_json_dict({"input": "x", "validate": {"enabled": "yes"}})
    with pytest.raises(ConfigError, match=r"train\.epochs: expected int, got bool"):
        PipelineConfig.from_json_dict({"input": "x", "train": {"epochs": True}})
    with pytest.raises(ConfigError, match=r"cluster\.k_range\[1\]"):
        PipelineConfig.from_json_dict({"input": "x", "cluster": {"k_range": [2, "9"]}})
    config = PipelineConfig.from_json_dict(
        {
            "input": "x",
            "exclude_relations": ["A"],
            "train": {"learning_rate": 1},
            "cluster": {"relations": ["B"], "k_range": [2, 9]},
            "negation": {"forest": {"max_features": 3}},
        }
    )
    assert config.exclude_relations == ("A",)
    assert config.cluster.relations == ("B",) and config.cluster.k_range == (2, 9)
    assert config.train.learning_rate == 1


def test_pipeline_missing_input_fails_fast(tmp_path):
    config = PipelineConfig.from_json_dict(
        {"input": str(tmp_path / "missing.tsv"), "out": str(tmp_path / "o")}
    )
    with pytest.raises(DataError):
        run_pipeline(config)
    assert not (tmp_path / "o").exists()
    assert not (tmp_path / "o.partial").exists()


def test_pipeline_unknown_relation_fails_before_training(demo_kg, tmp_path):
    config = PipelineConfig.from_json_dict(
        {
            "input": str(demo_kg),
            "out": str(tmp_path / "o"),
            "cluster": {"enabled": True, "relations": ["NoSuchRelation"]},
        }
    )
    with pytest.raises(DataError, match="NoSuchRelation"):
        run_pipeline(config)
    assert not (tmp_path / "o").exists()


def test_pipeline_refuses_existing_output(demo_kg, tmp_path):
    out = tmp_path / "exists"
    out.mkdir()
    config = PipelineConfig.from_json_dict({"input": str(demo_kg), "out": str(out)})
    with pytest.raises(DataError):
        run_pipeline(config)


def test_validation_records_structure(full_bundle):
    payload = json.loads((full_bundle.out_dir / "validation.json").read_text())
    assert payload
    for record in payload:
        if "error" in record:
            continue
        assert set(record) == {
            "relation", "triples", "skipped", "spearman", "spearman_abs", "kl",
        }
        assert record["kl"] >= 0.0


def test_negation_report_structure(full_bundle):
    payload = json.loads((full_bundle.out_dir / "negation_report.json").read_text())
    assert payload["universe"]["relation"] == "Desires"
    assert payload["tail_ratio"] >= 1
    assert payload["label_counts"]["unknown"] == payload["sample_size"]
    kinds = {cv["classifier"] for cv in payload["cross_validation"]}
    assert kinds == {"linear", "forest"}


def test_cluster_stage_skips_curve_on_tiny_relation(tmp_path):
    from kgstruct.graph import KnowledgeGraph, write_generic_3col

    rows = [("a", "tiny", "b"), ("c", "tiny", "d"),
            ("x1", "filler", "y1"), ("x2", "filler", "y2"), ("x3", "filler", "y3")]
    kg = tmp_path / "tiny.tsv"
    write_generic_3col(KnowledgeGraph.from_labeled_triples(rows), kg)
    config = PipelineConfig.from_json_dict(
        {
            "input": str(kg),
            "out": str(tmp_path / "o"),
            "train": {"dimension": 4, "epochs": 2, "seed": 1},
            "cluster": {
                "enabled": True,
                "relations": ["tiny"],
                "k": 2,
                "k_range": [2, 6],  # collapses below lo for a 2-point relation
            },
        }
    )
    bundle = run_pipeline(config)
    files = set(bundle.manifest["files"])
    assert "cluster_tiny/quality.csv" in files
    assert "cluster_tiny/kselection.csv" not in files


def test_relsim_stage_survives_single_relation_graph(tmp_path, caplog):
    from kgstruct.graph import KnowledgeGraph, write_generic_3col

    rows = [(f"h{i}", "only", f"t{i}") for i in range(6)]
    kg = tmp_path / "single.tsv"
    write_generic_3col(KnowledgeGraph.from_labeled_triples(rows), kg)
    config = PipelineConfig.from_json_dict(
        {
            "input": str(kg),
            "out": str(tmp_path / "o"),
            "train": {"dimension": 4, "epochs": 2, "seed": 1},
            "relsim": {"enabled": True},
        }
    )
    bundle = run_pipeline(config)
    files = set(bundle.manifest["files"])
    assert "tfidf_similarity.csv" in files
    assert "jaccard_head_similarity.csv" in files
    assert "cosine_centroid_similarity.csv" not in files  # skipped with warning


def test_stage_validate_records_degenerate_relations(tmp_path):
    from kgstruct.embedding import TrainConfig, train
    from kgstruct.graph import KnowledgeGraph
    from kgstruct.report import ValidateStage, stage_validate

    rows = [("a", "self", "a"), ("b", "self", "b"),
            ("a", "ok", "b"), ("b", "ok", "c"), ("a", "ok", "c")]
    graph = KnowledgeGraph.from_labeled_triples(rows)
    table = train(graph, TrainConfig(dimension=4, epochs=2, seed=0))
    records = stage_validate(table, graph, ValidateStage(enabled=True), tmp_path)
    by_relation = {r["relation"]: r for r in records}
    assert "error" in by_relation["self"]  # all-zero translation vectors
    assert "kl" in by_relation["ok"]
    csv_rows = (tmp_path / "validation.csv").read_text().strip().splitlines()
    assert len(csv_rows) == 2  # header + the one healthy relation


def test_pipeline_sample_size_reduces_graph(demo_kg, tmp_path):
    config = PipelineConfig.from_json_dict(
        {
            "input": str(demo_kg),
            "out": str(tmp_path / "sampled"),
            "sample_size": 120,
            "seed": 3,
        }
    )
    bundle = run_pipeline(config)
    stats = json.loads((bundle.out_dir / "stats.json").read_text())
    assert stats["triples"] == 120


def test_cluster_stage_merged_quality_tables(demo_kg, tmp_path):
    config = PipelineConfig.from_json_dict(
        {
            "input": str(demo_kg),
            "out": str(tmp_path / "multi"),
            "train": {"dimension": 8, "epochs": 3, "seed": 1},
            "cluster": {
                "enabled": True,
                "relations": ["HasContext", "FormOf"],
                "k": 4,
            },
        }
    )
    bundle = run_pipeline(config)
    files = set(bundle.manifest["files"])
    assert "cluster_cohesion_raw_by_relation.csv" in files
    assert "cluster_separation_by_relation.csv" in files
    rows = (bundle.out_dir / "cluster_cohesion_raw_by_relation.csv").read_text().strip().splitlines()
    assert rows[0] == "cluster,HasContext,FormOf"
    assert len(rows) == 1 + 4 + 2  # header + k rows + mean + std_dev


def test_manifest_reports_training_note_with_hits(full_bundle):
    note = full_bundle.manifest["notes"]["train"]
    assert note["triples"] == 376  # 500 - floor(62.5) - floor(62.5); train takes the remainder
    assert note["final_epoch_loss"] <= note["first_epoch_loss"]
    assert 0.0 <= note["test_hits_at_10"] <= 1.0


def test_analysis_scope_train_restricts_analysis_rows(demo_kg, tmp_path):
    base = {
        "input": str(demo_kg),
        "seed": 9,
        "train": {"dimension": 8, "epochs": 3, "seed": 3},
        "validate": {"enabled": True},
    }
    full = run_pipeline(
        PipelineConfig.from_json_dict({**base, "out": str(tmp_path / "full")})
    )
    train_only = run_pipeline(
        PipelineConfig.from_json_dict(
            {**base, "out": str(tmp_path / "train"), "analysis_scope": "train"}
        )
    )
    rows_full = json.loads((full.out_dir / "validation.json").read_text())
    rows_train = json.loads((train_only.out_dir / "validation.json").read_text())
    count_full = sum(r["triples"] for r in rows_full if "triples" in r)
    count_train = sum(r["triples"] for r in rows_train if "triples" in r)
    assert count_full == 500
    assert count_train == 376  # only the train split feeds the analysis
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_dict(
            {**base, "out": "x", "analysis_scope": "validation"}
        ).validate_fields()


def test_bad_classifier_hyperparams_are_config_errors():
    # the classifier blocks are typed, so an unknown key fails as the config loads
    for key in ("n_treez", "seed"):
        with pytest.raises(ConfigError, match=rf"negation\.forest: unknown keys \['{key}'\]"):
            PipelineConfig.from_json_dict(
                {"input": "x", "negation": {"enabled": True, "forest": {key: 5}}}
            )
    config = PipelineConfig.from_json_dict(
        {"input": "x", "negation": {"enabled": True, "forest": {"n_trees": 0}}}
    )
    assert config.negation.forest.n_trees == 0
    with pytest.raises(ConfigError, match=r"negation\.forest\.n_trees: must be >= 1"):
        config.validate_fields()

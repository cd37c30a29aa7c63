import csv
import json
import re
import stat
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import from_labeled_triples, patch_physical_memory, strict_json
from kgstruct import report, validation
from kgstruct.classify import cross_validate
from kgstruct.cli import _load_config, build_parser
from kgstruct.embedding import EmbeddingTable, TrainConfig, train_working_set_bytes
from kgstruct.errors import ConfigError, DataError
from kgstruct.graph import SplitSpec, split_indices, write_generic_3col
from kgstruct.relsim import SimilarityMatrix
from kgstruct.report import (
    PipelineConfig,
    emit_matrix_csv,
    read_config,
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
    config = PipelineConfig.from_json_dict({"input": "x", "seed": 40, "validate": {"enabled": True}})
    assert config.sample_seed == 41
    assert config.split.seed == 42
    assert config.train.seed == 43
    assert config.cluster.seed == 44
    assert config.negation.seed == 45
    # a config that enables no analysis trains nothing, so it has no train block
    assert PipelineConfig.from_json_dict({"input": "x", "seed": 40}).train is None
    # a split or train block without a seed derives it as an omitted block does
    blocks = {"split": {"train": 0.5, "validation": 0.25, "test": 0.25}, "train": {"epochs": 2}}
    for master in (40, 41):
        config = PipelineConfig.from_json_dict({"input": "x", "seed": master, **blocks})
        assert (config.split.seed, config.train.seed) == (master + 2, master + 3)
        assert config.train.epochs == 2
    explicit = {"split": {**blocks["split"], "seed": 0}, "train": {"epochs": 2, "seed": 0}}
    config = PipelineConfig.from_json_dict({"input": "x", "seed": 40, **explicit})
    assert (config.split.seed, config.train.seed) == (0, 0)
    # --seed overrides the master seed before the omitted block seeds derive
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input": "x", "seed": 40, **blocks}), encoding="utf-8")
    for command in ("train", "run"):
        args = build_parser().parse_args([command, "--config", str(path), "--seed", "7"])
        config = _load_config(args)
        assert (config.seed, config.split.seed, config.train.seed) == (7, 9, 10)
    # the train subcommand trains without a train block; stats trains nothing
    for command, train_seed in (("train", 10), ("validate", 10), ("stats", None)):
        args = build_parser().parse_args([command, "--input", "x", "--seed", "7"])
        config = _load_config(args)
        assert (config.sample_seed, config.split.seed, config.cluster.seed) == (8, 9, 11)
        assert (config.train and config.train.seed) == train_seed


def test_config_validation_catches_bad_stages():
    base = {"input": "x"}
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_dict({**base, "cluster": {"enabled": True, "relations": []}})
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_dict(
            {**base, "negation": {"enabled": True, "classifier": "svm"}}
        )
    with pytest.raises(ConfigError):
        PipelineConfig.from_json_dict({**base, "format": "xml"})
    # replace builds a new config, which is checked again
    config = PipelineConfig.from_json_dict(base)
    with pytest.raises(ConfigError, match="no relations listed"):
        replace(config, cluster=replace(config.cluster, enabled=True, relations=()))


@pytest.mark.parametrize(
    "block, named",
    [
        ({"cluster": {"k": 0}}, "cluster.k"),
        ({"cluster": {"k_range": [1, 5]}}, "cluster.k_range"),
        ({"negation": {"folds": 1}}, "negation.folds"),
        ({"negation": {"classifier": "svm"}}, "negation.classifier"),
        ({"negation": {"forest": {"n_trees": 0}}}, "negation.forest.n_trees"),
    ],
    ids=["cluster-k", "cluster-k-range", "negation-folds", "negation-classifier", "forest-trees"],
)
def test_a_disabled_stage_is_checked_at_load(block, named):
    with pytest.raises(ConfigError, match=rf"^{re.escape(named)}: must "):
        PipelineConfig.from_json_dict({"input": "x", **block})


def test_config_json_file_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input": "a.tsv", "seed": 5}), encoding="utf-8")
    config = PipelineConfig.from_json_dict(read_config(path))
    assert config.input == "a.tsv" and config.seed == 5
    with pytest.raises(ConfigError):
        read_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_config(bad)


# -- preflight --------------------------------------------------------------------


def test_preflight_bounds_the_trainers_working_set(monkeypatch):
    graph = synthetic_graph(demo_plan())
    config = PipelineConfig.from_json_dict(
        {"input": "x", "train": {"dimension": 16, "negatives": 100_000}, "validate": {"enabled": True}}
    )
    # a batch is the whole 400-triple train split, so the batch size does not count
    need = train_working_set_bytes(400, graph.n_entities, graph.n_relations, config.train)
    assert need == 4 * 16 * (6 * (400 + 400 * 100_000) + 3 * (160 + 5)) + 96 * 400 * 100_000
    patch_physical_memory(monkeypatch, need)
    report.preflight(graph, config, None, 400, graph.n_triples)
    patch_physical_memory(monkeypatch, need - 1)
    with pytest.raises(DataError, match=r"about 17\.88 GiB of arrays") as err:
        report.preflight(graph, config, None, 400, graph.n_triples)
    for field in ("train.negatives", "train.batch_size", "train.dimension"):
        assert field in str(err.value)
    # a given table replaces training, so its settings are not estimated
    table = EmbeddingTable(
        graph.entity_names, graph.relation_names,
        np.ones((graph.n_entities, 4), np.float32), np.ones((graph.n_relations, 4), np.float32),
    )
    report.preflight(graph, config, table, 400, graph.n_triples)


def test_preflight_checks_the_larger_working_set_and_returns_both(monkeypatch):
    graph = synthetic_graph(demo_plan())
    config = PipelineConfig.from_json_dict(
        {"input": "x", "train": {"dimension": 16}, "validate": {"enabled": True, "bins": 10**8}}
    )
    train_need = train_working_set_bytes(400, graph.n_entities, graph.n_relations, config.train)
    bins_need = validation.validate_working_set_bytes(10**8)
    assert bins_need == 64 * 10**8 > train_need
    patch_physical_memory(monkeypatch, bins_need)
    assert report.preflight(graph, config, None, 400, graph.n_triples) == {
        "train": train_need, "validate": bins_need
    }
    table = EmbeddingTable(
        graph.entity_names, graph.relation_names,
        np.ones((graph.n_entities, 4), np.float32), np.ones((graph.n_relations, 4), np.float32),
    )
    assert report.preflight(graph, config, table, 400, graph.n_triples) == {"validate": bins_need}
    # one byte short: refused before training, with or without a table
    patch_physical_memory(monkeypatch, bins_need - 1)
    for given in (None, table):
        with pytest.raises(DataError, match=r"validation would hold about 5\.96 GiB") as err:
            report.preflight(graph, config, given, 400, graph.n_triples)
        assert str(err.value).endswith("; lower validate.bins")
    # the default bins stay far below the trainer's estimate, which is the one checked
    default = replace(config, validate=replace(config.validate, bins=100))
    patch_physical_memory(monkeypatch, train_need)
    assert report.preflight(graph, default, None, 400, graph.n_triples)["validate"] == 6_400
    patch_physical_memory(monkeypatch, train_need - 1)
    with pytest.raises(DataError, match="lower train.negatives"):
        report.preflight(graph, default, None, 400, graph.n_triples)


@pytest.mark.parametrize(
    "positives, negatives, contradictions, folds",
    [(5, 2, 0, 3), (2, 3, 2, 2), (3, 3, 0, 10), (4, 1, 0, 2), (3, 0, 1, 2), (3, 3, 0, 3)],
    ids=["class-below-its-folds", "class-below-after-contradictions", "rows-below-folds",
         "one-row-of-a-class", "one-class-after-contradictions", "enough"],
)
def test_preflight_refuses_the_negation_classes_as_cross_validate_does(
    positives, negatives, contradictions, folds
):
    """The classes are counted after contradictions go, and refused with cross_validate's message."""
    rows = [(f"h{i}", "Desires", f"t{i}") for i in range(positives)]
    rows += [(f"h{i}", "NotDesires", f"u{i}") for i in range(negatives)]
    rows += [(f"c{i}", rel, f"c{i}") for i in range(contradictions) for rel in ("Desires", "NotDesires")]
    graph = from_labeled_triples(rows)
    config = PipelineConfig.from_json_dict({
        "input": "x", "train": {"dimension": 4},
        "negation": {"enabled": True, "folds": folds, "classifier": "linear"},
    })
    labels = np.repeat([1, 0], [positives, negatives])
    try:
        cross_validate(np.zeros((len(labels), 4)), labels, "linear", folds=folds)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            report.preflight(graph, config, None, graph.n_triples, graph.n_triples)
        assert str(err.value) == str(exc)
    else:
        report.preflight(graph, config, None, graph.n_triples, graph.n_triples)


def test_batch_rows_are_the_smaller_of_batch_size_and_train_triples():
    config = TrainConfig(dimension=8, negatives=3, batch_size=100)
    assert train_working_set_bytes(1_000, 50, 2, config) == 4 * 8 * (6 * (100 + 300) + 3 * 52) + 96 * 300
    assert train_working_set_bytes(40, 50, 2, config) == 4 * 8 * (6 * (40 + 120) + 3 * 52) + 96 * 120


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


@pytest.mark.parametrize(
    "value, text",
    [
        (None, ""),
        (float("nan"), ""),
        (np.float64("-inf"), ""),
        (np.float64(-0.0), "-0.000000"),
        (0.1234567, "0.123457"),
        (np.float64(0.1234567), "0.123457"),
        (np.float32(0.25), "0.250000"),
        (np.float32("nan"), ""),
        (np.float32("-inf"), ""),
        (7, "7.000000"),
    ],
)
def test_csv_numbers_take_six_places_and_non_finite_ones_are_blank(value, text):
    assert report._fmt(value) == text


@pytest.mark.parametrize(
    "value, parsed",
    [(np.float64("nan"), None), (np.float32("inf"), None), (np.float64("-inf"), None),
     (np.bool_(True), True), (np.float32(0.5), 0.5), (np.int16(-3), -3)],
)
def test_numpy_scalars_are_written_as_strict_json(value, parsed, tmp_path):
    report.write_json(tmp_path / "v.json", {"one": value, "list": [value], "array": np.array([value])})
    assert strict_json((tmp_path / "v.json").read_text(encoding="utf-8")) == {
        "one": parsed, "list": [parsed], "array": [parsed]
    }


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


def test_manifest_records_the_environment(full_bundle, monkeypatch):
    env = full_bundle.manifest["environment"]
    assert set(env) == {
        "python", "numpy", "blas", "openblas_num_threads", "openblas_coretype", "cores"
    }
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert all(isinstance(value, (str, type(None))) for value in env["blas"].values())
    for variable in ("openblas_num_threads", "openblas_coretype"):
        assert env[variable] is None or isinstance(env[variable], str)
    assert isinstance(env["cores"], int) and env["cores"] >= 1
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert report.environment()["openblas_num_threads"] is None
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert report.environment()["openblas_num_threads"] == "3"
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    assert report.environment()["openblas_coretype"] is None
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert report.environment()["openblas_coretype"] == "Haswell"


@pytest.mark.parametrize(
    "build", [None, {"Build Dependencies": {}}], ids=["no-build-record", "no-blas-entry"]
)
def test_environment_without_a_blas_entry_records_nulls(monkeypatch, build):
    # numpy before 1.26 has no np.__config__.CONFIG
    if build is None:
        monkeypatch.delattr(np.__config__, "CONFIG", raising=False)
    else:
        monkeypatch.setattr(np.__config__, "CONFIG", build, raising=False)
    env = report.environment()
    assert env["blas"] == {"name": None, "version": None}
    assert env["numpy"] == np.__version__


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
    profiles = report.relation_profiles

    def slow_profiles(*args):
        time.sleep(0.5)
        return profiles(*args)

    monkeypatch.setattr(report, "relation_profiles", slow_profiles)
    config = PipelineConfig.from_json_dict(
        {
            "input": str(demo_kg),
            "out": str(tmp_path / "relsim"),
            "train": {"dimension": 4, "epochs": 1, "seed": 1},
            "relsim": {"enabled": True},
        }
    )
    assert run_pipeline(config).manifest["timings_seconds"]["profiles"] >= 0.5


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
        {"input": str(tmp_path / "missing.tsv"), "out": str(tmp_path / "new" / "deeper" / "o")}
    )
    with pytest.raises(DataError):
        run_pipeline(config)
    # neither o nor an o.* staging sibling, nor the parents the run created
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
def test_pipeline_leaves_a_users_partial_directory_alone(demo_kg, tmp_path, fails):
    users = tmp_path / "X.partial"
    users.mkdir()
    (users / "notes.txt").write_text("mine", encoding="utf-8")
    config = {"input": str(demo_kg), "out": str(tmp_path / "X")}
    if fails:  # a relation check that fails after the bundle directory exists
        config["cluster"] = {"enabled": True, "relations": ["NoSuchRelation"]}
        with pytest.raises(DataError):
            run_pipeline(PipelineConfig.from_json_dict(config))
    else:
        run_pipeline(PipelineConfig.from_json_dict(config))
    assert (users / "notes.txt").read_text(encoding="utf-8") == "mine"
    expected = ["X.partial"] if fails else ["X", "X.partial"]
    assert sorted(p.name for p in tmp_path.iterdir()) == expected


def test_pipeline_bundle_under_a_new_parent_gets_the_mkdir_mode(demo_kg, tmp_path):
    out = tmp_path / "new" / "deeper" / "o"
    run_pipeline(PipelineConfig.from_json_dict({"input": str(demo_kg), "out": str(out)}))
    assert [p.name for p in out.parent.iterdir()] == ["o"]
    plain = tmp_path / "plain"
    plain.mkdir()
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


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


def test_cluster_stage_rejects_k_beyond_a_tiny_relation(tmp_path):
    from kgstruct.graph import write_generic_3col

    rows = [("a", "tiny", "b"), ("c", "tiny", "d"),
            ("x1", "filler", "y1"), ("x2", "filler", "y2"), ("x3", "filler", "y3")]
    kg = tmp_path / "tiny.tsv"
    write_generic_3col(from_labeled_triples(rows), kg)
    base = {
        "input": str(kg),
        "train": {"dimension": 4, "epochs": 2, "seed": 1},
        "cluster": {"enabled": True, "relations": ["tiny"], "k": 2},
    }

    def run(out, **cluster):
        config = {**base, "out": str(tmp_path / out)}
        config["cluster"] = {**base["cluster"], **cluster}
        return run_pipeline(PipelineConfig.from_json_dict(config))

    # no k range fits a 2-point relation: hi must stay <= n - 1 = 1
    with pytest.raises(DataError, match=r"cluster\.k_range 2:6 must lie within \[2, 1\] "
                                        r"for the 2 points of relation 'tiny'"):
        run("range", k_range=[2, 6])
    with pytest.raises(DataError, match=r"cluster\.k = 3 exceeds the 2 points of relation 'tiny'"):
        run("k", k=3)
    assert not (tmp_path / "range").exists() and not (tmp_path / "k").exists()
    bundle = run("o")
    files = set(bundle.manifest["files"])
    assert "cluster_tiny/quality.csv" in files
    assert "cluster_tiny/kselection.csv" not in files
    assert bundle.manifest["notes"]["cluster"]["tiny"]["k"] == 2


def test_relsim_stage_survives_single_relation_graph(tmp_path, caplog):
    from kgstruct.graph import write_generic_3col

    rows = [(f"h{i}", "only", f"t{i}") for i in range(6)]
    kg = tmp_path / "single.tsv"
    write_generic_3col(from_labeled_triples(rows), kg)
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
    from kgstruct.report import ValidateStage, stage_validate
    from kgstruct.validation import relation_profiles

    rows = [("a", "self", "a"), ("b", "self", "b"),
            ("a", "ok", "b"), ("b", "ok", "c"), ("a", "ok", "c")]
    graph = from_labeled_triples(rows)
    table = train(graph, TrainConfig(dimension=4, epochs=2, seed=0))
    profiles = relation_profiles(table, graph)
    records = stage_validate(graph, profiles, ValidateStage(enabled=True), tmp_path)
    by_relation = {r["relation"]: r for r in records}
    assert "error" in by_relation["self"]  # all-zero translation vectors
    assert "kl" in by_relation["ok"]
    csv_rows = (tmp_path / "validation.csv").read_text().strip().splitlines()
    assert len(csv_rows) == 2  # header + the one healthy relation


DEGENERATE_VALIDATION = Path(__file__).parent / "fixtures" / "degenerate_validation_sha256.json"
DEGENERATE_SPLIT = {"train": 0.5, "validation": 0.25, "test": 0.25, "seed": 7}


def write_degenerate_edges(path: Path) -> None:
    """48 triples whose relations break the similarity lists in each known way.

    - ``loops``: two self-loops, so every translation vector is zero;
    - ``single``: one triple, below the default ``validate.min_triples``;
    - ``one_usable``: a self-loop and one ordinary triple;
    - ``held_out``: two triples off the train split of DEGENERATE_SPLIT, so
      the relation is absent at ``analysis_scope: "train"``;
    - ``r0``, ``r1``, ``r2``: ordinary relations on the remaining rows.

    The first three sit on train rows, so both scopes see them.
    """
    n = 48
    train_idx, _, _ = split_indices(n, SplitSpec(**DEGENERATE_SPLIT))
    held = np.setdiff1d(np.arange(n), train_idx)
    rows = [(f"e{i}", f"r{i % 3}", f"e{(7 * i + 1) % n}") for i in range(n)]
    special = [("x0", "loops", "x0"), ("x1", "loops", "x1"), ("x2", "single", "x3"),
               ("x4", "one_usable", "x4"), ("x5", "one_usable", "x6")]
    for pos, row in zip(train_idx, special):
        rows[pos] = row
    for pos in held[:2]:
        rows[pos] = (f"h{pos}", "held_out", f"t{pos}")
    write_generic_3col(from_labeled_triples(rows), path)


def run_degenerate(tmp_path: Path, scope: str):
    edges = tmp_path / "degenerate.tsv"
    write_degenerate_edges(edges)
    config = PipelineConfig.from_json_dict(
        {
            "input": str(edges),
            "out": str(tmp_path / "o"),
            "seed": 1,
            "split": DEGENERATE_SPLIT,
            "train": {"dimension": 4, "epochs": 3, "seed": 2},
            "analysis_scope": scope,
            "validate": {"enabled": True},
            "relsim": {"enabled": True},
        }
    )
    return run_pipeline(config)


@pytest.mark.parametrize("scope", ["full", "train"])
def test_degenerate_relations_reproduce_the_golden_bytes(scope, tmp_path):
    """validation.* and the cosine tables of a graph with every degenerate relation.

    The SHA-256 map was written by the code that built each relation's
    similarity lists twice, once for validate and once for relsim.
    """
    bundle = run_degenerate(tmp_path, scope)
    records = json.loads((bundle.out_dir / "validation.json").read_text())
    assert [r["relation"] for r in records if "error" in r] == ["loops", "one_usable"]
    validated = {r["relation"] for r in records}
    assert "single" not in validated and ("held_out" in validated) == (scope == "full")
    files = bundle.manifest["files"]
    golden = json.loads(DEGENERATE_VALIDATION.read_text(encoding="utf-8"))[scope]
    assert set(golden) == {
        name for name in files if name.startswith(("validation.", "cosine_", "nearest_cosine_"))
    }
    assert {name: files[name]["sha256"] for name in golden} == golden


def test_similarity_lists_run_once_per_relation(tmp_path, monkeypatch, caplog):
    original = validation.similarity_lists
    calls = []

    def counted(table, graph, relation):
        calls.append(relation)
        return original(table, graph, relation)

    for name, module in list(sys.modules.items()):
        if name.startswith("kgstruct") and getattr(module, "similarity_lists", None) is original:
            monkeypatch.setattr(module, "similarity_lists", counted)
    with caplog.at_level("WARNING"):
        run_degenerate(tmp_path, "full")
    assert sorted(calls) == ["held_out", "loops", "one_usable", "r0", "r1", "r2", "single"]
    zero = [r.getMessage() for r in caplog.records if "zero translation vectors" in r.getMessage()]
    assert zero == [
        "relation loops: skipped 2 zero translation vectors",
        "relation one_usable: skipped 1 zero translation vectors",
    ]


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


def test_manifest_records_the_trainers_working_set(full_bundle):
    """notes.train.working_set_bytes is the estimate that preflight held to physical memory."""
    manifest = full_bundle.manifest
    table = EmbeddingTable.load(full_bundle.out_dir / "embeddings.kgt")
    config = TrainConfig(**manifest["config"]["train"])
    note = manifest["notes"]["train"]["working_set_bytes"]
    assert type(note) is int
    assert note == train_working_set_bytes(376, table.n_entities, table.n_relations, config)
    assert "manifest.json" not in manifest["files"]  # no checksum holds the note


def test_manifest_records_the_validation_working_set(full_bundle):
    """notes.validate.working_set_bytes is preflight's estimate for validate.bins."""
    manifest = full_bundle.manifest
    bins = manifest["config"]["validate"]["bins"]
    assert manifest["notes"]["validate"] == {
        "working_set_bytes": validation.validate_working_set_bytes(bins)
    }


def test_manifest_lists_every_epoch_loss(full_bundle):
    losses = full_bundle.manifest["notes"]["train"]["epoch_losses"]
    table = EmbeddingTable.load(full_bundle.out_dir / "embeddings.kgt")
    assert losses == table.epoch_losses
    assert len(losses) == full_bundle.manifest["config"]["train"]["epochs"]
    assert losses[0] == full_bundle.manifest["notes"]["train"]["first_epoch_loss"]


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
        PipelineConfig.from_json_dict({**base, "out": "x", "analysis_scope": "validation"})


def test_bad_classifier_hyperparams_are_config_errors():
    # the classifier blocks are typed, so an unknown key fails as the config loads
    for key in ("n_treez", "seed"):
        with pytest.raises(ConfigError, match=rf"negation\.forest: unknown keys \['{key}'\]"):
            PipelineConfig.from_json_dict(
                {"input": "x", "negation": {"enabled": True, "forest": {key: 5}}}
            )
    with pytest.raises(ConfigError, match=r"negation\.forest\.n_trees: must be >= 1"):
        PipelineConfig.from_json_dict(
            {"input": "x", "negation": {"enabled": True, "forest": {"n_trees": 0}}}
        )

import ast
import importlib.util
import json
import random
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import from_labeled_triples, patch_physical_memory, run_python, strict_json
from kgstruct.cli import _load_config, build_parser, main
from kgstruct.embedding import EmbeddingTable, train
from kgstruct.graph import SplitSpec, split_indices, write_generic_3col
from kgstruct.synth import demo_plan, synthetic_graph


@pytest.fixture(scope="module")
def demo_kg(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("clikg") / "demo.tsv"
    write_generic_3col(synthetic_graph(demo_plan()), path)
    return path


def test_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["stats"]) == 1  # neither --config nor --input
    assert main(["cluster", "--input", "x.tsv", "--k-range", "oops"]) == 1


def test_missing_input_exit_2(tmp_path, capsys):
    assert main(["stats", "--input", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err


def test_stats_subcommand(demo_kg, tmp_path, capsys):
    out = tmp_path / "stats"
    assert main(["stats", "--input", str(demo_kg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "500 triples" in printed
    stats = json.loads((out / "stats.json").read_text())
    assert stats["triples"] == 500
    assert (out / "relation_stats.csv").exists()
    # an existing --out is refused rather than written into
    assert main(["stats", "--input", str(demo_kg), "--out", str(out)]) == 2
    assert "already exists" in capsys.readouterr().err


def test_stats_exclude_flag(demo_kg, tmp_path):
    out = tmp_path / "statsx"
    assert main(
        ["stats", "--input", str(demo_kg), "--out", str(out), "--exclude", "FormOf"]
    ) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert "FormOf" not in stats["per_relation"]


def test_absent_excluded_relation_is_noted_not_an_error(demo_kg, tmp_path, caplog):
    assert main(["stats", "--input", str(demo_kg), "--out", str(tmp_path / "plain")]) == 0
    with caplog.at_level("WARNING"):
        assert main(
            ["stats", "--input", str(demo_kg), "--exclude", "ExternalURL",
             "--out", str(tmp_path / "excluded")]
        ) == 0
    assert "['ExternalURL']" in caplog.text
    plain, excluded = (
        json.loads((tmp_path / out / "manifest.json").read_text())
        for out in ("plain", "excluded")
    )
    assert excluded["files"] == plain["files"]
    assert excluded["notes"] == {"ingest": {"exclude_relations_absent": ["ExternalURL"]}}
    assert "ingest" not in plain["notes"]


def test_sample_above_the_triple_count_is_noted(demo_kg, tmp_path, caplog):
    def stats(out, *flags):
        assert main(["stats", "--input", str(demo_kg), "--out", str(tmp_path / out), *flags]) == 0
        return json.loads((tmp_path / out / "manifest.json").read_text())

    plain = stats("plain")
    with caplog.at_level("WARNING"):
        oversized = stats("oversized", "--sample", "100000")
    assert "sample_size 100000 exceeds the 500 triples" in caplog.text
    assert oversized["files"] == plain["files"]
    assert oversized["notes"] == {
        "ingest": {"sample_size_exceeds_triples": {"sample_size": 100000, "triples": 500}}
    }
    assert "ingest" not in stats("whole", "--sample", "500")["notes"]


def test_train_then_validate_with_saved_table(demo_kg, tmp_path):
    out = tmp_path / "trained"
    assert main(
        [
            "train", "--input", str(demo_kg), "--out", str(out),
            "--dim", "12", "--epochs", "4", "--seed", "5",
        ]
    ) == 0
    table_path = out / "embeddings.kgt"
    assert table_path.exists()
    val_out = tmp_path / "validated"
    assert main(
        [
            "validate", "--input", str(demo_kg), "--out", str(val_out),
            "--table", str(table_path), "--seed", "5",
        ]
    ) == 0
    rows = (val_out / "validation.csv").read_text().strip().splitlines()
    assert rows[0].startswith("relation,")
    assert len(rows) == 6  # header + 5 relations
    # the manifest names the table's training settings, which the run's config does not hold
    trained = json.loads((out / "manifest.json").read_text())
    validated = json.loads((val_out / "manifest.json").read_text())
    assert validated["notes"]["table"] == trained["config"]["train"]
    assert "table" not in trained["notes"]


def test_relsim_subcommand(demo_kg, tmp_path):
    out = tmp_path / "relsim"
    assert main(
        [
            "relsim", "--input", str(demo_kg), "--out", str(out), "--seed", "2",
        ]
    ) == 0
    assert (out / "tfidf_similarity.csv").exists()
    assert (out / "nearest_jaccard_head.csv").exists()
    summary = json.loads((out / "relsim_summary.json").read_text())
    assert "tfidf" in summary


def test_cluster_subcommand(demo_kg, tmp_path, capsys):
    out = tmp_path / "cluster"
    assert main(
        [
            "cluster", "--input", str(demo_kg), "--out", str(out),
            "--relation", "HasContext", "--k", "4", "--seed", "3",
        ]
    ) == 0
    assert "HasContext" in capsys.readouterr().out
    assert (out / "cluster_HasContext" / "quality.csv").exists()


def test_negation_subcommand(demo_kg, tmp_path, capsys):
    out = tmp_path / "negation"
    assert main(
        [
            "negation", "--input", str(demo_kg), "--out", str(out),
            "--relation", "Desires", "--negation-relation", "NotDesires",
            "--folds", "4", "--classifier", "linear", "--seed", "3",
        ]
    ) == 0
    report = json.loads((out / "negation_report.json").read_text())
    assert report["cross_validation"][0]["classifier"] == "linear"


def test_run_subcommand_and_existing_dir(demo_kg, tmp_path, capsys):
    config = {
        "input": str(demo_kg),
        "out": str(tmp_path / "bundle"),
        "seed": 4,
        "train": {"dimension": 12, "epochs": 4, "seed": 1},
        "relsim": {"enabled": True},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    assert (tmp_path / "bundle" / "manifest.json").exists()
    # second run into the same directory is a data error
    assert main(["run", "--config", str(config_path)]) == 2


def test_unknown_relation_via_cli_exit_2(demo_kg, tmp_path):
    assert main(
        [
            "cluster", "--input", str(demo_kg), "--out", str(tmp_path / "o"),
            "--relation", "Bogus", "--k", "3",
        ]
    ) == 2


def test_conceptnet_format_via_cli(tmp_path):
    dump = tmp_path / "dump.tsv"
    dump.write_text(
        "/a/x\t/r/IsA\t/c/en/cat\t/c/en/animal\t{}\n"
        "/a/y\t/r/IsA\t/c/en/dog\t/c/en/animal\t{}\n",
        encoding="utf-8",
    )
    out = tmp_path / "stats"
    assert main(
        ["stats", "--input", str(dump), "--format", "conceptnet-dump", "--out", str(out)]
    ) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["per_relation"]["IsA"]["triples"] == 2


def test_subcommand_keeps_configured_stage_params(demo_kg, tmp_path):
    # a disabled stage's parameters survive when the subcommand enables it
    config = {
        "input": str(demo_kg),
        "out": str(tmp_path / "v"),
        "train": {"dimension": 8, "epochs": 3, "seed": 1},
        "validate": {"enabled": False, "min_triples": 100},
    }
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["validate", "--config", str(config_path)]) == 0
    rows = (tmp_path / "v" / "validation.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + HasContext (160) + Desires (100)


@pytest.fixture(scope="module")
def shuffled_kg(demo_kg, tmp_path_factory) -> Path:
    """The demo graph's lines in another order, so its interning differs."""
    lines = demo_kg.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(3).shuffle(lines)
    path = tmp_path_factory.mktemp("shuffled") / "shuffled.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def shuffled_table(shuffled_kg, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("shuffledtable") / "trained"
    assert main(
        ["train", "--input", str(shuffled_kg), "--out", str(out),
         "--dim", "12", "--epochs", "4", "--seed", "5"]
    ) == 0
    return out / "embeddings.kgt"


def _validation_values(out: Path) -> dict[str, list[float]]:
    rows = (out / "validation.csv").read_text().strip().splitlines()[1:]
    return {
        row.split(",")[0]: [float(v) for v in row.split(",")[1:]] for row in rows
    }


def test_table_is_matched_to_the_graph_by_name(demo_kg, shuffled_kg, shuffled_table, tmp_path):
    for name, graph in (("original", demo_kg), ("shuffled", shuffled_kg)):
        assert main(
            ["validate", "--input", str(graph), "--table", str(shuffled_table),
             "--out", str(tmp_path / name)]
        ) == 0
    original = _validation_values(tmp_path / "original")
    shuffled = _validation_values(tmp_path / "shuffled")
    assert original.keys() == shuffled.keys() and len(original) == 5
    for relation, values in original.items():
        assert values == pytest.approx(shuffled[relation], abs=1e-9), relation


def test_table_missing_an_entity_exit_2(demo_kg, shuffled_table, tmp_path, capsys):
    table = EmbeddingTable.load(shuffled_table)
    dropped = table.entity_names[-1]
    EmbeddingTable(
        table.entity_names[:-1],
        table.relation_names,
        table.entity_vectors[:-1],
        table.relation_vectors,
    ).save(tmp_path / "partial.kgt")
    assert main(
        ["validate", "--input", str(demo_kg), "--table", str(tmp_path / "partial.kgt"),
         "--out", str(tmp_path / "o")]
    ) == 2
    assert repr(dropped) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _non_utf8_edges(tmp_path, demo_kg, table):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"cat\tIsA\tanimal\ncaf\xe9\tIsA\tplace\n")
    return ["stats", "--input", str(path)]


def _truncated_table(tmp_path, demo_kg, table):
    path = tmp_path / "short.kgt"
    path.write_bytes(table.read_bytes()[:-7])
    return ["validate", "--input", str(demo_kg), "--table", str(path)]


def _garbled_table_header(tmp_path, demo_kg, table):
    data = bytearray(table.read_bytes())
    data[8:12] = b"\xff{[}"
    path = tmp_path / "garbled.kgt"
    path.write_bytes(bytes(data))
    return ["validate", "--input", str(demo_kg), "--table", str(path)]


def _nan_in_table(tmp_path, demo_kg, table):
    path = tmp_path / "nan.kgt"
    path.write_bytes(table.read_bytes()[:-4] + b"\x00\x00\xc0\x7f")  # float32 NaN
    return ["validate", "--input", str(demo_kg), "--table", str(path)]


def _table_with_header(name, rewrite):
    """A validate run on ``name``.kgt, a copy of the table whose header is ``rewrite(header)``."""
    def argv(tmp_path, demo_kg, table):
        raw = table.read_bytes()
        (length,) = struct.unpack("<I", raw[4:8])
        header = rewrite(json.loads(raw[8 : 8 + length]))
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / f"{name}.kgt"
        path.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + length :])
        return ["validate", "--input", str(demo_kg), "--table", str(path)]
    return argv


def _edited_table(name, **fields):
    """A validate run on ``name``.kgt, a table whose header sets ``fields``."""
    return _table_with_header(name, lambda header: {**header, **fields})


def _table_with_train_config(name, **fields):
    """A validate run on ``name``.kgt, a table whose header's train config sets ``fields``."""
    return _table_with_header(
        name, lambda header: {**header, "config": {**header["config"], **fields}}
    )


def _non_utf8_config(tmp_path, demo_kg, table):
    """A run whose config file holds the latin-1 byte 0xe9 in a string."""
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"input": "caf\xe9.tsv"}')
    return ["run", "--config", str(path)]


def _forest_wider_than_the_table(tmp_path, demo_kg, table):
    """A negation run whose forest draws more features than the 12-wide table has."""
    config = _config("negation", negation={"forest": {"max_features": 13}})
    return [*config(tmp_path, demo_kg, table), "--table", str(table)]


def _table_of_entity_vectors(make_vectors, **cluster):
    """A cluster run with ``--table`` whose entity vectors are ``make_vectors(vectors)``."""
    def argv(tmp_path, demo_kg, table):
        loaded = EmbeddingTable.load(table)
        path = tmp_path / "degenerate.kgt"
        EmbeddingTable(
            loaded.entity_names,
            loaded.relation_names,
            make_vectors(loaded.entity_vectors),
            loaded.relation_vectors,
        ).save(path)
        config = _config("cluster", cluster={"relations": ["HasContext"], **cluster})
        return [*config(tmp_path, demo_kg, table), "--table", str(path)]
    return argv


def _one_dimensional_table(tmp_path, demo_kg, table):
    """A cluster run with ``--table`` holding the first coordinate of each vector."""
    loaded = EmbeddingTable.load(table)
    path = tmp_path / "narrow.kgt"
    EmbeddingTable(
        loaded.entity_names,
        loaded.relation_names,
        loaded.entity_vectors[:, :1],
        loaded.relation_vectors[:, :1],
    ).save(path)
    config = _config("cluster", cluster={"relations": ["HasContext"]})
    return [*config(tmp_path, demo_kg, table), "--table", str(path)]


def _one_triple_relation(tmp_path, demo_kg, table):
    """A cluster run at k = 1 on a 3-triple file whose relation ``rare`` has one triple."""
    edges = tmp_path / "three.tsv"
    edges.write_text("a\tcommon\tb\nb\tcommon\tc\nx\trare\ty\n", encoding="utf-8")
    config = _config("cluster", train={"dimension": 4, "epochs": 1},
                     cluster={"relations": ["rare"], "k": 1})
    return config(tmp_path, edges, table)


def _three_vector_table(**cluster):
    return _table_of_entity_vectors(lambda v: v[np.arange(len(v)) % 3], **cluster)


def _table_repeating_a_name(tmp_path, demo_kg, table):
    """A table that lists ``e00000`` a second time, as its last row."""
    loaded = EmbeddingTable.load(table)
    path = tmp_path / "repeated.kgt"
    EmbeddingTable(
        [*loaded.entity_names, "e00000"],
        loaded.relation_names,
        np.vstack([loaded.entity_vectors, loaded.entity_vectors[:1]]),
        loaded.relation_vectors,
    ).save(path)
    return ["validate", "--input", str(demo_kg), "--table", str(path)]


def _conceptnet_head_read_as_a_comment(tmp_path, demo_kg, table):
    """A negation run on a conceptnet-dump file whose first Desires head is ``#tag``."""
    rows = [line.split("\t") for line in demo_kg.read_text(encoding="utf-8").splitlines()]
    next(row for row in rows if row[1] == "Desires")[0] = "#tag"
    path = tmp_path / "dump.tsv"
    path.write_text(
        "".join(f"/a/{i}\t/r/{r}\t/c/en/{h}\t/c/en/{t}\n" for i, (h, r, t) in enumerate(rows)),
        encoding="utf-8",
    )
    config = _config("negation", input=str(path), format="conceptnet-dump",
                     train={"dimension": 4, "epochs": 1},
                     negation={"folds": 2, "classifier": "linear"})
    return config(tmp_path, demo_kg, table)


def _two_negative_pairs(tmp_path, demo_kg, table):
    """A 3-fold negation run on the demo graph cut to its first 2 NotDesires triples."""
    lines = demo_kg.read_text(encoding="utf-8").splitlines(keepends=True)
    negatives = [line for line in lines if line.split("\t")[1] == "NotDesires"]
    path = tmp_path / "two-negatives.tsv"
    path.write_text("".join(line for line in lines if line not in negatives[2:]), encoding="utf-8")
    config = _config("negation", input=str(path), train={"dimension": 4, "epochs": 1},
                     negation={"folds": 3, "classifier": "linear"})
    return config(tmp_path, demo_kg, table)


def _config(command, **fields):
    def argv(tmp_path, demo_kg, table):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"input": str(demo_kg), **fields}), encoding="utf-8")
        return [command, "--config", str(path)]
    return argv


def _train_flags(*flags):
    def argv(tmp_path, demo_kg, table):
        return ["train", "--input", str(demo_kg), *flags]
    return argv


def _huge_bins_with_table(tmp_path, demo_kg, table):
    return ["validate", "--input", str(demo_kg), "--table", str(table), "--bins", str(10**12)]


def _definitions(text):
    """A relsim run whose definitions file holds ``text``, or is absent for None."""
    def argv(tmp_path, demo_kg, table):
        path = tmp_path / "defs.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        config = _config("relsim", relsim={"definitions_path": str(path)})
        return config(tmp_path, demo_kg, table)
    return argv


@pytest.mark.parametrize(
    "make_argv, code, named",
    [
        (_non_utf8_edges, 2, "latin1.tsv:2"),
        (_truncated_table, 2, "short.kgt"),
        (_garbled_table_header, 2, "garbled.kgt"),
        (_nan_in_table, 2, "nan.kgt"),
        (_config("cluster", cluster={"relations": ["HasContext"], "k": "4"}), 1, "cluster.k"),
        (_config("stats", validate={"enabled": "yes"}), 1, "validate.enabled"),
        (_config("negation", negation={"forest": {"n_trees": "10"}}), 1, "negation.forest.n_trees"),
        (_config("negation", negation={"forest": {"n_trees": 0}}), 1, "negation.forest.n_trees"),
        (_config("negation", negation={"forest": {"max_depth": 0}}), 1, "negation.forest.max_depth"),
        (_config("negation", negation={"linear": {"iterations": 0}}), 1, "negation.linear.iterations"),
        (_config("negation", negation={"linear": {"learning_rate": -0.5}}), 1,
         "negation.linear.learning_rate"),
        (_definitions(None), 2, "defs.json"),
        (_definitions("{'HasA': 1"), 2, "defs.json"),
        (_config("negation", negation={"forest": {"max_features": "log2"}}), 1,
         "negation.forest.max_features"),
        (_config("cluster", cluster={"relations": ["HasContext"], "exemplars_per_cluster": 0}),
         1, "cluster.exemplars_per_cluster"),
        (_train_flags("--lr", "1e30"), 1, "train.learning_rate"),
        (_config("negation", negation={"linear": {"learning_rate": 1e30}}), 1,
         "negation.linear.learning_rate"),
        (_config("negation", negation={"linear": {"l2": -1}}), 1, "negation.linear.l2"),
        (_config("negation", negation={"linear": {"l2": 3}}), 1, "negation.linear.l2"),
        (_config("train", train={"margin": float("nan")}), 1, "train.margin"),
        (_config("train", train={"margin": 3e38}), 1, "train.margin"),
        (_config("negation", negation={"forest": {"seed": 3}}), 1, "negation.forest"),
        (_definitions('{"IsA": "a kind of", "PartOf": ["a", "b"], "HasA": 5}'), 2,
         "defs.json: definition of 'PartOf' must be a string"),
        (_definitions('{"IsA": null}'), 2, "'IsA'"),
        (_config("negation", negation={"forest": {"min_samples_split": 1}}), 1,
         "negation.forest.min_samples_split"),
        (_config("validate", validate={"min_triples": 0}), 1, "validate.min_triples"),
        (_config("cluster", train={"dimension": 4, "epochs": 1},
                 cluster={"relations": ["HasContext"], "k": 1000000}), 2,
         "cluster.k = 1000000 exceeds the 160 points of relation 'HasContext'"),
        (_config("cluster", train={"dimension": 4, "epochs": 1},
                 cluster={"relations": ["HasContext"], "k_range": [200, 210]}), 2,
         "cluster.k_range 200:210 must lie within [2, 159] for the 160 points of relation "
         "'HasContext'"),
        (_config("cluster", cluster={"relations": ["HasContext", "HasContext"]}), 1,
         "cluster.relations: repeated names ['HasContext']"),
        (_config("stats", cluster={"enabled": True, "relations": []}), 1, "no relations listed"),
        (_config("cluster", cluster={"relations": ["a/b", "a_b"]}), 1,
         "cluster.relations: repeated names ['a/b', 'a_b']"),
        (_config("negation", negation={"relation": "Desires", "negation_relation": "Desires"}),
         1, "negation.negation_relation: must differ from negation.relation"),
        (_table_with_train_config("margin", margin=0.0), 2, "margin.kgt: malformed embedding table"),
        (_config("cluster", cluster={"relations": [
            "HasContext", "separation_by_relation.csv", "cohesion_raw_by_relation.csv"]}), 1,
         "cluster.relations: ['cohesion_raw_by_relation.csv', 'separation_by_relation.csv']"),
        (_config("negation", train={"dimension": 4, "epochs": 1},
                 negation={"forest": {"max_features": 1000}}), 2,
         "negation.forest.max_features = 1000 exceeds the 4 features"),
        (_forest_wider_than_the_table, 2, "negation.forest.max_features = 13 exceeds the 12 features"),
        (_three_vector_table(k=12), 2,
         "cluster.k = 12 exceeds the 7 distinct points of relation 'HasContext'"),
        (_three_vector_table(k=3, k_range=[2, 14]), 2,
         "cluster.k_range top = 14 exceeds the 7 distinct points of relation 'HasContext'"),
        (_table_of_entity_vectors(lambda v: v * 0), 2,
         "cluster.k = 20 exceeds the 1 distinct points of relation 'HasContext'"),
        (_conceptnet_head_read_as_a_comment, 2, "entity '#tag' would serialize as a comment line"),
        (_table_repeating_a_name, 2, "entity 'e00000' is listed twice in the table"),
        (_one_triple_relation, 2, "the 2-D projection of relation 'rare' needs 2 points, got 1"),
        (_config("cluster", train={"dimension": 1, "epochs": 1},
                 cluster={"relations": ["HasContext"]}), 2,
         "the cluster stage's 2-D projection needs train.dimension >= 2, got 1"),
        (_one_dimensional_table, 2,
         "the cluster stage's 2-D projection needs table dimension >= 2, got 1"),
        (_table_of_entity_vectors(lambda v: v * 0, k=1), 2,
         "the 2-D projection of relation 'HasContext' needs 2 distinct points"),
        (_definitions('{"IsA": "a kind of"}'), 2,
         "defs.json: need at least 2 definitions for a similarity matrix"),
        (_definitions('{"IsA": "  ", "HasA": "has a"}'), 2,
         "defs.json: empty definition for relation 'IsA'"),
        (_config("validate", validate={"bins": 1}), 1, "validate.bins: must be >= 2, got 1"),
        (_non_utf8_config, 1, "latin1.json is not valid UTF-8 JSON: 'utf-8' codec can't decode"),
        (_table_with_train_config("bool", margin=True), 2,
         "bool.kgt: malformed embedding table: header.config.margin: expected float, got bool True"),
        (_table_with_train_config("fraction", seed=1.5), 2,
         "fraction.kgt: malformed embedding table: header.config.seed: expected int, got float 1.5"),
        (_table_with_train_config("real", epochs=2.0), 2,
         "real.kgt: malformed embedding table: header.config.epochs: expected int, got float 2.0"),
        (_edited_table("list", config=[]), 2,
         "list.kgt: malformed embedding table: header.config: expected an object, got list []"),
        (_edited_table("zero", config=0), 2,
         "zero.kgt: malformed embedding table: header.config: expected an object, got int 0"),
        (_edited_table("losses", epoch_losses="abc"), 2,
         "losses.kgt: malformed embedding table: header.epoch_losses: expected tuple[float, ...], "
         "got str 'abc'"),
        (_config("validate", validate={"bins": 10**12}), 2,
         "validation would hold about 59604.64 GiB of arrays at once"),
        (_huge_bins_with_table, 2,
         "validation would hold about 59604.64 GiB of arrays at once"),
        (_edited_table("chars", entity_names="ab"), 2,
         "chars.kgt: malformed embedding table: header.entity_names: expected tuple[str, ...], "
         "got str 'ab'"),
        (_edited_table("ints", entity_names=[1, 2]), 2,
         "ints.kgt: malformed embedding table: header.entity_names[0]: expected str, got int 1"),
        (_edited_table("nulls", relation_names=None), 2,
         "nulls.kgt: malformed embedding table: header.relation_names: expected tuple[str, ...], "
         "got NoneType None"),
        (_edited_table("bool", dimension=True), 2,
         "bool.kgt: malformed embedding table: header.dimension: expected int, got bool True"),
        (_edited_table("negative", entity_count=-1), 2,
         "negative.kgt: malformed embedding table: header.entity_count: must be >= 0, got -1"),
        (_edited_table("real", relation_count=6.0), 2,
         "real.kgt: malformed embedding table: header.relation_count: expected int, got float 6.0"),
        (_edited_table("extra", note="hand-edited"), 2,
         "extra.kgt: malformed embedding table: header: unknown keys ['note']"),
        (_table_with_header("array", list), 2,
         "array.kgt: malformed embedding table: header: expected an object, got list ['config', "),
        (_table_with_header(
            "undimensioned", lambda header: {k: v for k, v in header.items() if k != "dimension"}
        ), 2, "undimensioned.kgt: malformed embedding table: header: missing required field "
              "'dimension'"),
        (_edited_table("mixed", entity_names=["e00000", 2]), 2,
         "mixed.kgt: malformed embedding table: header.entity_names[1]: expected str, got int 2"),
        (_edited_table("long", relation_names="r" * 100_000), 2,
         "long.kgt: malformed embedding table: header.relation_names: expected tuple[str, ...], "
         "got str 'rrrrrrrrrrrr...rrrrrrrrrrrrr'\n"),
        (_table_with_train_config("zero-margin", margin=0.0), 2,
         "zero-margin.kgt: malformed embedding table: header.config.margin: must be finite and > 0, "
         "got 0.0"),
        (_train_flags("--margin", "0"), 1, "train.margin: must be finite and > 0, got 0.0"),
        (_edited_table("one-name", entity_names=["a"]), 2,
         "one-name.kgt: malformed embedding table: header.entity_names: must hold "
         "header.entity_count = "),
        (_edited_table("one-relation", relation_names=["r"]), 2,
         "one-relation.kgt: malformed embedding table: header.relation_names: must hold "
         "header.relation_count = "),
        (_two_negative_pairs, 2,
         "class 0 has 2 rows, too few for 3 folds: a fold holds out 1 of them and each fit "
         "needs at least 2"),
        (_config("run", train={"dimension": 4, "epochs": 1},
                 split={"train": 0.0, "validation": 0.5, "test": 0.5}), 2,
         "split.train = 0.0 selects 0 of the 500 triples; training needs at least 1"),
    ],
    ids=["non-utf8-edges", "truncated-table", "garbled-table", "nan-in-table", "k-as-string",
         "enabled-as-string", "n-trees-as-string", "zero-trees", "zero-depth",
         "zero-iterations", "negative-learning-rate", "missing-definitions",
         "non-json-definitions", "max-features-log2", "zero-exemplars",
         "diverging-train-lr", "diverging-linear-lr", "negative-l2", "non-converging-l2",
         "nan-margin", "overflowing-margin", "forest-seed", "list-definition",
         "null-definition", "min-samples-split-1", "zero-min-triples", "k-above-n",
         "k-range-above-n", "repeated-relation", "stats-checks-the-files-stages",
         "relations-sharing-a-directory", "same-relation-negation", "table-header-config",
         "relation-named-like-a-merged-table", "max-features-above-dimension",
         "max-features-above-table-dimension", "k-above-distinct-points",
         "k-range-above-distinct-points", "all-zero-table", "comment-marker-head",
         "table-repeats-a-name", "one-triple-cluster-relation", "cluster-at-dimension-1",
         "cluster-on-a-1-wide-table", "all-zero-table-at-k-1", "one-definition",
         "blank-definition", "one-validate-bin", "non-utf8-config", "table-config-margin-bool",
         "table-config-seed-fraction", "table-config-epochs-real", "table-config-list",
         "table-config-zero", "table-epoch-losses-string", "huge-validate-bins",
         "huge-validate-bins-with-table", "table-names-string", "table-names-ints",
         "table-names-null", "table-dimension-bool", "table-count-negative",
         "table-count-real", "table-header-unknown-key", "table-header-list",
         "table-header-without-dimension", "table-names-mixed", "table-names-abbreviated",
         "table-config-margin-zero", "margin-flag-zero", "table-fewer-entity-names",
         "table-fewer-relation-names", "two-negative-pairs-three-folds", "empty-train-split"],
)
def test_bad_input_exit_codes(make_argv, code, named, demo_kg, shuffled_table, tmp_path, capsys):
    argv = make_argv(tmp_path, demo_kg, shuffled_table)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err
    # a diverging setting is reported once, as the error, not as numpy overflow warnings
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _rare_relation_outside_the_train_split(tmp_path, demo_kg, table):
    """A cluster run on a relation whose only triple falls outside the train split."""
    split = {"train": 0.5, "validation": 0.25, "test": 0.25, "seed": 1}
    rows = [(f"h{i}", "common", f"t{i}") for i in range(40)]
    train_idx, _, _ = split_indices(len(rows) + 1, SplitSpec(**split))
    held_out = next(i for i in range(len(rows) + 1) if i not in train_idx)
    rows.insert(held_out, ("x", "rare", "y"))
    edges = tmp_path / "rare.tsv"
    write_generic_3col(from_labeled_triples(rows), edges)
    config = _config("cluster", split=split, analysis_scope="train",
                     cluster={"relations": ["rare"], "k": 1})
    return config(tmp_path, edges, table)


@pytest.mark.parametrize(
    "make_argv, code, named",
    [
        (_config("cluster", cluster={"relations": ["HasContext"], "k": 1000000}), 2,
         "cluster.k = 1000000 exceeds the 160 points of relation 'HasContext'"),
        (_config("cluster", cluster={"relations": ["HasContext"], "k_range": [200, 210]}), 2,
         "cluster.k_range 200:210 must lie within [2, 159]"),
        (_rare_relation_outside_the_train_split, 2,
         "configured relations are absent from the train split: ['rare']"),
        (_config("negation", negation={"relation": "Desires", "negation_relation": "Desires"}),
         1, "negation.negation_relation: must differ from negation.relation"),
        (_config("negation", train={"dimension": 4}, negation={"forest": {"max_features": 5}}),
         2, "negation.forest.max_features = 5 exceeds the 4 features"),
        (_one_triple_relation, 2, "the 2-D projection of relation 'rare' needs 2 points, got 1"),
        (_config("cluster", train={"dimension": 1}, cluster={"relations": ["HasContext"]}), 2,
         "the cluster stage's 2-D projection needs train.dimension >= 2, got 1"),
        (_config("run", train={"dimension": 4},
                 split={"train": 0.0, "validation": 0.5, "test": 0.5}), 2,
         "split.train = 0.0 selects 0 of the 500 triples; training needs at least 1"),
        (_two_negative_pairs, 2,
         "class 0 has 2 rows, too few for 3 folds: a fold holds out 1 of them and each fit "
         "needs at least 2"),
    ],
    ids=["k-above-n", "k-range-above-n", "absent-from-train-split", "same-relation-negation",
         "max-features-above-dimension", "one-triple-cluster-relation", "cluster-at-dimension-1",
         "empty-train-split", "two-negative-pairs-three-folds"],
)
def test_graph_checks_run_before_training(
    make_argv, code, named, demo_kg, tmp_path, monkeypatch, capsys
):
    calls = []

    def counted_train(*args, **kwargs):
        calls.append(args)
        return train(*args, **kwargs)

    monkeypatch.setattr("kgstruct.report.train", counted_train)
    argv = make_argv(tmp_path, demo_kg, None)
    assert main([*argv, "--out", str(tmp_path / "o")]) == code
    assert named in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "validate, lower",
    [({}, "lower train.negatives, train.batch_size or train.dimension"),
     ({"bins": 10**12}, "lower validate.bins")],
    ids=["trainer", "validate-bins"],
)
def test_a_working_set_above_physical_memory_exits_2_before_training(
    validate, lower, demo_kg, tmp_path, monkeypatch, capsys
):
    # 1 MiB of physical memory: no run is started that could allocate the estimate
    patch_physical_memory(monkeypatch, 1 << 20)
    calls = []
    monkeypatch.setattr("kgstruct.report.train", lambda *args, **kwargs: calls.append(args))
    argv = _config("validate", train={"dimension": 16}, validate=validate)(tmp_path, demo_kg, None)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "more than the 0.00 GiB of physical memory" in err
    assert err.rstrip().endswith(lower)
    assert calls == [] and not (tmp_path / "o").exists()


ONE_PATH_CONFIG = {
    "seed": 9,
    "train": {"dimension": 8, "epochs": 3, "seed": 3},
    "cluster": {"relations": ["HasContext"], "k": 4},
    "negation": {"folds": 3, "forest": {"n_trees": 5, "max_depth": 4}},
}


@pytest.mark.parametrize("stage", ["validate", "relsim", "cluster", "negation"])
def test_subcommand_bundle_equals_run_with_one_stage(stage, demo_kg, tmp_path):
    config = {**ONE_PATH_CONFIG, "input": str(demo_kg)}
    sub_config = tmp_path / "sub.json"
    sub_config.write_text(json.dumps(config), encoding="utf-8")
    assert main([stage, "--config", str(sub_config), "--out", str(tmp_path / "sub")]) == 0

    config[stage] = {**config.get(stage, {}), "enabled": True}
    config["out"] = str(tmp_path / "run")
    run_config = tmp_path / "run.json"
    run_config.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(run_config)]) == 0

    def checksums(out):
        files = json.loads((tmp_path / out / "manifest.json").read_text())["files"]
        return {name: entry["sha256"] for name, entry in files.items()}

    assert checksums("sub") == checksums("run")
    assert "embeddings.kgt" in checksums("sub")


@pytest.mark.parametrize(
    "command", ["run", "stats", "train", "validate", "relsim", "cluster", "negation"]
)
def test_manifest_config_reproduces_the_bundle(command, demo_kg, tmp_path):
    """``kgstruct run`` on a bundle's manifest config writes the same files."""
    config = {**ONE_PATH_CONFIG, "input": str(demo_kg)}
    for stage in ("validate", "relsim", "cluster", "negation"):
        config[stage] = {**config.get(stage, {}), "enabled": True}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "first")]) == 0
    first = json.loads((tmp_path / "first" / "manifest.json").read_text())
    assert (first["config"]["train"] is None) == (command == "stats")

    path.write_text(
        json.dumps({**first["config"], "out": str(tmp_path / "again")}), encoding="utf-8"
    )
    assert main(["run", "--config", str(path)]) == 0
    again = json.loads((tmp_path / "again" / "manifest.json").read_text())
    assert again["files"] == first["files"]


# each flag with a value other than its field's default, and the value it sets
FLAG_CASES = [
    ("stats", ["--input", "y"], "input", "y"),
    ("stats", ["--format", "conceptnet-dump"], "format", "conceptnet-dump"),
    ("stats", ["--seed", "7"], "seed", 7),
    ("stats", ["--out", "o"], "out", "o"),
    ("stats", ["--exclude", "A", "--exclude", "B"], "exclude_relations", ("A", "B")),
    ("stats", ["--sample", "5"], "sample_size", 5),
    ("train", ["--dim", "8"], "train.dimension", 8),
    ("train", ["--epochs", "2"], "train.epochs", 2),
    ("train", ["--lr", "0.01"], "train.learning_rate", 0.01),
    ("train", ["--margin", "0.5"], "train.margin", 0.5),
    ("train", ["--negatives", "3"], "train.negatives", 3),
    ("train", ["--batch-size", "64"], "train.batch_size", 64),
    ("validate", ["--bins", "7"], "validate.bins", 7),
    ("relsim", ["--definitions", "d.json"], "relsim.definitions_path", "d.json"),
    ("cluster", ["--relation", "A", "--relation", "B"], "cluster.relations", ("A", "B")),
    ("cluster", ["--relation", "A", "--k", "3"], "cluster.k", 3),
    ("cluster", ["--relation", "A", "--k-range", "2:5"], "cluster.k_range", (2, 5)),
    ("cluster", ["--relation", "A", "--exemplars", "2"], "cluster.exemplars_per_cluster", 2),
    ("negation", ["--relation", "A"], "negation.relation", "A"),
    ("negation", ["--negation-relation", "NotA"], "negation.negation_relation", "NotA"),
    ("negation", ["--folds", "4"], "negation.folds", 4),
    ("negation", ["--classifier", "forest"], "negation.classifier", "forest"),
]


@pytest.mark.parametrize(
    "command, flags, field, value", FLAG_CASES, ids=[f"{case[0]}{case[1][-2]}" for case in FLAG_CASES]
)
def test_every_flag_lands_in_its_field(command, flags, field, value):
    config = _load_config(build_parser().parse_args([command, "--input", "x", *flags]))
    node = config
    for name in field.split("."):
        node = getattr(node, name)
    assert node == value


# -- the exit-code contract under corrupted input ---------------------------------

FUZZ_CONFIG = {
    "seed": 9,
    "sample_size": None,
    "split": {"train": 0.75, "validation": 0.125, "test": 0.125},
    "train": {"dimension": 8, "epochs": 2, "seed": 3, "learning_rate": 0.05, "margin": 1.0,
              "negatives": 10, "batch_size": 1024},
    "validate": {"enabled": True, "bins": 20},
    "relsim": {"enabled": True, "definitions_path": None},
    "cluster": {"enabled": True, "relations": ["HasContext"], "k": 4, "k_range": None},
    "negation": {
        "enabled": True,
        "folds": 3,
        "classifier": "both",
        "linear": {"learning_rate": 0.5, "iterations": 50, "l2": 1e-3},
        "forest": {"n_trees": 3, "max_depth": 3, "min_samples_split": 2, "max_features": "sqrt",
                   "bootstrap": True},
    },
}


def _leaves(node, path=()):
    """(path, value) of every non-container value in a parsed JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key), value


def _json_type(value) -> str:
    for kind, name in ((bool, "boolean"), ((int, float), "number"), (str, "string"),
                       (list, "array"), (dict, "object")):
        if isinstance(value, kind):
            return name
    return "null"


# small ints only: a large count or size would make a huge allocation. Floats
# reach 1e30, where a learning rate or penalty makes training diverge.
LARGE_FLOATS = st.floats(-1e30, 1e30, allow_nan=False)
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    LARGE_FLOATS,
    st.text(max_size=6),
    st.lists(st.integers(-3, 40), max_size=3),
    st.dictionaries(st.sampled_from(["enabled", "k", "seed"]), st.integers(-3, 40), max_size=2),
)
# Fields whose size preflight bounds, so a huge value is safe to run: the
# smallest huge value drawn, and the exit code it must give. A batch larger
# than the train split is one batch. Bins start at 2**40, 8 TiB per array, so
# that no machine's memory passes them. train.epochs has no bound: a huge
# count costs time, not memory.
BOUNDED_FIELDS = {
    ("train", "negatives"): (2**31, 2),
    ("train", "dimension"): (2**31, 2),
    ("train", "batch_size"): (2**31, 0),
    ("validate", "bins"): (2**40, 2),
}
# what a refused field's error advises
LOWER = {
    "train": "lower train.negatives, train.batch_size or train.dimension",
    "validate": "lower validate.bins",
}


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_corrupted_input_never_exits_3(
    data, demo_kg, shuffled_table, tmp_path, monkeypatch, capsys
):
    """A damaged table, edge file or config exits 0, 1 or 2, never as an internal error."""
    # one fresh directory per example; relative paths in a corrupted config land in it
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    expected = None  # the exit code a huge bounded field must give
    trained = []

    def counted_train(*args, **kwargs):
        trained.append(args)
        return train(*args, **kwargs)

    kind = data.draw(st.sampled_from(["table", "edges", "config"]), label="kind")
    if kind == "table":
        raw = shuffled_table.read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(raw) - 1), label="offset")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
            raw = raw[:at] + bytes([byte]) + raw[at + 1 :]
        Path("t.kgt").write_bytes(raw)
        argv = ["validate", "--input", str(demo_kg), "--table", "t.kgt"]
    elif kind == "edges":
        raw = demo_kg.read_bytes()
        at = data.draw(st.integers(0, len(raw)), label="offset")
        raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=8), label="bytes") + raw[at:]
        Path("e.tsv").write_bytes(raw)
        argv = ["stats", "--input", "e.tsv"]
    elif data.draw(st.booleans(), label="retype a leaf"):
        config = json.loads(json.dumps(FUZZ_CONFIG))
        path, old = data.draw(st.sampled_from(list(_leaves(config))), label="leaf")
        if path in BOUNDED_FIELDS and data.draw(st.booleans(), label="huge"):
            low, expected = BOUNDED_FIELDS[path]
            new = data.draw(st.integers(low, 2**62), label="new")
            monkeypatch.setattr("kgstruct.report.train", counted_train)
        elif isinstance(old, float):
            new = data.draw(LARGE_FLOATS, label="new")
        else:
            other_type = JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old))
            new = data.draw(other_type, label="new")
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = new
        Path("c.json").write_text(
            json.dumps({"input": str(demo_kg), **config}), encoding="utf-8"
        )
        argv = ["run", "--config", "c.json"]
    else:
        # raw bytes: a truncation, or one byte replaced, often by one that is not UTF-8
        raw = json.dumps({"input": str(demo_kg), **FUZZ_CONFIG}).encode("utf-8")
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:at]
        else:
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
            raw = raw[:at] + bytes([byte]) + raw[at + 1 :]
        Path("c.json").write_bytes(raw)
        argv = ["run", "--config", "c.json"]
    capsys.readouterr()
    code = main([*argv, "--out", "o"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "internal error" not in err
    if expected is not None:
        assert code == expected, err
        if expected == 2:
            assert LOWER[path[0]] in err
            assert trained == []


# -- the demo study ------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_FILES = ROOT / "tests" / "fixtures" / "demo_run_sha256.json"


def _make_demo_kg():
    """scripts/make_demo_kg.py, imported as a module."""
    script = ROOT / "scripts" / "make_demo_kg.py"
    spec = importlib.util.spec_from_file_location("make_demo_kg", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _demo_config(demo_kg: Path, tmp_path: Path) -> Path:
    """The demo config that scripts/make_demo_kg.py writes, for ``demo_kg``."""
    path = tmp_path / "demo_config.json"
    config = _make_demo_kg().demo_config(demo_kg, tmp_path / "report")
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _demo_run_files(edges: Path, tmp_path: Path) -> dict[str, str]:
    """Name -> SHA-256 of every artifact the demo config writes when it reads ``edges``."""
    assert main(["run", "--config", str(_demo_config(edges, tmp_path))]) == 0
    files = json.loads((tmp_path / "report" / "manifest.json").read_text())["files"]
    return {name: entry["sha256"] for name, entry in files.items()}


def test_demo_run_reproduces_the_golden_files(demo_kg, tmp_path):
    """Every artifact of the demo study is byte-identical to the committed SHA-256 map.

    A change that alters artifact bytes on purpose must regenerate the fixture
    from the ``files`` map of the run's manifest.json, and say in CHANGES.md
    which files changed and why.
    """
    golden = json.loads(GOLDEN_FILES.read_text(encoding="utf-8"))
    assert _demo_run_files(demo_kg, tmp_path) == golden


def test_every_json_file_of_the_demo_bundle_is_strict_json(demo_kg, tmp_path):
    """No NaN or Infinity reaches a JSON artifact or the manifest."""
    assert main(["run", "--config", str(_demo_config(demo_kg, tmp_path))]) == 0
    paths = sorted((tmp_path / "report").rglob("*.json"))
    assert tmp_path / "report" / "manifest.json" in paths
    for path in paths:
        strict_json(path.read_text(encoding="utf-8"))


def _child_demo_run(demo_kg: Path, tmp_path: Path, threads: int, **variables: str) -> dict:
    """The environment block of a demo run in a child process, once its files match the golden map."""
    config = _demo_config(demo_kg, tmp_path)
    run_python(["-m", "kgstruct", "run", "--config", str(config)], threads, **variables)
    manifest = json.loads((tmp_path / "report" / "manifest.json").read_text())
    golden = json.loads(GOLDEN_FILES.read_text(encoding="utf-8"))
    assert {name: entry["sha256"] for name, entry in manifest["files"].items()} == golden
    # the environment block records the settings; it lies outside the checksummed files
    return manifest["environment"]


@pytest.mark.parametrize("threads", [1, 2])
def test_demo_run_files_do_not_depend_on_the_blas_thread_count(demo_kg, tmp_path, threads):
    assert _child_demo_run(demo_kg, tmp_path, threads)["openblas_num_threads"] == str(threads)


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_demo_run_files_do_not_depend_on_the_blas_kernel(demo_kg, tmp_path, coretype):
    """OpenBLAS runs the named CPU's kernel (AVX2, AVX); a BLAS that ignores the
    variable runs its own, and the golden map is still checked."""
    environment = _child_demo_run(demo_kg, tmp_path, 2, OPENBLAS_CORETYPE=coretype)
    assert environment["openblas_coretype"] == coretype


def test_demo_run_files_do_not_depend_on_line_ends_repeats_or_comments(demo_kg, tmp_path):
    """CRLF line ends, every line twice, a leading comment and blank line: the golden map."""
    lines = demo_kg.read_text(encoding="utf-8").splitlines()
    edges = tmp_path / "crlf.tsv"
    edges.write_bytes(
        ("# a comment\r\n\r\n" + "".join(f"{line}\r\n" * 2 for line in lines)).encode("utf-8")
    )
    assert _demo_run_files(edges, tmp_path) == json.loads(GOLDEN_FILES.read_text(encoding="utf-8"))


def test_renamed_entities_move_only_the_files_that_hold_names(demo_kg, tmp_path):
    """Every entity renamed with a prefix changes exactly the three files that list entities."""
    edges = tmp_path / "renamed.tsv"
    edges.write_text("".join(
        f"x:{h}\t{r}\tx:{t}\n"
        for h, r, t in (line.split("\t") for line in demo_kg.read_text(encoding="utf-8").splitlines())
    ), encoding="utf-8")
    golden = json.loads(GOLDEN_FILES.read_text(encoding="utf-8"))
    files = _demo_run_files(edges, tmp_path)
    assert files.keys() == golden.keys()
    assert sorted(name for name in files if files[name] != golden[name]) == [
        "cluster_HasContext/exemplars.csv", "embeddings.kgt", "unknown_pairs.tsv"
    ]


def test_reversed_cluster_relations_move_only_the_merged_tables(demo_kg, tmp_path):
    """Each ``cluster_<name>/`` keeps its bytes when ``cluster.relations`` is reversed."""
    relations = ["HasContext", "FormOf", "Desires"]
    maps = []
    for order in (relations, relations[::-1]):
        out = tmp_path / "-".join(order)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "input": str(demo_kg), "out": str(out), "train": {"dimension": 16, "epochs": 8, "seed": 3},
            "cluster": {"relations": order, "k": 4, "k_range": [2, 6]},
        }), encoding="utf-8")
        assert main(["cluster", "--config", str(config)]) == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        maps.append({name: entry["sha256"] for name, entry in files.items()})
    forward, reversed_ = maps
    assert forward.keys() == reversed_.keys()
    assert {name.split("/")[0] for name in forward} >= {f"cluster_{name}" for name in relations}
    assert sorted(name for name in forward if forward[name] != reversed_[name]) == [
        "cluster_cohesion_raw_by_relation.csv", "cluster_separation_by_relation.csv"
    ]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """The "Library use" block of README.md runs as written on fresh demo data."""
    monkeypatch.setattr("sys.argv", ["make_demo_kg.py", "--out", str(tmp_path / "data")])
    _make_demo_kg().main()
    readme = ROOT / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(readme), "exec"), {})
    spearman_abs, kl = map(float, capsys.readouterr().out.split())
    assert 0.0 <= spearman_abs <= 1.0 and kl >= 0.0


def test_readme_config_reference_lists_every_config_field():
    """The "Pipeline config reference" block loads, gives every field of every config
    block, and gives each stage seed the value the master seed derives."""
    from dataclasses import fields, is_dataclass

    from kgstruct.report import PipelineConfig

    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "### Pipeline config reference", 1
    )[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    data = json.loads(re.sub(r"//[^\n]*", "", block))
    config = PipelineConfig.from_json_dict(data)

    def missing(obj, given, path):
        for field in fields(obj):
            name = f"{path}{field.name}"
            if field.name not in given:
                yield name
            elif is_dataclass(value := getattr(obj, field.name)):
                yield from missing(value, given[field.name], name + ".")

    assert list(missing(config, data, "")) == []
    unseeded = {key: value for key, value in data.items() if key != "sample_seed"}
    for stage in ("split", "train", "cluster", "negation"):
        unseeded[stage] = {key: value for key, value in data[stage].items() if key != "seed"}
    assert PipelineConfig.from_json_dict(unseeded) == config


def test_run_prints_the_study_summary(demo_kg, tmp_path, capsys):
    assert main(["run", "--config", str(_demo_config(demo_kg, tmp_path))]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^run: validated \d+ relations; weakest \|rho\| = [\d.]+ \(\w+\)$", out, re.M)
    for kind in ("linear", "forest"):
        line = rf"^run: {kind} mean accuracy [\d.]+ \(baseline [\d.]+\)$"
        assert re.search(line, out, re.M), out


# -- the public surface ----------------------------------------------------------

# the package's modules; __init__.py only re-exports them
PACKAGE_MODULES = [
    path for path in sorted((ROOT / "src" / "kgstruct").glob("*.py")) if path.name != "__init__.py"
]
# the program's own sources, the callers both scans below count: the package,
# scripts/ and perfbench/ without its test_*.py. Tests do not count
PROGRAM_SOURCES = PACKAGE_MODULES + [
    path for top in ("scripts", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))
    if not path.name.startswith("test_")
]


def test_every_definition_has_a_caller_outside_the_tests():
    """Each def and class in src/kgstruct is named somewhere the program reads it.

    A name counts as used when it appears as a word in src/kgstruct outside
    its own definition and the ``__init__`` re-exports, or in scripts/,
    perfbench/ (its tests aside) or pyproject.toml. A method counts only as
    ``.name``, since its bare name may be an unrelated local. Dunder methods
    are skipped.

    A module-level assignment counts as used when its own module reads the
    name, or when a package module, script or perfbench file imports it.
    """
    package = PACKAGE_MODULES
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in package}
    outside = [ROOT / "pyproject.toml"] + PROGRAM_SOURCES[len(package):]
    elsewhere = "\n".join(path.read_text(encoding="utf-8") for path in outside)
    imported = {
        alias.name
        for path in package + outside[1:]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for path in package:
        tree = ast.parse("\n".join(lines[path]))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            unused += [
                f"{path.name}:{node.lineno} {name.id}"
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                and not name.id.startswith("__") and name.id not in read | imported
            ]
        methods = {
            id(item) for owner in ast.walk(tree) if isinstance(owner, ast.ClassDef)
            for item in owner.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            lead = r"\." if id(node) in methods else r"\b"
            word = re.compile(rf"{lead}{re.escape(node.name)}\b")
            used = word.search(elsewhere) or any(
                word.search(line)
                for other in package
                for number, line in enumerate(lines[other], 1)
                if not (other == path and node.lineno <= number <= node.end_lineno)
            )
            if not used:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def _callables(tree: ast.Module):
    """(name, called as, definition, leading parameters a call does not fill) of each
    module-level function and each method of a module-level class: ``Cls(...)`` calls
    ``Cls.__init__`` and ``x.m(...)`` calls ``m``, each filling the parameters after
    ``self`` or ``cls``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    called_as = node.name if method.name == "__init__" else method.name
                    yield f"{node.name}.{method.name}", called_as, method, 1


def test_every_optional_parameter_is_set_by_some_caller():
    """A default that no program call overrides is a constant: each defaulted parameter
    of a module-level function or method in src/kgstruct is set by some call in src,
    scripts or perfbench. Tests do not count: a test that varies a constant patches it.

    A call matches by name, as ``f(...)`` or ``x.f(...)``; a class's ``__init__`` is
    called by the class's name. It sets the leading positional parameters it fills and
    the keywords it names; a call with ``*args`` or ``**kwargs`` counts as setting every
    parameter.
    """
    calls: dict[str, list[ast.Call]] = {}
    for path in PROGRAM_SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    unset = []
    checked = []
    for path in PACKAGE_MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, called_as, func, implicit in _callables(tree):
            args = func.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            positional = positional[implicit:]
            set_by_calls = set()
            for call in calls.get(called_as, []):
                if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    keyword.arg is None for keyword in call.keywords
                ):
                    set_by_calls.update(defaulted)
                set_by_calls.update(positional[: len(call.args)])
                set_by_calls.update(keyword.arg for keyword in call.keywords)
            checked += [f"{name}({arg})" for arg in defaulted]
            unset += [f"{path.name} {name}({arg})" for arg in defaulted if arg not in set_by_calls]
    assert unset == []
    # the scan reaches methods: these four have defaults, each set by some caller
    assert {
        "LogisticRegressionClassifier.__init__(config)", "RandomForestClassifier.__init__(seed)",
        "EmbeddingTable.__init__(epoch_losses)", "KnowledgeGraph.subset(recompact)",
    } <= set(checked)


def test_no_module_imports_a_private_name_from_another():
    """A name that another module of src/kgstruct imports is public: no ``_x`` imports (dunders aside)."""
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted((ROOT / "src" / "kgstruct").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []

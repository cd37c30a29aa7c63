import importlib.util
import json
import random
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgstruct.cli import main
from kgstruct.embedding import EmbeddingTable
from kgstruct.graph import write_generic_3col
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
    ],
    ids=["non-utf8-edges", "truncated-table", "garbled-table", "nan-in-table", "k-as-string",
         "enabled-as-string", "n-trees-as-string", "zero-trees", "zero-depth",
         "zero-iterations", "negative-learning-rate", "missing-definitions",
         "non-json-definitions", "max-features-log2", "zero-exemplars",
         "diverging-train-lr", "diverging-linear-lr", "negative-l2", "non-converging-l2",
         "nan-margin", "overflowing-margin", "forest-seed", "list-definition",
         "null-definition"],
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


# -- the exit-code contract under corrupted input ---------------------------------

FUZZ_CONFIG = {
    "seed": 9,
    "sample_size": None,
    "split": {"train": 0.75, "validation": 0.125, "test": 0.125},
    "train": {"dimension": 8, "epochs": 2, "seed": 3, "learning_rate": 0.05, "margin": 1.0},
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
    else:
        config = json.loads(json.dumps(FUZZ_CONFIG))
        path, old = data.draw(st.sampled_from(list(_leaves(config))), label="leaf")
        if isinstance(old, float):
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
    capsys.readouterr()
    code = main([*argv, "--out", "o"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "internal error" not in err


# -- the demo study ------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_FILES = ROOT / "tests" / "fixtures" / "demo_run_sha256.json"


def _demo_config(demo_kg: Path, tmp_path: Path) -> Path:
    """The demo config that scripts/make_demo_kg.py writes, for ``demo_kg``."""
    script = ROOT / "scripts" / "make_demo_kg.py"
    spec = importlib.util.spec_from_file_location("make_demo_kg", script)
    make_demo_kg = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_demo_kg)
    path = tmp_path / "demo_config.json"
    config = make_demo_kg.demo_config(demo_kg, tmp_path / "report")
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_demo_run_reproduces_the_golden_files(demo_kg, tmp_path):
    """Every artifact of the demo study is byte-identical to the committed SHA-256 map.

    A change that alters artifact bytes on purpose must regenerate the fixture
    from the ``files`` map of the run's manifest.json, and say in CHANGES.md
    which files changed and why.
    """
    assert main(["run", "--config", str(_demo_config(demo_kg, tmp_path))]) == 0
    files = json.loads((tmp_path / "report" / "manifest.json").read_text())["files"]
    golden = json.loads(GOLDEN_FILES.read_text(encoding="utf-8"))
    assert {name: entry["sha256"] for name, entry in files.items()} == golden


def test_run_prints_the_study_summary(demo_kg, tmp_path, capsys):
    assert main(["run", "--config", str(_demo_config(demo_kg, tmp_path))]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^run: validated \d+ relations; weakest \|rho\| = [\d.]+ \(\w+\)$", out, re.M)
    for kind in ("linear", "forest"):
        line = rf"^run: {kind} mean accuracy [\d.]+ \(baseline [\d.]+\)$"
        assert re.search(line, out, re.M), out

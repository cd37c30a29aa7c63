"""Self-tests of the benchmark: span arithmetic, output checks, tracing.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import check_bundle  # noqa: E402
from spans import k_sweep_outcomes, self_times, totals  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def span(name, start, end, parent=-1, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_self_time_subtracts_child_coverage():
    spans = [
        span("report.run_pipeline", 0.0, 10.0),
        span("report.stage_cluster", 1.0, 4.0, parent=0),
        span("cluster.lloyd_kmeans", 2.0, 3.0, parent=1),
        # children may overlap; their union is what gets subtracted
        span("report.stage_negation", 3.5, 6.0, parent=0),
        span("report.stage_stats", 7.0, 7.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.5, 2.0, 1.0, 2.5, 0.5])


def test_totals_count_nested_calls_of_one_name_once():
    spans = [
        span("cluster.k_selection_scores", 0.0, 4.0),
        span("cluster.silhouette_score", 1.0, 3.0, parent=0),
        span("cluster.silhouette_score", 1.5, 2.0, parent=1),
        span("classify.cross_validate", 5.0, 6.0, kind="forest"),
    ]
    out = totals(spans)
    assert out["cluster.silhouette_score"] == pytest.approx({"s": 2.0, "self_s": 2.0, "calls": 2})
    assert out["cluster.k_selection_scores"]["self_s"] == pytest.approx(2.0)
    assert out["classify.cross_validate.forest"]["calls"] == 1


def test_k_sweep_counts_cold_wins_and_kept_runs():
    lloyd = "cluster.lloyd_kmeans"
    spans = [
        span("cluster.k_selection_scores", 0.0, 10.0),
        span(lloyd, 0.0, 1.0, parent=0, k=2, warm=False, inertia=9.0),
        span(lloyd, 1.0, 2.0, parent=0, k=3, warm=False, inertia=7.0),
        span(lloyd, 2.0, 3.0, parent=0, k=3, warm=True, inertia=6.0),  # warm kept
        span(lloyd, 3.0, 4.0, parent=0, k=4, warm=False, inertia=5.0),
        span(lloyd, 4.0, 5.0, parent=0, k=4, warm=True, inertia=5.0),  # tie: cold kept
        span(lloyd, 11.0, 12.0, k=3, warm=False, inertia=6.5),  # final fit, kept
    ]
    assert k_sweep_outcomes(spans) == {"runs": 6, "kept": 4, "cold_wins": 1}


def _demo_bundle(tmp_path: Path) -> Path:
    from kgstruct.graph import write_generic_3col
    from kgstruct.synth import demo_plan, synthetic_graph

    edges = tmp_path / "demo.tsv"
    write_generic_3col(synthetic_graph(demo_plan()), edges)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "input": str(edges),
                "out": str(tmp_path / "out"),
                "seed": 9,
                "train": {"dimension": 8, "epochs": 2, "seed": 3},
                "validate": {"enabled": True},
                "relsim": {"enabled": True},
                "cluster": {"enabled": True, "relations": ["HasContext"], "k": 3, "k_range": [2, 4]},
                "negation": {"enabled": True, "folds": 3, "forest": {"n_trees": 3, "max_depth": 4}},
            }
        ),
        encoding="utf-8",
    )
    return config


def test_tampered_artifact_counts_as_failed_run(tmp_path):
    from kgstruct.cli import main as cli_main

    config = _demo_bundle(tmp_path)
    assert cli_main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    log = tmp_path / "run.log"
    log.write_text("", encoding="utf-8")
    # two epochs are too few for criterion 3's bounds; those are not under test
    desk = Workload(name="demo", write_edges=None, config={})
    problems, files, _ = run.inspect_sample(desk, out, 0, log, None)
    assert problems == [] and "validation.json" in files

    # one flipped byte: the manifest check catches it
    target = out / "validation.csv"
    original = target.read_bytes()
    tampered = bytearray(original)
    tampered[-2] ^= 1
    target.write_bytes(bytes(tampered))
    problems, _, _ = run.inspect_sample(desk, out, 0, log, files)
    assert any("validation.csv" in p for p in problems)

    # a bundle whose manifest agrees with itself but not with an earlier run
    target.write_bytes(original)
    assert check_bundle(out)[0] == []
    reference = {**files, "stats.json": "0" * 64}
    problems, _, _ = run.inspect_sample(desk, out, 0, log, reference)
    assert any("stats.json" in p for p in problems)

    # a non-zero exit fails without looking at the bundle
    problems, _, _ = run.inspect_sample(desk, out, 2, log, None)
    assert problems and problems[0].startswith("exit code 2")


def test_traced_run_sees_calls_bound_in_report(tmp_path):
    config = _demo_bundle(tmp_path)
    spans_path = tmp_path / "spans.json"
    env = run._child_env()
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced.py"), str(config), str(spans_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    root = spans.index(by_name["report.run_pipeline"][0])
    # report calls train and lloyd_kmeans through names it imported itself
    assert by_name["embedding.train"][0]["parent"] == root
    assert by_name["embedding.train"][0]["attrs"]["epochs"] == 2
    final_fit = [s for s in by_name["cluster.lloyd_kmeans"] if spans[s["parent"]]["name"] == "report.stage_cluster"]
    assert len(final_fit) == 1
    metrics = run.per_layer_metrics(spans)
    assert metrics["classify.RandomForestClassifier.fit.calls"] == 3
    # the sweep runs k=2 cold and k=3, k=4 cold and warm; then the final fit
    assert metrics["cluster.lloyd_kmeans.calls"] == 6
    assert set(metrics) <= set(run.PER_LAYER)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]

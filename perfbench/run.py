#!/usr/bin/env python3
"""kgstruct benchmark: time ``kgstruct run`` on generated inputs and check its output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 11 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

A run generates the workload's inputs from ``--seed`` three times (the median
is ``setup_s``), then repeats ``kgstruct run`` as a subprocess until
``--seconds`` is used up, at least three times. With ``--trace 1`` it
alternates untraced runs with traced ones (``traced.py``) and reports the
per-layer metrics instead. Every run's bundle goes through the output checks
in ``checks.py``; a run that exits non-zero or fails a check counts as
failed. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Details and the layer map
are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_bundle, quality
from spans import k_sweep_outcomes, totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUPS = 3
MIN_SAMPLES = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Span names whose inclusive time is reported as ``<name>.s``.
_TIMED = (
    "graph.parse_edge_file",
    "graph.compute_stats",
    "embedding.train",
    "embedding.hits_at_k",
    "validation.validate_relation",
    "validation.similarity_lists",
    "validation.average_ranks",
    "relsim.jaccard_overlap_matrix",
    "relsim.tfidf_similarity_matrix",
    "relsim.embedding_similarity_matrix",
    "cluster.k_selection_scores",
    "cluster.lloyd_kmeans",
    "cluster.silhouette_score",
    "cluster.davies_bouldin_index",
    "cluster.calinski_harabasz_index",
    "cluster.quality_report",
    "cluster.pca_project_2d",
    "negation.sample_unknown_pairs",
    "classify.cross_validate.linear",
    "classify.cross_validate.forest",
    "classify.RandomForestClassifier.fit",
    "classify.RandomForestClassifier.predict_proba",
    "classify.LogisticRegressionClassifier.fit",
)
_COUNTED = (
    "validation.validate_relation",
    "validation.similarity_lists",
    "validation.average_ranks",
    "cluster.lloyd_kmeans",
    "classify.RandomForestClassifier.fit",
    "classify.RandomForestClassifier.predict_proba",
)
_SELF_TIMED = (
    "negation.run_negation_study",
    "report.run_pipeline",
    "report.stage_stats",
    "report.stage_validate",
    "report.stage_relsim",
    "report.stage_cluster",
    "report.stage_negation",
)
PER_LAYER = {
    **{f"{name}.s": "s" for name in _TIMED},
    **{f"{name}.calls": "count" for name in _COUNTED},
    **{f"{name}.self_s": "s" for name in _SELF_TIMED},
    "graph.parse_edge_file.triples": "count",
    "embedding.train.epochs": "count",
    "embedding.train.triples": "count",
    "embedding.train.s_per_epoch": "s",
    "embedding.hits_at_k.triples": "count",
    "cluster.lloyd_kmeans.iterations": "count",
    "cluster.lloyd_kmeans.converged_share": "ratio",
    "cluster.lloyd_kmeans.kept_share": "ratio",
    "cluster.k_sweep.cold_wins": "count",
    "embedding.hits_at_k.hits_at_10": "ratio",
    "validation.validate_relation.min_abs_rho": "ratio",
    "validation.validate_relation.max_kl": "nats",
    "classify.cross_validate.linear.accuracy": "ratio",
    "classify.cross_validate.forest.accuracy": "ratio",
    "cluster.lloyd_kmeans.final_inertia": "dist2",
    "report.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


# -- one pipeline run ----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _spawn(cmd: list[str], log_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run to exit; returns (exit code, wall seconds, peak RSS in MB).

    The child is killed at ``deadline`` (a ``perf_counter`` time).
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def inspect_sample(workload, out_dir: Path, exit_code: int, log_path: Path, reference):
    """Output checks of one run; returns (problems, files map, quality)."""
    if exit_code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return [f"exit code {exit_code}:\n{tail}"], {}, {}
    try:
        problems, files = check_bundle(
            out_dir, workload.validation_bounds, workload.min_triples
        )
        measured = quality(out_dir)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable bundle: {exc!r}"], {}, {}
    if reference is not None and files and files != reference:
        changed = sorted(
            rel
            for rel in set(files) | set(reference)
            if files.get(rel) != reference.get(rel)
        )
        problems.append(f"files map differs from an earlier run of this code: {changed}")
    return problems, files, measured


def per_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run, from its spans."""
    total = totals(spans)

    def get(name, key):
        return total.get(name, {}).get(key, 0.0)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    metrics = {f"{name}.s": get(name, "s") for name in _TIMED}
    metrics.update({f"{name}.calls": get(name, "calls") for name in _COUNTED})
    metrics.update({f"{name}.self_s": get(name, "self_s") for name in _SELF_TIMED})
    epochs = attr_sum("embedding.train", "epochs")
    lloyd_runs = get("cluster.lloyd_kmeans", "calls")
    sweep = k_sweep_outcomes(spans)
    metrics.update(
        {
            "graph.parse_edge_file.triples": attr_sum("graph.parse_edge_file", "triples"),
            "embedding.train.epochs": epochs,
            "embedding.train.triples": attr_sum("embedding.train", "triples"),
            "embedding.train.s_per_epoch": get("embedding.train", "s") / epochs if epochs else 0.0,
            "embedding.hits_at_k.triples": attr_sum("embedding.hits_at_k", "triples"),
            "cluster.lloyd_kmeans.iterations": attr_sum("cluster.lloyd_kmeans", "iterations"),
            "cluster.lloyd_kmeans.converged_share": (
                attr_sum("cluster.lloyd_kmeans", "converged") / lloyd_runs if lloyd_runs else 0.0
            ),
            "cluster.lloyd_kmeans.kept_share": sweep["kept"] / lloyd_runs if lloyd_runs else 0.0,
            "cluster.k_sweep.cold_wins": sweep["cold_wins"],
        }
    )
    return metrics


# -- one benchmark run -----------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def code_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    from workloads import HELD_OUT_SEED

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "code_sha256": code_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, per-metric median/spread/n)."""
    from workloads import write_inputs

    run_start = time.perf_counter()
    deadline = run_start + RUN_DEADLINE_S
    env = environment(seed)
    work = OUT / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    results_path = OUT / "results" / f"{workload.name}-seed{seed}.json"
    reference = None
    if results_path.is_file():
        previous = json.loads(results_path.read_text(encoding="utf-8"))
        if previous["env"]["code_sha256"] == env["code_sha256"] and previous["files"]:
            reference = previous["files"]

    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        config = write_inputs(workload, work, seed)
        setup_times.append(time.perf_counter() - start)

    out_dir = work / "out"
    log_path = work / "run.log"
    spans_path = work / "spans.json"
    plain_cmd = [sys.executable, "-m", "kgstruct", "run", "--config", str(config)]
    traced_cmd = [sys.executable, str(HERE / "traced.py"), str(config), str(spans_path)]

    def take(kind: str) -> dict:
        nonlocal reference
        shutil.rmtree(out_dir, ignore_errors=True)
        code, wall, rss = _spawn(traced_cmd if kind == "traced" else plain_cmd, log_path, deadline)
        problems, files, measured = inspect_sample(workload, out_dir, code, log_path, reference)
        sample = {"kind": kind, "wall_s": wall, "peak_rss_mb": rss, "exit_code": code,
                  "problems": problems, "quality": measured}
        if kind == "traced" and code == 0:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
            sample["layers"] = per_layer_metrics(spans)
        if reference is None and files and not problems:
            reference = files
        for problem in problems:
            print(f"{workload.name}: {kind} run failed: {problem}", file=sys.stderr)
        return sample

    # The first run after set-up is slower on a cold machine; it is checked
    # but not timed.
    samples = [take("warmup")]
    kinds = ("plain", "traced") if trace else ("plain",)
    measure_start = time.perf_counter()
    while True:
        samples.extend(take(kind) for kind in kinds)
        timed = [s for s in samples if s["kind"] != "warmup"]
        per_round = sum(
            _median([s["wall_s"] for s in timed if s["kind"] == kind]) for kind in kinds
        )
        now = time.perf_counter()
        if now + per_round > deadline:
            break
        rounds = len(timed) // len(kinds)
        if now - measure_start + per_round > seconds and rounds >= (1 if trace else MIN_SAMPLES):
            break
    shutil.rmtree(out_dir, ignore_errors=True)

    plain = [s for s in samples if s["kind"] == "plain"]
    traced = [s for s in samples if s["kind"] == "traced"]
    if trace:
        layered = [s for s in traced if "layers" in s]
        series = {
            name: [{**s["layers"], **s["quality"]}[name] for s in layered]
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        series["trace.overhead_s"] = [
            _median([s["wall_s"] for s in traced]) - _median([s["wall_s"] for s in plain])
        ]
        units = PER_LAYER
    else:
        series = {
            "wall_s": [s["wall_s"] for s in plain],
            "setup_s": setup_times,
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        }
        units = END_TO_END
    failed = sum(1 for s in samples if s["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: {"value": float(_median(series[name])), "unit": unit}
            for name, unit in units.items()
        },
    }
    summary = {
        name: {"median": _median(values), "spread": _spread(values), "n": len(values)}
        for name, values in series.items()
    }
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(
        json.dumps(
            {
                "env": env,
                "workload": workload.name,
                "trace": trace,
                "seconds": seconds,
                "result": result,
                "summary": summary,
                "files": reference or {},
                "setup_s": setup_times,
                "samples": samples,
                "run_s": time.perf_counter() - run_start,
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    return result, summary


def print_table(name: str, result: dict, summary: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
    for metric, stats in summary.items():
        unit = result["metrics"][metric]["unit"]
        print(
            f"  {metric:<48} {stats['median']:>14.6g} {unit:<6} "
            f"spread {stats['spread']:.3f}  n={stats['n']}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 11)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kgstruct" / "__init__.py").is_file():
        print(f"error: no kgstruct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    results = {}
    for name in names:
        results[name], summary = run_workload(WORKLOADS[name], seed, args.seconds, bool(args.trace))
        print_table(name, results[name], summary)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

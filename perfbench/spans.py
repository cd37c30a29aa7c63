"""In-memory span recorder and the per-layer metrics derived from its spans.

A span is one call into a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when it
started (its parent, or -1), and attributes read from the call's arguments
and result. Spans stay in memory until the traced run ends.
"""

from __future__ import annotations

import functools
import inspect
import time

# Public functions on the hot path, by module. ``Class.method`` entries are
# patched on the class; plain functions are rebound in every kgstruct module
# namespace that imported them by name.
HOT_PATH = {
    "graph": ("parse_edge_file", "compute_stats"),
    "embedding": ("train", "hits_at_k"),
    "validation": ("validate_relation", "similarity_lists", "average_ranks"),
    "relsim": (
        "jaccard_overlap_matrix",
        "tfidf_similarity_matrix",
        "embedding_similarity_matrix",
    ),
    "cluster": (
        "k_selection_scores",
        "lloyd_kmeans",
        "silhouette_score",
        "davies_bouldin_index",
        "calinski_harabasz_index",
        "quality_report",
        "pca_project_2d",
    ),
    "negation": ("run_negation_study", "sample_unknown_pairs"),
    "classify": (
        "cross_validate",
        "RandomForestClassifier.fit",
        "RandomForestClassifier.predict_proba",
        "LogisticRegressionClassifier.fit",
    ),
    "report": (
        "run_pipeline",
        "stage_stats",
        "stage_validate",
        "stage_relsim",
        "stage_cluster",
        "stage_negation",
    ),
}


def _train_attrs(args, result):
    indices = args.get("triple_indices")
    triples = args["graph"].n_triples if indices is None else len(indices)
    return {"epochs": len(result.epoch_losses or ()), "triples": int(triples)}


def _lloyd_attrs(args, result):
    return {
        "k": result.k,
        "iterations": result.n_iterations,
        "converged": bool(result.converged),
        "inertia": float(result.inertia),
        "warm": args.get("initial_centroids") is not None,
    }


# Counts read at the call boundary: (bound arguments, result) -> attributes.
ANNOTATE = {
    "graph.parse_edge_file": lambda args, result: {"triples": result.n_triples},
    "embedding.train": _train_attrs,
    "embedding.hits_at_k": lambda args, result: {"triples": args["graph"].n_triples},
    "cluster.lloyd_kmeans": _lloyd_attrs,
    "classify.cross_validate": lambda args, result: {"kind": args["kind"]},
}


class SpanRecorder:
    """Collects spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._open[-1] if self._open else -1,
                "attrs": {},
            }
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["attrs"] = annotate(bound.arguments, result)
                return result
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()

        return wrapper


# -- arithmetic over a finished span list --------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start"], span["end"]))
    result = []
    for span, kids in zip(spans, children):
        clipped = [
            (max(s, span["start"]), min(e, span["end"])) for s, e in kids if e > s
        ]
        result.append(span["end"] - span["start"] - _covered(clipped))
    return result


def _has_ancestor_named(spans: list[dict], index: int, name: str) -> bool:
    parent = spans[index]["parent"]
    while parent >= 0:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per name: inclusive seconds ``s`` (outermost calls only), ``self_s``
    and ``calls``. ``classify.cross_validate`` is split by classifier kind."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        name = span["name"]
        if name == "classify.cross_validate":
            name = f"{name}.{span['attrs'].get('kind')}"
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += own[i]
        if not _has_ancestor_named(spans, i, span["name"]):
            entry["s"] += span["end"] - span["start"]
    return out


def k_sweep_outcomes(spans: list[dict]) -> dict[str, int]:
    """Which Lloyd runs produced a result the pipeline used.

    Inside ``cluster.k_selection_scores`` every k runs cold (k-means++) and,
    from the second k on, warm (from the previous k's centroids); the sweep
    keeps the warm result only when its inertia is strictly lower. A Lloyd
    run outside a sweep is always kept.
    """
    sweeps: dict[int, list[dict]] = {}
    kept = 0
    runs = 0
    for span in spans:
        if span["name"] != "cluster.lloyd_kmeans":
            continue
        runs += 1
        parent = span["parent"]
        if parent >= 0 and spans[parent]["name"] == "cluster.k_selection_scores":
            sweeps.setdefault(parent, []).append(span["attrs"])
        else:
            kept += 1
    cold_wins = 0
    for calls in sweeps.values():
        by_k: dict[int, dict[bool, float]] = {}
        for attrs in calls:
            by_k.setdefault(attrs["k"], {})[attrs["warm"]] = attrs["inertia"]
        for pair in by_k.values():
            kept += 1
            if True in pair and False in pair and pair[True] >= pair[False]:
                cold_wins += 1
    return {"runs": runs, "kept": kept, "cold_wins": cold_wins}

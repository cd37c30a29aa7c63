"""Output checks on one ``kgstruct run`` bundle, and the quality it reports.

A run fails its checks when any of these does not hold:
- every file listed in ``manifest.json`` exists with the listed SHA-256 and
  size, and no other file sits in the bundle;
- ``stats.json`` satisfies |heads| + |tails| - |overlap| = |entities|;
- with ``validation_bounds``, every relation with at least 100 triples has
  |rho| >= 0.4 and KL <= 2.0 (acceptance criterion 3's bounds);
- with ``min_triples``, ``stats.json`` counts more triples than that.
The runner also requires every run of one source tree and seed to produce
the same ``files`` map.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

VALIDATION_MIN_TRIPLES = 100
MIN_ABS_RHO = 0.4
MAX_KL = 2.0


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_bundle(
    out_dir: Path, validation_bounds: bool = False, min_triples: int = 0
) -> tuple[list[str], dict]:
    """Returns (problems, files map); no problems means the bundle passed."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return [f"{manifest_path} is missing"], {}
    files = _read_json(manifest_path)["files"]
    problems = []
    for rel, entry in sorted(files.items()):
        path = out_dir / rel
        if not path.is_file():
            problems.append(f"{rel}: listed in the manifest but missing")
        elif path.stat().st_size != entry["bytes"] or sha256(path) != entry["sha256"]:
            problems.append(f"{rel}: bytes differ from the manifest")
    on_disk = {
        p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file()
    }
    for rel in sorted(on_disk - set(files) - {"manifest.json"}):
        problems.append(f"{rel}: present but not in the manifest")

    stats = _read_json(out_dir / "stats.json")
    if stats["heads"] + stats["tails"] - stats["head_tail_overlap"] != stats["entities"]:
        problems.append("stats.json breaks the inclusion-exclusion identity")
    if stats["triples"] <= min_triples:
        problems.append(f"stats.json counts {stats['triples']} triples, need > {min_triples}")
    if validation_bounds:
        for rec in _validated_relations(out_dir):
            rho, kl = rec["spearman_abs"], rec["kl"]
            if rho is None or kl is None or rho < MIN_ABS_RHO or kl > MAX_KL:
                problems.append(
                    f"validation {rec['relation']}: |rho| {rho}, KL {kl} outside "
                    f"|rho| >= {MIN_ABS_RHO}, KL <= {MAX_KL}"
                )
    return problems, {rel: entry["sha256"] for rel, entry in files.items()}


def _validated_relations(out_dir: Path) -> list[dict]:
    path = out_dir / "validation.json"
    if not path.is_file():
        return []
    return [
        rec
        for rec in _read_json(path)
        if "error" not in rec and rec["triples"] >= VALIDATION_MIN_TRIPLES
    ]


def quality(out_dir: Path) -> dict[str, float]:
    """Result quality a bundle reports; 0 for a stage the workload does not run."""
    manifest = _read_json(out_dir / "manifest.json")
    notes = manifest["notes"]
    records = _validated_relations(out_dir)
    accuracy = {
        cv["classifier"]: cv["mean_accuracy"]
        for cv in notes.get("negation", {}).get("cross_validation", [])
    }
    return {
        "embedding.hits_at_k.hits_at_10": notes.get("train", {}).get("test_hits_at_10") or 0.0,
        "validation.validate_relation.min_abs_rho": min(
            (r["spearman_abs"] or 0.0 for r in records), default=0.0
        ),
        "validation.validate_relation.max_kl": max(
            (r["kl"] or 0.0 for r in records), default=0.0
        ),
        "classify.cross_validate.linear.accuracy": accuracy.get("linear", 0.0),
        "classify.cross_validate.forest.accuracy": accuracy.get("forest", 0.0),
        "cluster.lloyd_kmeans.final_inertia": sum(
            c["inertia"] for c in notes.get("cluster", {}).values()
        ),
        "report.output_bytes": sum(entry["bytes"] for entry in manifest["files"].values()),
    }

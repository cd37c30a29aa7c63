import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgstruct.graph import KnowledgeGraph


def from_labeled_triples(rows) -> KnowledgeGraph:
    """Graph of (head, relation, tail) name rows, interned in first-seen order."""
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    triples = [
        (
            entity_ids.setdefault(head, len(entity_ids)),
            relation_ids.setdefault(relation, len(relation_ids)),
            entity_ids.setdefault(tail, len(entity_ids)),
        )
        for head, relation, tail in rows
    ]
    return KnowledgeGraph.from_id_triples(
        list(entity_ids), list(relation_ids), np.array(triples, dtype=np.int64).reshape(-1, 3)
    )


def strict_json(text: str):
    """``json.loads`` that refuses NaN, Infinity and -Infinity, which JSON does not have."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def edge_case_graphs() -> list[KnowledgeGraph]:
    """Seeded id graphs for comparing counting kernels with reference formulas.

    Between them they hold duplicate input rows, self-loops, a relation with
    no triples, entity ids no triple uses (``subset(recompact=False)``), and
    a graph of one triple.
    """
    graphs = [KnowledgeGraph.from_id_triples(["a", "b"], ["r", "unused"], [[0, 0, 1]])]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n_ent = int(rng.integers(1, 80))
        n_rel = int(rng.integers(1, 6))
        n = int(rng.integers(1, 400))
        pool = rng.integers(0, [n_ent, n_rel, n_ent], size=(max(n // 3, 1), 3))
        rows = pool[rng.integers(0, len(pool), n)]  # heavy duplication
        loops = rng.random(n) < 0.1
        rows[loops, 2] = rows[loops, 0]
        names = [f"e{i}" for i in range(n_ent)]
        relations = [f"r{i}" for i in range(n_rel + 1)]  # the last one stays empty
        graph = KnowledgeGraph.from_id_triples(names, relations, rows)
        graphs.append(graph)
        keep = np.flatnonzero(rng.random(graph.n_triples) < 0.5)
        graphs.append(graph.subset(keep, recompact=False))
    return graphs


@pytest.fixture
def tiny_graph() -> KnowledgeGraph:
    """Six triples over two relations, small enough to enumerate by hand."""
    rows = [
        ("cat", "IsA", "animal"),
        ("dog", "IsA", "animal"),
        ("bird", "IsA", "animal"),
        ("wing", "PartOf", "bird"),
        ("paw", "PartOf", "cat"),
        ("paw", "PartOf", "dog"),
    ]
    return from_labeled_triples(rows)


def make_table(entity_positions: dict[str, list[float]], relation_vectors: dict[str, list[float]]):
    """Hand-built embedding table from explicit coordinates."""
    from kgstruct.embedding import EmbeddingTable

    ent_names = list(entity_positions)
    rel_names = list(relation_vectors)
    return EmbeddingTable(
        ent_names,
        rel_names,
        np.asarray([entity_positions[n] for n in ent_names], dtype=np.float32),
        np.asarray([relation_vectors[n] for n in rel_names], dtype=np.float32),
    )


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args: list[str], blas_threads: int, **variables: str) -> str:
    """Standard output of ``python *args`` in a fresh process with this tree's
    kgstruct first on the path, OpenBLAS at ``blas_threads`` threads and the
    environment ``variables`` set."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **variables, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def patch_physical_memory(monkeypatch, nbytes: int) -> None:
    """Make ``os.sysconf`` report ``nbytes`` of physical memory for the test's duration."""
    real = os.sysconf
    sizes = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", lambda name: sizes.get(name) or real(name))

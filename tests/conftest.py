"""Shared oracles and graph builders for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from poprank import (  # noqa: E402
    ObjectGraph,
    ObjectRecord,
    ObjectTypeSchema,
    PpfAssignment,
    RawLink,
    RelationshipType,
    SchemaRegistry,
    build_graph,
    merge_records,
)


def dense_pagerank(num_pages: int, edges, damping: float) -> np.ndarray:
    """Independent PageRank oracle: dense linear solve of
    (I - d * P^T) r = (1 - d) / n, with dangling rows spread uniformly."""
    n = num_pages
    out: dict[int, set[int]] = {}
    for s, t in edges:
        out.setdefault(int(s), set()).add(int(t))
    P = np.zeros((n, n))
    for s in range(n):
        targets = out.get(s)
        if targets:
            for t in targets:
                P[s, t] = 1.0 / len(targets)
        else:
            P[s, :] = 1.0 / n
    A = np.eye(n) - damping * P.T
    r = np.linalg.solve(A, np.full(n, (1.0 - damping) / n))
    return r / r.sum()


def dense_poprank(transition, prior: np.ndarray, epsilon: float) -> np.ndarray:
    """Independent fixed-point oracle: dense solve of
    (I - (1 - eps) * (M^T + prior d^T)) r = eps * prior."""
    n = transition.num_objects
    M = np.zeros((n, n))
    for o in range(n):
        for target, p in transition.row(o):
            M[o, target] += p
    d = transition.dangling.astype(float)
    A = np.eye(n) - (1.0 - epsilon) * (M.T + np.outer(prior, d))
    r = np.linalg.solve(A, epsilon * np.asarray(prior, float))
    return r / r.sum()


def paper_registry() -> SchemaRegistry:
    return SchemaRegistry(
        [ObjectTypeSchema("paper", ("title", "year", "venue"), ("title",))]
    )


def simple_graph(num_objects: int, links_by_type: dict[str, list[tuple[int, int]]]) -> ObjectGraph:
    """Single-type object graph with explicit integer links; ids are 't0'..'tN'."""
    registry = paper_registry()
    records = [
        ObjectRecord(f"r{i}", "paper", {"title": f"t{i}"}) for i in range(num_objects)
    ]
    objects = merge_records(records, registry)
    rel_types = [RelationshipType(name, "paper", "paper") for name in links_by_type]
    raw = [
        RawLink("paper", (f"t{s}",), name, "paper", (f"t{t}",))
        for name, pairs in links_by_type.items()
        for s, t in pairs
    ]
    graph, report = build_graph(objects, rel_types, raw, registry)
    assert not report.dropped
    return graph


def random_links(rng: np.random.Generator, n: int, count: int) -> list[tuple[int, int]]:
    """Up to count distinct directed pairs without self-loops (n >= 2)."""
    count = min(count, n * (n - 1))
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < count:
        s, t = int(rng.integers(0, n)), int(rng.integers(0, n))
        if s != t:
            pairs.add((s, t))
    return sorted(pairs)


def random_graph(
    rng: np.random.Generator,
    num_objects: int,
    num_types: int,
    links_per_type: int,
) -> tuple[ObjectGraph, PpfAssignment]:
    names = [f"rel{i}" for i in range(num_types)]
    links = {name: random_links(rng, num_objects, links_per_type) for name in names}
    graph = simple_graph(num_objects, links)
    gammas = {name: float(rng.uniform(0.05, 1.0)) for name in names}
    return graph, PpfAssignment(gammas)


def random_prior(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.uniform(0.1, 1.0, n)
    return raw / raw.sum()

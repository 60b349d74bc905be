"""Shared oracles and graph builders for the test suite."""

from __future__ import annotations

import multiprocessing
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from poprank import (  # noqa: E402
    LinkTable,
    ObjectGraph,
    ObjectTypeSchema,
    PageObjectMap,
    PpfAssignment,
    RecordTable,
    RelationshipType,
    SchemaRegistry,
    build_graph,
    formats,
    merge_records,
)


@pytest.fixture(autouse=True)
def no_worker_left():
    """load_corpus parses in worker processes and a large solve runs on a
    helper thread; no process, and no thread started in a test, may
    outlive it."""
    before = set(threading.enumerate())
    yield
    assert multiprocessing.active_children() == []
    assert [t for t in threading.enumerate() if t not in before] == []


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
    sources = np.repeat(np.arange(n), np.diff(transition.indptr))
    np.add.at(M, (sources, transition.targets), transition.probs)
    d = transition.dangling.astype(float)
    A = np.eye(n) - (1.0 - epsilon) * (M.T + np.outer(prior, d))
    r = np.linalg.solve(A, epsilon * np.asarray(prior, float))
    return r / r.sum()


def paper_registry() -> SchemaRegistry:
    return SchemaRegistry(
        [ObjectTypeSchema("paper", ("title", "year", "venue"), ("title",))]
    )


def record_table(rows) -> RecordTable:
    """The RecordTable of (record_id, type_name, attribute values) rows."""
    return RecordTable.from_rows((r[0], r[1], dict(r[2])) for r in rows)


def link_table(rows) -> LinkTable:
    """The LinkTable read_links makes of a links file with the given
    (source_type, source_key, rel_name, target_type, target_key) rows."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "links.tsv"
        path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
        return formats.read_links(path)


def page_object_map(entries) -> PageObjectMap:
    """The PageObjectMap of (page, object, weight or None) triples; an
    absent weight is 1.0, as read_page_map reads it."""
    entries = list(entries)
    return PageObjectMap(np.array([e[0] for e in entries]), np.array([e[1] for e in entries]),
                         np.array([1.0 if e[2] is None else e[2] for e in entries], np.float64))


def map_columns(page_map: PageObjectMap) -> tuple[list, list, list]:
    """A PageObjectMap's pages, objects and weights as lists, to compare."""
    return page_map.pages.tolist(), page_map.objects.tolist(), page_map.weights.tolist()


def simple_graph(num_objects: int, links_by_type: dict[str, list[tuple[int, int]]]) -> ObjectGraph:
    """Single-type object graph with explicit integer links; ids are 't0'..'tN'."""
    registry = paper_registry()
    records = record_table(
        (f"r{i}", "paper", {"title": f"t{i}"}) for i in range(num_objects)
    )
    objects = merge_records(records, registry)
    rel_types = [RelationshipType(name, "paper", "paper") for name in links_by_type]
    links = link_table(
        ("paper", f"t{s}", name, "paper", f"t{t}")
        for name, pairs in links_by_type.items()
        for s, t in pairs
    )
    graph, report = build_graph(objects, rel_types, links)
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

"""Determinism: the two kernels give pinned results on a fixed seeded graph."""

from __future__ import annotations

import numpy as np

from conftest import random_graph, random_prior
from poprank import _kernels, build_transition


def _structure():
    """12 objects, 2 relationship types, 16 links; objects 1, 4, 6, 8 dangle."""
    rng = np.random.default_rng(3)
    graph, ppf = random_graph(rng, 12, 2, 8)
    return build_transition(graph, ppf), random_prior(rng, 12)


def test_power_iteration_iteration_count_is_pinned():
    t, prior = _structure()
    assert np.flatnonzero(t.dangling).tolist() == [1, 4, 6, 8]
    r, iterations, residual = _kernels.power_iteration(
        t.indptr, t.targets, t.probs, t.dangling, 0.85, prior, 1e-12, 2000
    )
    assert iterations == 26
    assert residual < 1e-12
    assert abs(r.sum() - 1.0) < 1e-12


def test_random_walk_histogram_is_pinned():
    t, prior = _structure()
    steps = 20_000
    counts = _kernels.random_walk(
        t.indptr, t.targets, t.link_cdf(), t.dangling, np.cumsum(prior), 0.15, steps, 100,
        np.random.default_rng(7),
    )
    assert counts.dtype == np.int64
    assert counts.tolist() == [1246, 4096, 1046, 1286, 2485, 1301, 2489, 1034, 772, 1805, 1647, 693]


def test_backend_is_numpy():
    assert _kernels.backend() == "numpy"


def test_random_walk_chunks_draw_the_same_stream(monkeypatch):
    t, prior = _structure()
    args = (t.indptr, t.targets, t.link_cdf(), t.dangling, np.cumsum(prior), 0.15, 5_000, 10)
    whole = _kernels.random_walk(*args, np.random.default_rng(7))
    monkeypatch.setattr(_kernels, "WALK_CHUNK_STEPS", 7)
    chunked = _kernels.random_walk(*args, np.random.default_rng(7))
    assert chunked.tolist() == whole.tolist()

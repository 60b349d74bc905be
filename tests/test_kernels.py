"""Determinism: the two kernels give pinned results on a fixed seeded graph,
and the segment-parallel walk gives the histogram of a step-by-step walk."""

from __future__ import annotations

import hashlib
import tracemalloc
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_prior
from poprank import TransitionStructure, _kernels, build_transition


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
    # the bits of the cold-start solve, as computed before starts could be given
    assert hashlib.sha256(r.tobytes()).hexdigest() == (
        "0496ef6f9dce80e6e9686fc11340834e3faea8875886834dc0a6bf173b21ec5d")
    assert residual == 7.686490333114193e-13


def test_power_iteration_start_vector():
    t, prior = _structure()
    args = (t.indptr, t.targets, t.probs, t.dangling, 0.85, prior)
    cold = _kernels.power_iteration(*args, 1e-12, 2000)
    from_prior = _kernels.power_iteration(*args, 1e-12, 2000, r0=prior)
    assert from_prior[0].tobytes() == cold[0].tobytes()
    assert from_prior[1:] == cold[1:]
    fixed_point = _kernels.power_iteration(*args, 1e-15, 2000)[0]
    r, iterations, residual = _kernels.power_iteration(*args, 1e-10, 2000, r0=fixed_point)
    assert iterations == 1
    assert residual < 1e-10
    np.testing.assert_allclose(r, fixed_point, atol=1e-15)


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


def reference_walk(indptr, targets, cdf, dangling, prior_cdf, epsilon, steps, burn_in, rng):
    """The walk one step at a time in plain Python, drawing the same stream."""
    ip, tg, fc, dg, pc = (a.tolist() for a in (indptr, targets, cdf, dangling, prior_cdf))
    n = len(pc)
    counts = [0] * n
    state = min(bisect_right(pc, rng.random()), n - 1)
    t = 0
    for done in range(0, steps, _kernels.WALK_CHUNK_STEPS):
        pairs = iter(rng.random(2 * min(_kernels.WALK_CHUNK_STEPS, steps - done)).tolist())
        for u_restart, u_choice in zip(pairs, pairs):
            t += 1
            if dg[state] or u_restart < epsilon:
                state = min(bisect_right(pc, u_choice), n - 1)
            else:
                lo, hi = ip[state], ip[state + 1]
                state = tg[min(bisect_right(fc, u_choice, lo, hi), hi - 1)]
            if t > burn_in:
                counts[state] += 1
    return np.array(counts, np.int64)


def _walk_args(rows: list[list[tuple[int, int]]], prior_weights: list[int]):
    """Walk arguments for rows of (target, weight) links; a row without
    links dangles. Zero weights make ties in the link and prior CDFs."""
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    targets = np.array([t for r in rows for t, _ in r], np.int64)
    probs = np.array([w / sum(x for _, x in r) for r in rows for _, w in r], np.float64)
    t = TransitionStructure(len(rows), indptr, targets, probs, np.array([not r for r in rows]))
    prior = np.array(prior_weights, np.float64)
    return t.indptr, t.targets, t.link_cdf(), t.dangling, np.cumsum(prior / prior.sum())


@st.composite
def walk_graphs(draw):
    """Walk arguments for 1-7 objects whose rows hold 0-4 links, exactly one
    link, or none."""
    n = draw(st.integers(1, 7))
    low, high = draw(st.sampled_from([(0, 4), (1, 1), (0, 0)]))
    link = st.tuples(st.integers(0, n - 1), st.integers(0, 3))
    rows = [draw(st.lists(link, min_size=low, max_size=high)) for _ in range(n)]
    for row in rows:
        if row and not any(w for _, w in row):
            row[0] = (row[0][0], 1)
    prior = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if not any(prior):
        prior[-1] = 1
    return _walk_args(rows, prior)


@settings(max_examples=300, deadline=None)
@given(
    graph=walk_graphs(),
    epsilon=st.sampled_from([1e-3, 0.15, 1.0]),
    chunk=st.sampled_from([1, 7, _kernels.WALK_CHUNK_STEPS]),
    steps=st.integers(1, 200),
    burn_in=st.integers(0, 199),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_walk_matches_step_by_step_reference(graph, epsilon, chunk, steps, burn_in, seed):
    args = (*graph, epsilon, steps, min(burn_in, steps - 1))
    with mock.patch.object(_kernels, "WALK_CHUNK_STEPS", chunk):
        got = _kernels.random_walk(*args, np.random.default_rng(seed))
        want = reference_walk(*args, np.random.default_rng(seed))
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("chunk", [1, 7, _kernels.WALK_CHUNK_STEPS])
@pytest.mark.parametrize("burn_in", [0, 6, 7, 8, 20])
@pytest.mark.parametrize("epsilon", [1e-3, 0.15, 1.0])
def test_random_walk_burn_in_at_chunk_boundaries(chunk, burn_in, epsilon):
    t, prior = _structure()
    args = (t.indptr, t.targets, t.link_cdf(), t.dangling, np.cumsum(prior), epsilon, 60, burn_in)
    with mock.patch.object(_kernels, "WALK_CHUNK_STEPS", chunk):
        got = _kernels.random_walk(*args, np.random.default_rng(11))
        want = reference_walk(*args, np.random.default_rng(11))
    assert got.tolist() == want.tolist()
    assert got.sum() == 60 - burn_in


@pytest.mark.parametrize("rows", [[[]], [[(0, 1)]], [[], [], []]], ids=["lone", "self-link", "all-dangling"])
def test_random_walk_degenerate_graphs(rows):
    args = (*_walk_args(rows, [1] * len(rows)), 0.15, 500, 3)
    got = _kernels.random_walk(*args, np.random.default_rng(5))
    assert got.tolist() == reference_walk(*args, np.random.default_rng(5)).tolist()


class StubGenerator:
    """Serves fixed uniforms in the order the walk draws them."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0)
        drawn, self.uniforms = self.uniforms[:size], self.uniforms[size:]
        assert len(drawn) == size
        return np.array(drawn, np.float64)


# Object 0 links to 1, 2, 3, 0 with link CDF [0.25, 0.5, 0.5, 0.8]: a tie
# and a last entry below 1. Object 1 has one link (to 2) with CDF [0.7].
# Object 2 dangles. Object 3 links to 0 and 1 with CDF [0.5, 1.0]. The prior
# CDF [0.1, 0.4, 0.4, 0.9] gives object 2 no mass and ends below 1.
BOUNDARY_GRAPH = (
    np.array([0, 4, 5, 5, 7], np.int64),
    np.array([1, 2, 3, 0, 2, 0, 1], np.int64),
    np.array([0.25, 0.5, 0.5, 0.8, 0.7, 0.5, 1.0]),
    np.array([False, False, True, False]),
    np.array([0.1, 0.4, 0.4, 0.9]),
)
BOUNDARY_PATH = [
    # (restart uniform, choice uniform), state after the step
    ((0.5, 0.5), 1),  # from 3: u equals a CDF entry, bisect-right moves past it
    ((0.5, 0.95), 2),  # from 1: one link, u above its last entry clamps to it
    ((0.5, 0.95), 3),  # from 2: dangles; u above the prior's last entry clamps to n - 1
    ((0.05, 0.0), 0),  # restart by epsilon from the prior
    ((0.5, 0.5), 0),  # from 0: u equals a tied CDF value, skips both tied links
    ((0.5, 0.25), 2),  # from 0: u equals the first CDF entry
    ((0.9, 0.1), 1),  # from 2: dangles; u equals a prior CDF entry
    ((0.5, 0.7), 2),  # from 1: u equals its only CDF entry
    ((0.9, 0.4), 3),  # from 2: u equals the prior CDF tie, skips the massless object
    ((0.15, 0.75), 1),  # from 3: a restart uniform equal to epsilon follows a link
    ((0.5, 0.3), 2),  # from 1: its one link
    ((0.9, 0.05), 0),  # from 2: dangles
    ((0.5, 0.85), 0),  # from 0: u above the row's last entry clamps to its last link
]


@pytest.mark.parametrize("chunk", [1, 2, 7, _kernels.WALK_CHUNK_STEPS])
def test_random_walk_boundary_uniforms(chunk):
    """Exact CDF values and uniforms past a CDF's end pin bisect-right and both clamps."""
    first = 0.4  # start: equals the prior tie at objects 1 and 2, so object 3
    path = []
    for steps in range(1, len(BOUNDARY_PATH) + 1):
        uniforms = [first] + [u for pair, _ in BOUNDARY_PATH[:steps] for u in pair]
        with mock.patch.object(_kernels, "WALK_CHUNK_STEPS", chunk):
            got = _kernels.random_walk(*BOUNDARY_GRAPH, 0.15, steps, steps - 1, StubGenerator(uniforms))
            want = reference_walk(*BOUNDARY_GRAPH, 0.15, steps, steps - 1, StubGenerator(uniforms))
        assert got.tolist() == want.tolist()
        assert got.sum() == 1
        path.append(int(np.flatnonzero(got)[0]))
    assert path == [state for _, state in BOUNDARY_PATH]


def test_random_walk_memory_is_bounded_by_the_chunk():
    t, prior = _structure()
    steps = 1_000_000
    tracemalloc.start()
    try:
        counts = _kernels.random_walk(
            t.indptr, t.targets, t.link_cdf(), t.dangling, np.cumsum(prior), 0.15, steps, 0,
            np.random.default_rng(2),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == steps
    assert peak < 8 * steps  # one steps-long int64 array

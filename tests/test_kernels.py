"""Determinism: the two kernels give pinned results on a fixed seeded graph,
and the segment-parallel walk gives the histogram of a step-by-step walk,
on one process or split across two, its guide-table search that of a
clamped bisect-right. The span interner
gives the ids of plain dict interning, collisions or not."""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import os
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


def test_power_iteration_stops_once_every_pair_is_settled():
    t, prior = _structure()
    args = (t.indptr, t.targets, t.probs, t.dangling, 0.85, prior, 1e-12, 2000)
    full, full_iterations, _ = _kernels.power_iteration(*args)
    # each object above the next one in the converged order
    order = np.argsort(-full, kind="stable")
    high, low = order[:-1], order[1:]
    r, iterations, residual = _kernels.power_iteration(*args, pairs=(high, low))
    assert iterations < full_iterations
    assert residual >= 1e-12
    assert np.all(r[high] > r[low])
    assert np.all((r / r.sum())[high] > (r / r.sum())[low])


@pytest.mark.parametrize("alpha, tol", [(0.5, 1e-12), (0.85, 1e-12), (0.99, 1e-9)])
def test_power_iteration_pair_stop_waits_where_errors_shrink_by_exactly_alpha(alpha, tol):
    # with only self-links the fixed point is v and an iterate's distance to
    # it shrinks by exactly alpha per iteration, the rate the stop's bound
    # assumes; starts ordered against v must not stop before the order turns
    indptr, targets = np.array([0, 1, 2]), np.array([0, 1])
    v = np.array([0.5 + 1e-4, 0.5 - 1e-4])
    for s in np.linspace(0.0, 0.5, 26):
        r, _, residual = _kernels.power_iteration(
            indptr, targets, np.ones(2), np.zeros(2, bool), alpha, v, tol, 20_000,
            r0=np.array([s, 1.0 - s]), pairs=(np.array([0]), np.array([1])))
        assert r[0] > r[1]
        assert residual >= tol  # the pair stop, not the tolerance, ended the solve


@pytest.mark.parametrize("alpha, tol, max_iter", [
    (1.0, 1e-12, 2000),  # no contraction: the bound does not exist
    (0.85, 1e-12, 5),  # a full run stops at max_iter, above tol
    (0.85, 1e-300, 2000),  # tol below rounding: a full run may never reach it
])
def test_power_iteration_pairs_change_nothing_where_a_full_run_may_not_converge(alpha, tol, max_iter):
    t, prior = _structure()
    args = (t.indptr, t.targets, t.probs, t.dangling, alpha, prior, tol, max_iter)
    full = _kernels.power_iteration(*args)
    order = np.argsort(-full[0], kind="stable")
    r, iterations, residual = _kernels.power_iteration(*args, pairs=(order[:-1], order[1:]))
    assert r.tobytes() == full[0].tobytes()
    assert (iterations, residual) == full[1:]


@st.composite
def solves(draw):
    """power_iteration's arguments on 1 to 60 objects: edge sets that may be
    empty or all point into one half, dangling rows, a start or not, pair
    and reject stops, and caps that may end a solve before tol."""
    n = draw(st.integers(1, 60))
    lo, hi = draw(st.sampled_from([(0, n), (0, max(n // 2, 1)), (n // 2, n)]))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(lo, hi - 1)), max_size=200))
    src, tgt = np.array(edges, np.int64).reshape(-1, 2).T
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(edges),
                                     max_size=len(edges))))
    order, indptr = _kernels.stable_order(src, n), _kernels.row_starts(n, src)
    targets, probs = tgt[order], (weights / np.bincount(src, minlength=n)[src])[order]
    v = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    v /= v.sum()
    alpha = draw(st.sampled_from([0.5, 0.85, 0.99]))
    args = (indptr, targets, probs, np.diff(indptr) == 0, alpha, v,
            draw(st.sampled_from([1e-3, 1e-10, 1e-14])), draw(st.integers(1, 300)))
    kwargs = {}
    if draw(st.booleans()):
        r0 = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        kwargs["r0"] = r0 / max(r0.sum(), 1.0)
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              min_size=1, max_size=20))
        kwargs["pairs"] = tuple(np.array(pairs, np.int64).T)
        if draw(st.booleans()):
            kwargs["reject"] = draw(st.integers(1, len(pairs)))
    return args, kwargs


@settings(max_examples=200, deadline=None)
@given(solve=solves())
def test_split_solve_is_bit_identical_to_one_half(solve):
    args, kwargs = solve
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_kernels, "spare_cpu", lambda: True)
        monkeypatch.setattr(_kernels, "SPLIT_MIN_EDGES", 0)
        split = _kernels.power_iteration(*args, **kwargs)
        monkeypatch.setattr(_kernels, "SPLIT_MIN_EDGES", len(args[1]) + 1)
        whole = _kernels.power_iteration(*args, **kwargs)
    assert np.array_equal(split[0], whole[0])
    assert split[1:] == whole[1:]


def test_a_solve_splits_only_with_enough_edges_and_a_second_cpu(monkeypatch):
    t, prior = _structure()
    assert len(t.targets) == 16
    args = (t.indptr, t.targets, t.probs, t.dangling, 0.85, prior, 1e-12, 2000)
    want = _kernels.power_iteration(*args)
    submitted = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def submit(self, *a, **kw):
            submitted.append(a)
            return super().submit(*a, **kw)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    for spare, min_edges, split in [(True, 16, True), (False, 16, False), (True, 17, False)]:
        monkeypatch.setattr(_kernels, "spare_cpu", lambda: spare)
        monkeypatch.setattr(_kernels, "SPLIT_MIN_EDGES", min_edges)
        r, iterations, residual = _kernels.power_iteration(*args)
        assert len(submitted) == (iterations if split else 0)  # one half per iteration
        submitted.clear()
        assert r.tobytes() == want[0].tobytes() and (iterations, residual) == want[1:]


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


@pytest.mark.parametrize("epsilon, growth", [
    (1.0, 1), (0.15, 1), (0.1, 2), (0.05, 4), (0.01, 16), (1e-3, 16), (1e-9, 16)])
def test_random_walk_chunk_grows_at_small_epsilon(epsilon, growth):
    assert _kernels._walk_chunk(epsilon) == growth * _kernels.WALK_CHUNK_STEPS


@pytest.mark.parametrize("epsilon", [1e-3, 0.01, 0.05])
def test_random_walk_grown_chunks_match_step_by_step_reference(epsilon):
    # with 64-step chunks these epsilons grow them to 1,024, 1,024 and 256 steps
    t, prior = _structure()
    args = (t.indptr, t.targets, t.link_cdf(), t.dangling, np.cumsum(prior), epsilon, 5_000, 700)
    with mock.patch.object(_kernels, "WALK_CHUNK_STEPS", 64):
        assert _kernels._walk_chunk(epsilon) > 64
        got = _kernels.random_walk(*args, np.random.default_rng(13))
        want = reference_walk(*args, np.random.default_rng(13))
    assert got.tolist() == want.tolist()


# ---- the walk on two processes ---------------------------------------------

@contextlib.contextmanager
def _split_forced(min_steps=2):
    """Walks of ``min_steps`` steps or more split where ``_split_step``
    finds a step, as with a second CPU; yields the names of the workers
    forked meanwhile."""
    forks, real = [], _kernels.forked

    def spy(task, name):
        forks.append(name)
        return real(task, name)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_kernels, "spare_cpu", lambda: True)
        monkeypatch.setattr(_kernels, "SPLIT_MIN_STEPS", min_steps)
        monkeypatch.setattr(_kernels, "forked", spy)
        yield forks


def _structure_walk_args():
    t, prior = _structure()
    return t.indptr, t.targets, t.link_cdf(), t.dangling, np.cumsum(prior)


@settings(max_examples=60, deadline=None)
@given(
    graph=walk_graphs(),
    epsilon=st.sampled_from([1e-3, 0.15, 0.5, 1.0]),
    chunk=st.sampled_from([7, _kernels.WALK_CHUNK_STEPS]),
    steps=st.integers(2, 300),
    burn_in=st.integers(0, 299),
    seed=st.integers(0, 2**64 - 1),
    bits=st.sampled_from([np.random.PCG64, np.random.PCG64DXSM]),
    half=st.booleans(),
)
def test_split_walk_matches_step_by_step_reference(graph, epsilon, chunk, steps, burn_in, seed,
                                                   bits, half):
    """Split or not, the histogram is the step-by-step walk's, and the
    caller's generator ends where that walk leaves it, a buffered 32-bit
    half (``half``) included."""
    args = (*graph, epsilon, steps, min(burn_in, steps - 1))
    rng, want_rng = (np.random.Generator(bits(seed)) for _ in range(2))
    if half:
        for r in (rng, want_rng):
            r.integers(2**32, dtype=np.uint32)
    with mock.patch.object(_kernels, "WALK_CHUNK_STEPS", chunk), _split_forced() as forks:
        j0 = _kernels._split_step(rng, epsilon, steps)
        got = _kernels.random_walk(*args, rng)
        want = reference_walk(*args, want_rng)
    assert got.tolist() == want.tolist()
    assert forks == ([] if j0 is None else ["walk"])
    assert rng.bit_generator.state == want_rng.bit_generator.state
    assert rng.random() == want_rng.random()


@pytest.mark.parametrize("after_j0", [-300, -1, 0, 1, 300])
def test_split_walk_burn_in_around_the_split(after_j0):
    """Burn-in ending well before, just before, at, just after and well
    after j0, the first step the worker walks."""
    args, steps = _structure_walk_args(), 2_000
    with _split_forced() as forks:
        j0 = _kernels._split_step(np.random.default_rng(17), 0.15, steps)
        assert steps // 2 <= j0 < steps // 2 + 50
        burn_in = j0 + after_j0
        got = _kernels.random_walk(*args, 0.15, steps, burn_in, np.random.default_rng(17))
    assert forks == ["walk"]
    want = reference_walk(*args, 0.15, steps, burn_in, np.random.default_rng(17))
    assert got.tolist() == want.tolist()
    assert got.sum() == steps - burn_in


@pytest.mark.parametrize("epsilon, steps, seed", [
    (0.15, 1_001, 5),
    (1e-4, 60_000, 5),  # the restart lies past the first 4,096 pairs searched
    (1e-5, 20_000, 5),  # no restart after the midpoint
])
def test_a_split_step_is_the_first_restart_past_the_midpoint(epsilon, steps, seed):
    u = np.random.default_rng(seed).random(1 + 2 * steps)
    restarts = np.flatnonzero(u[1::2] < epsilon)
    later = restarts[restarts >= steps // 2]
    with _split_forced():
        j0 = _kernels._split_step(np.random.default_rng(seed), epsilon, steps)
    assert j0 == (int(later[0]) if later.size else None)


@pytest.mark.parametrize("bits, epsilon", [
    (np.random.PCG64, 1e-12),  # no restart after the midpoint
    (np.random.MT19937, 0.15),  # no advance
    (np.random.Philox, 0.15),  # advance skips blocks of four draws
], ids=["no-restart-in-the-tail", "mt19937", "philox"])
def test_a_walk_that_cannot_split_runs_in_one_process(bits, epsilon):
    args = _structure_walk_args()
    rng, want_rng = np.random.Generator(bits(3)), np.random.Generator(bits(3))
    with _split_forced() as forks:
        assert _kernels._split_step(rng, epsilon, 400) is None
        got = _kernels.random_walk(*args, epsilon, 400, 0, rng)
    assert forks == []
    assert got.tolist() == reference_walk(*args, epsilon, 400, 0, want_rng).tolist()
    assert rng.random(4).tolist() == want_rng.random(4).tolist()


def test_a_walk_splits_only_when_long_with_a_second_cpu():
    args = _structure_walk_args()
    want = _kernels.random_walk(*args, 0.15, 1_000, 0, np.random.default_rng(9))
    for spare, min_steps, split in [(True, 1_000, True), (False, 1_000, False), (True, 1_001, False)]:
        with _split_forced(min_steps) as forks, \
                mock.patch.object(_kernels, "spare_cpu", lambda: spare):
            got = _kernels.random_walk(*args, 0.15, 1_000, 0, np.random.default_rng(9))
        assert forks == (["walk"] if split else [])
        assert got.tolist() == want.tolist()


def _plant(monkeypatch, fault, in_worker=True):
    """Make ``_search`` call ``fault`` first: in a worker, or in this process only."""
    parent, real = os.getpid(), _kernels._search

    def planted(*args):
        if (os.getpid() != parent) == in_worker:
            fault()
        return real(*args)

    monkeypatch.setattr(_kernels, "_search", planted)


def test_an_error_in_the_walk_worker_is_raised_in_the_caller(monkeypatch):
    def fault():
        raise ArithmeticError("planted in the worker")

    _plant(monkeypatch, fault)
    with _split_forced() as forks, pytest.raises(ArithmeticError, match="^planted in the worker$"):
        _kernels.random_walk(*_structure_walk_args(), 0.15, 1_000, 0, np.random.default_rng(1))
    assert forks == ["walk"]


def test_a_walk_worker_that_exits_without_a_result_is_an_os_error(monkeypatch):
    _plant(monkeypatch, lambda: os._exit(3))
    with _split_forced(), pytest.raises(OSError, match="^the walk worker exited without a result$"):
        _kernels.random_walk(*_structure_walk_args(), 0.15, 1_000, 0, np.random.default_rng(1))


def test_an_interrupt_in_the_callers_half_stops_the_worker(monkeypatch):
    """The caller does not wait for the worker's result: the worker is
    killed and reaped all the same (see the autouse no_worker_left)."""
    def fault():
        raise KeyboardInterrupt

    _plant(monkeypatch, fault, in_worker=False)
    with _split_forced() as forks, pytest.raises(KeyboardInterrupt):
        _kernels.random_walk(*_structure_walk_args(), 0.15, 1_000, 0, np.random.default_rng(1))
    assert forks == ["walk"]


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


def test_random_walk_memory_at_small_epsilon_is_bounded_by_the_largest_chunk():
    t, prior = _structure()
    chunk = 16 * _kernels.WALK_CHUNK_STEPS  # the largest
    steps = chunk + chunk // 2
    tracemalloc.start()
    try:
        counts = _kernels.random_walk(
            t.indptr, t.targets, t.link_cdf(), t.dangling, np.cumsum(prior), 1e-3, steps, 0,
            np.random.default_rng(2),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == steps
    # per step of the largest chunk: 16 bytes of uniforms and 8 of visited
    # objects, and only one chunk's uniforms alive at a time
    assert peak < 28 * chunk


# ---- the span interner -----------------------------------------------------

# NUL, multi-byte characters and separators that values may hold
_SPAN_ALPHABET = "ab\x00\t,|#é€\U0001d11e"


def _spans(values, fillers):
    """UTF-8 bytes holding the values, each after its filler, and their spans."""
    data, starts, ends = b"", [], []
    for value, filler in zip(values, fillers):
        data += filler.encode("utf-8")
        starts.append(len(data))
        data += value.encode("utf-8")
        ends.append(len(data))
    return data, np.array(starts, np.int64), np.array(ends, np.int64)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 3))
def test_span_interner_matches_dict_interning(data, seed):
    """Ties, NUL bytes, non-ASCII text and spans of 0 to 40 bytes, which
    cross the 8- and 16-byte word boundaries, over several blocks."""
    pool = data.draw(st.lists(st.text(_SPAN_ALPHABET, max_size=40).filter(
        lambda v: len(v.encode("utf-8")) <= 40), min_size=1, max_size=8))
    interner = _kernels.SpanInterner(seed)
    expected: dict[str, int] = {}
    for _ in range(data.draw(st.integers(1, 4))):
        values = data.draw(st.lists(st.sampled_from(pool), max_size=30))
        fillers = data.draw(st.lists(st.text("\n;x", max_size=3), min_size=len(values),
                                     max_size=len(values)))
        ids = interner.intern(*_spans(values, fillers))
        assert ids.dtype == np.int64
        assert ids.tolist() == [expected.setdefault(v, len(expected)) for v in values]
    assert interner.values() == list(expected)
    assert len(interner) == len(expected)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_span_interner_over_blocks_matches_dict_interning(data):
    """Pools of up to 60 values over up to 6 blocks, so that new values
    go to the recent hash table and are merged into the large one."""
    pool = data.draw(st.lists(st.text(_SPAN_ALPHABET, max_size=20), min_size=1, max_size=60,
                              unique=True))
    interner = _kernels.SpanInterner(0)
    expected: dict[str, int] = {}
    for _ in range(data.draw(st.integers(1, 6))):
        values = data.draw(st.lists(st.sampled_from(pool), max_size=40))
        ids = interner.intern(*_spans(values, [""] * len(values)))
        assert ids.tolist() == [expected.setdefault(v, len(expected)) for v in values]
    assert interner.values() == list(expected)
    assert interner.data() == "".join(f"{v}\n" for v in expected).encode("utf-8")


def _colliding_first_seed(monkeypatch):
    """Every hash of seed 0 is 0; returns the seeds hashed with."""
    real, seeds = _kernels._span_hashes, []

    def hashes(words, word_index, word_starts, lengths, seed):
        seeds.append(seed)
        h = real(words, word_index, word_starts, lengths, seed)
        return np.zeros_like(h) if seed == 0 else h

    monkeypatch.setattr(_kernels, "_span_hashes", hashes)
    return seeds


@pytest.mark.parametrize("blocks", [
    [["ab", "ab"], ["ba", "ab"]],  # the same length, other words
    [["a"], ["aa", "a"]],  # longer than the stored value
    [["aaaaaaaaaaaaaaaaaaaa"], ["a", "b"]],  # shorter
    [[""], ["", "x"]],
    [["x"], ["", "x"]],  # empty: only the lengths differ
    [["same"], ["same"], ["same", "other", "same"], ["third", "other"]],
])
def test_span_interner_starts_over_on_a_collision_in_a_later_block(monkeypatch, blocks):
    """The first block holds one value, so the collision comes later and
    the held values are interned again under the next seed."""
    seeds = _colliding_first_seed(monkeypatch)
    interner = _kernels.SpanInterner(0)
    expected: dict[str, int] = {}
    for values in blocks:
        ids = interner.intern(*_spans(values, ["x;"] * len(values)))
        assert ids.tolist() == [expected.setdefault(v, len(expected)) for v in values]
    assert interner.values() == list(expected)
    assert interner.seed == 1 and set(seeds) == {0, 1}


# references as the loader resolves them: TABs, non-ASCII text, and a
# shared 8-byte prefix, so that some differ only past their first word
_REF = st.one_of(st.text("ab\t|\xe9\u4e2d", max_size=10),
                 st.text("xy", max_size=12).map(lambda tail: "paper\tAB" + tail))


def _joined_lines(refs):
    return "".join(f"{ref}\n" for ref in refs).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(known=st.lists(_REF, unique=True, max_size=12),
       batches=st.lists(st.lists(_REF, max_size=12), max_size=4), collide=st.booleans())
def test_resolve_gives_the_ids_of_a_dict(known, batches, collide):
    """Each batch resolves to the ids a dict of the known refs gives, -1 for
    an unknown ref, and the interner still holds the known refs alone; an
    empty batch resolves to nothing. With every hash of seed 0 equal, the
    interner starts over and the ids stay the same."""
    with pytest.MonkeyPatch.context() as patch:
        if collide:
            _colliding_first_seed(patch)
        interner = _kernels.SpanInterner()
        data = _joined_lines(known)
        interner.intern(data, *_kernels.line_spans(np.frombuffer(data, np.uint8)))
        index = {ref: i for i, ref in enumerate(known)}
        for batch in [*batches, []]:
            ids = interner.resolve(_joined_lines(batch))
            assert ids.dtype == np.int64
            assert ids.tolist() == [index.get(ref, -1) for ref in batch]
            assert interner.values() == known


@pytest.mark.parametrize("held, asked", [
    (["ab"], ["ba", "ab", "abc", "", "b" * 20]),  # the same length, longer, shorter, empty
    (["a" * 17], ["a" * 16 + "b", "b" + "a" * 16, "a" * 17, "x"]),  # differing in a later word
])
def test_resolve_stores_nothing_when_a_hash_is_held_under_other_bytes(monkeypatch, held, asked):
    """With every hash of seed 0 equal, a value held under its hash with
    other bytes is not held: resolve gives -1 for it, and the interner
    keeps its seed, its count and its bytes."""
    seeds = _colliding_first_seed(monkeypatch)
    interner = _kernels.SpanInterner(0)
    interner.intern(*_spans(held, [""]))
    seed, count, data = interner.seed, len(interner), interner.data()
    assert interner.resolve(_joined_lines(asked)).tolist() == [
        held.index(v) if v in held else -1 for v in asked]
    assert (interner.seed, len(interner), interner.data()) == (seed, count, data)
    assert set(seeds) == {0}


def test_a_forced_collision_in_a_later_block_gives_the_same_tables(tmp_path, monkeypatch):
    """Blocks of one line each: every interner holds one value when its
    first collision comes, and the tables are those of a read without one."""
    objects = tmp_path / "objects.tsv"
    objects.write_text("r0\tpaper\ttitle=p\n"
                       + "".join(f"r{i}\tpaper\ttitle=p{i % 4};year={i % 3}\n" for i in range(9))
                       + "a1\tauthor\tname=N\n")
    links = tmp_path / "links.tsv"
    links.write_text("paper\tp0\tcites\tpaper\tp0\n"
                     + "".join(f"paper\tp{i % 4}\tcites\tpaper\tp{i % 3}\n" for i in range(9))
                     + "author\ta1\tby\tpaper\tp3\n")
    pages = tmp_path / "pages.tsv"
    pages.write_text("w0\n" + "".join(f"w{i}\tw{(i * 3) % 11},x{i % 4}\n" for i in range(1, 9)))
    from poprank import formats

    def read():
        records = list(formats.read_objects(objects).rows())
        table = formats.read_links(links)
        interned, number, src, tgt = formats.read_pages(pages)
        return (records, table.triples, table.codes.tolist(), table.refs, table.src.tolist(),
                table.tgt.tolist(), interned.values(), number.tolist(), src.tolist(),
                tgt.tolist())

    raw_blocks = formats._raw_blocks
    monkeypatch.setattr(formats, "_raw_blocks", lambda path, size: raw_blocks(path, 1))
    before = read()
    seeds = _colliding_first_seed(monkeypatch)
    assert read() == before
    # the three interns of the first block, and the first of the second, at seed 0
    assert seeds[:4] == [0] * 4 and set(seeds) == {0, 1}


def test_a_forced_collision_gives_the_same_tables(tmp_path, monkeypatch):
    """The interners start over with the next seed; nothing depends on it."""
    links = tmp_path / "links.tsv"
    links.write_text("".join(f"paper\tp{i % 7}\tcites\tpaper\tp{i % 5}\n" for i in range(40))
                     + "author\ta1\tby\tpaper\tp3\n")
    pages = tmp_path / "pages.tsv"
    pages.write_text("".join(f"w{i}\tw{(i * 3) % 11},x{i % 4}\n" for i in range(9)))
    from poprank import formats

    def read():
        table = formats.read_links(links)
        interned, number, src, tgt = formats.read_pages(pages)
        return (table.triples, table.codes.tolist(), table.refs, table.src.tolist(),
                table.tgt.tolist(), interned.values(), number.tolist(), src.tolist(),
                tgt.tolist())

    before = read()
    seeds = _colliding_first_seed(monkeypatch)
    assert read() == before
    assert set(seeds) == {0, 1}


def test_a_forced_collision_gives_the_same_record_table(tmp_path, monkeypatch):
    objects = tmp_path / "objects.tsv"
    objects.write_text("".join(f"r{i}\tpaper\ttitle=p{i % 7};year={i % 3}\n" for i in range(30))
                       + "a1\tauthor\tname=N;x=\n")
    from poprank import formats

    def read():
        return list(formats.read_objects(objects).rows())

    before = read()
    seeds = _colliding_first_seed(monkeypatch)
    assert read() == before
    assert set(seeds) == {0, 1}


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.integers(-3, 3), max_size=30))
def test_unique_first_matches_np_unique(keys):
    keys = np.array(keys, np.int64)
    expected = np.unique(keys, return_index=True, return_inverse=True)
    got = _kernels.unique_first(keys)
    for a, b in zip(expected, got):
        assert a.reshape(-1).tolist() == b.tolist()


@pytest.mark.parametrize("shape", ["mixed", "all-new", "all-known"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_first_appearances_match_np_unique(shape, data):
    """Ids numbered by first appearance from known on, as the interner
    gives them: the indices of the new ones' first appearances are those
    np.unique finds. Empty input, all-new and all-known ids included."""
    known = data.draw(st.integers(1 if shape == "all-known" else 0, 4))
    old = st.integers(0, known - 1)
    new = st.integers(0, 5).map(lambda label: ("new", label))
    item = {"mixed": st.one_of(old, new) if known else new, "all-new": new, "all-known": old}
    items = data.draw(st.lists(item[shape], max_size=30))
    numbered = {}
    ids = np.array([item if isinstance(item, int) else numbered.setdefault(item, known + len(numbered))
                    for item in items], np.int64)
    distinct, first = np.unique(ids, return_index=True)
    assert _kernels.first_appearances(ids, known).tolist() == first[distinct >= known].tolist()
    assert _kernels.first_appearances(np.empty(0, np.int64), known).tolist() == []


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stable_order_is_a_stable_argsort(data):
    """Empty, all-equal, presorted and unsorted keys; keys so large that
    packing them would overflow int64; a guard bound on either side of
    the largest packed key."""
    bound = data.draw(st.sampled_from([1, 2, 3, 7, 2**61, 2**62]))
    keys = np.array(data.draw(st.lists(st.integers(0, bound - 1), max_size=30)), np.int64)
    shape = data.draw(st.sampled_from(["unsorted", "presorted", "all-equal"]))
    if shape == "presorted":
        keys = np.sort(keys)
    elif shape == "all-equal":
        keys[:] = keys[0] if len(keys) else 0
    limit = data.draw(st.sampled_from([np.iinfo(np.int64).max, bound * len(keys) - 1,
                                       bound * len(keys)]))
    limit = min(limit, np.iinfo(np.int64).max)
    order = _kernels.stable_order(keys, bound, limit)
    assert order.dtype == np.intp
    assert order.tolist() == np.argsort(keys, kind="stable").tolist()


def test_stable_order_packs_the_keys_unless_they_could_pass_the_bound(monkeypatch):
    kinds, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, kind=None: kinds.append(kind) or argsort(a, kind=kind))
    keys = np.array([2, 0, 1, 0], np.int64)  # packed: 8, 1, 6, 3, the largest below 3 * 4
    for limit in (12, 11, 2**63 - 1):
        assert _kernels.stable_order(keys, 3, limit).tolist() == [1, 3, 2, 0]
    assert kinds == [None, "stable", None]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_gather_spans_matches_slicing(data):
    text = data.draw(st.binary(max_size=20))
    spans = data.draw(st.lists(
        st.integers(0, len(text)).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, len(text) - a))),
        max_size=8))  # empty spans, and no span at all, among them
    starts = np.array([a for a, _ in spans], np.int64)
    lengths = np.array([n for _, n in spans], np.int64)
    got = _kernels.gather_spans(np.frombuffer(text, np.uint8), starts, lengths)
    assert got.dtype == np.uint8
    assert got.tobytes() == b"".join(text[a:a + n] for a, n in spans)


# ---- the guided search of the walk -------------------------------------------

ONE_BELOW_1 = 1.0 - 2.0**-53  # the largest uniform a Generator draws
ABOVE_1 = [float(np.nextafter(1.0, 2.0)), 1.0 + 2.0**-50]  # sums that rounding pushed past 1


def _buckets(d: int) -> int:
    return 1 << (d - 1).bit_length()


def _queries(row: list[float]) -> list[float]:
    """Uniforms at and next to every entry and bucket edge of the row,
    and the ends of [0, 1)."""
    g = _buckets(len(row))
    points = row + [b / g for b in range(g)]
    near = [float(np.nextafter(p, side)) for p in points for side in (0.0, 2.0)]
    return [u for u in points + near + [0.0, ONE_BELOW_1] if 0.0 <= u < 1.0]


def _check_guided_search(rows: list[list[float]], extra: list[float] = ()) -> None:
    """``_search`` on every row and query against bisect-right clamped to
    the row's last entry; empty rows sit in the table but are not searched."""
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    flat = np.array([x for r in rows for x in r], np.float64)
    guide = _kernels._guide(indptr, flat)
    asked = [(i, u) for i, row in enumerate(rows) if row for u in _queries(row) + list(extra)]
    got = _kernels._search(guide, flat, np.array([i for i, _ in asked], np.int64),
                           np.array([u for _, u in asked], np.float64))
    want = [int(indptr[i]) + min(bisect_right(rows[i], u), len(rows[i]) - 1) for i, u in asked]
    assert got.tolist() == want


@st.composite
def cdf_rows(draw):
    """A nondecreasing row of 1-40 entries: bucket edges b / G, ties,
    entries above 1.0, or a cumulative sum of weights with zero and tiny
    steps, which rounding may carry past 1.0."""
    d = draw(st.integers(1, 40))
    g = _buckets(d)
    if draw(st.booleans()):
        entry = st.one_of(st.sampled_from([b / g for b in range(g + 1)] + ABOVE_1 + [1.5, 3.0]),
                          st.floats(0.0, 1.0))
        return sorted(draw(st.lists(entry, min_size=d, max_size=d)))
    weights = draw(st.lists(st.sampled_from([0.0, 1e-12, 1.0, 2.0, 3.0]), min_size=d, max_size=d))
    total = sum(weights) or 1.0
    return np.cumsum(np.array(weights) / total).tolist()  # link_cdf's rounding, not a fixed last 1.0


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.one_of(cdf_rows(), st.just([])), min_size=1, max_size=6),
       extra=st.lists(st.floats(0.0, ONE_BELOW_1), max_size=5))
def test_guided_search_is_clamped_bisect_right(rows, extra):
    _check_guided_search(rows, extra)


def test_guided_search_on_a_hub_with_a_tiny_factor_type():
    # 1,200 links: 200 of a type with factor 1e-9 come first in the row, as
    # reweight orders types, so their CDF entries crowd into bucket 0
    gammas = np.array([1e-9] * 200 + [1.0] * 1000)
    probs = gammas / gammas.sum()
    t = TransitionStructure(1, np.array([0, len(probs)]), np.zeros(len(probs), np.int64), probs,
                            np.array([False]))
    row = t.link_cdf().tolist()
    bits = _kernels._guide(t.indptr, t.link_cdf())[2]
    assert 1 << int(bits[0]) == 2048
    _check_guided_search([row], np.random.default_rng(4).random(1000).tolist())


def test_guided_search_on_a_prior_with_runs_of_zeros():
    weights = np.array([0.0] * 50 + [1.0] + [0.0] * 30 + [3.0, 0.0, 0.0, 2.0] + [0.0] * 20 + [0.5])
    prior_cdf = np.cumsum(weights / weights.sum()).tolist()
    _check_guided_search([prior_cdf, [], [1.0], prior_cdf], np.random.default_rng(5).random(500).tolist())


def test_guided_search_single_entry_rows():
    _check_guided_search([[0.0], [0.3], [1.0], ABOVE_1[:1]])


def _guide_sizes(monkeypatch) -> list[tuple[int, int]]:
    """(bounds, entries) of each guide random_walk builds from now on."""
    real, sizes = _kernels._guide, []

    def spy(indptr, cdf):
        guide = real(indptr, cdf)
        sizes.append((len(guide[0]), len(cdf)))
        return guide

    monkeypatch.setattr(_kernels, "_guide", spy)
    return sizes


@pytest.mark.parametrize("rows, prior", [
    ([[(0, 1)]], [1]),  # one link and one object: two bounds each
    ([[(1, 1)], [(0, 1)], [(2, 1)]], [1, 1, 1]),  # every row one entry
    ([[], [], []], [1, 2, 3]),  # all dangling
    ([[(0, 1)] * 5, [(1, 1)] * 17, []], [0, 0, 1]),  # rows just past a power of two
])
def test_walk_guide_holds_at_most_two_bounds_per_entry(monkeypatch, rows, prior):
    sizes = _guide_sizes(monkeypatch)
    args = _walk_args(rows, prior)
    _kernels.random_walk(*args, 0.15, 50, 0, np.random.default_rng(1))
    (bounds, entries), = sizes
    m, n = len(args[1]), len(prior)
    assert entries == m + n
    assert bounds <= 2 * (m + n) + 2


@settings(max_examples=100, deadline=None)
@given(graph=walk_graphs())
def test_walk_guide_size_on_random_graphs(graph):
    with pytest.MonkeyPatch.context() as monkeypatch:
        sizes = _guide_sizes(monkeypatch)
        _kernels.random_walk(*graph, 0.5, 5, 0, np.random.default_rng(2))
    (bounds, entries), = sizes
    assert entries == len(graph[1]) + len(graph[4])
    assert bounds <= 2 * entries + 2

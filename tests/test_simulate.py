"""Monte Carlo surfer: reproducibility, conservation, and convergence."""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from conftest import random_graph, random_prior, simple_graph
from poprank import (
    ConfigError,
    PopRankConfig,
    PpfAssignment,
    SimConfig,
    TransitionStructure,
    _kernels,
    build_transition,
    poprank_from_transition,
    simulate,
    tv_distance,
)


def test_counts_sum_to_steps_minus_burn_in():
    graph = simple_graph(3, {"cites": [(0, 1), (1, 2), (2, 0)]})
    t = build_transition(graph, PpfAssignment({"cites": 1.0}))
    hist = simulate(t, np.full(3, 1 / 3), SimConfig(steps=5000, rng_seed=1, burn_in=500))
    assert hist.counts.sum() == 4500
    np.testing.assert_allclose(hist.empirical.sum(), 1.0)


def test_same_seed_reproduces_bitwise():
    rng = np.random.default_rng(2)
    graph, ppf = random_graph(rng, 8, 2, 14)
    t = build_transition(graph, ppf)
    prior = random_prior(rng, 8)
    cfg = SimConfig(steps=50_000, rng_seed=99)
    a = simulate(t, prior, cfg)
    b = simulate(t, prior, cfg)
    assert (a.counts == b.counts).all()


def test_different_seeds_differ():
    graph = simple_graph(4, {"cites": [(0, 1), (1, 2), (2, 3), (3, 0)]})
    t = build_transition(graph, PpfAssignment({"cites": 1.0}))
    prior = np.full(4, 0.25)
    a = simulate(t, prior, SimConfig(steps=10_000, rng_seed=0))
    b = simulate(t, prior, SimConfig(steps=10_000, rng_seed=1))
    assert (a.counts != b.counts).any()


def test_epsilon_one_degenerates_to_prior_sampling():
    rng = np.random.default_rng(4)
    graph, ppf = random_graph(rng, 12, 2, 30)
    t = build_transition(graph, ppf)
    prior = random_prior(rng, 12)
    hist = simulate(t, prior, SimConfig(steps=1_000_000, rng_seed=12, epsilon=1.0))
    assert tv_distance(hist.empirical, prior) < 0.01


def test_two_object_symmetric_graph():
    graph = simple_graph(2, {"cites": [(0, 1), (1, 0)]})
    t = build_transition(graph, PpfAssignment({"cites": 1.0}))
    hist = simulate(t, np.array([0.5, 0.5]), SimConfig(steps=1_000_000, rng_seed=3))
    np.testing.assert_allclose(hist.empirical, [0.5, 0.5], atol=0.01)


def test_matches_poprank_on_two_type_graph():
    rng = np.random.default_rng(77)
    graph, _ = random_graph(rng, 10, 2, 16)
    ppf = PpfAssignment({"rel0": 0.8, "rel1": 0.2})
    t = build_transition(graph, ppf)
    prior = random_prior(rng, 10)
    analytic = poprank_from_transition(t, prior, PopRankConfig(epsilon=0.15, tol=1e-12))
    hist = simulate(t, prior, SimConfig(steps=1_000_000, rng_seed=5, epsilon=0.15))
    assert tv_distance(hist.empirical, analytic.scores) < 0.01


def test_dangling_objects_restart_to_prior():
    # object 1 dangles; the walk must keep visiting both objects anyway
    graph = simple_graph(2, {"cites": [(0, 1)]})
    t = build_transition(graph, PpfAssignment({"cites": 1.0}))
    prior = np.array([1.0, 0.0])
    hist = simulate(t, prior, SimConfig(steps=100_000, rng_seed=8))
    analytic = poprank_from_transition(t, prior, PopRankConfig(tol=1e-12))
    assert hist.counts[0] > 0 and hist.counts[1] > 0
    assert tv_distance(hist.empirical, analytic.scores) < 0.01


def test_burn_in_discards_early_visits():
    graph = simple_graph(2, {"cites": [(0, 1), (1, 0)]})
    t = build_transition(graph, PpfAssignment({"cites": 1.0}))
    prior = np.array([0.5, 0.5])
    full = simulate(t, prior, SimConfig(steps=1000, rng_seed=6))
    tail = simulate(t, prior, SimConfig(steps=1000, rng_seed=6, burn_in=400))
    assert tail.counts.sum() == 600
    assert (tail.counts <= full.counts).all()


class TestSimConfigValidation:
    def test_steps_must_be_positive(self):
        with pytest.raises(ConfigError):
            SimConfig(steps=0)

    def test_steps_must_exceed_burn_in(self):
        with pytest.raises(ConfigError):
            SimConfig(steps=100, burn_in=100)

    @pytest.mark.parametrize("field, value", [("steps", 10.5), ("steps", float("nan")),
                                              ("rng_seed", 1.5), ("burn_in", 0.5),
                                              ("rng_seed", True)])
    def test_counts_that_are_not_integers_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got"):
            SimConfig(**{"steps": 10, field: value})

    def test_epsilon_range(self):
        with pytest.raises(ConfigError):
            SimConfig(steps=10, epsilon=0.0)
        SimConfig(steps=10, epsilon=1.0)  # closed at 1

    def test_prior_size_checked(self):
        graph = simple_graph(2, {"cites": [(0, 1)]})
        t = build_transition(graph, PpfAssignment({"cites": 1.0}))
        with pytest.raises(ConfigError):
            simulate(t, np.array([1.0]), SimConfig(steps=10))


def test_tv_distance_basics():
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    with pytest.raises(ConfigError):
        tv_distance(np.array([1.0]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("p, q", [([np.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [np.inf, 0.0]),
                                  ([[0.5, 0.5]], [[0.5, 0.5]]), (0.5, 0.5)])
def test_tv_distance_of_non_finite_or_not_1d_input_rejected(p, q):
    with pytest.raises(ConfigError, match="finite 1-d arrays"):
        tv_distance(np.array(p), np.array(q))


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 the caller's frame keeps a call's arguments alive")
def test_the_walk_frees_the_cdfs_it_copies():
    """simulate holds the link and prior CDFs only until the walk has
    copied them: its peak is that of a walk given CDFs built beforehand,
    not one CDF more."""
    rng = np.random.default_rng(5)
    n, degree = 20_000, 5
    t = TransitionStructure(n, np.arange(0, degree * (n + 1), degree, dtype=np.int64),
                            rng.integers(0, n, degree * n), np.full(degree * n, 1 / degree),
                            np.zeros(n, bool))
    prior = np.full(n, 1 / n)
    cfg = SimConfig(steps=1000, rng_seed=1)

    def peak(run):
        tracemalloc.start()
        try:
            counts = run()
            return tracemalloc.get_traced_memory()[1], counts
        finally:
            tracemalloc.stop()

    cdf, prior_cdf = t.link_cdf(), np.cumsum(prior)
    walk_peak, walk_counts = peak(lambda: _kernels.random_walk(
        t.indptr, t.targets, cdf, t.dangling, prior_cdf, cfg.epsilon, cfg.steps, 0,
        np.random.default_rng(cfg.rng_seed)))
    del cdf, prior_cdf
    sim_peak, hist = peak(lambda: simulate(t, prior, cfg))
    assert (hist.counts == walk_counts).all()
    assert sim_peak < walk_peak + t.probs.nbytes // 2

"""Rank-disagreement objective, factor learning, and rank correlation."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_prior, simple_graph
from poprank import (
    ConfigError,
    GraphError,
    LearnConfig,
    LinkStructure,
    PartialRanking,
    PopRankConfig,
    PpfAssignment,
    build_transition,
    kendall_tau,
    learn_ppf,
    poprank,
    poprank_from_transition,
    rank_disagreement,
)
from poprank import learning


class TestPartialRanking:
    def test_from_order_expands_pairs(self):
        ranking = PartialRanking.from_order([3, 1, 2])
        assert ranking.pairs == ((3, 1), (3, 2), (1, 2))

    def test_self_pair_rejected(self):
        with pytest.raises(ConfigError):
            PartialRanking(((1, 1),))

    def test_contradiction_rejected(self):
        with pytest.raises(ConfigError):
            PartialRanking(((1, 2), (2, 1)))

    def test_duplicate_pairs_collapse(self):
        ranking = PartialRanking(((1, 2), (1, 2), (0, 2)))
        assert ranking.pairs == ((1, 2), (0, 2))

    def test_repeated_id_in_order_rejected(self):
        with pytest.raises(ConfigError):
            PartialRanking.from_order([1, 2, 1])

    def test_pairs_as_index_arrays(self):
        ranking = PartialRanking(((1, 2), (1, 2), (0, 2)))
        assert ranking.high.dtype == ranking.low.dtype == np.int64
        assert ranking.high.tolist() == [1, 0]
        assert ranking.low.tolist() == [2, 2]
        assert ranking == PartialRanking(((1, 2), (0, 2)))


class TestRankDisagreement:
    def test_fully_consistent(self):
        scores = np.array([0.5, 0.3, 0.2])
        assert rank_disagreement(scores, PartialRanking.from_order([0, 1, 2])) == (0, 3)

    def test_single_inverted_pair(self):
        scores = np.array([0.5, 0.3, 0.2])
        assert rank_disagreement(scores, PartialRanking(((2, 0),))) == (1, 1)

    def test_tie_counts_as_violation(self):
        scores = np.array([0.5, 0.5])
        assert rank_disagreement(scores, PartialRanking(((0, 1),))) == (1, 1)

    def test_random_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(0, 1, 30)
        pairs = []
        seen = set()
        while len(pairs) < 50:
            h, l = int(rng.integers(0, 30)), int(rng.integers(0, 30))
            if h != l and (h, l) not in seen and (l, h) not in seen:
                seen.add((h, l))
                pairs.append((h, l))
        ranking = PartialRanking(tuple(pairs))

        expected = sum(1 for h, l in pairs if scores[h] <= scores[l])
        assert rank_disagreement(scores, ranking) == (expected, 50)

    def test_unknown_object_rejected(self):
        with pytest.raises(GraphError):
            rank_disagreement(np.array([0.5, 0.5]), PartialRanking(((0, 7),)))

    def test_empty_ranking_counts_nothing(self):
        assert rank_disagreement(np.array([1.0]), PartialRanking(())) == (0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN compares false, so it would count as agreeing with the expert
        with pytest.raises(ConfigError, match="finite"):
            rank_disagreement(np.array([bad, 0.5]), PartialRanking(((0, 1),)))
        with pytest.raises(ConfigError, match="finite"):
            rank_disagreement(np.array([0.5, 0.2, bad]), PartialRanking(((0, 1),)))


def planted_corpus(seed: int, gamma_star: tuple[float, float]):
    """30-object, 2-type graph with a planted factor pair; the expert order
    is the full popularity order that pair induces."""
    rng = np.random.default_rng(seed)
    n = 30
    links = {
        "rel0": [
            (int(s), int(t))
            for s, t in zip(rng.integers(0, n, 90), rng.integers(0, n, 90))
            if s != t
        ],
        "rel1": [
            (int(s), int(t))
            for s, t in zip(rng.integers(0, n, 60), rng.integers(0, n, 60))
            if s != t
        ],
    }
    links = {name: sorted(set(pairs)) for name, pairs in links.items()}
    graph = simple_graph(n, links)
    prior = random_prior(rng, n)
    ppf = PpfAssignment({"rel0": gamma_star[0], "rel1": gamma_star[1]})
    scores = poprank(graph, ppf, prior, PopRankConfig(tol=1e-12)).scores
    order = np.lexsort((np.arange(n), -scores))
    expert = PartialRanking.from_order([int(i) for i in order])
    return graph, prior, expert


class TestLearnPpf:
    def test_single_type_returns_first_grid_candidate(self):
        graph = simple_graph(4, {"cites": [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]})
        prior = np.full(4, 0.25)
        expert = PartialRanking.from_order([2, 0, 3, 1])
        result = learn_ppf(graph, prior, expert, LearnConfig())
        # scale invariance: every factor value induces the same order, so the
        # grid's first candidate wins and refinement cannot improve on it
        assert result.assignment.factors == {"cites": 0.05}
        assert result.violations == result.grid_violations

    @pytest.mark.parametrize("gamma_star", [(0.8, 0.2), (0.6, 0.4), (0.9, 0.1)])
    def test_planted_recovery(self, gamma_star):
        graph, prior, expert = planted_corpus(100, gamma_star)
        result = learn_ppf(graph, prior, expert, LearnConfig(poprank_cfg=PopRankConfig(tol=1e-12)))
        assert result.violations == 0
        # reported violations must reproduce exactly on re-scoring
        scores = poprank(graph, result.assignment, prior, PopRankConfig(tol=1e-12)).scores
        assert rank_disagreement(scores, expert) == (0, len(expert.pairs))

    def test_symmetric_pair_cannot_be_separated(self):
        # objects 0/1 and 2/3 are mutually linked twins with a uniform prior;
        # any factor assignment scores them identically
        graph = simple_graph(4, {"cites": [(0, 1), (1, 0), (2, 3), (3, 2)]})
        prior = np.full(4, 0.25)
        expert = PartialRanking(((0, 1),))
        result = learn_ppf(graph, prior, expert, LearnConfig())
        assert result.violations >= 1

    def test_determinism(self):
        graph, prior, expert = planted_corpus(7, (0.8, 0.2))
        cfg = LearnConfig(rng_seed=5)
        a = learn_ppf(graph, prior, expert, cfg)
        b = learn_ppf(graph, prior, expert, cfg)
        assert a.assignment.factors == b.assignment.factors
        assert a.violations == b.violations
        assert a.evaluations == b.evaluations

    def test_never_worse_than_grid(self):
        graph, prior, expert = planted_corpus(13, (0.9, 0.1))
        result = learn_ppf(graph, prior, expert, LearnConfig())
        assert result.violations <= result.grid_violations

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_warm_starts_give_the_cold_start_result(self, tol, monkeypatch):
        cfg = LearnConfig(poprank_cfg=PopRankConfig(tol=tol))
        corpora = [planted_corpus(seed, gamma_star) for seed, gamma_star in
                   [(100, (0.8, 0.2)), (100, (0.6, 0.4)), (100, (0.9, 0.1)), (7, (0.8, 0.2)),
                    (13, (0.9, 0.1))]]
        # the planted corpora of release criterion 6
        gamma_stars = [(0.8, 0.2), (0.6, 0.4), (0.9, 0.1)]
        corpora += [planted_corpus(seed, gamma_stars[(seed - 1) % 3]) for seed in range(1, 11)]
        # an expert order the factors cannot reach: refinement runs until its step vanishes
        graph, prior, expert = planted_corpus(7, (0.8, 0.2))
        corpora.append((graph, prior, PartialRanking(tuple((b, a) for a, b in expert.pairs))))
        warm = [learn_ppf(graph, prior, expert, cfg) for graph, prior, expert in corpora]

        def cold(transition, prior, cfg, start=None, pairs=None, reject=None):
            return poprank_from_transition(transition, prior, cfg)

        monkeypatch.setattr(learning, "poprank_from_transition", cold)
        for (graph, prior, expert), result in zip(corpora, warm):
            assert learn_ppf(graph, prior, expert, cfg) == result
        assert warm[-1].violations > 0 and warm[-1].evaluations > 100

    def test_repeated_vectors_are_counted_but_solved_once(self, monkeypatch):
        # the twins can never be separated, so refinement spends its whole
        # budget; halving the step clamps to 0.01 twice
        graph = simple_graph(4, {"cites": [(0, 1), (1, 0), (2, 3), (3, 2)]})
        solved = []
        reweight = LinkStructure.reweight

        def spy(self, ppf):
            solved.append(tuple(ppf.factors.values()))
            return reweight(self, ppf)

        monkeypatch.setattr(LinkStructure, "reweight", spy)
        result = learn_ppf(graph, np.full(4, 0.25), PartialRanking(((0, 1),)),
                           LearnConfig(refine_iters=20))
        assert result.evaluations == 5 + 20
        # with one relationship type every vector has the same ratios table
        assert solved == [(0.05,)]

    def test_vectors_with_the_same_transition_are_solved_once(self, monkeypatch):
        # with one relationship type every positive factor gives the same walk
        graph = simple_graph(4, {"cites": [(0, 1), (1, 0), (2, 3), (3, 2)]})
        solves = []

        def spy(transition, prior, cfg, start=None, pairs=None, reject=None):
            solves.append(start)
            return poprank_from_transition(transition, prior, cfg, start, pairs=pairs,
                                           reject=reject)

        monkeypatch.setattr(learning, "poprank_from_transition", spy)
        result = learn_ppf(graph, np.full(4, 0.25), PartialRanking(((0, 1),)),
                           LearnConfig(refine_iters=20))
        assert result.evaluations == 5 + 20
        assert solves == [None]

    def test_a_tie_that_never_settles_runs_to_the_tolerance(self):
        # objects 0 and 1 are mutually linked twins with equal prior, so they
        # tie in every iterate; objects 2 and 3 separate
        graph = simple_graph(4, {"cites": [(0, 1), (1, 0), (2, 3), (3, 2)]})
        transition = build_transition(graph, PpfAssignment({"cites": 1.0}))
        prior = np.array([0.1, 0.1, 0.3, 0.5])
        cfg = PopRankConfig()
        full = poprank_from_transition(transition, prior, cfg)
        separable = (np.array([3]), np.array([2]))
        settled = poprank_from_transition(transition, prior, cfg, pairs=separable)
        assert settled.converged and settled.residual >= cfg.tol
        assert settled.iterations < full.iterations
        with_tie = (np.array([3, 0]), np.array([2, 1]))
        tied = poprank_from_transition(transition, prior, cfg, pairs=with_tie)
        assert tied.scores.tobytes() == full.scores.tobytes()
        assert (tied.iterations, tied.residual) == (full.iterations, full.residual)
        assert tied.residual < cfg.tol

    def test_empty_expert_rejected(self):
        graph = simple_graph(2, {"cites": [(0, 1)]})
        with pytest.raises(ConfigError):
            learn_ppf(graph, np.array([0.5, 0.5]), PartialRanking(()), LearnConfig())

    @pytest.mark.parametrize("pair", [(0, 2), (-1, 0)])
    def test_expert_with_unknown_object_rejected(self, pair):
        graph = simple_graph(2, {"cites": [(0, 1)]})
        with pytest.raises(GraphError, match="unknown object"):
            learn_ppf(graph, np.array([0.5, 0.5]), PartialRanking((pair,)), LearnConfig())

    def test_graph_without_relationship_types_rejected(self):
        graph = simple_graph(2, {})
        with pytest.raises(ConfigError):
            learn_ppf(graph, np.array([0.5, 0.5]), PartialRanking(((0, 1),)), LearnConfig())

    def test_grid_levels_default(self):
        np.testing.assert_allclose(
            LearnConfig().grid_levels(np.arange(5)), [0.05, 0.25, 0.5, 0.75, 1.0]
        )

    def test_grid_levels_match_linspace(self):
        for res in range(2, 300):
            want = np.linspace(0.0, 1.0, res)
            want[0] = 0.05
            got = LearnConfig(grid_resolution=res).grid_levels(np.arange(res))
            assert got.tobytes() == want.tobytes(), res

    def test_huge_grid_resolution_does_not_allocate_the_grid(self):
        from poprank.learning import GRID_EVAL_CAP, _grid_combinations

        cfg = LearnConfig(grid_resolution=10**7)
        next(iter(_grid_combinations(cfg, 3)))  # lazy set-up inside numpy is not the grid's
        tracemalloc.start()
        try:
            drawn = 0
            for vec in _grid_combinations(cfg, 3):
                assert len(vec) == 3 and all(0.0 < g <= 1.0 for g in vec)
                drawn += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drawn == GRID_EVAL_CAP
        assert peak < 1_000_000

    def test_grid_resolution_validation(self):
        with pytest.raises(ConfigError):
            LearnConfig(grid_resolution=1)

    @pytest.mark.parametrize("field, value", [("grid_resolution", 2.5),
                                              ("refine_iters", float("nan")), ("rng_seed", 1.5)])
    def test_counts_that_are_not_integers_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got"):
            LearnConfig(**{field: value})

    def test_oversized_grid_is_sampled_with_seed(self):
        from poprank.learning import GRID_EVAL_CAP, _grid_combinations

        levels = LearnConfig().grid_levels(np.arange(5))
        # 5^6 = 15625 > 10000 triggers the sampled path
        sampled = list(_grid_combinations(LearnConfig(rng_seed=3), 6))
        assert len(sampled) == GRID_EVAL_CAP
        assert all(len(vec) == 6 for vec in sampled)
        level_set = set(float(g) for g in levels)
        assert set(sampled[0]) <= level_set
        again = list(_grid_combinations(LearnConfig(rng_seed=3), 6))
        assert sampled == again
        other = list(_grid_combinations(LearnConfig(rng_seed=4), 6))
        assert sampled != other

    def test_small_grid_is_exhaustive(self):
        from poprank.learning import _grid_combinations

        combos = list(_grid_combinations(LearnConfig(grid_resolution=2), 2))
        assert combos == [(0.05, 0.05), (0.05, 1.0), (1.0, 0.05), (1.0, 1.0)]


@st.composite
def solves_with_pairs(draw):
    """A small random graph, prior, optional start vector and expert pairs
    consistent with a random order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 9))
    graph, ppf = random_graph(rng, n, 2, draw(st.integers(0, 3 * n)))
    prior = random_prior(rng, n)
    start = random_prior(rng, n) if draw(st.booleans()) else None
    order = rng.permutation(n)
    pairs = [(int(order[i]), int(order[j])) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs)))
    return build_transition(graph, ppf), prior, start, PartialRanking(tuple(chosen))


@settings(max_examples=200, deadline=None)
@given(case=solves_with_pairs(), epsilon=st.sampled_from([0.05, 0.15, 0.5]),
       tol=st.sampled_from([1e-6, 1e-10, 1e-12]))
def test_settled_stop_keeps_the_violations_of_a_full_solve(case, epsilon, tol):
    transition, prior, start, expert = case
    cfg = PopRankConfig(epsilon=epsilon, tol=tol)
    stopped = poprank_from_transition(transition, prior, cfg, start,
                                      pairs=(expert.high, expert.low))
    full = poprank_from_transition(transition, prior, cfg, start)
    cold = poprank_from_transition(transition, prior, cfg)
    assert stopped.converged
    if stopped.iterations < full.iterations:
        assert stopped.residual >= tol
        assert (rank_disagreement(stopped.scores, expert)
                == rank_disagreement(full.scores, expert)
                == rank_disagreement(cold.scores, expert))
    else:
        # no stop before the tolerance: the iterates of the full solve
        assert stopped.scores.tobytes() == full.scores.tobytes()
        assert stopped.iterations == full.iterations


@settings(max_examples=200, deadline=None)
@given(case=solves_with_pairs(), epsilon=st.sampled_from([0.05, 0.15, 0.5]),
       tol=st.sampled_from([1e-6, 1e-10, 1e-12]), data=st.data())
def test_reject_bounds_the_violations_of_a_full_solve(case, epsilon, tol, data):
    transition, prior, start, expert = case
    reject = data.draw(st.integers(1, len(expert.pairs)), label="reject")
    cfg = PopRankConfig(epsilon=epsilon, tol=tol)
    pairs = (expert.high, expert.low)
    rejected = poprank_from_transition(transition, prior, cfg, start, pairs=pairs, reject=reject)
    settled = poprank_from_transition(transition, prior, cfg, start, pairs=pairs)
    full = poprank_from_transition(transition, prior, cfg, start)
    violations, _ = rank_disagreement(rejected.scores, expert)
    full_violations, _ = rank_disagreement(full.scores, expert)
    assert rejected.converged
    assert rejected.iterations <= settled.iterations
    if rejected.iterations < settled.iterations:
        # stopped by the reject: what learn stores, and a full solve, are both
        # at or above the threshold
        assert violations >= reject and full_violations >= reject
    else:
        assert rejected.scores.tobytes() == settled.scores.tobytes()
        assert violations == full_violations


class TestMemoKey:
    """Object 0 has one link of type a (to 1) and one of type b (to 2);
    type c has no links. ``learn_ppf`` memoizes by the ratios table."""

    @pytest.fixture()
    def links(self):
        return LinkStructure.from_graph(simple_graph(3, {"a": [(0, 1)], "b": [(0, 2)], "c": []}))

    @staticmethod
    def key(links, a, b, c=1.0):
        return links.ratios(PpfAssignment({"a": a, "b": b, "c": c})).tobytes()

    def test_filtered_links_change_the_key(self, links):
        # zeroing a or b leaves equal probs ([1.0]), dangling and indptr:
        # only the targets tell the two walks apart
        only_b, only_a = (links.reweight(PpfAssignment({"a": a, "b": b, "c": 1.0}))
                          for a, b in ((0.0, 1.0), (1.0, 0.0)))
        assert only_b.probs.tolist() == only_a.probs.tolist() == [1.0]
        assert only_b.indptr.tolist() == only_a.indptr.tolist()
        assert only_b.targets.tolist() == [2] and only_a.targets.tolist() == [1]
        keys = {self.key(links, 0.0, 1.0), self.key(links, 1.0, 0.0), self.key(links, 1.0, 1.0)}
        assert len(keys) == 3

    def test_a_zero_factor_that_removes_no_link_keeps_the_key(self, links):
        # c has no links, so its zero factor gives the same walk
        transition = links.reweight(PpfAssignment({"a": 0.3, "b": 0.6, "c": 0.0}))
        assert transition.targets is links.targets
        assert self.key(links, 0.3, 0.6, 0.0) == self.key(links, 0.3, 0.6)
        assert self.key(links, 0.3, 0.6) != self.key(links, 0.3, 0.7)
        # only the ratio of a to b counts
        assert self.key(links, 0.25, 0.5) == self.key(links, 0.5, 1.0)


class TestKendallTau:
    def test_identical_orderings(self):
        assert kendall_tau(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_reversed_orderings(self):
        assert kendall_tau(np.array([0, 1, 2]), np.array([2, 1, 0])) == -1.0

    def test_single_item_is_one_by_convention(self):
        assert kendall_tau(np.array([0]), np.array([0])) == 1.0

    def test_matches_pairwise_count(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a = rng.permutation(n)
            b = rng.permutation(n)
            concordant = discordant = 0
            for i in range(n):
                for j in range(i + 1, n):
                    agree = (a[i] - a[j]) * (b[i] - b[j])
                    if agree > 0:
                        concordant += 1
                    else:
                        discordant += 1
            expected = (concordant - discordant) / (n * (n - 1) / 2)
            assert kendall_tau(a, b) == pytest.approx(expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            kendall_tau(np.array([0, 1]), np.array([0, 1, 2]))

    @pytest.mark.parametrize("a, b", [(np.zeros((2, 2)), np.zeros((2, 2))),
                                      (np.array(3), np.array(3)),
                                      (np.array([0.0, np.nan]), np.array([0.0, 1.0])),
                                      (np.array(["a", "b"]), np.array(["b", "a"]))])
    def test_non_finite_or_not_1d_positions_rejected(self, a, b):
        with pytest.raises(ConfigError, match="finite 1-d arrays"):
            kendall_tau(a, b)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_tied_ranks_match_strict_inversion_count(self, data):
        n = data.draw(st.integers(0, 40))
        ranks = st.lists(st.integers(0, 5), min_size=n, max_size=n)
        a, b = data.draw(ranks), data.draw(ranks)
        # items in order of (a, index); a pair counts when b strictly falls
        inversions = sum(1 for i in range(n) for j in range(n)
                         if (a[i], i) < (a[j], j) and b[i] > b[j])
        expected = 1.0 - 4.0 * inversions / (n * (n - 1)) if n >= 2 else 1.0
        assert kendall_tau(np.array(a), np.array(b)) == expected

"""Transition structure assembly and the PopRank fixed point."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_poprank, random_graph, random_prior, simple_graph
from poprank import (
    ConfigError,
    NonConvergenceWarning,
    PageGraph,
    PopRankConfig,
    PpfAssignment,
    build_transition,
    pagerank,
    poprank,
    poprank_from_transition,
    ranking_positions,
)


class TestPpfAssignment:
    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            PpfAssignment({"cites": 1.2})
        with pytest.raises(ConfigError):
            PpfAssignment({"cites": -0.1})

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigError):
            PpfAssignment({"cites": 0.0, "extends": 0.0})

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            PpfAssignment({})


class TestBuildTransition:
    def test_single_type_splits_uniformly(self):
        graph = simple_graph(3, {"cites": [(0, 1), (0, 2)]})
        t = build_transition(graph, PpfAssignment({"cites": 0.7}))
        assert t.row(0) == [(1, 0.5), (2, 0.5)]
        assert not t.dangling[0]
        assert t.dangling[1] and t.dangling[2]

    def test_two_types_split_by_factor(self):
        graph = simple_graph(
            3, {"cites": [(0, 1)], "authored-by": [(0, 2)]}
        )
        t = build_transition(graph, PpfAssignment({"cites": 0.8, "authored-by": 0.2}))
        assert dict(t.row(0)) == {1: 0.8, 2: 0.2}

    def test_rows_sum_to_one_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            graph, ppf = random_graph(rng, n, int(rng.integers(1, 5)), int(rng.integers(1, 3 * n)))
            t = build_transition(graph, ppf)
            sums = np.add.reduceat(t.probs, t.indptr[:-1][np.diff(t.indptr) > 0])
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            # dangling exactly where no probability mass leaves
            has_out = np.diff(t.indptr) > 0
            assert (t.dangling == ~has_out).all()

    def test_missing_factor_rejected(self):
        graph = simple_graph(2, {"cites": [(0, 1)]})
        with pytest.raises(ConfigError, match="cites"):
            build_transition(graph, PpfAssignment({"extends": 0.5}))

    def test_zero_factor_removes_type(self):
        graph = simple_graph(2, {"cites": [(0, 1)], "extends": [(1, 0)]})
        t = build_transition(graph, PpfAssignment({"cites": 1.0, "extends": 0.0}))
        assert t.row(0) == [(1, 1.0)]
        assert t.row(1) == []
        assert t.dangling[1]


class TestPopRank:
    def test_single_object_takes_all(self):
        graph = simple_graph(1, {"cites": []})
        result = poprank(graph, PpfAssignment({"cites": 1.0}), np.array([1.0]))
        np.testing.assert_allclose(result.scores, [1.0])
        assert result.converged

    def test_two_symmetric_objects(self):
        graph = simple_graph(2, {"cites": [(0, 1), (1, 0)]})
        result = poprank(graph, PpfAssignment({"cites": 1.0}), np.array([0.5, 0.5]))
        np.testing.assert_allclose(result.scores, [0.5, 0.5], atol=1e-12)

    def test_four_object_dense_solve_oracle(self):
        graph = simple_graph(
            4,
            {
                "cites": [(0, 1), (0, 2), (1, 2), (3, 0)],
                "extends": [(2, 3), (0, 3)],
            },
        )
        ppf = PpfAssignment({"cites": 0.8, "extends": 0.2})
        prior = np.array([0.1, 0.2, 0.3, 0.4])
        cfg = PopRankConfig(epsilon=0.15, tol=1e-13)
        t = build_transition(graph, ppf)
        result = poprank_from_transition(t, prior, cfg)
        expected = dense_poprank(t, prior, 0.15)
        np.testing.assert_allclose(result.scores, expected, atol=1e-9)

    def test_random_graphs_match_dense_solve(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(2, 20))
            graph, ppf = random_graph(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 2 * n)))
            prior = random_prior(rng, n)
            t = build_transition(graph, ppf)
            result = poprank_from_transition(t, prior, PopRankConfig(tol=1e-13))
            np.testing.assert_allclose(result.scores, dense_poprank(t, prior, 0.15), atol=1e-9)

    def test_reduces_to_pagerank_with_one_type(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(3, 15))
            graph, _ = random_graph(rng, n, 1, int(rng.integers(1, 2 * n)))
            edges = graph.links["rel0"]
            page_scores = pagerank(PageGraph.build(n, edges), damping=1.0 - 0.15, tol=1e-12).scores
            object_scores = poprank(
                graph,
                PpfAssignment({"rel0": 1.0}),
                np.full(n, 1.0 / n),
                PopRankConfig(epsilon=0.15, tol=1e-12),
            ).scores
            np.testing.assert_allclose(object_scores, page_scores, atol=1e-9)

    def test_factor_scale_invariance(self):
        rng = np.random.default_rng(41)
        graph, _ = random_graph(rng, 12, 3, 20)
        prior = random_prior(rng, 12)
        base = poprank(graph, PpfAssignment({"rel0": 0.6, "rel1": 0.3, "rel2": 0.1}), prior)
        for c in (0.1, 3, 10):
            # factors above 1 are out of range, so scale down instead when needed
            factors = {"rel0": 0.6 * c, "rel1": 0.3 * c, "rel2": 0.1 * c}
            top = max(factors.values())
            if top > 1.0:
                factors = {k: v / top for k, v in factors.items()}
            scaled = poprank(graph, PpfAssignment(factors), prior)
            np.testing.assert_allclose(scaled.scores, base.scores, atol=1e-12)

    def test_output_is_distribution(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            graph, ppf = random_graph(rng, max(n, 2), 2, int(rng.integers(1, 2 * n + 2)))
            prior = random_prior(rng, graph.num_objects)
            scores = poprank(graph, ppf, prior).scores
            assert abs(scores.sum() - 1.0) < 1e-12
            assert (scores >= 0).all()

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(61)
        graph, ppf = random_graph(rng, 10, 2, 18)
        prior = random_prior(rng, 10)
        tol = 1e-12
        t = build_transition(graph, ppf)
        result = poprank_from_transition(t, prior, PopRankConfig(tol=tol))
        # apply one explicit pull step to the result
        r = result.scores
        pulled = np.zeros(10)
        for o in range(10):
            for target, p in t.row(o):
                pulled[target] += r[o] * p
        d_mass = r[t.dangling].sum()
        step = 0.15 * prior + 0.85 * (pulled + d_mass * prior)
        assert np.abs(step - r).sum() < tol * 10

    def test_monotone_support(self):
        # every object with nonzero prior keeps a strictly positive score
        graph = simple_graph(3, {"cites": [(0, 1)]})
        prior = np.array([0.5, 0.0, 0.5])
        scores = poprank(graph, PpfAssignment({"cites": 1.0}), prior).scores
        assert scores[0] > 0 and scores[2] > 0

    def test_prior_size_mismatch_rejected(self):
        graph = simple_graph(2, {"cites": [(0, 1)]})
        with pytest.raises(ConfigError):
            poprank(graph, PpfAssignment({"cites": 1.0}), np.array([1.0]))

    def test_prior_must_be_distribution(self):
        graph = simple_graph(2, {"cites": [(0, 1)]})
        with pytest.raises(ConfigError):
            poprank(graph, PpfAssignment({"cites": 1.0}), np.array([0.9, 0.3]))

    def test_nan_prior_rejected(self):
        graph = simple_graph(2, {"cites": [(0, 1)]})
        with pytest.raises(ConfigError):
            poprank(graph, PpfAssignment({"cites": 1.0}), np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ConfigError, match="tol"):
            PopRankConfig(tol=tol)

    def test_nonconvergence_warns(self):
        graph = simple_graph(3, {"cites": [(0, 1), (1, 2), (2, 0), (0, 2)]})
        with pytest.warns(NonConvergenceWarning):
            result = poprank(
                graph, PpfAssignment({"cites": 1.0}), np.full(3, 1 / 3),
                PopRankConfig(tol=1e-15, max_iter=2),
            )
        assert not result.converged


class TestRankingPositions:
    def test_descending_with_id_tiebreak(self):
        scores = np.array([0.2, 0.5, 0.2, 0.1])
        positions = ranking_positions(scores)
        assert positions.tolist() == [1, 0, 2, 3]


@st.composite
def corpora(draw):
    """(links by type, factors, prior) for 1-8 objects and 1-3 relationship
    types; factors may be 0 and links may repeat or loop."""
    n = draw(st.integers(1, 8))
    names = [f"rel{i}" for i in range(draw(st.integers(1, 3)))]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    links = {name: draw(st.lists(pair, max_size=3 * n)) for name in names}
    factor = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    factors = {name: draw(factor) for name in names}
    if not any(factors.values()):
        factors[names[0]] = 1.0
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    prior = np.array(weights) + 0.01
    return links, factors, prior / prior.sum()


def _solve(links, factors, prior):
    return poprank(simple_graph(len(prior), links), PpfAssignment(factors), prior,
                   PopRankConfig(tol=1e-13))


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(corpora())
    def test_rows_are_stochastic_or_empty_where_dangling(self, corpus):
        links, factors, _ = corpus
        n = len(corpus[2])
        t = build_transition(simple_graph(n, links), PpfAssignment(factors))
        for o in range(n):
            row = t.probs[t.indptr[o]:t.indptr[o + 1]]
            if t.dangling[o]:
                assert row.size == 0
            else:
                assert row.size > 0 and (row > 0).all()
                assert abs(row.sum() - 1.0) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.floats(0.01, 1.0))
    def test_scaling_every_factor_leaves_scores_unchanged(self, corpus, scale):
        links, factors, prior = corpus
        top = max(factors.values())
        scaled = {name: gamma * scale / top for name, gamma in factors.items()}
        np.testing.assert_allclose(
            _solve(links, scaled, prior).scores, _solve(links, factors, prior).scores, atol=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(corpora())
    def test_scores_are_finite_and_sum_to_one(self, corpus):
        scores = _solve(*corpus).scores
        assert np.isfinite(scores).all() and (scores >= 0).all()
        assert abs(scores.sum() - 1.0) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.randoms(use_true_random=False))
    def test_relabelling_objects_permutes_scores(self, corpus, random):
        links, factors, prior = corpus
        perm = list(range(len(prior)))
        random.shuffle(perm)
        relabelled = {name: [(perm[s], perm[t]) for s, t in pairs] for name, pairs in links.items()}
        moved = np.empty_like(prior)
        moved[perm] = prior
        scores = _solve(links, factors, prior).scores
        np.testing.assert_allclose(_solve(relabelled, factors, moved).scores[perm], scores, atol=1e-12)

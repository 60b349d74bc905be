"""PageRank over pages and the block-weighted object prior."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import dense_pagerank, page_object_map
from poprank import (
    ConfigError,
    GraphError,
    NonConvergenceWarning,
    PageGraph,
    PageObjectMap,
    pagerank,
    web_popularity,
)


class TestPageRank:
    def test_two_page_cycle_is_symmetric(self):
        graph = PageGraph.build(2, [(0, 1), (1, 0)])
        result = pagerank(graph, damping=0.85)
        np.testing.assert_allclose(result.scores, [0.5, 0.5], atol=1e-12)
        assert result.converged

    def test_star_leaves_score_equally(self):
        # pages 0..3 all link to hub 4; the hub dangles
        graph = PageGraph.build(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        scores = pagerank(graph, damping=0.85).scores
        leaves = scores[:4]
        np.testing.assert_allclose(leaves, leaves[0], atol=1e-12)
        assert scores[4] > leaves[0]

    def test_chain_matches_dense_solve(self):
        # frozen from the dense linear-system oracle below
        expected = [0.18441678192715538, 0.34117104656523745, 0.4744121715076072]
        graph = PageGraph.build(3, [(0, 1), (1, 2)])
        scores = pagerank(graph, damping=0.85, tol=1e-14).scores
        np.testing.assert_allclose(scores, expected, atol=1e-9)
        np.testing.assert_allclose(
            dense_pagerank(3, [(0, 1), (1, 2)], 0.85), expected, atol=1e-15
        )

    def test_random_graphs_match_dense_solve(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, 3 * n))
            edges = [
                (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(m)
            ]
            graph = PageGraph.build(n, edges)
            scores = pagerank(graph, damping=0.85, tol=1e-14).scores
            np.testing.assert_allclose(scores, dense_pagerank(n, edges, 0.85), atol=1e-9)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(5)
        n = 9
        edges = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(20)]
        perm = rng.permutation(n)
        base = pagerank(PageGraph.build(n, edges), tol=1e-13).scores
        relabeled = pagerank(
            PageGraph.build(n, [(perm[s], perm[t]) for s, t in edges]), tol=1e-13
        ).scores
        np.testing.assert_allclose(relabeled[perm], base, atol=1e-10)

    def test_residual_property_one_more_step_is_small(self):
        graph = PageGraph.build(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        tol = 1e-12
        r = pagerank(graph, damping=0.85, tol=tol).scores
        # one explicit power step applied to the result; page 3 dangles
        out = {0: [1], 1: [2], 2: [0, 3]}
        step = np.full(4, 0.15 / 4) + 0.85 * r[3] / 4
        for s, targets in out.items():
            for t in targets:
                step[t] += 0.85 * r[s] / len(targets)
        assert np.abs(step - r).sum() < tol * 10

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 20))
            m = int(rng.integers(0, 2 * n))
            edges = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(m)]
            scores = pagerank(PageGraph.build(n, edges)).scores
            assert abs(scores.sum() - 1.0) < 1e-12
            assert (scores >= 0).all()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            pagerank(PageGraph.build(0, []))

    def test_bad_damping_rejected(self):
        graph = PageGraph.build(2, [(0, 1)])
        with pytest.raises(ConfigError):
            pagerank(graph, damping=1.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ConfigError, match="tol"):
            pagerank(PageGraph.build(2, [(0, 1)]), tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, float("nan"), 0.0])
    def test_max_iter_that_is_not_an_integer_rejected(self, max_iter):
        # 2.5 once ran 2 iterations
        with pytest.raises(ConfigError, match="max_iter must be an integer, got"):
            pagerank(PageGraph.build(2, [(0, 1)]), max_iter=max_iter)

    def test_nonconvergence_warns_and_returns(self):
        graph = PageGraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        with pytest.warns(NonConvergenceWarning):
            result = pagerank(graph, tol=1e-15, max_iter=2)
        assert not result.converged
        assert result.iterations == 2
        assert abs(result.scores.sum() - 1.0) < 1e-12

    def test_edges_outside_page_set_rejected(self):
        with pytest.raises(GraphError):
            PageGraph.build(2, [(0, 2)])

    def test_edges_that_are_not_pairs_rejected(self):
        with pytest.raises(GraphError, match=r"hyperlinks must be an integer \(m, 2\) array"):
            PageGraph.build(4, np.zeros((2, 3), np.int64))

    @pytest.mark.parametrize("edges", [[(0, 1.5)], np.array([[0.0, 1.0]])],
                             ids=["list", "float-array"])
    def test_non_integer_page_ids_rejected(self, edges):
        # casting to int64 would silently keep (0, 1.5) as the edge (0, 1)
        with pytest.raises(GraphError, match=r"hyperlinks must be an integer \(m, 2\) array"):
            PageGraph.build(2, edges)

    def test_the_constructor_checks_the_edges(self):
        with pytest.raises(GraphError, match=r"hyperlink \(0, 5\) points outside the graph"):
            pagerank(PageGraph(2, np.array([[0, 5]])))

    def test_the_constructor_drops_repeated_edges(self):
        graph = PageGraph(2, np.array([[0, 1], [0, 1], [0, 0]]))
        assert graph.edges.tolist() == [[0, 1], [0, 0]]
        np.testing.assert_allclose(pagerank(graph).scores, [0.5, 0.5], atol=1e-9)

    def test_edges_are_read_only(self):
        graph = PageGraph(2, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="read-only"):
            graph.edges[0, 0] = 1
        with pytest.raises(AttributeError):
            graph.edges = np.array([[1, 0]])


class TestWebPopularity:
    def test_single_mapped_object_takes_everything(self):
        page_scores = np.array([0.4, 0.6])
        pom = page_object_map([(0, 0, 1.0)])
        prior = web_popularity(1, page_scores, pom)
        np.testing.assert_allclose(prior, [1.0])

    def test_weighted_split(self):
        page_scores = np.array([1.0])
        pom = page_object_map([(0, 0, 0.75), (0, 1, 0.25)])
        np.testing.assert_allclose(web_popularity(2, page_scores, pom), [0.75, 0.25])

    def test_random_map_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        page_scores = rng.uniform(0.0, 1.0, 5)
        page_scores /= page_scores.sum()
        entries = []
        for _ in range(12):
            entries.append(
                (int(rng.integers(0, 5)), int(rng.integers(0, 8)), float(rng.uniform(0.1, 2.0)))
            )
        pom = page_object_map(entries)

        # brute-force accumulation over all (page, object, weight) triples
        per_page: dict[int, float] = {}
        for p, _, w in entries:
            per_page[p] = per_page.get(p, 0.0) + w
        raw = np.zeros(8)
        for p, o, w in entries:
            raw[o] += page_scores[p] * (w / per_page[p])
        expected = raw / raw.sum()

        np.testing.assert_allclose(web_popularity(8, page_scores, pom), expected, atol=1e-12)

    def test_zero_coverage_falls_back_to_uniform(self):
        prior = web_popularity(4, np.array([1.0]), page_object_map([]))
        np.testing.assert_allclose(prior, [0.25, 0.25, 0.25, 0.25])

    def test_unmapped_objects_get_zero(self):
        prior = web_popularity(3, np.array([1.0]), page_object_map([(0, 1, None)]))
        np.testing.assert_allclose(prior, [0.0, 1.0, 0.0])

    def test_unknown_page_rejected(self):
        with pytest.raises(GraphError):
            web_popularity(2, np.array([1.0]), page_object_map([(3, 0, 1.0)]))

    def test_negative_page_rejected(self):
        with pytest.raises(GraphError, match="unknown page"):
            web_popularity(2, np.array([1.0]), page_object_map([(-1, 0, 1.0)]))

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -0.5, np.ones((1, 2)),
                                       np.array(1.0), np.array(["a", "b"])])
    def test_bad_page_scores_rejected(self, score):
        # page 0 maps to no object, so its score would not even reach the prior
        scores = np.array([score, 1.0]) if isinstance(score, float) else score
        with pytest.raises(ConfigError, match="page scores must be finite and non-negative"):
            web_popularity(2, scores, page_object_map([(1, 0, None)]))

    def test_finite_page_scores_without_a_finite_total_rejected(self):
        # each share is 1e308, their sum on object 0 is inf: once a silent [nan, 0.]
        with pytest.raises(ConfigError, match="weighted page scores have no finite sum"):
            web_popularity(2, np.array([1e308, 1e308]),
                           PageObjectMap([0, 1], [0, 0], [1.0, 1.0]))

    def test_unknown_object_rejected(self):
        with pytest.raises(GraphError):
            web_popularity(2, np.array([1.0]), page_object_map([(0, 5, 1.0)]))

    def test_uniform_proliferation(self):
        # one distinct object per page, no explicit weights: the prior is
        # exactly the normalized page score vector
        graph = PageGraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        page_scores = pagerank(graph, tol=1e-13).scores
        pom = page_object_map([(p, p, None) for p in range(4)])
        np.testing.assert_allclose(web_popularity(4, page_scores, pom), page_scores, atol=1e-12)

    def test_missing_weights_split_evenly(self):
        pom = page_object_map([(0, 0, None), (0, 1, None), (0, 2, None)])
        pages, objs, weights = pom.resolved()
        np.testing.assert_allclose(weights, [1 / 3, 1 / 3, 1 / 3])

    def test_zero_weight_page_splits_evenly(self):
        pom = page_object_map([(0, 0, 0.0), (0, 1, 0.0)])
        _, _, weights = pom.resolved()
        np.testing.assert_allclose(weights, [0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError):
            page_object_map([(0, 0, -0.5)]).resolved()

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(GraphError):
            page_object_map([(0, 0, weight)]).resolved()

    def test_prior_is_distribution(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n_pages, n_objects = int(rng.integers(1, 6)), int(rng.integers(1, 10))
            scores = rng.uniform(0, 1, n_pages)
            scores /= scores.sum()
            entries = [
                (int(rng.integers(0, n_pages)), int(rng.integers(0, n_objects)),
                 float(rng.uniform(0, 1)))
                for _ in range(int(rng.integers(0, 8)))
            ]
            prior = web_popularity(n_objects, scores, page_object_map(entries))
            assert abs(prior.sum() - 1.0) < 1e-12
            assert (prior >= 0).all()


class TestPageObjectMapColumns:
    @pytest.mark.parametrize("pages, objects", [([0.0], [0]), ([0], [1.5])],
                             ids=["float-pages", "float-objects"])
    def test_float_ids_rejected(self, pages, objects):
        # casting to int64 would silently keep 1.5 as object 1
        with pytest.raises(GraphError, match="ids must be integers"):
            PageObjectMap(np.array(pages), np.array(objects), np.ones(1))

    @pytest.mark.parametrize("pages, objects, weights", [
        ([0, 1], [0], [1.0]), ([0], [0, 1], [1.0]), ([0], [0], [1.0, 1.0]),
        ([[0]], [[0]], [[1.0]]),
    ], ids=["pages", "objects", "weights", "2-d"])
    def test_unequal_columns_rejected(self, pages, objects, weights):
        with pytest.raises(GraphError, match="1-d and of equal length"):
            PageObjectMap(np.array(pages), np.array(objects), np.array(weights))

    @pytest.mark.parametrize("weight", [-0.5, float("nan"), float("inf"), float("-inf")])
    def test_bad_weight_rejected(self, weight):
        with pytest.raises(GraphError, match="block weight must be finite and non-negative"):
            PageObjectMap(np.array([0, 0]), np.array([0, 1]), np.array([1.0, weight]))

    def test_weights_without_a_finite_sum_rejected(self):
        """Two weights of 1e308 sum to inf, which would give both shares 0."""
        with pytest.raises(GraphError, match="page number 1 have no finite sum"):
            PageObjectMap(np.array([0, 1, 1]), np.array([0, 1, 2]), np.array([1.0, 1e308, 1e308]))

    def test_columns_are_int64_and_float64(self):
        pom = PageObjectMap([0, 1], np.array([2, 3], np.int32), [1, 2])
        assert (pom.pages.dtype, pom.objects.dtype, pom.weights.dtype) == (
            np.int64, np.int64, np.float64)
        assert (pom.pages.tolist(), pom.objects.tolist(), pom.weights.tolist()) == (
            [0, 1], [2, 3], [1.0, 2.0])

    def test_prior_adds_in_entry_order(self):
        """np.bincount adds each object's terms in entry order, as np.add.at
        does, so the prior is bit-identical to that accumulation."""
        rng = np.random.default_rng(5)
        pages, objs = rng.integers(0, 7, 200), rng.integers(0, 30, 200)
        weights = rng.uniform(0.0, 3.0, 200)
        page_scores = rng.dirichlet(np.ones(7))
        pom = PageObjectMap(pages, objs, weights)
        _, _, shares = pom.resolved()
        raw = np.zeros(30)
        np.add.at(raw, objs, page_scores[pages] * shares)
        assert web_popularity(30, page_scores, pom).tolist() == (raw / raw.sum()).tolist()

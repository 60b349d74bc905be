"""Acceptance gate: one test per release criterion, each at its pinned
tolerance, printing one PASS line (visible with pytest -s)."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from conftest import (
    SRC,
    dense_pagerank,
    paper_registry,
    random_graph,
    random_prior,
)
from poprank import (
    LearnConfig,
    ObjectRecord,
    PageGraph,
    PopRankConfig,
    PpfAssignment,
    SimConfig,
    build_transition,
    learn_ppf,
    merge_records,
    pagerank,
    poprank,
    poprank_from_transition,
    simulate,
    tv_distance,
)
from poprank.cli import main
from poprank.corpus import CorpusPaths, load_corpus
from poprank.formats import read_report
from test_cli import write_corpus_dir
from test_learning import planted_corpus


def report(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


def test_criterion_1_pagerank_matches_dense_solve():
    graphs = {
        "cycle": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        "star": (5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
        "chain": (3, [(0, 1), (1, 2)]),
        "dangling": (6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]),
        "disconnected": (7, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]),
    }
    start = time.perf_counter()
    worst = 0.0
    for name, (n, edges) in graphs.items():
        scores = pagerank(PageGraph.build(n, edges), damping=0.85, tol=1e-13).scores
        expected = dense_pagerank(n, edges, 0.85)
        err = float(np.abs(scores - expected).max())
        assert err < 1e-9, f"{name}: max entry error {err}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report("1 (pagerank correctness)", f"5 graphs, max err {worst:.2e}, {elapsed * 1000:.0f} ms")


def test_criterion_2_poprank_stochastic_consistency():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        num_types = int(rng.integers(1, 5))
        graph, ppf = random_graph(rng, n, num_types, int(rng.integers(1, 3 * n)))
        t = build_transition(graph, ppf)
        row_starts = t.indptr[:-1][np.diff(t.indptr) > 0]
        if row_starts.size:
            sums = np.add.reduceat(t.probs, row_starts)
            assert np.abs(sums - 1.0).max() < 1e-12
        prior = random_prior(rng, n)
        scores = poprank_from_transition(t, prior).scores
        assert abs(float(scores.sum()) - 1.0) < 1e-12
        assert (scores >= 0).all()
    report("2 (stochastic consistency)", "100 random graphs: rows and outputs sum to 1 @1e-12")


def test_criterion_3_reduction_to_pagerank():
    rng = np.random.default_rng(303)
    epsilon = 0.15
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 30))
        graph, _ = random_graph(rng, n, 1, int(rng.integers(1, 3 * n)))
        edges = graph.links["rel0"]
        page = pagerank(PageGraph.build(n, edges), damping=1.0 - epsilon, tol=1e-12).scores
        obj = poprank(
            graph,
            PpfAssignment({"rel0": 1.0}),
            np.full(n, 1.0 / n),
            PopRankConfig(epsilon=epsilon, tol=1e-12),
        ).scores
        err = float(np.abs(obj - page).max())
        assert err < 1e-9
        worst = max(worst, err)
    report("3 (reduction to pagerank)", f"20 single-type graphs, max entry err {worst:.2e}")


def test_criterion_4_factor_scale_invariance():
    rng = np.random.default_rng(404)
    graph, _ = random_graph(rng, 15, 3, 30)
    prior = random_prior(rng, 15)
    base_factors = {"rel0": 0.08, "rel1": 0.05, "rel2": 0.02}
    base = poprank(graph, PpfAssignment(base_factors), prior, PopRankConfig(tol=1e-13)).scores
    worst = 0.0
    for c in (0.1, 3, 10):
        scaled = poprank(
            graph,
            PpfAssignment({k: v * c for k, v in base_factors.items()}),
            prior,
            PopRankConfig(tol=1e-13),
        ).scores
        err = float(np.abs(scaled - base).max())
        assert err < 1e-12, f"scale {c}: err {err}"
        worst = max(worst, err)
    report("4 (factor scale invariance)", f"c in {{0.1, 3, 10}}, max err {worst:.2e}")


def test_criterion_5_monte_carlo_oracle():
    details = []
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(5, 21))
        graph, ppf = random_graph(rng, n, 2, int(rng.integers(n, 3 * n)))
        t = build_transition(graph, ppf)
        prior = random_prior(rng, n)
        analytic = poprank_from_transition(t, prior, PopRankConfig(tol=1e-12))
        start = time.perf_counter()
        hist = simulate(t, prior, SimConfig(steps=1_000_000, rng_seed=seed))
        elapsed = time.perf_counter() - start
        tv = tv_distance(hist.empirical, analytic.scores)
        assert tv < 0.01, f"seed {seed}: TV {tv}"
        assert elapsed < 10.0, f"seed {seed}: took {elapsed:.1f}s"
        details.append(f"{tv:.4f}")
    report("5 (monte carlo oracle)", f"5 graphs @1e6 steps, TV = {', '.join(details)}")


def test_criterion_6_planted_ppf_recovery():
    gamma_stars = [(0.8, 0.2), (0.6, 0.4), (0.9, 0.1)]
    for seed in range(1, 11):
        gamma_star = gamma_stars[(seed - 1) % 3]
        graph, prior, expert = planted_corpus(seed, gamma_star)
        start = time.perf_counter()
        result = learn_ppf(
            graph, prior, expert, LearnConfig(poprank_cfg=PopRankConfig(tol=1e-12))
        )
        elapsed = time.perf_counter() - start
        assert result.violations == 0, f"seed {seed}: {result.violations} violations"
        assert result.evaluations <= 10_000
        assert elapsed < 60.0
    report("6 (planted recovery)", "10 corpora reach 0 violations within budget")


def test_criterion_7_dedup_determinism():
    rng = np.random.default_rng(777)
    registry = paper_registry()
    records = []
    for i in range(100):
        title = f"t{i}" if i < 40 else f"t{int(rng.integers(0, 40))}"
        records.append(
            ObjectRecord(f"r{i}", "paper", {"title": title, "year": str(2000 + i % 4)})
        )
    objects = merge_records(records, registry)
    assert len(objects) == 40
    assert sum(o.merged_record_count for o in objects) == 100

    def signature(objs):
        return sorted((o.attribute_values["title"], o.merged_record_count) for o in objs)

    base = signature(objects)
    for perm_seed in range(3):
        shuffled = list(records)
        np.random.default_rng(perm_seed).shuffle(shuffled)
        assert signature(merge_records(shuffled, registry)) == base
    report("7 (dedup determinism)", "100 records -> 40 objects, permutation invariant")


def test_criterion_8_roundtrip_and_cli_determinism(tmp_path):
    corpus = write_corpus_dir(
        tmp_path / "corpus",
        schemas="paper\ttitle\ttitle\n",
        objects="".join(f"r{i}\tpaper\ttitle=t{i}\n" for i in range(5)),
        links=(
            "paper\tt0\tcites\tpaper\tt1\n"
            "paper\tt1\tcites\tpaper\tt2\n"
            "paper\tt2\tcites\tpaper\tt0\n"
            "paper\tt3\tcites\tpaper\tt0\n"
            "paper\tt0\textends\tpaper\tt4\n"
        ),
        pages="p0\tp1\np1\tp2\np2\tp0\n",
        page_map="p0\tpaper\tt0\t0.5\np0\tpaper\tt1\t0.5\np1\tpaper\tt2\np2\tpaper\tt3\n",
    )
    (corpus / "gamma.tsv").write_text("cites\t0.8\nextends\t0.2\n")

    # write/reload identity for the object graph
    from poprank.corpus import write_corpus

    bundle = load_corpus(CorpusPaths.in_dir(corpus))
    rewritten = tmp_path / "rewritten"
    write_corpus(rewritten, bundle.registry, bundle.graph)
    reloaded = load_corpus(CorpusPaths.in_dir(rewritten))
    assert {k: v.tolist() for k, v in reloaded.graph.links.items()} == {
        k: v.tolist() for k, v in bundle.graph.links.items()
    }
    assert [(o.type_name, o.attribute_values) for o in reloaded.graph.objects] == [
        (o.type_name, o.attribute_values) for o in bundle.graph.objects
    ]

    # byte-identical rank and simulate reports across two process runs
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")

    def run_twice(command, *extra):
        blobs = []
        for name in ("one", "two"):
            out = tmp_path / f"{command}-{name}.tsv"
            subprocess.run(
                [sys.executable, "-m", "poprank", command, str(corpus),
                 "--ppf", str(corpus / "gamma.tsv"), "--out", str(out), *extra],
                env=env, check=True, capture_output=True,
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{command} reports differ between runs"

    run_twice("rank")
    run_twice("simulate", "--steps", "200000", "--seed", "9")
    report("8 (round-trip + determinism)", "graph reload identity; byte-identical reruns")


def test_criterion_9_compare_sanity(tmp_path):
    # boosted: object t5 has no page presence but five high-factor in-links
    boosted = write_corpus_dir(
        tmp_path / "boosted",
        schemas="paper\ttitle\ttitle\n",
        objects="".join(f"r{i}\tpaper\ttitle=t{i}\n" for i in range(6)),
        links=(
            "".join(f"paper\tt{i}\tcites\tpaper\tt5\n" for i in range(5))
            + "paper\tt5\tcites\tpaper\tt0\n"
        ),
        pages="p0\tp1\np1\tp2\np2\tp3\np3\tp4\np4\tp0\n",
        page_map="".join(f"p{i}\tpaper\tt{i}\t1.0\n" for i in range(5)),
    )
    (boosted / "gamma.tsv").write_text("cites\t0.9\n")
    out = tmp_path / "boosted.tsv"
    assert main(["compare", str(boosted), "--ppf", str(boosted / "gamma.tsv"),
                 "--out", str(out)]) == 0
    _, rows = read_report(out)
    row = {r[1]: r for r in rows}["t5"]
    object_rank, page_rank = int(row[3]), int(row[5])
    assert object_rank < page_rank

    # link-free: identical orderings, tau exactly 1.0
    flat = write_corpus_dir(
        tmp_path / "flat",
        schemas="paper\ttitle\ttitle\n",
        objects="".join(f"r{i}\tpaper\ttitle=t{i}\n" for i in range(4)),
        links="",
        pages="p0\tp1\np1\n",
        page_map="p0\tpaper\tt0\t0.4\np0\tpaper\tt1\t0.6\np1\tpaper\tt2\t0.7\np1\tpaper\tt3\t0.3\n",
    )
    (flat / "gamma.tsv").write_text("cites\t0.9\n")
    out2 = tmp_path / "flat.tsv"
    assert main(["compare", str(flat), "--ppf", str(flat / "gamma.tsv"),
                 "--out", str(out2)]) == 0
    meta, _ = read_report(out2)
    assert float(meta["kendall-tau"]) == 1.0
    report("9 (compare sanity)", f"boost rank {object_rank} < {page_rank}; link-free tau = 1.0")

"""Command-line surface: all five commands, exit codes, determinism."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SRC, dense_poprank
from poprank import PpfAssignment, _kernels, build_transition, web_popularity
from poprank.cli import main
from poprank.corpus import CorpusPaths, load_corpus
from poprank.formats import read_ppf, read_report
from poprank.webpop import pagerank


def write_corpus_dir(
    d: Path,
    schemas: str,
    objects: str,
    links: str,
    pages: str,
    page_map: str,
) -> Path:
    d.mkdir(parents=True, exist_ok=True)
    (d / "schemas.tsv").write_text(schemas)
    (d / "objects.tsv").write_text(objects)
    (d / "links.tsv").write_text(links)
    (d / "pages.tsv").write_text(pages)
    (d / "page_object_map.tsv").write_text(page_map)
    return d


@pytest.fixture
def symmetric_corpus(tmp_path):
    """Two mutually citing papers on two mutually linking pages."""
    d = write_corpus_dir(
        tmp_path / "sym",
        schemas="paper\ttitle\ttitle\n",
        objects="r1\tpaper\ttitle=A\nr2\tpaper\ttitle=B\n",
        links="paper\tA\tcites\tpaper\tB\npaper\tB\tcites\tpaper\tA\n",
        pages="p1\tp2\np2\tp1\n",
        page_map="p1\tpaper\tA\t1.0\np2\tpaper\tB\t1.0\n",
    )
    (d / "gamma.tsv").write_text("cites\t0.8\n")
    return d


@pytest.fixture
def oracle_corpus(tmp_path):
    """4 objects, 2 relationship types, asymmetric pages."""
    d = write_corpus_dir(
        tmp_path / "oracle",
        schemas="paper\ttitle\ttitle\n",
        objects="".join(f"r{i}\tpaper\ttitle=t{i}\n" for i in range(4)),
        links=(
            "paper\tt0\tcites\tpaper\tt1\n"
            "paper\tt0\tcites\tpaper\tt2\n"
            "paper\tt1\tcites\tpaper\tt2\n"
            "paper\tt3\tcites\tpaper\tt0\n"
            "paper\tt2\textends\tpaper\tt3\n"
            "paper\tt0\textends\tpaper\tt3\n"
        ),
        pages="p0\tp1\np1\tp2,p0\np2\tp0\n",
        page_map=(
            "p0\tpaper\tt0\t0.6\n"
            "p0\tpaper\tt1\t0.4\n"
            "p1\tpaper\tt2\n"
            "p2\tpaper\tt3\n"
        ),
    )
    (d / "gamma.tsv").write_text("cites\t0.8\nextends\t0.2\n")
    return d


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestRank:
    def test_symmetric_corpus_scores_half(self, symmetric_corpus, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        code = run_cli("rank", symmetric_corpus, "--ppf", symmetric_corpus / "gamma.tsv", "--out", out)
        assert code == 0
        meta, rows = read_report(out)
        assert meta["poprank-converged"] == "true"
        assert [r[2] for r in rows] == ["A", "B"]
        for row in rows:
            assert float(row[3]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_solve_oracle(self, oracle_corpus, tmp_path):
        out = tmp_path / "report.tsv"
        code = run_cli(
            "rank", oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv",
            "--tol", "1e-13", "--out", out,
        )
        assert code == 0

        bundle = load_corpus(CorpusPaths.in_dir(oracle_corpus))
        page_scores = pagerank(bundle.page_graph, damping=0.85, tol=1e-13).scores
        prior = web_popularity(bundle.graph.num_objects, page_scores, bundle.page_map)
        transition = build_transition(
            bundle.graph, PpfAssignment({"cites": 0.8, "extends": 0.2})
        )
        expected = dense_poprank(transition, prior, 0.15)

        _, rows = read_report(out)
        got = {row[2]: float(row[3]) for row in rows}
        for i in range(4):
            assert got[f"t{i}"] == pytest.approx(expected[i], abs=1e-9)

    def test_missing_factor_exits_2_naming_type(self, oracle_corpus, capsys):
        (oracle_corpus / "partial.tsv").write_text("cites\t0.8\n")
        code = run_cli("rank", oracle_corpus, "--ppf", oracle_corpus / "partial.tsv")
        assert code == 2
        assert "extends" in capsys.readouterr().err

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        assert run_cli("rank", tmp_path / "nope", "--ppf", tmp_path / "x.tsv") == 2

    def test_corpus_without_pages_uses_uniform_prior(self, tmp_path):
        d = write_corpus_dir(
            tmp_path / "nopages",
            schemas="paper\ttitle\ttitle\n",
            objects="r1\tpaper\ttitle=A\nr2\tpaper\ttitle=B\n",
            links="",
            pages="",
            page_map="",
        )
        (d / "gamma.tsv").write_text("cites\t0.5\n")
        out = tmp_path / "report.tsv"
        assert run_cli("rank", d, "--ppf", d / "gamma.tsv", "--out", out) == 0
        _, rows = read_report(out)
        assert [float(r[3]) for r in rows] == [0.5, 0.5]

    def test_fail_on_nonconverge_exits_3(self, oracle_corpus, tmp_path):
        out = tmp_path / "report.tsv"
        with pytest.warns(Warning):
            code = run_cli(
                "rank", oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv",
                "--tol", "1e-15", "--max-iter", "1", "--fail-on-nonconverge", "--out", out,
            )
        assert code == 3
        meta, _ = read_report(out)  # report still written
        assert meta["poprank-converged"] == "false"

    def test_nan_tol_exits_2(self, oracle_corpus, capsys):
        code = run_cli("rank", oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv", "--tol", "nan")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: tol must be positive and finite" in captured.err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_block_weight_exits_2(self, oracle_corpus, weight, capsys):
        (oracle_corpus / "page_object_map.tsv").write_text(f"p0\tpaper\tt0\t{weight}\n")
        code = run_cli("rank", oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "page_object_map.tsv:1: block weight must be finite and non-negative" in captured.err


class TestIngest:
    def test_pipe_in_key_exits_2(self, tmp_path, capsys):
        d = write_corpus_dir(
            tmp_path / "pipe",
            schemas="paper\ttitle\ttitle\n",
            objects="r1\tpaper\ttitle=a|b\nr2\tpaper\ttitle=c\n",
            links="paper\ta|b\tcites\tpaper\tc\n",
            pages="p1\n",
            page_map="p1\tpaper\ta|b\n",
        )
        (d / "gamma.tsv").write_text("cites\t0.5\n")
        assert run_cli("rank", d, "--ppf", d / "gamma.tsv") == 2
        err = capsys.readouterr().err
        assert "error: record 'r1': key attribute 'title' value 'a|b' contains '|'" in err

    def test_summary(self, oracle_corpus, capsys):
        assert run_cli("ingest", oracle_corpus) == 0
        output = capsys.readouterr().out
        assert "objects\t4" in output
        assert "links[cites]\t4" in output
        assert "links[extends]\t2" in output
        assert "pages\t3" in output

    def test_strict_flag_propagates(self, symmetric_corpus, capsys):
        (symmetric_corpus / "links.tsv").write_text("paper\tA\tcites\tpaper\tZ\n")
        assert run_cli("ingest", symmetric_corpus) == 0
        assert "link-dropped" in capsys.readouterr().err
        assert run_cli("ingest", symmetric_corpus, "--strict") == 2


class TestLearn:
    def test_planted_corpus_reaches_zero_violations(self, oracle_corpus, tmp_path, capsys):
        # expert order = induced order of the gamma file the corpus ships with
        out = tmp_path / "rank.tsv"
        run_cli("rank", oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv",
                "--tol", "1e-12", "--out", out)
        _, rows = read_report(out)
        expert = tmp_path / "expert.tsv"
        expert.write_text("".join(f"paper:{row[2]}\n" for row in rows))

        learned = tmp_path / "learned.tsv"
        code = run_cli("learn", oracle_corpus, "--expert", expert, "--out", learned)
        assert code == 0
        meta, _ = read_report(learned)
        assert meta["violations"] == "0"
        factors = read_ppf(learned)
        assert set(factors) == {"cites", "extends"}

    def test_empty_expert_exits_2(self, oracle_corpus, tmp_path, capsys):
        expert = tmp_path / "expert.tsv"
        expert.write_text("")
        assert run_cli("learn", oracle_corpus, "--expert", expert) == 2
        assert "empty" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, oracle_corpus, tmp_path, capsys):
        expert = tmp_path / "expert.tsv"
        expert.write_text("paper:t0\npaper:t1\n")
        # 101 levels over two types exceed the 10,000 cap, so the grid is sampled with the seed
        code = run_cli("learn", oracle_corpus, "--expert", expert, "--seed", "-5",
                       "--grid-resolution", "101")
        assert code == 2
        assert "error: rng_seed must be >= 0, got -5" in capsys.readouterr().err

    def test_single_type_warns_unidentifiable(self, symmetric_corpus, tmp_path, capsys):
        expert = tmp_path / "expert.tsv"
        expert.write_text("paper:A\npaper:B\n")
        out = tmp_path / "learned.tsv"
        assert run_cli("learn", symmetric_corpus, "--expert", expert, "--out", out) == 0
        assert "unidentifiable" in capsys.readouterr().err
        meta, _ = read_report(out)
        assert "unidentifiable" in meta["warning"]


class TestSimulate:
    def test_epsilon_one_tracks_prior(self, oracle_corpus, tmp_path):
        out = tmp_path / "sim.tsv"
        code = run_cli(
            "simulate", oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv",
            "--steps", "1000000", "--epsilon", "1.0", "--seed", "11", "--out", out,
        )
        assert code == 0
        meta, rows = read_report(out)
        # with epsilon 1 every step samples the prior, so empirical ~ prior;
        # the analytic fixed point equals the prior as well
        assert float(meta["tv-distance"]) < 0.01
        assert len(rows) == 4

    def test_seeded_rerun_is_byte_identical(self, oracle_corpus, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        outputs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "poprank", "simulate", str(oracle_corpus),
                 "--ppf", str(oracle_corpus / "gamma.tsv"), "--steps", "100000",
                 "--seed", "42", "--out", str(out)],
                env=env,
                check=True,
                capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_epsilon_validation(self, oracle_corpus, capsys):
        code = run_cli(
            "simulate", oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv",
            "--steps", "100", "--epsilon", "0.0",
        )
        assert code == 2


    def test_negative_seed_exits_2(self, oracle_corpus, capsys):
        code = run_cli("simulate", oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv",
                       "--steps", "100", "--seed", "-1")
        assert code == 2
        assert "error: rng_seed must be >= 0, got -1" in capsys.readouterr().err


class TestCompare:
    def test_link_free_corpus_has_tau_one(self, tmp_path):
        d = write_corpus_dir(
            tmp_path / "nolinks",
            schemas="paper\ttitle\ttitle\n",
            objects="r1\tpaper\ttitle=A\nr2\tpaper\ttitle=B\nr3\tpaper\ttitle=C\n",
            links="",
            pages="p1\tp2\np2\n",
            page_map="p1\tpaper\tA\t0.7\np1\tpaper\tB\t0.3\np2\tpaper\tC\t1.0\n",
        )
        (d / "gamma.tsv").write_text("cites\t0.8\n")
        out = tmp_path / "cmp.tsv"
        assert run_cli("compare", d, "--ppf", d / "gamma.tsv", "--out", out) == 0
        meta, rows = read_report(out)
        assert float(meta["kendall-tau"]) == 1.0
        for row in rows:
            assert row[3] == row[5]  # identical object-level and page-level ranks

    def test_boosted_object_ranks_strictly_better(self, tmp_path):
        # t5 sits on no page (zero prior) but every other object cites it
        d = write_corpus_dir(
            tmp_path / "boost",
            schemas="paper\ttitle\ttitle\n",
            objects="".join(f"r{i}\tpaper\ttitle=t{i}\n" for i in range(6)),
            links=(
                "".join(f"paper\tt{i}\tcites\tpaper\tt5\n" for i in range(5))
                + "paper\tt5\tcites\tpaper\tt0\n"
            ),
            pages="p0\tp1\np1\tp2\np2\tp3\np3\tp4\np4\tp0\n",
            page_map="".join(f"p{i}\tpaper\tt{i}\t1.0\n" for i in range(5)),
        )
        (d / "gamma.tsv").write_text("cites\t0.9\n")
        out = tmp_path / "cmp.tsv"
        assert run_cli("compare", d, "--ppf", d / "gamma.tsv", "--out", out) == 0
        meta, rows = read_report(out)
        by_key = {row[1]: row for row in rows}
        object_rank = int(by_key["t5"][3])
        page_rank = int(by_key["t5"][5])
        assert object_rank < page_rank
        assert page_rank == 6  # zero prior puts it last at page level
        assert float(meta["kendall-tau"]) < 1.0

    def test_single_object_corpus_tau_one(self, tmp_path):
        d = write_corpus_dir(
            tmp_path / "single",
            schemas="paper\ttitle\ttitle\n",
            objects="r1\tpaper\ttitle=A\n",
            links="",
            pages="p1\n",
            page_map="p1\tpaper\tA\t1.0\n",
        )
        (d / "gamma.tsv").write_text("cites\t1.0\n")
        out = tmp_path / "cmp.tsv"
        assert run_cli("compare", d, "--ppf", d / "gamma.tsv", "--out", out) == 0
        meta, rows = read_report(out)
        assert float(meta["kendall-tau"]) == 1.0
        assert len(rows) == 1


class TestNonFiniteScores:
    """A solve that returns NaN stops rank, simulate and compare with exit 2."""

    @pytest.mark.parametrize("command", [
        ["rank"], ["compare"], ["simulate", "--steps", "1000"],
    ], ids=["rank", "compare", "simulate"])
    def test_nan_object_scores_exit_2(self, oracle_corpus, tmp_path, monkeypatch, capsys, command):
        self._check(oracle_corpus, tmp_path, monkeypatch, capsys, command,
                    4, "poprank scores are not finite")  # the corpus has 4 objects

    @pytest.mark.parametrize("command", [
        ["rank"], ["compare"], ["simulate", "--steps", "1000"],
        ["simulate", "--steps", "1000", "--epsilon", "1.0"],
    ], ids=["rank", "compare", "simulate", "simulate-restart-only"])
    def test_nan_page_scores_exit_2(self, oracle_corpus, tmp_path, monkeypatch, capsys, command):
        self._check(oracle_corpus, tmp_path, monkeypatch, capsys, command,
                    3, "prior must be a probability distribution")  # and 3 pages

    @staticmethod
    def _check(corpus, tmp_path, monkeypatch, capsys, command, size, message):
        """Run command with NaN in the solve over `size` nodes."""
        real = _kernels.power_iteration

        def solve(indptr, targets, probs, dangling, alpha, v, tol, max_iter):
            r, iterations, residual = real(indptr, targets, probs, dangling, alpha, v, tol, max_iter)
            if len(v) == size:
                r = np.where(np.arange(size) == 0, np.nan, r)
            return r, iterations, residual

        monkeypatch.setattr(_kernels, "power_iteration", solve)
        out = tmp_path / "report.tsv"
        code = run_cli(command[0], corpus, "--ppf", corpus / "gamma.tsv", *command[1:], "--out", out)
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_rank_rerun_is_byte_identical(self, oracle_corpus, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        outputs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "poprank", "rank", str(oracle_corpus),
                 "--ppf", str(oracle_corpus / "gamma.tsv"), "--out", str(out)],
                env=env,
                check=True,
                capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_timestamp_flag_adds_metadata(self, symmetric_corpus, tmp_path):
        out = tmp_path / "report.tsv"
        run_cli("rank", symmetric_corpus, "--ppf", symmetric_corpus / "gamma.tsv",
                "--out", out, "--timestamp")
        meta, _ = read_report(out)
        assert "timestamp" in meta

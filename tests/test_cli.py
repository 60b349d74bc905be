"""Command-line surface: all five commands, exit codes, determinism."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import SRC, dense_poprank
from poprank import PpfAssignment, _kernels, build_transition, formats, web_popularity
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

    def test_fail_on_nonconverge_exits_3(self, oracle_corpus, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        code = run_cli(
            "rank", oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv",
            "--tol", "1e-15", "--max-iter", "1", "--fail-on-nonconverge", "--out", out,
        )
        assert code == 3
        meta, _ = read_report(out)  # report still written
        assert meta["poprank-converged"] == "false"
        # one diag line per solve kind, before the error
        err = capsys.readouterr().err.splitlines()
        assert err[-3:] == [
            f"diag\tnonconverged\tpagerank\tcount=1\tworst-residual={meta['pagerank-residual']}",
            f"diag\tnonconverged\tpoprank\tcount=1\tworst-residual={meta['poprank-residual']}",
            "error: power iteration did not converge (residual 2.833e-01)",
        ]

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

    def test_empty_page_id_in_the_page_map_exits_2(self, oracle_corpus, capsys):
        (oracle_corpus / "page_object_map.tsv").write_text("p0\tpaper\tt0\n\tpaper\tt1\n")
        assert run_cli("ingest", oracle_corpus) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {oracle_corpus}/page_object_map.tsv:2: empty page id\n"

    @pytest.mark.parametrize("schemas, expected", [
        ("paper\tti=tle\tti=tle\n", "paper: attribute name 'ti=tle' contains '='"),
        ("paper\ttitle;x\ttitle;x\n", "paper: attribute name 'title;x' contains ';'"),
        # not a key attribute: such a schema loaded before, though no line could give it
        ("# types\npaper\ttitle,a;b\ttitle\n", "paper: attribute name 'a;b' contains ';'"),
    ], ids=["equals-in-key", "semicolon-in-key", "semicolon-outside-key"])
    def test_separator_in_a_schema_attribute_name_exits_2(self, tmp_path, capsys, schemas,
                                                          expected):
        d = write_corpus_dir(tmp_path / "c", schemas=schemas, objects="r1\tpaper\ttitle=A\n",
                             links="", pages="", page_map="")
        assert run_cli("ingest", d) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {d}/schemas.tsv:{schemas.count(chr(10))}: {expected}, "
                                "a separator of objects.tsv\n")

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


class TestOptions:
    @pytest.mark.parametrize("command, extra", [
        ("ingest", ["--epsilon", "0.2"]),
        ("ingest", ["--fail-on-nonconverge"]),
        ("rank", ["--seed", "1"]),
        ("compare", ["--seed", "1"]),
    ])
    def test_option_the_command_does_not_read_exits_2(self, oracle_corpus, capsys, command, extra):
        ppf = [] if command == "ingest" else ["--ppf", oracle_corpus / "gamma.tsv"]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, oracle_corpus, *ppf, *extra)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


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

    @pytest.mark.parametrize("extra", [[], ["--epsilon", "1e-300"], ["--max-iter", "3"],
                                       ["--tol", "1e-17"]],
                             ids=["defaults", "alpha-rounds-to-one", "max-iter-3", "tol-1e-17"])
    def test_settled_stop_leaves_the_output_unchanged(self, oracle_corpus, tmp_path, capsys,
                                                      monkeypatch, extra):
        """The early stops of learn's solves (settled pairs, then the reject)
        change no output; where a full solve may not reach the tolerance
        they are off, and every solve takes the iterations of a full one.
        The first expert order is reached without a violation, the second
        is not, so that its search rejects vectors."""
        experts = [tmp_path / "reached.tsv", tmp_path / "missed.tsv"]
        experts[0].write_text("paper:t3\npaper:t0\npaper:t2\npaper:t1\n")
        experts[1].write_text("paper:t3\npaper:t1\npaper:t2\npaper:t0\n")
        power_iteration = _kernels.power_iteration

        def run(expert, *dropped: str):
            iterations = []

            def counted(*args, **kwargs):
                for name in dropped:
                    kwargs.pop(name, None)
                result = power_iteration(*args, **kwargs)
                iterations.append(result[1])
                return result

            monkeypatch.setattr(_kernels, "power_iteration", counted)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli("learn", oracle_corpus, "--expert", expert, *extra)
            out, err = capsys.readouterr()
            assert caught == []  # the CLI reports non-convergence as diag lines
            return (code, out, err), iterations

        for expert in experts:
            stopped, stopped_iterations = run(expert)
            settled, settled_iterations = run(expert, "reject")
            full, full_iterations = run(expert, "reject", "pairs")
            assert stopped == settled == full
            assert stopped[0] == 0 and stopped[1].startswith("# command\tlearn")
            if extra:
                # a full solve is not certain to reach the tolerance: no early stop
                assert stopped_iterations == settled_iterations == full_iterations
            elif expert == experts[0]:
                assert sum(stopped_iterations) == sum(settled_iterations) < sum(full_iterations)
            else:
                assert sum(stopped_iterations) < sum(settled_iterations) < sum(full_iterations)
            if "--max-iter" in extra:
                nonconverged = [line.split("\t")[2:4] for line in stopped[2].splitlines()
                                if line.startswith("diag\tnonconverged\t")]
                assert [kind for kind, _ in nonconverged] == ["pagerank", "poprank"]

    def test_fail_on_nonconverge_counts_the_learn_solves(self, tmp_path, capsys):
        """Without pages there is no PageRank, so only learn's own solves
        can fail to converge."""
        d = write_corpus_dir(
            tmp_path / "nopages", schemas="paper\ttitle\ttitle\n",
            objects="".join(f"r{i}\tpaper\ttitle=t{i}\n" for i in range(3)),
            links="paper\tt0\tcites\tpaper\tt1\npaper\tt0\tcites\tpaper\tt2\n"
                  "paper\tt1\tcites\tpaper\tt2\npaper\tt2\textends\tpaper\tt0\n",
            pages="", page_map="")
        expert = tmp_path / "expert.tsv"
        expert.write_text("paper:t2\npaper:t0\npaper:t1\n")
        outputs = []
        for flag in ([], ["--fail-on-nonconverge"]):
            code = run_cli("learn", d, "--expert", expert, "--max-iter", "2", *flag)
            outputs.append((code, *capsys.readouterr()))
        (code, out, err), (flagged, flagged_out, flagged_err) = outputs
        assert (code, flagged) == (0, 3)
        assert flagged_out == out and out.startswith("# command\tlearn")
        solves = int(flagged_err.rpartition("error: ")[2].split()[0])
        assert flagged_err == err + f"error: {solves} poprank solve(s) did not converge\n"
        assert solves >= 1
        assert f"diag\tnonconverged\tpoprank\tcount={solves}\tworst-residual=" in err

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

    def test_the_walk_on_two_processes_changes_no_byte(self, oracle_corpus, tmp_path, capsys,
                                                       monkeypatch):
        """A walk split across a forked worker gives the report, stderr and
        exit code of the walk in one process, also on one CPU."""
        forks, real = [], _kernels.forked

        def spy(task, name):
            forks.append(name)
            return real(task, name)

        monkeypatch.setattr(_kernels, "forked", spy)
        monkeypatch.setattr(_kernels, "SPLIT_MIN_STEPS", 2)
        runs = []
        for spare in (True, False):
            monkeypatch.setattr(_kernels, "spare_cpu", lambda: spare)
            out = tmp_path / f"sim-{spare}.tsv"
            code = run_cli("simulate", oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv",
                           "--steps", "200000", "--seed", "7", "--burn-in", "1000", "--out", out)
            runs.append((code, out.read_bytes(), capsys.readouterr()))
        assert forks == ["walk"]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

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


def test_page_weights_without_a_finite_sum_exit_2(tmp_path, capsys):
    """Two papers at 1e308 on page w1: their shares would both be 0 and
    the author on w2 would get all of the prior."""
    d = write_corpus_dir(
        tmp_path / "overflow",
        schemas="paper\ttitle\ttitle\nauthor\tname\tname\n",
        objects="r1\tpaper\ttitle=A\nr2\tpaper\ttitle=B\na1\tauthor\tname=N\n",
        links="paper\tA\tby\tauthor\tN\npaper\tB\tby\tauthor\tN\n",
        pages="w1\tw2\nw2\tw1\n",
        page_map="w1\tpaper\tA\t1e308\nw1\tpaper\tB\t1e308\nw2\tauthor\tN\t1.0\n",
    )
    (d / "gamma.tsv").write_text("by\t0.5\n")
    assert run_cli("compare", d, "--ppf", d / "gamma.tsv") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert errors == ["error: the block weights of page number 0 have no finite sum"]


class TestFlagsBeforeCorpus:
    """Bad solver flags exit 2 before the corpus is read: here there is
    none, yet the flag is what is reported."""

    @pytest.mark.parametrize("command, extra, message", [
        ("rank", ["--epsilon", "nan"], "epsilon must lie in (0, 1), got nan"),
        ("compare", ["--max-iter", "0"], "max_iter must be >= 1, got 0"),
        ("simulate", ["--steps", "0"], "steps must be >= 1, got 0"),
        ("simulate", ["--epsilon", "1.5"], "epsilon must lie in (0, 1), got 1.5"),
        ("learn", ["--refine-step", "0"], "refine_step must lie in (0, 1], got 0.0"),
        ("learn", ["--tol", "inf"], "tol must be positive and finite, got inf"),
        ("rank", ["--damping", "nan"], "damping must lie in (0, 1), got nan"),
        ("compare", ["--damping", "1"], "damping must lie in (0, 1), got 1.0"),
        ("simulate", ["--damping", "0"], "damping must lie in (0, 1), got 0.0"),
        ("learn", ["--damping", "1.5"], "damping must lie in (0, 1), got 1.5"),
        ("simulate", ["--epsilon", "1.0", "--tol", "nan"], "tol must be positive and finite, got nan"),
        ("simulate", ["--epsilon", "1", "--max-iter", "0"], "max_iter must be >= 1, got 0"),
    ], ids=["rank", "compare", "simulate-steps", "simulate-epsilon", "learn", "learn-tol",
            "rank-damping", "compare-damping", "simulate-damping", "learn-damping",
            "simulate-restart-only-tol", "simulate-restart-only-max-iter"])
    def test_bad_flag_exits_2_before_loading(self, tmp_path, capsys, command, extra, message):
        source = "--expert" if command == "learn" else "--ppf"
        assert run_cli(command, tmp_path / "missing", source, tmp_path / "x.tsv", *extra) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command, extra", [
        ("rank", ["--damping", "nan"]),
        ("simulate", ["--epsilon", "1.0", "--tol", "nan", "--max-iter", "0", "--damping", "7"]),
    ], ids=["rank", "simulate-restart-only"])
    def test_bad_flag_exits_2_on_a_corpus_without_pages(self, tmp_path, capsys, command, extra):
        """No PageRank runs without pages, yet the flags are still checked."""
        d = write_corpus_dir(tmp_path / "nopages", schemas="paper\ttitle\ttitle\n",
                             objects="r1\tpaper\ttitle=A\n", links="", pages="", page_map="")
        (d / "gamma.tsv").write_text("cites\t0.5\n")
        assert run_cli(command, d, "--ppf", d / "gamma.tsv", *extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("\n") and err.count("error: ") == 1


def imports_of(*argv) -> tuple[str, list[str]]:
    """stdout of ``python -X importtime -m poprank *argv``, which must exit
    0, and the modules it imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "poprank", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    return proc.stdout, [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                         if line.startswith("import time:")]


def heavy(imported: list[str]) -> list[str]:
    """The modules among ``imported`` that only some commands need."""
    names = ("multiprocessing", "hashlib", "concurrent.futures", "json", "subprocess")
    return [m for m in imported if any(m == h or m.startswith(h + ".") for h in names)]


def test_version_imports_nothing_heavy():
    """Start-up stays lean: modules only some commands need are imported
    where they are used, not on the import path of every command."""
    out, imported = imports_of("--version")
    assert out.startswith("poprank ") and "poprank.cli" in imported
    assert heavy(imported) == []


def test_learn_imports_nothing_heavy(oracle_corpus, tmp_path):
    """The learn memo is keyed by exact factor ratios, so no hash library
    joins the command's start-up, nor anything else heavy on a small corpus."""
    expert = tmp_path / "expert.tsv"
    expert.write_text("paper:t2\npaper:t0\npaper:t3\n")
    out, imported = imports_of("learn", oracle_corpus, "--expert", expert)
    assert "# command\tlearn\n" in out and "poprank.learning" in imported
    assert heavy(imported) == []


class TestDeterminism:
    @pytest.mark.parametrize("command", [["rank"], ["compare"],
                                         ["simulate", "--steps", "2000", "--seed", "3"]])
    def test_report_chunks_change_no_byte(self, oracle_corpus, tmp_path, capsys, monkeypatch,
                                          command):
        def run(chunk_rows: int):
            monkeypatch.setattr(formats, "REPORT_CHUNK_ROWS", chunk_rows)
            out = tmp_path / f"{chunk_rows}.tsv"
            argv = [command[0], oracle_corpus, "--ppf", oracle_corpus / "gamma.tsv", *command[1:]]
            assert run_cli(*argv, "--out", out) == 0
            assert run_cli(*argv) == 0
            return out.read_bytes(), capsys.readouterr()

        want = run(formats.REPORT_CHUNK_ROWS)
        assert len(read_report(tmp_path / f"{formats.REPORT_CHUNK_ROWS}.tsv")[1]) == 4
        for chunk_rows in (1, 2, 3):
            assert run(chunk_rows) == want

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

    def test_nonconvergence_stderr_does_not_depend_on_the_checkout(self, oracle_corpus,
                                                                  tmp_path):
        """Solves that stop at --max-iter are reported as diag lines that name
        no file, line or source, so two copies of the package at paths of
        different lengths write the same stderr."""
        expert = tmp_path / "expert.tsv"
        expert.write_text("paper:t3\npaper:t1\npaper:t2\npaper:t0\n")
        commands = [["learn", "--expert", str(expert), "--max-iter", "3"],
                    ["simulate", "--ppf", str(oracle_corpus / "gamma.tsv"), "--epsilon", "0.01",
                     "--max-iter", "40", "--steps", "1000"]]
        errors = []
        for name in ("a", "a-copy-at-a-longer-path"):
            package = tmp_path / name / "poprank"
            shutil.copytree(SRC / "poprank", package, ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env["PYTHONPATH"] = str(package.parent)
            errors.append([
                subprocess.run([sys.executable, "-m", "poprank", command, str(oracle_corpus), *rest],
                               env=env, check=True, capture_output=True, text=True).stderr
                for command, *rest in commands])
        assert errors[0] == errors[1]
        for err in errors[0]:
            assert "diag\tnonconverged\tpoprank\tcount=" in err
            assert "Warning" not in err and "poprank/" not in err

    def test_timestamp_flag_adds_metadata(self, symmetric_corpus, tmp_path):
        out = tmp_path / "report.tsv"
        run_cli("rank", symmetric_corpus, "--ppf", symmetric_corpus / "gamma.tsv",
                "--out", out, "--timestamp")
        meta, _ = read_report(out)
        assert "timestamp" in meta

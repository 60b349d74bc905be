"""The benchmark's own tests, at smoke scale (a 1,200-object corpus).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.fixture(scope="module")
def corpus():
    return gen.ensure_corpus(run.WORK / "corpora", "smoke", 3)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_correct_at_smoke_scale(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace,
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["cli.total_s"]["value"] > 0


def test_benchmark_json_matches_run_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.generate("smoke", 5, tmp_path / "a")["sha256"]
    b = gen.generate("smoke", 5, tmp_path / "b")["sha256"]
    c = gen.generate("smoke", 6, tmp_path / "c")["sha256"]
    assert a == b
    assert a["links.tsv"] != c["links.tsv"]


def _cli(corpus_dir: Path, tmp_path: Path, *args: str) -> tuple[str, str]:
    out = tmp_path / "report.tsv"
    proc = subprocess.run([sys.executable, "-m", "poprank", *args, str(corpus_dir),
                           "--out", str(out)], capture_output=True, text=True,
                          env=run._child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return out.read_text(), proc.stderr


def _perturb(text: str, column: int, delta: float) -> str:
    lines = text.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 7
    fields = lines[i].rstrip("\n").split("\t")
    fields[column] = repr(float(fields[column]) + delta)
    lines[i] = "\t".join(fields) + "\n"
    return "".join(lines)


def test_oracle_fails_a_rank_score_perturbed_by_1e6(corpus, tmp_path):
    directory, manifest = corpus
    truth, expected = oracle.Truth.load(directory)
    text, stderr = _cli(directory, tmp_path, "rank", "--ppf", str(directory / "ppf.tsv"))
    assert oracle.check_rank(truth, expected, text)[0] == []
    assert oracle.check_diagnostics(stderr, manifest["planted"]) == []
    errors, values = oracle.check_rank(truth, expected, _perturb(text, 3, 1e-6))
    assert errors and values["score_err_l1"] > oracle.SCORE_ERR_LIMIT


def test_oracle_fails_a_simulate_score_perturbed_by_1e6(corpus, tmp_path):
    directory, _ = corpus
    truth, expected = oracle.Truth.load(directory)
    text, _ = _cli(directory, tmp_path, "simulate", "--ppf", str(directory / "ppf.tsv"),
                   "--steps", "50000", "--burn-in", "100")
    assert oracle.check_simulate(truth, expected, text, 50_000, 100, 1.0)[0] == []
    assert oracle.check_simulate(truth, expected, _perturb(text, 3, 1e-6), 50_000, 100, 1.0)[0]


def test_oracle_fails_a_wrong_violation_count(corpus, tmp_path):
    directory, _ = corpus
    truth, _ = oracle.Truth.load(directory)
    text, _ = _cli(directory, tmp_path, "learn", "--expert", str(directory / "expert.tsv"),
                   "--grid-resolution", "2", "--refine-iters", "2")
    assert oracle.check_learn(truth, text, 10)[0] == []
    meta, _ = oracle.parse_report(text)
    wrong = text.replace(f"# violations\t{meta['violations']}\n",
                         f"# violations\t{int(meta['violations']) + 1}\n")
    assert oracle.check_learn(truth, wrong, 10)[0]


def test_diagnostics_must_match_planted_dirt(corpus):
    _, manifest = corpus
    planted = dict(manifest["planted"], link_duplicates=manifest["planted"]["link_duplicates"] + 1)
    stderr = (f"diag\tmerge\trecords={planted['records']}\tobjects={planted['objects']}"
              f"\tconflicts={planted['conflicts']}\n")
    errors = oracle.check_diagnostics(stderr, planted)
    assert any("link_duplicates" in e for e in errors)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "learn-20k", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""End-to-end and per-layer benchmark of the poprank CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rank-200k --seed 1 --seconds 10 --trace 0

The benchmark generates a seeded corpus (``gen.py``; cached per shape and
seed under ``.perfbench/``, never timed), then drives the real CLI of the
checkout's ``src/`` as one child process at a time, in a closed loop with
a single client: the next command starts when the previous one has exited,
until ``--seconds`` have been spent (at least one command). Every output is
checked against an independent oracle (``oracle.py``); a command fails on
a non-zero exit, a timeout or any failed check.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the same untraced loop, then one traced run of the same command
(``traced.py``), and reports the per-layer metrics. Human-readable lines
and a JSON record with the machine description come first; the last line
of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``. Every metric of every
workload, with its unit:

    for w in rank-200k learn-20k simulate-20k; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 10 --trace 1
    done

Claims of a gain should also be checked on HELD_OUT_SEED, which the
benchmark itself never uses unless asked to with ``--seed``. The
benchmark's own tests run every workload at smoke scale in about 30 s:
``python3 -m pytest perfbench -q``.

Nothing machine-wide is traced or tuned: no cache drops, no cgroup, kernel
or CPU-frequency settings. Timings include whatever else the machine runs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import gen
import oracle
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
HELD_OUT_SEED = 90_001
RUN_DEADLINE_S = 170.0
SETUP_RUNS = 9
SIM_SEED = 7
SIM_BURN_IN = 1_000
LEARN_GRID = 4
LEARN_REFINE = 36

# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
# Printed with every result and part of its correctness gate, but not bounded
# in BENCHMARK.json: error_rate is 0 when the program is correct, and each
# quality value is defined on only some workloads.
QUALITY = {
    "error_rate": ("ratio", "failed runs / attempted runs"),
    "score_err_l1": ("prob", "L1 distance of the reported scores (rank: score column, "
                             "simulate: analytic column) to the oracle's"),
    "violation_frac": ("ratio", "learn's reported violations / expert pairs, recounted by the oracle"),
    "tv_distance": ("prob", "TV distance between simulate's empirical and analytic columns, "
                            "recomputed from the report"),
}
# What each layer should move, written down before measuring:
# formats, objects, corpus and cli move wall_s (formats and objects also
# peak_rss_mb) on rank-200k; ranking, learning and kernels.power_iteration
# move wall_s on learn-20k and stay flat on rank-200k; simulate.walk and
# kernels.random_walk move wall_s, simulate.predraw and uniforms_bytes move
# peak_rss_mb, on simulate-20k; webpop is under 2% of rank-200k, a guard.
PER_LAYER = {
    "formats.read_s": ("s", "lower"),
    "formats.rows_read": ("count", "lower"),
    "formats.write_s": ("s", "lower"),
    "formats.bytes_written": ("bytes", "lower"),
    "objects.merge_s": ("s", "lower"),
    "objects.records": ("count", "lower"),
    "objects.objects": ("count", "lower"),
    "objects.build_graph_s": ("s", "lower"),
    "objects.links_kept": ("count", "lower"),
    "objects.links_dropped": ("count", "lower"),
    "objects.link_duplicates": ("count", "lower"),
    "corpus.load_s": ("s", "lower"),
    "corpus.self_s": ("s", "lower"),
    "corpus.diag_lines": ("count", "lower"),
    "webpop.page_graph_build_s": ("s", "lower"),
    "webpop.pagerank_s": ("s", "lower"),
    "webpop.pagerank_iters": ("count", "lower"),
    "webpop.prior_s": ("s", "lower"),
    "ranking.build_transition_s": ("s", "lower"),
    "ranking.build_transition_calls": ("count", "lower"),
    "ranking.solve_s": ("s", "lower"),
    "ranking.solve_calls": ("count", "lower"),
    "ranking.solve_iters": ("count", "lower"),
    "ranking.edge_visits": ("count", "lower"),
    "ranking.bytes_moved": ("bytes", "lower"),
    "learning.evals": ("count", "lower"),
    "learning.s_per_eval": ("s", "lower"),
    "learning.disagreement_s": ("s", "lower"),
    "simulate.walk_s": ("s", "lower"),
    "simulate.ns_per_step": ("ns", "lower"),
    "simulate.predraw_s": ("s", "lower"),
    "simulate.uniforms_bytes": ("bytes", "lower"),
    "kernels.power_iteration_s": ("s", "lower"),
    "kernels.random_walk_s": ("s", "lower"),
    "cli.total_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_rows": ("count", "lower"),
    "trace.import_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}
COMPUTED = {"ranking.bytes_moved", "simulate.uniforms_bytes"}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    command: str
    why: str
    steps: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("rank-200k", "200k", "rank",
             "the loader (formats, objects, corpus) is about 90% of the time and most of "
             "the RSS; one transition build and one solve; 200k report rows"),
    Workload("learn-20k", "20k", "learn",
             "about 100 transition builds and solves on one small graph, against one "
             "large solve in rank-200k"),
    Workload("simulate-20k", "20k", "simulate",
             "the Monte Carlo walk and its pre-drawn uniforms set the time and the peak RSS",
             steps=4_000_000),
)}
# The benchmark's own tests run every workload on a tiny corpus.
SMOKE = {"shape": "smoke", "steps": 200_000}


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_code: int | None
    errors: list[str]
    values: dict


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], timeout: float, stdout: Path, stderr: Path) -> tuple[float, float, int | None]:
    """Run one child to completion; return (wall seconds, max RSS in MB, exit
    code or None on timeout). The child is always reaped before returning."""
    lock = threading.Lock()
    state = {"done": False, "killed": False}
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)

        def kill():
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["done"] = True
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    code = None if state["killed"] else proc.returncode
    return wall, usage.ru_maxrss / 1024.0, code


class Bench:
    def __init__(self, workload: Workload, seed: int, smoke: bool):
        self.workload = workload
        self.shape = SMOKE["shape"] if smoke else workload.shape
        self.steps = SMOKE["steps"] if smoke else workload.steps
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        # outputs of the latest run of each workload, kept for inspection
        self.out = WORK / "out" / workload.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.corpus, self.manifest = gen.ensure_corpus(WORK / "corpora", self.shape, seed)
        self.truth, self.expected = oracle.Truth.load(self.corpus)

    def argv(self, report: Path) -> list[str]:
        c = self.corpus
        args = [self.workload.command, str(c)]
        if self.workload.command == "learn":
            args += ["--expert", str(c / "expert.tsv"), "--grid-resolution", str(LEARN_GRID),
                     "--refine-iters", str(LEARN_REFINE)]
        else:
            args += ["--ppf", str(c / "ppf.tsv")]
        if self.workload.command == "simulate":
            args += ["--steps", str(self.steps), "--seed", str(SIM_SEED),
                     "--burn-in", str(SIM_BURN_IN)]
        return args + ["--out", str(report)]

    def check(self, report: Path, stderr: Path) -> tuple[list[str], dict]:
        text = report.read_text(encoding="utf-8") if report.is_file() else ""
        command = self.workload.command
        if command == "rank":
            errors, values = oracle.check_rank(self.truth, self.expected, text)
        elif command == "simulate":
            counted = self.steps - SIM_BURN_IN
            errors, values = oracle.check_simulate(self.truth, self.expected, text, self.steps,
                                                   SIM_BURN_IN, (self.truth.n / counted) ** 0.5)
        else:
            budget = LEARN_GRID ** len(self.truth.relations) + LEARN_REFINE
            errors, values = oracle.check_learn(self.truth, text, budget)
        errors += oracle.check_diagnostics(stderr.read_text(encoding="utf-8"),
                                           self.manifest["planted"])
        return errors, values

    def invoke(self, prefix: list[str], tag: str) -> Invocation:
        report, stdout, stderr = (self.out / f"{tag}.{ext}" for ext in ("report", "stdout", "stderr"))
        report.unlink(missing_ok=True)
        wall, rss, code = spawn(prefix + self.argv(report), self.deadline - time.monotonic(),
                                stdout, stderr)
        if code is None:
            return Invocation(wall, rss, None, ["timed out"], {})
        errors, values = self.check(report, stderr)
        if code != 0:
            errors.insert(0, f"exit code {code}")
        return Invocation(wall, rss, code, errors, values)

    def setup_times(self) -> list[float]:
        """Wall time of ``python -m poprank --version``, after one warm-up run
        that also compiles the bytecode cache."""
        argv = [sys.executable, "-m", "poprank", "--version"]
        times = []
        for i in range(SETUP_RUNS + 1):
            wall, _, code = spawn(argv, self.deadline - time.monotonic(),
                                  self.out / "version.stdout", self.out / "version.stderr")
            if code != 0:
                raise SystemExit(f"perfbench: `poprank --version` failed with exit code {code}")
            if i:
                times.append(wall)
        return times


def machine_record() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    probe = subprocess.run(
        [sys.executable, "-c", "import poprank, poprank._kernels as k; print(poprank.__file__); "
         "print(k.backend())"], capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=60)
    lines = probe.stdout.split()
    if probe.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve().parent != ROOT / "src" / "poprank":
        raise SystemExit(f"perfbench: cannot import poprank from {ROOT / 'src'}: {probe.stderr.strip()}")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = git.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel_backend": lines[1],
        "commit": commit,
        "machine_wide_tuning": "none: no cache drops, no cgroup, kernel or CPU settings, "
                               "no machine-wide tracing",
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the poprank CLI on one workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="run on a tiny corpus (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "poprank" / "__init__.py").is_file():
        print(f"perfbench: no poprank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = machine_record()
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, args.smoke)
    setup = bench.setup_times()

    runs: list[Invocation] = []
    started = time.monotonic()
    while not runs or time.monotonic() - started < args.seconds:
        run = bench.invoke([sys.executable, "-m", "poprank"], f"run{len(runs)}")
        runs.append(run)
        if run.exit_code is None:
            break
    measured_s = time.monotonic() - started
    traced_run = None
    if args.trace and runs[-1].exit_code is not None:
        spans_path = bench.out / "spans.json"
        traced_run = bench.invoke([sys.executable, str(HERE / "traced.py"), str(spans_path)], "traced")
    attempted = runs + ([traced_run] if traced_run else [])
    failed = [r for r in attempted if r.errors]

    walls = [r.wall_s for r in runs]
    e2e = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(setup),
    }
    quality = {"error_rate": len(failed) / len(attempted)}
    for name in ("score_err_l1", "violation_frac", "tv_distance"):
        seen = [r.values[name] for r in runs if name in r.values]
        if seen:
            quality[name] = statistics.median(seen)
    layers = {}
    if traced_run is not None and traced_run.exit_code is not None:
        spans = json.loads(spans_path.read_text())
        layers = traced.layer_metrics(spans, traced_run.wall_s, e2e["wall_s"])

    print(f"workload {workload.name}: {workload.why}")
    print(f"corpus {bench.corpus.name}: {json.dumps(bench.manifest['planted'], sort_keys=True)}")
    print(f"{len(runs)} untraced run(s) in {measured_s:.1f} s, closed loop, 1 client;"
          f" wall_s per run: {', '.join(f'{w:.3f}' for w in walls)}")
    for name, value in e2e.items():
        print(f"  {name:<28} {_fmt(value):>14} {END_TO_END[name][0]}")
    for name, (unit, meaning) in QUALITY.items():
        value = _fmt(quality[name]) if name in quality else "n/a"
        print(f"  {name:<28} {value:>14} {unit:<5} {meaning}")
    for name, value in layers.items():
        unit = PER_LAYER[name][0]
        share = f"  {value / layers['trace.wall_s']:6.1%} of traced wall" if name.endswith("_s") else ""
        note = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:<28} {_fmt(value):>14} {unit}{share}{note}")
    for i, run in enumerate(attempted):
        for error in run.errors[:5]:
            print(f"  FAILED run {i}: {error}")
    print("record " + json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "machine": record, "corpus": {"shape": bench.shape, "sha256": bench.manifest["sha256"]},
        "runs": [{"wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb, "exit_code": r.exit_code,
                  "errors": r.errors} for r in attempted],
        "setup_s": setup, "end_to_end": e2e, "quality": quality, "per_layer": layers,
    }, sort_keys=True))

    chosen = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": chosen.get(name, 0), "unit": units[name][0]} for name in units}
    print(json.dumps({"correct": not failed, "attempted": len(attempted), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

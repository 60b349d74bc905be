"""Run one poprank CLI command in-process, with a span around each layer.

    python3 perfbench/traced.py SPANS.json <poprank arguments...>

Spans are recorded from the benchmark's own code, at the module boundary
where each public function is called: the name is replaced, in the module
that calls it, by a wrapper that times the call and records a few counts.
``corpus`` imports ``merge_records`` and ``build_graph`` by name, and
``cli`` and ``learning`` do the same for ``build_transition`` and
``poprank_from_transition``, so those names are patched in the calling
module. ``cli`` imports the ``simulate`` function (not the module) by
name, so that too is patched in ``cli``. The two kernels are looked up on
``poprank._kernels`` at call time and are patched there.

The spans go to SPANS.json as a list of {name, start, end, parent, counts};
``layer_metrics`` turns them into the benchmark's per-layer metrics. The
end-to-end metrics never come from this script: tracing adds a Python
call per span, and the untraced runs measure the program alone.
"""

from __future__ import annotations

import json
import os
import sys
import time
from importlib import import_module

# Computed, not measured: bytes one power-iteration sweep of the numpy
# kernel touches. Per edge: source id, target id, probability and the
# gathered score (8 bytes each). Per object: score, prior, new score and
# pulled sum (8 bytes each).
BYTES_PER_EDGE_SWEEP = 32
BYTES_PER_OBJECT_SWEEP = 32


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, counts=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))


def _written(target, rows) -> dict:
    size = os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0
    return {"bytes": size, "rows": len(rows)}


def _solved(args, result):
    transition = args[0]
    return {"iterations": result.iterations, "edges": int(transition.targets.size),
            "objects": int(transition.num_objects)}


def install(tracer: Tracer) -> None:
    """Patch every traced name; the modules are imported here, not at load."""
    formats = import_module("poprank.formats")
    corpus = import_module("poprank.corpus")
    cli = import_module("poprank.cli")
    learning = import_module("poprank.learning")
    ranking = import_module("poprank.ranking")
    webpop = import_module("poprank.webpop")
    kernels = import_module("poprank._kernels")

    for attr in ("read_schemas", "read_objects", "read_links", "read_pages", "read_page_map",
                 "read_ppf", "read_expert"):
        tracer.patch(formats, attr, "formats.read", lambda a, r: {
            "rows": len(r[1]) if isinstance(r, tuple) else len(r)})
    # write_report(path, meta, rows); write_ppf(path, factors, meta)
    tracer.patch(formats, "write_report", "formats.write", lambda a, r: _written(a[0], a[2]))
    tracer.patch(formats, "write_ppf", "formats.write", lambda a, r: _written(a[0], a[1]))
    tracer.patch(corpus, "merge_records", "objects.merge",
                 lambda a, r: {"records": len(a[0]), "objects": len(r)})
    tracer.patch(corpus, "build_graph", "objects.build_graph", lambda a, r: {
        "kept": r[0].num_links, "dropped": len(r[1].dropped), "duplicates": r[1].duplicate_count})
    build = webpop.PageGraph.build.__func__
    webpop.PageGraph.build = classmethod(tracer.wrap("webpop.page_graph_build", build))
    tracer.patch(cli, "load_corpus", "corpus.load", lambda a, r: {"diag_lines": len(r.diagnostics)})
    tracer.patch(cli, "pagerank", "webpop.pagerank", lambda a, r: {"iterations": r.iterations})
    tracer.patch(cli, "web_popularity", "webpop.prior")
    for module in (cli, learning):
        tracer.patch(module, "build_transition", "ranking.build_transition")
        tracer.patch(module, "poprank_from_transition", "ranking.solve", _solved)
    tracer.patch(learning, "rank_disagreement", "learning.disagreement")
    tracer.patch(cli, "learn_ppf", "learning.learn", lambda a, r: {"evaluations": r.evaluations})
    tracer.patch(cli, "simulate", "simulate.simulate", lambda a, r: {"steps": a[2].steps})
    ranking.TransitionStructure.link_cdf = tracer.wrap(
        "simulate.link_cdf", ranking.TransitionStructure.link_cdf)
    tracer.patch(kernels, "power_iteration", "kernels.power_iteration")
    tracer.patch(kernels, "random_walk", "kernels.random_walk")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.wrap("import", install)(tracer)
    cli = sys.modules["poprank.cli"]
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


# ---- aggregation, used by run.py in the parent process --------------------

def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    A span's self time is its duration minus its direct children's.
    ``trace.coverage`` is the share of the traced process's wall time that
    the top-level spans (import plus ``cli.main``) account for, and
    ``trace.overhead_s`` is the traced wall time minus the untraced median.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _duration(span)

    def total(name):
        return sum(_duration(s) for s in spans if s["name"] == name)

    def self_time(name):
        return sum(_duration(s) - child_time[i] for i, s in enumerate(spans) if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def count(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in spans if s["name"] == name)

    solves = [s["counts"] for s in spans if s["name"] == "ranking.solve"]
    evals = count("learning.learn", "evaluations")
    steps = count("simulate.simulate", "steps")
    walk = total("simulate.simulate")
    top = sum(_duration(s) for s in spans if s["parent"] is None)
    return {
        "formats.read_s": total("formats.read"),
        "formats.rows_read": count("formats.read", "rows"),
        "formats.write_s": total("formats.write"),
        "formats.bytes_written": count("formats.write", "bytes"),
        "objects.merge_s": total("objects.merge"),
        "objects.records": count("objects.merge", "records"),
        "objects.objects": count("objects.merge", "objects"),
        "objects.build_graph_s": total("objects.build_graph"),
        "objects.links_kept": count("objects.build_graph", "kept"),
        "objects.links_dropped": count("objects.build_graph", "dropped"),
        "objects.link_duplicates": count("objects.build_graph", "duplicates"),
        "corpus.load_s": total("corpus.load"),
        "corpus.self_s": self_time("corpus.load"),
        "corpus.diag_lines": count("corpus.load", "diag_lines"),
        "webpop.page_graph_build_s": total("webpop.page_graph_build"),
        "webpop.pagerank_s": total("webpop.pagerank"),
        "webpop.pagerank_iters": count("webpop.pagerank", "iterations"),
        "webpop.prior_s": total("webpop.prior"),
        "ranking.build_transition_s": total("ranking.build_transition"),
        "ranking.build_transition_calls": calls("ranking.build_transition"),
        "ranking.solve_s": total("ranking.solve"),
        "ranking.solve_calls": len(solves),
        "ranking.solve_iters": sum(c["iterations"] for c in solves),
        "ranking.edge_visits": sum(c["iterations"] * c["edges"] for c in solves),
        "ranking.bytes_moved": sum(c["iterations"] * (BYTES_PER_EDGE_SWEEP * c["edges"]
                                                      + BYTES_PER_OBJECT_SWEEP * c["objects"])
                                   for c in solves),
        "learning.evals": evals,
        "learning.s_per_eval": total("learning.learn") / evals if evals else 0.0,
        "learning.disagreement_s": total("learning.disagreement"),
        "simulate.walk_s": walk,
        "simulate.ns_per_step": walk / steps * 1e9 if steps else 0.0,
        "simulate.predraw_s": self_time("simulate.simulate"),
        "simulate.uniforms_bytes": 8 * (steps + steps + calls("simulate.simulate")),
        "kernels.power_iteration_s": total("kernels.power_iteration"),
        "kernels.random_walk_s": total("kernels.random_walk"),
        "cli.total_s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "cli.report_rows": count("formats.write", "rows"),
        "trace.import_s": total("import"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": top / traced_wall,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

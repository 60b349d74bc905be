"""Command-line surface: ingest, rank, learn, simulate, compare.

Exit codes: 0 success, 2 input or validation error, 3 numeric
non-convergence when --fail-on-nonconverge is set. Reports go to stdout
unless --out is given; diagnostics always go to stderr. Output is
deterministic for fixed inputs, flags, and seeds; pass --timestamp to
stamp reports with wall-clock time (off by default so identical runs
stay byte-identical).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from collections import Counter
from datetime import datetime, timezone
from itertools import count
from pathlib import Path

import numpy as np

from . import __version__, formats
from .corpus import CorpusBundle, CorpusPaths, load_corpus, resolve_expert
from .errors import ConfigError, NonConvergenceWarning, PopRankError
from .learning import LearnConfig, kendall_tau, learn_ppf
from .ranking import (
    PopRankConfig,
    PpfAssignment,
    build_transition,
    poprank_from_transition,
    ranking_order,
    ranking_positions,
)
from .simulate import SimConfig, simulate, tv_distance
from .webpop import RankResult, check_damping, pagerank, web_popularity


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poprank", description="Object-level popularity ranking over typed web-object graphs.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("corpus", help="corpus directory (schemas.tsv, objects.tsv, links.tsv, pages.tsv, page_object_map.tsv)")
    common.add_argument("--strict", action="store_true", help="treat unresolved references as errors")
    common.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    common.add_argument("--timestamp", action="store_true",
                        help="stamp the report with wall-clock time (breaks byte-identical reruns)")
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--epsilon", type=float, default=0.15, help="restart probability (default 0.15)")
    solve.add_argument("--damping", type=float, default=0.85, help="page-level damping factor (default 0.85)")
    solve.add_argument("--tol", type=float, default=1e-10, help="L1 convergence tolerance (default 1e-10)")
    solve.add_argument("--max-iter", type=int, default=1000, help="iteration cap (default 1000)")
    solve.add_argument("--fail-on-nonconverge", action="store_true", help="exit 3 if any power iteration fails to converge")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", parents=[common], help="validate a corpus and print a summary")

    p_rank = sub.add_parser("rank", parents=[common, solve], help="compute object popularity scores")
    p_rank.add_argument("--ppf", type=Path, required=True, help="propagation factor file")

    p_learn = sub.add_parser("learn", parents=[common, solve, seeded], help="learn propagation factors from an expert ranking")
    p_learn.add_argument("--expert", type=Path, required=True, help="expert ranking file")
    p_learn.add_argument("--grid-resolution", type=int, default=5, help="grid levels per factor (default 5)")
    p_learn.add_argument("--refine-iters", type=int, default=200, help="refinement evaluation budget (default 200)")
    p_learn.add_argument("--refine-step", type=float, default=0.1, help="initial refinement step (default 0.1)")

    p_sim = sub.add_parser("simulate", parents=[common, solve, seeded], help="run the random object finder")
    p_sim.add_argument("--ppf", type=Path, required=True, help="propagation factor file")
    p_sim.add_argument("--steps", type=int, default=1_000_000, help="walk steps (default 1000000)")
    p_sim.add_argument("--burn-in", type=int, default=0, help="steps to discard before counting (default 0)")

    p_cmp = sub.add_parser("compare", parents=[common, solve], help="object-level vs page-level ordering")
    p_cmp.add_argument("--ppf", type=Path, required=True, help="propagation factor file")

    return parser


def _load(args) -> CorpusBundle:
    """The corpus, after writing its ``diag`` lines to stderr in one write."""
    bundle = load_corpus(CorpusPaths.in_dir(args.corpus), strict=args.strict)
    sys.stderr.write("".join(f"diag\t{line}\n" for line in bundle.diagnostics))
    return bundle


def _load_ppf(path: Path, bundle: CorpusBundle) -> PpfAssignment:
    factors = formats.read_ppf(path)
    missing = [rt.rel_name for rt in bundle.graph.relationship_types if rt.rel_name not in factors]
    if missing:
        raise ConfigError(f"ppf file {path} has no factor for relationship type(s): {', '.join(missing)}")
    return PpfAssignment(factors)


def _prior(bundle: CorpusBundle, args) -> tuple[np.ndarray, RankResult | None]:
    """PageRank over pages, projected through the page-object map."""
    if bundle.graph.num_objects == 0:
        raise ConfigError("corpus contains no objects")
    page_result = (pagerank(bundle.page_graph, args.damping, args.tol, args.max_iter)
                   if bundle.page_graph.num_pages else None)
    page_scores = np.empty(0) if page_result is None else page_result.scores
    return web_popularity(bundle.graph.num_objects, page_scores, bundle.page_map), page_result


def _poprank_config(args) -> PopRankConfig | None:
    """The solve's config, or None for simulate's restart-only walk
    (epsilon 1). Every solver flag is checked here, --damping as pagerank
    checks it, so a bad one is reported before the corpus is read."""
    if args.command == "simulate" and args.epsilon == 1.0:
        # nothing is solved, but tol and max_iter are checked all the same
        PopRankConfig(tol=args.tol, max_iter=args.max_iter)
        cfg = None
    else:
        cfg = PopRankConfig(epsilon=args.epsilon, tol=args.tol, max_iter=args.max_iter)
    check_damping(args.damping)
    return cfg


def _solve(args, cfg: PopRankConfig | None):
    """(bundle, ppf, prior, page_result, transition, result) for the corpus.

    Without cfg (restart only, epsilon 1) every step restarts, so the
    result is the prior.
    """
    bundle = _load(args)
    ppf = _load_ppf(args.ppf, bundle)
    prior, page_result = _prior(bundle, args)
    transition = build_transition(bundle.graph, ppf)
    result = (RankResult(prior, 0, 0.0, True) if cfg is None
              else poprank_from_transition(transition, prior, cfg))
    return bundle, ppf, prior, page_result, transition, result


def _base_meta(args, command: str) -> list[tuple[str, str]]:
    meta = [("command", command)]
    if args.timestamp:
        meta.append(("timestamp", datetime.now(timezone.utc).isoformat()))
    return meta


def _convergence_meta(name: str, result: RankResult | None) -> list[tuple[str, str]]:
    if result is None:
        return []
    return [(f"{name}-iterations", str(result.iterations)),
            (f"{name}-residual", repr(result.residual)),
            (f"{name}-converged", str(result.converged).lower())]


class _NotConverged(Exception):
    """A solve did not converge under --fail-on-nonconverge: exit 3, after the report."""


def _check_convergence(args, *results: RankResult | None) -> None:
    failed = [r for r in results if r is not None and not r.converged]
    if failed and args.fail_on_nonconverge:
        raise _NotConverged(f"power iteration did not converge (residual {failed[0].residual:.3e})")


def _write_report(args, meta, lines: list[str]) -> None:
    formats.write_report(sys.stdout if args.out is None else args.out, meta, lines)


def cmd_ingest(args) -> None:
    bundle = _load(args)
    graph = bundle.graph
    lines = [f"objects\t{graph.num_objects}", f"pages\t{bundle.page_graph.num_pages}",
             f"hyperlinks\t{bundle.page_graph.num_edges}",
             f"map-entries\t{len(bundle.page_map.pages)}", f"links\t{graph.num_links}"]
    lines += [f"objects[{name}]\t{n}" for name, n in sorted(Counter(graph.objects.type_names).items())]
    lines += [f"links[{rt.rel_name}]\t{len(graph.links[rt.rel_name])}"
              for rt in graph.relationship_types]
    _write_report(args, _base_meta(args, "ingest"), lines)


def _in_order(bundle: CorpusBundle, order: np.ndarray, *columns: np.ndarray) -> tuple[list, ...]:
    """Every object's ref, then each per-object column as a list, in
    ``order``. A ref is ``type_name<TAB>key``, so it fills a report's type
    and key columns."""
    refs = bundle.graph.objects.references  # in row (object id) order
    return ([refs[i] for i in order.tolist()], *(column[order].tolist() for column in columns))


def cmd_rank(args) -> None:
    bundle, ppf, _, page_result, _, result = _solve(args, _poprank_config(args))

    meta = _base_meta(args, "rank")
    meta += [("epsilon", repr(args.epsilon)), ("damping", repr(args.damping)),
             ("tol", repr(args.tol)), ("max-iter", str(args.max_iter))]
    meta += [(f"gamma[{name}]", repr(float(g))) for name, g in sorted(ppf.factors.items())]
    meta += _convergence_meta("pagerank", page_result)
    meta += _convergence_meta("poprank", result)
    refs, scores = _in_order(bundle, ranking_order(result.scores), result.scores)
    _write_report(args, meta, [f"{k}\t{ref}\t{s!r}" for k, ref, s in zip(count(1), refs, scores)])
    _check_convergence(args, page_result, result)


def cmd_learn(args) -> None:
    cfg = LearnConfig(grid_resolution=args.grid_resolution, refine_iters=args.refine_iters,
                      refine_step=args.refine_step, rng_seed=args.seed,
                      poprank_cfg=_poprank_config(args))
    bundle = _load(args)
    expert = resolve_expert(bundle, args.expert)
    prior, page_result = _prior(bundle, args)
    result = learn_ppf(bundle.graph, prior, expert, cfg)

    meta = _base_meta(args, "learn")
    meta += [("violations", str(result.violations)), ("total-pairs", str(result.total)),
             ("evaluations", str(result.evaluations)),
             ("grid-violations", str(result.grid_violations)),
             ("seed", str(args.seed))]
    if len(bundle.graph.relationship_types) == 1:
        warning = ("warning", "single relationship type: factors are unidentifiable up to scale")
        meta.append(warning)
        print(f"diag\t{warning[0]}\t{warning[1]}", file=sys.stderr)
    _write_report(args, meta, [f"{name}\t{float(g)!r}"
                               for name, g in result.assignment.factors.items()])
    _check_convergence(args, page_result)
    if result.nonconverged and args.fail_on_nonconverge:
        raise _NotConverged(f"{result.nonconverged} poprank solve(s) did not converge")


def cmd_simulate(args) -> None:
    cfg = _poprank_config(args)
    sim_cfg = SimConfig(steps=args.steps, rng_seed=args.seed, epsilon=args.epsilon,
                        burn_in=args.burn_in)
    bundle, _, prior, page_result, transition, analytic = _solve(args, cfg)
    hist = simulate(transition, prior, sim_cfg)
    tv = tv_distance(hist.empirical, analytic.scores)

    meta = _base_meta(args, "simulate")
    meta += [("epsilon", repr(args.epsilon)), ("steps", str(args.steps)),
             ("burn-in", str(args.burn_in)), ("seed", str(args.seed)),
             ("tv-distance", repr(tv))]
    meta += _convergence_meta("poprank", analytic)

    columns = _in_order(bundle, ranking_order(analytic.scores), analytic.scores, hist.empirical,
                        hist.counts)
    _write_report(args, meta, [f"{k}\t{ref}\t{s!r}\t{e!r}\t{c}"
                               for k, ref, s, e, c in zip(count(1), *columns)])
    _check_convergence(args, page_result, analytic)


def cmd_compare(args) -> None:
    bundle, _, prior, page_result, _, result = _solve(args, _poprank_config(args))

    object_positions = ranking_positions(result.scores)
    page_positions = ranking_positions(prior)
    tau = kendall_tau(object_positions, page_positions)

    meta = _base_meta(args, "compare")
    meta += [("kendall-tau", repr(tau)), ("epsilon", repr(args.epsilon)),
             ("damping", repr(args.damping))]
    meta += _convergence_meta("poprank", result)

    columns = _in_order(bundle, ranking_order(result.scores), result.scores, prior,
                        page_positions + 1)
    _write_report(args, meta, [f"{ref}\t{s!r}\t{k}\t{p!r}\t{page_k}"
                               for k, ref, s, p, page_k in zip(count(1), *columns)])
    _check_convergence(args, page_result, result)


_COMMANDS = {
    "ingest": cmd_ingest,
    "rank": cmd_rank,
    "learn": cmd_learn,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def _emit_warnings(caught: list[warnings.WarningMessage]) -> None:
    """One ``diag`` line per kind of solve that did not converge, with its
    count and worst residual, in one write; any other warning as Python
    shows it."""
    failed: dict[str, tuple[int, float]] = {}
    for w in caught:
        if isinstance(w.message, NonConvergenceWarning):
            solves, worst = failed.get(w.message.solver, (0, 0.0))
            failed[w.message.solver] = solves + 1, max(worst, w.message.residual)
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    sys.stderr.write("".join(
        f"diag\tnonconverged\t{solver}\tcount={solves}\tworst-residual={worst!r}\n"
        for solver, (solves, worst) in failed.items()))


def main(argv: list[str] | None = None) -> int:
    """Run one command; its convergence warnings become ``diag`` lines,
    written before any ``error:`` line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonConvergenceWarning)
        try:
            _COMMANDS[args.command](args)
            code = 0
        except _NotConverged as err:
            code, error = 3, err
        except (PopRankError, OSError) as err:
            code, error = 2, err
    _emit_warnings(caught)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

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
from collections.abc import Iterator
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, formats
from .corpus import CorpusBundle, CorpusPaths, load_corpus, resolve_expert
from .errors import ConfigError, PopRankError
from .learning import LearnConfig, kendall_tau, learn_ppf
from .ranking import (
    PopRankConfig,
    PpfAssignment,
    build_transition,
    poprank_from_transition,
    ranking_positions,
)
from .simulate import SimConfig, simulate, tv_distance
from .webpop import RankResult, pagerank, web_popularity


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poprank",
        description="Object-level popularity ranking over typed web-object graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("corpus", help="corpus directory (schemas.tsv, objects.tsv, links.tsv, pages.tsv, page_object_map.tsv)")
    common.add_argument("--epsilon", type=float, default=0.15, help="restart probability (default 0.15)")
    common.add_argument("--damping", type=float, default=0.85, help="page-level damping factor (default 0.85)")
    common.add_argument("--tol", type=float, default=1e-10, help="L1 convergence tolerance (default 1e-10)")
    common.add_argument("--max-iter", type=int, default=1000, help="iteration cap (default 1000)")
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--strict", action="store_true", help="treat unresolved references as errors")
    common.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    common.add_argument("--fail-on-nonconverge", action="store_true",
                        help="exit 3 if any power iteration fails to converge")
    common.add_argument("--timestamp", action="store_true",
                        help="stamp the report with wall-clock time (breaks byte-identical reruns)")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", parents=[common], help="validate a corpus and print a summary")

    p_rank = sub.add_parser("rank", parents=[common], help="compute object popularity scores")
    p_rank.add_argument("--ppf", type=Path, required=True, help="propagation factor file")

    p_learn = sub.add_parser("learn", parents=[common], help="learn propagation factors from an expert ranking")
    p_learn.add_argument("--expert", type=Path, required=True, help="expert ranking file")
    p_learn.add_argument("--grid-resolution", type=int, default=5, help="grid levels per factor (default 5)")
    p_learn.add_argument("--refine-iters", type=int, default=200, help="refinement evaluation budget (default 200)")
    p_learn.add_argument("--refine-step", type=float, default=0.1, help="initial refinement step (default 0.1)")

    p_sim = sub.add_parser("simulate", parents=[common], help="run the random object finder")
    p_sim.add_argument("--ppf", type=Path, required=True, help="propagation factor file")
    p_sim.add_argument("--steps", type=int, default=1_000_000, help="walk steps (default 1000000)")
    p_sim.add_argument("--burn-in", type=int, default=0, help="steps to discard before counting (default 0)")

    p_cmp = sub.add_parser("compare", parents=[common], help="object-level vs page-level ordering")
    p_cmp.add_argument("--ppf", type=Path, required=True, help="propagation factor file")

    return parser


def _emit_diagnostics(bundle: CorpusBundle) -> None:
    for line in bundle.diagnostics:
        print(f"diag\t{line}", file=sys.stderr)


def _load(args) -> CorpusBundle:
    bundle = load_corpus(CorpusPaths.in_dir(args.corpus), strict=args.strict)
    _emit_diagnostics(bundle)
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
    page_result: RankResult | None = None
    if bundle.page_graph.num_pages > 0:
        page_result = pagerank(bundle.page_graph, args.damping, args.tol, args.max_iter)
        page_scores = page_result.scores
    else:
        page_scores = np.empty(0)
    prior = web_popularity(bundle.graph.num_objects, page_scores, bundle.page_map)
    return prior, page_result


def _solve(args, restart_only: bool = False):
    """(bundle, ppf, prior, page_result, transition, result) for the corpus.

    With restart_only (epsilon 1) every step restarts, so the result is the prior.
    """
    bundle = _load(args)
    ppf = _load_ppf(args.ppf, bundle)
    prior, page_result = _prior(bundle, args)
    transition = build_transition(bundle.graph, ppf)
    if restart_only:
        result = RankResult(prior, 0, 0.0, True)
    else:
        cfg = PopRankConfig(epsilon=args.epsilon, tol=args.tol, max_iter=args.max_iter)
        result = poprank_from_transition(transition, prior, cfg)
    return bundle, ppf, prior, page_result, transition, result


def _base_meta(args, command: str) -> list[tuple[str, str]]:
    meta = [("command", command)]
    if args.timestamp:
        meta.append(("timestamp", datetime.now(timezone.utc).isoformat()))
    return meta


def _convergence_meta(name: str, result: RankResult | None) -> list[tuple[str, str]]:
    if result is None:
        return []
    return [
        (f"{name}-iterations", str(result.iterations)),
        (f"{name}-residual", repr(result.residual)),
        (f"{name}-converged", str(result.converged).lower()),
    ]


def _check_convergence(args, *results: RankResult | None) -> int:
    failed = [r for r in results if r is not None and not r.converged]
    if failed and args.fail_on_nonconverge:
        print(f"error: power iteration did not converge (residual {failed[0].residual:.3e})",
              file=sys.stderr)
        return 3
    return 0


def _write_report(args, meta, rows) -> None:
    if args.out is None:
        formats.write_report(sys.stdout, meta, rows)
    else:
        formats.write_report(args.out, meta, rows)


def cmd_ingest(args) -> int:
    bundle = _load(args)
    graph = bundle.graph
    by_type: dict[str, int] = {}
    for obj in graph.objects:
        by_type[obj.type_name] = by_type.get(obj.type_name, 0) + 1
    rows = [("objects", str(graph.num_objects)), ("pages", str(bundle.page_graph.num_pages)),
            ("hyperlinks", str(bundle.page_graph.num_edges)),
            ("map-entries", str(len(bundle.page_map.entries))),
            ("links", str(graph.num_links))]
    rows += [(f"objects[{name}]", str(count)) for name, count in sorted(by_type.items())]
    rows += [
        (f"links[{rt.rel_name}]", str(len(graph.links[rt.rel_name])))
        for rt in graph.relationship_types
    ]
    _write_report(args, _base_meta(args, "ingest"), rows)
    return 0


def _ranked_objects(bundle: CorpusBundle, positions: np.ndarray) -> Iterator[tuple[int, str, str]]:
    """(object_id, type_name, key) for every object, in order of rank position."""
    objects = bundle.graph.objects
    schemas = {schema.type_name: schema for schema in bundle.registry}
    for object_id in np.argsort(positions).tolist():
        obj = objects[object_id]
        yield object_id, obj.type_name, "|".join(obj.key_tuple(schemas[obj.type_name]))


def cmd_rank(args) -> int:
    bundle, ppf, _, page_result, _, result = _solve(args)

    meta = _base_meta(args, "rank")
    meta += [("epsilon", repr(args.epsilon)), ("damping", repr(args.damping)),
             ("tol", repr(args.tol)), ("max-iter", str(args.max_iter))]
    meta += [(f"gamma[{name}]", repr(float(g))) for name, g in sorted(ppf.factors.items())]
    meta += _convergence_meta("pagerank", page_result)
    meta += _convergence_meta("poprank", result)
    positions = ranking_positions(result.scores)
    position, score = positions.tolist(), result.scores.tolist()
    rows = [
        (str(position[i] + 1), type_name, key, repr(score[i]))
        for i, type_name, key in _ranked_objects(bundle, positions)
    ]
    _write_report(args, meta, rows)
    return _check_convergence(args, page_result, result)


def cmd_learn(args) -> int:
    bundle = _load(args)
    expert = resolve_expert(bundle, args.expert)
    prior, page_result = _prior(bundle, args)
    cfg = LearnConfig(
        grid_resolution=args.grid_resolution,
        refine_iters=args.refine_iters,
        refine_step=args.refine_step,
        rng_seed=args.seed,
        poprank_cfg=PopRankConfig(epsilon=args.epsilon, tol=args.tol, max_iter=args.max_iter),
    )
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
    factors = {name: float(g) for name, g in result.assignment.factors.items()}
    if args.out is None:
        formats.write_report(sys.stdout, meta, [(n, repr(g)) for n, g in factors.items()])
    else:
        formats.write_ppf(args.out, factors, meta)
    return _check_convergence(args, page_result)


def cmd_simulate(args) -> int:
    bundle, _, prior, page_result, transition, analytic = _solve(args, args.epsilon == 1.0)
    hist = simulate(
        transition,
        prior,
        SimConfig(steps=args.steps, rng_seed=args.seed, epsilon=args.epsilon, burn_in=args.burn_in),
    )
    tv = tv_distance(hist.empirical, analytic.scores)

    meta = _base_meta(args, "simulate")
    meta += [("epsilon", repr(args.epsilon)), ("steps", str(args.steps)),
             ("burn-in", str(args.burn_in)), ("seed", str(args.seed)),
             ("tv-distance", repr(tv))]
    meta += _convergence_meta("poprank", analytic)

    positions = ranking_positions(analytic.scores)
    position, score = positions.tolist(), analytic.scores.tolist()
    empirical, counts = hist.empirical.tolist(), hist.counts.tolist()
    rows = [
        (str(position[i] + 1), type_name, key, repr(score[i]), repr(empirical[i]), str(counts[i]))
        for i, type_name, key in _ranked_objects(bundle, positions)
    ]
    _write_report(args, meta, rows)
    return _check_convergence(args, page_result, analytic)


def cmd_compare(args) -> int:
    bundle, _, prior, page_result, _, result = _solve(args)

    object_positions = ranking_positions(result.scores)
    page_positions = ranking_positions(prior)
    tau = kendall_tau(object_positions, page_positions)

    meta = _base_meta(args, "compare")
    meta += [("kendall-tau", repr(tau)), ("epsilon", repr(args.epsilon)),
             ("damping", repr(args.damping))]
    meta += _convergence_meta("poprank", result)

    position, score = object_positions.tolist(), result.scores.tolist()
    page_position, prior_score = page_positions.tolist(), prior.tolist()
    rows = [
        (type_name, key, repr(score[i]), str(position[i] + 1),
         repr(prior_score[i]), str(page_position[i] + 1))
        for i, type_name, key in _ranked_objects(bundle, object_positions)
    ]
    _write_report(args, meta, rows)
    return _check_convergence(args, page_result, result)


_COMMANDS = {
    "ingest": cmd_ingest,
    "rank": cmd_rank,
    "learn": cmd_learn,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PopRankError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Learning propagation factors from expert partial rankings.

The training signal is a set of strict "ranks-above" constraints. The
objective is the number of constraint pairs the induced popularity order
gets wrong (ties count as wrong); it is piecewise constant in the
factors, so the search is derivative-free: an exhaustive factor grid
followed by coordinate-wise local refinement with a shrinking step.

Each evaluation is one PopRank solve on the same graph. The graph's
``LinkStructure`` is built once and reweighted per factor vector. Each
solve starts from the scores of the nearest of the last NEAREST_STARTS
vectors solved, by L1 distance between factors divided by their sum (a
warm start), and it stops as soon as the order of every expert pair is
settled: the objective reads only those signs, and the stop is taken
only where they are already those of a solve run to the tolerance (see
``poprank_from_transition``). A vector is kept only when it violates
fewer pairs than the incumbent, so each solve is also passed the
incumbent's violations as ``reject``: it stops, under the same bound and
guards, once that many pairs are settled the wrong way round, where the
vector provably cannot win. Why the memo needs no flag for such a solve
is argued at the memo in ``learn_ppf``. A solve is memoized by the
vector's ``LinkStructure.ratios`` table, each type's share of the
factors an object can follow, of which the reweighted arrays are a
function: a repeated vector, or one that changes only the factor of a
type no object follows together with another, is neither reweighted nor
solved again. ``evaluations`` still counts every call of the objective.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GraphError, check_count
from .objects import ObjectGraph
from .ranking import (  # noqa: F401 -- perfbench/traced.py patches build_transition here
    LinkStructure,
    PopRankConfig,
    PpfAssignment,
    build_transition,
    poprank_from_transition,
)

GRID_EVAL_CAP = 10_000
NEAREST_STARTS = 8  # score vectors kept to start solves from


@dataclass(frozen=True)
class PartialRanking:
    """Strict ordering constraints: each pair (higher, lower) means the
    expert ranks the first object strictly above the second.

    ``high`` and ``low`` hold the pairs' two sides as int64 arrays.
    """

    pairs: tuple[tuple[int, int], ...]
    high: np.ndarray = field(init=False, repr=False, compare=False)
    low: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cleaned: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for high, low in self.pairs:
            pair = (int(high), int(low))
            if pair[0] == pair[1]:
                raise ConfigError(f"constraint pairs object {pair[0]} with itself")
            if (pair[1], pair[0]) in seen:
                raise ConfigError(f"contradictory constraints for objects {pair[0]} and {pair[1]}")
            if pair in seen:
                continue
            seen.add(pair)
            cleaned.append(pair)
        object.__setattr__(self, "pairs", tuple(cleaned))
        object.__setattr__(self, "high", np.array([p[0] for p in cleaned], np.int64))
        object.__setattr__(self, "low", np.array([p[1] for p in cleaned], np.int64))

    @classmethod
    def from_order(cls, ordered_ids: Sequence[int]) -> "PartialRanking":
        """Expand a full order (best first) into all implied pairs."""
        ids = [int(i) for i in ordered_ids]
        if len(set(ids)) != len(ids):
            raise ConfigError("ordered ranking lists an object twice")
        pairs = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
        return cls(tuple(pairs))


def rank_disagreement(scores: np.ndarray, expert: PartialRanking) -> tuple[int, int]:
    """Count expert pairs the scores get wrong. Ties count as violations.

    Returns (violations, total constraint pairs). Raises ConfigError on
    non-finite scores, which would otherwise count as agreeing.
    """
    scores = np.asarray(scores, np.float64)
    if not np.all(np.isfinite(scores)):
        raise ConfigError("scores must be finite to compare with an expert ranking")
    if not expert.pairs:
        return 0, 0
    _check_ids(expert, scores.shape[0])
    violations = int(np.count_nonzero(scores[expert.high] <= scores[expert.low]))
    return violations, len(expert.pairs)


def _check_ids(expert: PartialRanking, num_objects: int) -> None:
    high, low = expert.high, expert.low
    if min(high.min(), low.min()) < 0 or max(high.max(), low.max()) >= num_objects:
        raise GraphError("expert constraint references an unknown object")


@dataclass(frozen=True)
class LearnConfig:
    """Search configuration.

    grid_resolution levels per factor span [0.05, 1]; the default 5
    gives {0.05, 0.25, 0.5, 0.75, 1.0}. When the full grid exceeds
    10,000 combinations, 10,000 are sampled uniformly under rng_seed.
    refine_step is halved whenever a full coordinate sweep fails to
    improve; refinement stops after refine_iters objective evaluations
    or at zero violations.
    """

    grid_resolution: int = 5
    refine_iters: int = 200
    refine_step: float = 0.1
    rng_seed: int = 0
    poprank_cfg: PopRankConfig = PopRankConfig()

    def __post_init__(self):
        check_count("grid_resolution", self.grid_resolution, 2)
        check_count("refine_iters", self.refine_iters, 0)
        if not 0.0 < self.refine_step <= 1.0:
            raise ConfigError(f"refine_step must lie in (0, 1], got {self.refine_step}")
        check_count("rng_seed", self.rng_seed, 0)

    def grid_levels(self, indices) -> np.ndarray:
        """The factor levels at the given grid indices, without building the grid.

        Level j is ``np.linspace(0, 1, grid_resolution)[j]``, computed as
        linspace computes it, except that level 0 is 0.05: gamma 0 would
        delete the type outright.
        """
        j = np.asarray(indices)
        last = self.grid_resolution - 1
        levels = j * (1.0 / last)
        levels[j == 0] = 0.05
        levels[j == last] = 1.0
        return levels


@dataclass
class LearnResult:
    """The learned factors and their violations; ``nonconverged`` counts
    the solves that stopped at max_iter without converging."""

    assignment: PpfAssignment
    violations: int
    total: int
    evaluations: int
    grid_violations: int
    nonconverged: int = 0


def _grid_combinations(cfg: LearnConfig, k: int):
    """All grid_resolution^k factor vectors, or a seeded uniform sample of
    10,000 when the full grid is larger. Only the levels used are computed,
    so memory does not grow with grid_resolution."""
    res = cfg.grid_resolution
    if res**k <= GRID_EVAL_CAP:
        return itertools.product(cfg.grid_levels(np.arange(res)).tolist(), repeat=k)
    picks = np.random.default_rng(cfg.rng_seed).integers(0, res, size=(GRID_EVAL_CAP, k))
    return (tuple(row.tolist()) for row in cfg.grid_levels(picks))


def learn_ppf(graph: ObjectGraph, prior: np.ndarray, expert: PartialRanking,
              cfg: LearnConfig = LearnConfig()) -> LearnResult:
    """Search for factors whose induced order agrees with the expert.

    Phase 1 scores every grid combination (or a seeded uniform sample of
    10,000 when the grid is larger) and keeps the first-best. Phase 2
    perturbs one factor at a time by +-refine_step (clamped to
    [0.01, 1]), keeping a perturbation only when violations strictly
    drop, halving the step after a sweep with no improvement. Ties are
    broken by evaluation order, so identical inputs and seed give an
    identical result.
    """
    if not graph.relationship_types:
        raise ConfigError("graph declares no relationship types")
    if not expert.pairs:
        raise ConfigError("expert ranking is empty")
    _check_ids(expert, graph.num_objects)

    names = [rt.rel_name for rt in graph.relationship_types]
    k = len(names)
    links = LinkStructure.from_graph(graph)
    evaluations = nonconverged = 0
    # The violations of the scores each ratios table's solve stopped on. A
    # vector is kept only when it gets fewer pairs wrong than the incumbent,
    # so each solve is passed the incumbent's violations as ``reject``. A
    # solve that stops by reject stores a count at or above that threshold,
    # and a solve to the tolerance would get at least as many pairs wrong;
    # any other stop stores the count of a solve to the tolerance. The
    # incumbent's violations never rise, so a stored count is at or above
    # every later threshold wherever it is not exact: each comparison with
    # it answers as a solve to the tolerance would, a rejected vector never
    # becomes the incumbent, and no entry needs a flag or a second solve.
    violations_of: dict[bytes, int] = {}
    # (factors / factors.sum(), scores) of the latest solves, rejected ones
    # included; each solve starts from the scores of the nearest in L1
    solved: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=NEAREST_STARTS)

    def objective(vector: Sequence[float], reject: int | None) -> int:
        nonlocal evaluations, nonconverged
        evaluations += 1
        ppf = PpfAssignment(dict(zip(names, vector)))
        key = links.ratios(ppf).tobytes()
        if key not in violations_of:
            shares = np.array(vector, np.float64)
            shares /= shares.sum()
            # min keeps the first of equals: the latest solve wins a tie
            _, start = min(reversed(solved), key=lambda pair: np.abs(pair[0] - shares).sum(),
                           default=(None, None))
            result = poprank_from_transition(links.reweight(ppf), prior, cfg.poprank_cfg, start,
                                             pairs=(expert.high, expert.low), reject=reject)
            solved.append((shares, result.scores))
            nonconverged += not result.converged
            violations_of[key], _ = rank_disagreement(result.scores, expert)
        return violations_of[key]

    best_vec: tuple[float, ...] | None = None
    best_violations = -1
    for vec in _grid_combinations(cfg, k):
        violations = objective(vec, None if best_vec is None else best_violations)
        if best_vec is None or violations < best_violations:
            best_vec, best_violations = vec, violations
            if violations == 0:
                break
    assert best_vec is not None
    grid_violations = best_violations

    current = list(best_vec)
    current_violations = best_violations
    step = cfg.refine_step
    refine_evals = 0
    while current_violations > 0 and refine_evals < cfg.refine_iters:
        improved = False
        evaluated_any = False
        for i in range(k):
            if current_violations == 0 or refine_evals >= cfg.refine_iters:
                break
            for delta in (step, -step):
                candidate = min(1.0, max(0.01, current[i] + delta))
                if candidate == current[i]:
                    continue
                trial = list(current)
                trial[i] = candidate
                violations = objective(trial, current_violations)
                refine_evals += 1
                evaluated_any = True
                if violations < current_violations:
                    current, current_violations = trial, violations
                    improved = True
                    break
                if refine_evals >= cfg.refine_iters:
                    break
        if not improved:
            if not evaluated_any:
                break  # step too small to move any coordinate off its clamp
            step /= 2.0

    return LearnResult(assignment=PpfAssignment(dict(zip(names, current))),
                       violations=current_violations, total=len(expert.pairs),
                       evaluations=evaluations, grid_violations=grid_violations,
                       nonconverged=nonconverged)


def _inversions(seq: np.ndarray) -> int:
    """Pairs i < j with seq[i] > seq[j], by a bottom-up merge sort: at each
    level the runs of one width are sorted, and every item of a right run
    counts the larger items of its left run by binary search."""
    n = len(seq)
    values = np.unique(seq, return_inverse=True)[1].astype(np.int64)  # in [0, n)
    at = np.arange(n)
    inversions, width = 0, 1
    while width < n:
        # each pair of runs is offset by its index * n, so all left runs
        # form one sorted array and a level is one sort and one searchsorted pair
        offset = at // (2 * width) * n
        keys = values + offset
        right = at // width % 2 == 1
        left = keys[~right]
        inversions += int((np.searchsorted(left, offset[right] + n)
                           - np.searchsorted(left, keys[right], "right")).sum())
        values = np.sort(keys, kind="stable") - offset
        width *= 2
    return inversions


def kendall_tau(ranks_a: np.ndarray, ranks_b: np.ndarray) -> float:
    """Rank correlation between two orderings given as positions per item.

    1.0 for identical orderings, -1.0 for exact reversal. Defined as 1.0
    for fewer than two items. Raises ConfigError unless both are finite
    1-d arrays of one shape.
    """
    ranks_a = np.asarray(ranks_a)
    ranks_b = np.asarray(ranks_b)
    if ranks_a.shape != ranks_b.shape:
        raise ConfigError("orderings must cover the same items")
    if ranks_a.ndim != 1 or not all(r.dtype.kind in "biuf" and np.isfinite(r).all()
                                    for r in (ranks_a, ranks_b)):
        raise ConfigError("orderings must be finite 1-d arrays of positions")
    n = ranks_a.shape[0]
    if n < 2:
        return 1.0
    inversions = _inversions(ranks_b[np.argsort(ranks_a, kind="stable")])
    return 1.0 - 4.0 * inversions / (n * (n - 1))

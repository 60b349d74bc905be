"""Learning propagation factors from expert partial rankings.

The training signal is a set of strict "ranks-above" constraints. The
objective is the number of constraint pairs the induced popularity order
gets wrong (ties count as wrong); it is piecewise constant in the
factors, so the search is derivative-free: an exhaustive factor grid
followed by coordinate-wise local refinement with a shrinking step.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GraphError
from .objects import ObjectGraph
from .ranking import PopRankConfig, PpfAssignment, build_transition, poprank_from_transition

GRID_EVAL_CAP = 10_000


@dataclass(frozen=True)
class PartialRanking:
    """Strict ordering constraints: each pair (higher, lower) means the
    expert ranks the first object strictly above the second."""

    pairs: tuple[tuple[int, int], ...]

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

    Returns (violations, total constraint pairs).
    """
    if not expert.pairs:
        return 0, 0
    scores = np.asarray(scores, np.float64)
    n = scores.shape[0]
    high = np.array([p[0] for p in expert.pairs], np.int64)
    low = np.array([p[1] for p in expert.pairs], np.int64)
    ids = np.concatenate([high, low])
    if ids.min() < 0 or ids.max() >= n:
        raise GraphError("expert constraint references an unknown object")
    violations = int(np.count_nonzero(scores[high] <= scores[low]))
    return violations, len(expert.pairs)


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
        if self.grid_resolution < 2:
            raise ConfigError(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        if self.refine_iters < 0:
            raise ConfigError(f"refine_iters must be >= 0, got {self.refine_iters}")
        if not 0.0 < self.refine_step <= 1.0:
            raise ConfigError(f"refine_step must lie in (0, 1], got {self.refine_step}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")

    def grid_levels(self) -> np.ndarray:
        levels = np.linspace(0.0, 1.0, self.grid_resolution)
        levels[0] = 0.05  # gamma 0 would delete the type outright
        return levels


@dataclass
class LearnResult:
    assignment: PpfAssignment
    violations: int
    total: int
    evaluations: int
    grid_violations: int


def _grid_combinations(levels: np.ndarray, k: int, rng_seed: int):
    """All |levels|^k factor vectors, or a seeded uniform sample of 10,000
    when the full grid is larger."""
    if len(levels) ** k <= GRID_EVAL_CAP:
        return itertools.product((float(g) for g in levels), repeat=k)
    rng = np.random.default_rng(rng_seed)
    picks = rng.integers(0, len(levels), size=(GRID_EVAL_CAP, k))
    return (tuple(float(levels[j]) for j in row) for row in picks)


def learn_ppf(
    graph: ObjectGraph,
    prior: np.ndarray,
    expert: PartialRanking,
    cfg: LearnConfig = LearnConfig(),
) -> LearnResult:
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

    names = [rt.rel_name for rt in graph.relationship_types]
    k = len(names)
    levels = cfg.grid_levels()
    evaluations = 0

    def objective(vector: Sequence[float]) -> int:
        nonlocal evaluations
        evaluations += 1
        ppf = PpfAssignment(dict(zip(names, vector)))
        result = poprank_from_transition(build_transition(graph, ppf), prior, cfg.poprank_cfg)
        violations, _ = rank_disagreement(result.scores, expert)
        return violations

    combos = _grid_combinations(levels, k, cfg.rng_seed)
    best_vec: tuple[float, ...] | None = None
    best_violations = -1
    for vec in combos:
        vec = tuple(vec)
        violations = objective(vec)
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
                violations = objective(trial)
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

    assignment = PpfAssignment(dict(zip(names, current)))
    return LearnResult(
        assignment=assignment,
        violations=current_violations,
        total=len(expert.pairs),
        evaluations=evaluations,
        grid_violations=grid_violations,
    )


def _merge_count(seq: list[int]) -> tuple[list[int], int]:
    if len(seq) < 2:
        return seq, 0
    mid = len(seq) // 2
    left, inv_left = _merge_count(seq[:mid])
    right, inv_right = _merge_count(seq[mid:])
    merged: list[int] = []
    inversions = inv_left + inv_right
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            inversions += len(left) - i
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inversions


def kendall_tau(ranks_a: np.ndarray, ranks_b: np.ndarray) -> float:
    """Rank correlation between two orderings given as positions per item.

    1.0 for identical orderings, -1.0 for exact reversal. Defined as 1.0
    for fewer than two items.
    """
    ranks_a = np.asarray(ranks_a)
    ranks_b = np.asarray(ranks_b)
    if ranks_a.shape != ranks_b.shape:
        raise ConfigError("orderings must cover the same items")
    n = ranks_a.shape[0]
    if n < 2:
        return 1.0
    sequence = [int(x) for x in ranks_b[np.argsort(ranks_a, kind="stable")]]
    _, inversions = _merge_count(sequence)
    return 1.0 - 4.0 * inversions / (n * (n - 1))

"""PPF-weighted object ranking.

Each relationship type carries a popularity propagation factor gamma in
[0, 1]. From an object, the walk first splits its mass across the
relationship types it can actually follow (proportionally to their
factors), then uniformly across that type's out-links. Objects with no
followable out-link are dangling; their mass restarts to the
web-popularity prior, as does an epsilon share of everything each step.
The fixed point of

    scores = epsilon * prior + (1 - epsilon) * (pulled_along_links + dangling_mass * prior)

is the popularity vector, computed by power iteration from the prior.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, NonConvergenceWarning
from .objects import ObjectGraph
from .webpop import RankResult


@dataclass(frozen=True)
class PpfAssignment:
    """One propagation factor per relationship type, each in [0, 1].

    Only factor ratios matter: scaling every factor by the same positive
    constant leaves the induced transition structure unchanged.
    """

    factors: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "factors", dict(self.factors))
        if not self.factors:
            raise ConfigError("PpfAssignment needs at least one factor")
        for name, gamma in self.factors.items():
            if not 0.0 <= gamma <= 1.0:
                raise ConfigError(f"factor for {name!r} must lie in [0, 1], got {gamma}")
        if all(g == 0.0 for g in self.factors.values()):
            raise ConfigError("at least one propagation factor must be positive")


@dataclass(frozen=True)
class PopRankConfig:
    epsilon: float = 0.15
    tol: float = 1e-10
    max_iter: int = 1000

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.tol < np.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class TransitionStructure:
    """Row-stochastic out-link structure in CSR form.

    Rows of dangling objects are empty; every other row sums to 1.
    Immutable after build and shareable across rank/learn/simulate calls.
    """

    num_objects: int
    indptr: np.ndarray  # int64, length num_objects + 1
    targets: np.ndarray  # int64
    probs: np.ndarray  # float64
    dangling: np.ndarray  # bool

    def row(self, object_id: int) -> list[tuple[int, float]]:
        lo, hi = self.indptr[object_id], self.indptr[object_id + 1]
        return [(int(t), float(p)) for t, p in zip(self.targets[lo:hi], self.probs[lo:hi])]

    def link_cdf(self) -> np.ndarray:
        """Per-row cumulative link probabilities, for inverse-CDF sampling."""
        if self.probs.size == 0:
            return np.empty(0, np.float64)
        flat = np.cumsum(self.probs)
        starts = self.indptr[:-1]
        base = np.where(starts > 0, flat[starts - 1], 0.0)
        return flat - np.repeat(base, np.diff(self.indptr))


def build_transition(graph: ObjectGraph, ppf: PpfAssignment) -> TransitionStructure:
    """Turn typed links plus propagation factors into a stochastic structure.

    For object o with followable types T(o) (out-degree >= 1 and
    gamma > 0), a specific link of type t gets probability
    (gamma_t / sum over T(o)) * (1 / out_degree_t(o)). Objects with
    empty T(o) are dangling. Raises ConfigError when a relationship type
    present in the graph has no factor.
    """
    n = graph.num_objects
    for rt in graph.relationship_types:
        if rt.rel_name not in ppf.factors:
            raise ConfigError(f"no propagation factor for relationship type {rt.rel_name!r}")

    z = np.zeros(n, np.float64)
    per_type: list[tuple[float, np.ndarray, np.ndarray, np.ndarray]] = []
    for rt in graph.relationship_types:
        gamma = float(ppf.factors[rt.rel_name])
        edges = graph.links[rt.rel_name]
        if gamma <= 0.0 or not len(edges):
            continue
        src, tgt = edges[:, 0], edges[:, 1]
        deg = np.bincount(src, minlength=n)
        z += np.where(deg > 0, gamma, 0.0)
        per_type.append((gamma, src, tgt, deg))

    dangling = z == 0.0
    if not per_type:
        return TransitionStructure(
            n, np.zeros(n + 1, np.int64), np.empty(0, np.int64), np.empty(0, np.float64), dangling
        )

    src_all = np.concatenate([src for _, src, _, _ in per_type])
    tgt_all = np.concatenate([tgt for _, _, tgt, _ in per_type])
    prob_all = np.concatenate(
        [(gamma / z[src]) / deg[src] for gamma, src, _, deg in per_type]
    )
    return TransitionStructure(n, *_kernels.csr(n, src_all, tgt_all, prob_all), dangling)


def _check_prior(prior: np.ndarray, num_objects: int) -> np.ndarray:
    prior = np.asarray(prior, np.float64)
    if prior.shape != (num_objects,):
        raise ConfigError(
            f"prior has {prior.shape[0] if prior.ndim == 1 else prior.shape} entries, "
            f"graph has {num_objects} objects"
        )
    if (
        not np.all(np.isfinite(prior))
        or np.any(prior < 0.0)
        or abs(float(prior.sum()) - 1.0) > 1e-9
    ):
        raise ConfigError("prior must be a probability distribution over the objects")
    return prior


def poprank_from_transition(
    transition: TransitionStructure,
    prior: np.ndarray,
    cfg: PopRankConfig = PopRankConfig(),
) -> RankResult:
    """Power-iterate the restart walk on a prebuilt transition structure.

    Raises ConfigError if the scores come out non-finite, so no command
    reports NaN scores.
    """
    prior = _check_prior(prior, transition.num_objects)
    alpha = 1.0 - cfg.epsilon
    r, iterations, residual = _kernels.power_iteration(
        transition.indptr,
        transition.targets,
        transition.probs,
        transition.dangling,
        alpha,
        prior,
        float(cfg.tol),
        int(cfg.max_iter),
    )
    scores = r / r.sum()
    if not np.all(np.isfinite(scores)):
        raise ConfigError(f"poprank scores are not finite (residual {residual:.3e})")
    converged = residual < cfg.tol
    if not converged:
        warnings.warn(
            f"poprank stopped after {iterations} iterations with residual {residual:.3e}",
            NonConvergenceWarning,
            stacklevel=2,
        )
    return RankResult(scores, iterations, float(residual), converged)


def poprank(
    graph: ObjectGraph,
    ppf: PpfAssignment,
    prior: np.ndarray,
    cfg: PopRankConfig = PopRankConfig(),
) -> RankResult:
    """Object popularity: build the transition structure and find the fixed point.

    With exactly one relationship type and a uniform prior this reduces
    to PageRank over the object graph with damping 1 - epsilon.
    """
    return poprank_from_transition(build_transition(graph, ppf), prior, cfg)


def ranking_positions(scores: np.ndarray) -> np.ndarray:
    """0-based rank position per object: descending score, ties by object id."""
    scores = np.asarray(scores, np.float64)
    n = scores.shape[0]
    order = np.lexsort((np.arange(n), -scores))
    positions = np.empty(n, np.int64)
    positions[order] = np.arange(n)
    return positions

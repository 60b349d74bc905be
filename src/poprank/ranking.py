"""PPF-weighted object ranking.

Each relationship type carries a popularity propagation factor gamma in
[0, 1]. From an object, the walk first splits its mass across the
relationship types it can actually follow (proportionally to their
factors), then uniformly across that type's out-links. Objects with no
followable out-link are dangling; their mass restarts to the
web-popularity prior, as does an epsilon share of everything each step.
The fixed point of

    scores = epsilon * prior + (1 - epsilon) * (pulled_along_links + dangling_mass * prior)

is the popularity vector, computed by power iteration from the prior
(or from a given start vector: ``learn`` warm-starts each solve from the
scores of the previous factor vector).

A factor vector changes only one scale per relationship type and source
object, so the transition is built in two steps. ``LinkStructure`` holds
what does not depend on the factors: every link in CSR order, its type,
its source's out-degree in that type, and per type the objects that have
such links. It is built once per graph; ``LinkStructure.reweight`` then
makes a factor vector's ``TransitionStructure`` with one pass per type
and one vectorized expression, without sorting. ``build_transition`` is
the two steps in one call.
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
    Immutable after build and shareable across rank/learn/simulate calls;
    ``indptr`` and ``targets`` may be the arrays of the LinkStructure it
    was reweighted from.
    """

    num_objects: int
    indptr: np.ndarray  # int64, length num_objects + 1
    targets: np.ndarray  # int64
    probs: np.ndarray  # float64
    dangling: np.ndarray  # bool

    def link_cdf(self) -> np.ndarray:
        """Per-row cumulative link probabilities, for inverse-CDF sampling."""
        if self.probs.size == 0:
            return np.empty(0, np.float64)
        flat = np.cumsum(self.probs)
        starts = self.indptr[:-1]
        base = np.where(starts > 0, flat[starts - 1], 0.0)
        return flat - np.repeat(base, np.diff(self.indptr))


@dataclass(frozen=True, eq=False)
class LinkStructure:
    """The factor-independent part of a graph's transition structure.

    Every link of every relationship type in CSR order (grouped by
    source; within a row by relationship type, then in graph order),
    with its type and the out-degree of its source in that type, plus,
    per type, the objects with at least one out-link of it. Built once
    per graph by ``from_graph``; ``reweight`` gives the
    TransitionStructure of one factor assignment.
    """

    num_objects: int
    rel_names: tuple[str, ...]
    indptr: np.ndarray  # int64, length num_objects + 1
    targets: np.ndarray  # int64
    types: np.ndarray  # unsigned int, index into rel_names
    degrees: np.ndarray  # float64, out-degree of the link's source in its type
    linked: tuple[np.ndarray, ...]  # per type, the objects with out-links of it

    @classmethod
    def from_graph(cls, graph: ObjectGraph) -> "LinkStructure":
        n = graph.num_objects
        rel_names = tuple(rt.rel_name for rt in graph.relationship_types)
        edges = [graph.links[name] for name in rel_names]
        out_degrees = [np.bincount(e[:, 0], minlength=n) for e in edges]
        src = np.concatenate([np.empty(0, np.int64), *(e[:, 0] for e in edges)])
        order = np.argsort(src, kind="stable")
        indptr = _kernels.row_starts(n, src)
        del src
        # one column at a time, so that at most one unsorted copy is alive
        degrees = np.concatenate(
            [np.empty(0), *(d[e[:, 0]] for d, e in zip(out_degrees, edges))])[order]
        targets = np.concatenate([np.empty(0, np.int64), *(e[:, 1] for e in edges)])[order]
        type_ids = np.arange(len(edges), dtype=np.min_scalar_type(len(edges)))
        types = np.repeat(type_ids, np.array([len(e) for e in edges], np.int64))[order]
        linked = tuple(np.flatnonzero(d) for d in out_degrees)
        return cls(n, rel_names, indptr, targets, types, degrees, linked)

    def reweight(self, ppf: PpfAssignment) -> TransitionStructure:
        """The transition structure of ``ppf``, as ``build_transition`` defines it.

        Raises ConfigError when a relationship type of the graph has no factor.
        """
        for name in self.rel_names:
            if name not in ppf.factors:
                raise ConfigError(f"no propagation factor for relationship type {name!r}")
        gammas = np.array([float(ppf.factors[name]) for name in self.rel_names], np.float64)
        # z[o] sums the factors of o's followable types, added in type order
        z = np.zeros(self.num_objects, np.float64)
        for gamma, linked in zip(gammas.tolist(), self.linked):
            if gamma > 0.0:
                z[linked] += gamma
        indptr, targets, types, degrees = self.indptr, self.targets, self.types, self.degrees
        if not np.all(gammas > 0.0):
            # a zero factor removes its type's links; the rest keep their order
            keep = gammas[types] > 0.0
            targets, types, degrees = targets[keep], types[keep], degrees[keep]
            indptr = np.concatenate([[0], np.cumsum(keep, dtype=np.int64)])[indptr]
        # (gamma_t / z[o]) / deg_t(o) per link, in place
        probs = gammas[types]
        probs /= np.repeat(z, np.diff(indptr))
        probs /= degrees
        return TransitionStructure(self.num_objects, indptr, targets, probs, z == 0.0)


def build_transition(graph: ObjectGraph, ppf: PpfAssignment) -> TransitionStructure:
    """Turn typed links plus propagation factors into a stochastic structure.

    For object o with followable types T(o) (out-degree >= 1 and
    gamma > 0), a specific link of type t gets probability
    (gamma_t / sum over T(o)) * (1 / out_degree_t(o)). Objects with
    empty T(o) are dangling. Raises ConfigError when a relationship type
    present in the graph has no factor.

    This builds the graph's LinkStructure and reweights it. Code that
    needs many factor vectors on one graph builds the LinkStructure once
    and calls ``reweight`` per vector; the arrays are the same.
    """
    return LinkStructure.from_graph(graph).reweight(ppf)


def _check_prior(prior: np.ndarray, num_objects: int, name: str = "prior") -> np.ndarray:
    prior = np.asarray(prior, np.float64)
    if prior.shape != (num_objects,):
        raise ConfigError(
            f"{name} has {prior.shape[0] if prior.ndim == 1 else prior.shape} entries, "
            f"graph has {num_objects} objects"
        )
    if (
        not np.all(np.isfinite(prior))
        or np.any(prior < 0.0)
        or abs(float(prior.sum()) - 1.0) > 1e-9
    ):
        raise ConfigError(f"{name} must be a probability distribution over the objects")
    return prior


def poprank_from_transition(
    transition: TransitionStructure,
    prior: np.ndarray,
    cfg: PopRankConfig = PopRankConfig(),
    start: np.ndarray | None = None,
) -> RankResult:
    """Power-iterate the restart walk on a prebuilt transition structure.

    The iteration starts from the prior, or from ``start`` when given (a
    probability distribution over the objects, such as the scores of a
    nearby factor vector: a warm start needs fewer iterations to reach
    the same tolerance). Raises ConfigError if the scores come out
    non-finite, so no command reports NaN scores.
    """
    prior = _check_prior(prior, transition.num_objects)
    warm = {} if start is None else {"r0": _check_prior(start, transition.num_objects, "start")}
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
        **warm,
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

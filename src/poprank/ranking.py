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
scores of a nearby factor vector, and stops it once the order of every
expert pair is settled, or once enough pairs are settled the wrong way
round that the vector cannot win).

A factor vector changes only one scale per relationship type and source
object, so the transition is built in two steps. ``LinkStructure`` holds
what does not depend on the factors, once per graph. A factor vector
enters only through ``LinkStructure.ratios``, one float per set of types
that objects link out in and type, and ``reweight`` builds its
``TransitionStructure`` from that table with one vectorized expression,
without sorting: equal tables give the same walk. ``build_transition``
is the two steps in one call.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, NonConvergenceWarning, check_count, is_integer
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
        check_count("max_iter", self.max_iter, 1)


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
    """The factor-independent part of a graph's transition structure:
    every link in CSR order (grouped by source; within a row by type, then
    in graph order) with its type and its source's out-degree in that
    type, and the distinct sets of types objects link out in (the empty
    set for objects without out-links). Built once per graph by
    ``from_graph``; ``reweight`` gives one factor assignment's transition.
    """

    num_objects: int
    rel_names: tuple[str, ...]
    indptr: np.ndarray  # int64, length num_objects + 1
    targets: np.ndarray  # int64
    types: np.ndarray  # unsigned int, index into rel_names
    degrees: np.ndarray  # float64, out-degree of the link's source in its type
    type_sets: np.ndarray  # bool (sets, types): whether set s holds type t
    set_of: np.ndarray  # int64, per object the index of its set

    @classmethod
    def from_graph(cls, graph: ObjectGraph) -> "LinkStructure":
        n = graph.num_objects
        rel_names = tuple(rt.rel_name for rt in graph.relationship_types)
        edges = [graph.links[name] for name in rel_names]
        out_degrees = [np.bincount(e[:, 0], minlength=n) for e in edges]
        # each object's types as a bit mask, renumbered by set every 32
        # types so that 32 more bits fit in int64
        code = np.zeros(n, np.int64)
        for t, d in enumerate(out_degrees):
            if t and t % 32 == 0:
                code = _kernels.unique_first(code)[2] << 32
            code |= (d > 0).astype(np.int64) << (t % 32)
        _, first, set_of = _kernels.unique_first(code)
        type_sets = np.array([d[first] > 0 for d in out_degrees], bool)
        type_sets = type_sets.reshape(len(edges), len(first)).T
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
        return cls(n, rel_names, indptr, targets, types, degrees, type_sets, set_of)

    def ratios(self, ppf: PpfAssignment) -> np.ndarray:
        """The float64 (sets, types) table of gamma_t / z_S, with z_S the sum
        of the positive factors of set S in type order; 0 where S lacks t or
        gamma_t is 0. Raises ConfigError when a type has no factor."""
        for name in self.rel_names:
            if name not in ppf.factors:
                raise ConfigError(f"no propagation factor for relationship type {name!r}")
        gammas = np.array([float(ppf.factors[name]) for name in self.rel_names], np.float64)
        shares = np.where(self.type_sets & (gammas > 0.0), gammas, 0.0)
        z = shares.cumsum(axis=1)[:, -1:]  # sequential: added in type order
        return np.divide(shares, z, out=shares, where=z > 0.0)

    def reweight(self, ppf: PpfAssignment) -> TransitionStructure:
        """The transition structure of ``ppf``, as ``build_transition``
        defines it: a function of ``ratios(ppf)`` alone.

        Raises ConfigError when a relationship type of the graph has no factor.
        """
        table = self.ratios(ppf)
        # each link's (source set, type) entry, then divided by its degree
        at = np.repeat(self.set_of * table.shape[1], np.diff(self.indptr))
        at += self.types
        probs = table.ravel().take(at)
        del at
        indptr, targets, degrees = self.indptr, self.targets, self.degrees
        # a link of entry 0 is removed; the rest keep their order, and the
        # arrays stay these when no link is removed
        keep = probs > 0.0
        if not keep.all():
            probs, targets, degrees = probs[keep], targets[keep], degrees[keep]
            indptr = np.concatenate([[0], np.cumsum(keep, dtype=np.int64)])[indptr]
        probs /= degrees
        return TransitionStructure(self.num_objects, indptr, targets, probs,
                                   ~table.any(axis=1)[self.set_of])


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
        raise ConfigError(f"{name} has {prior.shape[0] if prior.ndim == 1 else prior.shape} "
                          f"entries, graph has {num_objects} objects")
    if (not np.all(np.isfinite(prior)) or np.any(prior < 0.0)
            or abs(float(prior.sum()) - 1.0) > 1e-9):
        raise ConfigError(f"{name} must be a probability distribution over the objects")
    return prior


def _check_pairs(pairs, num_objects: int) -> tuple[np.ndarray, ...]:
    sides = tuple(np.asarray(side) for side in pairs)
    if (len(sides) != 2 or sides[0].shape != sides[1].shape or sides[0].ndim != 1
            or any(side.dtype.kind not in "iu" or side.size and not 0 <= side.min()
                   <= side.max() < num_objects for side in sides)):
        raise ConfigError("pairs must be two equal-length 1-d integer arrays of object ids "
                          f"in [0, {num_objects})")
    return sides


def poprank_from_transition(
    transition: TransitionStructure,
    prior: np.ndarray,
    cfg: PopRankConfig = PopRankConfig(),
    start: np.ndarray | None = None,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
    reject: int | None = None,
) -> RankResult:
    """Power-iterate the restart walk on a prebuilt transition structure.

    The iteration starts from the prior, or from ``start`` when given (a
    probability distribution over the objects, such as the scores of a
    nearby factor vector: a warm start needs fewer iterations to reach
    the same tolerance). Raises ConfigError if the scores come out
    non-finite, so no command reports NaN scores.

    ``pairs``, two integer arrays (high, low) of object ids, is for callers
    that read only the order of those pairs, as ``learn`` does: the solve
    may then stop before the tolerance, once each pair's order is the one
    a solve to the tolerance would end with (``_kernels.power_iteration``
    gives the bound). That holds from any start; a pair that does not
    settle, such as a tie, keeps the iteration going to the tolerance.
    Such a stop counts as converged and does not warn; a solve that runs
    to max_iter warns as without ``pairs``.

    ``reject``, a count of at least 1 given with ``pairs``, is for callers
    that keep a solve only when it gets fewer than ``reject`` pairs wrong,
    as ``learn`` does: the solve may also stop once at least ``reject``
    pairs are settled the wrong way round (high strictly below low in
    every iterate a solve to the tolerance can end on, by the same
    bound). The scores it stops on then get at least ``reject`` pairs
    wrong, and so would a solve to the tolerance. The reject is off
    wherever the settled stop is off, and such a stop also counts as
    converged.
    """
    prior = _check_prior(prior, transition.num_objects)
    extra = {} if start is None else {"r0": _check_prior(start, transition.num_objects, "start")}
    if pairs is not None:
        extra["pairs"] = _check_pairs(pairs, transition.num_objects)
    if reject is not None:
        if pairs is None:
            raise ConfigError("reject needs pairs")
        if not is_integer(reject) or reject < 1:
            raise ConfigError(f"reject must be an integer >= 1, got {reject!r}")
        extra["reject"] = int(reject)
    alpha = 1.0 - cfg.epsilon
    r, iterations, residual = _kernels.power_iteration(
        transition.indptr, transition.targets, transition.probs, transition.dangling, alpha,
        prior, float(cfg.tol), int(cfg.max_iter), **extra)
    scores = r / r.sum()
    if not np.all(np.isfinite(scores)):
        raise ConfigError(f"poprank scores are not finite (residual {residual:.3e})")
    # before max_iter the iteration stops only at the tolerance or with the pairs settled
    converged = residual < cfg.tol or iterations < cfg.max_iter
    if not converged:
        warnings.warn(NonConvergenceWarning("poprank", iterations, residual), stacklevel=2)
    return RankResult(scores, iterations, float(residual), converged)


def poprank(graph: ObjectGraph, ppf: PpfAssignment, prior: np.ndarray,
            cfg: PopRankConfig = PopRankConfig()) -> RankResult:
    """Object popularity: build the transition structure and find the fixed point.

    With exactly one relationship type and a uniform prior this reduces
    to PageRank over the object graph with damping 1 - epsilon.
    """
    return poprank_from_transition(build_transition(graph, ppf), prior, cfg)


def ranking_order(scores: np.ndarray) -> np.ndarray:
    """Object ids by rank position: descending score, ties by object id."""
    scores = np.asarray(scores, np.float64)
    return np.lexsort((np.arange(scores.shape[0]), -scores))


def ranking_positions(scores: np.ndarray) -> np.ndarray:
    """0-based rank position per object: the inverse of ``ranking_order``."""
    order = ranking_order(scores)
    positions = np.empty(len(order), np.int64)
    positions[order] = np.arange(len(order))
    return positions

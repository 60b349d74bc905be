"""Page-level ranking and its projection onto objects.

The page hyperlink graph yields PageRank scores. Block-weighted
containment then spreads each page's score over the objects shown on it,
producing the per-object web-popularity prior that seeds and restarts
the object-level walk.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, GraphError, NonConvergenceWarning


@dataclass
class RankResult:
    """A score distribution plus convergence bookkeeping."""

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool


@dataclass
class PageGraph:
    """Directed hyperlink graph over densely indexed pages.

    edges is an (m, 2) int64 array of (source, target) page ids,
    deduplicated at build time and in order of first appearance.
    Self-loops are allowed.
    """

    num_pages: int
    edges: np.ndarray

    @classmethod
    def build(cls, num_pages: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "PageGraph":
        if num_pages < 0:
            raise GraphError("num_pages must be >= 0")
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if arr.size == 0:
            arr = np.empty((0, 2), np.int64)
        if arr.dtype.kind not in "iu":
            raise GraphError(f"hyperlink page ids must be integers, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(f"hyperlinks must be (source, target) pairs, got shape {arr.shape}")
        outside = np.flatnonzero(((arr < 0) | (arr >= num_pages)).any(axis=1))
        if outside.size:
            s, t = arr[outside[0]].tolist()
            raise GraphError(f"hyperlink ({s}, {t}) points outside the page set")
        return cls(num_pages, _kernels.unique_edges(arr.astype(np.int64, copy=False), num_pages)[0])

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def pagerank(
    graph: PageGraph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> RankResult:
    """Stationary distribution of the damped random surfer over pages.

    Teleport is uniform with probability 1 - damping; dangling pages
    redistribute their full mass uniformly over all pages. Iteration
    starts from uniform and stops when the L1 change between successive
    vectors drops below tol, or after max_iter sweeps (then a
    NonConvergenceWarning is issued and the last vector is returned).
    """
    if graph.num_pages == 0:
        raise GraphError("pagerank needs a non-empty page graph")
    if not 0.0 < damping < 1.0:
        raise ConfigError(f"damping must lie in (0, 1), got {damping}")
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    n = graph.num_pages
    src, tgt = graph.edges[:, 0], graph.edges[:, 1]
    indptr, targets, probs = _kernels.csr(n, src, tgt, 1.0 / np.bincount(src, minlength=n)[src])
    dangling = np.diff(indptr) == 0
    v = np.full(n, 1.0 / n)
    r, iterations, residual = _kernels.power_iteration(
        indptr, targets, probs, dangling, float(damping), v, float(tol), int(max_iter)
    )
    converged = residual < tol
    if not converged:
        warnings.warn(
            f"pagerank stopped after {iterations} iterations with residual {residual:.3e}",
            NonConvergenceWarning,
            stacklevel=2,
        )
    return RankResult(r / r.sum(), iterations, float(residual), converged)


@dataclass
class PageObjectMap:
    """Page -> object containment entries with block weights.

    Weights are per-page shares: explicit weights are normalized to sum
    to 1 within each page. An entry without a weight counts as 1.0
    before normalization, so a page listing k unweighted objects splits
    its score evenly. A page whose explicit weights sum to 0 also splits
    evenly.
    """

    entries: list[tuple[int, int, float | None]]

    def resolved(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (pages, objects, weights) with per-page normalization applied."""
        if not self.entries:
            empty = np.empty(0, np.int64)
            return empty, empty.copy(), np.empty(0, np.float64)
        pages = np.array([e[0] for e in self.entries], np.int64)
        objs = np.array([e[1] for e in self.entries], np.int64)
        weights = np.empty(len(self.entries), np.float64)
        for i, (_, _, w) in enumerate(self.entries):
            if w is None:
                weights[i] = 1.0
            elif not 0.0 <= w < np.inf:
                raise GraphError(f"block weight must be finite and non-negative, got {w}")
            else:
                weights[i] = float(w)
        if pages.min() < 0:
            raise GraphError("page-object map references an unknown page")
        page_sums = np.bincount(pages, weights=weights, minlength=int(pages.max()) + 1)
        page_counts = np.bincount(pages, minlength=int(pages.max()) + 1)
        sums = page_sums[pages]
        zero = sums == 0.0
        weights[zero] = 1.0 / page_counts[pages[zero]]
        weights[~zero] = weights[~zero] / sums[~zero]
        return pages, objs, weights


def web_popularity(
    num_objects: int,
    page_scores: np.ndarray,
    page_map: PageObjectMap,
) -> np.ndarray:
    """Per-object web-popularity prior from page scores and block weights.

    Each object's raw score accumulates page_score * block_weight over
    its containment entries; objects on no page get 0. The raw vector is
    normalized to sum to 1; if nothing is covered at all, the prior is
    uniform over all objects. Raises ConfigError for page scores that are
    not finite and non-negative.
    """
    if num_objects < 1:
        raise GraphError("web_popularity needs at least one object")
    page_scores = np.asarray(page_scores, np.float64)
    if not np.all(np.isfinite(page_scores)) or np.any(page_scores < 0.0):
        raise ConfigError("prior must be a probability distribution over the objects: "
                          "page scores must be finite and non-negative")
    pages, objs, weights = page_map.resolved()
    raw = np.zeros(num_objects, np.float64)
    if pages.size:
        if pages.max() >= page_scores.shape[0]:
            raise GraphError("page-object map references an unknown page")
        if objs.min() < 0 or objs.max() >= num_objects:
            raise GraphError("page-object map references an unknown object")
        np.add.at(raw, objs, page_scores[pages] * weights)
    total = raw.sum()
    if total <= 0.0:
        return np.full(num_objects, 1.0 / num_objects)
    return raw / total

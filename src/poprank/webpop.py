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
from .errors import ConfigError, GraphError, NonConvergenceWarning, check_count


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


def check_damping(damping: float) -> None:
    """Raise ConfigError unless 0 < damping < 1, as pagerank does."""
    if not 0.0 < damping < 1.0:
        raise ConfigError(f"damping must lie in (0, 1), got {damping}")


def pagerank(graph: PageGraph, damping: float = 0.85, tol: float = 1e-10,
             max_iter: int = 1000) -> RankResult:
    """Stationary distribution of the damped random surfer over pages.

    Teleport is uniform with probability 1 - damping; dangling pages
    redistribute their full mass uniformly over all pages. Iteration
    starts from uniform and stops when the L1 change between successive
    vectors drops below tol, or after max_iter sweeps (then a
    NonConvergenceWarning is issued and the last vector is returned).
    """
    if graph.num_pages == 0:
        raise GraphError("pagerank needs a non-empty page graph")
    check_damping(damping)
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    check_count("max_iter", max_iter, 1)
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
        warnings.warn(NonConvergenceWarning("pagerank", iterations, residual), stacklevel=2)
    return RankResult(r / r.sum(), iterations, float(residual), converged)


@dataclass
class PageObjectMap:
    """Page -> object containment entries as columns: entry i shows object
    ``objects[i]`` on page ``pages[i]`` with block weight ``weights[i]``
    (int64, int64, float64). Raises GraphError for ids that are not
    integers, columns of unequal length, a negative page, a weight that
    is not finite and non-negative, or a page whose weights have no finite
    sum (two of 1e308, say). Weights are per-page shares, normalized
    to sum to 1 within each page: a page listing k objects of weight 1.0
    (the page map's weight when none is given) or 0 splits its score evenly.
    """

    pages: np.ndarray
    objects: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pages, objects = np.asarray(self.pages), np.asarray(self.objects)
        if any(ids.size and ids.dtype.kind not in "iu" for ids in (pages, objects)):
            raise GraphError("page-object map ids must be integers")
        self.pages, self.objects = pages.astype(np.int64), objects.astype(np.int64)
        self.weights = weights = np.asarray(self.weights, np.float64)
        if not pages.shape == objects.shape == weights.shape or pages.ndim != 1:
            raise GraphError("page-object map columns must be 1-d and of equal length")
        bad = np.flatnonzero(~((weights >= 0.0) & (weights < np.inf)))
        if bad.size:
            raise GraphError(f"block weight must be finite and non-negative, got {weights[bad[0]]}")
        if np.any(pages < 0):
            raise GraphError("page-object map references an unknown page")
        infinite = np.flatnonzero(np.bincount(self.pages, weights=weights) == np.inf)
        if infinite.size:
            raise GraphError(f"the block weights of page number {infinite[0]} "
                             "have no finite sum")

    def resolved(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (pages, objects, weights) with per-page normalization applied."""
        pages, weights = self.pages, self.weights.copy()
        sums = np.bincount(pages, weights=weights)[pages]
        zero = sums == 0.0
        weights[zero] = 1.0 / np.bincount(pages)[pages[zero]]
        weights[~zero] /= sums[~zero]
        return pages, self.objects, weights


def web_popularity(num_objects: int, page_scores: np.ndarray,
                   page_map: PageObjectMap) -> np.ndarray:
    """Per-object web-popularity prior from page scores and block weights.

    Each object's raw score accumulates page_score * block_weight over
    its containment entries, in entry order; objects on no page get 0.
    The raw vector is normalized to sum to 1; if nothing is covered at
    all, the prior is uniform over all objects. Raises ConfigError for
    page scores that are not finite and non-negative, or whose weighted
    total is not finite.
    """
    if num_objects < 1:
        raise GraphError("web_popularity needs at least one object")
    page_scores = np.asarray(page_scores, np.float64)
    if not np.all(np.isfinite(page_scores)) or np.any(page_scores < 0.0):
        raise ConfigError("prior must be a probability distribution over the objects: "
                          "page scores must be finite and non-negative")
    pages, objs, weights = page_map.resolved()
    if np.any(pages >= len(page_scores)):
        raise GraphError("page-object map references an unknown page")
    if np.any((objs < 0) | (objs >= num_objects)):
        raise GraphError("page-object map references an unknown object")
    raw = np.bincount(objs, weights=page_scores[pages] * weights, minlength=num_objects)
    total = raw.sum()
    if not np.isfinite(total):
        raise ConfigError("prior must be a probability distribution over the objects: "
                          "the weighted page scores have no finite sum")
    if total <= 0.0:
        return np.full(num_objects, 1.0 / num_objects)
    return raw / total

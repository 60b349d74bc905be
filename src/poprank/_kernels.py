"""The two numeric inner loops, and the edge-array helpers that feed them.

* ``unique_edges`` and ``csr`` -- deduplicate ``(m, 2)`` int64 edge arrays
  and group edges by source into CSR arrays.
* ``power_iteration`` -- one full power-iteration solve with restart and
  dangling-mass redistribution.
* ``random_walk`` -- a sequential restart walk driven by a seeded
  generator, tallying visits into an int64 histogram.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

WALK_CHUNK_STEPS = 65_536  # steps whose uniforms are drawn at once; bounds the walk's memory


def backend() -> str:
    """Name of the numeric backend."""
    return "numpy"


def unique_edges(edges: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Rows of the ``(m, 2)`` int64 array ``edges`` (ids in ``[0, n)``)
    without repeats, in order of first appearance, and the number dropped."""
    _, first = np.unique(edges[:, 0] * n + edges[:, 1], return_index=True)
    first.sort()
    return edges[first], len(edges) - len(first)


def csr(n: int, src: np.ndarray, tgt: np.ndarray, probs: np.ndarray):
    """CSR ``(indptr, targets, probs)``; edges keep their input order within a row."""
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, tgt[order], probs[order]


def power_iteration(indptr, targets, probs, dangling, alpha, v, tol, max_iter):
    """Iterate r <- alpha * (pull(r) + dangling_mass * v) + (1 - alpha) * v
    from r0 = v until the L1 change drops below tol.

    Returns (r, iterations, residual); r is unnormalized (its sum stays 1
    up to float drift).
    """
    n = v.shape[0]
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    r = v.copy()
    it = 0
    delta = np.inf
    for it in range(1, max_iter + 1):
        pulled = np.bincount(targets, weights=r[sources] * probs, minlength=n)
        d_mass = float(r[dangling].sum())
        r_new = alpha * (pulled + d_mass * v) + (1.0 - alpha) * v
        delta = float(np.abs(r_new - r).sum())
        r = r_new
        if delta < tol:
            break
    return r, it, delta


def random_walk(indptr, targets, cdf, dangling, prior_cdf, epsilon, steps, burn_in, rng):
    """Walk ``steps`` transitions and return the int64 visit counts after burn_in.

    ``rng`` (a numpy ``Generator``) supplies one uniform for the start
    object, then a (restart, choice) pair per step, drawn in chunks of
    WALK_CHUNK_STEPS pairs. Objects and links are sampled by bisect-right
    on the prior CDF and on the current row of the link CDF. The walk
    runs over list copies of the arrays, which index faster than numpy
    scalars in a Python loop.
    """
    ip = indptr.tolist()
    tg = targets.tolist()
    fc = cdf.tolist()
    dg = dangling.tolist()
    pc = prior_cdf.tolist()
    n = len(pc)
    counts = [0] * n
    eps = float(epsilon)

    state = bisect_right(pc, rng.random())
    if state >= n:
        state = n - 1
    t = 0
    for done in range(0, steps, WALK_CHUNK_STEPS):
        pairs = iter(rng.random(2 * min(WALK_CHUNK_STEPS, steps - done)).tolist())
        for u_restart, u_choice in zip(pairs, pairs):
            t += 1
            if dg[state] or u_restart < eps:
                state = bisect_right(pc, u_choice)
                if state >= n:
                    state = n - 1
            else:
                lo = ip[state]
                hi = ip[state + 1]
                j = bisect_right(fc, u_choice, lo, hi)
                if j >= hi:
                    j = hi - 1
                state = tg[j]
            if t > burn_in:
                counts[state] += 1
    return np.array(counts, np.int64)

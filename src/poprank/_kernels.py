"""The two numeric inner loops, and the edge-array helpers that feed them.

* ``unique_edges`` and ``csr`` -- deduplicate ``(m, 2)`` int64 edge arrays
  and group edges by source into CSR arrays.
* ``power_iteration`` -- one full power-iteration solve with restart and
  dangling-mass redistribution.
* ``random_walk`` -- the restart walk driven by a seeded generator, its
  restart segments advanced together with numpy, tallying visits into an
  int64 histogram.
"""

from __future__ import annotations

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
    WALK_CHUNK_STEPS pairs. A step restarts if its restart uniform is
    below epsilon or the current object dangles, and then picks the object
    by bisect-right of the choice uniform on the prior CDF; otherwise it
    follows the link found by bisect-right on the current row of the link
    CDF. Both picks are clamped to the last entry.

    A restart forced by epsilon does not depend on the past, so each one
    starts an independent segment of the chunk; the first segment goes on
    from the state the previous chunk ended in. All segments of a chunk
    advance together, one step per round of numpy operations, which gives
    the visits of the step-by-step walk exactly.
    """
    n = len(prior_cdf)
    counts = np.zeros(n, np.int64)
    last_link = indptr[1:] - 1

    def restart(u):
        return np.minimum(np.searchsorted(prior_cdf, u, side="right"), n - 1)

    def follow(s, u):
        # bisect-right on row s clamped to its last link is the row start
        # plus the number of the row's first deg - 1 CDF entries <= u
        j = indptr[s]
        hi = last_link[s]
        step = 1 << int((hi - j).max(initial=0)).bit_length() >> 1
        while step:
            cand = j + step
            j += step * ((cand <= hi) & (cdf[np.minimum(cand, hi) - 1] <= u))
            step >>= 1
        return targets[j]

    state = int(restart(rng.random()))
    buffer = np.empty(min(WALK_CHUNK_STEPS, steps), np.int64)
    for done in range(0, steps, WALK_CHUNK_STEPS):
        k = min(WALK_CHUNK_STEPS, steps - done)
        u = rng.random(2 * k)
        u_choice = u[1::2]
        visited = buffer[:k]
        starts = np.flatnonzero(u[0::2] < epsilon)
        visited[starts] = restart(u_choice[starts])
        # segment i walks left[i] steps from step first[i] on, starting at
        # object cur[i]: segment 0 from the last chunk's end, the others
        # from their restart
        first = np.append(0, starts + 1)
        left = np.append(starts, k) - first
        cur = np.append(state, visited[starts])
        order = np.argsort(-left)
        first, cur, left = first[order], cur[order], left[order]
        # round r advances the segments with more than r steps left, a prefix
        for r, live in enumerate(np.searchsorted(-left, -np.arange(left[0])).tolist()):
            pos = first[:live] + r
            s = cur[:live]
            uc = u_choice[pos]
            dead_end = dangling[s]
            if dead_end.any():
                cur = np.empty(live, np.int64)
                cur[dead_end] = restart(uc[dead_end])
                linked = ~dead_end
                cur[linked] = follow(s[linked], uc[linked])
            else:
                cur = follow(s, uc)
            visited[pos] = cur
        state = int(visited[-1])
        skip = max(0, burn_in - done)
        if skip < k:
            counts += np.bincount(visited[skip:], minlength=n)
    return counts

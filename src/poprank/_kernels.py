"""The two numeric inner loops, over a CSR transition structure.

* ``power_iteration`` -- one full power-iteration solve with restart and
  dangling-mass redistribution.
* ``random_walk`` -- a sequential restart walk driven by pre-drawn
  uniforms, tallying visits into an int64 histogram.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


def backend() -> str:
    """Name of the numeric backend."""
    return "numpy"


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


def random_walk(indptr, targets, cdf, dangling, prior_cdf, epsilon, steps, burn_in, uniforms):
    """Walk ``steps`` transitions and return the int64 visit counts after burn_in.

    ``uniforms`` holds one draw for the start object, then a (restart,
    choice) pair per step. Objects and links are sampled by bisect-right
    on the prior CDF and on the current row of the link CDF. The walk
    runs over list copies of the arrays, which index faster than numpy
    scalars in a Python loop.
    """
    ip = indptr.tolist()
    tg = targets.tolist()
    fc = cdf.tolist()
    dg = dangling.tolist()
    pc = prior_cdf.tolist()
    us = uniforms.tolist()
    n = len(pc)
    counts = [0] * n
    eps = float(epsilon)

    state = bisect_right(pc, us[0])
    if state >= n:
        state = n - 1
    k = 1
    for t in range(1, steps + 1):
        u_restart = us[k]
        u_choice = us[k + 1]
        k += 2
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

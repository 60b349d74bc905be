"""Monte Carlo random object finder.

A surfer lands on a seed object drawn from the web-popularity prior,
follows relationship links at random (never backtracking), and with
probability epsilon per step gets bored and restarts at a fresh seed;
dangling objects force a restart. Empirical visit frequencies converge
to the analytic popularity vector, making the simulator an independent
check on the power-iteration path. The simulator consumes the prebuilt
transition structure, so both sides of that check share one model.

The walk (``_kernels.random_walk``) draws its uniforms in fixed-size
chunks. A restart taken with probability epsilon does not depend on the
past, so it splits a chunk into independent segments, which numpy
advances together one step per round. The stream and the visit counts
are those of the step-by-step walk, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError
from .ranking import TransitionStructure, _check_prior


@dataclass(frozen=True)
class SimConfig:
    steps: int
    rng_seed: int = 0
    epsilon: float = 0.15
    burn_in: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.burn_in < 0:
            raise ConfigError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.steps <= self.burn_in:
            raise ConfigError(f"steps ({self.steps}) must exceed burn_in ({self.burn_in})")


@dataclass
class VisitHistogram:
    """Visit counts per object after burn-in; counts sum to steps - burn_in."""

    counts: np.ndarray
    steps: int
    burn_in: int

    @property
    def empirical(self) -> np.ndarray:
        return self.counts / (self.steps - self.burn_in)


def simulate(
    transition: TransitionStructure,
    prior: np.ndarray,
    cfg: SimConfig,
) -> VisitHistogram:
    """Run the walk for cfg.steps transitions and tally visits after burn-in.

    The start object is drawn from the prior and not counted. Each step
    either restarts (probability epsilon, or always from a dangling
    object) by sampling the prior, or follows one out-link sampled from
    the current object's transition row. All randomness comes from
    numpy's seeded generator, so runs are fully reproducible: one uniform
    for the start, then a (restart, choice) pair per step.
    """
    prior = _check_prior(prior, transition.num_objects)
    prior_cdf = np.cumsum(prior)
    link_cdf = transition.link_cdf()
    counts = _kernels.random_walk(
        transition.indptr,
        transition.targets,
        link_cdf,
        transition.dangling,
        prior_cdf,
        float(cfg.epsilon),
        int(cfg.steps),
        int(cfg.burn_in),
        np.random.default_rng(cfg.rng_seed),
    )
    return VisitHistogram(counts, cfg.steps, cfg.burn_in)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance: half the L1 distance between distributions."""
    p = np.asarray(p, np.float64)
    q = np.asarray(q, np.float64)
    if p.shape != q.shape:
        raise ConfigError("distributions must have the same shape")
    return 0.5 * float(np.abs(p - q).sum())

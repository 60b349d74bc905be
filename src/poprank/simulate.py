"""Monte Carlo random object finder.

A surfer lands on a seed object drawn from the web-popularity prior,
follows relationship links at random (never backtracking), and with
probability epsilon per step gets bored and restarts at a fresh seed;
dangling objects force a restart. Empirical visit frequencies converge
to the analytic popularity vector, making the simulator an independent
check on the power-iteration path. The simulator consumes the prebuilt
transition structure, so both sides of that check share one model.

The walk (``_kernels.random_walk``) draws its uniforms in chunks, larger
at small epsilon. A restart taken with probability epsilon does not
depend on the past, so it splits a chunk into independent segments,
which numpy advances together one step per round. Following a link and
restarting from the prior are one search: the prior CDF is searched as
one more row of the link CDF, through a guide table that maps each
uniform to the few entries it can land on. The stream and the visit
counts are those of the step-by-step walk, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, check_count, checked_vector
from .ranking import TransitionStructure, _check_prior


@dataclass(frozen=True)
class SimConfig:
    steps: int
    rng_seed: int = 0
    epsilon: float = 0.15
    burn_in: int = 0

    def __post_init__(self):
        check_count("steps", self.steps, 1)
        check_count("rng_seed", self.rng_seed, 0)
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        check_count("burn_in", self.burn_in, 0)
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


def simulate(transition: TransitionStructure, prior: np.ndarray, cfg: SimConfig) -> VisitHistogram:
    """Run the walk for cfg.steps transitions and tally visits after burn-in.

    The start object is drawn from the prior and not counted. Each step
    either restarts (probability epsilon, or always from a dangling
    object) by sampling the prior, or follows one out-link sampled from
    the current object's transition row. All randomness comes from
    numpy's seeded generator, so runs are fully reproducible: one uniform
    for the start, then a (restart, choice) pair per step.
    """
    prior = _check_prior(prior, transition.num_objects)
    # the CDFs are passed inline, so that the walk frees them once it has
    # copied them into its own table
    counts = _kernels.random_walk(
        transition.indptr, transition.targets, transition.link_cdf(), transition.dangling,
        np.cumsum(prior), float(cfg.epsilon), int(cfg.steps), int(cfg.burn_in),
        np.random.default_rng(cfg.rng_seed))
    return VisitHistogram(counts, cfg.steps, cfg.burn_in)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance: half the L1 distance between distributions.
    Raises ConfigError unless both are finite 1-d arrays of one shape."""
    p, q = (checked_vector(d, "distributions must be finite 1-d arrays") for d in (p, q))
    if p.shape != q.shape:
        raise ConfigError("distributions must have the same shape")
    return 0.5 * float(np.abs(p.astype(np.float64) - q.astype(np.float64)).sum())

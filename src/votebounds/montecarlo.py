"""Monte Carlo estimators for panels too large to enumerate.

Randomness comes from the Philox 4x64 counter-based generator, keyed per
block as (seed, block index). The constants of Philox are fixed by the
algorithm, so a (panel, trials, seed) triple produces the same stream on
every platform, and distinct blocks get independent streams by
construction rather than by distance in one long stream.

Trials are sharded into fixed-size blocks. Each block reduces to either
an integer mismatch count or a pair of partial float sums, and those are
combined in block order, so the worker count never changes the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _parallel
from .core import ExpertPanel, ProductBernoulli, ValidationError
from .rule import _scores, build_rule

__all__ = ["BLOCK_SIZE", "SimulationResult", "simulate_error", "estimate_min_mass"]

BLOCK_SIZE = 1 << 16

_MASK64 = (1 << 64) - 1


def _block_generator(seed: int, block: int) -> np.random.Generator:
    key = (block << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_trials_seed(trials, seed) -> tuple[int, int]:
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool):
        raise ValidationError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    return int(trials), int(seed) & _MASK64


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one generative simulation run.

    empirical_error times trials is an integer mismatch count, and
    std_error is the binomial plug-in sqrt(p (1-p) / trials).
    """

    trials: int
    empirical_error: float
    std_error: float
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 <= self.empirical_error <= 1.0:
            raise ValidationError(
                f"empirical_error = {self.empirical_error} lies outside [0, 1]"
            )
        count = self.empirical_error * self.trials
        if abs(count - round(count)) > 1e-6:
            raise ValidationError(
                f"empirical_error * trials = {count} is not an integer count"
            )
        if not self.std_error >= 0.0:
            raise ValidationError(f"std_error = {self.std_error} must be >= 0")


def simulate_error(panel: ExpertPanel, trials: int, seed: int, *,
                   workers: int | None = None) -> SimulationResult:
    """Simulate the generative process and score the optimal rule on it.

    Each trial draws a label from the prior, draws every expert's vote
    from its conditional accuracy, applies the rule built from the panel
    and records whether the decision missed the label.
    """
    trials, seed = _check_trials_seed(trials, seed)
    w = _parallel.resolve_workers(workers)
    rule = build_rule(panel)
    vote_one_prob_given_zero = 1.0 - panel.eta
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE

    def block_count(b: int) -> int:
        m = min(BLOCK_SIZE, trials - b * BLOCK_SIZE)
        u = _block_generator(seed, b).random((m, panel.n + 1))
        y = u[:, 0] < panel.p_y
        x = u[:, 1:] < np.where(y[:, None], panel.psi, vote_one_prob_given_zero)
        return int(np.count_nonzero((rule._score_rows(x) >= 0.0) != y))

    p_hat = sum(_parallel.map_ordered(block_count, range(n_blocks), w)) / trials
    return SimulationResult(
        trials=trials,
        empirical_error=p_hat,
        std_error=math.sqrt(p_hat * (1.0 - p_hat) / trials),
        seed=seed,
    )


def estimate_min_mass(P: ProductBernoulli, Q: ProductBernoulli, trials: int,
                      seed: int, *, workers: int | None = None) -> tuple[float, float]:
    """Unbiased estimate of the minimum-mass overlap of two product laws.

    Samples x from P and averages min(1, Q(x) / P(x)); the expectation is
    exactly the mass of the pointwise minimum. Either law may touch the
    boundary: outcomes with P(x) = 0 are never drawn, so their undefined
    log terms are never selected, and outcomes with Q(x) = 0 contribute
    ratio zero. Returns (estimate, std_error).
    """
    if not isinstance(P, ProductBernoulli) or not isinstance(Q, ProductBernoulli):
        raise ValidationError("expected a pair of ProductBernoulli laws")
    if P.n != Q.n:
        raise ValidationError(f"dimension mismatch: {P.n} vs {Q.n} coordinates")
    trials, seed = _check_trials_seed(trials, seed)
    w = _parallel.resolve_workers(workers)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio_one = np.log(Q.p) - np.log(P.p)
        log_ratio_zero = np.log(1.0 - Q.p) - np.log(1.0 - P.p)

    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE

    def block_sums(b: int) -> tuple[float, float]:
        m = min(BLOCK_SIZE, trials - b * BLOCK_SIZE)
        x = _block_generator(seed, b).random((m, P.n)) < P.p
        log_lr = _scores(x, 0.0, log_ratio_one, log_ratio_zero)
        ratio = np.minimum(1.0, np.exp(log_lr))
        return float(ratio.sum()), float(np.square(ratio).sum())

    partials = _parallel.map_ordered(block_sums, range(n_blocks), w)
    total = 0.0
    total_sq = 0.0
    for s1, s2 in partials:
        total += s1
        total_sq += s2
    estimate = total / trials
    variance = max(0.0, total_sq / trials - estimate * estimate)
    return estimate, math.sqrt(variance / trials)

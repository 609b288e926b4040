"""Monte Carlo estimators for panels too large to enumerate.

Randomness comes from the Philox 4x64 counter-based generator, keyed per
block as (seed, block index). The constants of Philox are fixed by the
algorithm, so a (panel, trials, seed) triple produces the same stream on
every platform, and distinct blocks get independent streams by
construction rather than by distance in one long stream.

Trials are sharded into fixed-size blocks, which _map_blocks fans out
over worker threads. Each block reduces to either an integer mismatch
count or a pair of partial float sums, and those are combined in block
order, so the worker count never changes the result. The worker count is
the workers argument, 1 by default; the two estimators here are the only
code that takes one.

A block is drawn _CHUNK_ROWS trials at a time into one reused buffer of
uniforms, and each chunk is thresholded straight into the block's bool
votes, kept column-major so that the scoring kernel reads contiguous
columns. Consecutive draws continue the block's stream, so the votes are
exactly those of one whole-block draw and every result is the same.
Working memory per worker is O(_CHUNK_ROWS * n) floats plus the block's
BLOCK_SIZE * n bool votes, an eighth of a whole-block float draw. Each
block is still scored in one kernel call: scoring chunk by chunk would
multiply the short numpy calls, between which threads contend for the
interpreter lock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExpertPanel, ProductBernoulli, ValidationError, _integer
from .exact import _check_pair, _reduce
from .rule import _scores, build_rule

__all__ = ["BLOCK_SIZE", "SimulationResult", "simulate_error", "estimate_min_mass"]

BLOCK_SIZE = 1 << 16

_MASK64 = (1 << 64) - 1

# trials drawn and thresholded at a time; divides BLOCK_SIZE
_CHUNK_ROWS = 1 << 10


def _block_generator(seed: int, block: int) -> np.random.Generator:
    key = (block << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_block(seed: int, block: int, m: int, given_one: np.ndarray,
                given_zero: np.ndarray | None = None, p_y: float | None = None
                ) -> tuple[np.ndarray | None, np.ndarray]:
    """Draw the m trials of one block, _CHUNK_ROWS trials at a time.

    Each trial is one row of uniforms u from the block's stream. With a
    label prior p_y, column 0 draws the label (u < p_y) and vote i is 1
    with probability given_one[i] if the label is 1, else given_zero[i];
    without one, every column is a vote, 1 with probability given_one[i].
    Consecutive random(out=...) calls continue the stream, so the chunks
    hold exactly the draws of one whole-block call.

    Returns the m bool labels (None without p_y) and the (m, n) bool votes
    as a column-major view, so that _scores reads contiguous columns.
    """
    rows = min(_CHUNK_ROWS, m)
    n = given_one.size
    lead = 0 if p_y is None else 1
    g = _block_generator(seed, block)
    u = np.empty((rows, lead + n))
    votes_t = np.empty((n, m), dtype=bool)
    if p_y is None:
        y = None
    else:
        y = np.empty(m, dtype=bool)
        threshold = np.empty((n, rows))
        # column 0 for label 0, column 1 for label 1
        pairs = np.stack([given_zero, given_one], axis=1)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        k = hi - lo
        g.random(out=u[:k])
        if p_y is None:
            np.less(u[:k].T, given_one[:, None], out=votes_t[:, lo:hi])
        else:
            np.less(u[:k, 0], p_y, out=y[lo:hi])
            pairs.take(y[lo:hi].view(np.uint8), axis=1, out=threshold[:, :k], mode="clip")
            np.less(u[:k, 1:].T, threshold[:, :k], out=votes_t[:, lo:hi])
    return y, votes_t.T


def _check_run(trials, seed, workers) -> tuple[int, int, int]:
    """(trials, seed, workers) checked; bools and floats raise ValidationError."""
    return (_integer(trials, "trials"), _integer(seed, "seed", None) & _MASK64,
            _integer(workers, "workers"))


def _map_blocks(block_fn, trials: int, workers: int) -> list:
    """[block_fn(b, m) for each block b of m trials], in block order
    whatever the number of worker threads."""
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE

    def run(b: int):
        return block_fn(b, min(BLOCK_SIZE, trials - b * BLOCK_SIZE))

    if workers == 1 or n_blocks == 1:
        return [run(b) for b in range(n_blocks)]
    # imported here, so that importing the package loads neither
    # concurrent.futures nor the logging module it pulls in
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
        return list(pool.map(run, range(n_blocks)))


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
                   workers: int = 1) -> SimulationResult:
    """Simulate the generative process and score the optimal rule on it.

    Each trial draws a label from the prior, draws every expert's vote
    from its conditional accuracy, applies the rule built from the panel
    and records whether the decision missed the label.
    """
    trials, seed, workers = _check_run(trials, seed, workers)
    rule = build_rule(panel)
    vote_one_prob_given_zero = 1.0 - panel.eta

    def block_count(b: int, m: int) -> int:
        y, x = _draw_block(seed, b, m, panel.psi, vote_one_prob_given_zero, panel.p_y)
        return int(np.count_nonzero((rule._score_rows(x) >= 0.0) != y))

    p_hat = sum(_map_blocks(block_count, trials, workers)) / trials
    return SimulationResult(
        trials=trials,
        empirical_error=p_hat,
        std_error=math.sqrt(p_hat * (1.0 - p_hat) / trials),
        seed=seed,
    )


def estimate_min_mass(P: ProductBernoulli, Q: ProductBernoulli, trials: int,
                      seed: int, *, workers: int = 1) -> tuple[float, float]:
    """Unbiased estimate of the minimum-mass overlap of two product laws.

    The pair is first reduced exactly, as for enumeration (see
    exact._reduce), to scalars a and b and the interior coordinates left,
    with product laws P' and Q'; the overlap is then
    a E[min(1, (b / a) Q'(x) / P'(x))] for x drawn from P'. Each trial
    draws x and scores the log ratio from log b - log a, so uninformative
    and deterministic coordinates cost no draws and no sampled outcome
    has a ratio of zero, though one below e^-745 still reads 0. Returns
    (estimate, std_error), a times the sample mean and its standard error.

    When the reduction leaves nothing to sample, because the supports are
    disjoint, no interior coordinate is left or a or b underflows to 0,
    the exact overlap min(a, b) returns with std_error 0.
    """
    _check_pair(P, Q)
    trials, seed, workers = _check_run(trials, seed, workers)
    groups, a, b, _ = _reduce(P.p, Q.p)
    if not groups or min(a, b) == 0.0:
        return min(a, b), 0.0
    p, q, counts = (np.array(column) for column in zip(*groups))
    p, q = np.repeat(p, counts), np.repeat(q, counts)
    log_ratio_one = np.log(q) - np.log(p)
    log_ratio_zero = np.log(1.0 - q) - np.log(1.0 - p)
    offset = math.log(b) - math.log(a)

    def block_sums(block: int, m: int) -> tuple[float, float]:
        _, x = _draw_block(seed, block, m, p)
        # min(1, ratio), clipped in the log domain so exp cannot overflow
        ratio = np.exp(np.minimum(0.0, _scores(x, offset, log_ratio_one, log_ratio_zero)))
        return float(ratio.sum()), float(np.square(ratio).sum())

    total = 0.0
    total_sq = 0.0
    for s1, s2 in _map_blocks(block_sums, trials, workers):
        total += s1
        total_sq += s2
    estimate = total / trials
    variance = max(0.0, total_sq / trials - estimate * estimate)
    return a * estimate, a * math.sqrt(variance / trials)

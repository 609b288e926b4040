"""Monte Carlo estimators for panels too large to enumerate.

Randomness comes from the Philox 4x64 counter-based generator, keyed per
block as (seed, block index). The constants of Philox are fixed by the
algorithm, so a (panel, trials, seed) triple produces the same stream on
every platform, and distinct blocks get independent streams by
construction rather than by distance in one long stream.

Trials are sharded into fixed-size blocks, which _scored_blocks, the
one block loop of both estimators, sizes and fans out over worker
threads: it draws each block, scores it with a rule and reduces it to
either an integer mismatch count or a pair of partial float sums, and
those are combined in block order, so the worker count never changes the
result. The worker count is the workers argument, 1 by default; the two
estimators here are the only code that takes one.

A block is drawn _CHUNK_ROWS trials at a time as raw 64-bit Philox
words, and its votes are packed 8 to a byte (see _draw_block). A vote at
rate p is 1 when (w >> 11) < ceil(p * 2^53) for its word w.
Generator.random would turn the same word into the uniform
(w >> 11) * 2^-53, and that uniform lies below p exactly when the
integer comparison holds, so the votes, the streams and every result
are those of thresholding random() uniforms, without building a float
per vote. Consecutive draws continue the block's stream, so the chunks
hold exactly the votes of one whole-block draw.

estimate_min_mass samples only the interior coordinates of the pair's
exact reduction (see exact._Reduced), and reads the rates and the
complements that the reduced pair carries, so it forms no 1 - q.
simulate_error draws its votes at ExpertPanel._vote_rates.
Each block is scored in one _score_packed call of a rule.DecisionRule:
the panel's build_rule for simulate_error, and for estimate_min_mass the
rule._likelihood_rule whose weights are the log ratios of Q' to P' and
whose offset is log b - log a. The offset comes first, then one
256-entry table lookup per byte of 8 votes, byte by byte in index
order. simulate_error counts the block's mismatches, and
estimate_min_mass turns the scores into clipped ratios in place and sums
them once and, squared in place, once more. Working memory per worker
is about 25 KiB per expert for simulate_error: the chunk's words and
per-trial thresholds (8 KiB each), its bool votes, packed in place
(1 KiB), and the block's packed votes (8 KiB); with the block's scores
that is about 2.1 MiB at n = 64 and 25 MiB at n = 1001.
estimate_min_mass keeps no per-trial thresholds, about 17 KiB per
expert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExpertPanel, ProductBernoulli, ValidationError, _check_unit, _integer
from .exact import _reduce
from .rule import DecisionRule, _decides_one, _likelihood_rule, _pack, build_rule

__all__ = ["BLOCK_SIZE", "SimulationResult", "simulate_error", "estimate_min_mass"]

BLOCK_SIZE = 1 << 16

_MASK64 = (1 << 64) - 1

# trials drawn and thresholded at a time; divides BLOCK_SIZE
_CHUNK_ROWS = 1 << 10


def _block_generator(seed: int, block: int) -> np.random.Generator:
    key = (block << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _thresholds(p) -> np.ndarray:
    """ceil(p * 2^53) as uint64: a word w of the block's stream is a 1 vote
    at rate p exactly when (w >> 11) < ceil(p * 2^53).

    Generator.random returns (w >> 11) * 2^-53 for each word w of Philox,
    and for an integer j, j * 2^-53 < p holds exactly when j < ceil(p * 2^53).
    Scaling by 2^53 and ceil are exact in floats, so rate 0 gets threshold
    0 (never a 1 vote) and rate 1 gets 2^53 (always a 1 vote).
    """
    return np.ceil(np.asarray(p, dtype=float) * 2.0**53).astype(np.uint64)


def _draw_block(seed: int, block: int, m: int, thresholds: np.ndarray):
    """(y, x): the m trials of one block, y its bool labels (None without
    a label column) and x its (ceil(n / 8), m) uint8 votes, as
    DecisionRule._score_packed reads them.

    Each trial is one row of raw 64-bit words from the block's stream,
    shifted right by 11 and compared with the integer thresholds from
    _thresholds, which gives exactly the votes of comparing
    Generator.random() uniforms with the rates. With (n,) thresholds,
    every column is a vote, 1 below thresholds[i]. With a (2, 1 + n)
    table, column 0 draws the label y, 1 below thresholds[0, 0], which
    both rows share, and the trial's whole row of words is then compared
    with row y of the table, reading words and thresholds contiguously;
    either way each chunk takes one compare of its words.
    The words are drawn _CHUNK_ROWS rows at a time; consecutive random_raw
    calls continue the stream, so the chunks hold exactly the words of
    one whole-block draw. Each chunk's votes land in a zero-padded bool
    buffer, whose rows hold 8 ceil(n / 8) votes from an 8-byte boundary
    on, and rule._pack packs the whole rows in place, 8 to a byte, the
    label's word too, which is never read; the vote bytes are copied
    transposed into x. Each packed word is below 256, so its bytes 1 .. 7,
    which hold all of a row's padding, are written as 0 and the next chunk
    finds the padding still 0.
    """
    rows = min(_CHUNK_ROWS, m)
    width = thresholds.shape[-1]
    lead = 1 if thresholds.ndim == 2 else 0
    n = width - lead
    nb = -(-n // 8)
    # a label column lands at the end of 8 leading bools, so each row's
    # votes start on an 8-byte boundary; the votes past n stay 0
    skip = 8 * lead
    words = _block_generator(seed, block).bit_generator
    chunk = np.zeros((rows, skip + 8 * nb), dtype=bool)
    # whole rows: numpy packs contiguous words in one flat loop, where the
    # vote columns alone would take one short loop per row
    packed = chunk.view("<u8")
    votes = np.empty((nb, m), dtype=np.uint8)
    if lead:
        y = np.empty(m, dtype=bool)
        threshold = np.empty((rows, width), dtype=np.uint64)
    else:
        y = None
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        k = hi - lo
        w = words.random_raw((k, width))
        w >>= np.uint64(11)
        t = thresholds
        if lead:
            np.less(w[:, 0], thresholds[0, 0], out=y[lo:hi])
            t = thresholds.take(y[lo:hi].view(np.uint8), axis=0, out=threshold[:k], mode="clip")
        np.less(w, t, out=chunk[:k, skip - lead:skip + n])
        votes[:, lo:hi] = _pack(packed[:k])[:, lead:].T
        del w  # free the words before the next chunk's are drawn
    return y, votes


def _check_run(trials, seed, workers) -> tuple[int, int, int]:
    """(trials, seed, workers) checked; bools and floats raise ValidationError."""
    return _integer(trials, "trials"), _integer(seed, "seed", None), _integer(workers, "workers")


def _scored_blocks(rule: DecisionRule, thresholds: np.ndarray, seed: int, trials: int,
                   workers: int, reduce) -> list:
    """[reduce(y, scores) for each block], in block order whatever the
    number of worker threads: each block's labels y and votes are drawn
    by _draw_block at the thresholds, and its votes scored by rule. The
    one block loop of both estimators."""
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE

    def block(b: int):
        m = min(BLOCK_SIZE, trials - b * BLOCK_SIZE)
        y, x = _draw_block(seed, b, m, thresholds)
        return reduce(y, rule._score_packed(x, m))

    if workers == 1 or n_blocks == 1:
        return [block(b) for b in range(n_blocks)]
    # imported here, so that importing the package loads neither
    # concurrent.futures nor the logging module it pulls in
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
        return list(pool.map(block, range(n_blocks)))


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one generative simulation run.

    empirical_error times trials is an integer mismatch count, and
    std_error is the binomial plug-in sqrt(p (1-p) / trials). seed is the
    seed as given; the stream is keyed by seed mod 2^64.
    """

    trials: int
    empirical_error: float
    std_error: float
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        _check_unit(self, ("empirical_error",), 0.0)
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
    and records whether the decision missed the label. build_rule is the
    Bayes rule at p_y on every legal panel, boundary rates included, so
    this estimates the risk at the panel's own prior, not the folded one.
    """
    trials, seed, workers = _check_run(trials, seed, workers)
    rule = build_rule(panel)
    p, _, q, _ = panel._vote_rates()
    # row y: the label's threshold, then those of the votes given label y
    thresholds = _thresholds([np.r_[panel.p_y, q], np.r_[panel.p_y, p]])

    def mismatches(y: np.ndarray, score: np.ndarray) -> int:
        return int(np.count_nonzero(_decides_one(score) != y))

    p_hat = sum(_scored_blocks(rule, thresholds, seed, trials, workers, mismatches)) / trials
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
    exact._Reduced), to scalars a and b and the interior coordinates left,
    with product laws P' and Q'; the overlap is then
    a E[min(1, (b / a) Q'(x) / P'(x))] for x drawn from P'. Each trial
    draws x and scores the log ratio from log b - log a, so uninformative
    and deterministic coordinates cost no draws and no sampled outcome
    has a ratio of zero, though one below e^-745 still reads 0. Each
    vote weighs what rule._likelihood_rule gives it from the rates and
    complements the reduced pair carries (_Reduced.p, pc, q and qc), so
    no 1 - q is formed from a rounded rate. Returns
    (estimate, std_error), a times the sample mean and its standard error.

    When the reduction leaves nothing to sample, because the supports are
    disjoint, no interior coordinate is left or a or b underflows to 0,
    the exact overlap min(a, b) returns with std_error 0.
    """
    r = _reduce(P, Q)
    trials, seed, workers = _check_run(trials, seed, workers)
    if not r.m.size or min(r.a, r.b) == 0.0:
        return min(r.a, r.b), 0.0
    p, pc, q, qc = (np.repeat(v, r.m) for v in (r.p, r.pc, r.q, r.qc))
    rule = _likelihood_rule(math.log(r.b) - math.log(r.a), q, qc, p, pc)

    def ratio_sums(_, ratio: np.ndarray) -> tuple[float, float]:
        # min(1, ratio), clipped in the log domain so exp cannot overflow
        np.exp(np.minimum(0.0, ratio, out=ratio), out=ratio)
        total = float(ratio.sum())
        return total, float(np.square(ratio, out=ratio).sum())

    total = total_sq = 0.0
    # added one by one in block order: sum() compensates floats from Python 3.12
    for s1, s2 in _scored_blocks(rule, _thresholds(p), seed, trials, workers, ratio_sums):
        total += s1
        total_sq += s2
    estimate = total / trials
    variance = max(0.0, total_sq / trials - estimate * estimate)
    return r.a * estimate, r.a * math.sqrt(variance / trials)

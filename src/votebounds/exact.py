"""Exact quantities for pairs of product Bernoulli laws on the hypercube.

Overlap and total variation are exact sums over all of {0, 1}^n of
outcome masses kept in the linear domain; masses that underflow to zero
for extreme parameters are acceptable in such sums. Exact work is capped
at a reduced table of 2^n_max points (n_max 24 by default); larger
instances must go through the Monte Carlo estimators instead.

Every pair is first reduced exactly to the record _Reduced, whose
docstring states the identity both methods rest on. The reduction
reads each law's complements (ProductBernoulli._c) beside its rates, so
no 1 - p is formed from a rounded rate:
- coordinates with p_i == q_i drop out;
- m coordinates sharing one interior (p_i, q_i) pair, complements
  included, become one (m + 1)-state binomial factor;
- coordinates where exactly one law is deterministic peel into a scalar
  weight per law, and the other law's mass off the point mass goes
  straight into sum |P - Q| (off_a or off_b);
- a coordinate where both laws are deterministic and differ means
  disjoint supports, and the result is exactly (0, 2).
The same reduction stands in front of the Monte Carlo overlap
estimator, which samples only the interior coordinates it leaves.
A pair the reduction empties (every coordinate equal or peeled, or
disjoint supports) is answered exactly from its scalars, by both
methods. Every other reduced table meets in the middle (Horowitz and
Sahni, 1974): two halves of balanced table size, one sorted by log
ratio and searched with the sorted thresholds of the other; see
_overlap. Time and memory grow like the square root of the reduced
table, so panels with duplicate, uninformative or boundary experts take
less time than panels of distinct interior experts. The cap bounds log2
of the reduced table, the product of the factor sizes, so n distinct
interior experts count n against it and duplicate, uninformative or
boundary experts count less. Exact work is serial and takes no worker
count; only the Monte Carlo estimators run threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (ExpertPanel, ProductBernoulli, ValidationError, _check_unit, _integer,
                   _ordered, fold_bias)

__all__ = [
    "DEFAULT_N_MAX",
    "EnumerationLimitError",
    "AffinityResult",
    "min_mass",
    "bhattacharyya",
    "affinity",
    "optimal_error",
]

DEFAULT_N_MAX = 24


class EnumerationLimitError(ValueError):
    """Instance too large for exact enumeration; use the Monte Carlo module."""


def _outer_table(factors, start, combine) -> np.ndarray:
    """Every combination of the factors' states, one table per row of start.

    start is an (r, 1) array and each factor an (r, s) array of states,
    row k of the factor belonging to row k of start. The factors are
    applied in turn, each making the table s times longer: entry
    i * len + j of the new row is combine(state i of the factor, entry j
    so far), for len the old length. So the first factor is the
    fastest-varying digit of the column index, and each entry is
    combined from start outward in factor order. _overlap multiplies
    the (2, s) mass factors into a (2, 1) scale; for the factors of
    _bernoulli(p, pc, q, qc) from [[1], [1]], bit i of column j is
    coordinate i, so table[0, j] is the P-probability of the vector whose
    i-th entry is the i-th bit of j. rule._byte_tables adds the vote
    weights of each bit to zeros.
    """
    table = np.asarray(start, dtype=np.float64)
    for f in factors:
        table = combine(f[:, :, None], table[:, None, :]).reshape(len(table), -1)
    return table


def _bernoulli(p, pc, q, qc) -> np.ndarray:
    """The two-state factors [[pc_i, p_i], [qc_i, q_i]], shape (n, 2, 2),
    for rates p, q and their complements pc, qc."""
    f = np.empty((len(p), 2, 2))
    f[:, 0, 0], f[:, 0, 1], f[:, 1, 0], f[:, 1, 1] = pc, p, qc, q
    return f


def _binomial(m: int, p: float, c: float) -> list[float]:
    """Law of the number of ones among m coordinates that each have rate p
    and complement c.

    For interior p. The terms are multiplied outward from the mode by the
    ratio of neighbours and then normalized by their sum, so no term
    grows past about 1 and no binomial coefficient is formed.
    """
    odds = p / c
    mode = int((m + 1) * p)
    w = [0.0] * (m + 1)
    w[mode] = 1.0
    for k in range(mode, m):
        w[k + 1] = w[k] * odds * (m - k) / (k + 1)
    for k in range(mode, 0, -1):
        w[k - 1] = w[k] / odds * k / (m - k + 1)
    total = math.fsum(w)
    return [x / total for x in w]


def _point_mass_share(d: float, r: float, rc: float, m: int) -> tuple[float, float]:
    """(w, 1 - w) for w the mass that m coordinates of rate r and
    complement rc put on all-d.

    A coordinate's mass on d is r at d = 1 and rc at d = 0. Its log is
    taken from whichever of that mass and its complement is at most 1/2:
    a law built from its rate or from its complement holds that one
    exactly, where the other may be rounded.
    """
    s, t = (r, rc) if d == 1.0 else (rc, r)
    log_w = m * (math.log(s) if s <= 0.5 else math.log1p(-t))
    return math.exp(log_w), -math.expm1(log_w)


@dataclass(frozen=True)
class _Reduced:
    """A pair of product laws P and Q after the exact reduction of _reduce.

    p, pc, q, qc and m hold one entry per distinct interior group with
    p != q, in order of first appearance: its two rates, their
    complements as the laws hold them, and its number of coordinates.
    P' and Q' are the product laws of those coordinates, each rate
    repeated m times, and over the points y of their product
        sum_x min(P, Q) = sum_y min(a P'(y), b Q'(y)),
        sum_x |P - Q| = off_a + off_b + sum_y |a P'(y) - b Q'(y)|,
    where off_a is P's mass off the point masses of Q's deterministic
    coordinates and off_b is Q's off P's, so a = 1 - off_a and
    b = 1 - off_b. With no groups the product has one point, of mass a
    under P and b under Q, and the second sum is 2 max(off_a, off_b),
    which never cancels as off_a + off_b + |a - b| would. Disjoint
    supports give no groups, a = b = 0 and off_a = off_b = 1.
    """

    p: np.ndarray
    pc: np.ndarray
    q: np.ndarray
    qc: np.ndarray
    m: np.ndarray
    a: float
    b: float
    off_a: float
    off_b: float


def _reduce(P: ProductBernoulli, Q: ProductBernoulli) -> _Reduced:
    """The checked pair P, Q reduced exactly (see _Reduced).

    Coordinates group on their rates and complements, those with
    p_i == q_i drop out, and a group with exactly one deterministic side,
    by its rate, peels into the scalars: off its point mass that side is
    zero, so all the other side's mass there is |P - Q|. a and b are
    products of the peeled point masses, never exp of a log sum.
    """
    _check_pair(P, Q)
    a = b = 1.0
    off_a = off_b = 0.0
    groups = []
    coords = zip(P.p.tolist(), P._c.tolist(), Q.p.tolist(), Q._c.tolist())
    for (pi, pci, qi, qci), m in Counter(coords).items():
        if pi == qi:
            continue
        p_det, q_det = pi in (0.0, 1.0), qi in (0.0, 1.0)
        if p_det and q_det:
            groups, a, b, off_a, off_b = [], 0.0, 0.0, 1.0, 1.0
            break
        if p_det:
            w, rest = _point_mass_share(pi, qi, qci, m)
            off_b += b * rest
            b *= w
        elif q_det:
            w, rest = _point_mass_share(qi, pi, pci, m)
            off_a += a * rest
            a *= w
        else:
            groups.append((pi, pci, qi, qci, m))
    *rates, m = zip(*groups) if groups else ((),) * 5
    return _Reduced(*(np.array(v, dtype=float) for v in rates),
                    np.array(m, dtype=np.int64), a, b, off_a, off_b)


def _halves(factors: list) -> tuple[list, list]:
    """Greedy split of factors, largest first, into halves of balanced log size.

    B takes ties, so A, whose thresholds are the search keys, is never
    the larger half: the search costs one binary search per key.
    """
    halves: tuple[list, list] = ([], [])
    logs = [0.0, 0.0]
    for f in factors:
        i = logs[1] <= logs[0]
        halves[i].append(f)
        logs[i] += math.log(f.shape[1])
    return halves


def _sorted_by_log_ratio(table: np.ndarray):
    """(keys, row 0, row 1) in increasing key order.

    The key of a point is log table[0] - log table[1], so a table passed
    with its rows swapped, Q first, is keyed by log Q - log P. Points
    with P = Q = 0 get NaN keys; NaN sorts and searches last, and such
    points add nothing to either sum wherever they land.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        key = np.log(table[0])
        key -= np.log(table[1])
    order = np.argsort(key)
    return key[order], table[0][order], table[1][order]


def _below_above(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x[:k_i].sum() and x[k_i:].sum() for each i, both summed directly.

    Taking the suffix as total minus prefix would cancel when the prefix
    holds nearly all the mass.
    """
    sums = np.empty(len(x) + 1)
    sums[0] = 0.0
    np.cumsum(x, out=sums[1:])
    below = sums[k]
    sums[-1] = 0.0
    np.cumsum(x[::-1], out=sums[-2::-1])
    return below, sums[k]


def _check_pair(P: ProductBernoulli, Q: ProductBernoulli) -> None:
    if not isinstance(P, ProductBernoulli) or not isinstance(Q, ProductBernoulli):
        raise ValidationError("expected a pair of ProductBernoulli laws")
    if P.n != Q.n:
        raise ValidationError(f"dimension mismatch: {P.n} vs {Q.n} coordinates")


def _overlap(P: ProductBernoulli, Q: ProductBernoulli,
             n_max: int) -> tuple[float, float]:
    """(sum of min(P, Q), sum of |P - Q|) over the cube, accumulated apart.

    The pair is reduced first, and a reduced table of more than 2^n_max
    points is refused; both sums are then taken over the reduced pair
    (see _Reduced). The factors of a nonempty table are split into
    halves A and B; A is empty when there is one factor. For a point
    (x, y) with x in A and y in B, a P(x, y) <= b Q(x, y) exactly when
    log P_B(y) - log Q_B(y) <= log b Q_A(x) - log a P_A(x), so with B
    sorted by that ratio P is the minimum on a prefix and Q on the
    suffix. Each half's P and Q masses are one _outer_table of its
    factors, multiplied into the rows [1, 1] for B and [a, b] for A; A's
    rows are then swapped, Q first, so that its keys are the thresholds.
    A is sorted by its threshold too, so the search runs on sorted keys,
    which is several times faster than on unsorted ones.
    Each array is released as soon as it is used: every page the call
    touches for the first time costs a page fault, and blocks freed
    earlier in the call are reused without one.
    """
    n_max = _integer(n_max, "n_max")
    r = _reduce(P, Q)
    sizes = r.m.tolist()
    # a Python int product: an int64 one wraps past 2^63 points
    size = math.prod(m + 1 for m in sizes)
    # bit_length, not 1 << n_max: n_max is user input and may be huge
    if (size - 1).bit_length() > n_max:
        raise EnumerationLimitError(
            f"n = {P.n} reduces to a table of {size} points, more than 2^{n_max}: "
            f"exceeds the enumeration cap n_max = {n_max}"
        )
    if not sizes:
        return min(r.a, r.b), 2.0 * max(r.off_a, r.off_b)
    # one binomial factor per group of m > 1 coordinates, largest first,
    # then the two-state factors of single coordinates in order
    rates = (r.p, r.pc, r.q, r.qc)
    factors = sorted((np.array((_binomial(m, p, pc), _binomial(m, q, qc)))
                      for p, pc, q, qc, m in zip(*(v.tolist() for v in rates), sizes) if m > 1),
                     key=lambda f: f.shape[1], reverse=True)
    single = r.m == 1
    factors.extend(_bernoulli(*(v[single] for v in rates)))
    half_a, half_b = _halves(factors)
    ratio_b, pb, qb = _sorted_by_log_ratio(_outer_table(half_b, [[1], [1]], np.multiply))
    thresh_a, qa, pa = _sorted_by_log_ratio(_outer_table(half_a, [[r.a], [r.b]], np.multiply)[::-1])
    k = np.searchsorted(ratio_b, thresh_a, side="right")
    del ratio_b, thresh_a
    p_low, p_high = _below_above(pb, k)
    q_low, q_high = _below_above(qb, k)
    # In place from here: P is the minimum below each cut and Q above it,
    # and |P - Q| = (Q - P) below plus (P - Q) above.
    p_low *= pa
    p_high *= pa
    q_low *= qa
    q_high *= qa
    overlap = float(np.sum(p_low + q_high))
    q_low -= p_low
    p_high -= q_high
    q_low += p_high
    return overlap, r.off_a + r.off_b + float(np.sum(q_low))


def min_mass(P: ProductBernoulli, Q: ProductBernoulli, *,
             n_max: int = DEFAULT_N_MAX) -> float:
    """Mass of the pointwise minimum, sum over x of min(P(x), Q(x)).

    Equals 1 exactly when P = Q and 1 minus the total variation distance
    in general. Half this quantity is the error of the best possible
    binary test between P and Q under a fair coin prior.
    """
    return _overlap(P, Q, n_max)[0]


def bhattacharyya(P: ProductBernoulli, Q: ProductBernoulli) -> float:
    """Bhattacharyya affinity, sum over x of sqrt(P(x) Q(x)).

    Factorizes over coordinates for product laws:
    prod_i [sqrt(p_i q_i) + sqrt((1-p_i)(1-q_i))], so no enumeration is
    needed and any dimension is fine. The complements are the laws' own.
    """
    _check_pair(P, Q)
    factors = np.sqrt(P.p * Q.p) + np.sqrt(P._c * Q._c)
    return float(np.prod(factors))


@dataclass(frozen=True)
class AffinityResult:
    """Closeness measures for one pair of product laws.

    min_mass and tv are complementary (they sum to 1), and min_mass never
    exceeds the Bhattacharyya affinity, up to a relative rounding slack
    (see core._ordered), so the order is checked at any scale.
    """

    min_mass: float
    tv: float
    bhattacharyya: float
    n: int

    _TOL = 1e-9

    def __post_init__(self):
        _check_unit(self, ("min_mass", "tv", "bhattacharyya"), self._TOL)
        if abs(self.min_mass + self.tv - 1.0) > 1e-12:
            raise ValidationError(
                f"min_mass + tv = {self.min_mass + self.tv} deviates from 1"
            )
        if not _ordered(self.min_mass, self.bhattacharyya, self.n):
            raise ValidationError(
                f"min_mass {self.min_mass} exceeds Bhattacharyya affinity "
                f"{self.bhattacharyya}"
            )


def affinity(P: ProductBernoulli, Q: ProductBernoulli, *,
             n_max: int = DEFAULT_N_MAX) -> AffinityResult:
    """Bundle min-mass, total variation and Bhattacharyya affinity."""
    m, absdiff = _overlap(P, Q, n_max)
    return AffinityResult(
        min_mass=m, tv=0.5 * absdiff, bhattacharyya=bhattacharyya(P, Q), n=P.n,
    )


def optimal_error(panel: ExpertPanel, *, n_max: int = DEFAULT_N_MAX) -> float:
    """Optimal aggregation error of the panel after bias folding.

    For an unbiased panel this is the error probability of the best
    possible rule, half the overlap of the two label-conditional vote
    laws. A biased prior is first absorbed into an extra expert and the
    value returned is the optimal error of that augmented unbiased
    problem, the quantity every closed-form bound here addresses. It
    averages the risks of the original problem at the prior and at its
    complement, so it matches the prior-weighted risk exactly for
    symmetric panels and may exceed it for asymmetric ones.
    """
    folded = fold_bias(panel)
    return 0.5 * min_mass(folded.law_given_one(), folded.law_given_zero(), n_max=n_max)

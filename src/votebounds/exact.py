"""Exact quantities for pairs of product Bernoulli laws on the hypercube.

Overlap and total variation are exact sums over all of {0, 1}^n of
outcome masses kept in the linear domain; masses that underflow to zero
for extreme parameters are acceptable in such sums. Exact work is capped
at a reduced table of 2^n_max points (n_max 24 by default); larger
instances must go through the Monte Carlo estimators instead.

Every pair is first reduced exactly (see _reduce):
- coordinates with p_i == q_i drop out;
- m coordinates sharing one interior (p_i, q_i) pair become one
  (m + 1)-state binomial factor;
- coordinates where exactly one law is deterministic peel into a scalar
  weight per law, and the other law's mass off the point mass goes
  straight into sum |P - Q|;
- a coordinate where both laws are deterministic and differ means
  disjoint supports, and the result is exactly (0, 2).
The same reduction stands in front of the Monte Carlo overlap
estimator, which samples only the interior coordinates it leaves.
When the product of the remaining factors has at most 2^12 points it is
summed whole. Larger products meet in the middle (Horowitz and Sahni,
1974): two halves of balanced table size, one sorted by log ratio and
searched with the sorted thresholds of the other; see _overlap. Time
and memory grow like the square root of the reduced table, so panels
with duplicate, uninformative or boundary experts take less time than
panels of distinct interior experts. The cap bounds log2 of the reduced
table, the product of the factor sizes, so n distinct interior experts
count n against it and duplicate, uninformative or boundary experts
count less. Exact work is serial and takes no worker count; only the
Monte Carlo estimators run threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import ExpertPanel, ProductBernoulli, ValidationError, _integer, fold_bias

__all__ = [
    "DEFAULT_N_MAX",
    "EnumerationLimitError",
    "AffinityResult",
    "min_mass",
    "tv_distance",
    "bhattacharyya",
    "affinity",
    "optimal_error",
]

DEFAULT_N_MAX = 24

# Up to 2**_WHOLE_TABLE_N_MAX points in the reduced table a plain sum over
# it beats the sort of the meet-in-the-middle split. Both are equally
# accurate (about 3e-16 relative against an exact fractions sum, n <= 8),
# but on a 2-vCPU Xeon (Python 3.11, numpy 2.4) at n = 2 the split takes
# about 106 us and the whole table 45 us. Without this path the six n = 2 sweeps of acceptance
# criterion 03 took 0.54-1.37 ms against its 1 ms gate and failed 2 of 5 runs.
_WHOLE_TABLE_N_MAX = 12


class EnumerationLimitError(ValueError):
    """Instance too large for exact enumeration; use the Monte Carlo module."""


def _mass_table(factors, scale: tuple[float, float] = (1.0, 1.0)) -> np.ndarray:
    """Outcome masses of two product laws, one row each, over all points.

    factors is a sequence of (2, s) arrays, each one finite factor with
    its P-side masses in row 0 and its Q-side masses in row 1. The state
    of the first factor is the fastest-varying digit of the column index;
    for the factors of _bernoulli(p, q), bit i of column j is coordinate
    i, so table[0, j] is the P-probability of the vector whose i-th entry
    is the i-th bit of j. Row r is multiplied through by scale[r].
    """
    out = np.array(scale, dtype=np.float64).reshape(2, 1)
    for f in factors:
        out = (f[:, :, None] * out[:, None, :]).reshape(2, -1)
    return out


def _bernoulli(p, q) -> np.ndarray:
    """The two-state factors [[1 - p_i, p_i], [1 - q_i, q_i]], shape (n, 2, 2)."""
    f = np.empty((len(p), 2, 2))
    f[:, 0, 1], f[:, 1, 1] = p, q
    f[:, :, 0] = 1.0 - f[:, :, 1]
    return f


def _binomial(m: int, p: float) -> list[float]:
    """Law of the number of ones among m coordinates that each have rate p.

    For interior p. The terms are multiplied outward from the mode by the
    ratio of neighbours and then normalized by their sum, so no term
    grows past about 1 and no binomial coefficient is formed.
    """
    odds = p / (1.0 - p)
    mode = int((m + 1) * p)
    w = [0.0] * (m + 1)
    w[mode] = 1.0
    for k in range(mode, m):
        w[k + 1] = w[k] * odds * (m - k) / (k + 1)
    for k in range(mode, 0, -1):
        w[k - 1] = w[k] / odds * k / (m - k + 1)
    total = math.fsum(w)
    return [x / total for x in w]


def _point_mass_share(d: float, r: float, m: int) -> tuple[float, float]:
    """(w, 1 - w) for w the mass that m coordinates of rate r put on all-d."""
    if m == 1:
        return (r, 1.0 - r) if d == 1.0 else (1.0 - r, r)
    log_w = m * (math.log(r) if d == 1.0 else math.log1p(-r))
    return math.exp(log_w), -math.expm1(log_w)


def _reduce(p: np.ndarray, q: np.ndarray):
    """Exact reduction of a pair of product laws to interior groups.

    Returns (groups, a, b, spill). groups lists one (p, q, m) per distinct
    interior pair p != q, with m its number of coordinates, in order of
    first appearance; P' and Q' are the product laws of those coordinates.
    Over the points y of their product
        sum_x min(P, Q) = sum_y min(a P'(y), b Q'(y)),
        sum_x |P - Q| = spill + sum_y |a P'(y) - b Q'(y)|.
    Coordinates with p_i == q_i drop out, and a group with exactly one
    deterministic side peels into the scalars: off its point mass that
    side is zero, so all the other side's mass there is |P - Q|. Disjoint
    supports give no groups, a = b = 0 and spill = 2.
    """
    a = b = 1.0
    spill = 0.0
    groups = []
    for (pi, qi), m in Counter(zip(p.tolist(), q.tolist())).items():
        if pi == qi:
            continue
        p_det, q_det = pi in (0.0, 1.0), qi in (0.0, 1.0)
        if p_det and q_det:
            return [], 0.0, 0.0, 2.0
        if p_det:
            w, rest = _point_mass_share(pi, qi, m)
            spill += b * rest
            b *= w
        elif q_det:
            w, rest = _point_mass_share(qi, pi, m)
            spill += a * rest
            a *= w
        else:
            groups.append((pi, qi, m))
    return groups, a, b, spill


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


def _sorted_by_log_ratio(table: np.ndarray, num: int):
    """(keys, P row, Q row) in increasing key order.

    The key of a point is log table[num] - log table[1 - num]. Points
    with P = Q = 0 get NaN keys; NaN sorts and searches last, and such
    points add nothing to either sum wherever they land.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        key = np.log(table[num])
        key -= np.log(table[1 - num])
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

    The pair is reduced first (see _reduce), and a reduced table of more
    than 2^n_max points is refused. A small reduced table is summed
    whole; the factors of a larger one are split into halves A and B.
    For a point (x, y) with x in A and y in B,
    a P(x, y) <= b Q(x, y) exactly when
    log P_B(y) - log Q_B(y) <= log b Q_A(x) - log a P_A(x), so with B
    sorted by that ratio P is the minimum on a prefix and Q on the
    suffix. A is sorted by its threshold too, so the search runs on
    sorted keys, which is several times faster than on unsorted ones.
    Each array is released as soon as it is used: every page the call
    touches for the first time costs a page fault, and blocks freed
    earlier in the call are reused without one.
    """
    n_max = _integer(n_max, "n_max")
    _check_pair(P, Q)
    groups, a, b, spill = _reduce(P.p, Q.p)
    size = math.prod(m + 1 for _, _, m in groups)
    # bit_length, not 1 << n_max: n_max is user input and may be huge
    if (size - 1).bit_length() > n_max:
        raise EnumerationLimitError(
            f"n = {P.n} reduces to a table of {size} points, more than 2^{n_max}: "
            f"exceeds the enumeration cap n_max = {n_max}"
        )
    # one binomial factor per group of m > 1 coordinates, largest first,
    # then the two-state factors of single coordinates in order
    factors = sorted((np.array((_binomial(m, p), _binomial(m, q)))
                      for p, q, m in groups if m > 1), key=lambda f: f.shape[1], reverse=True)
    factors.extend(_bernoulli([p for p, _, m in groups if m == 1],
                              [q for _, q, m in groups if m == 1]))
    if size <= 1 << _WHOLE_TABLE_N_MAX:
        tp, tq = _mass_table(factors, (a, b))
        return float(np.sum(np.minimum(tp, tq))), spill + float(np.sum(np.abs(tp - tq)))
    half_a, half_b = _halves(factors)
    ratio_b, pb, qb = _sorted_by_log_ratio(_mass_table(half_b), 0)
    thresh_a, pa, qa = _sorted_by_log_ratio(_mass_table(half_a, (a, b)), 1)
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
    return overlap, spill + float(np.sum(q_low))


def min_mass(P: ProductBernoulli, Q: ProductBernoulli, *,
             n_max: int = DEFAULT_N_MAX) -> float:
    """Mass of the pointwise minimum, sum over x of min(P(x), Q(x)).

    Equals 1 exactly when P = Q and 1 minus the total variation distance
    in general. Half this quantity is the error of the best possible
    binary test between P and Q under a fair coin prior.
    """
    return _overlap(P, Q, n_max)[0]


def tv_distance(P: ProductBernoulli, Q: ProductBernoulli, *,
                n_max: int = DEFAULT_N_MAX) -> float:
    """Total variation distance, half the l1 distance between the laws."""
    return 0.5 * _overlap(P, Q, n_max)[1]


def bhattacharyya(P: ProductBernoulli, Q: ProductBernoulli) -> float:
    """Bhattacharyya affinity, sum over x of sqrt(P(x) Q(x)).

    Factorizes over coordinates for product laws:
    prod_i [sqrt(p_i q_i) + sqrt((1-p_i)(1-q_i))], so no enumeration is
    needed and any dimension is fine.
    """
    _check_pair(P, Q)
    factors = np.sqrt(P.p * Q.p) + np.sqrt((1.0 - P.p) * (1.0 - Q.p))
    return float(np.prod(factors))


@dataclass(frozen=True)
class AffinityResult:
    """Closeness measures for one pair of product laws.

    min_mass and tv are complementary (they sum to 1), and min_mass never
    exceeds the Bhattacharyya affinity.
    """

    min_mass: float
    tv: float
    bhattacharyya: float
    n: int

    _TOL = 1e-9

    def __post_init__(self):
        for name in ("min_mass", "tv", "bhattacharyya"):
            value = getattr(self, name)
            if not -self._TOL <= value <= 1.0 + self._TOL:
                raise ValidationError(f"{name} = {value} lies outside [0, 1]")
        if abs(self.min_mass + self.tv - 1.0) > 1e-12:
            raise ValidationError(
                f"min_mass + tv = {self.min_mass + self.tv} deviates from 1"
            )
        if self.min_mass > self.bhattacharyya + self._TOL:
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

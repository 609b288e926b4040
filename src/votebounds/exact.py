"""Exact quantities for pairs of product Bernoulli laws on the hypercube.

Overlap and total variation are exact sums over all of {0, 1}^n of
outcome masses kept in the linear domain; masses that underflow to zero
for extreme parameters are acceptable in such sums. Exact work is capped
at n_max coordinates (24 by default); larger instances must go through
the Monte Carlo estimators instead.

Beyond small cubes the sums meet in the middle (Horowitz and Sahni,
1974), in 2^(n/2) time and memory; see _overlap. Exact work is serial
and takes no worker count; only the Monte Carlo estimators run threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExpertPanel, ProductBernoulli, ValidationError, _integer, _scalar, fold_bias

__all__ = [
    "DEFAULT_N_MAX",
    "EnumerationLimitError",
    "AffinityResult",
    "min_mass",
    "tv_distance",
    "bhattacharyya",
    "affinity",
    "optimal_error",
    "complement_symmetry_check",
    "tensorization_gap",
]

DEFAULT_N_MAX = 24

# Up to this many coordinates a plain sum over the full mass tables beats
# the sort of the meet-in-the-middle split. Both are equally accurate (about
# 3e-16 relative against an exact fractions sum, n <= 8), but on a 2-vCPU
# Xeon (Python 3.11, numpy 2.4) at n = 2 the split takes about 106 us and the
# whole table 45 us. Without this path the six n = 2 sweeps of acceptance
# criterion 03 took 0.54-1.37 ms against its 1 ms gate and failed 2 of 5 runs.
_WHOLE_TABLE_N_MAX = 12

_NORM_ORDERS = (1.0, 2.0, math.inf)
_COMPLEMENT_N_MAX = 12


class EnumerationLimitError(ValueError):
    """Instance too large for exact enumeration; use the Monte Carlo module."""


def _mass_table(p: np.ndarray) -> np.ndarray:
    """Outcome masses of a product law over all 2^k points.

    Bit i of the outcome index is coordinate i, so table[j] is the
    probability of the vector whose i-th entry is the i-th bit of j.
    """
    out = np.ones(1, dtype=np.float64)
    for pi in p:
        out = np.concatenate((out * (1.0 - pi), out * pi))
    return out


def _check_pair(P: ProductBernoulli, Q: ProductBernoulli,
                n_max: float = math.inf) -> int:
    if not isinstance(P, ProductBernoulli) or not isinstance(Q, ProductBernoulli):
        raise ValidationError("expected a pair of ProductBernoulli laws")
    if P.n != Q.n:
        raise ValidationError(f"dimension mismatch: {P.n} vs {Q.n} coordinates")
    if P.n > n_max:
        raise EnumerationLimitError(
            f"n = {P.n} exceeds the enumeration cap n_max = {n_max}; "
            "use the Monte Carlo estimators for panels this large"
        )
    return P.n


def _overlap(P: ProductBernoulli, Q: ProductBernoulli,
             n_max: int) -> tuple[float, float]:
    """(sum of min(P, Q), sum of |P - Q|) over the cube, accumulated apart.

    For halves A and B, P(a, b) <= Q(a, b) exactly when
    log P_B(b) - log Q_B(b) <= log Q_A(a) - log P_A(a), so with B sorted by
    that ratio P is the minimum on a prefix and Q on the suffix. Suffix
    sums are accumulated directly: total minus prefix cancels when the
    prefix holds nearly all the mass.
    """
    n = _check_pair(P, Q, _integer(n_max, "n_max"))
    if n <= _WHOLE_TABLE_N_MAX:
        tp, tq = _mass_table(P.p), _mass_table(Q.p)
        return float(np.sum(np.minimum(tp, tq))), float(np.sum(np.abs(tp - tq)))
    h = n // 2
    pa, qa = _mass_table(P.p[:h]), _mass_table(Q.p[:h])
    pb, qb = _mass_table(P.p[h:]), _mass_table(Q.p[h:])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_b = np.log(pb) - np.log(qb)
        thresh_a = np.log(qa) - np.log(pa)
    # Outcomes with P = Q = 0 get NaN keys; NaN sorts and searches last,
    # and such outcomes add nothing to either sum wherever they land.
    order = np.argsort(ratio_b)
    pb, qb = pb[order], qb[order]
    k = np.searchsorted(ratio_b[order], thresh_a, side="right")
    p_low = np.concatenate(([0.0], np.cumsum(pb)))[k]
    q_low = np.concatenate(([0.0], np.cumsum(qb)))[k]
    p_high = np.concatenate((np.cumsum(pb[::-1])[::-1], [0.0]))[k]
    q_high = np.concatenate((np.cumsum(qb[::-1])[::-1], [0.0]))[k]
    return (float(np.sum(pa * p_low + qa * q_high)),
            float(np.sum(qa * q_low - pa * p_low + pa * p_high - qa * q_high)))


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
    exceeds the Bhattacharyya affinity. method records how the enumerated
    quantities were obtained.
    """

    min_mass: float
    tv: float
    bhattacharyya: float
    n: int
    method: str

    _TOL = 1e-9

    def __post_init__(self):
        if self.method not in ("enumeration", "closed_form"):
            raise ValidationError(f"unknown affinity method {self.method!r}")
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
        method="enumeration",
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


def _norm(diff: np.ndarray, r: float) -> float:
    if r == math.inf:
        return float(np.max(np.abs(diff)))
    if r == 1.0:
        return float(np.sum(np.abs(diff)))
    return float(np.sum(np.abs(diff) ** r) ** (1.0 / r))


def complement_symmetry_check(psi: ProductBernoulli, eta: ProductBernoulli,
                              r: float) -> tuple[float, float]:
    """Both sides of the flip symmetry of sensitivity/specificity distances.

    Returns (||Ber(psi) - Ber(1-eta)||_r, ||Ber(1-psi) - Ber(eta)||_r) for
    r in {1, 2, inf}, norms taken over the 2^n outcome masses. Flipping
    every coordinate is a measure-preserving bijection of the cube that
    swaps the two pairs, so the two values agree. Capped at n = 12.
    """
    order = _scalar(r, "norm order", "[1, inf]")
    if order not in _NORM_ORDERS:
        raise ValidationError(f"norm order must be 1, 2 or inf, got {r!r}")
    _check_pair(psi, eta, _COMPLEMENT_N_MAX)
    direct = _mass_table(psi.p) - _mass_table(1.0 - eta.p)
    flipped = _mass_table(1.0 - psi.p) - _mass_table(eta.p)
    return _norm(direct, order), _norm(flipped, order)


def tensorization_gap(P: ProductBernoulli, P_alt: ProductBernoulli,
                      Q: ProductBernoulli, Q_alt: ProductBernoulli, *,
                      n_max: int = DEFAULT_N_MAX) -> float:
    """Super-multiplicativity slack of min-mass under products.

    min_mass(P x Q, P' x Q') - min_mass(P, P') * min_mass(Q, Q'), which is
    nonnegative: taking minima coordinate-block by coordinate-block before
    summing can only lose mass. P, P' share one dimension and Q, Q'
    another; the joint enumeration covers their sum.
    """
    _check_pair(P, P_alt)
    _check_pair(Q, Q_alt)
    if P.n + Q.n > _integer(n_max, "n_max"):
        raise EnumerationLimitError(
            f"joint dimension {P.n + Q.n} exceeds the enumeration cap {n_max}"
        )
    joint = min_mass(
        ProductBernoulli(np.concatenate((P.p, Q.p))),
        ProductBernoulli(np.concatenate((P_alt.p, Q_alt.p))),
        n_max=n_max,
    )
    split = min_mass(P, P_alt, n_max=n_max) * min_mass(Q, Q_alt, n_max=n_max)
    return joint - split

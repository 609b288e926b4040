"""Closed-form bounds on the error of the optimal aggregation rule.

The paper's results are three panel bounds: upper_bound, lower_bound
and symmetric_lower_bound. Each is read from full_report, which
evaluates every panel bound in one pass, and each bounds the optimal
error of the folded panel, the quantity optimal_error returns: a prior
p_y != 1/2 enters as one more expert with psi = eta = p_y (fold_bias),
and each function that takes a panel folds it first. Only build_rule
and simulate_error work at the panel's own prior. The general bounds
depend on the folded panel only through the per-expert balanced
accuracies pi_i = (psi_i + eta_i) / 2:

    upper:  (1/2) 2^n sqrt(prod_i pi_i (1 - pi_i))
    lower:  (1/2) prod_i 2 min(pi_i, 1 - pi_i)

The lower bound is the upper bound with the square-root products
replaced by exact minima, so the pair is tight simultaneously. For
symmetric panels (psi = eta = p entrywise) the lower bound sharpens to

    (1/2) 2^n sqrt(prod_i p_i (1 - p_i)) exp(-||w||_2 / 2),
    w_i = log(p_i / (1 - p_i)),

and that euclidean-norm exponent is a genuinely symmetric phenomenon:
the counterexample sweep exhibits an asymmetric panel where the
analogous expression fails to bound anything.

Two prior-art pairs for symmetric panels live only in full_report, with
no public function. The same sandwich with the lower constant 0.36 in
place of 1/2 is Manino et al.'s pair, which the 1/2 sharpens
(manino_lower, 0.72 symmetric_lower, and manino_upper, see below). The
committee-potential pair of Berend and Kontorovich, which the
root-product pair sharpens, is driven by F = sum_i (p_i - 1/2) w_i
(potential_lower, potential_upper).

The bounds and the Hellinger envelopes share one root product,
R = 2^n sqrt(prod_i x_i y_i), assembled as a log so it survives any
panel size without overflow. The log is summed as
(1/2) sum_i log(4 x_i y_i), one term per expert, so no n log 2 term
cancels against the sum, and a weak expert's term, |d_i| <= 1/2 with
d_i = x_i - y_i, is log1p(-d_i^2), so 4 x_i y_i = 1 - d_i^2 never rounds:
on 10^4 experts at psi = 1, eta = e upper_bound equals its closed form
at e = 1e-4 to 1e-8 and is 8.9e-16 off at e = 1e-2, where the log alone
lost up to 6.1e-13.

One rate formula, _rates, gives x and its complement y for a pair of
laws with rates p, q and complements pc, qc:

    x_i = (qc_i + p_i) / 2,   y_i = (pc_i + q_i) / 2,

so 1 - d_i^2 = 4 x_i y_i with d_i = p_i - q_i, and y is summed from
terms that cannot cancel, never formed as 1 - x, which rounds to 0 when
x rounds to 1. full_report passes the folded panel's vote rates,
ExpertPanel._vote_rates (psi, 1 - psi, 1 - eta and eta, the values its
two laws hold), so x is pi and y its complement; _envelopes passes each
law's rate and complement. On a symmetric panel pi_i = p_i and its
complement is 1 - p_i exactly. So
full_report takes upper, both envelopes and the Manino pair from one
root product of pi and its complement, in one pass over the folded
panel: hellinger_upper = 2 upper and manino_upper = upper exactly, so
neither adds a number of its own. The symmetric pieces take rates
already checked, not a panel, so full_report tests once that pi is
interior, and they form the log odds once, from pi and its complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    ExpertPanel,
    ProductBernoulli,
    ValidationError,
    _check_unit,
    _ordered,
    _shown,
    _vector,
    fold_bias,
)
from .exact import DEFAULT_N_MAX, _check_pair, min_mass, optimal_error

__all__ = [
    "BoundsReport",
    "SweepRow",
    "upper_bound",
    "lower_bound",
    "symmetric_lower_bound",
    "full_report",
    "counterexample_sweep",
]

_LOG2 = math.log(2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

SWEEP_KINDS = ("asym", "sym")


def _log_root_product(x: np.ndarray, y: np.ndarray) -> float:
    """log(2^n sqrt(prod_i x_i y_i)), or -inf when some x_i y_i is 0.

    y is the caller's complement of x, summed from terms that cannot
    cancel. Each term is log(4 x_i y_i): the factor 4 is exact, where
    adding n log 2 to the sum of log(x_i y_i) would cancel about n log 2
    and keep its rounding. A weak expert, |d_i| <= 1/2 with d_i = x_i - y_i
    (exact there), takes log1p(-d_i^2) instead: 4 x_i y_i = 1 - d_i^2
    rounds near 1, and n such roundings add up. Past 1/2, 1 - d_i^2 would
    cancel, so log(4 x_i y_i) stays; log1p runs only where |d_i| <= 1/2,
    since d_i can round to +-1 where x_i y_i does not vanish.
    """
    xy = x * y
    if not xy.all():
        return -math.inf
    d = x - y
    terms = np.log(4.0 * xy)
    np.log1p(-d * d, out=terms, where=np.abs(d) <= 0.5)
    return 0.5 * float(np.sum(terms))


def _root_bounds(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(R / 2, R / 2^(n/2), R) for the root product R = 2^n sqrt(prod_i x_i y_i).

    At x = pi and y its complement these are upper_bound and the two
    Hellinger envelopes of the folded laws.
    """
    log_root = _log_root_product(x, y)
    root = math.exp(log_root)
    return 0.5 * root, math.exp(log_root - 0.5 * x.size * _LOG2), root


def _rates(p, pc, q, qc) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) = ((qc + p) / 2, (pc + q) / 2): the one rate formula of the
    root product, for rates p, q and their complements pc, qc."""
    return 0.5 * (qc + p), 0.5 * (pc + q)


def _symmetric_pieces(p: np.ndarray, comp: np.ndarray, root: float) -> tuple[float, ...]:
    """(symmetric lower bound, Manino lower bound, potential_lower,
    potential_upper) at checked interior rates p, with complements comp
    and root product root.

    The log odds w_i = log(p_i / comp_i) are formed once. The
    committee-potential pair, with the potential
    F = sum_i (p_i - 1/2) w_i, whose summands are all nonnegative, is

        lower = 3 / (4 (1 + exp(2 F + 4 sqrt(F))))
        upper = exp(-F / 2),

    tight in the exponent as F grows but slack for small panels, which is
    what the root-product bounds fix.
    """
    w = np.log(p / comp)
    damp = math.exp(-0.5 * math.sqrt(float(np.sum(w * w))))
    potential = float(np.sum((p - 0.5) * w))
    x = 2.0 * potential + 4.0 * math.sqrt(potential)
    # exp(x) overflows past x ~ 709.78; well before that 1 + exp(-x) rounds to 1
    pot_lower = 0.75 / (1.0 + math.exp(x)) if x < 700.0 else 0.75 * math.exp(-x)
    return 0.5 * root * damp, 0.36 * root * damp, pot_lower, math.exp(-0.5 * potential)


def upper_bound(panel: ExpertPanel) -> float:
    """Root-product upper bound from balanced accuracies.

    Bounds optimal_error(panel): a biased panel is folded first. Zero
    whenever some expert has psi_i = eta_i = 0 or 1, since one such
    expert pins the label by itself. Read from full_report.
    """
    return full_report(panel).upper


def lower_bound(panel: ExpertPanel) -> float:
    """Product-of-minima lower bound from balanced accuracies.

    Bounds optimal_error(panel): a biased panel is folded first. Each
    factor 2 min(pi_i, 1 - pi_i) lies in [0, 1]; an expert with
    psi_i = eta_i = 0 or 1 zeroes the product, matching the zero upper
    bound there. Read from full_report.
    """
    return full_report(panel).lower


def symmetric_lower_bound(panel: ExpertPanel) -> float:
    """Sharpened lower bound for symmetric panels.

    Replaces the product of per-expert penalties by a single euclidean
    norm of the log odds in the exponent, which can only help. A biased
    panel is folded first; its prior becomes an expert with psi = eta,
    so the folded panel is symmetric when the experts are. Read from
    full_report; where its symmetric_lower is None (an asymmetric panel or
    a boundary accuracy) this raises, no silent clamping.
    """
    bound = full_report(panel).symmetric_lower
    if bound is None:
        raise ValidationError("this bound requires psi = eta entrywise, strictly inside (0, 1)")
    return bound


def _envelopes(P: ProductBernoulli, Q: ProductBernoulli) -> tuple[float, float]:
    """Closed-form bracket around the Bhattacharyya affinity, for the tv
    payload's hellinger_lower and hellinger_upper.

    With d_i = p_i - q_i:

        sqrt(prod_i ((1 - d_i^2) / 2))  <=  affinity  <=  sqrt(prod_i (1 - d_i^2))

    The upper envelope is attained when p_i + q_i = 1 for every i; the
    lower one reflects that each factor of the affinity is at least
    1/sqrt(2) times its envelope. 1 - d_i^2 is never formed: it equals
    4 x_i y_i for (x, y) the _rates of the two laws' rates and
    complements, so the upper envelope is the bounds' root product there.
    """
    _check_pair(P, Q)
    return _root_bounds(*_rates(P.p, P._c, Q.p, Q._c))[1:]


@dataclass(frozen=True, kw_only=True)
class BoundsReport:
    """Every applicable bound for one panel, evaluated after folding.

    Symmetric-only entries are None for asymmetric or boundary panels,
    exact is None unless requested. pi holds the balanced accuracies of
    the folded panel as a read-only array. When exact is present it must
    sit inside [max(lower, symmetric_lower), upper] up to a relative
    rounding slack (see core._ordered), so the check holds at the tiny
    errors of large panels too. hellinger_lower and
    hellinger_upper bracket the Bhattacharyya affinity of the folded laws,
    not the error, so they can exceed exact: one uninformative expert
    gives hellinger_lower = 1/sqrt(2) beside exact = 0.5. Two prior-art
    symmetric pairs have no public function and live only here:
    potential_lower and potential_upper, the committee-potential pair,
    and manino_lower and manino_upper, Manino et al.'s pair with lower
    constant 0.36 in place of symmetric_lower's 1/2. upper, both
    envelopes and the Manino pair come from one root product (see the
    module docstring). Fields are declared in to_dict's output order.
    """

    n: int
    pi: np.ndarray
    upper: float
    lower: float
    symmetric_lower: float | None = None
    potential_lower: float | None = None
    potential_upper: float | None = None
    manino_lower: float | None = None
    manino_upper: float | None = None
    hellinger_lower: float
    hellinger_upper: float
    exact: float | None = None

    _TOL = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "pi", _vector(self.pi, "pi"))
        _check_unit(self, [f.name for f in fields(self) if f.name not in ("n", "pi")], self._TOL)
        if self.exact is not None:
            lower, n = max(self.lower, self.symmetric_lower or 0.0), self.n
            if not (_ordered(lower, self.exact, n) and _ordered(self.exact, self.upper, n)):
                raise ValidationError(
                    f"exact error {self.exact} escapes the bracket [{lower}, {self.upper}]"
                )

    def to_dict(self) -> dict:
        """Flat mapping with None for absent entries, ready for JSON."""
        out = {field.name: getattr(self, field.name) for field in fields(self)}
        out["pi"] = self.pi.tolist()
        return out


def full_report(panel: ExpertPanel, *, with_exact: bool = False,
                n_max: int = DEFAULT_N_MAX) -> BoundsReport:
    """Evaluate all bounds that apply to a panel, folding the prior first.

    The report describes the folded panel, so n counts the extra expert
    a biased prior turns into. It is the one place a panel bound is
    evaluated: upper_bound, lower_bound and symmetric_lower_bound return
    its upper, lower and symmetric_lower. The two prior-art
    pairs have no public twin: the committee-potential pair is computed
    only here, and the Manino pair's lower end is 0.72 symmetric_lower.
    It checks once that pi is interior and hands pi and its complement
    to the symmetric pieces. Its rates come from the folded panel's
    _vote_rates through _rates, so it builds no law. with_exact
    additionally runs the exact enumeration, which requires the reduced
    table of the folded panel to stay within 2^n_max points.
    """
    folded = fold_bias(panel)
    pi, comp = _rates(*folded._vote_rates())
    upper, hell_lower, hell_upper = _root_bounds(pi, comp)
    sym_lower = pot_lower = pot_upper = man_lower = man_upper = None
    if folded.symmetric and np.all((pi > 0.0) & (pi < 1.0)):
        sym_lower, man_lower, pot_lower, pot_upper = _symmetric_pieces(pi, comp, hell_upper)
        man_upper = upper
    exact = optimal_error(folded, n_max=n_max) if with_exact else None

    return BoundsReport(
        n=folded.n,
        pi=pi,
        upper=upper,
        lower=0.5 * float(np.prod(2.0 * np.minimum(pi, comp))),
        symmetric_lower=sym_lower,
        potential_lower=pot_lower,
        potential_upper=pot_upper,
        manino_lower=man_lower,
        manino_upper=man_upper,
        hellinger_lower=hell_lower,
        hellinger_upper=hell_upper,
        exact=exact,
    )


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: true error mass next to a candidate bound value."""

    eps: float
    exact: float
    bound: float
    ratio: float


def _asym_candidate(eps: float) -> float:
    """Euclidean-norm sharpening applied to the asymmetric showcase panel.

    Evaluates sqrt(prod pi (1-pi)) * exp(-||log-odds(pi)||_2 / 2) for the
    balanced accuracies (1 - eps/2, eps/2). Not a valid bound: the sweep
    shows it overshoots the true minimum mass eps^2 without limit.
    """
    return (0.5 * eps) * (1.0 - 0.5 * eps) * (eps / (2.0 - eps)) ** _INV_SQRT2


def _sym_candidate(eps: float) -> float:
    """Root-product core sqrt(prod p (1-p)) * exp(-||w||_2 / 2) at p = (eps, eps).

    A valid lower-bound core for the symmetric showcase panel, but loose:
    the sweep shows it undershoots the true minimum mass 2 eps without
    limit.
    """
    return eps * (1.0 - eps) * (eps / (1.0 - eps)) ** _INV_SQRT2


def counterexample_sweep(kind: str, eps_grid) -> list[SweepRow]:
    """Trace the two showcase panels across a grid of eps values.

    kind "asym": experts (psi, eta) = ((1, 0), (1 - eps, eps)). The exact
    minimum mass is eps^2, the candidate value is the euclidean-norm
    sharpening of the balanced-accuracy bound, and ratio = bound / eps^2
    grows without limit as eps shrinks. This is why the sharpening is
    only available for symmetric panels.

    kind "sym": experts with psi = eta = (eps, eps). The exact minimum
    mass is 2 eps, the candidate is the root-product core, and
    ratio = bound / eps decays to zero, showing how loose the
    euclidean-norm exponent is here even though it is valid.

    Exact values are enumerated, not taken from the closed forms: the
    exact column is the overlap of the panel as built in floats, where
    1 - eps is rounded, which costs it about 2^-53 / eps of relative
    accuracy. So eps must be at least 2^-53; below about 2^-54, 1 - eps
    rounds to 1 and the panel holds a deterministic expert.
    """
    if kind not in SWEEP_KINDS:
        raise ValidationError(f"sweep kind must be one of {SWEEP_KINDS}, got {_shown(kind)}")
    rows = []
    for e in _vector(eps_grid, "eps", f"[{2.0 ** -53!r}, 1)").tolist():
        if kind == "asym":
            exact = min_mass(
                ProductBernoulli(np.array([1.0, 0.0])),
                ProductBernoulli(np.array([e, 1.0 - e])),
            )
            bound = _asym_candidate(e)
            ratio = bound / (e * e)
        else:
            exact = min_mass(
                ProductBernoulli(np.array([e, e])),
                ProductBernoulli(np.array([1.0 - e, 1.0 - e])),
            )
            bound = _sym_candidate(e)
            ratio = bound / e
        rows.append(SweepRow(eps=e, exact=exact, bound=bound, ratio=ratio))
    return rows

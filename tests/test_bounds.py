import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from votebounds import (
    BoundsReport,
    ExpertPanel,
    ProductBernoulli,
    ValidationError,
    bhattacharyya,
    counterexample_sweep,
    fold_bias,
    full_report,
    lower_bound,
    min_mass,
    optimal_error,
    symmetric_lower_bound,
    upper_bound,
)
from votebounds.bounds import _envelopes

import oracles


def sym_panel(p):
    return ExpertPanel(psi=p, eta=p)


def asym_candidate(eps):
    return (eps / 2.0) * (1.0 - eps / 2.0) * (eps / (2.0 - eps)) ** (1.0 / math.sqrt(2.0))


def sym_candidate(eps):
    return eps * (1.0 - eps) * (eps / (1.0 - eps)) ** (1.0 / math.sqrt(2.0))


# a relative slack, as BoundsReport's own check has: an absolute 1e-9
# would hide any violation by a bound smaller than 1e-9
RTOL = 1e-12

# pi = (1 + (1 - 2^-53)) / 2 rounds to 1, while the exact error is 2^-54
ROUNDED_TO_ONE = ExpertPanel(psi=[1.0], eta=[1.0 - 2.0**-53])


def assert_relative_sandwich(lower, value, upper):
    assert lower <= value * (1.0 + RTOL)
    assert value <= upper * (1.0 + RTOL)


class TestUpperBound:
    def test_uninformative_panel(self):
        assert_allclose(upper_bound(sym_panel([0.5, 0.5, 0.5])), 0.5, atol=1e-12)

    def test_boundary_average_collapses_to_zero(self):
        assert upper_bound(ExpertPanel(psi=[1.0], eta=[1.0])) == 0.0

    def test_single_expert_value(self):
        panel = sym_panel([0.6])
        got = upper_bound(panel)
        assert_allclose(got, math.sqrt(0.24), rtol=1e-12)
        assert optimal_error(panel) <= got + 1e-12

    def test_log_domain_survives_large_n(self):
        n = 600
        panel = sym_panel(np.full(n, 0.9))
        got = upper_bound(panel)
        assert got > 0.0
        assert_allclose(math.log(got), math.log(0.5) + n * math.log(2.0) + 0.5 * n * math.log(0.09), rtol=1e-9)


class TestLowerBound:
    def test_uninformative_panel(self):
        assert_allclose(lower_bound(sym_panel([0.5, 0.5, 0.5])), 0.5, atol=1e-12)

    def test_single_expert_tight(self):
        panel = sym_panel([0.6])
        assert_allclose(lower_bound(panel), 0.4, atol=1e-12)
        assert_allclose(optimal_error(panel), 0.4, atol=1e-12)

    def test_counterexample_panel_tight(self):
        panel = ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1])
        assert_allclose(lower_bound(panel), 0.005, atol=1e-12)
        assert_allclose(optimal_error(panel), 0.005, atol=1e-12)

    def test_boundary_average_is_zero(self):
        assert lower_bound(ExpertPanel(psi=[1.0], eta=[1.0])) == 0.0

    def test_matches_product_of_minima(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            panel = oracles.random_panel(rng, n)
            pi = 0.5 * (np.asarray(panel.psi) + np.asarray(panel.eta))
            expected = 0.5 * float(np.prod(2.0 * np.minimum(pi, 1.0 - pi)))
            assert_allclose(lower_bound(panel), expected, rtol=1e-12, atol=1e-15)


PANEL_BOUNDS = [upper_bound, lower_bound, symmetric_lower_bound]


class TestBiasedPanels:
    @pytest.mark.parametrize("bound", PANEL_BOUNDS, ids=lambda f: f.__name__)
    def test_bound_is_the_folded_panel_bound_bit_for_bit(self, rng, bound):
        # the prior folds into an expert with psi = eta = p_y, so a
        # symmetric biased panel folds to a symmetric one
        for _ in range(50):
            n = int(rng.integers(1, 11))
            p_y = float(rng.uniform(0.05, 0.95))
            panel = oracles.random_panel(rng, n, p_y=p_y, symmetric=True)
            assert bound(panel).hex() == bound(fold_bias(panel)).hex()
        if bound in (upper_bound, lower_bound):
            panel = oracles.random_panel(rng, 3, p_y=0.3)
            assert bound(panel).hex() == bound(fold_bias(panel)).hex()
        else:
            with pytest.raises(ValidationError, match="psi = eta"):
                bound(ExpertPanel(psi=[0.6], eta=[0.5], p_y=0.3))
        with pytest.raises(ValidationError, match="expected an ExpertPanel"):
            bound({"psi": [0.6], "eta": [0.6], "p_y": 0.3})


class TestSandwich:
    def test_thousand_random_panels(self, rng):
        # a third of the panels biased, half of them symmetric
        for i in range(1000):
            n = int(rng.integers(1, 11))
            p_y = float(rng.uniform(0.05, 0.95)) if i % 3 == 0 else 0.5
            panel = oracles.random_panel(rng, n, low=1e-9, high=1.0 - 1e-9, p_y=p_y,
                                         symmetric=i % 2 == 0)
            err, lower, upper = optimal_error(panel), lower_bound(panel), upper_bound(panel)
            assert lower <= err + 1e-9
            assert err <= upper + 1e-9
            assert_relative_sandwich(lower, err, upper)

    # a tiny eta, or a tiny prior folded into an expert with eta = p_y,
    # keeps its digits because the label-0 law carries eta as its complement
    @pytest.mark.parametrize("panel", [
        ROUNDED_TO_ONE,
        ExpertPanel(psi=[1e-12], eta=[1e-12]),
        ExpertPanel(psi=[0.5], eta=[0.5], p_y=1e-14),
    ], ids=["pi_rounds_to_one", "tiny_eta", "tiny_prior"])
    def test_relative_slack_at_the_float_boundary(self, panel):
        report = full_report(panel, with_exact=True)
        assert_relative_sandwich(report.lower, report.exact, report.upper)

    def test_relative_slack_with_rates_near_one(self):
        # psi, eta = 1 - k 1e-13, where 1 - pi taken from the rounded pi
        # keeps only a few digits and would put lower above exact
        k = np.random.default_rng(1).integers(1, 1000, size=(1000, 2))
        for a, b in k.tolist():
            panel = ExpertPanel(psi=[1.0 - a * 1e-13], eta=[1.0 - b * 1e-13])
            report = full_report(panel, with_exact=True)
            assert_relative_sandwich(report.lower, report.exact, report.upper)


def sharp_panel(n, e):
    return ExpertPanel(psi=np.ones(n), eta=np.full(n, e))


def sharp_forms(n, e):
    """((1 - e)^n / 2, (1 - e^2)^(n/2) / 2) at the float e, the powers exact."""
    c, s = 1 - Fraction(e), 1 - Fraction(e) ** 2
    upper = float(s ** (n // 2) / 2) * (math.sqrt(float(s)) if n % 2 else 1.0)
    return float(c ** n / 2), upper


# largest relative errors against sharp_forms over the grid below:
# optimal_error 6.8e-14, lower_bound 5.0e-14, upper_bound 5.8e-14;
# upper_bound at n = 10^4 is 8.9e-16 off at e = 1e-2 and exact at
# e = 1e-4, 1e-6 and 1e-8
SHARP_RTOL = 1e-13
SHARP_UPPER_RTOL = 1e-13
SHARP_CASES = [(n, e) for n in (1, 10, 100, 1000) for e in (1e-2, 1e-4, 1e-8, 0.5)]


class TestSharpFamilies:
    """n experts at psi = 1, eta = e: each one's 0 vote under label 1 is
    impossible, so the exact error is (1 - e)^n / 2, which is lower_bound,
    and upper_bound is (1 - e^2)^(n/2) / 2. exact / upper =
    ((1 - e) / (1 + e))^(n/2) tends to 1 as e -> 0: both bounds are sharp
    at every n."""

    @pytest.mark.parametrize("n, e", SHARP_CASES + [
        pytest.param(1074, 0.5, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 5: the error 2^-1075 lies below the smallest subnormal, "
            "so optimal_error and lower_bound both return 0.0"))),
    ])
    def test_lower_bound_is_attained(self, n, e):
        panel = sharp_panel(n, e)
        exact, lower = optimal_error(panel), lower_bound(panel)
        assert exact > 0.0 and lower > 0.0
        want, _ = sharp_forms(n, e)
        assert_allclose(exact, want, rtol=SHARP_RTOL)
        assert_allclose(lower, want, rtol=SHARP_RTOL)

    @pytest.mark.parametrize("n, e", SHARP_CASES)
    def test_upper_bound_is_approached(self, n, e):
        panel = sharp_panel(n, e)
        exact, upper = optimal_error(panel), upper_bound(panel)
        want_exact, want_upper = sharp_forms(n, e)
        assert_allclose(upper, want_upper, rtol=SHARP_UPPER_RTOL)
        assert_allclose(exact / upper, want_exact / want_upper,
                        rtol=SHARP_RTOL + SHARP_UPPER_RTOL)
        # ((1 - e) / (1 + e))^(n/2) >= 1 - n e
        assert 1.0 - n * e <= exact / upper <= 1.0

    @pytest.mark.parametrize("e", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_upper_bound_at_ten_thousand_experts(self, e):
        # the log of the root product nears 0 while n log 2 is 6931, so a
        # sum that adds n log 2 to sum_i log(x_i y_i) keeps its rounding;
        # and each 4 x_i y_i = 1 - e^2 rounds, which log1p(-d_i^2) avoids
        n = 10**4
        _, want = sharp_forms(n, e)
        assert_allclose(upper_bound(sharp_panel(n, e)), want, rtol=SHARP_UPPER_RTOL)


# the one refusal names both conditions, whichever of them fails
SYMMETRIC_REFUSAL = r"psi = eta entrywise, strictly inside \(0, 1\)"


class TestSymmetricLowerBound:
    def test_uninformative_panel(self):
        assert_allclose(symmetric_lower_bound(sym_panel([0.5, 0.5])), 0.5, atol=1e-12)

    def test_single_expert_value(self):
        assert_allclose(symmetric_lower_bound(sym_panel([0.6])), 0.4, rtol=1e-12)

    def test_weak_pair_value(self):
        # formula value at p=(0.1,0.1); loose against the exact error 0.1
        panel = sym_panel([0.1, 0.1])
        got = symmetric_lower_bound(panel)
        assert_allclose(got, 2.0 * sym_candidate(0.1), rtol=1e-12)
        assert_allclose(got, 0.0381, atol=1e-4)
        exact = optimal_error(panel)
        assert_allclose(exact, 0.1, atol=1e-12)
        assert got <= exact + 1e-9

    def test_rejects_asymmetric_panel(self):
        with pytest.raises(ValidationError, match=SYMMETRIC_REFUSAL):
            symmetric_lower_bound(ExpertPanel(psi=[0.6], eta=[0.4]))

    def test_rejects_boundary_rates(self):
        with pytest.raises(ValidationError, match=SYMMETRIC_REFUSAL):
            symmetric_lower_bound(sym_panel([1.0, 0.5]))

    def test_sharpens_general_lower_bound(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            panel = oracles.random_panel(rng, n, low=0.01, high=0.99, symmetric=True)
            assert symmetric_lower_bound(panel) >= lower_bound(panel) - 1e-12

    def test_stays_below_exact(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 11))
            panel = oracles.random_panel(rng, n, low=0.01, high=0.99, symmetric=True)
            assert symmetric_lower_bound(panel) <= optimal_error(panel) + 1e-9


def potential_pair(report):
    return report.potential_lower, report.potential_upper


class TestCommitteePotential:
    # the potential F reaches users only through potential_upper = exp(-F / 2)
    def test_uninformative_panel_has_zero_potential(self):
        report = full_report(sym_panel([0.5, 0.5]))
        assert report.potential_upper == 1.0
        assert oracles.potential_bounds([0.5, 0.5])[1] == 1.0

    def test_single_expert_value(self):
        report = full_report(sym_panel([0.6]))
        assert_allclose(-2.0 * math.log(report.potential_upper), 0.1 * math.log(1.5), rtol=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(100):
            p = rng.uniform(0.01, 0.99, int(rng.integers(1, 8)))
            assert full_report(sym_panel(p)).potential_upper <= 1.0

    def test_rejects_boundary(self):
        # the report leaves the pair out, as it does every symmetric-only field
        assert potential_pair(full_report(sym_panel([0.0, 0.5]))) == (None, None)
        assert potential_pair(full_report(sym_panel([0.6, 1.0]))) == (None, None)


class TestCommitteePotentialBounds:
    # the prior-art pair has no public function: full_report carries it,
    # checked here against the oracle at the folded panel's rates
    def test_zero_potential_endpoints(self):
        lower, upper = potential_pair(full_report(sym_panel([0.5])))
        assert_allclose(lower, 3.0 / 8.0, rtol=1e-12)
        assert_allclose(upper, 1.0, rtol=1e-12)
        assert_allclose([lower, upper], oracles.potential_bounds([0.5]), rtol=1e-12)

    def test_single_expert_values(self):
        lower, upper = potential_pair(full_report(sym_panel([0.6])))
        assert_allclose(lower, 0.2189, atol=1e-4)
        assert_allclose(upper, 0.97994, atol=1e-4)
        phi = 0.1 * math.log(1.5)
        assert_allclose(lower, 3.0 / (4.0 * (1.0 + math.exp(2.0 * phi + 4.0 * math.sqrt(phi)))), rtol=1e-12)
        assert_allclose(upper, math.exp(-phi / 2.0), rtol=1e-12)
        assert_allclose([lower, upper], oracles.potential_bounds([0.6]), rtol=1e-12)

    def test_sandwich_on_random_symmetric_panels(self, rng):
        for i in range(200):
            n = int(rng.integers(1, 11))
            p_y = float(rng.uniform(0.05, 0.95)) if i % 2 else 0.5
            panel = oracles.random_panel(rng, n, low=0.01, high=0.99, p_y=p_y, symmetric=True)
            report = full_report(panel, with_exact=True)
            lower, upper = potential_pair(report)
            assert lower <= report.exact + 1e-9
            assert report.exact <= upper + 1e-9
            assert_allclose([lower, upper], oracles.potential_bounds(fold_bias(panel).psi),
                            rtol=1e-12)

    def test_rejects_asymmetric_panel(self):
        # the report leaves the pair out
        for panel in (ExpertPanel(psi=[0.6], eta=[0.5]),
                      ExpertPanel(psi=[0.6], eta=[0.5], p_y=0.3)):
            assert potential_pair(full_report(panel)) == (None, None)

    @pytest.mark.parametrize("n", [375, 400])
    def test_large_potential_does_not_overflow(self, n):
        # 2F + 4 sqrt(F) is about 732 at n = 375 and 778 at n = 400, past
        # the ~709.78 where exp overflows
        phi = n * 0.4 * math.log(9.0)
        x = 2.0 * phi + 4.0 * math.sqrt(phi)
        report = full_report(sym_panel([0.9] * n))
        assert isinstance(report.potential_lower, float)
        assert 0.0 <= report.potential_lower <= 0.75 * math.exp(-x)
        assert report.potential_lower > 0.0 or n == 400
        assert_allclose(report.potential_upper, math.exp(-phi / 2.0), rtol=1e-9)
        lower, upper = oracles.potential_bounds([0.9] * n)
        assert_allclose(report.potential_lower, lower, rtol=1e-12)
        assert_allclose(report.potential_upper, upper, rtol=1e-12)


class TestManinoBounds:
    # the prior-art pair has no public function: full_report carries it,
    # checked here against the oracle at the folded panel's rates
    def test_uninformative_panel(self):
        report = full_report(sym_panel([0.5, 0.5]))
        assert_allclose(report.manino_lower, 0.36, rtol=1e-12)
        assert_allclose(report.manino_upper, 0.5, rtol=1e-12)
        assert_allclose([report.manino_lower, report.manino_upper],
                        oracles.manino_bounds([0.5, 0.5]), rtol=1e-12)

    def test_single_expert_values(self):
        report = full_report(sym_panel([0.6]))
        assert_allclose(report.manino_lower, 0.288, atol=1e-4)
        assert_allclose(report.manino_upper, math.sqrt(0.24), rtol=1e-12)
        assert_allclose([report.manino_lower, report.manino_upper],
                        oracles.manino_bounds([0.6]), rtol=1e-12)

    def test_upper_identity_with_general_upper(self, rng):
        for i in range(200):
            n = int(rng.integers(1, 11))
            p_y = float(rng.uniform(0.05, 0.95)) if i % 2 else 0.5
            panel = oracles.random_panel(rng, n, low=0.01, high=0.99, p_y=p_y, symmetric=True)
            report = full_report(panel)
            assert report.manino_upper == report.upper
            _, upper = oracles.manino_bounds(fold_bias(panel).psi)
            assert_allclose(report.manino_upper, upper, rtol=1e-12)

    def test_lower_ratio_identity(self, rng):
        for i in range(200):
            n = int(rng.integers(1, 11))
            p_y = float(rng.uniform(0.05, 0.95)) if i % 2 else 0.5
            panel = oracles.random_panel(rng, n, low=0.01, high=0.99, p_y=p_y, symmetric=True)
            report = full_report(panel)
            lower, _ = oracles.manino_bounds(fold_bias(panel).psi)
            assert_allclose(report.manino_lower, lower, rtol=1e-12)
            assert_allclose(report.symmetric_lower / report.manino_lower, 0.5 / 0.36, rtol=1e-12)

    @pytest.mark.parametrize("panel", [
        ExpertPanel(psi=[0.6], eta=[0.5]),
        ExpertPanel(psi=[0.6], eta=[0.5], p_y=0.3),
        sym_panel([1.0, 0.5]),
        sym_panel([0.6, 0.0]),
    ], ids=["asymmetric", "asymmetric_biased", "psi_one", "psi_zero"])
    def test_absent_on_asymmetric_or_boundary_panel(self, panel):
        report = full_report(panel)
        assert report.manino_lower is None
        assert report.manino_upper is None


class TestSharpeningComparison:
    def test_root_product_pair_sharpens_the_potential_pair(self, rng):
        # the upper side is a theorem: per expert log cosh u >= (u tanh u) / 2
        # at u = w / 2, and the 1/2 in front of the root product makes it
        # strict; the lower side is the paper's claim, checked here
        ranges = [(0.01, 0.99), (0.4, 0.6), (1e-6, 0.1), (0.9, 1.0 - 1e-6), (1e-6, 1.0 - 1e-6)]
        for i in range(1500):
            low, high = ranges[i % len(ranges)]
            n = int(rng.integers(1, 60))
            p_y = float(rng.uniform(0.05, 0.95)) if i % 3 == 0 else 0.5
            panel = oracles.random_panel(rng, n, low=low, high=high, p_y=p_y, symmetric=True)
            report = full_report(panel)
            assert report.upper <= report.potential_upper * (1.0 + RTOL)
            assert report.symmetric_lower >= report.potential_lower * (1.0 - RTOL)


class TestHellingerEnvelopes:
    def test_sandwich_on_random_pairs(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            p = ProductBernoulli(rng.uniform(0.0, 1.0, n))
            q = ProductBernoulli(rng.uniform(0.0, 1.0, n))
            lower, upper = _envelopes(p, q)
            bc = bhattacharyya(p, q)
            assert lower <= bc + 1e-12
            assert bc <= upper + 1e-12

    def test_identical_measures(self):
        p = ProductBernoulli([0.3, 0.8])
        lower, upper = _envelopes(p, p)
        assert_allclose(upper, 1.0, atol=1e-12)
        assert_allclose(lower, 0.5, atol=1e-12)

    def test_disjoint_pair_collapses_to_zero(self):
        lower, upper = _envelopes(ProductBernoulli([1.0]), ProductBernoulli([0.0]))
        assert lower == 0.0
        assert upper == 0.0


class TestHellingerEnvelopesValues:
    def test_identical_pair(self):
        p = ProductBernoulli([0.3, 0.8, 0.5])
        lower, upper = _envelopes(p, p)
        assert_allclose(lower, 2.0 ** (-1.5), rtol=1e-12)
        assert_allclose(upper, 1.0, atol=1e-12)

    def test_mirrored_pair(self):
        lower, upper = _envelopes(
            ProductBernoulli([0.9, 0.1]), ProductBernoulli([0.1, 0.9])
        )
        assert_allclose(upper, 0.36, rtol=1e-12)
        assert_allclose(lower, 0.18, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            _envelopes(ProductBernoulli([0.5]), ProductBernoulli([0.5, 0.5]))

    @pytest.mark.parametrize("p, q", [
        (1e-12, 1.0 - 1e-12), (1e-10, 1.0 - 1e-10), (1e-300, 1.0),
    ])
    def test_bracket_the_affinity_near_the_corners(self, p, q):
        P, Q = ProductBernoulli([p]), ProductBernoulli([q])
        lower, upper = _envelopes(P, Q)
        assert_relative_sandwich(lower, bhattacharyya(P, Q), upper)

    def test_upper_is_twice_upper_bound_on_folded_laws(self, rng):
        # both are 2^n sqrt(prod pi (1 - pi)), with pi_i = (psi_i + eta_i) / 2,
        # and on a symmetric interior panel so is twice manino_upper
        panels = [ROUNDED_TO_ONE]
        for i in range(200):
            n = int(rng.integers(1, 11))
            p_y = 0.5 if rng.random() < 0.5 else float(rng.uniform(0.05, 0.95))
            panels.append(oracles.random_panel(rng, n, p_y=p_y, symmetric=i % 2 == 0))
        for panel in panels:
            report = full_report(panel)
            assert report.hellinger_upper == 2.0 * report.upper
            if report.manino_upper is not None:
                assert report.manino_upper == report.upper


class TestBoundsReport:
    def test_symmetric_panel_has_all_fields(self):
        report = full_report(sym_panel([0.6, 0.7]), with_exact=True)
        assert report.n == 2
        for field in (
            "upper",
            "lower",
            "symmetric_lower",
            "potential_lower",
            "potential_upper",
            "manino_lower",
            "manino_upper",
            "hellinger_lower",
            "hellinger_upper",
            "exact",
        ):
            assert getattr(report, field) is not None

    def test_asymmetric_panel_drops_symmetric_fields(self):
        report = full_report(ExpertPanel(psi=[0.9], eta=[0.8]), with_exact=False)
        assert report.symmetric_lower is None
        assert report.potential_lower is None
        assert report.potential_upper is None
        assert report.manino_lower is None
        assert report.manino_upper is None
        assert report.exact is None

    def test_boundary_symmetric_panel_drops_interior_only_fields(self):
        report = full_report(sym_panel([1.0, 0.5]), with_exact=True)
        assert report.symmetric_lower is None
        assert report.exact is not None

    def test_sandwich_holds_in_report(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 11))
            panel = oracles.random_panel(rng, n)
            report = full_report(panel, with_exact=True)
            assert report.lower <= report.exact + 1e-9
            assert report.exact <= report.upper + 1e-9

    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "biased", "boundary"])
    def test_fields_match_the_public_bounds_bit_for_bit(self, rng, kind):
        for _ in range(50):
            n = int(rng.integers(1, 11))
            p_y = float(rng.uniform(0.05, 0.95)) if kind == "biased" else 0.5
            panel = oracles.random_panel(rng, n, p_y=p_y, symmetric=kind != "asymmetric")
            if kind == "boundary":
                psi = panel.psi.copy()
                psi[rng.integers(n)] = float(rng.integers(2))
                panel = ExpertPanel(psi=psi, eta=psi if rng.random() < 0.5 else panel.eta)
            report = full_report(panel)
            expected = {"upper": upper_bound(panel), "lower": lower_bound(panel)}
            if report.symmetric_lower is not None:
                expected["symmetric_lower"] = symmetric_lower_bound(panel)
                # the prior-art pairs have no public function: the Manino
                # pair's upper end is upper_bound, the rest the oracles'
                expected["manino_upper"] = upper_bound(panel)
                p = fold_bias(panel).psi
                lower, _ = oracles.manino_bounds(p)
                assert_allclose(report.manino_lower, lower, rtol=1e-12)
                assert_allclose(potential_pair(report), oracles.potential_bounds(p), rtol=1e-12)
            else:
                assert kind in ("asymmetric", "boundary")
            for field, value in expected.items():
                assert getattr(report, field).hex() == value.hex(), field

    def test_biased_panel_reports_folded_size(self):
        report = full_report(ExpertPanel(psi=[0.9], eta=[0.8], p_y=0.7), with_exact=True)
        assert report.n == 2
        assert_allclose(report.exact, 0.15, atol=1e-12)

    def test_serialization_uses_nulls(self):
        report = full_report(ExpertPanel(psi=[0.9], eta=[0.8]), with_exact=False)
        payload = report.to_dict()
        assert payload["symmetric_lower"] is None
        assert payload["exact"] is None
        assert payload["upper"] == report.upper

    def test_pi_averages_rates(self):
        report = full_report(ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1]))
        assert_allclose(report.pi, [0.95, 0.05])
        assert report.to_dict()["pi"] == report.pi.tolist()
        with pytest.raises(ValueError):
            report.pi[0] = 0.5

    def test_pi_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            BoundsReport(n=1, pi=np.array([1.1]), upper=0.5, lower=0.0,
                         hellinger_lower=0.0, hellinger_upper=1.0)

    def test_invariant_violation_rejected(self):
        acc = np.array([0.5])
        with pytest.raises(ValidationError):
            BoundsReport(
                n=1,
                pi=acc,
                upper=0.2,
                lower=0.4,
                hellinger_lower=0.1,
                hellinger_upper=0.9,
                exact=0.3,
            )
        with pytest.raises(ValidationError):
            BoundsReport(
                n=1,
                pi=acc,
                upper=1.4,
                lower=0.1,
                hellinger_lower=0.1,
                hellinger_upper=0.9,
            )

    @pytest.mark.parametrize("bracket", [
        {"lower": 1e-21, "upper": 1e-20},
        {"lower": 1e-21, "symmetric_lower": 3e-20, "upper": 1e-19},
        {"lower": 3e-20, "upper": 1e-19},
    ], ids=["above-upper", "below-symmetric-lower", "below-lower"])
    def test_bracket_check_is_relative(self, bracket):
        # exact = 2e-20 lies within an absolute 1e-9 of each bracket, but
        # outside it by a factor of 1.5 or more
        with pytest.raises(ValidationError, match="escapes the bracket"):
            BoundsReport(n=1, pi=[0.75], hellinger_lower=0.1, hellinger_upper=0.9,
                         exact=2e-20, **bracket)

    def test_bracket_slack_allows_rounding(self):
        # a product of n rounded factors, and subnormal rounding
        report = BoundsReport(n=1000, pi=[0.75], lower=1e-20 * (1.0 + 1e-13), upper=1e-19,
                              hellinger_lower=0.1, hellinger_upper=0.9, exact=1e-20)
        assert report.exact == 1e-20
        report = BoundsReport(n=1, pi=[0.75], lower=3 * 2.0**-1074, upper=0.5,
                              hellinger_lower=0.1, hellinger_upper=0.9, exact=0.0)
        assert report.exact == 0.0


class TestCounterexampleSweep:
    def test_asym_exact_values(self):
        rows = counterexample_sweep("asym", [0.3, 0.1])
        assert_allclose([r.exact for r in rows], [0.09, 0.01], atol=1e-12)
        assert_allclose([r.bound for r in rows], [asym_candidate(0.3), asym_candidate(0.1)], rtol=1e-12)
        assert_allclose([r.ratio for r in rows], [asym_candidate(0.3) / 0.09, asym_candidate(0.1) / 0.01], rtol=1e-12)

    @pytest.mark.parametrize("kind", ["asym", "sym"])
    def test_refuses_eps_below_float_resolution(self, kind):
        # 1 - eps rounds to 1, which would turn the enumerated panel into
        # one with a deterministic expert
        for eps in (1e-170, 1e-300):
            with pytest.raises(ValidationError, match="eps"):
                counterexample_sweep(kind, [eps])

    def test_asym_ratio_at_the_eps_floor(self):
        eps = 2.0**-53
        (row,) = counterexample_sweep("asym", [eps])
        log_ratio = (math.log1p(-eps / 2.0)
                     + (math.log(eps) - math.log(2.0 - eps)) / math.sqrt(2.0)
                     - math.log(2.0 * eps))
        assert_allclose(row.ratio, math.exp(log_ratio), rtol=1e-12)
        assert_allclose(row.exact, eps * eps, rtol=1e-12)
        (sym_row,) = counterexample_sweep("sym", [eps])
        assert_allclose(sym_row.exact, 2.0 * eps, rtol=1e-12)

    def test_sym_exact_values(self):
        rows = counterexample_sweep("sym", [0.1, 0.01])
        assert_allclose([r.exact for r in rows], [0.2, 0.02], atol=1e-12)
        assert_allclose([r.bound for r in rows], [sym_candidate(0.1), sym_candidate(0.01)], rtol=1e-12)

    def test_asym_ratio_grows_as_eps_shrinks(self):
        rows = counterexample_sweep("asym", [0.1, 0.01, 0.001])
        ratios = [r.ratio for r in rows]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_sym_ratio_shrinks_with_eps(self):
        rows = counterexample_sweep("sym", [0.1, 0.01, 0.001])
        ratios = [r.ratio for r in rows]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_exact_column_matches_enumeration(self, rng):
        eps = float(rng.uniform(0.05, 0.45))
        (asym_row,) = counterexample_sweep("asym", [eps])
        assert_allclose(
            asym_row.exact,
            oracles.brute_min_mass([1.0, 0.0], [eps, 1.0 - eps]),
            atol=1e-12,
        )
        (sym_row,) = counterexample_sweep("sym", [eps])
        assert_allclose(
            sym_row.exact,
            oracles.brute_min_mass([eps, eps], [1.0 - eps, 1.0 - eps]),
            atol=1e-12,
        )

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            counterexample_sweep("asym", [0.0, 0.1])
        with pytest.raises(ValidationError):
            counterexample_sweep("asym", [1.0])
        with pytest.raises(ValidationError):
            counterexample_sweep("diag", [0.1])
        with pytest.raises(ValidationError):
            counterexample_sweep("asym", [])

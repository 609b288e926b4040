import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from votebounds import (
    AffinityResult,
    EnumerationLimitError,
    ExpertPanel,
    ProductBernoulli,
    ValidationError,
    affinity,
    bhattacharyya,
    complement_symmetry_check,
    hellinger_envelopes,
    min_mass,
    optimal_error,
    tensorization_gap,
    tv_distance,
)

import oracles


def random_pair(rng, n, low=0.0, high=1.0):
    return (
        ProductBernoulli(rng.uniform(low, high, n)),
        ProductBernoulli(rng.uniform(low, high, n)),
    )


@st.composite
def structured_pairs(draw):
    """Pairs with 0/1 entries, duplicate coordinates and p_i == q_i coordinates."""
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    coordinate = st.one_of(st.tuples(unit, unit), unit.map(lambda v: (v, v)))
    kinds = draw(st.lists(coordinate, min_size=1, max_size=5))
    n = draw(st.integers(1, 14))
    p, q = zip(*draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n)))
    return ProductBernoulli(p), ProductBernoulli(q)


class TestMinMass:
    def test_identical_measures(self, rng):
        for n in (1, 3, 7):
            p = ProductBernoulli(rng.uniform(0.0, 1.0, n))
            assert_allclose(min_mass(p, p), 1.0, atol=1e-12)

    def test_deterministic_vs_noisy_pair(self):
        # overlap of a point mass with the mass the other law puts there
        panel = ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1])
        got = min_mass(panel.law_given_one(), panel.law_given_zero())
        assert_allclose(got, 0.01, atol=1e-12)

    def test_mirrored_symmetric_pair(self):
        got = min_mass(ProductBernoulli([0.1, 0.1]), ProductBernoulli([0.9, 0.9]))
        assert_allclose(got, 0.2, atol=1e-12)

    def test_matches_brute_enumeration(self, rng):
        # every n up to 14, so both the whole-table sum and the
        # meet-in-the-middle split (even and odd halves) are reached
        for n in [*range(1, 15), *rng.integers(1, 15, 16)]:
            p, q = random_pair(rng, int(n))
            assert_allclose(
                min_mass(p, q), oracles.brute_min_mass(p.p, q.p), atol=1e-12
            )

    @given(structured_pairs())
    @settings(max_examples=60, deadline=None)
    def test_structured_pairs_match_brute_enumeration(self, pair):
        p, q = pair
        assert_allclose(min_mass(p, q), oracles.brute_min_mass(p.p, q.p), atol=1e-12)
        assert_allclose(tv_distance(p, q), oracles.brute_tv(p.p, q.p), atol=1e-12)

    def test_duplicate_panel_keeps_relative_accuracy(self):
        # Three expert types over 21 coordinates: the overlap is about
        # 4e-5, so a sum of Q mass above the threshold taken as total
        # minus prefix loses over 1e-11 of it to cancellation.
        types = [(0.73, 0.59), (0.89, 0.94), (0.83, 0.85)]
        psi, eta = zip(*(types[int(t)] for t in "222102111022112111001"))
        panel = ExpertPanel(psi=psi, eta=eta)

        def table(p):
            out = np.ones(1)
            for pi in p:
                out = np.outer(out, [1.0 - pi, pi]).ravel()
            return out

        P, Q = panel.law_given_one(), panel.law_given_zero()
        want = 0.5 * math.fsum(np.minimum(table(P.p), table(Q.p)))
        assert_allclose(optimal_error(panel), want, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            min_mass(ProductBernoulli([0.5]), ProductBernoulli([0.5, 0.5]))

    def test_enumeration_limit(self):
        p = ProductBernoulli(np.full(6, 0.5))
        with pytest.raises(EnumerationLimitError):
            min_mass(p, p, n_max=5)
        assert_allclose(min_mass(p, p, n_max=6), 1.0, atol=1e-12)

    def test_permutation_invariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            p, q = random_pair(rng, n)
            perm = rng.permutation(n)
            base = min_mass(p, q)
            shuffled = min_mass(
                ProductBernoulli(np.asarray(p.p)[perm]),
                ProductBernoulli(np.asarray(q.p)[perm]),
            )
            assert_allclose(shuffled, base, rtol=1e-12, atol=1e-15)


@st.composite
def reducible_pairs(draw):
    """Pairs past the whole-table cut that use every reduction rule.

    Each pair holds a coordinate with one deterministic side, one with
    p_i == q_i and one interior coordinate, repeated so that duplicates
    occur; a fourth coordinate is interior or has both sides
    deterministic, which makes the supports disjoint when they differ.
    Interior rates lie on a grid of step 1/20, so two laws that differ
    stay far enough apart for a relative comparison of tv.
    """
    rate = st.integers(1, 19).map(lambda k: k / 20)
    end = st.sampled_from([0.0, 1.0])
    kinds = [
        draw(st.one_of(st.tuples(end, rate), st.tuples(rate, end))),
        draw(rate.map(lambda v: (v, v))),
        draw(st.tuples(rate, rate)),
        draw(st.one_of(st.tuples(end, end), st.tuples(rate, rate))),
    ]
    n = draw(st.integers(13, 15))
    extra = draw(st.lists(st.sampled_from(kinds), min_size=n - 4, max_size=n - 4))
    p, q = zip(*draw(st.permutations(kinds + extra)))
    return ProductBernoulli(p), ProductBernoulli(q)


def duplicate_pair(rng, counts):
    """Laws of a panel with len(counts) expert types, counts[t] experts of type t."""
    p, q = rng.uniform(0.55, 0.95, len(counts)), rng.uniform(0.05, 0.45, len(counts))
    pick = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(pick)
    return ProductBernoulli(p[pick]), ProductBernoulli(q[pick]), p, q


class TestPanelReduction:
    @given(reducible_pairs())
    @settings(max_examples=60, deadline=None)
    def test_split_path_matches_brute_enumeration(self, pair):
        p, q = pair
        for got, want in ((min_mass(p, q), oracles.brute_min_mass(p.p, q.p)),
                          (tv_distance(p, q), oracles.brute_tv(p.p, q.p))):
            if want == 0.0:
                assert got == 0.0
            else:
                assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("counts", [[24], [8, 9, 7], [4, 3, 5, 4, 2, 6]])
    def test_duplicate_types_match_binomial_oracle(self, rng, counts):
        P, Q, p, q = duplicate_pair(rng, counts)
        assert_allclose(min_mass(P, Q), oracles.binomial_min_mass(counts, p, q), rtol=1e-12)
        assert_allclose(tv_distance(P, Q), oracles.binomial_tv(counts, p, q), rtol=1e-12)

    def test_disjoint_coordinate_is_exact(self, rng):
        p, q = rng.uniform(0.1, 0.9, 16), rng.uniform(0.1, 0.9, 16)
        p[5], q[5] = 1.0, 0.0
        P, Q = ProductBernoulli(p), ProductBernoulli(q)
        assert min_mass(P, Q) == 0.0
        assert tv_distance(P, Q) == 1.0

    def test_uninformative_pair_is_exact(self, rng):
        p = rng.uniform(0.05, 0.95, 20)
        P, Q = ProductBernoulli(p), ProductBernoulli(p.copy())
        assert min_mass(P, Q) == 1.0
        assert tv_distance(P, Q) == 0.0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_whole_table_sizes_are_exact(self, rng, n):
        # the reduction runs in front of the whole-table sum too
        p, q = rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n)
        i = int(rng.integers(n))
        p[i], q[i] = 1.0, 0.0
        P, Q = ProductBernoulli(p), ProductBernoulli(q)
        assert tv_distance(P, Q) == 1.0
        assert min_mass(P, Q) == 0.0
        R = ProductBernoulli(rng.uniform(0.05, 0.95, n))
        assert min_mass(R, R) == 1.0
        assert tv_distance(R, R) == 0.0

    def test_cap_counts_coordinates_before_reduction(self):
        # 25 identical experts reduce to one 26-state factor, but the cap
        # bounds the folded panel size, not the reduced table.
        over = ExpertPanel(psi=np.full(25, 0.7), eta=np.full(25, 0.8))
        with pytest.raises(EnumerationLimitError):
            min_mass(over.law_given_one(), over.law_given_zero())
        with pytest.raises(EnumerationLimitError):
            optimal_error(over)
        at_cap = ExpertPanel(psi=np.full(24, 0.7), eta=np.full(24, 0.8))
        want = oracles.binomial_min_mass([24], [0.7], [1.0 - 0.8])
        assert_allclose(optimal_error(at_cap), 0.5 * want, rtol=1e-12)


class TestTvDistance:
    def test_identical_measures(self):
        p = ProductBernoulli([0.3, 0.6])
        assert tv_distance(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_vs_noisy_pair(self):
        panel = ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1])
        got = tv_distance(panel.law_given_one(), panel.law_given_zero())
        assert_allclose(got, 0.99, atol=1e-12)

    def test_single_coordinate(self):
        got = tv_distance(ProductBernoulli([0.6]), ProductBernoulli([0.4]))
        assert_allclose(got, 0.2, atol=1e-12)

    def test_complements_min_mass(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 11))
            p, q = random_pair(rng, n)
            assert_allclose(tv_distance(p, q) + min_mass(p, q), 1.0, atol=1e-12)

    def test_matches_brute_enumeration(self, rng):
        for n in range(1, 15):
            p, q = random_pair(rng, n)
            assert_allclose(tv_distance(p, q), oracles.brute_tv(p.p, q.p), atol=1e-12)


class TestBhattacharyya:
    def test_identical_measures(self, rng):
        p = ProductBernoulli(rng.uniform(0.0, 1.0, 5))
        assert_allclose(bhattacharyya(p, p), 1.0, atol=1e-12)

    def test_single_coordinate_value(self):
        got = bhattacharyya(ProductBernoulli([0.6]), ProductBernoulli([0.4]))
        assert_allclose(got, 2.0 * math.sqrt(0.24), rtol=1e-12)

    def test_envelope_equality_when_params_sum_to_one(self):
        # q = 1 - p makes the upper envelope tight
        got = bhattacharyya(ProductBernoulli([0.6]), ProductBernoulli([0.4]))
        lower, upper = hellinger_envelopes(ProductBernoulli([0.6]), ProductBernoulli([0.4]))
        assert_allclose(got, upper, rtol=1e-12)
        assert_allclose(upper, math.sqrt(0.96), rtol=1e-12)

    def test_matches_enumerated_sum(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 11))
            p, q = random_pair(rng, n)
            assert_allclose(
                bhattacharyya(p, q),
                oracles.brute_bhattacharyya(p.p, q.p),
                atol=1e-12,
            )

    def test_dominates_min_mass(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 11))
            p, q = random_pair(rng, n)
            assert min_mass(p, q) <= bhattacharyya(p, q) + 1e-12


class TestHellingerEnvelopes:
    def test_sandwich_on_random_pairs(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            p, q = random_pair(rng, n)
            lower, upper = hellinger_envelopes(p, q)
            bc = bhattacharyya(p, q)
            assert lower <= bc + 1e-12
            assert bc <= upper + 1e-12

    def test_identical_measures(self):
        p = ProductBernoulli([0.3, 0.8])
        lower, upper = hellinger_envelopes(p, p)
        assert_allclose(upper, 1.0, atol=1e-12)
        assert_allclose(lower, 0.5, atol=1e-12)

    def test_disjoint_pair_collapses_to_zero(self):
        lower, upper = hellinger_envelopes(ProductBernoulli([1.0]), ProductBernoulli([0.0]))
        assert lower == 0.0
        assert upper == 0.0


class TestAffinity:
    def test_fields_and_method(self, rng):
        p, q = random_pair(rng, 4)
        res = affinity(p, q)
        assert res.n == 4
        assert res.method == "enumeration"
        assert_allclose(res.min_mass + res.tv, 1.0, atol=1e-12)
        assert res.min_mass <= res.bhattacharyya + 1e-9

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValidationError):
            AffinityResult(
                min_mass=0.3, tv=0.5, bhattacharyya=0.6, n=2, method="enumeration"
            )
        with pytest.raises(ValidationError):
            AffinityResult(
                min_mass=0.5, tv=0.5, bhattacharyya=0.3, n=2, method="enumeration"
            )
        with pytest.raises(ValidationError):
            AffinityResult(min_mass=0.5, tv=0.5, bhattacharyya=0.6, n=2, method="dfs")


class TestOptimalError:
    def test_uninformative_panel_is_half(self):
        for n in (1, 4, 8):
            panel = ExpertPanel(psi=np.full(n, 0.5), eta=np.full(n, 0.5))
            assert_allclose(optimal_error(panel), 0.5, atol=1e-12)

    def test_counterexample_panel(self):
        panel = ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1])
        assert_allclose(optimal_error(panel), 0.005, atol=1e-12)

    def test_single_symmetric_expert(self):
        panel = ExpertPanel(psi=[0.6], eta=[0.6])
        assert_allclose(optimal_error(panel), 0.4, atol=1e-12)

    def test_biased_panel_folds_before_enumeration(self):
        panel = ExpertPanel(psi=[0.9], eta=[0.8], p_y=0.7)
        # folded panel has two experts; value is the half-half mixture
        # 0.5 * [T(0.7) + T(0.3)] with T the pointwise-min functional
        assert_allclose(optimal_error(panel), 0.15, atol=1e-12)

    def test_enumeration_limit_counts_folded_expert(self):
        panel = ExpertPanel(psi=np.full(3, 0.9), eta=np.full(3, 0.8), p_y=0.7)
        with pytest.raises(EnumerationLimitError):
            optimal_error(panel, n_max=3)
        optimal_error(panel, n_max=4)

    def test_range(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            panel = oracles.random_panel(rng, n, low=0.0, high=1.0)
            err = optimal_error(panel)
            assert 0.0 <= err <= 0.5 + 1e-12


class TestComplementSymmetry:
    @pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
    def test_norms_agree(self, rng, r):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            psi, eta = random_pair(rng, n)
            a, b = complement_symmetry_check(psi, eta, r)
            assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
    def test_matches_brute_norms(self, rng, r):
        psi, eta = random_pair(rng, 3)
        a, b = complement_symmetry_check(psi, eta, r)
        diff = oracles.brute_masses(psi.p) - oracles.brute_masses(
            [1.0 - v for v in eta.p]
        )
        assert_allclose(a, oracles.brute_norm(diff, r), atol=1e-12)

    def test_matched_rates_give_mirrored_pair(self):
        p = ProductBernoulli([0.7, 0.2])
        a, b = complement_symmetry_check(p, p, 1.0)
        assert_allclose(a, b, atol=1e-15)

    def test_unsupported_order_rejected(self):
        p = ProductBernoulli([0.5])
        with pytest.raises(ValidationError):
            complement_symmetry_check(p, p, 3.0)

    def test_size_limit(self):
        p = ProductBernoulli(np.full(13, 0.5))
        with pytest.raises(EnumerationLimitError):
            complement_symmetry_check(p, p, 1.0)


class TestTensorizationGap:
    def test_identical_pairs_have_zero_gap(self):
        p = ProductBernoulli([0.3, 0.9])
        q = ProductBernoulli([0.5])
        assert_allclose(tensorization_gap(p, p, q, q), 0.0, atol=1e-12)

    def test_single_coordinate_blocks(self):
        p = ProductBernoulli([0.6])
        p_alt = ProductBernoulli([0.4])
        gap = tensorization_gap(p, p_alt, p, p_alt)
        joint = oracles.brute_min_mass([0.6, 0.6], [0.4, 0.4])
        assert_allclose(gap, joint - 0.8 * 0.8, atol=1e-12)
        assert gap >= -1e-12

    def test_random_splits_nonnegative(self, rng):
        for _ in range(50):
            n1 = int(rng.integers(1, 4))
            n2 = int(rng.integers(1, 4))
            p, p_alt = random_pair(rng, n1)
            q, q_alt = random_pair(rng, n2)
            assert tensorization_gap(p, p_alt, q, q_alt) >= -1e-12

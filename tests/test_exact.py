import math
from fractions import Fraction

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
    min_mass,
    optimal_error,
)
from votebounds.bounds import _envelopes
from votebounds.exact import _outer_table, _reduce

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
        # every n up to 14, so the meet-in-the-middle split runs with an
        # empty half A (n = 1) and with even and odd halves
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
        assert_allclose(affinity(p, q).tv, oracles.brute_tv(p.p, q.p), atol=1e-12)

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
        with pytest.raises(ValidationError, match="expected a pair of ProductBernoulli laws"):
            min_mass(ProductBernoulli([0.5]), [0.5])

    def test_enumeration_limit(self):
        # six distinct interior pairs reduce to a table of 2^6 points
        p = ProductBernoulli([0.6, 0.7, 0.8, 0.9, 0.55, 0.65])
        q = ProductBernoulli([0.3, 0.2, 0.1, 0.4, 0.35, 0.25])
        with pytest.raises(EnumerationLimitError):
            min_mass(p, q, n_max=5)
        assert_allclose(min_mass(p, q, n_max=6), oracles.brute_min_mass(p.p, q.p), rtol=1e-12)

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
    """Pairs of 13 to 15 coordinates that use every reduction rule.

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


def mixed_pair(rng, n):
    """A pair of n coordinates drawn, with repeats, from six kinds: equal
    interior, equal deterministic, P deterministic, Q deterministic, two
    interior pairs and, in one pair of four, a seventh with both sides
    deterministic and different, which makes the supports disjoint when
    it is drawn."""
    rate = rng.uniform(0.05, 0.95, 6)
    end = rng.integers(2, size=3).astype(float)
    kinds = [(rate[0], rate[0]), (end[0], end[0]), (end[1], rate[1]), (rate[2], end[2]),
             (rate[3], rate[4]), (rate[5], rate[3])]
    if rng.uniform() < 0.25:
        kinds.append((end[0], 1.0 - end[0]))
    p, q = np.array(kinds)[rng.integers(len(kinds), size=n)].T
    return ProductBernoulli(p), ProductBernoulli(q)


def duplicate_pair(rng, counts):
    """Laws of a panel with len(counts) expert types, counts[t] experts of type t."""
    p, q = rng.uniform(0.55, 0.95, len(counts)), rng.uniform(0.05, 0.45, len(counts))
    pick = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(pick)
    return ProductBernoulli(p[pick]), ProductBernoulli(q[pick]), p, q


class TestOuterTable:
    # the doubling builder behind exact's mass tables and the rule's byte
    # tables: entry i0 + 2 i1 + 6 i2 of row r combines start[r] with
    # state i0 of the first factor, then i1 of the second, then i2 of
    # the third, each step as combine(state, entry so far); subtract
    # pins that argument order, which add and multiply cannot see
    @pytest.mark.parametrize("combine", [np.multiply, np.add, np.subtract])
    def test_first_factor_is_the_fastest_digit_and_is_combined_first(self, rng, combine):
        start = rng.uniform(0.5, 2.0, (2, 1))
        factors = [rng.uniform(0.5, 2.0, (2, s)) for s in (2, 3, 2)]
        table = _outer_table(factors, start, combine)
        assert table.shape == (2, 12)
        expected = np.empty((2, 12))
        for r in range(2):
            for i2 in range(2):
                for i1 in range(3):
                    for i0 in range(2):
                        entry = start[r, 0]
                        for f, i in zip(factors, (i0, i1, i2)):
                            entry = combine(f[r, i], entry)
                        expected[r, i0 + 2 * i1 + 6 * i2] = entry
        assert np.array_equal(table.view(np.uint64), expected.view(np.uint64))


class TestPanelReduction:
    @given(reducible_pairs())
    @settings(max_examples=60, deadline=None)
    def test_split_path_matches_brute_enumeration(self, pair):
        p, q = pair
        # the reduced table never has more than 2^n points
        assert min_mass(p, q, n_max=p.n) == min_mass(p, q)
        for got, want in ((min_mass(p, q), oracles.brute_min_mass(p.p, q.p)),
                          (affinity(p, q).tv, oracles.brute_tv(p.p, q.p))):
            if want == 0.0:
                assert got == 0.0
            else:
                assert_allclose(got, want, rtol=1e-12)

    def test_reduced_record_keeps_both_sums(self, rng):
        # the reduction alone, apart from the meet-in-the-middle: its
        # groups and scalars, enumerated directly, give the cube's sums
        for _ in range(300):
            P, Q = mixed_pair(rng, int(rng.integers(1, 11)))
            overlap, absdiff = oracles.reduced_sums(_reduce(P, Q))
            assert_allclose(overlap, oracles.brute_min_mass(P.p, Q.p), rtol=1e-12)
            assert_allclose(absdiff, 2.0 * oracles.brute_tv(P.p, Q.p), rtol=1e-12)

    @pytest.mark.parametrize("counts", [[24], [8, 9, 7], [4, 3, 5, 4, 2, 6]])
    def test_duplicate_types_match_binomial_oracle(self, rng, counts):
        P, Q, p, q = duplicate_pair(rng, counts)
        assert_allclose(min_mass(P, Q), oracles.binomial_min_mass(counts, p, q), rtol=1e-12)
        assert_allclose(affinity(P, Q).tv, oracles.binomial_tv(counts, p, q), rtol=1e-12)

    @pytest.mark.parametrize("rate", [0.0, 5e-324, 0.1, 0.6, 1.0 - 2.0**-53, 1.0])
    def test_binomial_oracle_recurrence_gives_the_direct_integers(self, rate):
        a, b = rate.as_integer_ratio()
        for m in range(61):
            assert oracles.count_numerators(m, a, b) == [
                math.comb(m, k) * a**k * (b - a) ** (m - k) for k in range(m + 1)]

    def test_disjoint_coordinate_is_exact(self, rng):
        p, q = rng.uniform(0.1, 0.9, 16), rng.uniform(0.1, 0.9, 16)
        p[5], q[5] = 1.0, 0.0
        P, Q = ProductBernoulli(p), ProductBernoulli(q)
        assert min_mass(P, Q) == 0.0
        assert affinity(P, Q).tv == 1.0

    def test_uninformative_pair_is_exact(self, rng):
        p = rng.uniform(0.05, 0.95, 20)
        P, Q = ProductBernoulli(p), ProductBernoulli(p.copy())
        assert min_mass(P, Q) == 1.0
        assert affinity(P, Q).tv == 0.0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_emptied_pairs_are_answered_from_the_scalars(self, rng, n):
        # disjoint supports and equal laws leave no factor at any size,
        # and the kernel answers both from the reduction's scalars
        p, q = rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n)
        i = int(rng.integers(n))
        p[i], q[i] = 1.0, 0.0
        P, Q = ProductBernoulli(p), ProductBernoulli(q)
        assert affinity(P, Q).tv == 1.0
        assert min_mass(P, Q) == 0.0
        R = ProductBernoulli(rng.uniform(0.05, 0.95, n))
        assert min_mass(R, R) == 1.0
        assert affinity(R, R).tv == 0.0

    @pytest.mark.parametrize("m", [1, 2, 4095, 4096])
    @pytest.mark.parametrize("p, q", [(0.75, 0.25), (0.375, 0.25), (0.25, 0.75)])
    def test_one_factor_leaves_half_a_empty(self, m, p, q):
        # m identical interior experts reduce to one (m + 1)-point factor,
        # which half B takes whole
        P, Q = ProductBernoulli(np.full(m, p)), ProductBernoulli(np.full(m, q))
        assert_allclose(min_mass(P, Q), oracles.binomial_min_mass([m], [p], [q]), rtol=1e-12)
        assert_allclose(affinity(P, Q).tv, oracles.binomial_tv([m], [p], [q]), rtol=1e-12)

    @pytest.mark.parametrize("counts, size", [
        ([2, 2, 4, 6, 12], 4095),
        ([1] * 12, 4096),
        ([16, 240], 4097),
        ([2, 2730], 8193),
    ])
    def test_tables_near_4096_points(self, counts, size):
        # dyadic rates keep the exact-integer oracle fast; each type is a
        # distinct (p, q) pair, so the reduced table has size points
        rates = [0.125, 0.25, 0.375, 0.625, 0.75, 0.875]
        pairs = [(p, q) for p in rates for q in rates if p != q][::2][:len(counts)]
        p, q = map(list, zip(*pairs))
        assert math.prod(m + 1 for m in counts) == size
        P, Q = ProductBernoulli(np.repeat(p, counts)), ProductBernoulli(np.repeat(q, counts))
        assert_allclose(min_mass(P, Q), oracles.binomial_min_mass(counts, p, q), rtol=1e-12)
        assert_allclose(affinity(P, Q).tv, oracles.binomial_tv(counts, p, q), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_one_deterministic_side_everywhere(self, rng, n):
        # criterion 01's family: every coordinate peels into the scalars,
        # so the reduction leaves no factor and no table is built
        ends = rng.integers(0, 2, n).astype(float)
        rates = rng.choice([0.125, 0.25, 0.375, 0.625, 0.75, 0.875], n)
        p_side = rng.integers(0, 2, n).astype(bool)
        p, q = np.where(p_side, ends, rates), np.where(p_side, rates, ends)
        P, Q = ProductBernoulli(p), ProductBernoulli(q)
        assert_allclose(min_mass(P, Q), oracles.brute_min_mass(p, q), rtol=1e-12)
        assert_allclose(affinity(P, Q).tv, oracles.brute_tv(p, q), rtol=1e-12)

    def test_cap_counts_the_reduced_table(self):
        # 25 identical experts reduce to one 26-state factor, well inside
        # the cap; 25 distinct interior experts keep all 2^25 points.
        same = ExpertPanel(psi=np.full(25, 0.7), eta=np.full(25, 0.8))
        want = oracles.binomial_min_mass([25], [0.7], [1.0 - 0.8])
        assert_allclose(optimal_error(same), 0.5 * want, rtol=1e-12)
        distinct = ExpertPanel(psi=np.linspace(0.6, 0.9, 25), eta=np.linspace(0.7, 0.8, 25))
        with pytest.raises(EnumerationLimitError, match="33554432 points"):
            min_mass(distinct.law_given_one(), distinct.law_given_zero())
        with pytest.raises(EnumerationLimitError):
            optimal_error(distinct)

    def test_large_jury_needs_no_big_floats(self):
        # 1001 experts at psi = eta = 0.6: one 1002-state factor whose
        # binomial coefficients do not fit in a float
        jury = ExpertPanel(psi=np.full(1001, 0.6), eta=np.full(1001, 0.6))
        want = oracles.binomial_min_mass([1001], [0.6], [0.4])
        assert want == 1.615959672368678e-10
        assert_allclose(optimal_error(jury), 0.5 * want, rtol=1e-12)

    def test_huge_cap_is_compared_without_building_it(self, rng):
        P, Q = random_pair(rng, 16)
        assert min_mass(P, Q, n_max=10**12) == min_mass(P, Q)


class TestTvDistance:
    def test_identical_measures(self):
        p = ProductBernoulli([0.3, 0.6])
        assert affinity(p, p).tv == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_vs_noisy_pair(self):
        panel = ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1])
        got = affinity(panel.law_given_one(), panel.law_given_zero()).tv
        assert_allclose(got, 0.99, atol=1e-12)

    def test_single_coordinate(self):
        got = affinity(ProductBernoulli([0.6]), ProductBernoulli([0.4])).tv
        assert_allclose(got, 0.2, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_emptied_pair_keeps_a_tiny_distance(self, n):
        # a deterministic P empties the reduced pair, and tv = 1 - (1 - 1e-12)^n
        # is Q's mass off P's point, which a - b of two masses near 1 cancels
        want = float(1 - (1 - Fraction(1e-12)) ** n)
        got = affinity(ProductBernoulli([0.0] * n), ProductBernoulli([1e-12] * n)).tv
        assert abs(got - want) <= 1e-15 * want

    def test_complements_min_mass(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 11))
            p, q = random_pair(rng, n)
            assert_allclose(affinity(p, q).tv + min_mass(p, q), 1.0, atol=1e-12)

    def test_matches_brute_enumeration(self, rng):
        for n in range(1, 15):
            p, q = random_pair(rng, n)
            assert_allclose(affinity(p, q).tv, oracles.brute_tv(p.p, q.p), atol=1e-12)


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
        lower, upper = _envelopes(ProductBernoulli([0.6]), ProductBernoulli([0.4]))
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


class TestAffinity:
    def test_fields(self, rng):
        p, q = random_pair(rng, 4)
        res = affinity(p, q)
        assert res.n == 4
        assert_allclose(res.min_mass + res.tv, 1.0, atol=1e-12)
        assert res.min_mass <= res.bhattacharyya + 1e-9

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValidationError):
            AffinityResult(min_mass=0.3, tv=0.5, bhattacharyya=0.6, n=2)
        with pytest.raises(ValidationError):
            AffinityResult(min_mass=0.5, tv=0.5, bhattacharyya=0.3, n=2)
        with pytest.raises(ValidationError, match=r"min_mass = 1.5 lies outside \[0, 1\]"):
            AffinityResult(min_mass=1.5, tv=-0.5, bhattacharyya=0.6, n=2)

    def test_order_check_is_relative(self):
        # min_mass is twice the affinity, though within an absolute 1e-9 of it
        with pytest.raises(ValidationError, match="exceeds Bhattacharyya affinity"):
            AffinityResult(min_mass=2e-20, tv=1 - 2e-20, bhattacharyya=1e-20, n=1)


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
        # the folded expert (0.7, 0.3) is a fourth distinct interior pair
        panel = ExpertPanel(psi=[0.9, 0.8, 0.6], eta=[0.8, 0.75, 0.65], p_y=0.7)
        with pytest.raises(EnumerationLimitError):
            optimal_error(panel, n_max=3)
        optimal_error(panel, n_max=4)

    # values of oracles.rational_error; each tiny eta or prior is a
    # complement the label-0 law carries, never 1 - (1 - eta)
    @pytest.mark.parametrize("psi, eta, p_y, want", [
        ([1e-12], [1e-12], 0.5, 1e-12),
        ([1e-12] * 3, [1e-12] * 3, 0.5, 2.9999999999979998e-24),
        ([0.3] * 5, [1e-12] * 5, 0.5, 0.0012150000024999997),
        ([0.5], [0.5], 1e-14, 1e-14),
        pytest.param([0.5], [0.5], 1e-300, 1e-300, marks=pytest.mark.xfail(strict=True, reason=(
            "1 - 1e-300 rounds to 1.0, so the folded expert's label-0 law is "
            "deterministic by its rate and exact returns 5.0e-301"))),
    ], ids=["tiny_eta", "tiny_eta_x3", "tiny_eta_x5", "tiny_prior", "prior_1e-300"])
    def test_tiny_complements_match_the_rational_oracle(self, psi, eta, p_y, want):
        assert float(oracles.rational_error(psi, eta, p_y)) == want
        got = optimal_error(ExpertPanel(psi=psi, eta=eta, p_y=p_y))
        assert abs(got - want) <= 1e-14 * want

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
            a, b = oracles.complement_symmetry_check(psi, eta, r)
            assert_allclose(a, b, atol=1e-12)

    def test_matched_rates_give_mirrored_pair(self):
        p = ProductBernoulli([0.7, 0.2])
        a, b = oracles.complement_symmetry_check(p, p, 1.0)
        assert_allclose(a, b, atol=1e-15)


class TestTensorizationGap:
    def test_identical_pairs_have_zero_gap(self):
        p = ProductBernoulli([0.3, 0.9])
        q = ProductBernoulli([0.5])
        assert_allclose(oracles.tensorization_gap(p, p, q, q), 0.0, atol=1e-12)

    def test_single_coordinate_blocks(self):
        p = ProductBernoulli([0.6])
        p_alt = ProductBernoulli([0.4])
        gap = oracles.tensorization_gap(p, p_alt, p, p_alt)
        joint = oracles.brute_min_mass([0.6, 0.6], [0.4, 0.4])
        assert_allclose(gap, joint - 0.8 * 0.8, atol=1e-12)
        assert gap >= -1e-12

    def test_random_splits_nonnegative(self, rng):
        for _ in range(50):
            n1 = int(rng.integers(1, 4))
            n2 = int(rng.integers(1, 4))
            p, p_alt = random_pair(rng, n1)
            q, q_alt = random_pair(rng, n2)
            assert oracles.tensorization_gap(p, p_alt, q, q_alt) >= -1e-12

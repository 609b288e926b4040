import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from votebounds import (
    BLOCK_SIZE,
    ExpertPanel,
    ProductBernoulli,
    SimulationResult,
    ValidationError,
    build_rule,
    estimate_min_mass,
    fold_bias,
    min_mass,
    optimal_error,
    simulate_error,
)
from votebounds import montecarlo
from votebounds.rule import _pack

import oracles


class TestSimulationResult:
    def test_accepts_consistent_fields(self):
        res = SimulationResult(trials=10, empirical_error=0.3, std_error=0.1, seed=0)
        assert res.trials == 10

    def test_rejects_fractional_count(self):
        with pytest.raises(ValidationError):
            SimulationResult(trials=10, empirical_error=0.25, std_error=0.1, seed=0)

    def test_rejects_out_of_range_error(self):
        with pytest.raises(ValidationError):
            SimulationResult(trials=10, empirical_error=1.2, std_error=0.1, seed=0)

    def test_rejects_negative_std_error(self):
        with pytest.raises(ValidationError):
            SimulationResult(trials=10, empirical_error=0.3, std_error=-0.1, seed=0)


class TestSimulateError:
    def test_perfect_experts_never_err(self):
        panel = ExpertPanel(psi=[1.0, 1.0], eta=[1.0, 1.0], p_y=0.3)
        for seed in (0, 1, 99):
            res = simulate_error(panel, trials=10_000, seed=seed)
            assert res.empirical_error == 0.0
            assert res.std_error == 0.0

    def test_coin_flip_panel(self):
        panel = ExpertPanel(psi=[0.5], eta=[0.5])
        res = simulate_error(panel, trials=1_000_000, seed=7)
        assert abs(res.empirical_error - 0.5) <= 3.0 * res.std_error

    def test_counterexample_panel(self):
        panel = ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1])
        res = simulate_error(panel, trials=1_000_000, seed=11)
        assert abs(res.empirical_error - 0.005) <= 3.0 * res.std_error
        assert res.std_error == pytest.approx(
            math.sqrt(res.empirical_error * (1.0 - res.empirical_error) / res.trials)
        )

    def test_biased_panel_tracks_generative_risk(self, rng):
        # the simulation draws labels from the panel's own prior, so the
        # target is the rule's risk under that prior, not the folded value
        panel = ExpertPanel(psi=[0.9], eta=[0.8], p_y=0.7)
        rule = build_rule(panel)
        target = oracles.rule_risk(panel, rule.decide)
        assert_allclose(target, 0.13, atol=1e-12)
        res = simulate_error(panel, trials=1_000_000, seed=3)
        assert abs(res.empirical_error - target) <= 4.0 * res.std_error

    def test_deterministic_across_runs(self):
        panel = ExpertPanel(psi=[0.7, 0.6], eta=[0.8, 0.55])
        a = simulate_error(panel, trials=200_000, seed=42)
        b = simulate_error(panel, trials=200_000, seed=42)
        assert a.empirical_error == b.empirical_error
        assert a.std_error == b.std_error

    def test_deterministic_across_worker_counts(self):
        panel = ExpertPanel(psi=[0.7, 0.6], eta=[0.8, 0.55])
        a = simulate_error(panel, trials=200_000, seed=5, workers=1)
        b = simulate_error(panel, trials=200_000, seed=5, workers=3)
        assert a.empirical_error == b.empirical_error

    def test_seed_changes_stream(self):
        panel = ExpertPanel(psi=[0.7], eta=[0.6])
        a = simulate_error(panel, trials=100_000, seed=0)
        b = simulate_error(panel, trials=100_000, seed=1)
        assert a.empirical_error != b.empirical_error

    def test_error_count_is_integral(self):
        panel = ExpertPanel(psi=[0.7], eta=[0.6])
        res = simulate_error(panel, trials=12_345, seed=9)
        count = res.empirical_error * res.trials
        assert count == pytest.approx(round(count), abs=1e-6)

    def test_trials_validation(self):
        panel = ExpertPanel(psi=[0.7], eta=[0.6])
        with pytest.raises(ValidationError):
            simulate_error(panel, trials=0, seed=0)
        with pytest.raises(ValidationError):
            simulate_error(panel, trials=1.5, seed=0)
        with pytest.raises(ValidationError):
            simulate_error(panel, trials=True, seed=0)

    def test_seed_zero_is_valid(self):
        panel = ExpertPanel(psi=[0.7], eta=[0.6])
        res = simulate_error(panel, trials=1000, seed=0)
        assert res.seed == 0

    def test_partial_final_block(self):
        # trials not a multiple of the shard size still counts every trial
        panel = ExpertPanel(psi=[0.5], eta=[0.5])
        res = simulate_error(panel, trials=70_001, seed=2)
        assert res.trials == 70_001
        count = res.empirical_error * res.trials
        assert count == pytest.approx(round(count), abs=1e-6)


class TestEstimateMinMass:
    def test_identical_laws_give_exactly_one(self):
        p = ProductBernoulli([0.3, 0.8])
        est, se = estimate_min_mass(p, p, trials=1000, seed=0)
        assert est == 1.0
        assert se == 0.0

    def test_mirrored_pair(self):
        est, se = estimate_min_mass(
            ProductBernoulli([0.1, 0.1]),
            ProductBernoulli([0.9, 0.9]),
            trials=1_000_000,
            seed=17,
        )
        assert abs(est - 0.2) <= 3.0 * se

    def test_matches_enumeration_on_random_pair(self, rng):
        p = ProductBernoulli(rng.uniform(0.05, 0.95, 10))
        q = ProductBernoulli(rng.uniform(0.05, 0.95, 10))
        exact = min_mass(p, q)
        est, se = estimate_min_mass(p, q, trials=1_000_000, seed=23)
        assert abs(est - exact) <= 4.0 * se

    def test_boundary_sampling_law_matches_min_mass(self):
        # P at 0 and 1 peels into the scalar b; the last two coordinates
        # have p_i == q_i on the boundary and drop out
        pairs = [
            ([1.0, 0.5], [0.5, 0.5]),
            ([1.0, 0.0, 0.4, 1.0, 0.0], [0.6, 0.3, 0.8, 1.0, 0.0]),
            ([0.6, 0.3, 0.8, 1.0, 0.0], [1.0, 0.0, 0.4, 1.0, 0.0]),
        ]
        for seed, (p, q) in enumerate(pairs):
            P, Q = ProductBernoulli(p), ProductBernoulli(q)
            est, se = estimate_min_mass(P, Q, trials=200_000, seed=seed)
            assert abs(est - min_mass(P, Q)) <= 4.0 * se

    def test_boundary_reference_law_allowed(self):
        # Q at 1 peels into the scalar a, which is the whole overlap
        est, se = estimate_min_mass(
            ProductBernoulli([0.5]), ProductBernoulli([1.0]), trials=100_000, seed=4
        )
        exact = min_mass(ProductBernoulli([0.5]), ProductBernoulli([1.0]))
        assert math.isfinite(est)
        assert abs(est - exact) <= 4.0 * se

    @pytest.mark.parametrize("p_i, q_i", [(1.0, 0.0), (0.0, 1.0)])
    def test_disjoint_supports_give_zero_without_sampling(self, p_i, q_i, monkeypatch):
        P = ProductBernoulli([0.3, p_i, 0.5])
        Q = ProductBernoulli([0.6, q_i, 0.5])
        assert min_mass(P, Q) == 0.0
        with pytest.raises(ValidationError):
            estimate_min_mass(P, Q, trials=0, seed=0)

        def no_draws(seed, block):
            raise AssertionError("drew samples for a zero overlap")

        monkeypatch.setattr(montecarlo, "_block_generator", no_draws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_min_mass(P, Q, trials=1000, seed=0) == (0.0, 0.0)

    def test_emptied_pair_returns_exact_overlap(self):
        # overlap 1e-5: the reduction leaves no interior coordinate, so the
        # overlap is the scalar a, with nothing to sample
        P = ProductBernoulli([0.99999, 0.5, 0.5])
        Q = ProductBernoulli([0.0, 0.5, 0.5])
        assert estimate_min_mass(P, Q, trials=20_000, seed=1) == (min_mass(P, Q), 0.0)

    def test_underflowed_scalar_returns_zero(self):
        # 0.4^1100 underflows, so b is 0.0 and so is the exact overlap
        P = ProductBernoulli([1.0] * 1100 + [0.6])
        Q = ProductBernoulli([0.4] * 1100 + [0.3])
        assert min_mass(P, Q) == 0.0
        assert estimate_min_mass(P, Q, trials=1000, seed=0) == (0.0, 0.0)

    def test_subnormal_scalar_does_not_overflow(self):
        # a = 0.5^1060 is subnormal, so scores start near log b - log a = 735
        # and every ratio clips to 1; exp of the unclipped score would overflow
        P = ProductBernoulli([0.5] * 1060 + [0.6])
        Q = ProductBernoulli([0.0] * 1060 + [0.3])
        exact = min_mass(P, Q)
        assert 8.09e-320 < exact < 8.10e-320
        est, se = estimate_min_mass(P, Q, trials=1000, seed=0)
        assert est == pytest.approx(exact, rel=1e-3)
        assert se == 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_uninformative_coordinates_leave_the_stream_unchanged(self, rng, workers):
        # p_i == q_i coordinates, interior or at 0 or 1, drop out in the
        # reduction, wherever they sit in the pair
        p = rng.uniform(0.05, 0.95, 6)
        q = rng.uniform(0.05, 0.95, 6)
        trials = BLOCK_SIZE + 7
        reference = estimate_min_mass(ProductBernoulli(p), ProductBernoulli(q),
                                      trials, 3, workers=workers)
        for extra in ([0.0], [1.0, 0.3], [0.5, 0.0, 1.0, 0.5]):
            where = rng.integers(0, p.size + 1, len(extra))
            P = ProductBernoulli(np.insert(p, where, extra))
            Q = ProductBernoulli(np.insert(q, where, extra))
            assert estimate_min_mass(P, Q, trials, 3, workers=workers) == reference

    def test_deterministic_across_worker_counts(self):
        p = ProductBernoulli([0.3, 0.6, 0.8])
        q = ProductBernoulli([0.5, 0.5, 0.2])
        a = estimate_min_mass(p, q, trials=200_000, seed=31, workers=1)
        b = estimate_min_mass(p, q, trials=200_000, seed=31, workers=3)
        assert a == b


class TestWorkerCount:
    # three blocks, so that two workers do fan out
    TRIALS = 3 * BLOCK_SIZE - 5
    PANEL = ExpertPanel(psi=[0.7, 0.6, 0.9], eta=[0.8, 0.55, 0.6])

    def _both(self, **kwargs):
        P, Q = self.PANEL.law_given_one(), self.PANEL.law_given_zero()
        return (simulate_error(self.PANEL, self.TRIALS, 7, **kwargs),
                estimate_min_mass(P, Q, self.TRIALS, 7, **kwargs))

    def test_workers_set_the_pool_size(self, monkeypatch):
        import concurrent.futures

        pool_sizes = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pool_sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        serial = self._both()
        assert pool_sizes == []  # one worker by default, no pool
        assert self._both(workers=2) == serial
        assert pool_sizes == [2, 2]


class TestEstimatorAgreement:
    def test_min_mass_estimate_matches_simulated_error(self):
        # on an unbiased panel the simulated error targets half the
        # overlap, so the overlap estimate should be twice the error
        panel = ExpertPanel(psi=[0.85, 0.7, 0.65], eta=[0.75, 0.8, 0.6])
        sim = simulate_error(panel, trials=1_000_000, seed=13)
        est, se = estimate_min_mass(
            panel.law_given_one(), panel.law_given_zero(),
            trials=1_000_000, seed=13,
        )
        combined = math.sqrt((0.5 * se) ** 2 + sim.std_error**2)
        assert abs(0.5 * est - sim.empirical_error) <= 4.0 * combined

    def test_both_estimators_near_exact(self):
        panel = ExpertPanel(psi=[0.85, 0.7, 0.65], eta=[0.75, 0.8, 0.6])
        exact = optimal_error(panel)
        sim = simulate_error(panel, trials=1_000_000, seed=29)
        est, se = estimate_min_mass(
            panel.law_given_one(), panel.law_given_zero(),
            trials=1_000_000, seed=37,
        )
        assert abs(sim.empirical_error - exact) <= 4.0 * sim.std_error
        assert abs(0.5 * est - exact) <= 4.0 * (0.5 * se)


def _pinned_panel():
    n = 32
    return ExpertPanel(
        psi=[0.55 + 0.012 * i for i in range(n)],
        eta=[0.9 - 0.011 * i for i in range(n)],
        p_y=0.3,
    )


class TestRecordedStreams:
    # Recorded with the per-estimator scoring loops that the shared kernel
    # replaced. A change to the draws or the block combination shows up
    # here; a change to the kernel's summation order need not (summing the
    # bytes in reverse left both values as they are), so test_rule.py pins
    # that order. 150_001 trials end on a partial block.
    TRIALS = 150_001

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_error_is_bit_identical(self, workers):
        res = simulate_error(_pinned_panel(), self.TRIALS, 2024, workers=workers)
        assert res.empirical_error == 0.0016799888000746661
        assert res.std_error == 0.0001057404134873463

    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimate_min_mass_is_bit_identical(self, workers):
        folded = fold_bias(_pinned_panel())
        est, se = estimate_min_mass(folded.law_given_one(), folded.law_given_zero(),
                                    self.TRIALS, 2024, workers=workers)
        assert est == 0.003038672075987109
        assert se == 0.00011365738271612083


ROWS = montecarlo._CHUNK_ROWS


def _chunk_panel(n, kind):
    rng = np.random.default_rng(n)
    psi = rng.uniform(0.55, 0.9, n)
    eta = rng.uniform(0.55, 0.9, n)
    p_y = 0.3 if kind == "biased" else 0.5
    if kind == "boundary":
        psi[0] = 1.0
        psi[n // 2] = 0.0
        if n > 2:
            eta[-1] = 1.0  # law_given_zero at 0 there: some ratios are 0
    return ExpertPanel(psi=psi, eta=eta, p_y=p_y)


class TestChunkedBlocks:
    # Blocks are drawn ROWS trials at a time; the results must equal those
    # of drawing and scoring each block as one array, bit for bit.
    @pytest.mark.parametrize("kind", ["plain", "biased", "boundary"])
    @pytest.mark.parametrize("trials", [1, ROWS - 1, ROWS, ROWS + 1, 16383, 16384,
                                        16385, BLOCK_SIZE, BLOCK_SIZE + 1,
                                        3 * BLOCK_SIZE - 5])
    @pytest.mark.parametrize("n", [1, 2, 31, 64])
    def test_matches_whole_block_reference(self, n, trials, kind):
        panel = _chunk_panel(n, kind)
        folded = fold_bias(panel)
        P, Q = folded.law_given_one(), folded.law_given_zero()
        seed = 1000 * n + trials
        sim_ref = oracles.whole_block_simulate_error(panel, trials, seed)
        est_ref = oracles.whole_block_estimate_min_mass(P, Q, trials, seed)
        for workers in (1, 2):
            sim = simulate_error(panel, trials, seed, workers=workers)
            assert (sim.empirical_error, sim.std_error) == sim_ref
            assert estimate_min_mass(P, Q, trials, seed, workers=workers) == est_ref

    @pytest.mark.parametrize("estimator", ["simulate_error", "estimate_min_mass"])
    def test_peak_traced_memory_stays_small(self, estimator):
        # a whole block of bool votes alone takes 64 KiB per expert, and
        # holding one peaked at 81-90 KiB per expert on these inputs; a
        # whole block of packed votes peaks at 33.3 (simulate_error) and
        # 32.5 (estimate_min_mass) at n = 64, 25.4 and 17.5 at n = 1001.
        # numpy reports its buffers to tracemalloc
        trials = BLOCK_SIZE + 1
        for n in (64, 1001):
            panel = _chunk_panel(n, "plain")
            P, Q = panel.law_given_one(), panel.law_given_zero()
            runs = {
                "simulate_error": lambda: simulate_error(panel, trials, 5, workers=1),
                "estimate_min_mass": lambda: estimate_min_mass(P, Q, trials, 5, workers=1),
            }
            tracemalloc.start()
            try:
                runs[estimator]()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * (48 << 10), (n, peak)


class TestInPlacePacking:
    # _draw_block packs each chunk of bools into its own words, a label
    # word first when there is one, and reuses the chunk: the packed
    # bytes must be packbits' bytes, and the padding past n must read 0
    # again for the next chunk
    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 31, 64, 65])
    def test_packs_like_packbits_and_leaves_padding_zero(self, rng, n, lead):
        nb = -(-n // 8)
        skip = 8 * lead
        chunk = np.zeros((37, skip + 8 * nb), dtype=bool)
        # a previous chunk's packed bytes, nonzero, in the vote columns
        chunk.view(np.uint8)[:, :skip + n] = rng.integers(1, 256, (37, skip + n))
        for k in (37, 20):
            bits = rng.integers(0, 2, (k, skip + n)).astype(bool)
            chunk[:k, :skip + n] = bits
            packed = _pack(chunk.view("<u8")[:k])[:, lead:]
            ref = np.packbits(bits[:, skip:], axis=1, bitorder="little")
            assert np.array_equal(packed, ref)
            assert not chunk[:, skip + n:].view(np.uint8).any()


# rates at the rounding edges of (w >> 11) * 2^-53 < p: 0, the smallest
# subnormal, below one step, one step, 3 steps and its neighbours, 0.5,
# one step below 1, and 1
EDGE_RATES = np.array([0.0, 5e-324, 2.0**-60, 2.0**-53, np.nextafter(3 * 2.0**-53, 0.0),
                       3 * 2.0**-53, np.nextafter(3 * 2.0**-53, 1.0), 0.5,
                       1.0 - 2.0**-53, 1.0])


def _draw(seed, block, trials, given_one, given_zero=None, p_y=None):
    """The labels (None without p_y) and (trials, n) bool votes of
    _draw_block for the rates, unpacked from their bytes."""
    if p_y is None:
        rates = given_one
    else:
        rates = [np.r_[p_y, given_zero], np.r_[p_y, given_one]]
    y, x = montecarlo._draw_block(seed, block, trials, montecarlo._thresholds(rates))
    assert x.shape == (-(-len(given_one) // 8), trials)
    x = np.unpackbits(x, axis=0, count=len(given_one), bitorder="little")
    return y, x.T.astype(bool)


class TestRawWordVotes:
    # _draw_block compares raw Philox words with integer thresholds; the
    # votes must be those of comparing Generator.random() with the rates,
    # which also pins that random() is (w >> 11) * 2^-53 on this numpy
    @pytest.mark.parametrize("trials", [1, ROWS + 1, BLOCK_SIZE - 3])
    def test_votes_equal_thresholded_uniforms(self, trials):
        n = EDGE_RATES.size
        given_one = EDGE_RATES
        given_zero = np.roll(EDGE_RATES[::-1], 3)
        for block, p_y in enumerate([0.1, 0.3, 0.5, 0.7, 0.9]):
            y, x = _draw(7, block, trials, given_one, given_zero, p_y)
            u = montecarlo._block_generator(7, block).random((trials, n + 1))
            y_ref = u[:, 0] < p_y
            assert np.array_equal(y, y_ref)
            assert np.array_equal(x, u[:, 1:] < np.where(y_ref[:, None], given_one, given_zero))
        _, x = _draw(8, 0, trials, given_one)
        assert np.array_equal(x, montecarlo._block_generator(8, 0).random((trials, n)) < given_one)

    def test_thresholds_split_the_words_where_uniforms_cross_the_rate(self):
        # every 53-bit word j next to its threshold lands on the same side
        # of it as the uniform j * 2^-53 lands of the rate
        for p, t in zip(EDGE_RATES, montecarlo._thresholds(EDGE_RATES)):
            for j in range(max(int(t) - 2, 0), min(int(t) + 2, 1 << 53)):
                assert (j < t) == (j * 2.0**-53 < p)
        assert montecarlo._thresholds(EDGE_RATES)[[0, -1]].tolist() == [0, 1 << 53]

    def test_rate_equal_to_the_drawn_uniform_votes_zero(self):
        # u < p is false at p = u and true one float above it, for the
        # label and for the votes
        u = montecarlo._block_generator(9, 0).random(17)
        above = np.nextafter(u, 1.0)
        for rates, vote in ((u, False), (above, True)):
            _, x = _draw(9, 0, 1, rates)
            assert np.all(x == vote)
            for p_y, label in ((u[0], False), (above[0], True)):
                y, x = _draw(9, 0, 1, rates[1:], rates[1:], p_y)
                assert y.tolist() == [label] and np.all(x == vote)

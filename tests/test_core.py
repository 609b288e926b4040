import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from votebounds import (
    AffinityResult,
    BoundsReport,
    ExpertPanel,
    ProductBernoulli,
    SimulationResult,
    ValidationError,
    fold_bias,
    load_panel,
    validate_panel,
)

import oracles


class TestProductBernoulli:
    def test_masses_sum_to_one(self, rng):
        for n in range(1, 9):
            p = rng.uniform(0.0, 1.0, n)
            law = ProductBernoulli(p)
            assert law.n == n
            assert_allclose(oracles.brute_masses(law.p).sum(), 1.0, atol=1e-12)

    def test_oracle_bit_matrix_matches_per_outcome_products(self, rng):
        # brute_masses is the vectorized form of product_mass, bit for bit
        for n in range(0, 13):
            p = rng.uniform(0.0, 1.0, n)
            p[rng.random(n) < 0.2] = 1.0
            want = [oracles.product_mass(p.tolist(), bits) for bits in oracles.outcomes(n)]
            assert oracles.brute_masses(p).tolist() == want

    def test_parameters_are_read_only(self):
        law = ProductBernoulli([0.5, 0.5])
        with pytest.raises(ValueError):
            law.p[0] = 0.1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ProductBernoulli([0.5, 1.2])
        with pytest.raises(ValidationError):
            ProductBernoulli([-0.1])

    def test_rejects_nan_and_empty(self):
        with pytest.raises(ValidationError):
            ProductBernoulli([math.nan])
        with pytest.raises(ValidationError):
            ProductBernoulli([])

    def test_rejects_non_vector_shapes(self):
        with pytest.raises(ValidationError):
            ProductBernoulli([[0.5], [0.5]])


class TestExpertPanel:
    def test_boundary_rates_are_accepted(self):
        panel = ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1])
        assert panel.n == 2
        assert panel.p_y == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ExpertPanel(psi=[0.9, 0.8], eta=[0.7])

    def test_prior_must_be_interior(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                ExpertPanel(psi=[0.9], eta=[0.8], p_y=bad)
        with pytest.raises(ValidationError):
            ExpertPanel(psi=[0.9], eta=[0.8], p_y=math.nan)

    def test_conditional_laws(self):
        panel = ExpertPanel(psi=[0.9, 0.6], eta=[0.8, 0.7])
        assert_allclose(np.asarray(panel.law_given_one().p), [0.9, 0.6])
        assert_allclose(np.asarray(panel.law_given_zero().p), [0.2, 0.3])

    def test_symmetric_flag_is_exact(self):
        assert ExpertPanel(psi=[0.9, 0.6], eta=[0.9, 0.6]).symmetric
        assert not ExpertPanel(psi=[0.9], eta=[0.9 + 1e-15]).symmetric

    def test_arrays_are_read_only(self):
        panel = ExpertPanel(psi=[0.9], eta=[0.8])
        with pytest.raises(ValueError):
            panel.psi[0] = 0.5


class TestValidatePanel:
    def test_accepts_minimal_mapping(self):
        panel = validate_panel({"psi": [0.9], "eta": [0.8]})
        assert panel.p_y == 0.5

    def test_accepts_full_mapping(self):
        panel = validate_panel({"psi": [0.9], "eta": [0.8], "p_y": 0.7})
        assert panel.p_y == 0.7

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            validate_panel({"psi": [0.9], "eta": [0.8], "prior": 0.5})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValidationError):
            validate_panel({"psi": [0.9]})

    def test_rejects_non_mapping(self):
        with pytest.raises(ValidationError):
            validate_panel([0.9, 0.8])


class TestLoadPanel:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "panel.json"
        path.write_text(json.dumps({"psi": [0.9, 0.6], "eta": [0.8, 0.7], "p_y": 0.25}))
        panel = load_panel(path)
        assert_allclose(np.asarray(panel.psi), [0.9, 0.6])
        assert panel.p_y == 0.25

    def test_missing_file_raises_validation_error(self, tmp_path):
        with pytest.raises(ValidationError):
            load_panel(tmp_path / "absent.json")

    def test_unreadable_path_is_named_once(self, tmp_path):
        # an OSError's own text repeats the path it failed on
        path = str(tmp_path / ("p" * 5000))
        with pytest.raises(ValidationError, match="cannot read panel file") as info:
            load_panel(path)
        message = str(info.value)
        assert message.count(path) == 1
        assert len(message) < len(path) + 100

    def test_malformed_json_raises_validation_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_panel(path)

    def test_non_utf8_file_raises_validation_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValidationError, match="cannot read panel file"):
            load_panel(path)

    def test_file_descriptor_is_refused_and_left_open(self, tmp_path):
        # open() takes an int for a file descriptor, reads it and closes it
        path = tmp_path / "panel.json"
        path.write_text(json.dumps({"psi": [0.9], "eta": [0.8]}))
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(ValidationError, match="os.PathLike"):
                load_panel(fd)
            os.fstat(fd)
        finally:
            os.close(fd)


class TestFoldBias:
    def test_unbiased_panel_unchanged(self):
        panel = ExpertPanel(psi=[0.9], eta=[0.8])
        folded = fold_bias(panel)
        assert folded.n == 1
        assert_allclose(np.asarray(folded.psi), [0.9])

    def test_biased_panel_gains_one_expert(self):
        panel = ExpertPanel(psi=[0.9], eta=[0.8], p_y=0.7)
        folded = fold_bias(panel)
        assert folded.n == 2
        assert_allclose(np.asarray(folded.psi), [0.9, 0.7])
        assert_allclose(np.asarray(folded.eta), [0.8, 0.7])
        assert folded.p_y == 0.5

    def test_idempotent(self):
        panel = ExpertPanel(psi=[0.9], eta=[0.8], p_y=0.7)
        once = fold_bias(panel)
        twice = fold_bias(once)
        assert twice.n == once.n
        assert_allclose(np.asarray(twice.psi), np.asarray(once.psi))

    def test_error_functional_is_preserved(self):
        # the library's error functional is invariant under folding by
        # construction; this guards the wiring, nothing deeper
        from votebounds import optimal_error

        panel = ExpertPanel(psi=[0.9, 0.6], eta=[0.8, 0.7], p_y=0.3)
        assert_allclose(
            optimal_error(panel), optimal_error(fold_bias(panel)), atol=1e-15
        )

    def test_symmetric_biased_panel_matches_true_bayes_risk(self, rng):
        # with psi == eta entrywise the fold is lossless: the half-half
        # mixture it computes coincides with the prior-weighted risk
        from votebounds import optimal_error

        for _ in range(25):
            n = int(rng.integers(1, 5))
            p_y = float(rng.uniform(0.05, 0.95))
            panel = oracles.random_panel(rng, n, p_y=p_y, symmetric=True)
            assert_allclose(optimal_error(panel), oracles.bayes_risk(panel), atol=1e-12)

    def test_asymmetric_fold_averages_prior_and_complement(self, rng):
        # general identity: the folded value equals the mean of the
        # pointwise-min functional taken at p_y and at 1 - p_y
        from votebounds import optimal_error

        for _ in range(25):
            n = int(rng.integers(1, 5))
            p_y = float(rng.uniform(0.05, 0.95))
            panel = oracles.random_panel(rng, n, p_y=p_y)
            mirrored = ExpertPanel(psi=panel.psi, eta=panel.eta, p_y=1.0 - p_y)
            expected = 0.5 * (oracles.bayes_risk(panel) + oracles.bayes_risk(mirrored))
            assert_allclose(optimal_error(panel), expected, atol=1e-12)


class TestMinIdentity:
    def test_matches_min_on_examples(self):
        assert_allclose(oracles.min_identity(0.3, 0.7), 0.3, atol=1e-15)
        assert_allclose(oracles.min_identity(0.7, 0.3), 0.3, atol=1e-15)
        assert_allclose(oracles.min_identity(0.5, 0.5), 0.5, atol=1e-15)

    @given(
        st.floats(min_value=1e-9, max_value=1.0),
        st.floats(min_value=1e-9, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_min_everywhere(self, u, v):
        assert oracles.min_identity(u, v) == pytest.approx(min(u, v), rel=1e-12)


class TestBalancedMinInequalityGap:
    def test_equality_at_matched_pair(self):
        assert oracles.balanced_min_inequality_gap(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_equality_cases(self):
        # the two sides agree on both branches of s+t vs 1, so the gap
        # vanishes everywhere; spot-check representatives of each branch
        # s=1, t=0: lhs = min(1,1)+min(0,0) = 1, rhs = 2*min(1/2,1/2) = 1
        assert oracles.balanced_min_inequality_gap(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        # s+t > 1: s=0.9, t=0.8 -> lhs = 0.2+0.1 = 0.3, rhs = 2*0.15 = 0.3
        assert oracles.balanced_min_inequality_gap(0.9, 0.8) == pytest.approx(0.0, abs=1e-15)
        # s+t < 1: s=0.3, t=0.1 -> lhs = 0.3+0.1 = 0.4, rhs = 2*0.2 = 0.4
        assert oracles.balanced_min_inequality_gap(0.3, 0.1) == pytest.approx(0.0, abs=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_negative(self, s, t):
        assert oracles.balanced_min_inequality_gap(s, t) >= -1e-12

    def test_sample_sweep_nonnegative(self, rng):
        s = rng.uniform(0.0, 1.0, 10_000)
        t = rng.uniform(0.0, 1.0, 10_000)
        gaps = np.array([oracles.balanced_min_inequality_gap(a, b) for a, b in zip(s, t)])
        assert gaps.min() >= -1e-12


def affinity_record(**fields):
    return AffinityResult(**{"min_mass": 0.5, "tv": 0.5, "bhattacharyya": 0.6, "n": 1,
                             **fields})


def bounds_record(**fields):
    return BoundsReport(**{"n": 1, "pi": [0.75], "upper": 0.4, "lower": 0.25,
                           "hellinger_lower": 0.6, "hellinger_upper": 0.8, **fields})


def simulation_record(**fields):
    return SimulationResult(**{"trials": 10, "empirical_error": 0.3, "std_error": 0.1,
                               "seed": 0, **fields})


# each result record with one of its [0, 1] fields
RECORD_FIELDS = [
    (affinity_record, "bhattacharyya"),
    (bounds_record, "upper"),
    (simulation_record, "empirical_error"),
]
RECORD_IDS = ["affinity", "bounds", "simulation"]


class TestRecordRangeCheck:
    """The one [0, 1] check that AffinityResult, BoundsReport and
    SimulationResult share: 1e-9 of slack for the first two, none for the
    third, NaN refused, None skipped."""

    @pytest.mark.parametrize("record, name, value", [
        (affinity_record, "bhattacharyya", 1.4),
        (bounds_record, "upper", 1.4),
        (bounds_record, "lower", -0.1),
        (simulation_record, "empirical_error", 1.2),
        (simulation_record, "empirical_error", -0.1),
    ])
    def test_message_names_the_field_and_value(self, record, name, value):
        message = f"{name} = {value} lies outside [0, 1]"
        with pytest.raises(ValidationError, match=re.escape(message)):
            record(**{name: value})

    @pytest.mark.parametrize("record, name", RECORD_FIELDS[:2], ids=RECORD_IDS[:2])
    def test_slack_of_1e_9_accepts_just_past_one(self, record, name):
        assert getattr(record(**{name: 1.0 + 5e-10}), name) == 1.0 + 5e-10

    def test_simulation_takes_no_slack(self):
        with pytest.raises(ValidationError, match=re.escape(
                f"empirical_error = {1.0 + 5e-10} lies outside [0, 1]")):
            simulation_record(empirical_error=1.0 + 5e-10)

    @pytest.mark.parametrize("record, name", RECORD_FIELDS, ids=RECORD_IDS)
    def test_nan_is_refused(self, record, name):
        with pytest.raises(ValidationError, match=re.escape(f"{name} = nan lies outside [0, 1]")):
            record(**{name: math.nan})

    def test_none_fields_are_skipped(self):
        report = bounds_record(symmetric_lower=None, potential_upper=None, exact=None)
        assert report.to_dict()["potential_upper"] is None
        # a field after a None one is still checked
        with pytest.raises(ValidationError, match=re.escape("manino_upper = 1.4 lies outside")):
            bounds_record(potential_upper=None, manino_upper=1.4)

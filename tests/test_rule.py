import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from votebounds import (
    DecisionRule,
    ExpertPanel,
    ValidationError,
    build_rule,
    min_mass,
)

import oracles
import votebounds.rule


def interior_panel():
    return ExpertPanel(psi=[0.9], eta=[0.8])


class TestBuildRule:
    def test_weights_exact_for_interior_panel(self):
        rule = build_rule(interior_panel())
        assert_allclose(rule.offset, 0.0, atol=1e-15)
        assert_allclose(rule.vote_one_weights, [math.log(0.9 / 0.2)], atol=1e-15)
        assert_allclose(rule.vote_zero_weights, [math.log(0.1 / 0.8)], atol=1e-15)

    def test_offset_carries_prior(self):
        rule = build_rule(ExpertPanel(psi=[0.9], eta=[0.8], p_y=0.7))
        assert_allclose(rule.offset, math.log(0.7 / 0.3), rtol=1e-15)

    def test_boundary_rates_produce_finite_weights(self):
        rule = build_rule(ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1]))
        assert np.all(np.isfinite(rule.vote_one_weights))
        assert np.all(np.isfinite(rule.vote_zero_weights))

    def test_rule_arrays_are_read_only(self):
        rule = build_rule(interior_panel())
        with pytest.raises(ValueError):
            rule.vote_one_weights[0] = 0.0


class TestDecisionRuleValidation:
    def test_mismatched_weight_lengths_rejected(self):
        with pytest.raises(ValidationError):
            DecisionRule(
                offset=0.0,
                vote_one_weights=[1.0, 2.0],
                vote_zero_weights=[1.0],
            )

    def test_non_finite_offset_rejected(self):
        with pytest.raises(ValidationError):
            DecisionRule(
                offset=math.inf,
                vote_one_weights=[1.0],
                vote_zero_weights=[1.0],
            )


class TestScore:
    def test_three_expert_example(self):
        rule = build_rule(ExpertPanel(psi=[0.9, 0.6, 0.6], eta=[0.9, 0.6, 0.6]))
        got = rule.score([1, 0, 0])
        assert_allclose(got, math.log(9.0) - 2.0 * math.log(1.5), rtol=1e-12)
        assert_allclose(got, math.log(4.0), rtol=1e-12)

    def test_accepts_bit_string(self):
        rule = build_rule(ExpertPanel(psi=[0.9, 0.6, 0.6], eta=[0.9, 0.6, 0.6]))
        assert rule.score("100") == rule.score([1, 0, 0])

    def test_rejects_wrong_length(self):
        rule = build_rule(interior_panel())
        with pytest.raises(ValidationError):
            rule.score([1, 0])

    def test_rejects_non_bits(self):
        # int() would truncate 0.7 to a 0 vote and 1.9 to a 1 vote
        rule = build_rule(interior_panel())
        for bad in ([2], [0.7], [1.9], [-1], ["2"], [math.nan], [math.inf],
                    [" 1"], ["+1"], ["01"], ["\u0661"]):
            with pytest.raises(ValidationError):
                rule.score(bad)

    def test_accepts_values_equal_to_bits(self):
        rule = build_rule(ExpertPanel(psi=[0.9, 0.6, 0.6], eta=[0.9, 0.6, 0.6]))
        for x in ([True, False, False], [1.0, 0.0, 0.0], ["1", "0", "0"],
                  np.array([1.0, 0.0, 0.0]), np.array([True, False, False])):
            assert rule.score(x) == rule.score([1, 0, 0])


class TestDecide:
    def test_single_expert_follows_its_vote(self):
        rule = build_rule(interior_panel())
        assert rule.decide([1]) == 1
        assert rule.decide([0]) == 0

    def test_tie_resolves_to_one(self):
        rule = build_rule(ExpertPanel(psi=[0.5, 0.5], eta=[0.5, 0.5]))
        for bits in oracles.outcomes(2):
            assert rule.score(bits) == pytest.approx(0.0, abs=1e-15)
            assert rule.decide(bits) == 1

    def test_all_positive_weights_vote_one(self):
        # every expert informative in the 1-direction, all bits set
        panel = ExpertPanel(psi=[0.9, 0.8, 0.7], eta=[0.6, 0.7, 0.8])
        rule = build_rule(panel)
        assert rule.decide([1, 1, 1]) == 1

    def test_boundary_counterexample_panel(self):
        panel = ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1])
        rule = build_rule(panel)
        assert rule.decide([1, 0]) == 1


def tie_panel():
    # complementary pair: votes (1, 0) score log 2 + log 0.5 == 0.0 exactly
    return ExpertPanel(psi=[0.5, 0.75], eta=[0.75, 0.5])


def byte_boundary_tie_panel():
    # the same pair as experts 7 and 8, in different bytes of packed
    # votes, after 7 uninformative experts that weigh 0 either way
    return ExpertPanel(psi=[0.5] * 8 + [0.75], eta=[0.5] * 7 + [0.75, 0.5])


class TestDecideBatch:
    def test_empty(self):
        rule = build_rule(ExpertPanel(psi=[0.9, 0.6], eta=[0.8, 0.7]))
        assert rule.decide_batch([]) == []
        assert rule.decide_batch(np.zeros((0, 2), dtype=np.uint8)) == []
        assert rule.decide_batch(np.zeros((0, 2))) == []

    def test_returns_python_ints(self):
        rule = build_rule(interior_panel())
        out = rule.decide_batch(np.array([[1], [0]], dtype=np.uint8))
        assert out == [1, 0]
        assert all(type(d) is int for d in out)

    def test_exact_tie_decides_one_in_every_form(self):
        for panel, tie in ((tie_panel(), [1, 0]),
                           (byte_boundary_tie_panel(), [1, 0, 1, 1, 0, 0, 1, 1, 0])):
            rule = build_rule(panel)
            assert rule.score(tie) == 0.0
            assert rule.decide(tie) == 1
            xs = [tie, tie]
            for form in ROW_FORMS.values():
                assert rule.decide_batch([form(row) for row in xs]) == [1, 1]
            for dtype in (bool, np.uint8, int, float):
                assert rule.decide_batch(np.array(xs, dtype=dtype)) == [1, 1]

    def test_forms_agree_with_per_vector_decide(self, rng):
        panels = [tie_panel(), ExpertPanel(psi=[0.5, 0.75, 0.75, 0.5] * 2,
                                           eta=[0.75, 0.5, 0.5, 0.75] * 2)]
        panels += [oracles.random_panel(rng, int(rng.integers(1, 40)),
                                        low=0.0, high=1.0,
                                        p_y=float(rng.choice([0.5, 0.3])))
                   for _ in range(20)]
        for panel in panels:
            rule = build_rule(panel)
            x = rng.integers(0, 2, (300, panel.n))
            expected = [rule.decide(row) for row in x.tolist()]
            for xs in (x, x.astype(np.uint8), x.astype(bool), x.tolist(),
                       ["".join(map(str, row)) for row in x.tolist()]):
                assert rule.decide_batch(xs) == expected

    def test_repeated_input_is_deterministic(self):
        rule = build_rule(interior_panel())
        assert rule.decide_batch([[1], [1]]) == [rule.decide([1])] * 2

    def test_matches_per_call_decide(self, rng):
        panel = oracles.random_panel(rng, 3)
        rule = build_rule(panel)
        xs = oracles.outcomes(3)
        assert rule.decide_batch(xs) == [rule.decide(x) for x in xs]

    def test_reports_offending_index(self):
        rule = build_rule(interior_panel())
        with pytest.raises(ValidationError, match="input 1"):
            rule.decide_batch([[1], [1, 0]])
        two = build_rule(ExpertPanel(psi=[0.9, 0.6], eta=[0.8, 0.7]))
        cases = [
            (np.array([[1, 0], [0, 1], [2, 0]]), "input 2: vote 0 is 2"),
            ([[1, 0], [0, 1, 1], [1, 0]], "input 1: vote vector has length 3"),
            (np.ones((3, 3), dtype=np.uint8), "input 0: vote vector has length 3"),
            ([[1, 0], [1, 3], [5, 0]], "input 1: vote 1 is 3"),
            (np.array([[1.0, 0.0], [0.7, 1.0]]), "input 1: vote 0 is 0.7"),
        ]
        for xs, message in cases:
            with pytest.raises(ValidationError, match=message):
                two.decide_batch(xs)


class TestByteKernel:
    # _scores adds one table entry per byte of 8 packed votes, where the
    # column scorer of the oracles adds one weight per vote
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1001])
    def test_matches_column_scorer(self, rng, n):
        w1, w0 = rng.normal(0.0, 3.0, n), rng.normal(0.0, 3.0, n)
        offset = float(rng.normal())
        x = rng.integers(0, 2, (300, n)).astype(bool)
        x[0], x[1] = False, True
        got = DecisionRule(offset, w1, w0)._score_rows(x)
        ref = oracles.column_scores(x, offset, w1, w0)
        # each order is within n * 2^-53 of the exact sum, scaled by its terms
        scale = abs(offset) + np.maximum(np.abs(w1), np.abs(w0)).sum()
        assert np.all(np.abs(got - ref) <= n * 2.0**-52 * scale)

    def test_adds_each_byte_and_then_the_bytes_in_index_order(self, rng):
        n = 21
        w1, w0 = rng.normal(size=n), rng.normal(size=n)
        tables = votebounds.rule._byte_tables(w1, w0)
        assert tables.shape == (3, 256)
        for j, v in [(0, 0), (0, 0b10110101), (0, 255), (2, 0b11010), (2, 255)]:
            expected = 0.0
            for i in range(8 * j, min(8 * j + 8, n)):
                expected += w1[i] if v >> (i - 8 * j) & 1 else w0[i]
            assert tables[j, v] == expected
        packed = rng.integers(0, 256, (3, 50), dtype=np.uint8)
        expected = np.full(50, 0.7)
        for table, col in zip(tables, packed):
            expected = expected + table[col]
        assert np.array_equal(votebounds.rule._scores(packed, 0.7, tables), expected)

    def test_packing_matches_packbits(self, rng):
        for n in [*range(1, 66), 1001]:
            for x in (rng.integers(0, 2, (37, n)).astype(bool), np.eye(n, dtype=bool),
                      np.ones((2, n), dtype=bool)):
                ref = np.packbits(x, axis=1, bitorder="little")
                assert np.array_equal(votebounds.rule._packed(x), ref.T)


# one vote vector in each row form, from a Python list; a corrupted row
# that is no longer a list passes through unchanged
ROW_FORMS = {
    "int list": list,
    "bool/int64 list": lambda r: [(bool(v) if i % 2 else np.int64(v))
                                  if type(v) is int and v in (0, 1) else v
                                  for i, v in enumerate(r)],
    "float list": lambda r: [float(v) if type(v) is int else v for v in r],
    "tuple": tuple,
    "ndarray": np.array,
    "bit string": lambda r: "".join(map(str, r)),
}


def _rows(pick):
    """A list batch whose row i takes the form pick(i, number of rows)."""
    def build(rows):
        return [ROW_FORMS[pick(i, len(rows))](r) if type(r) is list else r
                for i, r in enumerate(rows)]
    return build


BATCH_FORMS = [
    ("ndarray-b", lambda rows: np.array(rows, dtype=bool)),
    ("ndarray-i", lambda rows: np.array(rows, dtype=np.int64)),
    ("ndarray-u", lambda rows: np.array(rows, dtype=np.uint8)),
    ("ndarray-f", lambda rows: np.array(rows, dtype=np.float64)),
    ("ndarray-f32", lambda rows: np.array(rows, dtype=np.float32)),
    ("ndarray-f16", lambda rows: np.array(rows, dtype=np.float16)),
    ("ndarray-i8", lambda rows: np.array(rows, dtype=np.int8)),
    ("generator", lambda rows: (list(r) if type(r) is list else r for r in rows)),
] + [
    (f"{name}s", _rows(lambda i, m, name=name: name)) for name in ROW_FORMS
] + [
    ("int then float lists", _rows(lambda i, m: "int list" if 2 * i < m else "float list")),
    ("int lists then bit strings",
     _rows(lambda i, m: "int list" if 2 * i < m else "bit string")),
    ("cycled row forms", _rows(lambda i, m: list(ROW_FORMS)[i % len(ROW_FORMS)])),
]

# (name, corrupt): a change to one row; the ndarray forms take only
# value corruptions their dtype holds exactly
ROW_CORRUPTIONS = [
    (repr(v), lambda row, v=v: row[:1] + [v] + row[2:])
    for v in (2, -1, 256, 0.7, math.nan, math.inf, "2", None)
] + [
    ("short row", lambda row: row[:-1]),
    ("long row", lambda row: row + [0]),
    ("int row", lambda row: 1),
    ("wrong-width ndarray", lambda row: np.zeros(len(row) + 1, dtype=np.uint8)),
]
FLOAT_HOLDS = ("2", "-1", "256", "0.7", "nan", "inf")
NDARRAY_HOLDS = {"ndarray-b": (), "ndarray-i": ("2", "-1", "256"),
                 "ndarray-u": ("2",), "ndarray-i8": ("2", "-1"), "ndarray-f": FLOAT_HOLDS,
                 "ndarray-f32": FLOAT_HOLDS, "ndarray-f16": FLOAT_HOLDS}
# votes of other types inside an int list; some are legal, some are not
ODD_VOTES = [True, False, np.int64(1), np.uint8(0), np.float64(1.0), -0.0,
             10**400, [0, 1]]


def _outcome(fn):
    try:
        return "decisions", fn()
    except ValidationError as exc:
        return "error", str(exc)


class TestBatchMatchesPerRowCheck:
    def check(self, rule, make):
        """decide_batch on a fresh make() gives the oracle's outcome."""
        expected = _outcome(lambda: [rule.decide(bits) for bits in
                                     oracles.per_row_bit_rows(rule, make())])
        assert _outcome(lambda: rule.decide_batch(make())) == expected
        return expected

    def test_every_form_and_corruption(self, rng):
        rule = build_rule(ExpertPanel(psi=[0.5, 0.75, 0.75, 0.5] * 2,
                                      eta=[0.75, 0.5, 0.5, 0.75] * 2))
        base = rng.integers(0, 2, (9, rule.n)).tolist()
        outcomes = set()
        for name, form in BATCH_FORMS:
            assert self.check(rule, lambda: form(base))[0] == "decisions"
            assert self.check(rule, lambda: form([]))[0] == "decisions"
            for bad, corrupt in ROW_CORRUPTIONS:
                if name in NDARRAY_HOLDS and bad not in NDARRAY_HOLDS[name]:
                    continue
                for at in (0, 4, 8):
                    rows = [list(r) for r in base]
                    rows[at] = corrupt(rows[at])
                    kind, message = self.check(rule, lambda: form(rows))
                    outcomes.add(kind)
                    if kind == "error":
                        assert message.startswith(f"input {at}: ")
        assert outcomes == {"error"}

    @pytest.mark.parametrize("vote", ODD_VOTES, ids=lambda v: type(v).__name__)
    def test_odd_vote_in_int_lists(self, rng, vote):
        rule = build_rule(ExpertPanel(psi=[0.5, 0.75, 0.75, 0.5] * 2,
                                      eta=[0.75, 0.5, 0.5, 0.75] * 2))
        base = rng.integers(0, 2, (9, rule.n)).tolist()
        for at in (0, 4, 8):
            for i in (0, rule.n - 1):
                rows = [list(r) for r in base]
                rows[at][i] = vote
                kind, message = self.check(rule, lambda: [list(r) for r in rows])
                legal = not isinstance(vote, list) and vote in (0, 1)
                assert kind == ("decisions" if legal else "error")
                if kind == "error":
                    assert message.startswith(f"input {at}: ")

    @pytest.mark.parametrize("form", [bytes, bytearray])
    def test_byte_string_row(self, rng, form):
        rule = build_rule(ExpertPanel(psi=[0.9, 0.6, 0.7], eta=[0.8, 0.7, 0.6]))
        base = rng.integers(0, 2, (9, rule.n)).tolist()
        outcomes = set()
        for row in ([1, 0, 1], [0, 2, 1], [48, 49, 48]):  # 48 is b"0"[0]
            for at in (0, 4, 8):
                rows = [list(r) for r in base]
                rows[at] = row
                kind, message = self.check(
                    rule, lambda: [form(r) if i == at else list(r) for i, r in enumerate(rows)])
                outcomes.add(kind)
                if kind == "error":
                    assert message.startswith(f"input {at}: ")
        assert outcomes == {"decisions", "error"}

    def test_wrong_width_ndarray_batch(self):
        rule = build_rule(ExpertPanel(psi=[0.9, 0.6], eta=[0.8, 0.7]))
        for dtype in (bool, np.int64, np.uint8, np.float64, np.float32, np.float16, np.int8):
            for shape in ((3, 3), (3, 1), (0, 3)):
                self.check(rule, lambda: np.ones(shape, dtype=dtype))


class TestBatchCheckCount:
    """A 2-D numeric batch is certified in one pass: only its first
    offending row goes through `_check_bits`."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        check_bits = DecisionRule._check_bits

        def counted(self, x):
            count[0] += 1
            return check_bits(self, x)

        monkeypatch.setattr(DecisionRule, "_check_bits", counted)
        return count

    @pytest.fixture
    def rule(self, rng):
        return build_rule(oracles.random_panel(rng, 64))

    @pytest.fixture
    def x(self, rng):
        return rng.integers(0, 2, (4096, 64))

    def test_legal_batches_make_no_row_calls(self, calls, rule, x):
        expected = rule.decide_batch(x)
        for form in (x.tolist(), x.astype(np.float64), x.astype(np.float64).tolist()):
            assert rule.decide_batch(form) == expected
        assert calls[0] == 0

    @pytest.mark.parametrize("bad", [2, -1, 256, 0.7, math.nan])
    def test_bad_value_makes_one_row_call(self, calls, rule, x, bad):
        xs = x.tolist()
        xs[4000][5] = bad
        batch = x.astype(type(bad))
        batch[4000, 5] = bad
        for form in (batch, xs):
            calls[0] = 0
            with pytest.raises(ValidationError, match="^input 4000: "):
                rule.decide_batch(form)
            assert calls[0] <= 1

    def test_short_row_makes_one_row_call(self, calls, rule, x):
        xs = x.tolist()
        xs[4000].pop()
        with pytest.raises(ValidationError, match="^input 4000: vote vector has length 63"):
            rule.decide_batch(xs)
        assert calls[0] <= 1

    @pytest.mark.parametrize("bad", [-1, 256, 0.7, math.nan, "2", None])
    def test_bad_list_row_skips_the_numpy_reading(self, monkeypatch, calls, rule, x, bad):
        # the rows before the one `bytearray` stopped at are certified as read
        count = [0]
        numeric = votebounds.rule._numeric

        def counted(xs, n):
            count[0] += 1
            return numeric(xs, n)

        monkeypatch.setattr(votebounds.rule, "_numeric", counted)
        xs = x.tolist()
        xs[4000][5] = bad
        with pytest.raises(ValidationError, match="^input 4000: "):
            rule.decide_batch(xs)
        assert count[0] == 0
        assert calls[0] <= 1


class TestSymmetricReduction:
    def test_decisions_match_centered_weighted_vote(self, rng):
        # with psi == eta and even prior the rule is a weighted majority:
        # decide 1 iff sum_i log(p_i/(1-p_i)) * (2 x_i - 1) >= 0
        for _ in range(10):
            n = int(rng.integers(1, 9))
            panel = oracles.random_panel(rng, n, symmetric=True)
            rule = build_rule(panel)
            w = np.log(np.asarray(panel.psi) / (1.0 - np.asarray(panel.psi)))
            for bits in oracles.outcomes(n):
                centered = float(np.dot(w, 2.0 * np.asarray(bits) - 1.0))
                assert rule.decide(bits) == (1 if centered >= 0.0 else 0)


class TestErrorStructure:
    def test_per_outcome_error_sets(self, rng):
        # conditional on label 1 the rule errs exactly where the label-1
        # outcome mass falls strictly below the label-0 outcome mass
        checked = 0
        while checked < 10:
            n = int(rng.integers(1, 9))
            panel = oracles.random_panel(rng, n)
            if oracles.min_score_margin(panel, build_rule) < 1e-9:
                continue
            rule = build_rule(panel)
            mu = oracles.brute_masses([float(v) for v in panel.psi])
            nu = oracles.brute_masses([1.0 - float(v) for v in panel.eta])
            for bits, m, v in zip(oracles.outcomes(n), mu, nu):
                assert (rule.decide(bits) == 0) == (m < v)
            checked += 1

    def test_direct_summation_matches_min_mass(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 13))
            panel = oracles.random_panel(rng, n)
            rule = build_rule(panel)
            direct = oracles.rule_risk(panel, rule.decide)
            half_min = 0.5 * min_mass(panel.law_given_one(), panel.law_given_zero())
            assert_allclose(direct, half_min, atol=1e-12)


class TestOptimality:
    def test_no_rule_beats_built_rule(self, rng):
        # exhaustive search over all deterministic rules, tiny panels only
        checked = 0
        while checked < 30:
            n = int(rng.integers(1, 4))
            p_y = float(rng.choice([0.5, 0.5, 0.3, 0.7]))
            panel = oracles.random_panel(rng, n, low=0.05, high=0.95, p_y=p_y)
            if oracles.min_score_margin(panel, build_rule) < 1e-6:
                continue
            rule = build_rule(panel)
            built = oracles.rule_risk(panel, rule.decide)
            best = oracles.best_rule_risk(panel)
            assert built <= best + 1e-12
            checked += 1

    def test_clamped_boundary_rule_is_optimal(self, rng):
        # psi and eta at exactly 0 or 1 go through the clamp; ties or not,
        # no rule may beat the clamped one
        for _ in range(300):
            n = int(rng.integers(1, 4))
            p_y = float(rng.choice([0.5, 0.5, 0.2, 0.7]))
            panel = oracles.random_panel(rng, n, low=0.05, high=0.95, p_y=p_y)
            psi, eta = panel.psi.copy(), panel.eta.copy()
            for rates in (psi, eta):
                hit = rng.random(n) < 0.5
                rates[hit] = rng.integers(0, 2, n)[hit]
            panel = ExpertPanel(psi=psi, eta=eta, p_y=p_y)
            built = oracles.rule_risk(panel, build_rule(panel).decide)
            assert built <= oracles.best_rule_risk(panel) + 1e-12

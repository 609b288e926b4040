import collections
import math
import tracemalloc
import warnings

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

    def test_boundary_rates_produce_veto_weights(self):
        # a vote impossible under one label weighs +-inf, one impossible
        # under both weighs 0, and equal likelihoods weigh exactly 0
        rule = build_rule(ExpertPanel(psi=[1.0, 0.0, 1.0, 0.0, 0.25],
                                      eta=[0.9, 0.1, 0.0, 1.0, 0.75]))
        w10 = math.log(1.0 / 0.1)
        assert rule.vote_one_weights.tolist() == [w10, -math.inf, 0.0, 0.0, 0.0]
        assert rule.vote_zero_weights.tolist() == [-math.inf, w10, 0.0, 0.0, 0.0]

    def test_interior_weights_are_the_plain_log_ratios(self, rng):
        # nothing clamps rates within 1e-12 of 0 or 1 any more
        psi = np.r_[rng.uniform(0.01, 0.99, 50), 1e-13, 1.0 - 2.0**-53, 0.5]
        eta = np.r_[rng.uniform(0.01, 0.99, 50), 0.5, 1e-300, 1.0 - 1e-13]
        rule = build_rule(ExpertPanel(psi=psi, eta=eta))
        assert np.array_equal(rule.vote_one_weights, np.log(psi / (1.0 - eta)))
        assert np.array_equal(rule.vote_zero_weights, np.log((1.0 - psi) / eta))

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

    def test_infinite_weights_accepted(self):
        rule = DecisionRule(0.0, [math.inf, 1.0], [-math.inf, -1.0])
        assert rule.decide([1, 0]) == 1
        assert rule.decide([0, 1]) == 0

    @pytest.mark.parametrize("field", ["vote_one_weights", "vote_zero_weights"])
    def test_nan_weight_rejected(self, field):
        weights = {"vote_one_weights": [1.0, 1.0], "vote_zero_weights": [-1.0, -1.0]}
        weights[field] = [1.0, math.nan]
        with pytest.raises(ValidationError, match=rf"{field}\[1\] = nan"):
            DecisionRule(0.0, **weights)


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
        for n in (1, 8, 9, 21, 64):
            w1, w0 = rng.normal(size=n), rng.normal(size=n)
            # a byte holding a +inf and a -inf vote reads NaN
            w1[::5], w0[3::7] = np.inf, -np.inf
            tables = votebounds.rule._byte_tables(w1, w0)
            nb = -(-n // 8)
            assert tables.shape == (nb, 256)
            ones, zeros = w1.tolist(), w0.tolist()  # Python floats: inf - inf is quietly NaN
            expected = np.empty((nb, 256))
            for j in range(nb):
                for v in range(256):
                    total = 0.0
                    for i in range(8 * j, min(8 * j + 8, n)):
                        total += ones[i] if v >> (i - 8 * j) & 1 else zeros[i]
                    expected[j, v] = total
            assert np.array_equal(tables.view(np.uint64), expected.view(np.uint64))
            assert np.isnan(tables).any() == (n > 3)
            packed = rng.integers(0, 256, (nb, 50), dtype=np.uint8)
            expected = np.full(50, 0.7)
            with np.errstate(invalid="ignore"):
                for table, col in zip(tables, packed):
                    expected = expected + table[col]
            assert np.array_equal(votebounds.rule._scores(packed, 50, 0.7, tables), expected,
                                  equal_nan=True)

    def test_packing_matches_packbits(self, rng):
        # each column shares one scratch, so it is copied as it is drawn
        layouts = {"C-ordered": np.ascontiguousarray, **CALLER_LAYOUTS}
        for n in [*range(1, 66), 1001]:
            for m in (0, 1, 37, 4096):
                bits = rng.integers(0, 2, (m, n))
                bits[:1] = 1
                ref = np.packbits(bits, axis=1, bitorder="little").T
                for dtype in (bool, np.int8, np.uint8):
                    for layout in layouts.values():
                        x = layout(bits.astype(dtype))
                        got = [col.copy() for col in votebounds.rule._byte_columns(x)]
                        assert {col.dtype for col in got} == {np.dtype(np.int64)}
                        assert np.array_equal(np.array(got), ref)

    @pytest.mark.parametrize("n", [59, 64, 1001])
    def test_batch_is_scored_in_a_few_arrays_of_m_words(self, rng, n):
        # a 1-byte batch is read in place, so the working memory does not
        # grow with n: below 48 bytes a row
        rule = build_rule(oracles.random_panel(rng, n))
        x = rng.integers(0, 2, (4096, n), dtype=np.uint8)
        tracemalloc.start()
        try:
            rule.decide_batch(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * len(x)


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


def _read_only(x):
    x.setflags(write=False)
    return x


def _column_sliced(x):
    """x as every other column of a wider array whose other columns hold
    2, a vote no row may hold (True for bools)."""
    wide = np.full((len(x), 2 * x.shape[1]), 2).astype(x.dtype)
    wide[:, ::2] = x
    return wide[:, ::2]


# arrays the caller owns, in layouts a 1-byte batch is read through
# without a copy
CALLER_LAYOUTS = {
    "read-only": lambda x: _read_only(x.copy()),
    "fortran": np.asfortranarray,
    "column-sliced": _column_sliced,
    "negative-stride": lambda x: np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1],
}


class TestCallerArrays:
    @pytest.fixture
    def rule(self, rng):
        return build_rule(oracles.random_panel(rng, 21))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, bool])
    @pytest.mark.parametrize("layout", list(CALLER_LAYOUTS))
    def test_decided_as_row_by_row_and_left_unchanged(self, rng, rule, dtype, layout):
        x = CALLER_LAYOUTS[layout](rng.integers(0, 2, (300, rule.n)).astype(dtype))
        owner = x if x.base is None else x.base  # the slice's wider array
        before, writeable = owner.tobytes(order="A"), x.flags.writeable
        expected = [rule.decide(bits) for bits in oracles.per_row_bit_rows(rule, x)]
        got = rule.decide_batch(x)
        assert got == expected and {type(d) for d in got} == {int}
        assert x.dtype == dtype and x.flags.writeable == writeable
        assert owner.tobytes(order="A") == before

    def test_bools_stored_as_other_bytes_read_as_true(self, rng, rule):
        raw = rng.integers(0, 256, (300, rule.n), dtype=np.uint8)
        x = _read_only(raw.view(bool))
        expected = [rule.decide(bits) for bits in oracles.per_row_bit_rows(rule, x)]
        before = raw.tobytes()
        assert rule.decide_batch(x) == expected == rule.decide_batch(raw != 0)
        assert raw.tobytes() == before


class TestBatchCheckCount:
    """A 2-D numeric batch, and the leading run of a list batch's rows
    that `bytearray` reads, are certified in one pass: only the first
    offending row, and the rows of other forms, go through `_check_bits`."""

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
        for form in (x.tolist(), [tuple(r) for r in x.tolist()], x.astype(np.float64),
                     x.astype(np.uint8), x.astype(np.int8), x.astype(bool), x.astype(np.uint16)):
            assert rule.decide_batch(form) == expected
        assert calls[0] == 0

    @pytest.mark.parametrize("form, row_calls", [
        (lambda x: x.astype(np.float64).tolist(), 4096),
        (lambda x: x[:2048].tolist() + x[2048:].astype(np.float64).tolist(), 2048),
        (list, 4096),  # a list of 1-D arrays
        (lambda x: collections.deque(x.tolist()), 4096),
    ], ids=["float lists", "int then float lists", "1-D arrays", "deque"])
    def test_other_rows_make_one_row_call_each(self, calls, rule, x, form, row_calls):
        # a list is checked one by one from the first row `bytearray` cannot
        # read, and a batch of any other form from its first row
        expected = rule.decide_batch(x)
        assert rule.decide_batch(form(x)) == expected
        assert calls[0] == row_calls

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

    def test_boundary_rule_is_optimal(self, rng):
        # psi and eta at exactly 0 or 1 give +-inf and 0 weights; ties or
        # not, no rule may beat the built one
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


def veto_repro_panel():
    # expert 1 always votes 1 under label 1, so a 0 vote from it proves
    # label 0, however strongly the other two vote 1
    return ExpertPanel(psi=[1.0, 0.999999, 0.999999], eta=[0.5, 0.999999, 0.999999])


def one_deterministic_panel(rng, n):
    """n - 1 strong experts (rates within 1e-6 of 1) and, at a random
    place, one whose psi, eta or both lie at 0 or 1."""
    psi = 1.0 - rng.uniform(0.0, 1e-6, n)
    eta = 1.0 - rng.uniform(0.0, 1e-6, n)
    k = int(rng.integers(n))
    psi[k], eta[k] = rng.uniform(0.05, 0.95, 2)
    rates = (psi, eta)
    for i in rng.permutation(2)[:int(rng.integers(1, 3))]:
        rates[i][k] = rng.integers(0, 2)
    return ExpertPanel(psi=psi, eta=eta, p_y=float(rng.choice([0.5, 0.01, 0.99])))


class TestVeto:
    def test_repro_decides_zero(self):
        rule = build_rule(veto_repro_panel())
        assert rule.score([0, 1, 1]) == -math.inf
        assert rule.decide([0, 1, 1]) == 0
        assert rule.decide("011") == 0
        for xs in ([[0, 1, 1], [1, 1, 1]], np.array([[0, 1, 1], [1, 1, 1]], dtype=bool)):
            assert rule.decide_batch(xs) == [0, 1]

    def test_impossible_vote_decides_the_other_label(self, rng):
        # every vector with P(x | y) = 0 < P(x | 1 - y) decides 1 - y, on
        # panels whose strong experts would outvote a finite weight of
        # about 27; a vector impossible under both labels may go either way
        for _ in range(12):
            n = int(rng.integers(11, 17))
            panel = one_deterministic_panel(rng, n)
            given_one = oracles.brute_masses(panel.psi)
            given_zero = oracles.brute_masses(1.0 - panel.eta)
            decided = np.array(build_rule(panel).decide_batch(np.array(oracles.outcomes(n))))
            assert np.all(decided[(given_one == 0.0) & (given_zero > 0.0)] == 0)
            assert np.all(decided[(given_zero == 0.0) & (given_one > 0.0)] == 1)
            assert np.any((given_one == 0.0) | (given_zero == 0.0))

    @pytest.mark.parametrize("n", [2, 10])
    def test_opposite_vetoes_score_nan_without_warning(self, n):
        # expert 0 never votes 0 under label 1 and expert n - 1 never
        # votes 1 under label 0: in one byte at n = 2, in two at n = 10
        psi, eta = [1.0] + [0.7] * (n - 1), [0.7] * (n - 1) + [1.0]
        x = [0] * (n - 1) + [1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = build_rule(ExpertPanel(psi=psi, eta=eta))
            assert math.isnan(rule.score(x))
            assert rule.decide(x) == 0
            assert rule.decide_batch([x, [1] * n]) == [0, 1]
            assert rule.decide_batch(np.array([x, [1] * n], dtype=bool)) == [0, 1]

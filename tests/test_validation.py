"""Every malformed argument to a public function raises ValidationError.

Each row is a call that once escaped as a raw TypeError, ValueError or
OverflowError, was accepted, or echoed its whole argument: a float or
bool worker count, a bool panel path that open() takes for a file
descriptor, a number written as a string, a bool read as the number 1.0
or 0.0, an integer too large for a float, or a list of 5000 entries.
Each row of MALFORMED_PANEL_FILES is a panel file that once escaped as a
RecursionError, was read with its last repeated key winning, was read
with a bool as a number, or was echoed in full. Every message is at most
ECHO_MAX characters, not counting the panel file's path.
"""

import math

import numpy as np
import pytest

from votebounds import (
    DecisionRule,
    ExpertPanel,
    ProductBernoulli,
    ValidationError,
    build_rule,
    counterexample_sweep,
    estimate_min_mass,
    fold_bias,
    load_panel,
    min_mass,
    simulate_error,
    upper_bound,
    validate_panel,
)
from votebounds.core import _inside, _shown

PANEL = ExpertPanel(psi=[0.9, 0.6], eta=[0.8, 0.7])
P = ProductBernoulli([0.9, 0.6])
Q = ProductBernoulli([0.2, 0.3])
RULE = build_rule(PANEL)
ECHO_MAX = 200

MALFORMED = {
    "sweep-string-eps": lambda: counterexample_sweep("asym", ["x"]),
    "sweep-scalar-eps": lambda: counterexample_sweep("asym", 0.1),
    "rule-string-offset": lambda: DecisionRule(
        offset="x", vote_one_weights=[1.0], vote_zero_weights=[-1.0]),
    "rule-string-weights": lambda: DecisionRule(
        offset=0.0, vote_one_weights=["x"], vote_zero_weights=[-1.0]),
    "load_panel-None": lambda: load_panel(None),
    "load_panel-bool": lambda: load_panel(True),
    "load_panel-nul-byte": lambda: load_panel("panel\0.json"),
    "fold_bias-not-a-panel": lambda: fold_bias("x"),
    "upper_bound-not-a-panel": lambda: upper_bound({"psi": [0.9], "eta": [0.8]}),
    "build_rule-not-a-panel": lambda: build_rule([0.9, 0.8]),
    "simulate-not-a-panel": lambda: simulate_error(None, 10, 0),
    "min_mass-n_max-None": lambda: min_mass(P, Q, n_max=None),
    "min_mass-n_max-string": lambda: min_mass(P, Q, n_max="x"),
    "min_mass-n_max-bool": lambda: min_mass(P, Q, n_max=True),
    "simulate-workers-float": lambda: simulate_error(PANEL, 10, 0, workers=1.5),
    "simulate-workers-string": lambda: simulate_error(PANEL, 10, 0, workers="2"),
    "simulate-workers-bool": lambda: simulate_error(PANEL, 10, 0, workers=True),
    "estimate_min_mass-workers-float": lambda: estimate_min_mass(P, Q, 10, 0, workers=1.5),
    "decide_batch-int": lambda: RULE.decide_batch(5),
    "decide_batch-0d-array": lambda: RULE.decide_batch(np.array(1)),
    "panel-string-psi": lambda: validate_panel({"psi": ["0.9"], "eta": [0.8]}),
    "panel-string-among-numbers": lambda: validate_panel({"psi": [0.9, "0.6"], "eta": [0.8, 0.7]}),
    "panel-string-in-object-array": lambda: validate_panel(
        {"psi": np.array([0.9, "0.6"], dtype=object), "eta": [0.8, 0.7]}),
    "panel-string-p_y": lambda: validate_panel({"psi": [0.9], "eta": [0.8], "p_y": "0.3"}),
    "ProductBernoulli-string-array": lambda: ProductBernoulli(np.array(["0.5"])),
    "ProductBernoulli-bytes": lambda: ProductBernoulli([b"0.5"]),
    # bools, which numpy reads as 1.0 and 0.0
    "panel-bool-among-numbers": lambda: validate_panel({"psi": [True, 0.6], "eta": [0.8, 0.7]}),
    "ProductBernoulli-bool-in-tuple": lambda: ProductBernoulli((0.5, True)),
    "ProductBernoulli-bool-array": lambda: ProductBernoulli(np.array([True, False])),
    "panel-bool-p_y": lambda: ExpertPanel(psi=[0.9], eta=[0.8], p_y=True),
    "rule-bool-offset": lambda: DecisionRule(
        offset=True, vote_one_weights=[1.0], vote_zero_weights=[-1.0]),
    "panel-0d-bool-array-among-numbers": lambda: ExpertPanel(
        psi=[np.array(True), 0.6], eta=[0.8, 0.7]),
    "rule-0d-bool-array-offset": lambda: DecisionRule(
        offset=np.array(True), vote_one_weights=[1.0], vote_zero_weights=[-1.0]),
    # integers too large for a float
    "panel-huge-int-psi": lambda: validate_panel({"psi": [0.9, 10**400], "eta": [0.8, 0.7]}),
    "panel-huge-int-eta": lambda: ExpertPanel(psi=[0.9], eta=[10**400]),
    "ProductBernoulli-huge-int": lambda: ProductBernoulli([10**400]),
    "rule-huge-int-weights": lambda: DecisionRule(
        offset=0.0, vote_one_weights=[10**400], vote_zero_weights=[-1.0]),
    # an integer past the 4300 digits that str() prints
    "panel-p_y-int-past-str-limit": lambda: ExpertPanel(psi=[0.9], eta=[0.8], p_y=10**5000),
    # values echoed in the message, abbreviated
    "simulate-list-trials": lambda: simulate_error(PANEL, [1] * 5000, 1),
    "decide-nested-vote-vector": lambda: RULE.decide([[1] * 5000]),
}


@pytest.mark.parametrize("call", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_call_raises_validation_error(call):
    with pytest.raises(ValidationError) as exc:
        call()
    assert len(str(exc.value)) <= ECHO_MAX


@pytest.mark.parametrize("key, field", [("simulate-list-trials", "trials"),
                                        ("decide-nested-vote-vector", "vote vector")])
def test_abbreviated_message_names_the_field(key, field):
    with pytest.raises(ValidationError, match=f"^{field} "):
        MALFORMED[key]()


BOOL_MESSAGES = {
    "panel-bool-among-numbers": "^psi is not a numeric sequence: bools are refused",
    "ProductBernoulli-bool-in-tuple": "^p is not a numeric sequence: bools are refused",
    "ProductBernoulli-bool-array": "^p is not a numeric sequence: bools are refused",
    "panel-bool-p_y": "^p_y must be a real number, got True$",
    "rule-bool-offset": "^offset must be a real number, got True$",
    "panel-0d-bool-array-among-numbers": "^psi is not a numeric sequence: bools are refused",
    "rule-0d-bool-array-offset": r"^offset must be a real number, got array\(True\)$",
}


@pytest.mark.parametrize("key", BOOL_MESSAGES)
def test_bool_is_not_read_as_a_number(key):
    with pytest.raises(ValidationError, match=BOOL_MESSAGES[key]):
        MALFORMED[key]()


MALFORMED_PANEL_FILES = {
    "nested-arrays": ("[" * 100000, "nests too deeply"),
    "nested-objects": ('{"psi": ' * 100000, "nests too deeply"),
    "repeated-key": ('{"psi": [0.9], "eta": [0.8], "psi": [0.7]}', "repeats the key 'psi'"),
    "repeated-inner-key": ('{"psi": [0.9], "eta": [0.8], "p_y": {"a": 1, "a": 2}}',
                           "repeats the key 'a'"),
    "nested-p_y": ('{"psi": [0.9], "eta": [0.8], "p_y": ' + "[" * 900 + "0.5" + "]" * 900 + "}",
                   r"^p_y must be a real number, got \[\[\["),
    "long-p_y": ('{"psi": [0.9], "eta": [0.8], "p_y": [' + ", ".join(["0.5"] * 5000) + "]}",
                 r"^p_y must be a real number, got \[0.5, "),
    "bool-among-numbers": ('{"psi": [true, 0.6], "eta": [0.8, 0.7]}',
                           "^psi is not a numeric sequence: bools are refused"),
    "long-unknown-key": ('{"psi": [0.9], "eta": [0.8], "' + "x" * 5000 + '": 1}',
                         "^unknown panel keys: xxx"),
}


@pytest.mark.parametrize("text, message", MALFORMED_PANEL_FILES.values(),
                         ids=MALFORMED_PANEL_FILES.keys())
def test_malformed_panel_file_raises_validation_error(tmp_path, text, message):
    path = tmp_path / "panel.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=message) as exc:
        load_panel(path)
    assert len(str(exc.value).replace(str(path), "")) <= ECHO_MAX


POINTS = [0.0, 0.5, 1.0, -0.1, math.nan, math.inf]


@pytest.mark.parametrize("interval, inside", [
    ("[0, 1]", [True, True, True, False, False, False]),
    ("(0, 1)", [False, True, False, False, False, False]),
    ("(0, 1]", [False, True, True, False, False, False]),
    ("(-inf, inf)", [True, True, True, True, False, False]),
    ("[1, inf]", [False, False, True, False, False, True]),
])
def test_interval_ends(interval, inside):
    assert _inside(np.array(POINTS), interval).tolist() == inside
    assert [_inside(x, interval) for x in POINTS] == inside


SHORT_VALUES = ["0.3", b"0.5", 0.1, -3, np.float64(0.7), np.int64(-2), None, [0, 2],
                [[1, 0]], (1,), {"a": 1}, "x" * 78, 10**79]


@pytest.mark.parametrize("value", SHORT_VALUES, ids=map(repr, SHORT_VALUES))
def test_short_values_print_in_full(value):
    assert _shown(value) == repr(value)
    assert _shown(value, str) == str(value)


@pytest.mark.parametrize("value", ["x" * 81, 10**80, [0.5] * 5000, list(range(7))])
def test_long_values_are_abbreviated(value):
    assert len(_shown(value)) <= 80
    assert "..." in _shown(value)

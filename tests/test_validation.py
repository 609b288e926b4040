"""Every malformed argument to a public function raises ValidationError.

Each row is a call that once escaped as a raw TypeError, ValueError or
OverflowError, or was accepted: a float or bool worker count, a bool
panel path that open() takes for a file descriptor, a number written as
a string, or an integer too large for a float.
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
    committee_potential,
    counterexample_sweep,
    estimate_min_mass,
    fold_bias,
    load_panel,
    min_mass,
    simulate_error,
    upper_bound,
    validate_panel,
)
from votebounds.core import _inside

PANEL = ExpertPanel(psi=[0.9, 0.6], eta=[0.8, 0.7])
P = ProductBernoulli([0.9, 0.6])
Q = ProductBernoulli([0.2, 0.3])
RULE = build_rule(PANEL)

MALFORMED = {
    "committee_potential-string": lambda: committee_potential("abc"),
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
    # integers too large for a float
    "panel-huge-int-psi": lambda: validate_panel({"psi": [0.9, 10**400], "eta": [0.8, 0.7]}),
    "panel-huge-int-eta": lambda: ExpertPanel(psi=[0.9], eta=[10**400]),
    "ProductBernoulli-huge-int": lambda: ProductBernoulli([10**400]),
    "rule-huge-int-weights": lambda: DecisionRule(
        offset=0.0, vote_one_weights=[10**400], vote_zero_weights=[-1.0]),
}


@pytest.mark.parametrize("call", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_call_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


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

"""The package's public names, pinned.

Adding or removing a public name is an API change; it should show up as
a deliberate edit of PUBLIC below.
"""

import votebounds

PUBLIC = [
    "AffinityResult",
    "BLOCK_SIZE",
    "BoundsReport",
    "DEFAULT_N_MAX",
    "DecisionRule",
    "EnumerationLimitError",
    "ExpertPanel",
    "ProductBernoulli",
    "SimulationResult",
    "SweepRow",
    "ValidationError",
    "affinity",
    "bhattacharyya",
    "build_rule",
    "counterexample_sweep",
    "estimate_min_mass",
    "fold_bias",
    "full_report",
    "load_panel",
    "lower_bound",
    "min_mass",
    "optimal_error",
    "simulate_error",
    "symmetric_lower_bound",
    "upper_bound",
    "validate_panel",
]


def test_public_names_are_pinned():
    assert votebounds.__all__ == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in PUBLIC if not hasattr(votebounds, name)]
    assert missing == []

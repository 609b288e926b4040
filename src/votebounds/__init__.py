"""Optimal aggregation of conditionally independent binary experts.

Given per-expert sensitivities and specificities and a prior on the
hidden label, this package builds the best possible aggregation rule,
computes its exact error probability by enumeration, brackets the error
with sharp closed-form bounds, and estimates it by Monte Carlo when the
panel is too large to enumerate.

Each module declares its public names in its own __all__; the package
re-exports all of them.
"""

from . import bounds, core, exact, montecarlo, rule
from .bounds import *  # noqa: F403
from .core import *  # noqa: F403
from .exact import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .rule import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({name for module in (bounds, core, exact, montecarlo, rule)
                  for name in module.__all__})

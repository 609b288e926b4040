"""Optimal aggregation of conditionally independent binary experts.

Given per-expert sensitivities and specificities and a prior on the
hidden label, this package builds the best possible aggregation rule,
computes its exact error probability by enumeration, brackets the error
with sharp closed-form bounds, and estimates it by Monte Carlo when the
panel is too large to enumerate.

Each module declares its public names in its own __all__; the package
re-exports all of them.
"""

import os
import sys


def _started_as_cli() -> bool:
    """True while the package is imported by `python -m votebounds` or by the
    `votebounds` console script, and by nothing else."""
    if sys.argv[:1] == ["-m"]:
        # runpy imports the package to find votebounds.__main__; the token
        # naming the module sits just before the arguments the module gets
        k = len(sys.orig_argv) - len(sys.argv)
        return k >= 1 and sys.orig_argv[k] in ("votebounds", "-mvotebounds")
    return bool(sys.argv) and os.path.splitext(os.path.basename(sys.argv[0]))[0] == "votebounds"


# OpenBLAS starts a thread pool when numpy loads, and no votebounds code calls
# BLAS; a CLI process asks for one thread unless the user has chosen a number.
# A library import leaves os.environ alone.
if _started_as_cli():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import bounds, core, exact, montecarlo, rule
from .bounds import *  # noqa: F403
from .core import *  # noqa: F403
from .exact import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .rule import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({name for module in (bounds, core, exact, montecarlo, rule)
                  for name in module.__all__})

"""Worker-count resolution and order-preserving parallel map.

Results are always combined in task-index order, so a computation gives
the same answer no matter how many workers ran it.
"""

from __future__ import annotations

import os

from .core import ValidationError, _integer

ENV_THREADS = "VOTEBOUNDS_THREADS"


def resolve_workers(workers: int | None) -> int:
    """Pick a worker count: explicit argument, else env cap, else 1.

    An explicit count must be an int or numpy integer of at least 1; bools
    and floats raise ValidationError, as does a bad environment value.
    """
    if workers is not None:
        return _integer(workers, "workers")
    raw = os.environ.get(ENV_THREADS)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_THREADS}={raw!r} is not an integer") from None
    return _integer(value, ENV_THREADS)


def map_ordered(fn, items, workers: int) -> list:
    """Apply fn to each item, returning results in input order."""
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here, so that importing the package loads neither
    # concurrent.futures nor the logging module it pulls in
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))

"""Deterministic trial fan-out, and the error a failed runtime invariant raises."""

import os
from concurrent.futures import ThreadPoolExecutor

ENV_THREADS = "GHRLAB_THREADS"


class InvariantError(ArithmeticError):
    """An exact identity that holds by construction failed at run time."""


def thread_limit() -> int:
    """Parallelism cap from the environment; defaults to 1 (sequential)."""
    raw = os.environ.get(ENV_THREADS)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


def map_trials(fn, count: int) -> list:
    """Apply fn to 0..count-1 on up to thread_limit() workers and return
    results in index order.

    Results do not depend on the worker count because each trial must derive
    all of its randomness from its own index.
    """
    limit = thread_limit()
    if limit == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=limit) as pool:
        return list(pool.map(fn, range(count)))

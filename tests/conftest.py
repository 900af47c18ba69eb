"""Fixtures shared across test modules."""

import contextlib
from fractions import Fraction

import pytest

from ghrlab import coupling


def _clear_class_caches():
    coupling._class_rows.cache_clear()
    coupling._class_distances.cache_clear()


@contextlib.contextmanager
def _stage_two_disabled():
    # the weight-class caches are cleared on entry and on exit, so no row
    # built by the broken DP is served outside the block
    _clear_class_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coupling, "_stage_two_z_probability", lambda m, k, equal: Fraction(0))
            yield
    finally:
        _clear_class_caches()


@pytest.fixture
def broken_dp():
    """A context manager under which the coupling DP and sampler never flip
    a stage-2 pair, a broken sampler that the exact check must reject."""
    return _stage_two_disabled

"""Fixtures shared across test modules."""

import contextlib
import functools
from fractions import Fraction

import numpy as np
import pytest

from ghrlab import bitkit, bounds, coupling, relation


def _clear_class_caches():
    coupling._class_rows.cache_clear()
    coupling._class_distances.cache_clear()


@contextlib.contextmanager
def _coupling_patched(name, value):
    # the weight-class caches are cleared on entry and on exit, so no row
    # built by the patched DP is served outside the block
    _clear_class_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coupling, name, value)
            yield
    finally:
        _clear_class_caches()


@pytest.fixture
def coupling_patched():
    """A context manager, coupling_patched(name, value), under which the
    coupling module's name is value, with no weight-class row cached from
    outside the block or kept after it."""
    return _coupling_patched


@pytest.fixture
def broken_dp():
    """A context manager under which the coupling DP and sampler never flip
    a stage-2 pair, a broken sampler that the exact check must reject."""
    return functools.partial(_coupling_patched, "_stage_two_z_probability", lambda m, k, equal: Fraction(0))


def _clear_bound_grids():
    bounds._tail_grid.cache_clear()
    bounds._window_columns.cache_clear()


@pytest.fixture
def clear_bound_grids():
    """A function, clear_bound_grids(), that empties the dominance grids'
    memos, so that the next report builds its grid cold.  They are emptied
    on entry and after the test as well."""
    _clear_bound_grids()
    yield _clear_bound_grids
    _clear_bound_grids()


@pytest.fixture
def relation_transforms(monkeypatch):
    """A function, relation_transforms(hook), under which every transform
    runner that ghrlab.relation builds (bitkit.fwht_steps) returns
    hook(product, run) when it runs: product is the array it transforms and
    run the real runner, whose result hook returns, changed or not.  It
    returns the (product, run) of every runner built from then on, in
    order; a second call replaces the first call's hook."""

    def install(hook=lambda product, run: run()):
        built = []

        def steps(product, buffers, **flags):
            run = bitkit.fwht_steps(product, buffers, **flags)
            built.append((product, run))
            return lambda: hook(product, run)

        monkeypatch.setattr(relation, "fwht_steps", steps)
        return built

    return install


def _rotated_rows(out: np.ndarray) -> np.ndarray:
    k = out.shape[0].bit_length() - 1
    return out.reshape(1 << k // 2, 1 << k - k // 2, -1).transpose(1, 0, 2).reshape(out.shape)


@pytest.fixture
def rotated_rows():
    """A function, rotated_rows(out), that gives the rows of a natural-order
    transform out (bitkit.fwht) in the order that bitkit.fwht_steps leaves
    them without its closing rotation: row lo * 2**h + hi holds row
    hi * 2**(k - h) + lo, for a length 2**k and h = k // 2."""
    return _rotated_rows

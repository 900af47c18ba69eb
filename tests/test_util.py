"""Thread-cap parsing and the ordered trial mapper."""

import pytest

from ghrlab.util import map_trials, thread_limit


def test_thread_limit_env(monkeypatch):
    monkeypatch.delenv("GHRLAB_THREADS", raising=False)
    assert thread_limit() == 1
    monkeypatch.setenv("GHRLAB_THREADS", "4")
    assert thread_limit() == 4
    monkeypatch.setenv("GHRLAB_THREADS", "0")
    assert thread_limit() == 1
    monkeypatch.setenv("GHRLAB_THREADS", "bananas")
    assert thread_limit() == 1


def test_map_trials_preserves_order(monkeypatch):
    assert map_trials(lambda i: i * i, 6) == [0, 1, 4, 9, 16, 25]
    monkeypatch.setenv("GHRLAB_THREADS", "3")
    assert map_trials(lambda i: i * i, 6) == [0, 1, 4, 9, 16, 25]
    assert map_trials(lambda i: i, 0) == []


def test_map_trials_uses_env(monkeypatch):
    monkeypatch.setenv("GHRLAB_THREADS", "2")
    assert map_trials(lambda i: -i, 5) == [0, -1, -2, -3, -4]

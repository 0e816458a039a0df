"""Pytest configuration: make the shared helpers importable from any test."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def _spy_on_loop_timers(loop):
    """Route ``loop``'s timer calls through a log of the handles they return."""
    handles = []
    real_call_at = loop.call_at

    def call_at(when, callback, *args, **kwargs):
        handle = real_call_at(when, callback, *args, **kwargs)
        handles.append(handle)
        return handle

    def call_later(delay, callback, *args, **kwargs):
        return call_at(loop.time() + delay, callback, *args, **kwargs)

    loop.call_at = call_at
    loop.call_later = call_later
    return handles


@pytest.fixture
def spy_on_loop_timers():
    """``spy_on_loop_timers(loop)`` -> the list of every timer ``loop``
    creates from then on (call it inside the running loop)."""
    return _spy_on_loop_timers

"""Shared fixtures."""

import inspect
import os

import pytest


@pytest.fixture
def usable_cpus(monkeypatch):
    """Sets how many CPUs ``os.sched_getaffinity`` reports as usable: ``usable_cpus(n)``."""
    def set_count(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_count


@pytest.fixture
def solves_per_level(monkeypatch) -> list:
    """Counts the implicit sweep's linear solves through the private tridiagonal solver.

    Each call appends how many solves its time level has taken so far: the
    sweep's own ``solves`` counter, read from the calling frame, plus one.
    """
    from gctrl import hjb

    seen = []
    original = hjb._solve_tridiagonal

    def counted(*args):
        seen.append(inspect.currentframe().f_back.f_locals["solves"] + 1)
        return original(*args)

    monkeypatch.setattr(hjb, "_solve_tridiagonal", counted)
    return seen

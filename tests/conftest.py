"""Shared fixtures.

The expensive resource in this suite is exhaustive counting, so a
session-scoped memo shares every brute-force count across test files:
a count computed once for one POP and one length is never recomputed.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable

import pytest

from poplab.counting import count_avoiders_prefix
from poplab.posets import parse_pop

BruteCounter = Callable[[str, int], list[int]]


@pytest.fixture(scope="session")
def brute() -> BruteCounter:
    """Return ``counts(pop_text, n_max)`` giving brute-force avoider
    counts for n = 1..n_max, memoized per (POP, n) for the session.

    A miss fills the memo for every n <= n_max from one tree walk."""
    cache: dict[tuple[str, int], int] = {}

    def counts(pop_text: str, n_max: int) -> list[int]:
        pop = parse_pop(pop_text)
        text = pop.to_text()
        if any((text, n) not in cache for n in range(1, n_max + 1)):
            seq = count_avoiders_prefix(pop, n_max, ceiling=12)
            for n, value in enumerate(seq.counts):
                cache[text, n] = value
        return [cache[text, n] for n in range(1, n_max + 1)]

    return counts


@pytest.fixture
def fake_pool(monkeypatch) -> list[int]:
    """Replace ``concurrent.futures.ProcessPoolExecutor`` with a stand-in
    that maps in this process, and return the ``max_workers`` of every
    pool built, so a test can count pools and workers without starting
    any process."""
    built: list[int] = []

    class SerialPool:
        def __init__(self, max_workers: int):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return built

"""Shared fixtures.

The expensive resource in this suite is exhaustive counting, so a
session-scoped memo shares every brute-force count across test files:
a count computed once for one POP and one length is never recomputed.
"""

from __future__ import annotations

import os
import signal
import sys
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
def forks(monkeypatch) -> list[int]:
    """Record every ``os.fork`` and delegate it to the real call; return
    the number of processes each pool forked, one entry per pool, so a
    test can count pools and workers: a pool of N processes forks N - 1,
    as the parent is one of them.  Forks from one ``_pool_map`` frame
    belong to one pool."""
    real_fork = os.fork
    # Holding every frame keeps a finished pool's frame from being reused.
    pools: list[object] = []
    counts: list[int] = []

    def fork() -> int:
        caller = sys._getframe(1)
        if not pools or pools[-1] is not caller:
            pools.append(caller)
            counts.append(0)
        counts[-1] += 1
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return counts


@pytest.fixture
def deadline():
    """Fail the test with ``TimeoutError`` after 60 s instead of letting a
    pool deadlock hang it; the error reaches the pool in the parent, which
    then kills and reaps its workers (a forked child has no alarm)."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)

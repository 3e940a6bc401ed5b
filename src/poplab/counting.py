"""Exact counting of POP-avoiding permutations on a generating tree.

Deleting the last entry of an avoider and standardizing what is left
gives a shorter avoider, so the avoiders form a tree rooted at the
empty permutation, one child per relative rank of a new last entry
(the right-append generating tree; West, Discrete Math. 146, 1995).
A child is kept unless an occurrence ends at its new last entry, as an
earlier one would have pruned an ancestor.  One depth-first walk to
depth n_max gives every count for n <= n_max.

A node is an avoider in ``bytes``, one per entry, with the bitmask of
its live ranks: those that no occurrence within its older entries
forbids, as a prune at a node holds in every descendant (the
enumeration-scheme idea; Zeilberger, Ann. Comb. 2, 1998).  So
``perms._compiled_keep``, generated once per POP per process, checks
only the occurrences whose label k-1 is the node's last entry, for all
live ranks in one pass.  A child is one ``bytes.translate``, and the
avoiders of length n_max are counted from their parents' kept ranks.

A parallel count maps the same subtree walk over the nodes at depth
``SPLIT_DEPTH`` through ``_pool_map``, the only place poplab starts
processes: it forks its workers with ``os.fork`` and hands them item
indices through a pipe, so no pool library is imported.  The parts are
summed in a fixed order, so the result is identical for every job
count.  All arithmetic is exact.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from functools import partial
from itertools import combinations, permutations, repeat
from typing import Callable, Iterator, NamedTuple, Sequence

from .perms import Permutation, _compiled_keep
from .posets import Pop

DEFAULT_CEILING = 10
# Nodes hold each entry in a byte and reach length n-1, so no ceiling may let n pass this.
MAX_LENGTH = 256
# Depth of the subtrees that a parallel count hands to its workers.
SPLIT_DEPTH = 4


class CeilingExceeded(ValueError):
    """An exhaustive count was requested beyond the configured ceiling."""

    def __init__(self, n: int, ceiling: int):
        super().__init__(f"refusing exhaustive count at n={n} beyond ceiling {ceiling}")
        self.n = n
        self.ceiling = ceiling

    def __reduce__(self):
        # Lets the error cross back from a pool worker.
        return CeilingExceeded, (self.n, self.ceiling)


def _check_length(n: int, ceiling: int) -> None:
    """Refuse a negative length, and one past an exhaustive count's ceiling."""
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    if n > ceiling:
        raise CeilingExceeded(n, ceiling)


class CountSequence(NamedTuple):
    """Avoidance counts ``counts[n]`` for n = 0..n_max of one POP."""

    pop: Pop
    counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    def terms_from_1(self) -> tuple[int, ...]:
        return self.counts[1:]


# A tree node: an avoider and the bitmask of its active sites (bit r for rank r).
_Node = tuple[bytes, int]
_BYTES = bytes(range(256))
# Appending rank r: _SHIFT[r] maps each old value v to v + (v >= r).
_SHIFT = [_BYTES[:r] + _BYTES[r + 1 :] + _BYTES[:1] for r in range(256)]
_LAST = [_BYTES[r : r + 1] for r in range(256)]


def _children(perm: bytes, kept: int) -> Iterator[_Node]:
    """The child of each rank r in ``kept``: it keeps s <= r and s + 1 for s >= r."""
    for r in range(1, len(perm) + 2):
        if kept >> r & 1:
            low = kept & ((2 << r) - 1)
            yield perm.translate(_SHIFT[r]) + _LAST[r], low | ((kept >> r) << (r + 1))


def _subtree_counts(pop: Pop, n_max: int, root: _Node) -> list[int]:
    """``counts[m]``: avoiders of length m strictly below ``root``, for
    m = 0..n_max; the avoiders of length n_max are counted, not built."""
    keep = _compiled_keep(pop)
    counts = [0] * (n_max + 1)

    def walk(perm: bytes, live: int) -> None:
        kept = keep(perm, live)
        counts[len(perm) + 1] += kept.bit_count()
        if len(perm) + 3 <= n_max:
            for child in _children(perm, kept):
                walk(*child)
        elif len(perm) + 2 == n_max:
            counts[n_max] += sum(keep(*child).bit_count() for child in _children(perm, kept))

    walk(*root)
    return counts


def _pool_map(fn: Callable, items: list, jobs: int) -> list:
    """``list(map(fn, items))``, over min(jobs, len(items)) forked processes
    if that is > 1.

    After forking, the parent writes the item indices, 4 bytes each, to
    one pipe, and each worker reads the next index whenever it is free.
    At EOF a worker sends back its ``(index, result)`` pairs, pickled, on
    a pipe of its own.  The exception of the first failing item is raised
    here, as ``map`` would raise it, and every child is reaped before
    this returns or raises.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return list(map(fn, items))
    if not hasattr(os, "fork"):
        raise ValueError(f"jobs={jobs} needs os.fork, which this platform lacks; use 1 job")
    import pickle
    import signal

    # The parent's open pipe ends: the task pipe's two, then each worker's report.
    fds = list(os.pipe())
    pids: list[int] = []
    reported = False
    try:
        for _ in range(workers):
            fds += os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in fds[1:-1]:
                        os.close(fd)
                    _serve(fn, items, fds[0], fds[-1])
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(fds.pop())
        os.close(fds.pop(0))
        # Written only now: a full pipe would block until workers read it.
        indices = memoryview(b"".join(i.to_bytes(4, "little") for i in range(len(items))))
        try:
            while indices:
                indices = indices[os.write(fds[0], indices):]
        except BrokenPipeError:
            pass  # every worker has stopped on a failure, which its report holds
        os.close(fds.pop(0))
        results = [None] * len(items)
        failures = []
        for fd in fds:
            with open(fd, "rb", closefd=False) as report:
                data = report.read()
            if not data:
                raise RuntimeError("a pool worker exited without reporting")
            pairs, failure = pickle.loads(data)
            for i, value in pairs:
                results[i] = value
            if failure is not None:
                failures.append(failure)
        reported = True
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return results
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            if not reported:
                os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)


def _serve(fn: Callable, items: list, tasks: int, report: int) -> None:
    """A pool worker: apply ``fn`` to each item whose index it reads from
    ``tasks`` until EOF or the first exception, then write the results
    and the failure, pickled, to ``report``."""
    import pickle

    done, failure = [], None
    # Every write and read is whole 4-byte indices, so no read splits one.
    while chunk := os.read(tasks, 4):
        i = int.from_bytes(chunk, "little")
        try:
            done.append((i, fn(items[i])))
        except Exception as exc:
            failure = (i, exc)
            break
    # A stopped worker must not hold the task pipe open: once all have
    # stopped, the parent's write fails instead of blocking.
    os.close(tasks)
    with open(report, "wb") as out:
        out.write(pickle.dumps((done, failure)))


def count_avoiders_prefix(
    pop: Pop, n_max: int, *, ceiling: int = DEFAULT_CEILING, jobs: int = 1
) -> CountSequence:
    """Avoidance counts for every length 0..n_max from one tree walk.

    With ``jobs > 1`` the subtrees below depth ``SPLIT_DEPTH`` are
    counted in a process pool; the counts do not depend on ``jobs``.
    """
    if n_max > MAX_LENGTH:
        raise ValueError(
            f"refusing to count at n={n_max}: lengths above {MAX_LENGTH} are refused "
            "whatever the ceiling, as the tree walk stores each entry in one byte"
        )
    _check_length(n_max, ceiling)
    if pop.k > n_max:
        return CountSequence(pop, tuple(math.factorial(n) for n in range(n_max + 1)))
    keep = _compiled_keep(pop)
    counts = [0] * (n_max + 1)
    depth = min(SPLIT_DEPTH, n_max - 1)
    level: list[_Node] = [(b"", 1 << 1)]
    for m in range(depth):
        counts[m] = len(level)
        level = [c for p, live in level for c in _children(p, keep(p, live))]
    counts[depth] = len(level)
    parts = _pool_map(partial(_subtree_counts, pop, n_max), level, jobs)
    return CountSequence(pop, tuple(sum(col) for col in zip(counts, *parts)))


def count_avoiders(
    pop: Pop, n: int, *, ceiling: int = DEFAULT_CEILING, jobs: int = 1
) -> int:
    """Number of permutations of length n avoiding the POP: the last
    term of ``count_avoiders_prefix``."""
    return count_avoiders_prefix(pop, n, ceiling=ceiling, jobs=jobs).counts[n]


def count_avoiders_pattern_set(
    patterns: Sequence[Permutation], n: int, *, ceiling: int = DEFAULT_CEILING
) -> int:
    """Avoiders of a plain set of classical patterns.

    Feeding this the linear extensions of a POP must reproduce
    ``count_avoiders`` for that POP, so it is an oracle for the engine
    and shares none of its parts: no compiled matcher, live mask, POP or
    generating tree.  An occurrence of a pattern p in a permutation of
    1..n is a value tuple that p's ranks pick out of some len(p)-subset
    of 1..n; those tuples are listed once, each as its last value under
    the tuple of its other values, and each avoider is built value by
    value, refusing a value that ends an occurrence whose other values
    are a subset of the values before it.
    """
    _check_length(n, ceiling)
    pats = [tuple(p) for p in patterns]
    if () in pats:
        return 0  # the empty pattern occurs in every permutation
    ends: dict[tuple[int, ...], set[int]] = {}
    for p in pats:
        for c in combinations(range(1, n + 1), len(p)):
            occurrence = tuple(c[r - 1] for r in p)
            ends.setdefault(occurrence[:-1], set()).add(occurrence[-1])
    sizes = {len(p) - 1 for p in pats}

    def completions(prefix: tuple[int, ...]) -> int:
        if len(prefix) == n:
            return 1
        refused = set(prefix)
        for size in sizes:
            refused.update(*map(ends.get, combinations(prefix, size), repeat(())))
        return sum(completions((*prefix, v)) for v in range(1, n + 1) if v not in refused)

    return completions(())


def count_cycle_interval_perms(k: int, n: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Permutations of length n whose every cycle fits in an interval of
    at most k-1 consecutive integers; no pattern machinery is used, so
    this checks ``count_avoiders`` independently.

    A block of s values holds (s-1)! cycles (the exponential formula;
    Stanley, EC2, sec. 5.1).  Values enter in increasing order, each
    opening a block or joining an open block of size s in s ways.  A
    block is open while its least value is fewer than k-1 values back;
    a state is the tuple of open blocks as (values since least, size)."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    _check_length(n, ceiling)
    if k == 1:
        return int(n == 0)
    states: dict[tuple[tuple[int, int], ...], int] = {(): 1}
    for _ in range(n):
        grown: defaultdict[tuple[tuple[int, int], ...], int] = defaultdict(int)
        for blocks, ways in states.items():
            aged = tuple((a + 1, s) for a, s in blocks if a + 1 < k - 1)
            grown[((0, 1), *aged)] += ways
            for i, (a, s) in enumerate(aged):
                grown[(*aged[:i], (a, s + 1), *aged[i + 1 :])] += ways * s
        states = grown
    return sum(states.values())


def naive_count_avoiders(pop: Pop, n: int, *, ceiling: int = 7) -> int:
    """Filter all of S_n through the containment test.  Slow; used as an
    independent oracle for the pruned engine."""
    _check_length(n, ceiling)
    if n == 0:
        return 1
    return sum(
        1
        for vals in permutations(range(1, n + 1))
        if not Permutation(vals).contains_pop(pop)
    )

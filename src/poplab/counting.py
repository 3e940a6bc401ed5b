"""Exact counting of POP-avoiding permutations on a generating tree.

Deleting the last entry of an avoider and standardizing what is left
gives a shorter avoider, so the avoiders form a tree rooted at the
empty permutation, one child per relative rank of a new last entry
(the right-append generating tree; West, Discrete Math. 146, 1995).
A child is kept unless an occurrence ends at its new last entry, as an
earlier one would have pruned an ancestor.  One walk to depth n_max
gives every count for n <= n_max.

A node is an avoider in ``bytes``, one per entry, with the bitmask of
its kept ranks: those whose child is an avoider.  A child inherits the
ranks its parent keeps, as a prune at a node holds in every descendant
(the enumeration-scheme idea; Zeilberger, Ann. Comb. 2, 1998), less
those at which a next entry completes an occurrence whose label k-1 is
the child's own last entry.  So the board, ``_compiled_board``,
generated here once per POP per process, gives every child's kept
ranks in one call per node, one row of bits per child, from one pass
over the node's entries, and a child is one ``bytes.translate``.
``contains_pop_ending_at_last`` replays the board along the prefixes
of one permutation.

One level loop, ``_walk``, walks the tree to the cut, ``CUT_HEIGHT``
levels above n_max (the root when n_max <= ``CUT_HEIGHT``), and on from
one cut node per key, weighted by the number of cut nodes that share it
(Vatter, Combin. Probab. Comput. 17, 2008); below a cut node of length
d no level holds more than (d+1)(d+2)(d+3) nodes.  The key of
a node p of length d holds, for each j = 1..k-1, the occurrences of
labels 1..j in p, each as the vector over later labels b of the
new-entry ranks lo..hi that b may take: lo is 1 plus the largest value
of an earlier label below b, hi the smallest value of one above b (1
and d+1 where there is none), and a vector inside another is dropped.
The representatives go through ``_pool_map``, the only place poplab
starts processes: it names runs of items, one byte each, in a pipe
before forking, and the parent and the workers it forks with
``os.fork`` each take the next run from it, so no pool library is
imported, and a worker reports by ``marshal``, not ``pickle``.  The
parts are summed in order of each key's first appearance, so the
result is identical for every job count.  All arithmetic is exact.
"""

from __future__ import annotations

import marshal
import math
import os
from collections import defaultdict
from functools import lru_cache, partial
from itertools import combinations, permutations, repeat
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from .posets import MAX_COMPILED_K, Pop

if TYPE_CHECKING:
    from .perms import Permutation

DEFAULT_CEILING = 10
# Nodes hold each entry in a byte and reach length n-1, so no ceiling may let n pass this.
MAX_LENGTH = 256
# Levels from the cut, whose nodes are grouped by key, to n_max: of 4, 5
# and 6, 5 was best or tied at n = 9-12 (BENCH_cut_cache.json).
CUT_HEIGHT = 5
# A pool's most tasks: their numbers, one byte each, fit below POSIX's
# least PIPE_BUF (512), so one write puts them all in the pipe whole.
_MAX_TASKS = 256


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


def _check_jobs(jobs: int) -> None:
    """Refuse a job count that is not an int of at least 1."""
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an int of at least 1, got {jobs!r}")


class CountSequence(NamedTuple):
    """Avoidance counts ``counts[n]`` for n = 0..n_max of one POP."""

    pop: Pop
    counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    def terms_from_1(self) -> tuple[int, ...]:
        return self.counts[1:]


class _Regions(dict):
    """``regions[rel, a, b, lo, hi]``, filled on first use: the (r, s)
    pairs, as bit s of row r (rows of m + 3 bits), that one occurrence
    of labels 1..k-2 in a parent of length m forbids.  Label k-1 is the
    new entry of child rank r, for a < r <= b; label k is the next new
    entry, of rank s in that child, where the child holds each old value
    v >= r as v + 1.  ``lo`` (``hi``) is the largest (smallest) old
    value placed below (above) label k, 0 (m + 1) if none; ``rel`` is 1
    when label k-1 lies below label k, 2 when above, 0 when unrelated."""

    def __init__(self, m: int):
        self.width = m + 3

    def __missing__(self, key: tuple[int, ...]) -> int:
        rel, a, b, lo, hi = key
        region = 0
        for r in range(a + 1, b + 1):
            low, high = lo + (lo >= r), hi + (hi >= r)
            if rel == 1:
                low = max(low, r)
            elif rel == 2:
                high = min(high, r)
            region |= ((2 << high) - (2 << low)) << (r * self.width)
        self[key] = region
        return region


class _Rows(dict):
    """``_ROWS[m]``, built on first use: for parents of length m, with
    rows r = 1..m+1 of W = m + 3 bits, the multiplier and the mask of
    row starts that turn a mask of ranks r into bit r * W for each, the
    masks of bits s <= r and s >= r in each row r, and the ``_Regions``
    that every POP shares."""

    def __missing__(self, m: int) -> tuple:
        width = m + 3
        starts = _repeat(width, m + 1) << width
        diagonal = _repeat(width + 1, m + 1) << (width + 1)  # bit r of each row r
        self[m] = value = (
            _repeat(width - 1, m + 2),
            starts,
            2 * diagonal - starts,
            (starts << width) - diagonal,
            _Regions(m),
        )
        return value


def _repeat(step: int, count: int) -> int:
    """Bits 0, step, 2 * step, ..., (count - 1) * step."""
    return ((1 << (step * count)) - 1) // ((1 << step) - 1)


_ROWS = _Rows()


@lru_cache(maxsize=1024)
def _compiled_board(pop: Pop) -> Callable[[Sequence[int], int], int]:
    """Generate ``board(parent, kept)`` for ``pop``, once per POP: the
    kept ranks of every child of ``parent`` at once, where ``kept``
    holds the parent's.  Row r of the result, bits r * W .. r * W + W - 1
    with W = m + 3 for a parent of length m, is the kept mask of the
    child of rank r, and 0 for r not in ``kept``.  It is the child's
    inherited ranks (``kept`` with each s >= r moved up to s + 1, as
    s <= r and s + 1 for s >= r stay live) less the ranks at which a
    next entry completes an occurrence whose label k-1 is the child's
    last entry.  Labels 1..k-2 get one nested loop each over the parent,
    with the order checks inlined, so every child's occurrences come
    from one pass.  An occurrence lets label k-1 take the child ranks
    a+1..b, a (b) being its largest (smallest) value below (above) k-1,
    and a level is skipped when ``kept`` holds none of them; what it
    forbids is looked up in ``_Regions``.  A label related to no later
    one stops at its first fit: no later test reads it, and a later
    position only narrows the later labels' positions."""
    k, below = pop.k, pop.below
    if k > MAX_COMPILED_K:
        raise ValueError(f"the board handles POPs of at most {MAX_COMPILED_K} labels, got k={k}")
    if k == 1:
        return lambda parent, kept: 0
    pin = k - 2
    rel = 1 if below[pin][k - 1] else 2 if below[k - 1][pin] else 0
    # Each side, a and lo below labels k-1 and k, b and hi above them: the
    # label it bounds, whether it holds the largest value (else the
    # smallest), the placed labels that can set it (label k-1 sets one
    # side of k in the region itself) and the expression of its value.
    sides = {
        "a": (pin, True, [], "0"),
        "b": (pin, False, [], "m + 1"),
        "lo": (k - 1, True, [pin] if rel == 1 else [], "0"),
        "hi": (k - 1, False, [pin] if rel == 2 else [], "m + 1"),
    }
    bound = {side: start for side, (*_, start) in sides.items()}
    lines = ["def board(p, kept):", "    m = len(p)"]
    lines += ["    ones, diag, low, high, regions = _ROWS[m]"]
    lines += ["    spread = kept * (kept * ones & diag)"]
    lines += ["    allowed = spread & low | (spread & high) << 1", "    forbid = 0"]
    pad = "    "
    breaks = []
    for j in range(pin):
        start = f"i{j - 1} + 1" if j else "0"
        end = f"m - {pin - 1 - j}" if j < pin - 1 else "m"
        lines.append(f"{pad}for i{j} in range({start}, {end}):")
        lines.append(f"{pad}    v{j} = p[i{j}]")
        pad += "    "
        # A relation that a placed label between the two implies needs no test.
        tests = [
            f"v{j} {'<' if below[j][i] else '>'} v{i}"
            for i in range(j)
            if (below[j][i] or below[i][j])
            and not any(below[j][h] and below[h][i] or below[i][h] and below[h][j] for h in range(j))
        ]
        if tests:
            lines.append(f"{pad}if {' and '.join(tests)}:")
            pad += "    "
        moved = False
        for side, (label, largest, setters, _) in sides.items():
            # beyond(x, y): x's value lies past y's on this side, by the order.
            beyond = (lambda x, y: below[y][x]) if largest else (lambda x, y: below[x][y])
            if not beyond(label, j) or any(beyond(i, j) for i in setters):
                continue
            setters[:] = [i for i in setters if not beyond(j, i)] + [j]
            if [i for i in setters if i != pin] == [j]:
                bound[side] = f"v{j}"
            else:
                cmp, old = ">" if largest else "<", bound[side]
                lines.append(f"{pad}{side}{j} = v{j} if v{j} {cmp} {old} else {old}")
                bound[side] = f"{side}{j}"
            moved = moved or label == pin
        if moved:
            lines.append(f"{pad}if kept & ((2 << {bound['b']}) - (2 << {bound['a']})):")
            pad += "    "
        if not any(below[j][i] or below[i][j] for i in range(j + 1, k)):
            breaks.append(f"{pad}break")
    key = ", ".join([str(rel)] + [bound[side] for side in sides])
    lines += [f"{pad}forbid |= regions[{key}]", *reversed(breaks)]
    lines += ["    return allowed & ~forbid"]
    namespace: dict = {"_ROWS": _ROWS}
    exec("\n".join(lines), namespace)
    return namespace["board"]


def contains_pop_ending_at_last(perm: Permutation, pop: Pop) -> bool:
    """True when some occurrence of ``pop`` ends at the last entry of
    ``perm``.  Each call replays the engine's board along the whole path
    of ``perm``'s prefixes, one ``board`` call per entry, so asking
    after every new entry of a growing permutation costs O(n^2) calls.
    A prefix's own rank is added to the mask it passes, so that its row
    is computed even when the prefix is no avoider, and the row is then
    cut to the ranks the prefix inherits.  The engine does not call
    this; it carries kept ranks down its tree."""
    vals = perm.values
    if len(vals) < pop.k:
        return False
    board, p = _compiled_board(pop), []
    kept = 1 << 1 if pop.k > 1 else 0
    for j, v in enumerate(vals[:-1]):
        r = 1 + sum(u < v for u in vals[:j])
        inherited = (kept & ((2 << r) - 1)) | ((kept >> r) << (r + 1))
        kept = board(p, kept | 1 << r) >> (r * (len(p) + 3)) & inherited
        p = [u + (u >= r) for u in p] + [r]
    return not kept >> vals[-1] & 1


# A tree node: an avoider and the bitmask of its kept ranks (bit r for rank r).
_Node = tuple[bytes, int]
_BYTES = bytes(range(256))
# Appending rank r: _SHIFT[r] maps each old value v to v + (v >= r).
_SHIFT = [_BYTES[:r] + _BYTES[r + 1 :] + _BYTES[:1] for r in range(256)]
_LAST = [_BYTES[r : r + 1] for r in range(256)]


def _children(board: Callable[[bytes, int], int], perm: bytes, kept: int) -> Iterator[_Node]:
    """The child of each rank r in ``kept``, with row r of ``board(perm, kept)``."""
    rows, width = board(perm, kept), len(perm) + 3
    row = (1 << width) - 1
    for r in range(1, len(perm) + 2):
        rows >>= width
        if kept >> r & 1:
            yield perm.translate(_SHIFT[r]) + _LAST[r], rows & row


def _walk(board: Callable, level: list[_Node], counts: list[int], stop: int) -> list[_Node]:
    """Walk ``level``, nodes of one length d, down to length ``stop``
    and return the level there, adding the kept ranks of the level of
    each length m to ``counts[m + 1]``.  At m = n_max - 2, n_max being
    ``len(counts) - 1``, the level's boards give ``counts[n_max]`` and
    no level is returned: the last two lengths are not built."""
    n_max = len(counts) - 1
    for m in range(len(level[0][0]), stop):
        counts[m + 1] += sum(kept.bit_count() for _, kept in level)
        if m == n_max - 2:
            counts[n_max] += sum(board(*node).bit_count() for node in level)
            return []
        level = [c for node in level for c in _children(board, *node)]
    return level


def _subtree_counts(pop: Pop, n_max: int, root: _Node) -> list[int]:
    """``counts[m]``: avoiders of length m strictly below ``root``, for m = 0..n_max."""
    counts = [0] * (n_max + 1)
    _walk(_compiled_board(pop), [root], counts, n_max)
    return counts


def _cut_key(pop: Pop, perm: bytes) -> tuple[frozenset, ...]:
    """The key of a node (see the module docstring): for j = 1..k-1, the
    maximal vectors of rank ranges lo..hi of the labels after j that
    the occurrences of labels 1..j in ``perm`` allow.

    Nodes of one depth with equal keys have equal subtree counts.  An
    occurrence in a descendant puts labels 1..j on the node's entries,
    for some j < k as the node avoids the POP, and labels j+1..k on
    entries appended later.  A later entry meets the node only through
    the gap of its values that it falls into, and it can take label b
    against an occurrence exactly when its gap's rank lies in b's range.
    So the descendants holding an occurrence are those whose appended
    entries, as gaps and relative order, fit some vector; a vector
    inside another adds none, and j = 0 is alike for every node.

    Occurrences grow entry by entry: label j+1 takes a value v with
    lo <= v < hi of its range, which narrows each later label's range
    to above or below v as the POP relates them.  So no range empties.
    """
    k, below, top = pop.k, pop.below, len(perm) + 1
    # found[j]: the vectors of the occurrences of labels 1..j in the entries so far.
    found: list[set] = [{((1, top),) * k}] + [set() for _ in range(k - 1)]
    sides = [[(below[j][b], below[b][j]) for b in range(j + 1, k)] for j in range(k - 1)]
    for v in perm:
        # Longest first, so that no occurrence uses v twice.
        for j in range(k - 1, 0, -1):
            for (lo, hi), *ranges in found[j - 1]:
                if lo <= v < hi:
                    narrowed = tuple(
                        (v + 1 if up and lo_b <= v else lo_b, v if down and hi_b > v else hi_b)
                        for (lo_b, hi_b), (up, down) in zip(ranges, sides[j - 1])
                    )
                    found[j].add(narrowed)
    return tuple(
        frozenset(u for u in vectors if not any(w != u and _inside(u, w) for w in vectors))
        for vectors in found[1:]
    )


def _inside(u: tuple, w: tuple) -> bool:
    """Whether each rank range of ``u`` lies within the same label's range in ``w``."""
    return all(lo_w <= lo_u and hi_u <= hi_w for (lo_u, hi_u), (lo_w, hi_w) in zip(u, w))


def _pool_map(fn: Callable, items: list, jobs: int) -> list:
    """``list(map(fn, items))``, over min(jobs, tasks) processes if that
    is > 1: this one and workers forked from it.  Each result must then
    be a value that ``marshal`` writes, or it fails with a ValueError.

    The items are cut into at most ``_MAX_TASKS`` tasks, runs of
    consecutive indices of one length, and the task numbers, one byte
    each, are written to a pipe in one write before the first fork.  So
    the write is whole and cannot block, and no read splits a task.
    Every process, this one too, then reads the next task whenever it is
    free, until EOF; a worker sends back its ``(index, result)`` pairs
    and failure by ``marshal`` on a pipe of its own, and ``pickle`` is
    imported only to carry a failure's exception.  Each process stops at
    its first failure; tasks go out in order, so the least failing index
    seen is the first, and its exception is raised here, as ``map``
    would raise it.  Every child is reaped before this returns or raises.
    """
    size = -(-len(items) // _MAX_TASKS) or 1
    tasks = -(-len(items) // size)
    workers = min(jobs, tasks)
    if workers <= 1:
        return list(map(fn, items))
    if not hasattr(os, "fork"):
        raise ValueError(f"jobs={jobs} needs os.fork, which this platform lacks; use 1 job")
    # The parent's open pipe ends: the task pipe's read end, then each worker's report.
    fds = list(os.pipe())
    os.write(fds[1], bytes(range(tasks)))
    os.close(fds.pop())
    pids: list[int] = []
    reported = False
    try:
        for _ in range(workers - 1):
            fds += os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in fds[1:-1]:
                        os.close(fd)
                    done, failure = _serve(fn, items, fds[0], size)
                    if failure:
                        import pickle

                        failure = failure[0], pickle.dumps(failure[1])
                    with open(fds[-1], "wb") as out:
                        out.write(marshal.dumps((done, failure)))
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(fds.pop())
        done, failure = _serve(fn, items, fds[0], size)
        os.close(fds.pop(0))
        failures = [failure]
        for fd in fds:
            with open(fd, "rb", closefd=False) as report:
                data = report.read()
            if not data:
                raise RuntimeError("a pool worker exited without reporting")
            pairs, failure = marshal.loads(data)
            if failure:
                import pickle

                failure = failure[0], pickle.loads(failure[1])
            done += pairs
            failures.append(failure)
        reported = True
        if any(failures):
            raise min(filter(None, failures), key=lambda failure: failure[0])[1]
        results = [None] * len(items)
        for i, value in done:
            results[i] = value
        return results
    finally:
        for fd in fds:
            os.close(fd)
        if not reported and pids:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGTERM)
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(fn: Callable, items: list, tasks: int, size: int) -> tuple[list, tuple | None]:
    """Map each run of ``size`` items whose task number is read from
    ``tasks``, until EOF or the first exception; return the ``(i,
    fn(items[i]))`` pairs and that failure as ``(i, exception)``, or None."""
    done: list = []
    while task := os.read(tasks, 1):
        start = task[0] * size
        for i in range(start, min(start + size, len(items))):
            try:
                value = fn(items[i])
                marshal.dumps(value)  # fails alike in every process, not at the report
            except Exception as exc:
                return done, (i, exc)
            done.append((i, value))
    return done, None


def count_avoiders_prefix(
    pop: Pop, n_max: int, *, ceiling: int = DEFAULT_CEILING, jobs: int = 1
) -> CountSequence:
    """Avoidance counts for every length 0..n_max from one tree walk.

    The subtrees below the cut, one per ``_cut_key``, are walked in a
    process pool when ``jobs > 1``; the counts do not depend on ``jobs``.
    """
    _check_jobs(jobs)
    if n_max > MAX_LENGTH:
        raise ValueError(
            f"refusing to count at n={n_max}: lengths above {MAX_LENGTH} are refused "
            "whatever the ceiling, as the tree walk stores each entry in one byte"
        )
    _check_length(n_max, ceiling)
    if pop.k > n_max:
        return CountSequence(pop, tuple(math.factorial(n) for n in range(n_max + 1)))
    counts = [1] + [0] * n_max
    # The root: the empty permutation, whose child of rank 1 is an avoider unless k = 1.
    root = (b"", 1 << 1 if pop.k > 1 else 0)
    level = _walk(_compiled_board(pop), [root], counts, max(0, n_max - CUT_HEIGHT))
    # One representative per key, and the number of cut nodes sharing it.
    groups: dict[tuple, list] = {}
    for node in level:
        groups.setdefault(_cut_key(pop, node[0]), [node, 0])[1] += 1
    parts = _pool_map(partial(_subtree_counts, pop, n_max), [g[0] for g in groups.values()], jobs)
    for (_, size), part in zip(groups.values(), parts):
        counts = [c + size * p for c, p in zip(counts, part)]
    return CountSequence(pop, tuple(counts))


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
    and shares none of its parts: no board, kept mask, POP or
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
    from .perms import Permutation

    _check_length(n, ceiling)
    if n == 0:
        return 1
    return sum(
        1
        for vals in permutations(range(1, n + 1))
        if not Permutation(vals).contains_pop(pop)
    )

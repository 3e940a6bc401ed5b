"""Permutations, classical pattern containment, and cycle utilities,
and the board that the counting engine generates for each POP: the
kept ranks of every child of a tree node in one call.

Conventions:
    * A permutation of length n is a rearrangement of the values 1..n.
    * Text form is a digit string for n <= 9 ("41523") and a comma
      separated list for longer permutations ("10,2,9,1,3,4,5,6,7,8").
    * Positions are 0-based wherever Python indexing is involved.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import index
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .posets import Pop


class Permutation:
    """An immutable permutation of 1..n in one-line notation."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(map(index, values))
        n = len(vals)
        if sorted(vals) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {vals}")
        self._values = vals

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse either text form (digit string or comma separated)."""
        text = text.strip()
        if not text:
            return cls(())
        if "," in text:
            return cls(int(part) for part in text.split(","))
        if not text.isdigit():
            raise ValueError(f"malformed permutation text: {text!r}")
        return cls(int(ch) for ch in text)

    @property
    def values(self) -> tuple[int, ...]:
        return self._values

    @property
    def n(self) -> int:
        return len(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __getitem__(self, i: int) -> int:
        return self._values[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"Permutation({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        if len(self._values) <= 9:
            return "".join(str(v) for v in self._values)
        return ",".join(str(v) for v in self._values)

    # ------------------------------------------------------------------
    # Symmetries

    def reverse(self) -> "Permutation":
        """Reflect positions: the i-th entry becomes the (n+1-i)-th."""
        return Permutation(self._values[::-1])

    def complement(self) -> "Permutation":
        """Reflect values: each entry v becomes n+1-v."""
        n = len(self._values)
        return Permutation(n + 1 - v for v in self._values)

    def inverse(self) -> "Permutation":
        """The inverse under composition: position of v becomes value at v."""
        n = len(self._values)
        inv = [0] * n
        for pos, v in enumerate(self._values):
            inv[v - 1] = pos + 1
        return Permutation(inv)

    # ------------------------------------------------------------------
    # Cycle structure

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycles of the permutation as a function i -> pi(i).

        Each cycle is rotated so its largest element comes first and the
        cycles are listed in increasing order of their largest elements.
        """
        n = len(self._values)
        seen = [False] * (n + 1)
        out: list[tuple[int, ...]] = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self._values[j - 1]
            top = cyc.index(max(cyc))
            out.append(tuple(cyc[top:] + cyc[:top]))
        out.sort(key=lambda c: c[0])
        return out

    def cycle_canonical_flatten(self) -> "Permutation":
        """Write each cycle largest element first, sort cycles by largest
        element, and read off the concatenation as a new permutation."""
        return Permutation(v for cyc in self.cycles() for v in cyc)

    def max_cycle_interval_width(self) -> int:
        """The largest value of max(c) - min(c) + 1 over all cycles c.

        Returns 0 for the empty permutation.  A permutation has every
        cycle inside an interval of at most w integers exactly when this
        width is at most w.
        """
        return max((cyc[0] - min(cyc) + 1 for cyc in self.cycles()), default=0)

    # ------------------------------------------------------------------
    # Containment

    def contains_pattern(self, pattern: "Permutation | Sequence[int]") -> bool:
        """True when some subsequence is order-isomorphic to ``pattern``.

        Raises ``ValueError`` when ``pattern`` repeats a value, as
        ``standardize`` does.
        """
        target = standardize(pattern)
        return any(
            standardize(sub) == target for sub in combinations(self._values, len(target))
        )

    def contains_pop(self, pop: "Pop") -> bool:
        """True when some subsequence realizes the partial order ``pop``.

        A subsequence at positions p_1 < ... < p_k realizes the pattern
        when pi(p_a) < pi(p_b) for every pair of labels with a below b;
        incomparable labels impose no constraint.
        """
        return next(self.pop_occurrences(pop), None) is not None

    def count_pop_occurrences(self, pop: "Pop") -> int:
        """Number of subsequences realizing ``pop``."""
        return sum(1 for _ in self.pop_occurrences(pop))

    def pop_occurrences(self, pop: "Pop") -> Iterator[tuple[int, ...]]:
        """Yield the 1-based position tuples of every occurrence of ``pop``."""
        below = pop.below
        k = pop.k
        vals = self._values
        m = len(vals)
        if k > m:
            return
        assigned = [0] * k
        positions = [0] * k

        def extend(slot: int, start: int) -> Iterator[tuple[int, ...]]:
            for pos in range(start, m - (k - slot) + 1):
                v = vals[pos]
                ok = True
                for i in range(slot):
                    if below[slot][i]:
                        if v >= assigned[i]:
                            ok = False
                            break
                    elif below[i][slot]:
                        if v <= assigned[i]:
                            ok = False
                            break
                if not ok:
                    continue
                assigned[slot] = v
                positions[slot] = pos + 1
                if slot == k - 1:
                    yield tuple(positions)
                else:
                    yield from extend(slot + 1, pos + 1)

        yield from extend(0, 0)


def standardize(values: Sequence[int]) -> Permutation:
    """Replace distinct values by their ranks, smallest becoming 1."""
    order = sorted(values)
    if len(set(order)) != len(order):
        raise ValueError(f"values are not distinct: {values}")
    rank = {v: i + 1 for i, v in enumerate(order)}
    return Permutation(rank[v] for v in values)


def has_cycle_interval_property(perm: Permutation, k: int) -> bool:
    """True when every cycle of ``perm`` fits in an interval of at most
    k-1 consecutive integers, i.e. max(c) - min(c) + 1 <= k - 1."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return perm.max_cycle_interval_width() <= k - 1


# CPython compiles at most 20 statically nested loops; the board nests k - 2.
MAX_COMPILED_K = 21


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
def _compiled_board(pop: "Pop") -> Callable[[Sequence[int], int], int]:
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
        raise ValueError(
            f"the compiled matcher handles POPs of at most {MAX_COMPILED_K} labels, got k={k}"
        )
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


def contains_pop_ending_at_last(perm: Permutation, pop: "Pop") -> bool:
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

"""Permutations, classical pattern containment, and cycle utilities.

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
        flat: list[int] = []
        for cyc in self.cycles():
            flat.extend(cyc)
        return Permutation(flat)

    def max_cycle_interval_width(self) -> int:
        """The largest value of max(c) - min(c) + 1 over all cycles c.

        Returns 0 for the empty permutation.  A permutation has every
        cycle inside an interval of at most w integers exactly when this
        width is at most w.
        """
        width = 0
        for cyc in self.cycles():
            span = cyc[0] - min(cyc) + 1
            if span > width:
                width = span
        return width

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


# CPython compiles at most 20 statically nested loops; the matcher nests k - 2.
MAX_COMPILED_K = 21


@lru_cache(maxsize=1024)
def _compiled_keep(pop: "Pop") -> Callable[[Sequence[int], int], int]:
    """Generate ``keep(parent, live)`` for ``pop``, once per POP: the ranks
    in the bitmask ``live`` at which a new last entry appended to ``parent``
    completes no occurrence whose label k-1 is the parent's last entry.
    Labels 1..k-2 get one nested loop each, with the order checks inlined.
    A new entry of rank r lies above an old value v exactly when v < r, so
    an occurrence forbids the ranks lo+1..hi, where lo (hi) is the largest
    (smallest) value placed below (above) label k; the call returns once
    the interval that label k-1 alone fixes holds no live rank.  A label
    related to no later one stops at its first fit: no later test reads it,
    and a later position only narrows the later labels' positions."""
    k, below = pop.k, pop.below
    if k > MAX_COMPILED_K:
        raise ValueError(
            f"the compiled matcher handles POPs of at most {MAX_COMPILED_K} labels, got k={k}"
        )
    if k == 1:
        return lambda parent, live: 0
    pin = k - 2
    unbounded = {"lo": "0", "hi": "m + 1"}
    bound = dict(unbounded)
    if below[pin][k - 1] or below[k - 1][pin]:
        bound["lo" if below[pin][k - 1] else "hi"] = f"v{pin}"
    fixed = dict(bound)
    interval = f"(2 << {bound['hi']}) - (2 << {bound['lo']})"
    lines = ["def keep(p, live):", "    m = len(p)", f"    if m < {k - 1}:"]
    lines += ["        return live", f"    v{pin} = p[m - 1]"]
    lines += [f"    if not live & ({interval}):", "        return live"]
    pad = "    "
    breaks = []
    for j in range(pin):
        start = f"i{j - 1} + 1" if j else "0"
        lines.append(f"{pad}for i{j} in range({start}, m - {k - 2 - j}):")
        lines.append(f"{pad}    v{j} = p[i{j}]")
        pad += "    "
        related = [i for i in (pin, *range(j)) if below[j][i] or below[i][j]]
        tests = [f"v{j} {'<' if below[j][i] else '>='} v{i}" for i in related]
        now = dict(bound)  # the bounds as this level's test writes them
        if below[j][k - 1] or below[k - 1][j]:
            side, cmp = ("lo", ">") if below[j][k - 1] else ("hi", "<")
            old = bound[side]
            bound[side] = now[side] = f"v{j}"
            if old != unbounded[side]:
                bound[side] = f"{side}{j}"
                now[side] = f"({side}{j} := v{j} if v{j} {cmp} {old} else {old})"
        if bound != fixed:
            tests.append(f"live & ((2 << {now['hi']}) - (2 << {now['lo']}))")
        if tests:
            lines.append(f"{pad}if {' and '.join(tests)}:")
            pad += "    "
        if not any(below[j][i] or below[i][j] for i in range(j + 1, k)):
            breaks.append(f"{pad}break")
    forbid = f"(2 << {bound['hi']}) - (2 << {bound['lo']})"
    lines += [f"{pad}live &= ~({forbid})", f"{pad}if not live & ({interval}):"]
    lines += [f"{pad}    return live", *reversed(breaks), "    return live"]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["keep"]


def contains_pop_ending_at_last(perm: Permutation, pop: "Pop") -> bool:
    """True when some occurrence of ``pop`` ends at the last entry of
    ``perm``.  Each call replays the engine's matcher along the whole path
    of ``perm``'s prefixes, one ``keep`` call per entry, so asking after
    every new entry of a growing permutation costs O(n^2) calls.  The
    engine does not call this; it carries kept ranks down its tree."""
    vals = perm.values
    if len(vals) < pop.k:
        return False
    keep, p = _compiled_keep(pop), []
    kept = keep(p, 1 << 1)
    for j, v in enumerate(vals[:-1]):
        r = 1 + sum(u < v for u in vals[:j])
        p = [u + (u >= r) for u in p] + [r]
        kept = keep(p, (kept & ((2 << r) - 1)) | ((kept >> r) << (r + 1)))
    return not kept >> vals[-1] & 1

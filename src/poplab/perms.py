"""Permutations: classical pattern and POP containment, occurrence
listing, symmetries and cycle utilities.  The counting engine's board
lives in ``counting``; nothing here is generated.

Conventions:
    * A permutation of length n is a rearrangement of the values 1..n.
    * Text form is a digit string for n <= 9 ("41523") and a comma
      separated list for longer permutations ("10,2,9,1,3,4,5,6,7,8").
    * Positions are 0-based wherever Python indexing is involved.
"""

from __future__ import annotations

from itertools import combinations
from operator import index
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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

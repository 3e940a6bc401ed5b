"""Partially ordered patterns (POPs) on the labels 1..k.

A POP is a strict partial order P on {1, ..., k}.  A permutation contains
the POP when some subsequence of length k can be labeled 1..k so that the
value with label a is smaller than the value with label b whenever
a < b in P.  Labels that are incomparable in P leave the corresponding
values unconstrained, so a POP stands for the set of classical patterns
obtained from its linear extensions.

Text form: ``"k=4; 1>2, 1>3"`` where ``a>b`` records that label b lies
below label a.  An antichain is written ``"k=4;"``.  Whitespace is
insignificant and the relations shown are the covering pairs of the
order, sorted numerically.
"""

from __future__ import annotations

import re
from itertools import combinations, permutations
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    from .perms import Permutation


class PopError(ValueError):
    """Raised for malformed POP text or an inconsistent relation set."""


class ClassKey(NamedTuple):
    """Hashable identifier of a POP's symmetry class.

    ``code`` is the smallest matrix encoding among the four variants of
    the POP under label complement and dual, so two POPs share a
    ClassKey exactly when one can be carried to the other by those
    symmetries.
    """

    k: int
    code: int


class Pop:
    """A strict partial order on the labels 1..k, stored closed.

    ``below[a][b]`` (0-based) is True when label a+1 lies below label
    b+1.  The matrix is always irreflexive, antisymmetric, and
    transitively closed; the factories enforce this.
    """

    __slots__ = ("_k", "_below")

    def __init__(self, k: int, below: tuple[tuple[bool, ...], ...]):
        if k < 1:
            raise PopError(f"POP length must be at least 1, got {k}")
        if len(below) != k or any(len(row) != k for row in below):
            raise PopError("relation matrix shape does not match k")
        for a in range(k):
            if below[a][a]:
                raise PopError(f"label {a + 1} compared with itself")
            for b in range(k):
                if below[a][b] and below[b][a]:
                    raise PopError(
                        f"labels {a + 1} and {b + 1} are each below the other"
                    )
                if below[a][b]:
                    for c in range(k):
                        if below[b][c] and not below[a][c]:
                            raise PopError("relation matrix is not closed")
        self._k = k
        self._below = below

    @classmethod
    def _closed(cls, k: int, below: tuple[tuple[bool, ...], ...]) -> "Pop":
        """A POP from a matrix that is closed by construction, unchecked."""
        pop = object.__new__(cls)
        pop._k, pop._below = k, below
        return pop

    @classmethod
    def from_relations(cls, k: int, relations: Iterable[tuple[int, int]]) -> "Pop":
        """Build a POP from ``(a, b)`` pairs, each meaning a > b in P.

        The transitive closure is taken automatically; a cycle or an
        out-of-range label raises PopError.
        """
        if k < 1:
            raise PopError(f"POP length must be at least 1, got {k}")
        below = [[False] * k for _ in range(k)]
        for a, b in relations:
            if not (1 <= a <= k and 1 <= b <= k):
                raise PopError(f"label out of range 1..{k} in relation {a}>{b}")
            if a == b:
                raise PopError(f"label {a} related to itself")
            below[b - 1][a - 1] = True
        # Warshall closure.
        for m in range(k):
            for x in range(k):
                if below[x][m]:
                    row_m = below[m]
                    row_x = below[x]
                    for y in range(k):
                        if row_m[y]:
                            row_x[y] = True
        for x in range(k):
            if below[x][x]:
                raise PopError("relations contain a cycle")
        return cls(k, tuple(tuple(row) for row in below))

    @property
    def k(self) -> int:
        return self._k

    @property
    def below(self) -> tuple[tuple[bool, ...], ...]:
        return self._below

    def less(self, a: int, b: int) -> bool:
        """True when label a lies below label b (1-based labels)."""
        return self._below[a - 1][b - 1]

    def comparable(self, a: int, b: int) -> bool:
        return self._below[a - 1][b - 1] or self._below[b - 1][a - 1]

    def relation_count(self) -> int:
        """Number of ordered comparable pairs in the closure."""
        return sum(row.count(True) for row in self._below)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs ``(a, b)`` with a > b, sorted numerically.

        These are the relations of the transitive reduction: b below a
        with no label strictly between them.
        """
        k = self._k
        below = self._below
        out = []
        for a in range(k):
            for b in range(k):
                if not below[b][a]:
                    continue
                if any(below[b][c] and below[c][a] for c in range(k)):
                    continue
                out.append((a + 1, b + 1))
        out.sort()
        return tuple(out)

    def to_text(self) -> str:
        rels = ", ".join(f"{a}>{b}" for a, b in self.covers())
        return f"k={self._k}; {rels}" if rels else f"k={self._k};"

    def encode(self) -> int:
        """Pack the relation matrix into an integer, row by row."""
        return _encode(self._below)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Pop)
            and self._k == other._k
            and self._below == other._below
        )

    def __hash__(self) -> int:
        return hash((self._k, self._below))

    def __repr__(self) -> str:
        return f"Pop.from_text({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def from_text(cls, text: str) -> "Pop":
        return parse_pop(text)


def _encode(below) -> int:
    """Pack a relation matrix into an integer, row by row, off the diagonal."""
    code = 0
    for a, row in enumerate(below):
        for b, related in enumerate(row):
            if a != b:
                code = (code << 1) | related
    return code


_REL_RE = re.compile(r"^(\d+)>(\d+)$")
# CPython compiles at most 20 statically nested loops; the board in counting nests k - 2.
MAX_COMPILED_K = 21


def _check_labels(k: int) -> None:
    """Refuse more labels than the board handles, before a k x k order is built."""
    if k > MAX_COMPILED_K:
        raise PopError(f"POPs have at most {MAX_COMPILED_K} labels, got k={k}")


def parse_pop(text: str) -> Pop:
    """Parse POP text such as ``"k=4; 1>2, 1>3"``.

    Raises PopError for malformed syntax, more labels than the board
    handles, labels outside 1..k, or a relation set containing a cycle.
    The label limit comes first, so a huge k is refused before its k x k
    order matrix is built.
    """
    head, sep, tail = text.partition(";")
    if not sep:
        raise PopError(f"missing ';' in POP text: {text!r}")
    m = re.fullmatch(r"k\s*=\s*(\d+)", head.strip())
    if not m:
        raise PopError(f"expected 'k=<int>' before ';', got {head.strip()!r}")
    k = int(m.group(1))
    _check_labels(k)
    relations: list[tuple[int, int]] = []
    tail = tail.strip()
    if tail:
        for part in tail.split(","):
            part = "".join(part.split())
            rel = _REL_RE.fullmatch(part)
            if not rel:
                raise PopError(f"malformed relation {part!r} in POP text")
            relations.append((int(rel.group(1)), int(rel.group(2))))
    return Pop.from_relations(k, relations)


def antichain(k: int) -> Pop:
    """The POP with no relations: every length-k subsequence realizes it."""
    return Pop.from_relations(k, ())


def label_complement(pop: Pop) -> Pop:
    """Replace each label a by k+1-a, keeping the same order relation.

    A permutation contains ``pop`` exactly when its reverse contains the
    label complement.
    """
    k = pop.k
    below = pop.below
    flipped = tuple(
        tuple(below[k - 1 - a][k - 1 - b] for b in range(k)) for a in range(k)
    )
    return Pop(k, flipped)


def dual(pop: Pop) -> Pop:
    """Turn the order upside down: a below b becomes b below a.

    A permutation contains ``pop`` exactly when its complement contains
    the dual.
    """
    k = pop.k
    below = pop.below
    return Pop(k, tuple(tuple(below[b][a] for b in range(k)) for a in range(k)))


def symmetry_orbit(pop: Pop) -> tuple[Pop, ...]:
    """The distinct POPs among ``pop`` and its three symmetry variants."""
    variants = [pop, label_complement(pop), dual(pop), dual(label_complement(pop))]
    out: list[Pop] = []
    for p in variants:
        if p not in out:
            out.append(p)
    return tuple(out)


def canonical_class(pop: Pop) -> ClassKey:
    """The ClassKey of the symmetry orbit of ``pop``: the least code of its
    matrix and its dual's, each also label-complemented, with no Pop built."""
    below, dual_below = pop.below, list(zip(*pop.below))
    flipped = [[row[::-1] for row in matrix[::-1]] for matrix in (below, dual_below)]
    return ClassKey(pop.k, min(map(_encode, (below, dual_below, *flipped))))


def linear_extensions(pop: Pop) -> tuple[Permutation, ...]:
    """The classical patterns the POP stands for, sorted.

    Each pattern assigns ranks 1..k to the labels so that comparable
    labels keep their order; the pattern reads the rank of label 1,
    label 2, and so on.
    """
    from .perms import Permutation

    k = pop.k
    below = pop.below
    pairs = [(a, b) for a in range(k) for b in range(k) if below[a][b]]
    found = []
    for ranks in permutations(range(1, k + 1)):
        if all(ranks[a] < ranks[b] for a, b in pairs):
            found.append(Permutation(ranks))
    found.sort(key=lambda p: p.values)
    return tuple(found)


def enumerate_pops(k: int) -> list[Pop]:
    """Every strict partial order on 1..k, each once, in a fixed order.

    Deleting label k from an order on 1..k leaves an order on 1..k-1,
    and the rest of the order is D, the labels below k, and U, the
    labels above it: D is down-closed, U is up-closed, and every label
    of D lies below every label of U.  So each order on 1..k-1 and each
    such pair (D, U) give one order on 1..k.  The orders on 1..k-1 are
    extended in turn, their extensions sorted by label k's column, so
    the list is lexicographic in the relation of each label pair a < b
    (incomparable, then a below b, then a above b), with pairs taken as
    (1,2), (1,3), (2,3), (1,4), ...  Each order is closed by
    construction, so it skips the O(k^3) checks of ``Pop(...)``.
    """
    if k <= 1:
        return [Pop.from_relations(k, ())]
    labels = range(k - 1)
    subsets = [frozenset(c) for r in range(k) for c in combinations(labels, r)]
    out: list[Pop] = []
    for pop in enumerate_pops(k - 1):
        below = pop.below
        lower = [frozenset(x for x in labels if below[x][y]) for y in labels]
        upper = [frozenset(y for y in labels if below[x][y]) for x in labels]
        ups = [s for s in subsets if all(upper[u] <= s for u in s)]
        columns = []
        for down in subsets:
            if all(lower[d] <= down for d in down):
                above_down = frozenset(labels).intersection(*(upper[d] for d in down))
                columns.extend(
                    [1 if x in down else 2 if x in up else 0 for x in labels]
                    for up in ups
                    if up <= above_down
                )
        columns.sort()
        for col in columns:
            rows = tuple(row + (c == 1,) for row, c in zip(below, col))
            out.append(Pop._closed(k, rows + (tuple(c == 2 for c in col) + (False,),)))
    return out

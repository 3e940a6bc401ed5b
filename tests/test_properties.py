"""Property tests: the generating-tree engine against the oracles on
random POPs with k <= 5.

Examples are derandomized, so every run checks the same POPs, and the
example counts are bounded to keep the file to a few seconds.
"""

from __future__ import annotations

from functools import partial

import pytest

from poplab.counting import (
    CUT_HEIGHT,
    MIN_CUT_DEPTH,
    _compiled_board,
    _rows,
    contains_pop_ending_at_last,
    count_avoiders_pattern_set,
    count_avoiders_prefix,
    naive_count_avoiders,
)
from poplab.perms import Permutation
from poplab.posets import Pop, linear_extensions, symmetry_orbit

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

N_MAX = 6


def _settings(max_examples: int) -> settings:
    return settings(
        derandomize=True, deadline=None, database=None, max_examples=max_examples
    )


@st.composite
def pops(draw, max_k: int = 5) -> Pop:
    """A random POP: relations drawn among pairs that agree with a random
    ordering of the labels, so the relation set is acyclic."""
    k = draw(st.integers(1, max_k))
    order = draw(st.permutations(range(1, k + 1)))
    pairs = [(order[i], order[j]) for i in range(k) for j in range(i + 1, k)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Pop.from_relations(k, [pair for pair, kept in zip(pairs, keep) if kept])


@st.composite
def permutations_up_to(draw, n_max: int) -> Permutation:
    n = draw(st.integers(0, n_max))
    return Permutation(draw(st.permutations(range(1, n + 1))))


@_settings(80)
@given(pops())
def test_engine_matches_naive_filter(pop):
    counts = count_avoiders_prefix(pop, N_MAX).counts
    assert list(counts) == [naive_count_avoiders(pop, n) for n in range(N_MAX + 1)]


@_settings(30)
@given(pops())
def test_engine_matches_pattern_set_counter(pop):
    counts = count_avoiders_prefix(pop, N_MAX).counts
    patterns = linear_extensions(pop)
    assert list(counts) == [
        count_avoiders_pattern_set(patterns, n) for n in range(N_MAX + 1)
    ]


@_settings(60)
@given(pops())
def test_counts_are_invariant_under_symmetries(pop):
    counts = count_avoiders_prefix(pop, N_MAX + 1).counts
    for other in symmetry_orbit(pop):
        assert count_avoiders_prefix(other, N_MAX + 1).counts == counts


@_settings(10)
@given(pops())
def test_counts_do_not_depend_on_jobs(pop):
    # The least n_max whose count is cut and keyed, so that jobs=2 starts a pool.
    n_max = CUT_HEIGHT + MIN_CUT_DEPTH
    assert (
        count_avoiders_prefix(pop, n_max, jobs=2).counts
        == count_avoiders_prefix(pop, n_max, jobs=1).counts
    )


@_settings(400)
@given(pops(), permutations_up_to(8))
def test_compiled_matcher_matches_occurrence_oracle(pop, perm):
    ends_last = any(occ[-1] == perm.n for occ in perm.pop_occurrences(pop))
    assert contains_pop_ending_at_last(perm, pop) == ends_last


def _child(parent: Permutation, r: int) -> Permutation:
    return Permutation([v + (v >= r) for v in parent] + [r])


def _spread(kept: int, r: int) -> int:
    """The ranks the child of rank r inherits from its parent's ``kept``."""
    return (kept & ((2 << r) - 1)) | ((kept >> r) << (r + 1))


def _row(board: int, r: int, m: int) -> int:
    """Row r of a board for a parent of length m."""
    return board >> (r * (m + 3)) & ((1 << (m + 3)) - 1)


@_settings(400)
@given(pops(), permutations_up_to(7), st.data())
def test_kept_rank_matcher_matches_occurrence_oracle(pop, parent, data):
    """``board(parent, kept)`` on any set of kept ranks, holes included:
    row r, for r kept, holds the ranks s the child of rank r inherits at
    which its own child has no occurrence that ends last with label k-1
    at position m + 1, the child's last entry; the other rows are 0."""
    m = parent.n
    kept = sum(1 << r for r in data.draw(st.sets(st.integers(1, m + 1))))
    board = _rows(_compiled_board(pop), list(parent.values), kept)
    assert board < 1 << ((m + 2) * (m + 3))
    for r in range(m + 2):
        expected = set()
        if kept >> r & 1:
            child = _child(parent, r)
            for s in range(1, m + 3):
                if _spread(kept, r) >> s & 1 and all(
                    occ[-1] != m + 2 or (pop.k > 1 and occ[-2] != m + 1)
                    for occ in _child(child, s).pop_occurrences(pop)
                ):
                    expected.add(s)
        assert _row(board, r, m) == sum(1 << s for s in expected)


@_settings(200)
@given(pops(), permutations_up_to(7))
def test_prefix_chain_masks_hold_the_ranks_older_occurrences_leave(pop, perm):
    """Following ``perm``'s prefixes from the root, each taking its row of
    its parent's board, leaves at every prefix q the rank r kept exactly
    when no occurrence of q + r ends at its last entry: the invariant
    that lets the board pin label k-1 to each child's last entry.  The
    engine reaches only prefixes whose rank was kept; past the first
    that was not, the chain goes on as ``contains_pop_ending_at_last``
    does, adding the rank to the parent's mask and cutting the row to the
    ranks the prefix inherits."""
    board = partial(_rows, _compiled_board(pop))
    vals = perm.values
    parent, kept, reached = [], 1 << 1 if pop.k > 1 else 0, True
    for j in range(perm.n + 1):
        q = Permutation(parent)
        expected = {
            r
            for r in range(1, j + 2)
            if all(occ[-1] != j + 1 for occ in _child(q, r).pop_occurrences(pop))
        }
        assert kept == sum(1 << r for r in expected)
        if j == perm.n:
            break
        r = 1 + sum(u < vals[j] for u in vals[:j])
        reached = reached and bool(kept >> r & 1)
        row = _row(board(parent, kept | 1 << r), r, j) & _spread(kept, r)
        if reached:
            assert row == _row(board(parent, kept), r, j)
        kept, parent = row, [u + (u >= r) for u in parent] + [r]

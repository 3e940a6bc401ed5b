from __future__ import annotations

import random

import pytest

from poplab.counting import _compiled_board, contains_pop_ending_at_last
from poplab.perms import Permutation, has_cycle_interval_property, standardize
from poplab.posets import Pop, antichain, linear_extensions, parse_pop


def random_perms(count: int, n: int, seed: int) -> list[Permutation]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        out.append(Permutation(vals))
    return out


# ----------------------------------------------------------------------
# Construction and text forms


def test_from_text_digit_form():
    assert Permutation.from_text("41523").values == (4, 1, 5, 2, 3)


def test_from_text_comma_form():
    assert Permutation.from_text("10,2,3,4,5,6,7,8,9,1").values[0] == 10


def test_from_text_empty():
    assert Permutation.from_text("").values == ()


def test_to_text_round_trip():
    for perm in random_perms(5, 8, seed=11) + random_perms(5, 12, seed=12):
        assert Permutation.from_text(perm.to_text()) == perm


def test_to_text_uses_commas_past_nine():
    perm = Permutation(range(1, 11))
    assert "," in perm.to_text()


@pytest.mark.parametrize("bad", [(1, 3), (0, 1), (2, 2), (1, 2, 4)])
def test_rejects_non_permutations(bad):
    with pytest.raises(ValueError):
        Permutation(bad)


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation.from_text("12x3")


def test_standardize():
    assert standardize((5, 2, 8)).values == (2, 1, 3)
    assert standardize((40, 30, 20, 10)).values == (4, 3, 2, 1)
    assert standardize(()).values == ()


def test_standardize_rejects_ties():
    with pytest.raises(ValueError):
        standardize((3, 3))


# ----------------------------------------------------------------------
# Symmetries


def test_symmetries_are_involutions():
    for perm in random_perms(10, 7, seed=21):
        assert perm.reverse().reverse() == perm
        assert perm.complement().complement() == perm
        assert perm.inverse().inverse() == perm


def test_reverse_and_complement_commute():
    for perm in random_perms(10, 7, seed=22):
        assert perm.reverse().complement() == perm.complement().reverse()


def test_symmetry_examples():
    perm = Permutation.from_text("41523")
    assert perm.reverse().to_text() == "32514"
    assert perm.complement().to_text() == "25143"
    assert perm.inverse().to_text() == "24513"


# ----------------------------------------------------------------------
# Cycle structure


def test_cycles_largest_first_ordering():
    perm = Permutation((6, 8, 1, 5, 4, 3, 7, 2))
    assert perm.cycles() == [(5, 4), (6, 3, 1), (7,), (8, 2)]


def test_cycle_canonical_flatten_example():
    perm = Permutation((6, 8, 1, 5, 4, 3, 7, 2))
    assert perm.cycle_canonical_flatten().to_text() == "54631782"


def test_cycle_canonical_flatten_is_bijective_on_s5():
    import itertools

    images = {
        Permutation(p).cycle_canonical_flatten()
        for p in itertools.permutations(range(1, 6))
    }
    assert len(images) == 120


def test_flatten_left_to_right_maxima_are_cycle_maxima():
    for perm in random_perms(20, 9, seed=34):
        flat = perm.cycle_canonical_flatten()
        maxima = []
        best = 0
        for value in flat.values:
            if value > best:
                maxima.append(value)
                best = value
        assert maxima == [cycle[0] for cycle in perm.cycles()]


def test_max_cycle_interval_width():
    assert Permutation((6, 8, 1, 5, 4, 3, 7, 2)).max_cycle_interval_width() == 7
    assert Permutation((1, 2, 3)).max_cycle_interval_width() == 1
    assert Permutation((2, 1, 4, 3)).max_cycle_interval_width() == 2
    assert Permutation(()).max_cycle_interval_width() == 0


# ----------------------------------------------------------------------
# Containment


def test_contains_pattern():
    perm = Permutation.from_text("41523")
    assert perm.contains_pattern((1, 2, 3))
    assert perm.contains_pattern(Permutation((2, 1)))
    assert not perm.contains_pattern((3, 2, 1))
    assert not perm.contains_pattern((1, 2, 3, 4))
    assert perm.contains_pattern(())
    assert Permutation(()).contains_pattern(())


def test_contains_pattern_refuses_repeated_values():
    # 31 is a descent, but (1, 1) is no pattern: standardize refuses it too.
    with pytest.raises(ValueError, match="not distinct"):
        Permutation.from_text("312").contains_pattern((1, 1))


def test_pop_occurrence_count_in_41523():
    pop = parse_pop("k=3; 1>3")
    perm = Permutation.from_text("41523")
    occurrences = sorted(perm.pop_occurrences(pop))
    assert len(occurrences) == 6
    assert perm.count_pop_occurrences(pop) == 6
    # Every occurrence is a 1-based position triple whose first value
    # exceeds its last value.
    for i, j, l in occurrences:
        assert 1 <= i < j < l <= 5
        assert perm[i - 1] > perm[l - 1]
    assert {(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (3, 4, 5)} <= set(occurrences)


def test_contains_pop_antichain():
    assert Permutation((2, 1, 3)).contains_pop(antichain(3))
    assert not Permutation((2, 1)).contains_pop(antichain(3))


def test_contains_pop_matches_occurrence_iterator():
    pop = parse_pop("k=3; 1>2, 1>3")
    for perm in random_perms(20, 6, seed=31):
        assert perm.contains_pop(pop) == (len(list(perm.pop_occurrences(pop))) > 0)


def test_contains_pop_equals_containing_some_linear_extension():
    import itertools

    pops = [parse_pop(t) for t in ("k=3; 1>2", "k=3; 1>3", "k=4; 3>1, 1>2, 3>4")]
    for vals in itertools.permutations(range(1, 6)):
        perm = Permutation(vals)
        for pop in pops:
            expected = any(
                perm.contains_pattern(s) for s in linear_extensions(pop)
            )
            assert perm.contains_pop(pop) == expected


def test_containment_is_monotone_under_trailing_extension():
    pop = parse_pop("k=3; 1>3")
    for perm in random_perms(15, 5, seed=33):
        if not perm.contains_pop(pop):
            continue
        for new in range(1, perm.n + 2):
            lifted = [v if v < new else v + 1 for v in perm.values]
            assert Permutation(lifted + [new]).contains_pop(pop)


def test_contains_pop_ending_at_last():
    pop = parse_pop("k=3; 1>3")
    for perm in random_perms(25, 6, seed=32):
        expected = any(occ[-1] == perm.n for occ in perm.pop_occurrences(pop))
        assert contains_pop_ending_at_last(perm, pop) == expected
    assert not contains_pop_ending_at_last(Permutation((1, 2)), pop)


def chain_pop(k: int):
    # Built directly: parse_pop refuses k > 21 before the matcher sees it.
    return Pop.from_relations(k, [(i, i + 1) for i in range(1, k)])


def test_matcher_short_parent_and_single_label():
    board = _compiled_board(chain_pop(4))
    # Fewer than k - 2 entries hold no occurrence: the child of rank 1
    # inherits ranks 1 and 2 (rows are m + 3 bits wide).
    assert board([], 0b10) == 0b110 << 3
    # 2, 1 and a new last entry 1 are labels 1..3, so rank 1 is forbidden
    # below that child; the children of ranks 2 and 3 keep every rank.
    assert board([2, 1], 0b1110) == 0b11100 << 5 | 0b11110 << 10 | 0b11110 << 15
    # Ranks missing from ``kept`` stay missing, and their rows are empty.
    assert board([2, 1], 0b0110) == 0b1100 << 5 | 0b1110 << 10
    # One label: every new entry is an occurrence, with no label to pin.
    assert _compiled_board(parse_pop("k=1;"))([2, 1], 0b1110) == 0
    assert contains_pop_ending_at_last(Permutation((1,)), parse_pop("k=1;"))


def test_matcher_label_limit():
    # The board nests one loop per label below k - 1 and refuses k > 21.
    assert contains_pop_ending_at_last(Permutation(range(21, 0, -1)), chain_pop(21))
    assert not contains_pop_ending_at_last(Permutation((3, 1, 2)), chain_pop(22))
    with pytest.raises(ValueError, match="at most 21 labels"):
        contains_pop_ending_at_last(Permutation(range(22, 0, -1)), chain_pop(22))


def test_has_cycle_interval_property():
    assert has_cycle_interval_property(Permutation((1, 2, 3)), 2)
    assert not has_cycle_interval_property(Permutation.from_text("51234"), 5)
    assert has_cycle_interval_property(Permutation.from_text("51234"), 6)
    with pytest.raises(ValueError):
        has_cycle_interval_property(Permutation((1,)), 1)


def test_cycle_interval_property_count_over_s7():
    import itertools

    hits = sum(
        1
        for vals in itertools.permutations(range(1, 8))
        if has_cycle_interval_property(Permutation(vals), 5)
    )
    assert hits == 399

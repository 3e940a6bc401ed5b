from __future__ import annotations

import itertools

import pytest

from poplab.posets import (
    Pop,
    PopError,
    antichain,
    canonical_class,
    dual,
    enumerate_pops,
    label_complement,
    linear_extensions,
    parse_pop,
    symmetry_orbit,
)

# ----------------------------------------------------------------------
# Parsing and text form


def test_parse_round_trip():
    pop = parse_pop("k=4; 1>2, 1>3")
    assert pop.k == 4
    assert pop.less(2, 1)
    assert pop.less(3, 1)
    assert not pop.comparable(2, 3)
    assert parse_pop(pop.to_text()) == pop


def test_to_text_lists_covers_only():
    pop = parse_pop("k=3; 1>2, 2>3, 1>3")
    assert pop.to_text() == "k=3; 1>2, 2>3"


def test_parse_antichain():
    pop = parse_pop("k=3;")
    assert pop == antichain(3)
    assert pop.relation_count() == 0


def test_parse_transitive_closure():
    pop = parse_pop("k=3; 1>2, 2>3")
    assert pop.less(3, 1)
    assert pop.relation_count() == 3


@pytest.mark.parametrize(
    "bad",
    [
        "k=2",
        "1>2, 1>3",
        "k=x; 1>2",
        "k=3; 1>5",
        "k=3; 0>1",
        "k=3; 1>1",
        "k=3; 1>2, 2>1",
        "k=3; 1>2, 2>3, 3>1",
        "k=3; 1=2",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(PopError):
        parse_pop(bad)


def test_parse_refuses_more_labels_than_the_matcher_handles(monkeypatch):
    assert parse_pop("k=21;").k == 21

    def from_relations(k, relations):
        raise AssertionError("built the order matrix of an oversized POP")

    monkeypatch.setattr(Pop, "from_relations", from_relations)
    for k in (22, 100000):
        with pytest.raises(PopError, match="at most 21 labels"):
            parse_pop(f"k={k};")


def test_from_relations_closes():
    pop = Pop.from_relations(4, [(1, 2), (2, 3), (3, 4)])
    assert pop.less(4, 1)
    assert pop.relation_count() == 6
    assert pop.covers() == ((1, 2), (2, 3), (3, 4))


def test_encode_is_injective_on_length_four():
    pops = enumerate_pops(4)
    assert len({p.encode() for p in pops}) == len(pops)


def test_serialization_round_trips_on_all_length_four_pops():
    for pop in enumerate_pops(4):
        assert parse_pop(pop.to_text()) == pop


# ----------------------------------------------------------------------
# Linear extensions


def test_linear_extensions_of_singleton_relation():
    pats = [str(p) for p in linear_extensions(parse_pop("k=3; 1>3"))]
    assert pats == ["231", "312", "321"]


def test_linear_extensions_top_element():
    pats = [str(p) for p in linear_extensions(parse_pop("k=4; 1>2, 1>3, 1>4"))]
    assert pats == ["4123", "4132", "4213", "4231", "4312", "4321"]


def test_linear_extensions_shape_with_two_comparabilities():
    pats = [str(p) for p in linear_extensions(parse_pop("k=4; 3>1, 1>2, 3>4"))]
    assert pats == ["2143", "3142", "3241"]


def test_linear_extensions_counts():
    assert len(linear_extensions(antichain(4))) == 24
    assert len(linear_extensions(parse_pop("k=4; 1>2, 2>3, 3>4"))) == 1


def test_every_pop_has_a_sorted_nonempty_extension_set():
    for pop in enumerate_pops(3) + enumerate_pops(4):
        texts = [str(p) for p in linear_extensions(pop)]
        assert texts
        assert texts == sorted(texts)


# ----------------------------------------------------------------------
# Symmetries


def sample_pops() -> list[Pop]:
    return enumerate_pops(3) + enumerate_pops(4)[::13]


def test_label_complement_is_involution():
    for pop in sample_pops():
        assert label_complement(label_complement(pop)) == pop


def test_dual_is_involution():
    for pop in sample_pops():
        assert dual(dual(pop)) == pop


def test_symmetries_commute():
    for pop in sample_pops():
        assert label_complement(dual(pop)) == dual(label_complement(pop))


def test_label_complement_example():
    assert label_complement(parse_pop("k=4; 1>2, 1>3")) == parse_pop("k=4; 4>3, 4>2")


def test_dual_example():
    assert dual(parse_pop("k=3; 1>2, 1>3")) == parse_pop("k=3; 2>1, 3>1")


def test_dual_transports_containment_to_complement():
    # A permutation contains the dual POP exactly when its complement
    # contains the original.
    pop = parse_pop("k=3; 1>2, 1>3")
    for vals in itertools.permutations(range(1, 6)):
        from poplab.perms import Permutation

        perm = Permutation(vals)
        assert perm.contains_pop(dual(pop)) == perm.complement().contains_pop(pop)


def test_label_complement_transports_containment_to_reverse():
    pop = parse_pop("k=3; 1>2")
    from poplab.perms import Permutation

    for vals in itertools.permutations(range(1, 6)):
        perm = Permutation(vals)
        assert perm.contains_pop(label_complement(pop)) == perm.reverse().contains_pop(
            pop
        )


def test_symmetry_orbit_sizes():
    assert len(symmetry_orbit(antichain(3))) == 1
    assert len(symmetry_orbit(parse_pop("k=3; 1>2"))) == 4
    assert len(symmetry_orbit(parse_pop("k=3; 1>3"))) == 2


def test_canonical_class_constant_on_orbit():
    for pop in sample_pops():
        key = canonical_class(pop)
        for other in symmetry_orbit(pop):
            assert canonical_class(other) == key
        assert key.k == pop.k
        assert key.code <= pop.encode()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_canonical_class_is_the_least_code_in_the_orbit(k):
    for pop in enumerate_pops(k):
        assert canonical_class(pop).code == min(q.encode() for q in symmetry_orbit(pop))


# ----------------------------------------------------------------------
# Exhaustive generation


def brute_pops(k: int) -> set[int]:
    """All partial orders on 1..k by closing every relation subset."""
    pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1) if a != b]
    found: set[int] = set()
    for bits in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        try:
            pop = Pop.from_relations(k, chosen)
        except PopError:
            continue
        found.add(pop.encode())
    return found


@pytest.mark.parametrize("k,count", [(1, 1), (2, 3), (3, 19), (4, 219)])
def test_enumerate_pops_matches_brute_force(k, count):
    pops = enumerate_pops(k)
    assert len(pops) == count
    assert {p.encode() for p in pops} == brute_pops(k)


def test_enumerate_pops_length_four_count():
    assert len(enumerate_pops(4)) == 219


def test_enumerate_pops_length_five_count():
    assert len(enumerate_pops(5)) == 4231


def pair_status_key(pop: Pop) -> tuple[int, ...]:
    """Each label pair a < b, taken as (1,2), (1,3), (2,3), (1,4), ...:
    0 when incomparable, 1 when a lies below b, 2 when a lies above b."""
    return tuple(
        1 if pop.less(a, b) else 2 if pop.less(b, a) else 0
        for b in range(2, pop.k + 1)
        for a in range(1, b)
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_enumerate_pops_is_increasing_in_pair_status(k):
    # Seeded samples of enumerate_pops(5) depend on this order.
    keys = [pair_status_key(pop) for pop in enumerate_pops(k)]
    assert all(x < y for x, y in zip(keys, keys[1:]))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_enumerate_pops_builds_only_orders_that_pass_every_check(k):
    # enumerate_pops skips Pop's checks; each order must still pass them.
    for pop in enumerate_pops(k):
        assert Pop(pop.k, pop.below) == pop


@pytest.mark.parametrize("k", [0, -1])
def test_enumerate_pops_refuses_lengths_below_one(k):
    with pytest.raises(PopError, match=f"at least 1, got {k}"):
        enumerate_pops(k)

from __future__ import annotations

import itertools
import json
import math
import os
import random
import signal
import time
from pathlib import Path

import pytest

import poplab.counting as counting
from poplab.counting import (
    CUT_HEIGHT,
    MIN_CUT_DEPTH,
    CeilingExceeded,
    CountSequence,
    _cut_key,
    _pool_map,
    _subtree_counts,
    _walk,
    count_avoiders,
    count_avoiders_pattern_set,
    count_avoiders_prefix,
    count_cycle_interval_perms,
    naive_count_avoiders,
)
from poplab.perms import Permutation
from poplab.posets import (
    antichain,
    canonical_class,
    dual,
    enumerate_pops,
    label_complement,
    linear_extensions,
    parse_pop,
)
from poplab.theorems import theorem_sequence

SAMPLE_POPS = [
    "k=3;",
    "k=3; 1>2",
    "k=3; 1>3",
    "k=3; 1>2, 2>3",
    "k=4; 1>2, 1>3",
    "k=4; 3>1, 1>2, 3>4",
    "k=4; 1>2, 1>3, 4>2, 4>3",
    "k=5; 1>5",
]

# Seeded sample of length-5 POPs for the oracle agreement checks.
SAMPLE_POPS_5 = [p.to_text() for p in random.Random(503).sample(enumerate_pops(5), 12)]

# Every length-5 orbit representative's counts at n <= 10, computed by poplab.
GOLDEN_5 = json.loads((Path(__file__).parent / "data" / "scan5_counts.json").read_text())

# ----------------------------------------------------------------------
# Agreement of the three independent counters


@pytest.mark.parametrize("pop_text", SAMPLE_POPS + SAMPLE_POPS_5)
def test_pruned_counter_matches_filter_oracle(pop_text):
    pop = parse_pop(pop_text)
    for n in range(0, 8):
        assert count_avoiders(pop, n) == naive_count_avoiders(pop, n)


@pytest.mark.parametrize("pop_text", SAMPLE_POPS + SAMPLE_POPS_5)
def test_pruned_counter_matches_pattern_set_counter(pop_text):
    pop = parse_pop(pop_text)
    patterns = linear_extensions(pop)
    for n in range(0, 7):
        assert count_avoiders(pop, n) == count_avoiders_pattern_set(patterns, n)


def matcher_source(pop) -> str:
    """The source that ``_compiled_board`` generates for ``pop``."""
    sources = []

    def spy(source, namespace):
        sources.append(source)
        exec(source, namespace)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "exec", spy, raising=False)
        counting._compiled_board.__wrapped__(pop)
    return sources[0]


def orbit_reps(k: int) -> list:
    """The least-encoded POP of each symmetry orbit of length k."""
    orbits = {}
    for pop in enumerate_pops(k):
        orbits.setdefault(canonical_class(pop).code, []).append(pop)
    return [min(orbit, key=lambda p: p.encode()) for orbit in orbits.values()]


@pytest.mark.parametrize("k, n", [(4, 8), (5, 7)])
def test_first_fit_matchers_match_pattern_set_counter(k, n):
    # A label related to no later one stops at its first fitting position.
    first_fit = [pop for pop in orbit_reps(k) if "break" in matcher_source(pop)]
    assert first_fit
    for pop in first_fit:
        assert count_avoiders(pop, n) == count_avoiders_pattern_set(linear_extensions(pop), n)


@pytest.mark.parametrize(
    "patterns, counts",
    [
        # The empty pattern occurs in every permutation, the empty one too.
        ([""], [0, 0, 0, 0]),
        # Patterns of two lengths: only the decreasing permutations avoid
        # 12, and 321 leaves none of length 3 or more.
        (["12", "321"], [1, 1, 1, 0, 0]),
    ],
    ids=["empty", "mixed_lengths"],
)
def test_pattern_set_counter_known_values(patterns, counts):
    perms = [Permutation.from_text(p) for p in patterns]
    assert [count_avoiders_pattern_set(perms, n) for n in range(len(counts))] == counts


@pytest.mark.parametrize("pattern", [(1, 1), (0, 1), (2, 2, 1), (3, 1), (1, 3, 2, 5)])
def test_pattern_set_counter_refuses_what_is_no_pattern(pattern):
    with pytest.raises(ValueError, match="rearrangement of 1"):
        count_avoiders_pattern_set([(1, 2), pattern], 4)


def test_pattern_set_counter_uses_no_engine_part(monkeypatch):
    # Each oracle must stand apart from the engine it checks, though all
    # three share its module: the pattern-set counter, the S_n filter and
    # the cycle-interval counter.
    def engine_part(*args, **kwargs):
        raise AssertionError("an oracle called the engine")

    for name in ("_compiled_board", "_rows", "_walk", "_subtree_counts", "_cut_key"):
        monkeypatch.setattr(counting, name, engine_part)
    patterns = [Permutation.from_text(t) for t in ("2431", "4231", "4321")]
    counts = [count_avoiders_pattern_set(patterns, n) for n in range(1, 9)]
    assert counts == [1, 2, 6, 21, 79, 311, 1265, 5275]
    # The chain 1>2>3 is the classical pattern 321: Catalan numbers.
    chain = parse_pop("k=3; 1>2, 2>3")
    assert [naive_count_avoiders(chain, n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    # Cycles within 2 consecutive values: Fibonacci numbers.
    assert [count_cycle_interval_perms(3, n) for n in range(1, 9)] == [1, 2, 3, 5, 8, 13, 21, 34]


def test_symmetries_preserve_counts_on_sampled_length5_pops():
    rng = random.Random(501)
    pops = rng.sample(enumerate_pops(5), 8)
    for pop in pops:
        reference = [count_avoiders(pop, n) for n in range(7)]
        for image in (label_complement(pop), dual(pop)):
            assert [count_avoiders(image, n) for n in range(7)] == reference


def test_counts_below_pop_length_are_factorials():
    pop = parse_pop("k=4; 1>2, 1>3")
    assert [count_avoiders(pop, n) for n in range(4)] == [1, 1, 2, 6]


def test_antichain_counts_vanish_at_its_length():
    assert count_avoiders(antichain(3), 3) == 0
    assert count_avoiders(antichain(3), 6) == 0


@pytest.mark.parametrize(
    "pop_text, closed_form",
    [
        ("k=1;", lambda n: int(n == 0)),
        ("k=2;", lambda n: int(n <= 1)),
        ("k=2; 1>2", lambda n: 1),
        ("k=3; 1>2, 2>3", lambda n: math.comb(2 * n, n) // (n + 1)),
    ],
)
def test_matcher_special_paths_match_oracle_and_closed_form(pop_text, closed_form):
    # k = 1 has no label to pin and k = 2 no loop; below m = k - 1 entries
    # (the root, and [1] for k = 3) no occurrence fits and every rank stays.
    pop = parse_pop(pop_text)
    counts = count_avoiders_prefix(pop, 8).counts
    assert list(counts) == [closed_form(n) for n in range(9)]
    assert list(counts[:8]) == [naive_count_avoiders(pop, n) for n in range(8)]


# ----------------------------------------------------------------------
# Ceiling and parallel contract


def test_ceiling_raises_with_details():
    pop = parse_pop("k=3; 1>3")
    with pytest.raises(CeilingExceeded) as info:
        count_avoiders(pop, 11)
    assert info.value.n == 11
    assert info.value.ceiling == 10
    assert count_avoiders(pop, 11, ceiling=11) == 144


def test_naive_counter_has_tighter_ceiling():
    pop = parse_pop("k=3; 1>3")
    with pytest.raises(CeilingExceeded):
        naive_count_avoiders(pop, 8)


@pytest.mark.parametrize(
    "count",
    [
        lambda pop, n: naive_count_avoiders(pop, n),
        lambda pop, n: count_avoiders_prefix(pop, n),
        lambda pop, n: count_avoiders_pattern_set(linear_extensions(pop), n),
        lambda pop, n: count_cycle_interval_perms(pop.k, n),
    ],
    ids=["naive", "prefix", "pattern_set", "cycle_interval"],
)
def test_every_counter_refuses_a_negative_length(count):
    with pytest.raises(ValueError, match="nonnegative"):
        count(parse_pop("k=3; 1>3"), -1)


def test_parallel_count_equals_serial():
    pop = parse_pop("k=4; 1>2, 1>3, 4>2, 4>3")
    for n in (5, 7):
        assert count_avoiders(pop, n, jobs=2) == count_avoiders(pop, n)
    # Whole prefixes, walked whole up to the floor of the cut and with the
    # cut at and below it, and for a POP longer than n_max.
    floor = CUT_HEIGHT + MIN_CUT_DEPTH
    for text in ("k=4; 1>2, 1>3, 4>2, 4>3", "k=3; 1>3", "k=5; 1>5"):
        pop = parse_pop(text)
        for n_max in (0, 2, CUT_HEIGHT, CUT_HEIGHT + 1, floor - 1, floor, floor + 1):
            serial = count_avoiders_prefix(pop, n_max, jobs=1)
            assert count_avoiders_prefix(pop, n_max, jobs=2) == serial


@pytest.mark.parametrize("jobs", [0, -2, 1.5])
def test_count_refuses_a_bad_jobs_before_any_work(jobs, monkeypatch):
    def engine_part(*args, **kwargs):
        raise AssertionError("counted before refusing jobs")

    monkeypatch.setattr(counting, "_compiled_board", engine_part)
    # k = 5 > n_max = 3 is counted as 3! with no walk, and is refused too.
    for text, n in (("k=4; 1>2, 1>3", 9), ("k=5; 1>5", 3)):
        for count in (count_avoiders_prefix, count_avoiders):
            with pytest.raises(ValueError, match=f"jobs must be an int of at least 1, got {jobs}"):
                count(parse_pop(text), n, jobs=jobs)


def test_pool_starts_at_most_one_worker_per_subtree(forks):
    pop = parse_pop("k=4; 3>1, 1>2, 3>4")
    serial = count_avoiders_prefix(pop, 9)
    assert count_avoiders_prefix(pop, 9, jobs=100_000) == serial
    assert count_avoiders_prefix(pop, 9, jobs=3) == serial
    # The 21 cut nodes, at depth 4, fall into 7 keys.  The parent is one
    # of a pool's processes, so it forks one fewer.
    assert serial.counts[9 - CUT_HEIGHT] == 21
    assert forks == [7 - 1, 3 - 1]
    # A k = 1 POP leaves no subtree and n_max = 1 leaves one: no pool for either.
    empty = parse_pop("k=1;")
    assert count_avoiders_prefix(empty, 7, jobs=4).counts == (1, 0, 0, 0, 0, 0, 0, 0)
    assert count_avoiders_prefix(empty, 1, jobs=4).counts == (1, 0)
    assert forks == [6, 2]



def test_short_count_walks_its_whole_tree_in_one_process(monkeypatch, forks):
    def cut_key(*args):
        raise AssertionError("a cut was keyed")

    monkeypatch.setattr(counting, "_cut_key", cut_key)
    # The deepest n_max whose cut would sit above MIN_CUT_DEPTH.
    n_max = CUT_HEIGHT + MIN_CUT_DEPTH - 1
    for text in ("k=4; 3>1, 1>2, 3>4", "k=5; 1>2, 2>4, 4>3, 5>2"):
        pop = parse_pop(text)
        counts = count_avoiders_prefix(pop, n_max, jobs=4).counts
        assert list(counts) == [naive_count_avoiders(pop, n) for n in range(n_max + 1)]
        assert forks == []
        # One length more, the cut is keyed at MIN_CUT_DEPTH.
        with pytest.raises(AssertionError, match="a cut was keyed"):
            count_avoiders_prefix(pop, n_max + 1, jobs=4)

@pytest.mark.parametrize("error", [ValueError, CeilingExceeded])
def test_pool_reraises_the_first_worker_error_and_reaps_every_child(error, deadline):
    def fn(x: int) -> int:
        if x in (3, 6):
            raise error(x, 10)
        return x

    with pytest.raises(error) as info:
        _pool_map(fn, list(range(8)), 2)
    assert str(info.value) == str(error(3, 10))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_maps_more_indices_than_a_pipe_holds(deadline):
    # 100000 4-byte indices would overfill a 64 KiB pipe; the pool writes
    # 256 task numbers, one byte each, for runs of 391 items.
    items = list(range(-50_000, 50_000))
    assert _pool_map(abs, items, 2) == list(map(abs, items))


@pytest.mark.parametrize("count", [255, 256, 257, 513, 1000])
def test_pool_maps_runs_on_both_sides_of_max_tasks(count, deadline):
    # Up to 256 items, a task is one item; past it, runs of 2, 3 or 4,
    # the last one shorter where 256 does not divide the count.
    items = list(range(count))
    for jobs in (1, 2, 3):
        assert _pool_map(str, items, jobs) == list(map(str, items))
    # Of 1000 items, 700 and 701 fail in one run of 4 and 900 in a later one.
    first = count * 7 // 10

    def fn(x: int) -> int:
        if x in (first, first + 1, count * 9 // 10):
            raise ValueError(x)
        return x

    for jobs in (1, 2):
        with pytest.raises(ValueError) as info:
            _pool_map(fn, items, jobs)
        assert info.value.args == (first,)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_pool_forks_one_worker_fewer_than_its_tasks(monkeypatch, forks):
    # With 4 tasks, no job count starts more than 4 processes.
    monkeypatch.setattr(counting, "_MAX_TASKS", 4)
    items = list(range(1000))
    assert _pool_map(abs, items, 100) == items
    assert forks == [3]


def test_pool_survives_a_killed_worker(deadline):
    parent = os.getpid()

    def fn(x: int) -> int:
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.01)  # so that a worker takes an item
        return x

    with pytest.raises(RuntimeError, match="a pool worker exited without reporting"):
        _pool_map(fn, list(range(20)), 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_reports_a_result_marshal_cannot_write(deadline):
    # The worker reports the ValueError as the failure of its item, as it
    # would report an exception from fn, in place of exiting unreported.
    parent = os.getpid()

    def fn(x: int) -> object:
        time.sleep(0.01)  # so that a worker takes an item
        return object() if os.getpid() != parent else x

    with pytest.raises(ValueError, match="unmarshallable object"):
        _pool_map(fn, list(range(20)), 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # The parent refuses such a result too, so a pool fails alike whichever
    # process maps it, and one job is a pool of the parent alone.
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="unmarshallable object"):
            _pool_map(lambda x: object(), list(range(20)), jobs)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_pool_outlives_workers_that_all_fail_at_once(tmp_path, deadline):
    # Each forked worker fails on the first item of its first run.  The
    # parent, one of the workers, must then map every other run itself
    # and raise the failure of the least index.
    parent = os.getpid()
    waited = False

    def fn(x: int) -> int:
        nonlocal waited
        if os.getpid() != parent:
            (tmp_path / str(os.getpid())).write_text(str(x))
            raise ValueError(x)
        while not waited and len(list(tmp_path.iterdir())) < 2:
            time.sleep(0.001)  # until both workers have taken an item
        waited = True
        return x

    with pytest.raises(ValueError) as info:
        _pool_map(fn, list(range(50_000)), 3)
    firsts = [int(path.read_text()) for path in tmp_path.iterdir()]
    assert len(firsts) == 2
    assert info.value.args == (min(firsts),)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _level(pop, depth: int) -> list:
    # Counts that reach two lengths past depth, so that every level to it is built.
    root = (b"", 1 << 1 if pop.k > 1 else 0)
    return _walk(counting._compiled_board(pop), [root], [0] * (depth + 3), depth)


def test_walk_levels_hold_the_counts():
    # Every POP of length 4, and a seeded sample of the length-5 orbits.
    for pop in enumerate_pops(4) + random.Random(2511).sample(orbit_reps(5), 40):
        counts = count_avoiders_prefix(pop, 6).counts
        assert [len(_level(pop, depth)) for depth in range(7)] == list(counts), pop


def test_equal_cut_keys_give_equal_subtree_counts():
    # Every POP of length 4, and a seeded sample of the length-5 orbits.
    for pop in enumerate_pops(4) + random.Random(2208).sample(orbit_reps(5), 40):
        for depth in range(2, 6):
            groups = {}
            for node in _level(pop, depth):
                groups.setdefault(_cut_key(pop, node[0]), []).append(node)
            for nodes in groups.values():
                if len(nodes) > 1:
                    counts = [_subtree_counts(pop, 8, node) for node in nodes]
                    assert counts == counts[:1] * len(nodes), (pop, nodes)


def test_cut_walk_matches_pattern_set_oracle_at_nine():
    # At n = 9 the cut holds 21 nodes in 7 keys.
    pop = parse_pop("k=4; 3>1, 1>2, 3>4")
    expected = count_avoiders_pattern_set(linear_extensions(pop), 9)
    assert count_avoiders(pop, 9) == expected == 22431


def test_length_five_orbits_match_the_golden_counts():
    # Every orbit at n <= 7, where each count walks its whole tree.
    golden = GOLDEN_5["counts"]
    reps = orbit_reps(5)
    assert sorted(pop.to_text() for pop in reps) == sorted(golden)
    for pop in reps:
        assert list(count_avoiders_prefix(pop, 7).counts) == golden[pop.to_text()][:8], pop


@pytest.mark.parametrize("jobs", [1, 2])
def test_length_five_sample_matches_the_golden_counts_through_the_cut(jobs):
    # At n = 8 the cut sits at MIN_CUT_DEPTH, and its keys go through the pool.
    assert 8 - CUT_HEIGHT == MIN_CUT_DEPTH
    golden = GOLDEN_5["counts"]
    for pop in random.Random(3208).sample(orbit_reps(5), 40):
        assert list(count_avoiders_prefix(pop, 8, jobs=jobs).counts) == golden[pop.to_text()][:9], pop


def test_golden_file_names_the_classes_that_split_at_ten():
    golden = GOLDEN_5["counts"]
    classes = {}
    for text, counts in golden.items():
        classes.setdefault(tuple(counts[:10]), []).append(text)
    split = sorted(
        sorted(texts) for texts in classes.values() if len({tuple(golden[t]) for t in texts}) > 1
    )
    assert GOLDEN_5["splits_at_10"]["classes"] == split and len(split) == 4
    assert GOLDEN_5["classes"] == {
        str(n): len({tuple(counts[: n + 1]) for counts in golden.values()}) for n in (8, 9, 10)
    }


# ----------------------------------------------------------------------
# Prefix sequences


def test_prefix_sequence_shape():
    pop = parse_pop("k=4; 1>2, 1>3")
    seq = count_avoiders_prefix(pop, 6)
    assert isinstance(seq, CountSequence)
    assert seq.n_max == 6
    assert len(seq.counts) == 7
    assert seq.counts[0] == 1
    assert seq.terms_from_1() == seq.counts[1:]
    for n, value in enumerate(seq.counts):
        assert 0 <= value <= math.factorial(n)
        if n < pop.k:
            assert value == math.factorial(n)


def test_prefix_matches_single_counts():
    pop = parse_pop("k=3; 1>2, 2>3")
    seq = count_avoiders_prefix(pop, 6)
    assert list(seq.counts) == [count_avoiders(pop, n) for n in range(7)]


# ----------------------------------------------------------------------
# Cycle interval counter


def brute_cycle_interval(k: int, n: int) -> int:
    width = k - 1
    return sum(
        1
        for vals in itertools.permutations(range(1, n + 1))
        if Permutation(vals).max_cycle_interval_width() <= width
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_cycle_interval_counter_matches_brute_force(k):
    for n in range(0, 8):
        assert count_cycle_interval_perms(k, n) == brute_cycle_interval(k, n)


def test_cycle_interval_counter_matches_catalogue_formulas_past_the_ceiling():
    # thm-2.6 at k = 4 and 5 counts the POPs of thm-3.1 and thm-4.1, whose
    # formulas share no code with the counter.
    for k, theorem_id in ((4, "thm-3.1"), (5, "thm-4.1")):
        counts = [count_cycle_interval_perms(k, n, ceiling=40) for n in range(41)]
        assert counts == list(theorem_sequence(theorem_id, 40))


def test_cycle_interval_counter_at_the_largest_k():
    # k = 21 is the largest k a POP may have; every cycle of S_10 fits.
    assert count_cycle_interval_perms(21, 10) == math.factorial(10)


def test_cycle_interval_known_values():
    # Width 1 permits only fixed points; width 2 permits swaps of
    # neighboring values, giving the classic two-term recurrence.
    assert [count_cycle_interval_perms(2, n) for n in range(1, 6)] == [1, 1, 1, 1, 1]
    assert [count_cycle_interval_perms(3, n) for n in range(1, 7)] == [1, 2, 3, 5, 8, 13]
    assert count_cycle_interval_perms(5, 7) == 399


def test_cycle_interval_counter_past_the_tree_walk_length_bound():
    # At k = 3 a counted permutation is a product of disjoint swaps of
    # neighboring values, F(n+1) of them; the counter walks no tree, so
    # the byte bound on tree nodes does not limit it.
    fib = [0, 1]
    while len(fib) < 259:
        fib.append(fib[-2] + fib[-1])
    assert count_cycle_interval_perms(3, 257, ceiling=300) == fib[258]


def test_cycle_interval_ceiling():
    with pytest.raises(CeilingExceeded):
        count_cycle_interval_perms(4, 11)
    # The bijection of thm-2.6 at k = 4, at the default ceiling.
    assert count_cycle_interval_perms(4, 10) == count_avoiders(parse_pop("k=4; 1>4"), 10)

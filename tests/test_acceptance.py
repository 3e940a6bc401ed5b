"""Acceptance suite.

Each test is one acceptance criterion over the full catalogue, checked
by exact integer equality, and prints a single pass line when it
succeeds.  Brute-force counts are shared across criteria through the
session-scoped ``brute`` fixture, so the expensive sequences are
computed once.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from poplab.cli import main
from poplab.counting import (
    count_avoiders_pattern_set,
    count_avoiders_prefix,
    count_cycle_interval_perms,
)
from poplab.oeis import bundled_path, load_stripped, match_sequence
from poplab.perms import Permutation
from poplab.posets import dual, enumerate_pops, label_complement, parse_pop
from poplab.series import TruncatedSeries, from_rational, residual_thm314, residual_thm316
from poplab.theorems import (
    CONJECTURES,
    STORED_COUNTS,
    all_theorem_ids,
    check_all_conjectures,
    get_theorem,
    verify_theorem,
)


def report(number: int, detail: str) -> None:
    print(f"criterion {number:02d}: PASS - {detail}")


def table_ids(prefix: str) -> list[str]:
    return [i for i in all_theorem_ids() if i.startswith(prefix)]


# ----------------------------------------------------------------------
# 1. Length-4 catalogue rows reproduced by brute force


def test_criterion_01_length_four_tables(brute):
    ids = table_ids("thm-3.")
    assert len(ids) == 23
    start = time.perf_counter()
    for theorem_id in ids:
        entry = get_theorem(theorem_id)
        pop_text = entry.pop(4).to_text()
        assert tuple(brute(pop_text, 8)) == entry.prefix(4)[:8], theorem_id
    elapsed_8 = time.perf_counter() - start
    assert elapsed_8 < 120.0
    for theorem_id in ids:
        entry = get_theorem(theorem_id)
        pop_text = entry.pop(4).to_text()
        assert tuple(brute(pop_text, 9)) == entry.prefix(4), theorem_id
    elapsed_9 = time.perf_counter() - start
    assert elapsed_9 < 600.0
    report(
        1,
        f"23 length-4 rows, n <= 8 in {elapsed_8:.1f}s, n = 9 in {elapsed_9:.1f}s",
    )


# ----------------------------------------------------------------------
# 2. Length-5 catalogue rows reproduced by brute force


def test_criterion_02_length_five_tables(brute):
    ids = table_ids("thm-4.")
    assert len(ids) == 6
    start = time.perf_counter()
    for theorem_id in ids:
        entry = get_theorem(theorem_id)
        pop_text = entry.pop(5).to_text()
        assert tuple(brute(pop_text, 8)) == entry.prefix(5), theorem_id
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(2, f"6 length-5 rows, n <= 8 in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 3. Every formula agrees with brute force and the stored prefix


def test_criterion_03_formula_cross_validation(brute, capsys):
    checked = 0
    for theorem_id in all_theorem_ids():
        entry = get_theorem(theorem_id)
        if not entry.has_formula:
            continue
        for k in entry.registered_ks():
            n_eff = 9 if k == 4 else 8
            built = entry.sequence(n_eff, k)
            assert built[0] == 1
            assert tuple(built[1:]) == entry.prefix(k)[:n_eff], (theorem_id, k)
            pop_text = entry.pop(k).to_text()
            assert built[1:] == brute(pop_text, n_eff), (theorem_id, k)
            checked += 1
    assert main(["verify", "--theorem", "all"]) == 0
    capsys.readouterr()
    report(3, f"{checked} formula rows equal brute force; verify all exits 0")


# ----------------------------------------------------------------------
# 4. Known catalogue discrepancies are surfaced in the reports


def test_criterion_04_discrepancy_notes():
    notes_36 = verify_theorem("thm-3.6", n_max=6).notes
    assert any("a(n-6)" in n and "114" in n and "134" in n for n in notes_36)
    for theorem_id in ("thm-2.5", "thm-3.20"):
        notes = verify_theorem(theorem_id, n_max=5).notes
        assert any("Fibonacci" in n and "20 rather than 12" in n for n in notes)
    report(4, "thm-3.6 recurrence note and thm-2.5/3.20 index note present")


# ----------------------------------------------------------------------
# 5. Functional-equation residuals vanish on brute-force series


def test_criterion_05_functional_equation_residuals(brute):
    terms_316 = brute(get_theorem("thm-3.16").pop(4).to_text(), 9)
    assert terms_316 == [1, 2, 6, 21, 80, 322, 1346, 5783, 25372]
    series_316 = TruncatedSeries([1] + terms_316, order=9)
    assert residual_thm316(series_316).is_zero()

    terms_314 = brute(get_theorem("thm-3.14").pop(4).to_text(), 9)
    assert terms_314 == [1, 2, 6, 21, 80, 322, 1347, 5798, 25512]
    series_314 = TruncatedSeries([1] + terms_314, order=9)
    assert residual_thm314(series_314).is_zero()
    report(5, "both residuals identically zero through order 9")


# ----------------------------------------------------------------------
# 6. Cycle-interval bijection


def test_criterion_06_cycle_interval_bijection(brute):
    for k in (4, 5):
        pop_text = get_theorem("thm-2.6").pop(k).to_text()
        avoiders = brute(pop_text, 9)
        cycle_counts = [count_cycle_interval_perms(k, n) for n in range(1, 10)]
        assert avoiders == cycle_counts, k
    assert count_cycle_interval_perms(5, 7) == 399
    report(6, "avoider counts equal cycle-interval counts for k = 4, 5, n <= 9")


# ----------------------------------------------------------------------
# 7. Counts invariant under the two POP symmetries


def test_criterion_07_symmetry_invariance():
    pops = enumerate_pops(4)
    assert len(pops) == 219
    memo: dict[int, tuple[int, ...]] = {}

    def counts(pop) -> tuple[int, ...]:
        code = pop.encode()
        if code not in memo:
            memo[code] = tuple(count_avoiders_prefix(pop, 6).counts)
        return memo[code]

    for pop in pops:
        base = counts(pop)
        assert counts(label_complement(pop)) == base, pop.to_text()
        assert counts(dual(pop)) == base, pop.to_text()
    report(7, "all 219 length-4 POPs symmetric under complement and dual, n <= 6")


# ----------------------------------------------------------------------
# 8. POP counting equals counting over the induced pattern set


def test_criterion_08_pattern_set_equivalence(brute):
    rng = random.Random(20260814)
    pool = enumerate_pops(3) + enumerate_pops(4) + enumerate_pops(5)
    sample = rng.sample(enumerate_pops(3), 15) + rng.sample(
        enumerate_pops(4), 25
    ) + rng.sample(enumerate_pops(5), 10)
    assert len(sample) == 50
    assert len(pool) == 19 + 219 + 4231
    from poplab.posets import linear_extensions

    for pop in sample:
        patterns = linear_extensions(pop)
        direct = brute(pop.to_text(), 7)
        via_patterns = [count_avoiders_pattern_set(patterns, n) for n in range(1, 8)]
        assert direct == via_patterns, pop.to_text()
    report(8, "50 sampled POPs of lengths 3-5 agree with pattern-set counts, n <= 7")


# ----------------------------------------------------------------------
# 9. One avoidance class, three pattern triples and one POP


def test_criterion_09_shared_avoidance_class(brute):
    expected = [1, 2, 6, 21, 79, 311, 1265, 5275]
    triples = [
        ("2431", "4231", "4321"),
        ("2413", "3142", "2143"),
        ("2143", "3142", "4132"),
    ]
    for triple in triples:
        patterns = tuple(Permutation.from_text(t) for t in triple)
        counts = [count_avoiders_pattern_set(patterns, n) for n in range(1, 9)]
        assert counts == expected, triple
    pop_text = get_theorem("thm-3.15").pop(4).to_text()
    assert brute(pop_text, 8) == expected
    report(9, "three pattern triples and the two-comparability POP share one class")


# ----------------------------------------------------------------------
# 10. Conjectured rows supported and labeled as conjectures


def test_criterion_10_conjectures_supported():
    reports = check_all_conjectures(8)
    assert len(reports) == 6
    for rep in reports:
        assert rep.supported, rep.a_number
        assert rep.status == "SUPPORTED (n <= 8)"
        assert rep.to_text().startswith("conjecture ")
        assert rep.to_json()["kind"] == "conjecture"
    by_number = {rep.a_number: rep for rep in reports}
    quoted = [r.brute_value for r in by_number["A212198"].rows if r.n >= 1]
    assert quoted == [1, 2, 6, 24, 116, 632, 3720, 23072]
    report(10, "all 6 conjectured rows SUPPORTED at n <= 8 and labeled")


# ----------------------------------------------------------------------
# 11. Matching recovers every catalogued identification


def test_criterion_11_database_matching(brute):
    db = load_stripped(bundled_path())
    rows = 0
    shift3_seen = False
    for theorem_id in all_theorem_ids():
        entry = get_theorem(theorem_id)
        for k in entry.registered_ks():
            expected = set(entry.oeis(k))
            if not expected:
                continue
            n_terms = 9 if (k == 4 or "A007531" in expected) else 8
            terms = brute(entry.pop(k).to_text(), n_terms)
            matches = match_sequence(db, terms)
            assert {m.a_number for m in matches} == expected, (theorem_id, k)
            for m in matches:
                if m.a_number == "A007531":
                    assert (m.shift, m.dropped) == (3, 2)
                    shift3_seen = True
            rows += 1
    assert shift3_seen
    for text in CONJECTURES:
        a_numbers, prefix = STORED_COUNTS[text]
        matches = match_sequence(db, list(prefix))
        assert {m.a_number for m in matches} == set(a_numbers)
        rows += 1
    report(11, f"{rows} catalogued rows recovered exactly, A007531 at shift 3")


# ----------------------------------------------------------------------
# 12. Series property suite over the catalogue generating functions


RATIONAL_GFS = [
    ((1,), (1, -1, -1, -3, -1)),
    ((1, -1, -2, -2), (1, -2, -2, -2)),
    ((1, -3, 3, -1), (1, -4, 5, -4)),
    ((1, -2, 1), (1, -3, 2, -2)),
    ((1, -1, -2), (1, -2, -2)),
    ((1, -2, 0, 1), (1, -3, 1)),
    ((1, -3), (1, -4, 2)),
    ((1, 0, -1), (1, -1, -2, -2, -12, -8, 2, 5, 1)),
]

RADICANDS = [
    (1, -6, 5),
    (1, -4),
    (1, -6, 1),
]


def expand_by_recurrence(num, den, order: int) -> list[Fraction]:
    """Unroll sum(den[i] a(n-i)) = num[n] directly, term by term."""
    coeffs: list[Fraction] = []
    for n in range(order + 1):
        rhs = Fraction(num[n] if n < len(num) else 0)
        for i in range(1, min(n, len(den) - 1) + 1):
            rhs -= den[i] * coeffs[n - i]
        coeffs.append(rhs / den[0])
    return coeffs


def test_criterion_12_series_property_suite():
    order = 12
    for num, den in RATIONAL_GFS:
        series = from_rational(num, den, order)
        den_series = TruncatedSeries(den, order)
        num_series = TruncatedSeries(num, order)
        assert series * den_series == num_series
        assert (num_series / den_series) * den_series == num_series
        assert list(series.coeffs) == expand_by_recurrence(num, den, order)
    for radicand in RADICANDS:
        s = TruncatedSeries(radicand, order)
        root = s.sqrt()
        assert root * root == s
    report(
        12,
        f"{len(RATIONAL_GFS)} rational and {len(RADICANDS)} algebraic"
        " generating functions pass at order 12",
    )

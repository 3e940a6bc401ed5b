from __future__ import annotations

import pytest

import poplab.theorems as theorems
from poplab.counting import DEFAULT_CEILING, CeilingExceeded, count_avoiders_prefix
from poplab.posets import MAX_COMPILED_K, PopError, parse_pop
from poplab.theorems import (
    CONJECTURES,
    STORED_COUNTS,
    THEOREMS,
    all_theorem_ids,
    check_all_conjectures,
    check_conjecture,
    get_theorem,
    theorem_sequence,
    verify_all,
    verify_theorem,
)

# ----------------------------------------------------------------------
# Catalogue shape


def test_catalogue_ids_are_sorted_and_complete():
    ids = all_theorem_ids()
    assert ids[0] == "thm-2.2"
    assert len(ids) == 34
    assert len([i for i in ids if i.startswith("thm-2.")]) == 5
    assert len([i for i in ids if i.startswith("thm-3.")]) == 23
    assert len([i for i in ids if i.startswith("thm-4.")]) == 6
    assert ids == sorted(ids, key=lambda i: tuple(int(p) for p in i[4:].split(".")))


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        get_theorem("thm-7.1")
    with pytest.raises(ValueError):
        theorem_sequence("nope", 5)


def test_cycle_interval_reference_refuses_past_its_ceiling_at_once(monkeypatch):
    def no_filter(*args, **kwargs):
        raise AssertionError("the reference counted before the ceiling check")

    monkeypatch.setattr(theorems, "count_cycle_interval_perms", no_filter)
    with pytest.raises(CeilingExceeded) as info:
        theorem_sequence("thm-2.6", 11)
    assert info.value.ceiling == DEFAULT_CEILING


def test_stored_prefix_checks_refuse_past_the_ceiling_before_counting(monkeypatch):
    def no_count(*args, **kwargs):
        raise AssertionError("counted before the ceiling check")

    monkeypatch.setattr(theorems, "count_avoiders_prefix", no_count)
    for theorem_id in ("thm-3.16", "thm-3.17", "thm-3.21"):
        with pytest.raises(CeilingExceeded):
            verify_theorem(theorem_id, DEFAULT_CEILING + 1)
    with pytest.raises(CeilingExceeded):
        check_conjecture("A216879", DEFAULT_CEILING + 1)


@pytest.mark.parametrize("theorem_id", [f"thm-2.{i}" for i in range(2, 7)])
def test_family_formulas_at_lengths_not_catalogued(theorem_id):
    # FAMILY_KS checks only k = 4 and 5; these lengths exercise the
    # formulas' dependence on k.
    entry = get_theorem(theorem_id)
    for k in (3, 6, 7):
        brute = count_avoiders_prefix(entry.pop(k), 9).counts
        assert tuple(theorem_sequence(theorem_id, 9, k=k)) == brute, k


def test_family_entries_register_two_lengths():
    for theorem_id in ("thm-2.2", "thm-2.3", "thm-2.4", "thm-2.5", "thm-2.6"):
        entry = get_theorem(theorem_id)
        assert entry.registered_ks() == (4, 5)
        assert entry.pop(4).k == 4
        assert entry.pop(5).k == 5
        # The factory also builds the POP at a length not catalogued.
        assert entry.pop(6).k == 6


@pytest.mark.parametrize("theorem_id", [f"thm-2.{i}" for i in range(2, 7)])
def test_family_refuses_more_labels_than_the_board_before_building_its_pop(theorem_id):
    # As parse_pop does, before the factory builds a k x k order matrix.
    entry = get_theorem(theorem_id)
    assert entry.pop(MAX_COMPILED_K).k == MAX_COMPILED_K
    message = f"POPs have at most {MAX_COMPILED_K} labels, got k=22"
    with pytest.raises(PopError, match=message):
        entry.pop(22)
    with pytest.raises(PopError, match=message):
        verify_theorem(theorem_id, 5, k=22)
    with pytest.raises(PopError, match=message):
        parse_pop("k=22;")
    # A formula builds no POP, so it takes any length.
    assert len(theorem_sequence(theorem_id, 5, k=22)) == 6


def test_fixed_entries_have_consistent_pop_lengths():
    for theorem_id in all_theorem_ids():
        entry = get_theorem(theorem_id)
        for k in entry.registered_ks():
            assert entry.pop(k).k == k
            assert len(entry.prefix(k)) >= 8


def test_stored_counts_keys_are_canonical():
    for text in STORED_COUNTS:
        assert parse_pop(text).to_text() == text


def test_every_stored_record_is_reached():
    # Each registered (entry, k) finding a record of at least 8 terms is
    # checked by test_fixed_entries_have_consistent_pop_lengths; the
    # conjectures reach the other records.
    reached = set(CONJECTURES)
    for theorem_id in all_theorem_ids():
        entry = get_theorem(theorem_id)
        for k in entry.registered_ks():
            text = entry.pop(k).to_text()
            assert text in STORED_COUNTS, (theorem_id, k)
            reached.add(text)
    assert reached == set(STORED_COUNTS)


def test_every_formula_matches_stored_prefix():
    for theorem_id in all_theorem_ids():
        entry = get_theorem(theorem_id)
        if not entry.has_formula:
            continue
        for k in entry.registered_ks():
            prefix = entry.prefix(k)
            built = entry.sequence(len(prefix), k)
            assert built[0] == 1
            assert tuple(built[1:]) == prefix, (theorem_id, k)


def test_sequences_start_at_one_and_grow_sanely():
    for theorem_id in all_theorem_ids():
        entry = get_theorem(theorem_id)
        for k in entry.registered_ks():
            prefix = entry.prefix(k)
            assert prefix[0] == 1
            assert all(b >= a for a, b in zip(prefix, prefix[1:]))


def test_correction_notes_present():
    assert any("114" in note and "134" in note for note in get_theorem("thm-3.6").notes)
    for theorem_id in ("thm-2.5", "thm-3.20"):
        notes = get_theorem(theorem_id).notes
        assert any(
            "Fibonacci" in note and "20 rather than 12" in note for note in notes
        )
    assert any("1348" in note for note in get_theorem("thm-3.14").notes)


# ----------------------------------------------------------------------
# Verification reports


def test_verify_theorem_report_fields():
    report = verify_theorem("thm-2.3", n_max=6)
    assert report.theorem_id == "thm-2.3"
    assert report.k == 4
    assert report.passed
    assert report.prefix_consistent
    assert [r.n for r in report.rows] == list(range(7))
    assert all(r.match for r in report.rows)
    doc = report.to_json()
    assert doc["schema"] == 1
    assert doc["id"] == "thm-2.3"
    assert doc["passed"] is True
    assert list(doc["rows"][0]) == ["n", "formula_value", "brute_value", "match"]
    assert "PASS" in report.to_text()


def test_verify_theorem_at_other_length():
    report = verify_theorem("thm-2.6", n_max=6, k=5)
    assert report.k == 5
    assert report.passed


@pytest.mark.parametrize("k", [4, 5])
def test_cycle_interval_bijection_holds_at_the_ceiling(k):
    assert verify_theorem("thm-2.6", DEFAULT_CEILING, k=k).passed


def test_family_at_an_uncatalogued_length_reports_no_prefix_check():
    # STORED_COUNTS holds no record for thm-2.2 at k = 6: nothing is compared.
    assert get_theorem("thm-2.2").prefix(6) == ()
    report = verify_theorem("thm-2.2", 7, k=6)
    assert report.prefix_consistent is None
    assert report.to_json()["prefix_consistent"] is None
    assert report.passed
    assert "no catalogued prefix" in report.to_text()
    assert all(r.prefix_consistent is True for r in verify_all(5))


def test_verify_entry_without_formula_uses_stored_prefix():
    report = verify_theorem("thm-3.17", n_max=8)
    assert report.passed
    assert report.rows[1].formula_value == report.rows[1].brute_value


def test_residual_reported_for_algebraic_entries():
    report = verify_theorem("thm-3.16", n_max=7)
    assert report.residual_zero is True
    report = verify_theorem("thm-2.3", n_max=5)
    assert report.residual_zero is None
    # Exactly the two entries that carry a residual check report one.
    residuals = {r.theorem_id: r.residual_zero for r in verify_all(5)}
    checked = {i: zero for i, zero in residuals.items() if zero is not None}
    assert checked == {"thm-3.14": True, "thm-3.16": True}


def test_verify_all_counts_each_distinct_pop_once(monkeypatch):
    counted = []
    real = theorems.count_avoiders_prefix

    def spy(pop, n_max, **kwargs):
        counted.append(pop)
        return real(pop, n_max, **kwargs)

    monkeypatch.setattr(theorems, "count_avoiders_prefix", spy)
    reports = verify_all(6)
    assert all(r.passed for r in reports)
    pops = {THEOREMS[r.theorem_id].pop(r.k) for r in reports}
    assert len(reports) == 39 and len(pops) == 30
    assert sorted(counted, key=str) == sorted(pops, key=str)
    # No count outlives the call.
    verify_all(5)
    assert len(counted) == 60


# ----------------------------------------------------------------------
# Conjectures


def test_conjecture_table():
    assert len(CONJECTURES) == 6
    a_numbers = [STORED_COUNTS[text][0] for text in CONJECTURES]
    assert len(set(a_numbers)) == 6
    assert all(len(ids) == 1 for ids in a_numbers)
    for text in CONJECTURES:
        assert parse_pop(text).k == 5
        assert STORED_COUNTS[text][1][:4] == (1, 2, 6, 24)


def test_check_conjecture_quickly():
    report = check_conjecture("A216879", n_max=5)
    assert report.supported
    assert report.status == "SUPPORTED (n <= 5)"
    doc = report.to_json()
    assert doc["schema"] == 1
    assert doc["a_number"] == "A216879"


def test_check_all_conjectures_quickly():
    reports = check_all_conjectures(n_max=5)
    assert len(reports) == 6
    assert all(r.supported for r in reports)


def test_check_unknown_conjecture():
    with pytest.raises(ValueError):
        check_conjecture("A000001")


# ----------------------------------------------------------------------
# Spot values from the catalogue


@pytest.mark.parametrize(
    "theorem_id,k,values",
    [
        ("thm-2.3", 4, (1, 2, 6, 20, 68, 232, 792)),
        ("thm-2.5", 4, (1, 2, 6, 12, 25, 48, 91)),
        ("thm-3.15", 4, (1, 2, 6, 21, 79, 311, 1265, 5275)),
        ("thm-3.14", 4, (1, 2, 6, 21, 80, 322, 1347, 5798)),
        ("thm-3.16", 4, (1, 2, 6, 21, 80, 322, 1346, 5783)),
    ],
)
def test_catalogue_spot_values(theorem_id, k, values):
    assert get_theorem(theorem_id).prefix(k)[: len(values)] == values

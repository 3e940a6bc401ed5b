from __future__ import annotations

import os
import random

import pytest

from poplab.oeis import (
    OeisDb,
    OeisError,
    OeisFormatWarning,
    bundled_path,
    load_stripped,
    Match,
    match_sequence,
    match_sequences,
    resolve_db,
)

# ----------------------------------------------------------------------
# Parsing


def write(tmp_path, text: str, name: str = "stripped"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def test_load_bundled_snapshot():
    db = load_stripped(bundled_path())
    assert len(db) == 38
    assert "A033321" in db
    assert db["A033321"][:6] == (1, 2, 6, 21, 79, 311)
    assert db.a_numbers() == sorted(db.a_numbers())


def test_load_simple_file(tmp_path):
    path = write(tmp_path, "# header\n\nA000045 ,1,1,2,3,5,8,\n")
    db = load_stripped(path)
    assert len(db) == 1
    assert db["A000045"] == (1, 1, 2, 3, 5, 8)


def test_load_accepts_crlf_and_negative_terms(tmp_path):
    path = write(tmp_path, "A000001 ,1,-2,3,\r\nA000002 ,0,0,1,\r\n")
    db = load_stripped(path)
    assert db["A000001"] == (1, -2, 3)
    assert db["A000002"] == (0, 0, 1)


def test_load_rejects_byte_order_mark(tmp_path):
    path = tmp_path / "stripped"
    path.write_bytes(b"\xef\xbb\xbfA000045 ,1,1,2,\n")
    with pytest.raises(OeisError):
        load_stripped(path)


def test_load_rejects_malformed_payload(tmp_path):
    path = write(tmp_path, "A000045 1,1,2\n")
    with pytest.raises(OeisError) as info:
        load_stripped(path)
    assert ":1:" in str(info.value)


def test_load_rejects_duplicates(tmp_path):
    path = write(tmp_path, "A000045 ,1,1,\nA000045 ,1,2,\n")
    with pytest.raises(OeisError) as info:
        load_stripped(path)
    assert "A000045" in str(info.value)


def test_load_rejects_empty(tmp_path):
    path = write(tmp_path, "# only comments\n")
    with pytest.raises(OeisError):
        load_stripped(path)


def test_load_warns_on_stray_text(tmp_path):
    path = write(tmp_path, "stray words\nA000045 ,1,1,2,\n")
    with pytest.warns(OeisFormatWarning):
        db = load_stripped(path)
    assert len(db) == 1


def test_load_missing_file():
    with pytest.raises(OeisError):
        load_stripped("/no/such/file")


# ----------------------------------------------------------------------
# Database resolution


def test_resolve_db_precedence(tmp_path, monkeypatch):
    env_file = write(tmp_path, "A000001 ,1,2,\n", name="env_stripped")
    arg_file = write(tmp_path, "A000002 ,3,4,\n", name="arg_stripped")
    monkeypatch.delenv("POPLAB_OEIS", raising=False)
    assert len(resolve_db()) == 38
    monkeypatch.setenv("POPLAB_OEIS", str(env_file))
    assert resolve_db().a_numbers() == ["A000001"]
    assert resolve_db(arg_file).a_numbers() == ["A000002"]


# ----------------------------------------------------------------------
# Matching


def db_from(entries: dict[str, tuple[int, ...]]) -> OeisDb:
    return OeisDb(entries)


def test_match_exact():
    db = db_from({"A000045": (1, 1, 2, 3, 5, 8, 13, 21, 34)})
    matches = match_sequence(db, [1, 1, 2, 3, 5, 8, 13, 21, 34])
    assert [(m.a_number, m.shift, m.dropped, m.overlap) for m in matches] == [
        ("A000045", 0, 0, 9)
    ]


def test_match_with_shift():
    # The database row carries two extra leading terms.
    db = db_from({"A000079": (1, 2, 4, 8, 16, 32, 64, 128, 256)})
    matches = match_sequence(db, [4, 8, 16, 32, 64, 128, 256])
    assert [(m.a_number, m.shift, m.dropped) for m in matches] == [("A000079", 2, 0)]


def test_match_with_dropped_leading_terms():
    # The computed terms carry two extra leading values.
    db = db_from({"A000079": (4, 8, 16, 32, 64, 128, 256)})
    matches = match_sequence(db, [1, 2, 4, 8, 16, 32, 64, 128, 256])
    assert [(m.a_number, m.shift, m.dropped) for m in matches] == [("A000079", 0, 2)]


def test_match_offset_convention_with_leading_zeros():
    # Rows that count from n = 0 with a few zero terms are still found
    # by shifting, the way polynomial sequences are usually catalogued.
    db = db_from({"A007531": (0, 0, 0, 6, 24, 60, 120, 210, 336, 504, 720)})
    terms = [1, 2, 6, 24, 60, 120, 210, 336, 504]
    matches = match_sequence(db, terms)
    assert [(m.a_number, m.shift, m.dropped, m.overlap) for m in matches] == [
        ("A007531", 3, 2, 7)
    ]


def test_match_requires_minimum_overlap():
    db = db_from({"A000045": (1, 1, 2, 3, 5, 8)})
    with pytest.raises(OeisError, match="too few terms"):
        match_sequence(db, [1, 1, 2, 3, 5, 8])
    assert match_sequence(db, [1, 1, 2, 3, 5, 8], min_overlap=6) != []
    # A stored row that is too short is simply not a match; only the
    # computed side has a hard minimum.
    assert match_sequence(db, [1, 1, 2, 3, 5, 8, 13]) == []


def test_match_rejects_disagreement():
    db = db_from({"A000045": (1, 1, 2, 3, 5, 8, 13, 21, 35)})
    assert match_sequence(db, [1, 1, 2, 3, 5, 8, 13, 21, 34]) == []


def test_match_bounds_shift():
    db = db_from({"A000012": tuple([9] * 6 + [1] * 8)})
    assert match_sequence(db, [1] * 8) == []
    found = match_sequence(db, [1] * 8, max_shift=6)
    assert [(m.a_number, m.shift) for m in found] == [("A000012", 6)]


def test_match_orders_results_by_shift_then_a_number():
    db = db_from(
        {
            "A000002": (1, 2, 4, 8, 16, 32, 64, 128),
            "A000001": (1, 1, 2, 4, 8, 16, 32, 64, 128),
        }
    )
    matches = match_sequence(db, [1, 2, 4, 8, 16, 32, 64, 128])
    assert [(m.a_number, m.shift, m.dropped) for m in matches] == [
        ("A000002", 0, 0),
        ("A000001", 1, 0),
    ]


def test_match_on_bundled_rows_recovers_their_a_numbers():
    db = load_stripped(bundled_path())
    for a_number in ("A006012", "A033321", "A111004"):
        if a_number not in db:
            continue
        matches = match_sequence(db, list(db[a_number][:9]))
        assert a_number in [m.a_number for m in matches]


def test_match_is_deterministic():
    db = load_stripped(bundled_path())
    terms = [1, 2, 6, 21, 79, 311, 1265, 5275, 22431]
    first = match_sequence(db, terms)
    assert first == match_sequence(db, terms)
    assert all(m.overlap >= 7 for m in first)


# ----------------------------------------------------------------------
# Batch matching against a linear reference


def linear_match(db, terms, *, min_overlap, max_shift):
    """Oracle: try every (drop, shift) alignment against every row in turn."""
    computed = tuple(terms)
    found = []
    for a_number, stored in db.items():
        best = None
        for dropped in range(max_shift + 1):
            block = computed[dropped:]
            if len(block) < min_overlap:
                break
            for shift in range(max_shift + 1):
                ncmp = min(len(block), len(stored) - shift)
                if ncmp < min_overlap:
                    break
                if block[:ncmp] == stored[shift : shift + ncmp]:
                    best = Match(a_number, shift, dropped, ncmp)
                    break
            if best is not None:
                break
        if best is not None:
            found.append(best)
    found.sort(key=lambda m: (m.shift, m.a_number))
    return found


def synthetic_db(tmp_path, seed: int):
    """A seeded stripped file of a few thousand rows, and queries whose
    matches sit at every shift and drop up to 4."""
    rng = random.Random(seed)
    bases = [tuple(rng.randrange(1, 10**6) for _ in range(12)) for _ in range(6)]
    queries = [list(base[:9]) for base in bases]
    # Leading junk in the query: only dropping 1 to 4 terms aligns it.
    queries += [[rng.randrange(10**6, 2 * 10**6)] * d + list(base[:9]) for d, base in zip(range(1, 5), bases)]
    # A small alphabet, so windows recur within and across rows.
    queries += [[rng.randrange(2) for _ in range(rng.randrange(7, 12))] for _ in range(12)]
    queries += [[1, 2] * 5, [7] * 9]
    queries += queries[:3]  # duplicates in one batch
    rows = []
    for base in bases:
        for shift in range(6):
            junk = [rng.randrange(2 * 10**6, 3 * 10**6) for _ in range(shift)]
            rows.append(junk + list(base))
            near = list(base)
            near[rng.randrange(7, 12)] += 1  # shares a window, fails the overlap
            rows.append(junk + near)
        rows.append(list(base[:8]))  # too short for shifts past 1
    rows += [[2, 1] * 6, [1, 2] * 4, [7] * 14, [5, 5] + [7] * 7]  # windows at two shifts
    rows += [[rng.randrange(2) for _ in range(rng.randrange(1, 15))] for _ in range(2500)]
    rows += [[rng.randrange(10**3) for _ in range(rng.randrange(1, 15))] for _ in range(500)]
    rng.shuffle(rows)
    text = "".join(f"A{i:06d} ,{','.join(map(str, row))},\n" for i, row in enumerate(rows))
    path = tmp_path / "stripped"
    path.write_text("# seeded synthetic rows\n" + text)
    return load_stripped(path), queries


@pytest.mark.parametrize("min_overlap,max_shift", [(7, 4), (5, 2), (8, 6)])
def test_match_sequences_equals_linear_reference(tmp_path, min_overlap, max_shift):
    db, queries = synthetic_db(tmp_path, seed=2024)
    queries = [q for q in queries if len(q) >= min_overlap]
    kw = {"min_overlap": min_overlap, "max_shift": max_shift}
    want = [linear_match(db, q, **kw) for q in queries]
    assert match_sequences(db, queries, **kw) == want
    assert [match_sequence(db, q, **kw) for q in queries[:8]] == want[:8]
    found = [m for matches in want for m in matches]
    assert {m.shift for m in found} == set(range(max_shift + 1))
    assert {m.dropped for m in found} >= set(range(min(max_shift, 4) + 1))


def test_match_prefers_smaller_drop_at_a_later_shift():
    # Dropping one term aligns at shift 0, dropping none at shift 1.
    db = db_from({"A000001": (2, 1, 2, 1, 2, 1, 2, 1, 2, 1)})
    terms = [1, 2, 1, 2, 1, 2, 1, 2, 1]
    [matches] = match_sequences(db, [terms])
    assert [(m.shift, m.dropped, m.overlap) for m in matches] == [(1, 0, 9)]


def test_match_sequences_empty_batch():
    db = load_stripped(bundled_path())
    assert match_sequences(db, []) == []


def test_match_rejects_bad_parameters():
    db = db_from({"A000045": (1, 1, 2, 3, 5, 8, 13, 21, 34)})
    terms = [1, 1, 2, 3, 5, 8, 13, 21, 34]
    for match in (match_sequence, lambda db, t, **kw: match_sequences(db, [t], **kw)):
        with pytest.raises(ValueError, match="min_overlap"):
            match(db, terms, min_overlap=0)
        with pytest.raises(ValueError, match="max_shift"):
            match(db, terms, max_shift=-1)


def test_match_sequences_short_query_anywhere_raises():
    db = db_from({"A000045": (1, 1, 2, 3, 5, 8, 13, 21, 34)})
    good = [1, 1, 2, 3, 5, 8, 13, 21, 34]
    with pytest.raises(OeisError, match="too few terms"):
        match_sequences(db, [good, good[:6], good])

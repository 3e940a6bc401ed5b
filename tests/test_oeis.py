from __future__ import annotations

import os
import random
import re
import sys
import warnings
from pathlib import Path

import pytest

from poplab import oeis
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
# Loading against a per-line reference


def reference_load(path):
    """Oracle: read every line, and parse every term of every row to int."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if text.startswith("\ufeff"):
        raise OeisError(f"{path} begins with a byte-order mark")
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.fullmatch(r"(A\d{6,7})\s+(.*)", line)
        if not m:
            warnings.warn(
                f"{path}:{lineno}: skipping stray text line",
                OeisFormatWarning,
                stacklevel=2,
            )
            continue
        a_number, payload = m.group(1), m.group(2)
        if a_number in entries:
            raise OeisError(f"{path}:{lineno}: duplicate entry {a_number}")
        if not (payload.startswith(",") and payload.endswith(",")):
            raise OeisError(
                f"{path}:{lineno}: terms must be wrapped in commas: {payload!r}"
            )
        body = payload[1:-1]
        if not body:
            raise OeisError(f"{path}:{lineno}: {a_number} has no terms")
        try:
            terms = tuple(map(int, body.split(",")))
        except ValueError:
            raise OeisError(
                f"{path}:{lineno}: non-integer term in {a_number}"
            ) from None
        entries[a_number] = terms
    if not entries:
        raise OeisError(f"{path} contains no sequences")
    return entries


def outcome(load, path):
    """The rows or error text of one load, and its warnings with the
    place each names as its caller."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = dict(load(path).items())
        except OeisError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def random_stripped(rng: random.Random, canonical: bool) -> str:
    """A seeded stripped file: rows of small, negative and long terms,
    comments and blank lines and, unless canonical, terms, separators
    and line ends that int() and the careful pass accept in other
    spellings."""
    def spell(t):
        if canonical or rng.random() < 0.7:
            return str(t)
        sign = "-" if t < 0 else rng.choice(("", "+"))
        digits = "0" * rng.randrange(3) + str(abs(t))
        return rng.choice(("", " ", "\t")) + sign + digits + rng.choice(("", " ", "\t"))

    lines = ["# seeded rows"]
    for i in rng.sample(range(10**6), rng.randrange(1, 40)):
        terms = [
            rng.choice((0, 1, -1, rng.randrange(-10**6, 10**6), rng.randrange(10**40)))
            for _ in range(rng.randrange(1, 12))
        ]
        payload = "," + ",".join(map(spell, terms)) + ","
        if not canonical and rng.random() < 0.1:
            payload = payload.replace(",0,", ",-0,")
        sep = " " if canonical else rng.choice((" ", " ", "\t", "  "))
        lines.append(f"A{i:0{rng.choice((6, 7))}d}{sep}{payload}")
        if rng.random() < 0.15:
            lines.append(rng.choice(("", "# comment, 1,2,3", "#")))
        if not canonical and rng.random() < 0.1:
            lines.append(rng.choice(("   ", "\t# indented comment")))
    newline = "\r\n" if not canonical and rng.random() < 0.5 else "\n"
    return newline.join(lines) + newline


def check_load(path):
    """load_stripped agrees with the reference on rows, warnings and
    errors, and keeps each row as canonical text, which the matcher's
    prefilter compares."""
    want = outcome(reference_load, path)
    assert outcome(load_stripped, path) == want
    rows = want[0]
    if isinstance(rows, dict):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stored = load_stripped(path)._rows
        assert stored == {a: "," + "".join(f"{t}," for t in terms) for a, terms in rows.items()}
    return want


@pytest.mark.parametrize("canonical", [True, False])
def test_load_equals_per_line_reference(tmp_path, canonical):
    rng = random.Random(1903)
    for trial in range(40):
        path = write(tmp_path, random_stripped(rng, canonical), name=f"stripped{trial}")
        rows, caught = check_load(path)
        assert isinstance(rows, dict) and caught == []


@pytest.mark.parametrize(
    "spelling", ["05", "00", "+5", "+0", "-0", "-05", " 5", "5\t", "1_000", "\u0665"]
)
def test_load_reads_each_other_spelling_as_its_int(tmp_path, spelling):
    path = write(tmp_path, f"A000001 ,1,-2,\nA000002 ,3,{spelling},4,\n")
    rows, caught = check_load(path)
    assert rows["A000002"] == (3, int(spelling), 4)


# Canonical rows come first, so that an error's line number is not 1.
HEAD = "# header\nA000001 ,1,2,\nA000002 ,-3,0,\n"
LOAD_ERRORS = {
    "duplicate": HEAD + "A000010 ,1,\nA000010 ,2,\n",
    "unwrapped payload": HEAD + "A000010 1,2,\n",
    "no terms": HEAD + "A000010 ,\n",
    "empty term": HEAD + "A000010 ,1,,2,\n",
    "non-integer term": HEAD + "A000010 ,1,2x,\n",
    "5000-digit term": HEAD + "A000010 ,1," + "9" * 5000 + ",\n",
    "stray line": HEAD + "stray words\nA000010 ,1,\n",
    "byte-order mark": "\ufeff" + HEAD,
    "no rows": "# only comments\n\n",
}


@pytest.mark.parametrize("case", sorted(LOAD_ERRORS))
def test_load_errors_equal_per_line_reference(tmp_path, case):
    rows, caught = check_load(write(tmp_path, LOAD_ERRORS[case]))
    if case == "stray line":
        assert [(c, f) for c, _, f, _ in caught] == [(OeisFormatWarning, __file__)]
        assert len(rows) == 3
    elif case == "5000-digit term" and not getattr(sys, "get_int_max_str_digits", int)():
        assert len(rows) == 3
    else:
        assert isinstance(rows, str) and caught == []


# Every line boundary that str.splitlines honours besides "\n" (a file
# read as text turns "\r" and "\r\n" into "\n" before either pass sees it).
LINE_BOUNDARIES = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BOUNDARY_PLACES = {
    "row": "A000010 ,1,{}2,\n",
    "comment": "# was{}A000010 ,5,6,\n",
    "blank": "{}\n",
}


@pytest.mark.parametrize("place", sorted(BOUNDARY_PLACES))
@pytest.mark.parametrize("boundary", LINE_BOUNDARIES, ids=ascii)
def test_load_splits_lines_where_the_reference_does(tmp_path, boundary, place):
    rows, caught = check_load(write(tmp_path, HEAD + BOUNDARY_PLACES[place].format(boundary)))
    assert isinstance(rows, dict) and len(rows) == 2 + (place != "blank")


@pytest.mark.parametrize("ending", ["", "\n\n", "\n\n\n"], ids=["no-final-newline", "1-blank", "2-blank"])
def test_load_file_endings_equal_per_line_reference(tmp_path, ending):
    rows, caught = check_load(write(tmp_path, HEAD[:-1] + ending))
    assert len(rows) == 2 and caught == []


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-string digit cap"
)
def test_load_refuses_term_past_int_digit_cap(tmp_path):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        path = write(tmp_path, "A000001 ,1," + "9" * 4301 + ",\n")
        with pytest.raises(OeisError, match=":1: non-integer term in A000001"):
            load_stripped(path)
        assert load_stripped(write(tmp_path, "A000001 ,1," + "9" * 4300 + ",\n", name="cap"))
    finally:
        sys.set_int_max_str_digits(old)


def test_canonical_files_skip_the_careful_pass(tmp_path, monkeypatch):
    def careful(path, text):
        raise AssertionError(f"{path} went to the careful pass")

    monkeypatch.setattr(oeis, "_careful_rows", careful)
    assert len(load_stripped(bundled_path())) == 38
    for i, text in enumerate([HEAD.replace("\n", "\r\n"), HEAD[:-1], HEAD + "\n\n"]):
        path = write(tmp_path, text, name=f"head{i}")
        assert load_stripped(path).a_numbers() == ["A000001", "A000002"]
    rng = random.Random(2019)
    for trial in range(10):
        load_stripped(write(tmp_path, random_stripped(rng, True), name=f"s{trial}"))


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


def synthetic_rows(seed: int):
    """Seeded rows of a few thousand sequences; queries whose matches sit
    at every shift and drop up to 4; and decoy rows, which hold a query
    window's last term at every position the prefilter reads but align
    with no query at any shift."""
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
    entries = {f"A{i:06d}": tuple(row) for i, row in enumerate(rows)}
    # Terms 6, 7 and 8 are the last terms of the windows of base[:9] at
    # min_overlap 7, 5 and 8; the junk before them matches no query term.
    decoys = {
        f"A{900000 + i}": tuple(rng.randrange(4 * 10**6, 5 * 10**6) for _ in range(6)) + base[6:9]
        for i, base in enumerate(bases)
    }
    entries.update(decoys)
    return entries, queries, set(decoys)


def write_rows(path, entries, spell=str):
    text = "".join(f"{a} ,{','.join(map(spell, row))},\n" for a, row in entries.items())
    path.write_text("# seeded synthetic rows\n" + text)
    return path


def respell(rng: random.Random):
    """Spell a term as int() reads it, but not canonically."""
    return lambda t: rng.choice(("0{}", "+{}", " {}", "{}\t", "00{}")).format(t)


@pytest.mark.parametrize("min_overlap,max_shift", [(7, 4), (5, 2), (8, 6)])
def test_match_sequences_equals_linear_reference(tmp_path, monkeypatch, min_overlap, max_shift):
    entries, queries, decoys = synthetic_rows(seed=2024)
    dbs = {
        "canonical file": load_stripped(write_rows(tmp_path / "canonical", entries)),
        # Every term is respelled, so this file goes through the careful pass.
        "respelled file": load_stripped(
            write_rows(tmp_path / "respelled", entries, respell(random.Random(7)))
        ),
        "in memory": OeisDb(entries),
    }
    queries = [q for q in queries if len(q) >= min_overlap]
    kw = {"min_overlap": min_overlap, "max_shift": max_shift}
    want = [linear_match(dbs["in memory"], q, **kw) for q in queries]
    parse = oeis._terms
    for name, db in dbs.items():
        assert dict(db.items()) == entries, name
        parsed = []
        monkeypatch.setattr(oeis, "_terms", lambda text: parsed.append(text) or parse(text))
        got = match_sequences(db, queries, **kw)
        monkeypatch.undo()
        assert got == want, name
        # Each decoy passes the prefilter, and the int comparison rejects it.
        assert {db._rows[a] for a in decoys} <= set(parsed), name
        assert len(parsed) < len(db), name
    db = dbs["canonical file"]
    assert [match_sequence(db, q, **kw) for q in queries[:8]] == want[:8]
    found = [m for matches in want for m in matches]
    assert decoys.isdisjoint(m.a_number for m in found)
    assert {m.shift for m in found} == set(range(max_shift + 1))
    assert {m.dropped for m in found} >= set(range(min(max_shift, 4) + 1))


def test_match_prefers_smaller_drop_at_a_later_shift():
    # Dropping one term aligns at shift 0, dropping none at shift 1.
    db = db_from({"A000001": (2, 1, 2, 1, 2, 1, 2, 1, 2, 1)})
    terms = [1, 2, 1, 2, 1, 2, 1, 2, 1]
    [matches] = match_sequences(db, [terms])
    assert [(m.shift, m.dropped, m.overlap) for m in matches] == [(1, 0, 9)]


def test_match_query_term_past_int_digit_cap_matches_nothing():
    # No stored term may pass the int-string cap, so a window ending in
    # such a term matches no row; the rest of the query still can.
    huge = 10**5000
    db = db_from({"A000001": (1, 2, 3, 4, 5, 6, 7)})
    assert match_sequence(db, [1, 2, 3, 4, 5, 6, huge]) == []
    matches = match_sequence(db, [huge, 1, 2, 3, 4, 5, 6, 7], min_overlap=1)
    assert [(m.a_number, m.shift, m.dropped, m.overlap) for m in matches] == [
        ("A000001", 0, 1, 7)
    ]


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

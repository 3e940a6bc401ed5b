"""Loading OEIS-style "stripped" files and matching count sequences.

The stripped format is one sequence per line::

    A000108 ,1,1,2,5,14,42,132,429,...,

with ``#`` comment lines.  A small frozen snapshot ships with the
package; a different file can be supplied explicitly or through the
``POPLAB_OEIS`` environment variable.
"""

from __future__ import annotations

import os
import re
import sys
import warnings
from contextlib import suppress
from importlib import resources
from operator import index
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

ENV_VAR = "POPLAB_OEIS"
DEFAULT_MIN_OVERLAP = 7
DEFAULT_MAX_SHIFT = 4


class OeisError(ValueError):
    """Raised for an unreadable or malformed stripped file."""


class OeisFormatWarning(UserWarning):
    """Emitted when a stray non-sequence line is skipped."""


class Match(NamedTuple):
    """An alignment of computed terms with a stored sequence.

    ``shift`` is the index into the stored sequence where the aligned
    block begins; ``dropped`` is how many leading computed terms were
    skipped; ``overlap`` is how many terms were compared equal.
    """

    a_number: str
    shift: int
    dropped: int
    overlap: int


class OeisDb:
    """A map from A-numbers to term tuples.

    Each row is kept as its canonical text ``,t1,...,tn,``: every term
    written as ``str(operator.index(t))``, so equal terms have equal text
    and a float or a string term raises TypeError.  A row
    becomes a tuple of ints only when it is read (``db[a]``,
    ``items()``) or when ``match_sequences`` makes it a candidate.  As
    in a loaded file, no term may have more digits than the
    interpreter's int-string cap (``sys.get_int_max_str_digits()``).
    """

    def __init__(self, entries: dict[str, tuple[int, ...]], source: str = "<memory>"):
        self._rows = {a: _text(terms) for a, terms in entries.items()}
        self.source = source

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, a_number: str) -> bool:
        return a_number in self._rows

    def __getitem__(self, a_number: str) -> tuple[int, ...]:
        return _terms(self._rows[a_number])

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._rows))

    def a_numbers(self) -> list[str]:
        return sorted(self._rows)

    def items(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        return ((a, _terms(self._rows[a])) for a in sorted(self._rows))


def _text(terms: Sequence[int]) -> str:
    return ",".join(["", *map(str, map(index, terms)), ""])


def _terms(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(",")[1:-1]))


_LINE_RE = re.compile(r"(A\d{6,7})\s+(.*)")
# One line as the fast pass takes it: a row, before its terms are checked,
# a comment with no other line boundary that str.splitlines honours, or blank.
_CANONICAL_LINE_RE = re.compile(
    r"^(?:(A[0-9]{6,7}) (,.*,)|#[^\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029\n]*|)$", re.M
)
_TERM_CHARS = b"0123456789,-\n"
_NONZERO_TO_ONE = bytes.maketrans(b"123456789", b"111111111")
# An empty term or a leading zero, once every nonzero digit reads 1.
_EMPTY_OR_LEADING_ZERO = re.compile(rb",(?:,|0[01])")


def _canonical_rows(text: str) -> dict[str, str] | None:
    """The rows of a file whose lines are all comments, blank, or rows
    ``A... ,t1,...,tn,`` with canonical terms and unique A-numbers, and
    whose payloads fit the interpreter's int-string digit cap, if any;
    None for any other file."""
    found = _CANONICAL_LINE_RE.findall(text)
    # Each line between newlines yields one match exactly when it fits.
    if len(found) != text.count("\n") + 1:
        return None
    rows = dict(found)
    rows.pop("", None)
    if not rows or len(rows) != len(found) - found.count(("", "")):
        return None
    data = "\n".join(rows.values()).encode()
    if data.translate(None, _TERM_CHARS):
        return None
    data = data.translate(_NONZERO_TO_ONE)
    if _EMPTY_OR_LEADING_ZERO.search(data):
        return None
    # Each minus sign starts a term and precedes a nonzero digit.
    if b"-" in data and data.count(b"-") != data.count(b",-1"):
        return None
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap and max(map(len, rows.values())) > cap:
        return None
    return rows


def load_stripped(path: str | Path) -> OeisDb:
    """Parse a stripped file into an OeisDb.

    Comment and blank lines are skipped silently; stray text lines are
    skipped with an OeisFormatWarning; a malformed sequence line, a
    byte-order mark, or a file with no sequences at all is an error.

    A file of canonical rows (one space after the A-number, every term
    spelled ``-?(0|[1-9][0-9]*)`` but never ``-0``) is taken in one
    fast pass that parses no term.  Any other file goes whole to the
    careful pass, which parses every term and reports each problem
    with its line number.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OeisError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise OeisError(f"{path} is not UTF-8 text: {exc}") from exc
    if text.startswith("﻿"):
        raise OeisError(f"{path} begins with a byte-order mark")
    db = OeisDb({}, source=str(path))
    db._rows = _canonical_rows(text) or _careful_rows(path, text)
    return db


def _careful_rows(path: Path, text: str) -> dict[str, str]:
    """Parse each line's terms to ints, as canonical row text."""
    entries: dict[str, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.fullmatch(line)
        if not m:
            warnings.warn(
                f"{path}:{lineno}: skipping stray text line",
                OeisFormatWarning,
                stacklevel=3,  # the caller of load_stripped
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
    return {a: _text(terms) for a, terms in entries.items()}


def bundled_path() -> Path:
    """Location of the snapshot that ships with the package."""
    return Path(str(resources.files("poplab").joinpath("data/stripped")))


def resolve_db(path: str | Path | None = None) -> OeisDb:
    """Load the database ``path``, the ``POPLAB_OEIS`` file, or the
    bundled snapshot, in that order of preference."""
    if path is None:
        path = os.environ.get(ENV_VAR) or bundled_path()
    return load_stripped(path)


def match_sequence(
    db: OeisDb,
    terms: Sequence[int],
    *,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
    max_shift: int = DEFAULT_MAX_SHIFT,
) -> list[Match]:
    """Find stored sequences consistent with one run of computed terms;
    see ``match_sequences``."""
    return match_sequences(db, [terms], min_overlap=min_overlap, max_shift=max_shift)[0]


def match_sequences(
    db: OeisDb,
    queries: Sequence[Sequence[int]],
    *,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
    max_shift: int = DEFAULT_MAX_SHIFT,
) -> list[list[Match]]:
    """Find stored sequences consistent with each run of computed terms.

    Each query holds the counts from n = 1 upward.  For each stored
    sequence the matcher may skip up to ``max_shift`` leading stored
    terms (the shift) and up to ``max_shift`` leading computed terms
    (the drop), and it reports an alignment only when at least
    ``min_overlap`` terms compare equal.  Each A-number contributes at
    most one Match per query, the one minimizing (dropped, shift);
    each query's results come back sorted by (shift, A-number).  A
    query with fewer than ``min_overlap`` terms raises OeisError.

    The database is read once, and a row is parsed only when it can
    match.  A row aligns at shift s only if its term s + min_overlap - 1
    equals the last term of some query window, so a row none of whose
    terms min_overlap - 1 .. min_overlap - 1 + max_shift (0-based) is
    such a last term, compared as canonical text, is skipped unparsed.
    Each remaining row looks up its window at each shift in a dict of
    every query's allowed drops, and a hit counts only when the whole
    overlap compares equal as ints.  No index is kept between calls.
    """
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be positive, got {min_overlap}")
    if max_shift < 0:
        raise ValueError(f"max_shift must be nonnegative, got {max_shift}")
    blocks = [tuple(map(index, terms)) for terms in queries]
    windows: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for q, computed in enumerate(blocks):
        if len(computed) < min_overlap:
            raise OeisError(
                f"too few terms: got {len(computed)}, need at least {min_overlap}"
            )
        for dropped in range(min(max_shift, len(computed) - min_overlap) + 1):
            key = computed[dropped : dropped + min_overlap]
            windows.setdefault(key, []).append((q, dropped))
    # str() refuses a term past the int-string cap, and no stored term is one.
    lasts = set()
    for key in windows:
        with suppress(ValueError):
            lasts.add(str(key[-1]))
    # split(",") puts "" before a row's leading comma, so term i is part i + 1.
    first, stop = min_overlap, min_overlap + max_shift + 1
    found: list[list[Match]] = [[] for _ in blocks]
    for a_number, text in db._rows.items():
        if lasts.isdisjoint(text.split(",", stop)[first:stop]):
            continue
        stored = _terms(text)
        best: dict[int, Match] = {}
        # Shifts ascend, so a later hit wins only with a smaller drop.
        for shift in range(min(max_shift, len(stored) - min_overlap) + 1):
            for q, dropped in windows.get(stored[shift : shift + min_overlap], ()):
                block = blocks[q][dropped:]
                ncmp = min(len(block), len(stored) - shift)
                if block[:ncmp] == stored[shift : shift + ncmp] and (
                    q not in best or dropped < best[q].dropped
                ):
                    best[q] = Match(a_number, shift, dropped, ncmp)
        for q, match in best.items():
            found[q].append(match)
    for matches in found:
        matches.sort(key=lambda m: (m.shift, m.a_number))
    return found

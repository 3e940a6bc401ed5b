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
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, Sequence

ENV_VAR = "POPLAB_OEIS"
DEFAULT_MIN_OVERLAP = 7
DEFAULT_MAX_SHIFT = 4


class OeisError(ValueError):
    """Raised for an unreadable or malformed stripped file."""


class OeisFormatWarning(UserWarning):
    """Emitted when a stray non-sequence line is skipped."""


@dataclass(frozen=True)
class Match:
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
    """An in-memory map from A-numbers to term tuples."""

    def __init__(self, entries: dict[str, tuple[int, ...]], source: str = "<memory>"):
        self._entries = dict(entries)
        self.source = source

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, a_number: str) -> bool:
        return a_number in self._entries

    def __getitem__(self, a_number: str) -> tuple[int, ...]:
        return self._entries[a_number]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def a_numbers(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        return ((a, self._entries[a]) for a in sorted(self._entries))


_LINE_RE = re.compile(r"(A\d{6,7})\s+(.*)")


def load_stripped(path: str | Path) -> OeisDb:
    """Parse a stripped file into an OeisDb.

    Comment and blank lines are skipped silently; stray text lines are
    skipped with an OeisFormatWarning; a malformed sequence line, a
    byte-order mark, or a file with no sequences at all is an error.
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
    return OeisDb(entries, source=str(path))


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

    The database is read once: each row looks up its window at each
    shift in a dict of every query's allowed drops, and a hit counts
    only when the whole overlap compares equal.  No index is kept.
    """
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be positive, got {min_overlap}")
    if max_shift < 0:
        raise ValueError(f"max_shift must be nonnegative, got {max_shift}")
    blocks = [tuple(int(t) for t in terms) for terms in queries]
    windows: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for q, computed in enumerate(blocks):
        if len(computed) < min_overlap:
            raise OeisError(
                f"too few terms: got {len(computed)}, need at least {min_overlap}"
            )
        for dropped in range(min(max_shift, len(computed) - min_overlap) + 1):
            key = computed[dropped : dropped + min_overlap]
            windows.setdefault(key, []).append((q, dropped))
    found: list[list[Match]] = [[] for _ in blocks]
    for a_number, stored in db.items():
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

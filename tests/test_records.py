"""The record classes keep the behaviour of frozen dataclasses.

``CountSequence``, ``Match``, ``TheoremEntry``, ``VerifyRow``, ``Report``
and ``ConjectureReport`` are ``NamedTuple`` classes: each keeps its field
names and its ``Name(field=value, ...)`` repr, refuses assignment,
compares equal to a record built from the same fields, and survives a
pickle round trip, as a user may pickle the records (the pool itself
sends back plain counts by ``marshal``).
"""

from __future__ import annotations

import pickle

import pytest

from poplab.counting import CountSequence
from poplab.oeis import Match
from poplab.posets import parse_pop
from poplab.theorems import ConjectureReport, Report, TheoremEntry, VerifyRow

POP = parse_pop("k=3; 1>3")
ROWS = (VerifyRow(0, 1, 1, True), VerifyRow(1, 1, 1, True))

RECORDS = {
    "CountSequence": (CountSequence, ("pop", "counts"), (POP, (1, 1, 2, 5))),
    "Match": (Match, ("a_number", "shift", "dropped", "overlap"), ("A000108", 1, 0, 7)),
    "TheoremEntry": (
        TheoremEntry,
        ("id", "method", "builder", "notes", "fixed_pop", "pop_factory", "residual"),
        ("thm-0.0", "stored-prefix", None, ("a note",), POP, None, None),
    ),
    "VerifyRow": (VerifyRow, ("n", "formula_value", "brute_value", "match"), (2, 2, 2, True)),
    "Report": (
        Report,
        ("theorem_id", "method", "k", "rows", "prefix_consistent", "residual_zero", "notes"),
        ("thm-0.0", "stored-prefix", 3, ROWS, True, None, ()),
    ),
    "ConjectureReport": (
        ConjectureReport,
        ("a_number", "pop_text", "k", "rows"),
        ("A000108", "k=3; 1>3", 3, ROWS),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_keeps_its_dataclass_behaviour(name):
    cls, fields, values = RECORDS[name]
    record = cls(*values)
    assert cls._fields == fields
    shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
    assert repr(record) == f"{name}({shown})"
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    assert record == cls(**dict(zip(fields, values)))
    assert record != cls(*values)._replace(**{fields[1]: "other"})
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and again == record

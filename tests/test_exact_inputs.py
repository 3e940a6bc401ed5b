"""Integer and rational inputs are taken exactly, never truncated.

A permutation's values, a stored or queried OEIS term and a series
coefficient or scalar are read as ints (a series also takes Fractions);
a float or a string raises TypeError instead of being rounded or parsed.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from poplab.oeis import OeisDb, match_sequence
from poplab.perms import Permutation
from poplab.series import TruncatedSeries

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429)

ENTRY_POINTS = {
    "permutation": lambda bad: Permutation([bad, 1]),
    "stored_terms": lambda bad: OeisDb({"A000001": (bad, 2)}),
    "query_terms": lambda bad: match_sequence(
        OeisDb({"A000001": CATALAN}), [bad, 2, 5, 14, 42, 132, 429]
    ),
    "series_coefficient": lambda bad: TruncatedSeries([bad]),
    "series_scalar": lambda bad: TruncatedSeries([1, 2]) * bad,
}


@pytest.mark.parametrize("bad", [2.0, 0.1, "2"], ids=["integral_float", "float", "str"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_float_or_string_input_raises_type_error(entry, bad):
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry](bad)


def test_ints_and_bools_are_read_as_before():
    assert Permutation([True, 2]).values == (1, 2)
    assert OeisDb({"A000001": (True, 2)})["A000001"] == (1, 2)
    matches = match_sequence(OeisDb({"A000001": CATALAN}), [True, 2, 5, 14, 42, 132, 429])
    assert [(m.a_number, m.shift, m.overlap) for m in matches] == [("A000001", 1, 7)]
    assert TruncatedSeries([True, 3]).coeffs == (1, 3)


def test_fraction_coefficients_and_scalars_stay_exact():
    s = TruncatedSeries([Fraction(1, 10), Fraction(4, 2)])
    assert s.coeffs == (Fraction(1, 10), 2)
    assert type(s.coeffs[1]) is int
    assert (s * Fraction(10, 3)).coeffs == (Fraction(1, 3), Fraction(20, 3))
    assert (s / Fraction(1, 10)).coeffs == (1, 20)
    assert all(type(c) is int for c in (s / Fraction(1, 10)).coeffs)
    assert (s + Fraction(9, 10)).coeffs == (1, 2)

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from poplab.series import (
    TruncatedSeries,
    from_rational,
    monomial,
    residual_thm314,
    residual_thm316,
)


def random_series(rng: random.Random, order: int, nonzero_constant: bool = False):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    if nonzero_constant and coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return TruncatedSeries(coeffs)


# ----------------------------------------------------------------------
# Series arithmetic


def test_constructor_pads_and_truncates():
    s = TruncatedSeries([1, 2], order=4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    t = TruncatedSeries([1, 2, 3], order=1)
    assert t.coeffs == (1, 2)
    # Trailing zeros are cut like any other coefficient past the order.
    assert TruncatedSeries([1, 2, 0, 0], order=2).coeffs == (1, 2, 0)


def test_binary_ops_take_minimum_order():
    a = TruncatedSeries([1, 1], order=5)
    b = TruncatedSeries([1, 1], order=3)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert (a - b).order == 3
    assert (a / b).order == 3


def test_geometric_series_inverse():
    order = 10
    one_minus_x = TruncatedSeries([1, -1], order=order)
    geo = 1 / one_minus_x
    assert geo.integer_coefficients() == [1] * (order + 1)
    assert (geo * one_minus_x).integer_coefficients() == [1] + [0] * order


def test_ring_identities_on_random_series():
    rng = random.Random(407)
    for _ in range(25):
        a = random_series(rng, 8)
        b = random_series(rng, 8)
        c = random_series(rng, 8, nonzero_constant=True)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert (a - b) + b == a
        assert (a / c) * c == a
        assert a * (b + c) == a * b + a * c


def test_division_by_zero_constant_rejected():
    x = monomial(6)
    with pytest.raises(ZeroDivisionError):
        (1 + x) / x


def test_power():
    x = monomial(8)
    assert ((1 + x) ** 3).integer_coefficients()[:4] == [1, 3, 3, 1]
    assert ((1 + x) ** 0) == TruncatedSeries([1], order=8)
    with pytest.raises(ValueError):
        (1 + x) ** -1


def test_sqrt_of_squares_on_random_series():
    rng = random.Random(408)
    for _ in range(25):
        s = random_series(rng, 8, nonzero_constant=True)
        if s.coefficient(0) < 0:
            s = -s
        # sqrt always picks the branch with a positive constant term.
        assert (s * s).sqrt() == s
        assert ((-s) * (-s)).sqrt() == s


def test_sqrt_example():
    order = 8
    x = monomial(order)
    s = (1 - 4 * x).sqrt()
    # Central binomial coefficients: sqrt(1-4x) = 1 - 2*sum C(2n,n)/(n+...) x^n;
    # squaring back is the real check.
    assert s * s == 1 - 4 * x
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == -2


def test_sqrt_rejects_non_square_constant():
    x = monomial(6)
    with pytest.raises(ValueError):
        (2 + x).sqrt()


def test_derivative():
    x = monomial(6)
    s = 1 + 3 * x + 5 * x**2
    d = s.derivative()
    assert d.order == 5
    assert d.integer_coefficients()[:2] == [3, 10]
    with pytest.raises(ValueError):
        TruncatedSeries([1], order=0).derivative()


def test_coefficient_out_of_range():
    s = TruncatedSeries([1, 2], order=3)
    with pytest.raises(IndexError):
        s.coefficient(4)


def test_integer_coefficients_rejects_fractions():
    s = TruncatedSeries([Fraction(1, 2)], order=2)
    with pytest.raises(ValueError):
        s.integer_coefficients()


def test_str_form():
    x = monomial(4)
    assert str(1 + 2 * x) == "1 + 2*x + O(x^5)"


# ----------------------------------------------------------------------
# Coefficients against plain Fraction arithmetic; each stored coefficient
# is an int where it is integral and a Fraction only where it is not.


def is_canonical(series: TruncatedSeries) -> bool:
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in series.coeffs
    )


def ref_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    order = min(len(a), len(b)) - 1
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(order + 1)]


def ref_div(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    order = min(len(a), len(b)) - 1
    q: list[Fraction] = []
    for n in range(order + 1):
        q.append((a[n] - sum((b[i] * q[n - i] for i in range(1, n + 1)), Fraction(0))) / b[0])
    return q


def ref_sqrt(a: list[Fraction], root0: Fraction) -> list[Fraction]:
    r = [root0]
    for n in range(1, len(a)):
        r.append((a[n] - sum((r[i] * r[n - i] for i in range(1, n)), Fraction(0))) / (2 * root0))
    return r


def random_terms(rng: random.Random, order: int, rational: bool) -> list[Fraction]:
    if rational:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    return [Fraction(rng.randint(-9, 9)) for _ in range(order + 1)]


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_operations_match_fraction_arithmetic(rational):
    rng = random.Random(409 + rational)
    for _ in range(40):
        order = rng.randint(0, 9)
        a_terms = random_terms(rng, order, rational)
        b_terms = random_terms(rng, order, rational)
        b_terms[0] = b_terms[0] or Fraction(rng.choice([-1, 1, 2, -3]))
        root0 = Fraction(rng.randint(1, 4), rng.randint(1, 3) if rational else 1)
        square = [root0 * root0, *random_terms(rng, order, rational)[1:]]
        a, b = TruncatedSeries(a_terms), TruncatedSeries(b_terms)
        scalar = rng.choice([3, -2, -1, Fraction(-3, 4), Fraction(6, 3)])
        cases = [
            (a * b, ref_mul(a_terms, b_terms)),
            (a / b, ref_div(a_terms, b_terms)),
            (TruncatedSeries(square).sqrt(), ref_sqrt(square, root0)),
            (b**3, ref_mul(ref_mul(b_terms, b_terms), b_terms)),
            (a + scalar, [a_terms[0] + scalar, *a_terms[1:]]),
            (scalar - a, [scalar - a_terms[0], *(-c for c in a_terms[1:])]),
            (a * scalar, [c * scalar for c in a_terms]),
            (a / scalar, [c / scalar for c in a_terms]),
            (scalar / b, ref_div([Fraction(scalar)] + [Fraction(0)] * order, b_terms)),
        ]
        if order:
            cases.append((a.derivative(), [(n + 1) * a_terms[n + 1] for n in range(order)]))
        for series, expected in cases:
            assert series.coeffs == tuple(expected)
            assert is_canonical(series), series.coeffs


@pytest.mark.parametrize(
    "series, expected",
    [
        (1 / TruncatedSeries([2, -1], order=4), [Fraction(1, 2**n) for n in range(1, 6)]),
        (
            TruncatedSeries([1, 1], order=3).sqrt(),
            [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)],
        ),
        (TruncatedSeries([4, -6, 3], order=2) / -2, [-2, 3, Fraction(-3, 2)]),
        (TruncatedSeries([Fraction(6, 3), Fraction(2, 4), Fraction(-4, 2)]), [2, Fraction(1, 2), -2]),
    ],
    ids=["geometric-half", "sqrt-one-plus-x", "negative-scalar", "constructor"],
)
def test_coefficients_are_ints_or_proper_fractions(series, expected):
    assert [type(c) for c in series.coeffs] == [type(c) for c in expected]
    assert series.coeffs == tuple(expected)
    assert is_canonical(series)


def test_integral_fraction_inputs_equal_int_inputs():
    halves = TruncatedSeries([Fraction(1, 2)] * 3)
    doubled = halves * 2
    assert doubled == TruncatedSeries([1, 1, 1])
    assert hash(doubled) == hash(TruncatedSeries([Fraction(2, 2)] * 3))
    assert doubled.integer_coefficients() == [1, 1, 1]


# ----------------------------------------------------------------------
# Rational generating functions


def test_from_rational_equals_explicit_division():
    num = [1, -3, 1]
    den = [1, -4, 2]
    order = 12
    direct = from_rational(num, den, order)
    by_division = TruncatedSeries(num, order) / TruncatedSeries(den, order)
    assert direct == by_division


def test_from_rational_geometric():
    s = from_rational([1], [1, -2], 8)
    assert s.integer_coefficients() == [2**n for n in range(9)]


# ----------------------------------------------------------------------
# Residual checks for the two non-rational identities


def test_residual_thm314_accepts_its_sequence():
    terms = [1, 1, 2, 6, 21, 79, 311, 1265, 5275, 22431, 96900]
    # This residual belongs to a different identity, fed with the right
    # sequence below; here it must reject a foreign one.
    series = TruncatedSeries(terms, order=len(terms) - 1)
    assert not residual_thm314(series).is_zero()


def test_residual_thm314_on_catalogued_prefix():
    terms = [1, 1, 2, 6, 21, 80, 322, 1347, 5798, 25512, 114236]
    series = TruncatedSeries(terms, order=len(terms) - 1)
    assert residual_thm314(series).is_zero()


def test_residual_thm314_trivial_inputs():
    order = 6
    one = TruncatedSeries([1], order=order)
    x = monomial(order)
    # A = 1 gives A - 1 - x*A/(1 - x*A^2) = -x/(1 - x).
    assert residual_thm314(one) == -x / (1 - x)
    # A = 0 kills the fraction entirely, leaving the constant -1.
    assert residual_thm314(TruncatedSeries([0], order=order)) == -one


def test_residual_thm316_on_catalogued_prefix():
    terms = [1, 1, 2, 6, 21, 80, 322, 1346, 5783, 25372]
    series = TruncatedSeries(terms, order=len(terms) - 1)
    assert residual_thm316(series).is_zero()


def test_residual_thm316_rejects_perturbed_prefix():
    # The quartic has a triple root in the solution at x = 0, so an
    # error in one of the last few coefficients only surfaces past the
    # truncation order; perturb a middle coefficient instead.
    terms = [1, 1, 2, 6, 21, 80, 322, 1347, 5783, 25372]
    series = TruncatedSeries(terms, order=len(terms) - 1)
    assert not residual_thm316(series).is_zero()

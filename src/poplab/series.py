"""Truncated power series over the rationals, with exact arithmetic.

A ``TruncatedSeries`` stores coefficients c_0..c_order as ints where
they are integral and as Fractions (denominator above 1) where they are
not, so a series with integer coefficients is pure int arithmetic and
``fractions`` is imported only on the first non-integral value.
Binary operations truncate to the smaller order of the two operands.
Everything here is exact: a coefficient or scalar that is neither an int
nor a Fraction, a float or a string included, raises TypeError.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

_Coeff = Union[int, "Fraction"]


def _exact(value: object) -> _Coeff:
    """An int or a Fraction as a coefficient: an int when integral, else
    a Fraction with denominator above 1.  Anything else, a float or a
    string included, raises TypeError."""
    if isinstance(value, int):
        return int(value)
    from fractions import Fraction

    if not isinstance(value, Fraction):
        raise TypeError(
            f"series coefficients are ints or Fractions, got {type(value).__name__}"
        )
    return value.numerator if value.denominator == 1 else value


def _div(a: _Coeff, b: _Coeff) -> _Coeff:
    """a / b as a coefficient: ``a // b`` when both are ints and b divides
    a, else an exact Fraction; never the float ``int / int``."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    from fractions import Fraction

    return _exact(Fraction(a) / b)


class TruncatedSeries:
    """A power series known through x**order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[_Coeff], order: int | None = None):
        vals = [c if type(c) is int else _exact(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError(f"order must be nonnegative, got {order}")
            vals = vals[: order + 1]
            vals.extend([0] * (order + 1 - len(vals)))
        if not vals:
            raise ValueError("a series needs at least its constant term")
        self._coeffs = tuple(vals)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[_Coeff, ...]:
        """c_0..c_order: an int where integral, else a Fraction."""
        return self._coeffs

    def coefficient(self, n: int) -> _Coeff:
        """c_n: an int where integral, else a Fraction."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self._coeffs[n]

    def integer_coefficients(self) -> list[int]:
        """The coefficients as ints; raises if any is not an integer."""
        for i, c in enumerate(self._coeffs):
            if type(c) is not int:
                raise ValueError(f"coefficient of x^{i} is not an integer: {c}")
        return list(self._coeffs)

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    # ------------------------------------------------------------------
    # Arithmetic; binary operations return the smaller order.

    def _coerce(self, other: "TruncatedSeries | _Coeff") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        return TruncatedSeries([other], self.order)

    def __add__(self, other: "TruncatedSeries | _Coeff") -> "TruncatedSeries":
        o = self._coerce(other)
        order = min(self.order, o.order)
        return TruncatedSeries(
            [self._coeffs[i] + o._coeffs[i] for i in range(order + 1)]
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other: "TruncatedSeries | _Coeff") -> "TruncatedSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other: _Coeff) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other: "TruncatedSeries | _Coeff") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            f = _exact(other)
            return TruncatedSeries([c * f for c in self._coeffs])
        order = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        out = [0] * (order + 1)
        for i in range(order + 1):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(order + 1 - i):
                out[i + j] += ai * b[j]
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries | _Coeff") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            f = _exact(other)
            if f == 0:
                raise ZeroDivisionError("division of a series by zero")
            return TruncatedSeries([_div(c, f) for c in self._coeffs])
        if other._coeffs[0] == 0:
            raise ZeroDivisionError("division by a series with zero constant term")
        order = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        out: list[_Coeff] = []
        for n in range(order + 1):
            acc = a[n]
            for i in range(1, n + 1):
                acc -= b[i] * out[n - i]
            out.append(_div(acc, b[0]))
        return TruncatedSeries(out)

    def __rtruediv__(self, other: _Coeff) -> "TruncatedSeries":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError(f"negative power {exponent}; divide instead")
        result = TruncatedSeries([1], self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def sqrt(self) -> "TruncatedSeries":
        """Principal square root; the constant term must be the square
        of a rational."""
        c0 = self._coeffs[0]
        root0 = _rational_sqrt(c0)
        if root0 is None:
            raise ValueError(f"constant term {c0} is not the square of a rational")
        out = [root0]
        for n in range(1, self.order + 1):
            acc = self._coeffs[n]
            for i in range(1, n):
                acc -= out[i] * out[n - i]
            out.append(_div(acc, 2 * root0))
        return TruncatedSeries(out)

    def derivative(self) -> "TruncatedSeries":
        """Formal derivative; the order drops by one."""
        if self.order == 0:
            raise ValueError("derivative of an order-0 series is unknown")
        return TruncatedSeries(
            [(n + 1) * self._coeffs[n + 1] for n in range(self.order)]
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncatedSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(x^{self.order + 1})"


def _rational_sqrt(value: _Coeff) -> _Coeff | None:
    if value < 0:
        return None
    # An int is its own numerator over denominator 1, so its root is an int.
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return _div(rn, rd)


def from_rational(num: Sequence[int], den: Sequence[int], order: int) -> TruncatedSeries:
    """Expand num(x)/den(x); den must have a nonzero constant term."""
    return TruncatedSeries(num, order) / TruncatedSeries(den, order)


def monomial(order: int) -> TruncatedSeries:
    """The series x."""
    return TruncatedSeries([0, 1], order)


def residual_thm314(series: TruncatedSeries) -> TruncatedSeries:
    """Residual of the functional equation A = 1 + x*A/(1 - x*A^2).

    Feeding in a truncation of the catalogue entry thm-3.14's
    generating function must give the zero series.
    """
    x = monomial(series.order)
    return series - 1 - (x * series) / (1 - x * series * series)


_THM316_POLYS = (
    (4, (-1, 8, 2)),
    (3, (5, -46, 4, 1)),
    (2, (-9, 94, -21, 3)),
    (1, (7, -82, 12, 1)),
    (0, (-2, 26, 3)),
)


def residual_thm316(series: TruncatedSeries) -> TruncatedSeries:
    """Residual of the quartic polynomial identity satisfied by the
    catalogue entry thm-3.16's generating function.

    The identity has the form sum_d p_d(x) * A(x)**d = 0 with the five
    integer polynomials p_4..p_0 fixed; the result is the left side,
    which must vanish when A truncates the true generating function.
    """
    order = series.order
    total = TruncatedSeries([0], order)
    for power, poly in _THM316_POLYS:
        total = total + TruncatedSeries(poly, order) * series**power
    return total

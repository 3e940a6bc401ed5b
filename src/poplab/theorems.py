"""Catalogue of counting results for specific POPs, with verification.

Each entry pairs a POP with an independently computable reference
sequence (closed form, recurrence, generating function, binomial sum,
or a bijection).  ``STORED_COUNTS`` is the one table of recorded facts:
the A-numbers and the catalogued prefix of every POP, keyed by its text.
``verify_theorem`` recomputes everything by brute force and reports the
comparison; nothing is ever taken on faith from the stored prefixes.

Each entry's formula sits in its record, built from a few shared shapes:
a closed form or a recurrence over (n, k), or a generating function.
Entries whose ``builder`` is None have no derived formula; their stored
prefix is the only reference, and brute force the sole way to extend them.

A handful of identifications are conjectural.  Their records sit in the
same table; ``CONJECTURES`` lists their POP texts, and they are only ever
reported as supported up to the computed range, never as proved.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .counting import DEFAULT_CEILING, _check_length, count_avoiders_prefix
from .counting import count_cycle_interval_perms
from .posets import Pop, _check_labels, parse_pop
from .series import (
    TruncatedSeries,
    from_rational,
    monomial,
    residual_thm314,
    residual_thm316,
)

_Builder = Callable[[int, int], list[int]]
_Residual = Callable[[TruncatedSeries], TruncatedSeries]


# ----------------------------------------------------------------------
# Reference sequence shapes.  Each builder returns a(0)..a(n_max); its
# second argument is the POP length k, which only the families read.


def _recurrence(start: int | None, step: Callable[[list, int, int], int]) -> _Builder:
    """a(n) = n! below ``start`` (the POP length k when None), and
    a(n) = step(a, n, k) from there on, where a holds a(0)..a(n-1)."""

    def build(n_max: int, k: int) -> list[int]:
        switch = k if start is None else start
        a = [math.factorial(n) for n in range(min(switch, n_max + 1))]
        for n in range(switch, n_max + 1):
            a.append(step(a, n, k))
        return a

    return build


def _closed_form(start: int | None, f: Callable[[int, int], int]) -> _Builder:
    """n! below ``start`` (the POP length k when None), f(n, k) from there on."""
    return _recurrence(start, lambda a, n, k: f(n, k))


def _series(gf: Callable[[int], TruncatedSeries]) -> _Builder:
    """The integer coefficients of gf(n_max), a generating function
    known through x**n_max."""

    def build(n_max: int, k: int) -> list[int]:
        return gf(n_max).integer_coefficients()

    return build


def _rational_gf(num: Sequence[int], den: Sequence[int]) -> _Builder:
    return _series(lambda order: from_rational(num, den, order))


def _fib(m: int) -> int:
    """F(0) = F(1) = 1 and F(m) = F(m-1) + F(m-2): the counts of
    permutations avoiding all of 231, 312, 321."""
    a, b = 1, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def _schroder(m_max: int) -> list[int]:
    """Large Schroeder numbers 1, 2, 6, 22, 90, ..."""
    out = [1]
    for m in range(1, m_max + 1):
        out.append(out[m - 1] + sum(out[i] * out[m - 1 - i] for i in range(m)))
    return out


def _exact_div(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(
            f"expected exact division, got {numerator}/{denominator}"
        )
    return q


def _family_cycle_interval(n_max: int, k: int) -> list[int]:
    # The bijection side: permutations whose cycles fit in length-(k-1)
    # intervals of values.  Refuse an oversized n before any work, as
    # every catalogue reference does.
    _check_length(n_max, DEFAULT_CEILING)
    return [count_cycle_interval_perms(k, n) for n in range(n_max + 1)]


def _sqrt_quotient(order: int) -> TruncatedSeries:
    # (1-5x+(1+x)r) / (1-5x+(1-x)r) with r = sqrt(1-4x).
    r = TruncatedSeries([1, -4], order).sqrt()
    base = TruncatedSeries([1, -5], order)
    num = base + TruncatedSeries([1, 1], order) * r
    den = base + TruncatedSeries([1, -1], order) * r
    return num / den


def _fixed_point(residual: _Residual, order: int) -> TruncatedSeries:
    """The series A with A(0) = 1 and residual(A) = 0, by iterating
    A -> A - residual(A); each pass settles one more coefficient when the
    right side reads only lower orders of A."""
    a = TruncatedSeries([1], order)
    for _ in range(order + 1):
        a = a - residual(a)
    return a


# The bowtie POP's generating function B(x) = (1-3x)/(1-4x+2x^2), as
# (numerator, denominator): thm-3.22 counts by it, and thm-4.5 composes it.
_BOWTIE = ((1, -3), (1, -4, 2))


# ----------------------------------------------------------------------
# Registry

# Every family is catalogued, and verified by ``verify_all``, at these lengths.
FAMILY_KS = (4, 5)


class TheoremEntry(NamedTuple):
    """One catalogued counting result.

    A single result holds its POP as ``fixed_pop``; a family holds a
    ``pop_factory`` that builds its POP at any length k >= 3.  ``builder``
    computes a(0)..a(n_max) from the entry's own formula, or is None when
    the entry has no derived formula.  ``residual`` maps the brute-force
    counts' series to a functional equation's residual, which is zero when
    the counts satisfy it.  A-numbers and stored prefixes are looked up in
    ``STORED_COUNTS`` by the POP's text.
    """

    id: str
    method: str
    builder: _Builder | None
    notes: tuple[str, ...] = ()
    fixed_pop: Pop | None = None
    pop_factory: Callable[[int], Pop] | None = None
    residual: _Residual | None = None

    @property
    def family(self) -> bool:
        return self.pop_factory is not None

    @property
    def k_default(self) -> int:
        return self.registered_ks()[0]

    def registered_ks(self) -> tuple[int, ...]:
        return FAMILY_KS if self.family else (self.fixed_pop.k,)

    def resolve_k(self, k: int | None) -> int:
        if k is None:
            return self.k_default
        if not self.family and k != self.k_default:
            raise ValueError(f"{self.id} is not a family; k is fixed at {self.k_default}")
        if self.family and k < 3:
            raise ValueError(f"{self.id} needs k >= 3, got {k}")
        return k

    def pop(self, k: int | None = None) -> Pop:
        k = self.resolve_k(k)
        _check_labels(k)  # before a family's factory builds a k x k order
        return self.pop_factory(k) if self.family else self.fixed_pop

    def oeis(self, k: int | None = None) -> tuple[str, ...]:
        return STORED_COUNTS.get(self.pop(k).to_text(), ((), ()))[0]

    def prefix(self, k: int | None = None) -> tuple[int, ...]:
        return STORED_COUNTS.get(self.pop(k).to_text(), ((), ()))[1]

    @property
    def has_formula(self) -> bool:
        return self.builder is not None

    def sequence(self, n_max: int, k: int | None = None) -> list[int]:
        if self.builder is None:
            raise ValueError(
                f"{self.id} has no derived formula; only catalogued terms exist"
            )
        if n_max < 0:
            raise ValueError(f"length must be nonnegative, got {n_max}")
        return self.builder(n_max, self.resolve_k(k))


# The A-numbers and the reference counts from n = 1 of each catalogued
# or conjectured POP, keyed by its canonical text.  A family's instance at
# k = 4 or 5 and the length-4 or length-5 entry for the same POP share one
# record.
STORED_COUNTS: dict[str, tuple[tuple[str, ...], tuple[int, ...]]] = {
    "k=4; 1>4": (("A214663", "A232164"), (1, 2, 6, 12, 25, 57, 124, 268, 588)),
    "k=4; 1>2, 4>3": (("A048495",), (1, 2, 6, 18, 50, 130, 322, 770, 1794)),
    "k=4; 1>3, 4>2": (("A077835",), (1, 2, 6, 18, 52, 152, 444, 1296, 3784)),
    "k=4; 1>2, 1>3, 1>4": (("A025192",), (1, 2, 6, 18, 54, 162, 486, 1458, 4374)),
    "k=4; 1>2, 1>3": (("A057711", "A129952"), (1, 2, 6, 16, 40, 96, 224, 512, 1152)),
    "k=4; 1>4, 3>2": (("A271897",), (1, 2, 6, 18, 50, 134, 358, 962, 2594)),
    "k=4; 1>2, 1>4": (("A111281",), (1, 2, 6, 16, 40, 100, 252, 636, 1604)),
    "k=4; 1>3, 1>4": (("A002605",), (1, 2, 6, 16, 44, 120, 328, 896, 2448)),
    "k=4; 2>1, 2>4": (("A111282",), (1, 2, 6, 16, 42, 110, 288, 754, 1974)),
    "k=4; 1>2, 1>3, 4>3": (("A111277",), (1, 2, 6, 19, 59, 180, 544, 1637, 4917)),
    "k=4; 1>2, 1>3, 4>2": (
        ("A052544", "A204200"),
        (1, 2, 6, 19, 60, 189, 595, 1873, 5896),
    ),
    "k=4; 1>2, 4>1": (("A049124",), (1, 2, 6, 20, 71, 264, 1015, 4002, 16094)),
    "k=4; 1>3, 1>4, 3>2": (("A111279",), (1, 2, 6, 21, 79, 309, 1237, 5026, 20626)),
    "k=4; 1>3, 1>4, 4>2": (("A106228",), (1, 2, 6, 21, 80, 322, 1347, 5798, 25512)),
    "k=4; 1>2, 3>1, 3>4": (("A033321",), (1, 2, 6, 21, 79, 311, 1265, 5275, 22431)),
    "k=4; 1>2, 1>3, 2>4": (("A257561",), (1, 2, 6, 21, 80, 322, 1346, 5783, 25372)),
    "k=4; 1>2, 1>3, 2>4, 3>4": (
        ("A053617",),
        (1, 2, 6, 22, 90, 396, 1837, 8864, 44074),
    ),
    "k=4; 1>2, 3>1, 4>1": (("A006318",), (1, 2, 6, 22, 90, 394, 1806, 8558, 41586)),
    "k=4; 1>2": (("A103505",), (1, 2, 6, 12, 20, 30, 42, 56, 72)),
    "k=4; 1>3": (("A045925",), (1, 2, 6, 12, 25, 48, 91, 168, 306)),
    "k=4; 1>2, 3>1, 3>4, 4>2": (
        ("A165546",),
        (1, 2, 6, 22, 90, 395, 1823, 8741, 43193),
    ),
    "k=4; 1>2, 1>3, 4>2, 4>3": (("A006012",), (1, 2, 6, 20, 68, 232, 792, 2704, 9232)),
    "k=4; 1>2, 3>1": (("A000984",), (1, 2, 6, 20, 70, 252, 924, 3432, 12870)),
    "k=5; 1>5": (("A276838",), (1, 2, 6, 24, 60, 150, 399, 1145)),
    "k=5; 1>2": (("A007531",), (1, 2, 6, 24, 60, 120, 210, 336)),
    "k=5; 1>2, 1>3, 1>4, 1>5": (("A084509",), (1, 2, 6, 24, 96, 384, 1536, 6144)),
    "k=5; 1>2, 1>3, 1>4, 5>2, 5>3, 5>4": (
        ("A094433",),
        (1, 2, 6, 24, 108, 504, 2376, 11232),
    ),
    "k=5; 1>2, 1>3, 4>2, 4>3": (("A094012",), (1, 2, 6, 24, 100, 408, 1624, 6336)),
    "k=5; 1>2, 2>3, 3>4": (("A128088",), (1, 2, 6, 24, 115, 618, 3591, 22088)),
    # Only the thm-2.5 family reaches this POP; it has no catalogue id.
    "k=5; 1>3": ((), (1, 2, 6, 24, 60, 150, 336, 728)),
    # Conjectured identifications, listed in CONJECTURES.
    "k=5; 1>2, 1>4, 5>1": (("A216879",), (1, 2, 6, 24, 110, 540, 2772, 14704)),
    "k=5; 1>2, 1>3, 1>4, 5>1": (("A054872",), (1, 2, 6, 24, 114, 600, 3372, 19824)),
    "k=5; 1>2, 1>3, 3>4, 3>5": (("A118376",), (1, 2, 6, 24, 112, 568, 3032, 16768)),
    "k=5; 1>5, 2>5, 5>3, 5>4": (("A212198",), (1, 2, 6, 24, 116, 632, 3720, 23072)),
    "k=5; 1>4, 1>5, 2>4, 2>5, 5>3": (
        ("A228907",),
        (1, 2, 6, 24, 114, 598, 3336, 19402),
    ),
    "k=5; 1>5, 2>1, 5>3, 5>4": (("A224295",), (1, 2, 6, 24, 118, 672, 4256, 29176)),
}

# The POPs whose identification with their A-number is only conjectured.
CONJECTURES: tuple[str, ...] = (
    "k=5; 1>2, 1>4, 5>1",
    "k=5; 1>2, 1>3, 1>4, 5>1",
    "k=5; 1>2, 1>3, 3>4, 3>5",
    "k=5; 1>5, 2>5, 5>3, 5>4",
    "k=5; 1>4, 1>5, 2>4, 2>5, 5>3",
    "k=5; 1>5, 2>1, 5>3, 5>4",
)


_FIB_NOTE = (
    "The product formula is a(n) = n!/(n-k+3)! * F(n-k+3), where F is the "
    "Fibonacci sequence indexed so that F(0) = F(1) = 1, F(m) = F(m-1) + "
    "F(m-2), counting the {231, 312, 321}-avoiders. "
    "With the index n-k+4 instead, the value at n = k would be 20 rather "
    "than 12 for k = 4."
)

_ALL_ENTRIES: tuple[TheoremEntry, ...] = (
    TheoremEntry(
        "thm-2.2",
        "closed-form",
        pop_factory=lambda k: Pop.from_relations(k, [(1, j) for j in range(2, k + 1)]),
        builder=_closed_form(
            None, lambda n, k: math.factorial(k - 1) * (k - 1) ** (n - k + 1)
        ),
        notes=(
            "One label above all others: a(n) = (k-1)! (k-1)^(n-k+1) for "
            "n >= k.  The count does not depend on which label is the top "
            "one; label 1 is used as the representative.",
        ),
    ),
    TheoremEntry(
        "thm-2.3",
        "linear-recurrence",
        pop_factory=lambda k: Pop.from_relations(
            k, [(1, j) for j in range(2, k)] + [(k, j) for j in range(2, k)]
        ),
        builder=_recurrence(
            None,
            lambda a, n, k: 2 * (k - 2) * a[n - 1] - (k - 2) * (k - 3) * a[n - 2],
        ),
        notes=(
            "Labels 1 and k above all middle labels: "
            "a(n) = 2(k-2) a(n-1) - (k-2)(k-3) a(n-2) for n >= k.",
        ),
    ),
    TheoremEntry(
        "thm-2.4",
        "composition",
        pop_factory=lambda k: Pop.from_relations(k, [(1, 2)]),
        builder=_closed_form(None, lambda n, k: math.perm(n, k - 2)),
        notes=(
            "Isolated labels reduce to a shorter POP: with s of them "
            "stacked at the extremes, a(n) = n!/(n-s)! b(n-s) where b "
            "counts the avoiders of the reduced POP.  This entry is the "
            "instance 1>2 plus k-2 isolated labels, where b is constant 1 "
            "and a(n) = n!/(n-k+2)! for n >= k.",
        ),
    ),
    TheoremEntry(
        "thm-2.5",
        "composition",
        pop_factory=lambda k: Pop.from_relations(k, [(1, 3)]),
        builder=_closed_form(None, lambda n, k: math.perm(n, k - 3) * _fib(n - k + 3)),
        notes=(_FIB_NOTE,),
    ),
    TheoremEntry(
        "thm-2.6",
        "bijection-oracle",
        pop_factory=lambda k: Pop.from_relations(k, [(1, k)]),
        builder=_family_cycle_interval,
        notes=(
            "Reference values are counted through a bijection: avoiders "
            "of 1>k with k-2 isolated labels correspond to permutations "
            "whose every cycle fits inside an interval of at most k-1 "
            "consecutive values.",
        ),
    ),
    TheoremEntry(
        "thm-3.1",
        "rational-gf",
        fixed_pop=parse_pop("k=4; 1>4"),
        builder=_rational_gf([1], [1, -1, -1, -3, -1]),
        notes=(
            "The second catalogue id lists the same counts shifted two "
            "places with leading terms 0, 1.",
        ),
    ),
    TheoremEntry(
        "thm-3.2",
        "closed-form",
        fixed_pop=parse_pop("k=4; 1>2, 4>3"),
        builder=_closed_form(1, lambda n, k: (n - 2) * 2 ** (n - 1) + 2),
    ),
    TheoremEntry(
        "thm-3.3",
        "rational-gf",
        fixed_pop=parse_pop("k=4; 1>3, 4>2"),
        builder=_rational_gf([1, -1, -2, -2], [1, -2, -2, -2]),
    ),
    TheoremEntry(
        "thm-3.4",
        "closed-form",
        fixed_pop=parse_pop("k=4; 1>2, 1>3, 1>4"),
        builder=_closed_form(2, lambda n, k: 2 * 3 ** (n - 2)),
    ),
    TheoremEntry(
        "thm-3.5",
        "closed-form",
        fixed_pop=parse_pop("k=4; 1>2, 1>3"),
        builder=_closed_form(2, lambda n, k: n * 2 ** (n - 2)),
    ),
    TheoremEntry(
        "thm-3.6",
        "rational-gf",
        fixed_pop=parse_pop("k=4; 1>4, 3>2"),
        builder=_rational_gf([1, -3, 3, -1], [1, -4, 5, -4]),
        notes=(
            "A recurrence sometimes quoted for this sequence, "
            "a(n) = 4a(n-1) - 5a(n-2) + 4a(n-6), gives 114 at n = 6 instead "
            "of the correct 134; the generating function corresponds to "
            "a(n) = 4a(n-1) - 5a(n-2) + 4a(n-3).",
        ),
    ),
    TheoremEntry(
        "thm-3.7",
        "rational-gf",
        fixed_pop=parse_pop("k=4; 1>2, 1>4"),
        builder=_rational_gf([1, -2, 1], [1, -3, 2, -2]),
    ),
    TheoremEntry(
        "thm-3.8",
        "rational-gf",
        fixed_pop=parse_pop("k=4; 1>3, 1>4"),
        builder=_rational_gf([1, -1, -2], [1, -2, -2]),
        notes=(
            "The recurrence a(n) = 2a(n-1) + 2a(n-2) holds for n >= 3 but "
            "not at n = 2, where it would give 4 instead of 2.",
        ),
    ),
    TheoremEntry(
        "thm-3.9",
        "rational-gf",
        fixed_pop=parse_pop("k=4; 2>1, 2>4"),
        builder=_rational_gf([1, -2, 0, 1], [1, -3, 1]),
        notes=(
            "The recurrence a(n) = 3a(n-1) - a(n-2) holds at n = 2 and for "
            "n >= 4 but fails at n = 3, where it gives 5 instead of 6.",
        ),
    ),
    TheoremEntry(
        "thm-3.10",
        "closed-form",
        fixed_pop=parse_pop("k=4; 1>2, 1>3, 4>3"),
        builder=_closed_form(1, lambda n, k: _exact_div(3**n - 2 * n + 3, 4)),
        notes=("The division in (3^n - 2n + 3)/4 is exact for every n >= 1.",),
    ),
    TheoremEntry(
        "thm-3.11",
        "binomial-sum",
        fixed_pop=parse_pop("k=4; 1>2, 1>3, 4>2"),
        builder=_closed_form(
            1, lambda n, k: sum(math.comb(n + 2 * i - 1, 3 * i) for i in range(n))
        ),
        notes=(
            "The recurrence a(n) = 4a(n-1) - 3a(n-2) + a(n-3) needs "
            "n >= 3; at n = 2 it would reference a(-1).",
        ),
    ),
    TheoremEntry(
        "thm-3.12",
        "binomial-sum",
        fixed_pop=parse_pop("k=4; 1>2, 4>1"),
        builder=_closed_form(
            1,
            lambda n, k: _exact_div(
                sum(
                    math.comb(n - j - 1, j) * math.comb(2 * n - 2 * j, n)
                    for j in range(n)
                ),
                n + 1,
            ),
        ),
    ),
    TheoremEntry(
        "thm-3.13",
        "algebraic-gf",
        fixed_pop=parse_pop("k=4; 1>3, 1>4, 3>2"),
        builder=_series(_sqrt_quotient),
    ),
    TheoremEntry(
        "thm-3.14",
        "algebraic-gf",
        fixed_pop=parse_pop("k=4; 1>3, 1>4, 4>2"),
        builder=_series(lambda order: _fixed_point(residual_thm314, order)),
        residual=residual_thm314,
        notes=(
            "The generating function satisfies A = 1 + xA/(1 - xA^2); "
            "residual_thm314 checks this on any truncation.  A binomial "
            "sum sometimes quoted for these counts, "
            "(1/n) sum_k C(2n-2k-2, n-k-1) C(n+k-1, n-1), drifts from the "
            "true sequence at n = 7 (1348 instead of 1347).",
        ),
    ),
    TheoremEntry(
        "thm-3.15",
        "linear-recurrence",
        fixed_pop=parse_pop("k=4; 1>2, 3>1, 3>4"),
        builder=_recurrence(
            3,
            lambda a, n, k: _exact_div(
                (13 * n - 5) * a[n - 1]
                - (16 * n - 23) * a[n - 2]
                + 5 * (n - 2) * a[n - 3],
                2 * (n + 1),
            ),
        ),
        notes=(
            "The division by 2(n+1) in the three-term recurrence is exact "
            "for every n >= 3 and asserted at run time.  Equivalent "
            "generating function: 2/(1 + x + sqrt((1-x)(1-5x))).",
        ),
    ),
    TheoremEntry(
        "thm-3.16",
        "algebraic-gf",
        fixed_pop=parse_pop("k=4; 1>2, 1>3, 2>4"),
        builder=None,
        residual=residual_thm316,
        notes=(
            "No closed form is implemented; the generating function "
            "satisfies the quartic polynomial identity checked by "
            "residual_thm316, and the catalogued prefix is the numeric "
            "reference.",
        ),
    ),
    TheoremEntry(
        "thm-3.17",
        "external-oracle-none",
        fixed_pop=parse_pop("k=4; 1>2, 1>3, 2>4, 3>4"),
        builder=None,
        notes=("No derived formula; the catalogued prefix is the reference.",),
    ),
    TheoremEntry(
        "thm-3.18",
        "linear-recurrence",
        fixed_pop=parse_pop("k=4; 1>2, 3>1, 4>1"),
        builder=_closed_form(1, lambda n, k: _schroder(n - 1)[-1]),
        notes=(
            "a(n) is the (n-1)-st large Schroeder number for n >= 1, and "
            "a(0) = 1 since the empty permutation avoids everything; the "
            "generating function (3 - x - sqrt(1-6x+x^2))/2 likewise has "
            "constant term 1.",
        ),
    ),
    TheoremEntry(
        "thm-3.19",
        "closed-form",
        fixed_pop=parse_pop("k=4; 1>2"),
        builder=_closed_form(2, lambda n, k: n * (n - 1)),
    ),
    TheoremEntry(
        "thm-3.20",
        "composition",
        fixed_pop=parse_pop("k=4; 1>3"),
        builder=_closed_form(2, lambda n, k: n * _fib(n - 1)),
        notes=(_FIB_NOTE,),
    ),
    TheoremEntry(
        "thm-3.21",
        "external-oracle-none",
        fixed_pop=parse_pop("k=4; 1>2, 3>1, 3>4, 4>2"),
        builder=None,
        notes=("No derived formula; the catalogued prefix is the reference.",),
    ),
    TheoremEntry(
        "thm-3.22",
        "rational-gf",
        fixed_pop=parse_pop("k=4; 1>2, 1>3, 4>2, 4>3"),
        builder=_rational_gf(*_BOWTIE),
        notes=("Equivalent recurrence: a(n) = 4a(n-1) - 2a(n-2) for n >= 2.",),
    ),
    TheoremEntry(
        "thm-3.23",
        "closed-form",
        fixed_pop=parse_pop("k=4; 1>2, 3>1"),
        builder=_closed_form(1, lambda n, k: math.comb(2 * n - 2, n - 1)),
        notes=("a(n) is the central binomial coefficient C(2n-2, n-1).",),
    ),
    TheoremEntry(
        "thm-4.1",
        "rational-gf",
        fixed_pop=parse_pop("k=5; 1>5"),
        builder=_rational_gf([1, 0, -1], [1, -1, -2, -2, -12, -8, 2, 5, 1]),
        notes=(
            "Also countable through the cycle-interval bijection of "
            "thm-2.6 at k = 5.",
        ),
    ),
    TheoremEntry(
        "thm-4.2",
        "closed-form",
        fixed_pop=parse_pop("k=5; 1>2"),
        builder=_closed_form(3, lambda n, k: n * (n - 1) * (n - 2)),
    ),
    TheoremEntry(
        "thm-4.3",
        "closed-form",
        fixed_pop=parse_pop("k=5; 1>2, 1>3, 1>4, 1>5"),
        builder=_closed_form(3, lambda n, k: 6 * 4 ** (n - 3)),
    ),
    TheoremEntry(
        "thm-4.4",
        "linear-recurrence",
        fixed_pop=parse_pop("k=5; 1>2, 1>3, 1>4, 5>2, 5>3, 5>4"),
        builder=_recurrence(5, lambda a, n, k: 6 * (a[n - 1] - a[n - 2])),
    ),
    TheoremEntry(
        "thm-4.5",
        "composition",
        fixed_pop=parse_pop("k=5; 1>2, 1>3, 4>2, 4>3"),
        builder=_series(
            lambda order: (
                monomial(order) ** 2 * from_rational(*_BOWTIE, order + 1).derivative()
                + monomial(order + 1) * from_rational(*_BOWTIE, order + 1)
                + 1
            )
        ),
        notes=(
            "A(x) = x^2 B'(x) + x B(x) + 1, where B is the generating "
            "function of the k = 4 bowtie entry thm-3.22; equivalently "
            "a(n) = n b(n-1).",
        ),
    ),
    TheoremEntry(
        "thm-4.6",
        "binomial-sum",
        fixed_pop=parse_pop("k=5; 1>2, 2>3, 3>4"),
        builder=_closed_form(
            1,
            lambda n, k: _exact_div(
                sum(
                    math.comb(2 * i, i) * math.comb(n, i + 1) * math.comb(n + 1, i + 1)
                    for i in range(n)
                ),
                n * (n + 1),
            ),
        ),
        notes=(
            "Each summand uses the central binomial C(2i, i); the division "
            "by n(n+1) is exact and asserted at run time.",
        ),
    ),
)

THEOREMS: dict[str, TheoremEntry] = {e.id: e for e in _ALL_ENTRIES}


def all_theorem_ids() -> list[str]:
    """The entry ids in numeric order, as ``_ALL_ENTRIES`` lists them."""
    return list(THEOREMS)


def get_theorem(theorem_id: str) -> TheoremEntry:
    try:
        return THEOREMS[theorem_id]
    except KeyError:
        raise ValueError(f"unknown theorem id {theorem_id!r}") from None


def theorem_sequence(theorem_id: str, n_max: int, *, k: int | None = None) -> list[int]:
    """a(0)..a(n_max) from the entry's own formula, never brute force."""
    return get_theorem(theorem_id).sequence(n_max, k)


# ----------------------------------------------------------------------
# Verification


class VerifyRow(NamedTuple):
    n: int
    formula_value: int
    brute_value: int
    match: bool


def _no_evidence(rows: Sequence[VerifyRow], k: int) -> str | None:
    """The status when no row reaches n = k, else None: every count
    below n = k is n!, so only rows with n >= k are evidence."""
    n = rows[-1].n
    return f"NO EVIDENCE (n <= {n} < k = {k})" if n < k else None


def _verify_rows(
    reference: Sequence[int], brute: Sequence[int]
) -> tuple[VerifyRow, ...]:
    """One row per n, comparing a reference value with the brute count."""
    return tuple(
        VerifyRow(n, reference[n], brute[n], reference[n] == brute[n])
        for n in range(len(brute))
    )


class Report(NamedTuple):
    """Outcome of checking one entry against brute force."""

    theorem_id: str
    method: str
    k: int
    rows: tuple[VerifyRow, ...]
    prefix_consistent: bool | None
    residual_zero: bool | None
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return _no_evidence(self.rows, self.k) is None and self._consistent

    @property
    def _consistent(self) -> bool:
        return (
            self.prefix_consistent is not False
            and self.residual_zero is not False
            and all(r.match for r in self.rows)
        )

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "id": self.theorem_id,
            "method": self.method,
            "k": self.k,
            "passed": self.passed,
            "prefix_consistent": self.prefix_consistent,
            "residual_zero": self.residual_zero,
            "rows": [r._asdict() for r in self.rows],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        status = "FAIL" if not self._consistent else _no_evidence(self.rows, self.k) or "PASS"
        lines = [f"{self.theorem_id} [{self.method}] k={self.k}: {status}"]
        lines.append(
            "  n:       " + " ".join(str(r.n) for r in self.rows)
        )
        lines.append(
            "  formula: " + " ".join(str(r.formula_value) for r in self.rows)
        )
        lines.append(
            "  brute:   " + " ".join(str(r.brute_value) for r in self.rows)
        )
        for r in self.rows:
            if not r.match:
                lines.append(
                    f"  mismatch at n={r.n}: formula {r.formula_value}, "
                    f"brute {r.brute_value}"
                )
        if self.prefix_consistent is None:
            lines.append("  no catalogued prefix")
        elif not self.prefix_consistent:
            lines.append("  formula disagrees with the catalogued prefix")
        if self.residual_zero is not None:
            lines.append(
                "  functional-equation residual: "
                + ("zero" if self.residual_zero else "NONZERO")
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _brute_length(entry: TheoremEntry, k: int, n_max: int) -> int:
    """The length the check of ``entry`` at k counts to: n_max, or the
    end of the stored terms (from n = 1) if the entry has no formula."""
    return n_max if entry.has_formula else min(n_max, len(entry.prefix(k)))


def _report(entry: TheoremEntry, k: int, brute: Sequence[int]) -> Report:
    """Compare the brute-force counts a(0)..a(n) of ``entry`` at length k
    with its formula, or with its stored terms if it has no formula."""
    stored = entry.prefix(k)
    if entry.has_formula:
        rows = _verify_rows(entry.sequence(len(brute) - 1, k), brute)
    else:
        rows = _verify_rows([1, *stored], brute)
    # None when nothing is catalogued for this POP, so nothing was compared.
    prefix_consistent = (
        all(r.formula_value == s for r, s in zip(rows[1:], stored)) if stored else None
    )
    residual_zero = None
    if entry.residual is not None:
        brute_series = TruncatedSeries([r.brute_value for r in rows])
        residual_zero = entry.residual(brute_series).is_zero()
    return Report(
        theorem_id=entry.id,
        method=entry.method,
        k=k,
        rows=rows,
        prefix_consistent=prefix_consistent,
        residual_zero=residual_zero,
        notes=entry.notes,
    )


def verify_theorem(theorem_id: str, n_max: int = 8, *, k: int | None = None) -> Report:
    """Recompute an entry by brute force and compare with its formula.

    For entries without a formula the catalogued prefix is the
    reference, and the check range is capped at its length.  An n_max
    past the counting ceiling is refused before anything is computed.
    """
    _check_length(n_max, DEFAULT_CEILING)
    entry = get_theorem(theorem_id)
    return _verify([(entry, entry.resolve_k(k))], n_max)[0]


def verify_all(n_max: int = 8) -> list[Report]:
    """Verify every entry at each of its registered lengths."""
    _check_length(n_max, DEFAULT_CEILING)
    checks = [(entry, k) for entry in THEOREMS.values() for k in entry.registered_ks()]
    return _verify(checks, n_max)


def _verify(checks: Sequence[tuple[TheoremEntry, int]], n_max: int) -> list[Report]:
    """The report of each ``(entry, k)`` check to n_max.  Checks that
    share a POP share one count of it, to the longest length any of
    them reaches, and each report reads its own prefix of the counts."""
    plan = [(entry, k, entry.pop(k), _brute_length(entry, k, n_max)) for entry, k in checks]
    lengths: dict[Pop, int] = {}
    for _, _, pop, n in plan:
        lengths[pop] = max(lengths.get(pop, 0), n)
    counts = {pop: count_avoiders_prefix(pop, n).counts for pop, n in lengths.items()}
    return [_report(entry, k, counts[pop][: n + 1]) for entry, k, pop, n in plan]


# ----------------------------------------------------------------------
# Conjectured identifications


class ConjectureReport(NamedTuple):
    a_number: str
    pop_text: str
    k: int
    rows: tuple[VerifyRow, ...]

    @property
    def supported(self) -> bool:
        return _no_evidence(self.rows, self.k) is None and all(r.match for r in self.rows)

    @property
    def status(self) -> str:
        if self.supported:
            return f"SUPPORTED (n <= {self.rows[-1].n})"
        worst = next((r.n for r in self.rows if not r.match), None)
        if worst is not None:
            return f"MISMATCH at n = {worst}"
        return _no_evidence(self.rows, self.k)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "conjecture",
            "a_number": self.a_number,
            "pop": self.pop_text,
            "supported": self.supported,
            "status": self.status,
            "rows": [
                {
                    "n": r.n,
                    "expected": r.formula_value,
                    "brute_value": r.brute_value,
                    "match": r.match,
                }
                for r in self.rows
            ],
        }

    def to_text(self) -> str:
        return f"conjecture {self.a_number}  {self.pop_text}  {self.status}"


def check_conjecture(a_number: str, n_max: int = 8) -> ConjectureReport:
    """Brute-force the conjecture with this A-number.  The result can
    only ever support it over the computed range, not prove it.  An
    n_max past the counting ceiling is refused, as in ``verify_theorem``."""
    _check_length(n_max, DEFAULT_CEILING)
    for text in CONJECTURES:
        if a_number in STORED_COUNTS[text][0]:
            break
    else:
        raise ValueError(f"unknown conjecture {a_number!r}")
    pop, stored = parse_pop(text), STORED_COUNTS[text][1]
    brute = count_avoiders_prefix(pop, min(n_max, len(stored))).counts
    return ConjectureReport(a_number, text, pop.k, _verify_rows([1, *stored], brute))


def check_all_conjectures(n_max: int = 8) -> list[ConjectureReport]:
    a_numbers = [STORED_COUNTS[text][0][0] for text in CONJECTURES]
    return [check_conjecture(a_number, n_max) for a_number in a_numbers]

"""Exact per-node reward vectors and the display rounding rule.

An allocation stores one integer numerator per node over a single positive
common denominator. Every mechanism here produces that form directly (the
equal-shares rewards are subtree sums of ``1/(depth+1)``, so they share the
denominator ``lcm(1..height+1)``), which keeps scaling, rounding and printing
in plain integer arithmetic; ``Fraction`` values are built only on request.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from numbers import Rational


# What ``Fraction(str)`` reads: "p/q", or a decimal with an optional exponent.
_RATIONAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(?:\d*|\d+(?:_\d+)*)"
    r"(?:/\d+(?:_\d+)*|(?:\.(?:\d+(?:_\d+)*)?)?(?:e[-+]?\d+(?:_\d+)*)?)\s*",
    re.IGNORECASE,
)


# The most digits a rational literal may expand to: the digits it writes
# plus the size of its exponent, which ``Fraction`` writes out in full.
LITERAL_DIGITS = 10**6


def excerpt(value: object) -> str:
    """``repr(value)`` for a message, bounded in length: a text of more than
    40 characters shows its first 20, then ``…`` and its length. An int is
    written by ``decimal_text``; a value whose ``repr`` fails shows its type."""
    try:
        text = (value if isinstance(value, str)
                else decimal_text(value) if value.__class__ is int else repr(value))
    except ValueError:
        return f"<{type(value).__name__}>"
    if len(text) <= 40:
        return repr(value)
    return f"{text[:20]!r}… ({len(text)} characters)"


def as_fraction(value: Rational | int | str) -> Fraction:
    """Coerce to an exact rational.

    Accepts integers, Fractions, and strings like "7/6" or "0.25": what
    ``Fraction(str)`` reads, with no digit limit. A string may expand to at
    most ``LITERAL_DIGITS`` digits, checked before any number is built, and
    its digits are read in subquadratic time. Floats are rejected: binary
    floats silently misrepresent most decimal inputs, and everything in this
    package is exact end-to-end.
    """
    if isinstance(value, float):
        raise TypeError(
            f"refusing to convert float {value!r}; pass an int, Fraction, or string"
        )
    if not isinstance(value, str):
        return Fraction(value)
    if not _RATIONAL.fullmatch(value):
        raise ValueError(f"Invalid literal for Fraction: {excerpt(value)}")
    written, _, exponent = value.strip().lower().replace("_", "").partition("e")
    magnitude = exponent.lstrip("+-")
    width = len(str(LITERAL_DIGITS))  # past this many digits, only zeros fit
    places = int(magnitude[-width:] or 0)
    if (any(map(int, set(magnitude[:-width])))
            or sum(map(str.isdigit, written)) + places > LITERAL_DIGITS):
        raise ValueError(f"literal expands to more than {LITERAL_DIGITS} digits")
    numerator, slash, denominator = written.partition("/")
    whole, _, fraction = numerator.partition(".")
    n = _digits_value(whole.lstrip("+-") + fraction)
    if whole.startswith("-"):
        n = -n
    if slash:
        d = _digits_value(denominator)
        if not d:  # ``Fraction`` would echo the numerator in full
            raise ZeroDivisionError("zero denominator")
        return Fraction(n, d)
    shift = (-places if exponent.startswith("-") else places) - len(fraction)
    return Fraction(n * 10**shift) if shift >= 0 else Fraction(n, 10**-shift)


def _digits_value(digits: str) -> int:
    """``int(digits)`` for a string of decimal digits of any length.

    ``int`` is quadratic in the length before CPython 3.12 and refuses more
    than ``sys.get_int_max_str_digits()`` digits (at least 640). Longer
    strings are split in halves, read apart and joined with int
    multiplication, which is subquadratic: ``decimal_text`` in reverse.
    """

    @cache
    def power(k: int) -> int:  # 10**k
        return 10**k

    def read(text: str) -> int:
        if len(text) <= 512:
            return int(text)
        half = len(text) >> 1
        return read(text[:-half]) * power(half) + read(text[-half:])

    return read(digits)


def common_numerators(values: list[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over the lcm of their denominators."""
    denominator = lcm(*{v.denominator for v in values})
    return [v.numerator * (denominator // v.denominator) for v in values], denominator


def _rounded(numerator: int, denominator: int) -> int:
    """``numerator/denominator`` rounded half-away-from-zero; ``denominator``
    is positive."""
    magnitude = (2 * abs(numerator) + denominator) // (2 * denominator)
    return magnitude if numerator >= 0 else -magnitude


def exact_and_display(numerator: int, denominator: int) -> tuple[str, str]:
    """The reduced "p/q" (or plain integer) text of ``numerator/denominator``
    and the text of its half-away-from-zero rounding, for integers of any
    length; ``denominator`` is positive."""
    g = gcd(numerator, denominator)
    p, q = numerator // g, denominator // g
    exact = decimal_text(p) if q == 1 else f"{decimal_text(p)}/{decimal_text(q)}"
    return exact, decimal_text(_rounded(numerator, denominator))


def decimal_text(value: int) -> str:
    """``str(value)`` for an int of any length.

    ``str`` refuses ints longer than ``sys.get_int_max_str_digits()`` digits
    (4300 by default), and coalition counts on trees of 10^4 nodes are
    longer. Those are split in halves at powers of two and put together in
    ``Decimal``, whose multiplication is subquadratic, as CPython 3.12's
    ``_pylong.int_to_decimal_string`` does.
    """
    try:
        return str(value)
    except ValueError:
        pass
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])

    @cache
    def power(bits: int) -> Decimal:  # 2**bits
        if bits <= 128:
            return ctx.power(2, bits)
        return ctx.multiply(power(bits >> 1), power(bits - (bits >> 1)))

    def convert(magnitude: int, bits: int) -> Decimal:
        if bits <= 128:
            return Decimal(magnitude)
        half = bits >> 1
        high = magnitude >> half
        return ctx.add(convert(magnitude - (high << half), half),
                       ctx.multiply(convert(high, bits - half), power(half)))

    text = str(convert(abs(value), abs(value).bit_length()))
    return "-" + text if value < 0 else text


def round_half_away_from_zero(value: Fraction) -> int:
    """Round to the nearest integer, breaking ties away from zero.

    This is the rule consistent with printed reward tables where 1166.66...
    shows as 1167 and 333.33... as 333.
    """
    value = Fraction(value)
    return _rounded(value.numerator, value.denominator)


class Allocation:
    """An exact reward per node id: ``numerators[node] / denominator``.

    ``Allocation(numerators, denominator)`` takes int numerators, as a
    mapping or as ``(node, numerator)`` pairs, over a positive int
    denominator. ``Allocation(rewards)`` takes a mapping of exact rationals
    and brings them to the lcm of their denominators. Either way the input
    is copied and checked, and node ids must be positive ints;
    ``Allocation.owning`` takes a fresh dict as it is. An immutable value,
    neither indexable nor iterable: rewards are read from ``numerators`` or
    ``rewards``, built on first use and cached like ``total``. For Shapley
    allocations the total is the grand-coalition value.
    """

    def __init__(
        self,
        values: Mapping[int, Rational | int | str] | Iterable[tuple[int, int]],
        denominator: int | None = None,
    ) -> None:
        if denominator is None:
            nodes = list(values)
            common, denominator = common_numerators(
                [as_fraction(values[node]) for node in nodes]
            )
            numerators = dict(zip(nodes, common))
        elif denominator.__class__ is not int or denominator <= 0:
            raise ValueError(
                f"denominator must be a positive int, got {excerpt(denominator)}")
        else:
            numerators = dict(values)
            for v in numerators.values():
                if v.__class__ is not int:
                    raise ValueError(f"numerators must be ints, got {excerpt(v)}")
        from .tree import _check_id  # here: tree imports this module
        for node in numerators:
            _check_id(node)
        self.numerators = numerators
        self.denominator = denominator

    @classmethod
    def owning(cls, numerators: dict[int, int], denominator: int) -> "Allocation":
        """An allocation that takes ``numerators`` as it is, without the
        constructor's copy or checks, for a caller handing over a fresh dict
        of int numerators and a positive int denominator."""
        allocation = object.__new__(cls)
        allocation.numerators = numerators
        allocation.denominator = denominator
        return allocation

    def __repr__(self) -> str:
        entries = ", ".join(f"{decimal_text(node)}: {decimal_text(numerator)}"
                            for node, numerator in self.numerators.items())
        return f"Allocation({{{entries}}}, {decimal_text(self.denominator)})"

    @cached_property
    def rewards(self) -> dict[int, Fraction]:
        """Node id -> exact reward, one ``Fraction`` per distinct numerator."""
        denominator = self.denominator
        made: dict[int, Fraction] = {}
        rewards = {}
        for node, numerator in self.numerators.items():
            value = made.get(numerator)
            if value is None:
                value = made[numerator] = Fraction(numerator, denominator)
            rewards[node] = value
        return rewards

    @cached_property
    def total(self) -> Fraction:
        return Fraction(sum(self.numerators.values()), self.denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        if self.denominator == other.denominator:
            return self.numerators == other.numerators
        mine, theirs = other.denominator, self.denominator
        return self.numerators.keys() == other.numerators.keys() and all(
            v * mine == other.numerators[node] * theirs
            for node, v in self.numerators.items()
        )

    def split(self, size: int) -> Iterator["Allocation"]:
        """The allocation in pieces of at most ``size`` nodes, in ascending
        node order, over the same denominator."""
        numerators, denominator = self.numerators, self.denominator
        nodes = sorted(numerators)
        for start in range(0, len(nodes), size):
            yield Allocation.owning(
                {node: numerators[node] for node in nodes[start:start + size]},
                denominator,
            )

    def __add__(self, other: "Allocation") -> "Allocation":
        denominator = lcm(self.denominator, other.denominator)
        merged = {}
        for part in (self, other):
            factor = denominator // part.denominator
            for node, v in part.numerators.items():
                merged[node] = merged.get(node, 0) + v * factor
        return Allocation.owning(merged, denominator)

    def scaled(self, k: Rational | int | str) -> "Allocation":
        """Every reward times ``k``: one integer multiply per node."""
        k = as_fraction(k)
        p = k.numerator
        return Allocation.owning(
            {node: p * v for node, v in self.numerators.items()},
            self.denominator * k.denominator,
        )

    def display(self) -> dict[int, int]:
        """Rewards rounded half-away-from-zero, keyed by node id."""
        denominator = self.denominator
        return {node: _rounded(numerator, denominator)
                for node, numerator in sorted(self.numerators.items())}

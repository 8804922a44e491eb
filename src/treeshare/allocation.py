"""Exact per-node reward vectors and the display rounding rule.

An allocation stores one integer numerator per node over a single positive
common denominator. Every mechanism here produces that form directly (the
equal-shares rewards are subtree sums of ``1/(depth+1)``, so they share the
denominator ``lcm(1..height+1)``), which keeps scaling, rounding and printing
in plain integer arithmetic; ``Fraction`` values are built only on request.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational


def as_fraction(value: Rational | int | str) -> Fraction:
    """Coerce to an exact rational.

    Accepts integers, Fractions, and strings like "7/6" or "0.25". Floats are
    rejected: binary floats silently misrepresent most decimal inputs, and
    everything in this package is exact end-to-end.
    """
    if isinstance(value, float):
        raise TypeError(
            f"refusing to convert float {value!r}; pass an int, Fraction, or string"
        )
    return Fraction(value)


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


_CHUNK_DIGITS = 600  # below the smallest digit limit Python allows (640)
_CHUNK = 10**_CHUNK_DIGITS


def decimal_text(value: int) -> str:
    """``str(value)`` for an int of any length.

    ``str`` refuses ints longer than ``sys.get_int_max_str_digits()`` digits
    (4300 by default), and coalition counts on trees of 10^4 nodes are
    longer; those are written out in fixed-width chunks of 600 digits.
    """
    try:
        return str(value)
    except ValueError:
        pass
    magnitude = abs(value)
    chunks = []
    while magnitude >= _CHUNK:
        magnitude, low = divmod(magnitude, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(magnitude))
    return ("-" if value < 0 else "") + "".join(reversed(chunks))


def round_half_away_from_zero(value: Fraction) -> int:
    """Round to the nearest integer, breaking ties away from zero.

    This is the rule consistent with printed reward tables where 1166.66...
    shows as 1167 and 333.33... as 333.
    """
    value = Fraction(value)
    return _rounded(value.numerator, value.denominator)


class Allocation:
    """An exact reward per node id: ``numerators[node] / denominator``.

    ``Allocation(numerators, denominator)`` takes integer numerators, as a
    mapping or as ``(node, numerator)`` pairs, over a positive integer
    denominator. ``Allocation(rewards)`` takes a mapping of exact rationals
    and brings them to the lcm of their denominators. Either way the input
    is copied; ``Allocation.owning`` takes a fresh dict as it is. Treat
    instances as immutable: ``rewards`` and ``total`` are built on first use
    and cached. For Shapley allocations the total equals the grand-coalition
    value.
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
            raise ValueError(f"denominator must be a positive int, got {denominator!r}")
        else:
            numerators = dict(values)
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
        return f"Allocation({self.numerators!r}, {self.denominator!r})"

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

    def __getitem__(self, node: int) -> Fraction:
        return Fraction(self.numerators[node], self.denominator)

    def __contains__(self, node: int) -> bool:
        return node in self.numerators

    def __len__(self) -> int:
        return len(self.numerators)

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

    def get(self, node: int, default: Fraction = Fraction(0)) -> Fraction:
        if node in self.numerators:
            return self[node]
        return default

    def items(self) -> list[tuple[int, Fraction]]:
        """(node, reward) pairs in ascending node order."""
        return sorted(self.rewards.items())

    def rows(
        self, nodes: Iterable[int] | None = None
    ) -> Iterator[tuple[int, str, str]]:
        """``(node, exact, display)`` per node, lazily: the reduced "p/q"
        text and the text of the half-away-from-zero rounding. ``nodes``
        defaults to every node in ascending order; a node without an entry
        reads 0. Each distinct numerator's text is made once."""
        numerators, denominator = self.numerators, self.denominator
        texts: dict[int, tuple[str, str]] = {}
        for node in sorted(numerators) if nodes is None else nodes:
            numerator = numerators.get(node, 0)
            text = texts.get(numerator)
            if text is None:
                text = texts[numerator] = exact_and_display(numerator, denominator)
            yield node, *text

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
        return Allocation(merged, denominator)

    def scaled(self, k: Rational | int | str) -> "Allocation":
        """Every reward times ``k``: one integer multiply per node."""
        k = as_fraction(k)
        p = k.numerator
        return Allocation(
            ((node, p * v) for node, v in self.numerators.items()),
            self.denominator * k.denominator,
        )

    def display(self) -> dict[int, int]:
        """Rewards rounded half-away-from-zero, keyed by node id."""
        denominator = self.denominator
        return {node: _rounded(numerator, denominator)
                for node, numerator in sorted(self.numerators.items())}

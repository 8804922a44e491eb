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


def exact_and_display(numerator: int, denominator: int) -> tuple[str, int]:
    """The reduced "p/q" (or plain integer) text of ``numerator/denominator``
    and its value rounded half-away-from-zero; ``denominator`` is positive."""
    g = gcd(numerator, denominator)
    q = denominator // g
    exact = str(numerator // g) if q == 1 else f"{numerator // g}/{q}"
    magnitude = (2 * abs(numerator) + denominator) // (2 * denominator)
    return exact, magnitude if numerator >= 0 else -magnitude


def round_half_away_from_zero(value: Fraction) -> int:
    """Round to the nearest integer, breaking ties away from zero.

    This is the rule consistent with printed reward tables where 1166.66...
    shows as 1167 and 333.33... as 333.
    """
    value = Fraction(value)
    return exact_and_display(value.numerator, value.denominator)[1]


class Allocation:
    """An exact reward per node id: ``numerators[node] / denominator``.

    ``Allocation(numerators, denominator)`` takes integer numerators, as a
    mapping or as ``(node, numerator)`` pairs, over a positive integer
    denominator. ``Allocation(rewards)`` takes a mapping of exact rationals
    and brings them to the lcm of their denominators. Either way the input
    is copied. Treat instances as immutable: ``rewards`` and ``total`` are
    built on first use and cached. For Shapley allocations the total equals
    the grand-coalition value.
    """

    def __init__(
        self,
        values: Mapping[int, Rational | int | str] | Iterable[tuple[int, int]],
        denominator: int | None = None,
    ) -> None:
        if denominator is None:
            rewards = {node: as_fraction(v) for node, v in values.items()}
            denominator = lcm(*(v.denominator for v in rewards.values()))
            numerators = {
                node: v.numerator * (denominator // v.denominator)
                for node, v in rewards.items()
            }
        elif denominator.__class__ is not int or denominator <= 0:
            raise ValueError(f"denominator must be a positive int, got {denominator!r}")
        else:
            numerators = dict(values)
        self.numerators = numerators
        self.denominator = denominator

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
    ) -> Iterator[tuple[int, str, int]]:
        """``(node, exact, display)`` per node, lazily: the reduced "p/q"
        text and the half-away-from-zero rounding. ``nodes`` defaults to
        every node in ascending order; a node without an entry reads 0."""
        numerators, denominator = self.numerators, self.denominator
        for node in sorted(numerators) if nodes is None else nodes:
            yield node, *exact_and_display(numerators.get(node, 0), denominator)

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
        return {node: display for node, _, display in self.rows()}

"""Allocation arithmetic, the display rounding rule, and the integer core
checked against a ``Fraction`` reference."""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction
from math import floor, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _int_digit_limit, random_tree_edges, shuffle_ids
from test_games import GAME_KINDS, random_game
from treeshare import (
    Allocation,
    EqualShares,
    Geometric,
    IncrementalState,
    MissingCoalitionValueError,
    ReferAFriend,
    TreeError,
    TreeGame,
    UnknownNodeError,
    ValueFunction,
    basic_game,
    build_tree,
    shapley_basic,
    shapley_bruteforce,
    shapley_general,
)
from treeshare.allocation import (
    LITERAL_DIGITS,
    as_fraction,
    decimal_text,
    round_half_away_from_zero,
)
from treeshare.mechanisms import (
    allocate_geometric,
    allocate_refer_a_friend,
    allocate_shapley_mechanism,
)
from treeshare.shapley import root_adjust
from treeshare.tree import chain, star
from treeshare.io import render_allocation


def test_round_half_away_from_zero_rule():
    assert round_half_away_from_zero(Fraction(3500, 3)) == 1167
    assert round_half_away_from_zero(Fraction(1000, 3)) == 333
    assert round_half_away_from_zero(Fraction(1, 2)) == 1
    assert round_half_away_from_zero(Fraction(-1, 2)) == -1
    assert round_half_away_from_zero(Fraction(5, 2)) == 3
    assert round_half_away_from_zero(Fraction(0)) == 0
    assert round_half_away_from_zero(Fraction(7)) == 7


@given(st.fractions())
def test_rounding_is_nearest_with_ties_away(x: Fraction):
    rounded = round_half_away_from_zero(x)
    assert abs(rounded - x) <= Fraction(1, 2)
    if abs(rounded - x) == Fraction(1, 2):  # a tie went away from zero
        assert abs(rounded) > abs(x)


def _check_decimal_text(values: list[int]) -> None:
    """``decimal_text`` under the smallest and the default digit limit, where
    ``str`` refuses the longer values, against ``str`` with the limit lifted."""
    with _int_digit_limit(0):
        expected = list(map(str, values))
    for limit in (640, 4300):
        with _int_digit_limit(limit):
            assert list(map(decimal_text, values)) == expected


@pytest.mark.parametrize("digits", [1, 639, 640, 641, 4300, 4301, 10_000, 65_537])
def test_decimal_text_at_powers_of_ten(digits):
    nines = 10**digits - 1
    _check_decimal_text([nines, nines + 1, -nines, -nines - 1, 10**(digits - 1)])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 100_000), st.integers(0, 10**6), st.booleans())
def test_decimal_text_is_str_at_any_length(digits, seed, negative):
    value = random.Random(seed).getrandbits(int(digits * 3.33) + 1)
    _check_decimal_text([-value if negative else value, 2**(int(digits * 3.33))])


def test_as_fraction_accepts_exact_forms():
    assert as_fraction("7/6") == Fraction(7, 6)
    assert as_fraction(3) == 3
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction("0.125") == Fraction(1, 8)
    with pytest.raises(TypeError, match="float"):
        as_fraction(0.1)


def test_as_fraction_reads_literals_past_the_digit_limit():
    rng = random.Random(97)

    def digits(k: int) -> str:
        return str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=k - 1))

    literals = ["1" + "0" * 5000, "-" + digits(10_000), digits(4301) + "/" + digits(9000),
                digits(6000) + "." + digits(4000), "." + digits(8000) + "e-37",
                " +" + digits(4299) + "E12 ", digits(3) + "/" + digits(10_000),
                # around the 512-digit pieces that are read with ``int``
                digits(512), digits(513) + "e-3", digits(511) + "." + digits(514),
                digits(1024) + "/" + digits(1025)]
    with _int_digit_limit(0):
        expected = [Fraction(text) for text in literals]
    for limit in (4300, 640):  # the default and the lowest allowed
        with _int_digit_limit(limit):
            assert [as_fraction(text) for text in literals] == expected
    with pytest.raises(ValueError, match=r"Invalid literal for Fraction: '1/-2'"):
        as_fraction("1/-2")
    with pytest.raises(ZeroDivisionError, match=r"^zero denominator$"):
        as_fraction("7/0")


def _periodic(block: str, length: int) -> tuple[str, int]:
    """``block`` repeated to ``length`` digits, and its value, worked out as
    a geometric series instead of by reading the text."""
    whole, tail = divmod(length, len(block))
    value = int(block) * (10 ** (len(block) * whole) - 1) // (10 ** len(block) - 1)
    return block * whole + block[:tail], value * 10**tail + int(block[:tail] or 0)


def test_as_fraction_reads_long_written_literals_in_subquadratic_time():
    # Reading the digits one by one, as ``Fraction(Decimal(text))`` does, is
    # quadratic: about 5 s for these two on a 2-core x86-64 host running
    # Python 3.11, against 0.4 s when the digits are read in halves.
    digits, value = _periodic("9182736", 300_001)
    point = f"-{digits[:-17]}.{digits[-17:]}e+9"
    p_text, p = _periodic("31415926535", 100_000)
    q_text, q = _periodic("2718281", 99_999)
    start = time.perf_counter()
    read = as_fraction(point), as_fraction(f"{p_text}/{q_text}")
    assert time.perf_counter() - start < 1.5
    assert read == (Fraction(-value, 10**8), Fraction(p, q))


@pytest.mark.parametrize("literal", ["1e999999999", "1e-999999999"])
def test_as_fraction_refuses_a_literal_past_the_ceiling_before_building_it(literal):
    # A billion-digit int would take over 400 MB; the exponent text alone
    # decides, so the refusal costs almost nothing.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=f"more than {LITERAL_DIGITS} digits"):
            as_fraction(literal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 2**20


def test_as_fraction_reads_the_exponent_past_leading_zeros():
    assert LITERAL_DIGITS == 10**6
    for exponent in ["0" * 20 + "2", "0_0_2", "\u0660" * 9 + "2", "0002"]:
        assert as_fraction(f"1e{exponent}") == as_fraction(f"1E+{exponent}") == 100
        assert as_fraction(f"1e-{exponent}") == Fraction(1, 100)


def test_allocation_total_and_lookup():
    allocation = Allocation({2: Fraction(1, 3), 1: Fraction(2, 3)})
    assert allocation.total == 1
    assert allocation.rewards == {1: Fraction(2, 3), 2: Fraction(1, 3)}
    assert allocation.numerators == {1: 2, 2: 1} and allocation.denominator == 3
    # A value, not a mapping: single rewards are read from ``rewards``.
    with pytest.raises(TypeError):
        allocation[1]
    with pytest.raises(TypeError):
        list(allocation)
    with pytest.raises(TypeError):
        Allocation(allocation)


def test_allocation_rejects_numerators_that_are_not_ints():
    for values, denominator in [({1: 0.5}, 1), ({1: True}, 1), ({1: Fraction(1, 2)}, 2)]:
        with pytest.raises(ValueError, match="numerators must be ints"):
            Allocation(values, denominator)
    with pytest.raises(ValueError) as info:
        Allocation({1: 1, 2: "x" * 50}, 1)
    assert str(info.value) == (
        "numerators must be ints, got 'xxxxxxxxxxxxxxxxxxxx'… (50 characters)"
    )


@pytest.mark.parametrize("args,bad", [
    (({1: 1, "a": 2}, 1), "a"),  # would fail to sort for display
    (({1.5: 1, True: 2}, 1), 1.5),
    (({True: 1}, 1), True),  # hashes as node 1 of a one-node tree
    (({1: 1, 0: 2}, 1), 0),
    (({1: Fraction(1, 2), "a": 1},), "a"),
    (({True: Fraction(1, 2)},), True),
])
def test_allocation_rejects_node_ids_that_are_not_positive_ints(args, bad):
    with pytest.raises(TreeError) as raised:
        Allocation(*args)
    assert str(raised.value) == f"node ids must be positive integers, got {bad!r}"


def test_allocation_add_and_scale():
    a = Allocation({1: Fraction(1, 2), 2: Fraction(1, 2)})
    b = Allocation({1: Fraction(1, 3), 3: Fraction(1, 3)})
    merged = a + b
    assert merged.rewards == {
        1: Fraction(5, 6),
        2: Fraction(1, 2),
        3: Fraction(1, 3),
    }
    assert a.scaled(1000).rewards == {1: 500, 2: 500}
    assert a.scaled("1/2").rewards[1] == Fraction(1, 4)


def test_allocation_display():
    allocation = Allocation({1: Fraction(3500, 3), 2: Fraction(-1, 2)})
    assert allocation.display() == {1: 1167, 2: -1}


def test_allocation_copies_input():
    source = {1: Fraction(1)}
    allocation = Allocation(source)
    source[2] = Fraction(5)
    assert 2 not in allocation.numerators


def test_owning_takes_its_dict_without_a_copy():
    numerators = {2: 1, 1: 3}
    allocation = Allocation.owning(numerators, 4)
    assert allocation.numerators is numerators
    assert allocation == Allocation({1: Fraction(3, 4), 2: Fraction(1, 4)})


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_split_pieces_cover_the_nodes_in_ascending_order(size):
    numerators = {node: node * node - 10 for node in [5, 1, 4, 2, 6, 3]}
    allocation = Allocation(numerators, 6)
    pieces = list(allocation.split(size))
    assert [len(piece.numerators) for piece in pieces[:-1]] == [size] * (len(pieces) - 1)
    assert 0 < len(pieces[-1].numerators) <= size
    assert [node for piece in pieces for node in piece.numerators] == [1, 2, 3, 4, 5, 6]
    assert all(piece.denominator == 6 for piece in pieces)
    assert {node: value for piece in pieces for node, value in piece.numerators.items()} \
        == numerators


# -- the integer core against a Fraction reference ----------------------------

def _parent_map(edges):
    return {child: parent for child, parent in edges}


def _ancestors(parent, node):
    """``node`` and every node above it, nearest first."""
    path = [node]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    return path


def reference_basic(edges, root) -> dict[int, Fraction]:
    parent = _parent_map(edges)
    rewards = {root: Fraction(0), **{child: Fraction(0) for child in parent}}
    for node in rewards:
        path = _ancestors(parent, node)
        for member in path:
            rewards[member] += Fraction(1, len(path))
    return rewards


def reference_geometric(edges, root, ratio, unit, normalize) -> dict[int, Fraction]:
    parent = _parent_map(edges)
    raw = {root: Fraction(0), **{child: Fraction(0) for child in parent}}
    for node in raw:
        for distance, member in enumerate(_ancestors(parent, node)[1:], start=1):
            raw[member] += ratio**distance
    if not normalize:
        return {node: unit * v for node, v in raw.items()}
    total = sum(raw.values())
    pool = unit * (len(raw) - 1)
    return {node: pool * v / total if total else Fraction(0) for node, v in raw.items()}


def reference_refer_a_friend(edges, root, share, unit) -> dict[int, Fraction]:
    rewards = {root: Fraction(0), **{child: Fraction(0) for child, _ in edges}}
    for child, parent in edges:
        rewards[child] += unit * (1 - share)
        rewards[parent] += unit * share
    return rewards


@st.composite
def referral_trees(draw) -> tuple[list[tuple[int, int]], int]:
    """Seeded random trees (ids shuffled or join-ordered), ``chain(61)``,
    whose denominator is lcm(1..61), and stars."""
    kind = draw(st.sampled_from(["random", "shuffled", "chain", "star"]))
    if kind == "chain":
        return [(k + 1, k) for k in range(1, 61)], 1
    if kind == "star":
        n = draw(st.integers(1, 40))
        return [(k, 1) for k in range(2, n + 1)], 1
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = random_tree_edges(rng, draw(st.integers(1, 80)), max_depth=12)
    return shuffle_ids(rng, edges, 1) if kind == "shuffled" else (edges, 1)


units = st.fractions(min_value=-50, max_value=50, max_denominator=12)
ratios = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1, 3),
                          Fraction(3, 4), Fraction(5, 7)])


def reference_round(value: Fraction) -> int:
    magnitude = floor(abs(value) + Fraction(1, 2))
    return magnitude if value >= 0 else -magnitude


def _checked(allocation: Allocation) -> dict[int, Fraction]:
    """The allocation's rewards, after checking its form and rendering."""
    assert type(allocation.denominator) is int and allocation.denominator > 0
    assert all(type(v) is int for v in allocation.numerators.values())
    tables = [
        [line.split("\t") for line in
         render_allocation(allocation, "table", exact=exact).splitlines()]
        for exact in (True, False)
    ]
    nodes = sorted(allocation.numerators)
    assert [[int(node) for node, _ in table] for table in tables] == [nodes, nodes]
    for node, (_, exact), (_, display) in zip(nodes, *tables):
        value = allocation.rewards[node]
        assert exact == str(value)
        assert display == str(round_half_away_from_zero(value))
        assert round_half_away_from_zero(value) == reference_round(value)
    csv = render_allocation(allocation, "csv").splitlines()[1:]
    assert csv == [f"{node},{v},{round_half_away_from_zero(v)}"
                   for node, v in sorted(allocation.rewards.items())]
    return allocation.rewards


@settings(max_examples=60, deadline=None)
@given(referral_trees(), units)
def test_integer_core_equal_shares_matches_reference(shape, unit):
    edges, root = shape
    tree = build_tree(edges, root)
    expected = reference_basic(edges, root)
    assert _checked(shapley_basic(tree)) == expected
    assert _checked(shapley_basic(tree).scaled(unit)) == {
        node: unit * v for node, v in expected.items()
    }
    spec = EqualShares(unit, root_adjust=True)
    adjusted = {node: unit * v for node, v in expected.items()}
    adjusted[root] -= unit
    assert _checked(allocate_shapley_mechanism(tree, spec)) == adjusted
    # the unit's denominator need not divide the allocation's
    assert _checked(root_adjust(shapley_basic(tree), root, unit)) == {
        **expected, root: expected[root] - unit
    }

    for adjust in (False, True):
        state = IncrementalState(root, root_adjust=adjust)
        for child, parent in edges:  # join order: parents come first
            delta = state.join(child, parent)
            depth = tree.depth(child)
            assert _checked(delta) == {
                member: Fraction(1, depth + 1)
                for member in _ancestors(_parent_map(edges), child)
            }
        assert _checked(state.allocation) == {
            **expected, root: expected[root] - (1 if adjust else 0)
        }


@settings(max_examples=60, deadline=None)
@given(referral_trees(), units, ratios, st.booleans())
def test_integer_core_geometric_matches_reference(shape, unit, ratio, normalize):
    edges, root = shape
    spec = Geometric(unit, ratio, normalize)
    assert _checked(allocate_geometric(build_tree(edges, root), spec)) == (
        reference_geometric(edges, root, ratio, unit, normalize)
    )


@settings(max_examples=60, deadline=None)
@given(referral_trees(), units, st.fractions(min_value=0, max_value=1,
                                             max_denominator=9))
def test_integer_core_refer_a_friend_matches_reference(shape, unit, share):
    edges, root = shape
    spec = ReferAFriend(unit, share)
    assert _checked(allocate_refer_a_friend(build_tree(edges, root), spec)) == (
        reference_refer_a_friend(edges, root, share, unit)
    )


def test_producers_that_skip_the_checks_hand_over_ints():
    # These build through ``Allocation.owning``, past the constructor's
    # checks; ``_checked`` holds them to its rule: int numerators over a
    # positive int denominator.
    rng = random.Random(139)
    factors = [-3, Fraction(-2, 7), Fraction(5, 3), 0]
    for _ in range(8):
        edges = random_tree_edges(rng, rng.randint(1, 7))
        tree = build_tree(edges, 1)
        for game in [basic_game(tree), *(random_game(rng, tree, k) for k in GAME_KINDS)]:
            assert _checked(shapley_general(game)) == _checked(shapley_bruteforce(game))
        base = shapley_basic(tree)
        for k in factors:
            assert _checked(base + base.scaled(k)) == _checked(base.scaled(1 + k))
        state = IncrementalState(1)
        for child, parent in edges:
            _checked(state.join(child, parent))
        assert _checked(state.allocation) == base.rewards


@given(st.dictionaries(st.integers(1, 10**6), st.fractions(), max_size=30), units)
def test_allocation_from_fractions_round_trips(rewards, unit):
    allocation = Allocation(rewards)
    assert _checked(allocation) == rewards
    assert allocation.total == sum(rewards.values())
    assert _checked(allocation.scaled(unit)) == {
        node: unit * v for node, v in rewards.items()
    }
    assert allocation == Allocation(allocation.numerators, allocation.denominator)
    tripled = {node: 3 * v for node, v in allocation.numerators.items()}
    assert allocation == Allocation(tripled, 3 * allocation.denominator)
    if rewards:
        node = next(iter(rewards))
        assert allocation != Allocation({**tripled, node: tripled[node] + 1},
                                        3 * allocation.denominator)


def test_chain_61_shares_one_denominator_lcm_1_to_61():
    allocation = shapley_basic(chain(61))
    assert allocation.denominator == lcm(*range(1, 62))
    assert allocation.total == 61
    assert allocation.rewards[61] == Fraction(1, 61)


def test_star_and_equality_across_denominators():
    allocation = shapley_basic(star(5))
    assert allocation.rewards == {
        1: Fraction(3), **{k: Fraction(1, 2) for k in range(2, 6)}
    }
    doubled = Allocation({n: 2 * v for n, v in allocation.numerators.items()},
                         2 * allocation.denominator)
    assert doubled == allocation
    assert doubled != allocation.scaled(2)


def test_allocation_rejects_bad_denominators():
    for bad in (0, -4, True, Fraction(3)):
        with pytest.raises(ValueError, match="denominator"):
            Allocation({1: 1}, bad)


def test_allocation_repr_and_comparison_with_a_foreign_type():
    assert repr(Allocation({1: 2}, 3)) == "Allocation({1: 2}, 3)"
    assert Allocation({1: 1}, 1) != 1 and not Allocation({1: 1}, 1) == 1


def test_allocation_repr_writes_ints_past_the_digit_limit():
    allocation = Allocation({10**4400: -(10**5000) - 1, 2: 3}, 7**6000)
    with _int_digit_limit(4300):
        text = repr(allocation)
    with _int_digit_limit(0):
        assert text == f"Allocation({allocation.numerators!r}, {allocation.denominator!r})"
        assert eval(text, {"Allocation": Allocation}) == allocation


# Each error below quotes a value through ``excerpt``. With the digit limit
# in force, a repr that holds a longer int shows as its type; with the limit
# lifted, the repr is cut like any long text. Either way the error keeps its
# type and stays one short line.
ECHOED = [
    pytest.param(lambda: chain(3).depth([10**5000]), UnknownNodeError,
                 "unknown node id ", id="depth"),
    pytest.param(lambda: chain(3).trim([1, (10**5000,)]), UnknownNodeError,
                 "unknown node id ", id="trim"),
    pytest.param(lambda: IncrementalState(1).attach(2, [10**5000]), TreeError,
                 "node ids must be positive integers, got ", id="attach"),
    pytest.param(lambda: build_tree([((10**5000,), 1)], 1), TreeError,
                 "node ids must be positive integers, got ", id="build_tree"),
    pytest.param(lambda: Allocation({1: 1}, "x" * 10**5), ValueError,
                 "denominator must be a positive int, got ", id="long-denominator"),
    pytest.param(lambda: Allocation({1: 1}, [10**5000]), ValueError,
                 "denominator must be a positive int, got ", id="huge-denominator"),
    pytest.param(lambda: TreeGame(chain(10**5), ValueFunction.linear({})), ValueError,
                 "no weight for nodes ", id="linear-missing"),
    pytest.param(lambda: TreeGame(chain(1), ValueFunction.linear({1: 1, 10**5000: 1})),
                 ValueError, "weights given for unknown nodes ", id="linear-unknown"),
    pytest.param(lambda: ValueFunction.explicit([((1, "a"), 1), (("a", 1), 2)]),
                 ValueError, "duplicate value for coalition ", id="explicit-mixed"),
    pytest.param(lambda: ValueFunction.explicit({}).of(frozenset([10**5000])),
                 MissingCoalitionValueError, "no value assigned to trimmed coalition ",
                 id="explicit-missing"),
]


@pytest.mark.parametrize("limit", [4300, 0])
@pytest.mark.parametrize("make, error, start", ECHOED)
def test_an_echoed_value_gives_a_short_typed_error(make, error, start, limit):
    with _int_digit_limit(limit), pytest.raises(error) as raised:
        make()
    message = str(raised.value)
    assert message.startswith(start) and len(message) <= 90

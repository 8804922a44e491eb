"""Value functions, coalition values, marginal contributions, scaling."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshare import (
    MissingCoalitionValueError,
    TreeGame,
    ValueFunction,
    basic_game,
    build_tree,
    coalition_value,
    coalition_values_by_mask,
    shapley_general,
)
from treeshare.games import scale_game
from treeshare.tree import chain

from conftest import all_subsets, marginal_contribution, random_tree_edges, seeded_trees
from test_perfbench_hooks import tracer_class  # noqa: F401  (a fixture)


def random_explicit_game(rng: random.Random, tree) -> TreeGame:
    """An explicit value function with small random rationals on every
    trimmed coalition."""
    values = {
        s: Fraction(rng.randint(-20, 40), rng.randint(1, 7))
        for s in tree.enumerate_trimmed()
        if s
    }
    return TreeGame(tree, ValueFunction.explicit(values))


GAME_KINDS = ("size_based", "linear", "explicit", "scaled")


def random_game(rng: random.Random, tree, kind: str) -> TreeGame:
    """A game of one of ``GAME_KINDS`` with small random rational values;
    ``scaled`` scales a basic, size-based, linear or explicit game by a
    random rational, possibly negative or zero."""
    if kind == "size_based":
        table = [0] + [
            Fraction(rng.randint(-10, 30), rng.randint(1, 6)) for _ in range(tree.n)
        ]
        return TreeGame(tree, ValueFunction.size_based(table))
    if kind == "linear":
        return TreeGame(tree, ValueFunction.linear(
            {i: Fraction(rng.randint(-5, 9), rng.randint(1, 4)) for i in tree.node_ids}
        ))
    if kind == "explicit":
        return random_explicit_game(rng, tree)
    base = rng.choice(["basic", "size_based", "linear", "explicit"])
    game = basic_game(tree) if base == "basic" else random_game(rng, tree, base)
    return scale_game(game, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))


def count_value_calls(monkeypatch) -> Counter:
    """Count, per coalition, the calls to ``ValueFunction.of`` from now on."""
    calls: Counter = Counter()
    original = ValueFunction.of

    def counting(self, members):
        calls[frozenset(members)] += 1
        return original(self, members)

    monkeypatch.setattr(ValueFunction, "of", counting)
    return calls


# -- value function variants -------------------------------------------------

def test_basic_counts_connected_members(example_tree):
    game = basic_game(example_tree)
    assert coalition_value(game, {1, 3, 6, 7}) == 4
    assert coalition_value(game, {1, 6, 7}) == 1
    assert coalition_value(game, frozenset()) == 0


def test_value_is_zero_without_root(example_tree):
    game = basic_game(example_tree)
    assert coalition_value(game, {3, 6, 7}) == 0
    assert coalition_value(game, {6}) == 0


def test_fixture_value_depends_only_on_trimmed_part(f9):
    game = basic_game(f9)
    assert coalition_value(game, {1, 3, 4, 6, 7, 8, 9}) == 4


def test_size_based_lookup():
    t = chain(2)
    game = TreeGame(t, ValueFunction.size_based([0, 10, 18]))
    assert coalition_value(game, {1, 2}) == 18
    assert coalition_value(game, {1}) == 10
    assert coalition_value(game, {2}) == 0


def test_size_based_table_length_enforced():
    with pytest.raises(ValueError, match="entries"):
        TreeGame(chain(3), ValueFunction.size_based([0, 1]))


def test_size_based_zero_entry_enforced():
    with pytest.raises(ValueError, match="empty set"):
        ValueFunction.size_based([5, 1, 2])


def test_linear_weights_sum_over_members():
    t = build_tree([(3, 1), (6, 3), (7, 3)], 1)
    f = ValueFunction.linear({1: Fraction(1, 2), 3: 2, 6: 0, 7: "1/3"})
    game = TreeGame(t, f)
    assert coalition_value(game, {1, 3, 7}) == Fraction(1, 2) + 2 + Fraction(1, 3)
    assert coalition_value(game, {1, 6}) == Fraction(1, 2)  # 6 trims away


def test_linear_weights_must_cover_all_nodes():
    with pytest.raises(ValueError, match="no weight"):
        TreeGame(chain(3), ValueFunction.linear({1: 1, 2: 1}))
    with pytest.raises(ValueError, match="unknown nodes"):
        TreeGame(chain(2), ValueFunction.linear({1: 1, 2: 1, 9: 1}))


def test_explicit_values_and_missing_entry():
    t = chain(2)
    game = TreeGame(t, ValueFunction.explicit({(1,): 1, (1, 2): 2}))
    assert coalition_value(game, {1}) == 1
    assert coalition_value(game, {1, 2}) == 2
    assert coalition_value(game, {2}) == 0  # trims to empty, defined as 0
    partial = TreeGame(t, ValueFunction.explicit({(1, 2): 2}))
    with pytest.raises(MissingCoalitionValueError):
        coalition_value(partial, {1})


def test_explicit_rejects_untrimmed_keys_and_nonzero_empty():
    t = chain(3)
    with pytest.raises(ValueError, match="not a.*trimmed"):
        TreeGame(t, ValueFunction.explicit({(1, 3): 1}))
    with pytest.raises(ValueError, match="empty"):
        ValueFunction.explicit({(): 5})
    with pytest.raises(ValueError, match="duplicate"):
        ValueFunction.explicit([((1,), 1), ((1,), 2)])


def test_floats_are_refused():
    with pytest.raises(TypeError, match="float"):
        ValueFunction.size_based([0, 0.5])


# -- one type per class ------------------------------------------------------

def _field_names(f: ValueFunction) -> set[str]:
    return set(vars(f))


def test_each_class_carries_only_its_own_data():
    built = [
        (ValueFunction.basic(), set()),
        (ValueFunction.size_based([0, 1]), {"weights"}),
        (ValueFunction.linear({1: 2}), {"weights"}),
        (ValueFunction.explicit({(1,): 3}), {"table"}),
    ]
    for f, data in built:
        assert _field_names(f) == {"scale"} | data
        scaled = f.scaled("-7/3")
        assert type(scaled) is type(f) and scaled.scale == Fraction(-7, 3)
        assert _field_names(scaled) == _field_names(f)
    assert len({type(f) for f, _ in built}) == 4


@pytest.mark.parametrize("args", [("nonsense",), ("size_based",), ()])
def test_a_value_function_needs_a_constructor(args):
    with pytest.raises(TypeError):
        ValueFunction(*args)


@pytest.mark.parametrize("kind", ["size_based", "linear", "explicit"])
def test_the_tracer_counts_every_value_call_of_each_class(kind, f9, tracer_class):
    # The benchmark counts calls by patching ``ValueFunction.of``, so no
    # class may define its own ``of``.
    game = random_game(random.Random(41), f9, kind)
    tracer = tracer_class()
    tracer.install()
    try:
        shapley_general(game)
        calls = tracer.counts["games.value_calls"]
    finally:
        tracer.uninstall()
    assert calls == len(list(f9.enumerate_trimmed()))


# -- marginal contributions ---------------------------------------------------

def test_disconnected_agents_contribute_nothing_exhaustively():
    # Whoever is outside the trimmed part adds no value by joining.
    rng = random.Random(23)
    for n in (4, 6, 8):
        tree = build_tree(random_tree_edges(rng, n), 1)
        for game in (basic_game(tree), random_explicit_game(rng, tree)):
            for members in all_subsets(tree.node_ids):
                trimmed = tree.trim(members)
                for i in members:
                    if i not in trimmed:
                        assert (
                            marginal_contribution(game, i, members - {i}) == 0
                        )


def test_same_trim_implies_same_contribution_exhaustively():
    # Two coalitions with the same trimmed part give every member the same
    # marginal contribution.
    rng = random.Random(29)
    for n in (4, 6, 8):
        tree = build_tree(random_tree_edges(rng, n), 1)
        for game in (basic_game(tree), random_explicit_game(rng, tree)):
            by_image: dict[frozenset, list[frozenset]] = {}
            for members in all_subsets(tree.node_ids):
                by_image.setdefault(tree.trim(members), []).append(members)
            for image, group in by_image.items():
                for i in image:
                    contributions = {
                        marginal_contribution(game, i, members - {i})
                        for members in group
                        if i in members
                    }
                    assert len(contributions) == 1


def test_value_equals_value_of_trim_everywhere(f9):
    game = basic_game(f9)
    for members in all_subsets(f9.node_ids):
        assert coalition_value(game, members) == coalition_value(
            game, f9.trim(members)
        )


# -- values by mask -------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(seeded_trees(max_nodes=8), st.sampled_from(GAME_KINDS),
       st.integers(min_value=0, max_value=10**6))
def test_values_by_mask_are_the_values_of_trimmed_parts(tree, kind, seed):
    game = random_game(random.Random(seed), tree, kind)
    numerators, denominator = coalition_values_by_mask(game)
    assert len(numerators) == 2 ** tree.n
    # Bit r selects the node of canonical rank r: ascending ids when every
    # edge points id-upward, otherwise (depth, id).
    monotone = all(tree.parent(i) < i for i in tree.node_ids if i != tree.root)
    order = sorted(tree.node_ids, key=(lambda i: i) if monotone
                   else (lambda i: (tree.depth(i), i)))
    for mask, numerator in enumerate(numerators):
        members = {i for r, i in enumerate(order) if mask >> r & 1}
        assert Fraction(numerator, denominator) == coalition_value(game, members)


def test_values_by_mask_evaluate_each_trimmed_coalition_once(f9, monkeypatch):
    calls = count_value_calls(monkeypatch)
    game = random_explicit_game(random.Random(5), f9)
    calls.clear()
    numerators, denominator = coalition_values_by_mask(game)
    assert set(calls) == set(f9.enumerate_trimmed())
    assert set(calls.values()) == {1}
    assert denominator > 0 and len(numerators) == 2 ** f9.n


# -- scaling -------------------------------------------------------------------

def test_scale_game_multiplies_values(example_tree):
    game = basic_game(example_tree)
    scaled = scale_game(game, 88)
    for members in all_subsets(example_tree.node_ids):
        assert coalition_value(scaled, members) == 88 * coalition_value(game, members)
    assert coalition_value(scale_game(game, 1), {1, 3}) == 2
    null = scale_game(game, 0)
    assert all(
        coalition_value(null, members) == 0
        for members in all_subsets(example_tree.node_ids)
    )


def test_scaling_composes_and_leaves_original_untouched(example_tree):
    game = basic_game(example_tree)
    twice = scale_game(scale_game(game, 4), "1/2")
    assert coalition_value(twice, {1, 3}) == 4
    assert coalition_value(game, {1, 3}) == 2
    assert game.f.scale == 1

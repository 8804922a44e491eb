"""The three Shapley routes, root adjustment, and incremental joins."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshare import (
    IncrementalState,
    SizeLimitError,
    TreeError,
    TreeGame,
    UnknownNodeError,
    ValueFunction,
    basic_game,
    build_tree,
    shapley_basic,
    shapley_bruteforce,
    shapley_general,
    shapley_value,
)
from treeshare.games import scale_game
from treeshare.io import parse_event_log, replay_events
from treeshare.shapley import root_adjust
from treeshare.tree import chain, star

from conftest import (
    all_tree_edge_lists,
    random_tree_edges,
    seeded_trees,
    shapley_by_permutations,
    shuffle_ids,
    subtree_height,
    subtree_level,
)
from test_games import GAME_KINDS, count_value_calls, random_explicit_game, random_game


# -- brute force ---------------------------------------------------------------

def test_bruteforce_two_agent_explicit():
    game = TreeGame(chain(2), ValueFunction.explicit({(1,): 1, (1, 2): 2}))
    allocation = shapley_bruteforce(game)
    assert allocation[1] == Fraction(3, 2)
    assert allocation[2] == Fraction(1, 2)


def test_bruteforce_single_node():
    allocation = shapley_bruteforce(basic_game(build_tree([], 1)))
    assert allocation.rewards == {1: Fraction(1)}


def test_bruteforce_example_tree(example_tree):
    allocation = shapley_bruteforce(basic_game(example_tree))
    assert allocation.rewards == {
        1: Fraction(13, 6),
        3: Fraction(7, 6),
        6: Fraction(1, 3),
        7: Fraction(1, 3),
    }


def test_bruteforce_respects_limit():
    tree = chain(11)
    with pytest.raises(SizeLimitError):
        shapley_bruteforce(basic_game(tree))
    shapley_bruteforce(basic_game(tree), limit=11)  # override works


def test_bruteforce_agrees_with_permutation_definition():
    # The coalition-weighted sum must equal the literal average over join
    # orders, for basic and for arbitrary explicit value functions.
    rng = random.Random(31)
    for n in (2, 3, 4, 5):
        tree = build_tree(random_tree_edges(rng, n), 1)
        for game in (basic_game(tree), random_explicit_game(rng, tree)):
            expected = shapley_by_permutations(game)
            assert shapley_bruteforce(game).rewards == expected


# -- closed form (basic games) ---------------------------------------------------

def test_basic_closed_form_examples(example_tree):
    assert shapley_basic(example_tree).rewards == {
        1: Fraction(13, 6),
        3: Fraction(7, 6),
        6: Fraction(1, 3),
        7: Fraction(1, 3),
    }
    assert shapley_basic(chain(3)).rewards == {
        1: Fraction(11, 6),
        2: Fraction(5, 6),
        3: Fraction(1, 3),
    }
    assert shapley_basic(build_tree([], 1)).rewards == {1: Fraction(1)}


def test_basic_closed_form_star():
    allocation = shapley_basic(star(4))
    assert allocation[1] == Fraction(5, 2)
    assert all(allocation[leaf] == Fraction(1, 2) for leaf in (2, 3, 4))


def test_basic_matches_per_node_level_sum(f9):
    # Spot-check the per-node form: levels of the subtree over depth+j+1.
    allocation = shapley_basic(f9)
    for i in f9.node_ids:
        expected = sum(
            Fraction(len(subtree_level(f9, i, j)), f9.depth(i) + j + 1)
            for j in range(subtree_height(f9, i) + 1)
        )
        assert allocation[i] == expected


def test_basic_equals_bruteforce_small_shapes():
    for n in range(1, 6):
        for edges in all_tree_edge_lists(n):
            tree = build_tree(edges, 1)
            assert shapley_basic(tree).rewards == shapley_bruteforce(
                basic_game(tree)
            ).rewards


def test_basic_handles_shuffled_ids():
    rng = random.Random(37)
    for _ in range(10):
        edges, root = shuffle_ids(rng, random_tree_edges(rng, 7), 1)
        tree = build_tree(edges, root)
        assert shapley_basic(tree).rewards == shapley_bruteforce(
            basic_game(tree)
        ).rewards


def test_basic_efficiency_and_root_dominance():
    # Exhaustive over every shape up to 8 nodes, then larger random trees:
    # everyone earns at least 1/n and nobody beats the root.
    trees = [
        build_tree(edges, 1)
        for n in range(1, 9)
        for edges in all_tree_edge_lists(n)
    ]
    rng = random.Random(41)
    trees += [
        build_tree(random_tree_edges(rng, rng.randint(1, 300)), 1) for _ in range(10)
    ]
    for tree in trees:
        allocation = shapley_basic(tree)
        assert allocation.total == tree.n
        top = allocation[tree.root]
        assert all(v >= Fraction(1, tree.n) for _, v in allocation.items())
        assert all(v <= top for _, v in allocation.items())


def test_siblings_with_isomorphic_subtrees_earn_equally(example_tree):
    allocation = shapley_basic(example_tree)
    assert allocation[6] == allocation[7]


# -- general theorem ---------------------------------------------------------------

def test_general_two_agent_chain():
    game = TreeGame(chain(2), ValueFunction.explicit({(1,): 1, (1, 2): 2}))
    allocation = shapley_general(game)
    assert allocation[2] == Fraction(1, 2)
    assert allocation[1] == Fraction(3, 2)


def test_general_equals_basic_on_any_tree(f9):
    assert shapley_general(basic_game(f9)).rewards == shapley_basic(f9).rewards


def test_general_star_basic():
    allocation = shapley_general(basic_game(star(4)))
    assert allocation[1] == Fraction(5, 2)
    assert allocation[2] == Fraction(1, 2)


def test_general_equals_bruteforce_on_random_explicit_games():
    rng = random.Random(43)
    for _ in range(12):
        n = rng.randint(2, 7)
        edges, root = (
            shuffle_ids(rng, random_tree_edges(rng, n), 1)
            if rng.random() < 0.5
            else (random_tree_edges(rng, n), 1)
        )
        tree = build_tree(edges, root)
        game = random_explicit_game(rng, tree)
        assert shapley_general(game).rewards == shapley_bruteforce(game).rewards


def test_general_linear_weights_match_bruteforce():
    rng = random.Random(47)
    tree = build_tree(random_tree_edges(rng, 6), 1)
    weights = {i: Fraction(rng.randint(-5, 9), rng.randint(1, 4)) for i in tree.node_ids}
    game = TreeGame(tree, ValueFunction.linear(weights))
    assert shapley_general(game).rewards == shapley_bruteforce(game).rewards


def test_general_size_based_match_bruteforce():
    rng = random.Random(53)
    tree = build_tree(random_tree_edges(rng, 6), 1)
    table = [0] + [Fraction(rng.randint(0, 30), 2) for _ in range(tree.n)]
    game = TreeGame(tree, ValueFunction.size_based(table))
    assert shapley_general(game).rewards == shapley_bruteforce(game).rewards


@settings(max_examples=150, deadline=None)
@given(seeded_trees(max_nodes=9), st.sampled_from(GAME_KINDS),
       st.integers(min_value=0, max_value=10**6))
def test_general_equals_bruteforce_on_random_games(tree, kind, seed):
    game = random_game(random.Random(seed), tree, kind)
    general = shapley_general(game)
    brute = shapley_bruteforce(game)
    assert general.rewards == brute.rewards
    for allocation in (general, brute):
        # the lcm of the rewards' denominators, as documented
        assert allocation.denominator == lcm(
            *(v.denominator for v in allocation.rewards.values())
        )


def test_general_evaluates_each_trimmed_coalition_once(f9, monkeypatch):
    calls = count_value_calls(monkeypatch)
    game = random_game(random.Random(9), f9, "size_based")
    allocation = shapley_general(game)
    assert set(calls) == set(f9.enumerate_trimmed())
    assert set(calls.values()) == {1}
    assert allocation.rewards == shapley_bruteforce(game).rewards


def test_general_agrees_with_closed_form_past_brute_force_reach():
    rng = random.Random(67)
    for edges in (random_tree_edges(rng, 18), random_tree_edges(rng, 16, 3)):
        tree = build_tree(edges, 1)
        assert shapley_general(basic_game(tree)) == shapley_basic(tree)
        scaled = scale_game(basic_game(tree), Fraction(-7, 3))
        assert shapley_general(scaled) == shapley_basic(tree).scaled(Fraction(-7, 3))


# -- dispatcher and linearity ----------------------------------------------------

def test_dispatcher_routes_basic_and_scaled(example_tree):
    game = basic_game(example_tree)
    assert shapley_value(game).rewards == shapley_basic(example_tree).rewards
    scaled = scale_game(game, 88)
    expected = {i: 88 * v for i, v in shapley_basic(example_tree).rewards.items()}
    assert shapley_value(scaled).rewards == expected
    # every route agrees on the scaled game too
    assert shapley_bruteforce(scaled).rewards == expected
    assert shapley_general(scaled).rewards == expected


def test_dispatcher_takes_the_closed_form_for_a_scaled_basic_game(monkeypatch):
    # The trimmed-coalition sum would visit 2**39 coalitions of this star.
    def refuse(game):
        raise AssertionError("shapley_value took the general route")

    monkeypatch.setattr("treeshare.shapley.shapley_general", refuse)
    tree = star(40)
    k = Fraction(-7, 3)
    assert shapley_value(scale_game(basic_game(tree), k)) == shapley_basic(tree).scaled(k)


def test_scaling_linearity_on_general_games():
    rng = random.Random(59)
    tree = build_tree(random_tree_edges(rng, 6), 1)
    game = random_explicit_game(rng, tree)
    base = shapley_value(game)
    for k in (2, 88, Fraction(1, 3), 0):
        scaled = shapley_value(scale_game(game, k))
        assert scaled.rewards == {i: k * v for i, v in base.rewards.items()}


def test_efficiency_on_every_route():
    rng = random.Random(61)
    for _ in range(6):
        tree = build_tree(random_tree_edges(rng, rng.randint(1, 7)), 1)
        game = random_explicit_game(rng, tree)
        grand = game.f.of(frozenset(tree.node_ids))
        assert shapley_bruteforce(game).total == grand
        assert shapley_general(game).total == grand
        assert shapley_basic(tree).total == tree.n


# -- root adjustment ----------------------------------------------------------------

def test_root_adjust_examples(example_tree):
    allocation = shapley_basic(example_tree)
    adjusted = root_adjust(allocation, example_tree.root)
    assert adjusted.rewards == {
        1: Fraction(7, 6),
        3: Fraction(7, 6),
        6: Fraction(1, 3),
        7: Fraction(1, 3),
    }
    assert adjusted.total == allocation.total - 1


def test_root_adjust_single_node():
    tree = build_tree([], 1)
    assert root_adjust(shapley_basic(tree), 1).rewards == {1: Fraction(0)}


def test_root_adjust_scaled_units(example_tree):
    scaled = shapley_basic(example_tree).scaled(1000)
    adjusted = root_adjust(scaled, 1, 1000)
    assert adjusted[1] == Fraction(7000, 6)
    assert adjusted[3] == Fraction(7000, 6)


def test_root_adjust_requires_root_entry(example_tree):
    with pytest.raises(UnknownNodeError):
        root_adjust(shapley_basic(example_tree), 42)


# -- incremental joins -----------------------------------------------------------

def test_join_deltas_replay_example():
    state = IncrementalState(1)
    assert state.allocation.rewards == {1: Fraction(1)}
    d1 = state.join(3, 1)
    assert d1.rewards == {1: Fraction(1, 2), 3: Fraction(1, 2)}
    d2 = state.join(6, 3)
    assert d2.rewards == {1: Fraction(1, 3), 3: Fraction(1, 3), 6: Fraction(1, 3)}
    d3 = state.join(7, 3)
    assert d3.rewards == {1: Fraction(1, 3), 3: Fraction(1, 3), 7: Fraction(1, 3)}
    assert state.allocation.rewards == {
        1: Fraction(13, 6),
        3: Fraction(7, 6),
        6: Fraction(1, 3),
        7: Fraction(1, 3),
    }


def test_join_below_leaf_pays_quarters(example_tree):
    state = IncrementalState(1)
    for node, parent in ((3, 1), (6, 3), (7, 3)):
        state.join(node, parent)
    delta = state.join(8, 7)
    assert delta.rewards == {
        1: Fraction(1, 4),
        3: Fraction(1, 4),
        7: Fraction(1, 4),
        8: Fraction(1, 4),
    }


def test_first_child_of_root_splits_in_half():
    state = IncrementalState(1)
    delta = state.join(2, 1)
    assert delta.rewards == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert state.allocation.rewards == {1: Fraction(3, 2), 2: Fraction(1, 2)}


def test_join_validation():
    state = IncrementalState(1)
    with pytest.raises(UnknownNodeError):
        state.join(5, 99)
    state.join(2, 1)
    with pytest.raises(TreeError, match="already"):
        state.join(2, 1)
    with pytest.raises(TreeError, match="positive"):
        state.join(-4, 1)


def test_attach_returns_nothing_and_builds_no_delta():
    state = IncrementalState(1)
    assert state.attach(3, 1) is None
    assert state.attach(6, 3) is None
    assert state.join(7, 3).rewards == {
        1: Fraction(1, 3), 3: Fraction(1, 3), 7: Fraction(1, 3)}
    assert state.allocation.rewards == shapley_basic(state.to_tree()).rewards
    assert state.depth(6) == 2
    with pytest.raises(UnknownNodeError, match="unknown node id 42"):
        state.depth(42)


def test_depth_walks_a_long_chain_without_recursion():
    state = IncrementalState(1)
    n = 100_000
    for node in range(2, n + 1):
        state.attach(node, node - 1)
    assert state.depth(n) == n - 1
    assert state.depth(n // 2) == n // 2 - 1
    assert state.depth(1) == 0


def test_join_delta_denominator_is_the_depth_plus_one():
    rng = random.Random(83)
    for _ in range(10):
        edges = random_tree_edges(rng, rng.randint(2, 80), rng.choice([None, 3]))
        edges, root = shuffle_ids(rng, edges, 1)
        state = IncrementalState(root)
        denominators = {node: state.join(node, parent).denominator
                        for node, parent in edges}
        tree = state.to_tree()
        assert denominators == {node: tree.depth(node) + 1 for node, _ in edges}
        assert all(state.depth(node) == tree.depth(node) for node in tree.node_ids)


def test_replay_and_snapshot_keep_one_table_per_join():
    # The state holds only each member's parent; the snapshot adds one table.
    # A second table of depths would take about 50 more bytes per join.
    rng = random.Random(89)
    joins = 50_000
    lines = [f"{seq} {node} {parent}\n"
             for seq, (node, parent) in enumerate(random_tree_edges(rng, joins + 1), 1)]
    tracemalloc.start()
    try:
        state = replay_events(parse_event_log(lines), 1)
        snapshot = state.allocation
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(snapshot) == joins + 1
    assert peak / joins < 200


@pytest.mark.parametrize("step", ["attach", "join"])
def test_a_rejected_join_changes_nothing(step):
    state = IncrementalState(1)
    state.join(2, 1)
    before = (state.n, state.allocation)
    for node, parent, error, match in [
        (5, 99, UnknownNodeError, "unknown parent 99"),
        (2, 1, TreeError, "node 2 already joined"),
        (-4, 2, TreeError, "positive integers, got -4"),
        (2.5, 2, TreeError, "positive integers, got 2.5"),
    ]:
        with pytest.raises(error, match=match):
            getattr(state, step)(node, parent)
    assert (state.n, state.allocation) == before


def test_incremental_equals_batch_on_random_sequences():
    rng = random.Random(67)
    for _ in range(10):
        n = rng.randint(1, 60)
        edges = random_tree_edges(rng, n)
        state = IncrementalState(1)
        running = state.allocation
        for node, parent in edges:
            running = running + state.join(node, parent)
        tree = state.to_tree()
        batch = shapley_basic(tree)
        assert state.allocation.rewards == batch.rewards
        assert running.rewards == batch.rewards
        assert state.n == n
        assert state.depth(1) == 0


def test_incremental_root_adjust_view():
    state = IncrementalState(1, root_adjust=True)
    assert state.allocation.rewards == {1: Fraction(0)}
    state.join(3, 1)
    assert state.allocation.rewards == {1: Fraction(-1, 2) + 1, 3: Fraction(1, 2)}


def test_sum_of_bruteforce_on_sum_of_games_is_additive():
    # Additivity: rewards in a sum of two games add up agentwise. Explicit
    # tables on the same tree can be summed key by key.
    rng = random.Random(71)
    tree = build_tree(random_tree_edges(rng, 5), 1)
    a = random_explicit_game(rng, tree)
    b = random_explicit_game(rng, tree)
    combined = TreeGame(
        tree,
        ValueFunction.explicit(
            {s: a.f.of(s) + b.f.of(s) for s in tree.enumerate_trimmed() if s}
        ),
    )
    left = shapley_bruteforce(a) + shapley_bruteforce(b)
    assert left.rewards == shapley_bruteforce(combined).rewards

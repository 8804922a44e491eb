"""Acceptance criteria, one test per criterion, run at stated tolerances.

Every check is exact (rational or integer equality); the only tolerances are
runtime budgets. Each test prints a single pass/fail line (visible with
``pytest -s`` or in captured output on failure).
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from functools import lru_cache

from treeshare import (
    EqualShares,
    IncrementalState,
    TreeGame,
    ValueFunction,
    basic_game,
    build_tree,
    compare,
    count_trimmed_containing,
    is_convex,
    is_in_core,
    shapley_basic,
    shapley_bruteforce,
    shapley_general,
    shapley_value,
)
from treeshare.analysis import binary_tree_count, complexity_table
from treeshare.games import scale_game
from treeshare.mechanisms import allocate_shapley_mechanism
from treeshare.tree import chain, complete_binary_tree, star
from treeshare.cli import main as cli_main
from treeshare.io import JoinEvent, replay_events

from conftest import all_tree_edge_lists, random_tree_edges

EXAMPLE_EDGES = [(3, 1), (6, 3), (7, 3)]


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number} ({title}): {status}{suffix}")
    assert ok, f"criterion {number} ({title}) failed {suffix}"


# -- shared corpora ----------------------------------------------------------

@lru_cache(maxsize=None)
def basic_corpus():
    """Criterion 2's corpus: every shape up to n=7 plus 200 random n=8 trees,
    with closed-form and brute-force allocations for each."""
    trees = []
    shape_counts = {}
    for n in range(1, 8):
        edge_lists = all_tree_edge_lists(n)
        shape_counts[n] = len(edge_lists)
        trees.extend(build_tree(edges, 1) for edges in edge_lists)
    rng = random.Random(88001)
    trees.extend(build_tree(random_tree_edges(rng, 8), 1) for _ in range(200))
    results = [
        (tree, shapley_basic(tree), shapley_bruteforce(basic_game(tree)))
        for tree in trees
    ]
    return results, shape_counts


@lru_cache(maxsize=None)
def general_corpus():
    """Criterion 3's corpus: 100 seeded explicit value functions on random
    trees of up to 8 nodes, with both allocations for each."""
    rng = random.Random(88002)
    results = []
    for _ in range(100):
        tree = build_tree(random_tree_edges(rng, rng.randint(2, 8)), 1)
        values = {
            s: Fraction(rng.randint(-50, 100), rng.randint(1, 9))
            for s in tree.enumerate_trimmed()
            if s
        }
        game = TreeGame(tree, ValueFunction.explicit(values))
        results.append((game, shapley_general(game), shapley_bruteforce(game)))
    return results


# -- criteria ------------------------------------------------------------------

def test_criterion_1_reward_table_reproduction(tmp_path, capsys):
    started = time.perf_counter()
    path = tmp_path / "tree.json"
    path.write_text(
        json.dumps(
            {
                "root": 1,
                "edges": [{"child": c, "parent": p} for c, p in EXAMPLE_EDGES],
            }
        )
    )
    code = cli_main(["compute", str(path), "--unit", "1000", "--format", "csv"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started

    got = {}
    for line in out.splitlines()[1:]:
        mechanism, node, _, display = line.split(",")
        got.setdefault(mechanism, {})[int(node)] = int(display)
    expected = {
        "refer_a_friend": {1: 500, 3: 1500, 6: 500, 7: 500},
        "geometric": {1: 1500, 3: 1500, 6: 0, 7: 0},
        "shapley": {1: 1167, 3: 1167, 6: 333, 7: 333},
    }
    with capsys.disabled():
        report(
            1,
            "reward table reproduction",
            code == 0 and got == expected and elapsed < 1.0,
            f"{elapsed:.3f}s",
        )


def test_criterion_2_basic_oracle_equivalence(capsys):
    started = time.perf_counter()
    results, shape_counts = basic_corpus()
    mismatches = sum(
        1 for _, closed, brute in results if closed.rewards != brute.rewards
    )
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(
            2,
            "closed form equals brute force on basic games",
            mismatches == 0
            and shape_counts == {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48}
            and len(results) == 85 + 200
            and elapsed < 60.0,
            f"{len(results)} trees, {elapsed:.2f}s",
        )


def test_criterion_3_general_oracle_equivalence(capsys):
    started = time.perf_counter()
    results = general_corpus()
    mismatches = sum(
        1 for _, general, brute in results if general.rewards != brute.rewards
    )
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(
            3,
            "trimmed-coalition sum equals brute force on explicit games",
            mismatches == 0 and len(results) == 100 and elapsed < 120.0,
            f"{len(results)} games, {elapsed:.2f}s",
        )


def test_criterion_4_efficiency_axiom(capsys):
    basic_results, _ = basic_corpus()
    ok = all(
        closed.total == tree.n and brute.total == tree.n
        for tree, closed, brute in basic_results
    )
    ok = ok and all(
        general.total == game.f.of(frozenset(game.tree.node_ids))
        and brute.total == game.f.of(frozenset(game.tree.node_ids))
        for game, general, brute in general_corpus()
    )
    rng = random.Random(88004)
    large = [build_tree(random_tree_edges(rng, rng.randint(2, 500)), 1) for _ in range(50)]
    ok = ok and all(shapley_basic(tree).total == tree.n for tree in large)
    with capsys.disabled():
        report(
            4,
            "rewards always sum to the grand coalition value",
            ok,
            f"{len(basic_results) + len(general_corpus()) + len(large)} games",
        )


def test_criterion_5_convexity_and_core(capsys):
    results, _ = basic_corpus()
    violations = 0
    for tree, closed, _ in results:
        game = basic_game(tree)
        if not is_convex(game).convex:
            violations += 1
        if not is_in_core(game, closed).in_core:
            violations += 1
    with capsys.disabled():
        report(
            5,
            "basic games are convex with Shapley allocation in the core",
            violations == 0,
            f"{len(results)} trees, {violations} violations",
        )


def test_criterion_6_counting_closed_forms(capsys):
    ok = True
    for n in range(1, 13):
        h = n - 1
        for row in complexity_table(chain(n)):
            d = chain(n).depth(row.node)
            ok = ok and row.cfg_count == 2 ** (n - 1)
            ok = ok and row.tree_game_count == h - d + 1
            ok = ok and row.basic_count == h - d + 1
        if n >= 2:
            tree = star(n)
            for row in complexity_table(tree):
                ok = ok and row.cfg_count == 2 ** (n - 1)
                if row.node == 1:
                    ok = ok and row.tree_game_count == 2 ** (n - 1)
                else:
                    ok = ok and row.tree_game_count == 2 ** (n - 2)
                    ok = ok and row.basic_count == 1
    ok = ok and binary_tree_count(1, 0) == 4 and binary_tree_count(2, 1) == 20
    for h in range(5):
        tree = complete_binary_tree(h)
        for i in tree.node_ids:
            ok = ok and count_trimmed_containing(tree, i) == binary_tree_count(
                h, tree.depth(i)
            )
    with capsys.disabled():
        report(6, "per-node counting matches the closed forms", ok)


def test_criterion_7_linearity_under_scaling(capsys):
    rng = random.Random(88007)
    ok = True
    for _ in range(20):
        tree = build_tree(random_tree_edges(rng, rng.randint(1, 50)), 1)
        game = basic_game(tree)
        base = shapley_value(game)
        for k in (2, 88, Fraction(1, 3)):
            scaled = shapley_value(scale_game(game, k))
            ok = ok and scaled.rewards == {
                i: k * v for i, v in base.rewards.items()
            }
    with capsys.disabled():
        report(7, "scaling a game scales every reward exactly", ok, "20 trees x 3 factors")


def test_criterion_8_incremental_equals_batch(tmp_path, capsys):
    rng = random.Random(88008)
    ok = True

    # 100 seeded sequences through the stream driver, checked against the
    # batch mechanism on the final tree.
    for _ in range(97):
        n = rng.randint(1, 10_000)
        events = [
            JoinEvent(seq, node, parent)
            for seq, (node, parent) in enumerate(random_tree_edges(rng, n), start=1)
        ]
        state = replay_events(events, root=1, root_adjust=True)
        batch = allocate_shapley_mechanism(
            state.to_tree(), EqualShares(1, root_adjust=True)
        )
        ok = ok and state.allocation.rewards == batch.rewards

    # and three sequences through the actual command surface
    for trial in range(3):
        n = rng.randint(2, 2000)
        edges = random_tree_edges(rng, n)
        log = tmp_path / f"joins-{trial}.log"
        log.write_text(
            "".join(f"{seq} {c} {p}\n" for seq, (c, p) in enumerate(edges, start=1))
        )
        treefile = tmp_path / f"tree-{trial}.json"
        treefile.write_text(
            json.dumps(
                {"root": 1, "edges": [{"child": c, "parent": p} for c, p in edges]}
            )
        )
        code1 = cli_main(
            ["stream", str(log), "--root", "1", "--quiet", "--format", "csv"]
        )
        stream_out = capsys.readouterr().out
        code2 = cli_main(
            ["compute", str(treefile), "--mechanism", "shapley", "--format", "csv"]
        )
        compute_out = capsys.readouterr().out
        stream_final = {
            line.split(",")[0]: line.split(",")[1]
            for line in stream_out.splitlines()[1:]
        }
        compute_final = {
            line.split(",")[1]: line.split(",")[2]
            for line in compute_out.splitlines()[1:]
        }
        ok = ok and code1 == 0 and code2 == 0 and stream_final == compute_final

    # one million joins, capped depth, timed
    depth = [0] * 1_000_001
    eligible = [1]
    big = []
    for node in range(2, 1_000_001):
        parent = eligible[rng.randrange(len(eligible))]
        big.append((node, parent))
        d = depth[parent] + 1
        depth[node] = d
        if d < 50:
            eligible.append(node)
    state = IncrementalState(1)
    started = time.perf_counter()
    join = state.join
    for node, parent in big:
        join(node, parent)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0 and max(depth) <= 50
    ok = ok and state.allocation.total == 1_000_000

    with capsys.disabled():
        report(
            8,
            "replayed streams equal batch; a million joins stay fast",
            ok,
            f"10^6 joins in {elapsed:.2f}s",
        )


def test_criterion_9_worked_example_narrative(capsys):
    state = IncrementalState(1)
    deltas = [state.join(*edge) for edge in EXAMPLE_EDGES]
    ok = deltas[0].rewards == {1: Fraction(1, 2), 3: Fraction(1, 2)}
    ok = ok and deltas[1].rewards == {
        1: Fraction(1, 3),
        3: Fraction(1, 3),
        6: Fraction(1, 3),
    }
    ok = ok and deltas[2].rewards == {
        1: Fraction(1, 3),
        3: Fraction(1, 3),
        7: Fraction(1, 3),
    }
    # at 1000 units, the middle join pays 333 (display) to each of 1, 3, 6
    scaled = deltas[1].scaled(1000)
    ok = ok and scaled.display() == {1: 333, 3: 333, 6: 333}
    # a hypothetical child of 7 pays exactly 250 to each of four nodes
    extra = state.join(9, 7).scaled(1000)
    ok = ok and extra.rewards == {
        1: Fraction(250),
        3: Fraction(250),
        7: Fraction(250),
        9: Fraction(250),
    }
    with capsys.disabled():
        report(9, "worked-example join deltas", ok)

"""End-to-end CLI runs: compute, stream, verify, count, and exit codes."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import floor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshare import IncrementalState
from treeshare import io as treeshare_io
from treeshare.allocation import exact_and_display, round_half_away_from_zero
from treeshare.cli import CHUNK_ROWS, DELTA_CHUNK_LINES, main
from treeshare.io import (
    RunConfig,
    parse_event_log,
    parse_tree_file,
    render_allocation,
    render_report,
    replay_events,
)
from treeshare.mechanisms import compare

from conftest import F9_EDGES, _int_digit_limit, random_tree_edges, shuffle_ids
from test_golden import load_transcript

EXAMPLE_DOC = json.dumps(
    {
        "root": 1,
        "edges": [
            {"child": 3, "parent": 1},
            {"child": 6, "parent": 3},
            {"child": 7, "parent": 3},
        ],
    }
)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(EXAMPLE_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def example_log(tmp_path):
    path = tmp_path / "joins.log"
    path.write_text("1 3 1\n2 6 3\n3 7 3\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute ---------------------------------------------------------------------

def test_compute_reproduces_reward_table(example_file, capsys):
    code, out, _ = run(capsys, "compute", example_file, "--unit", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["refer_a_friend", "500", "1500", "500", "500"]
    assert lines[2].split() == ["geometric", "1500", "1500", "0", "0"]
    assert lines[3].split() == ["shapley", "1167", "1167", "333", "333"]


def test_compute_exact_single_mechanism(example_file, capsys):
    code, out, _ = run(
        capsys, "compute", example_file,
        "--mechanism", "shapley", "--unit", "1000", "--exact", "--format", "csv",
    )
    assert code == 0
    assert "shapley,1,3500/3,1167" in out
    assert "shapley,6,1000/3,333" in out


def test_compute_no_root_adjust(example_file, capsys):
    code, out, _ = run(
        capsys, "compute", example_file,
        "--mechanism", "shapley", "--unit", "1000", "--no-root-adjust",
        "--format", "csv",
    )
    assert code == 0
    assert "shapley,1,6500/3,2167" in out


def test_compute_unknown_mechanism_fails_before_computing(example_file, capsys):
    code, _, err = run(capsys, "compute", example_file, "--mechanism", "lottery")
    assert code == 1
    assert "unknown mechanism" in err


def test_compute_missing_file(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent/tree.json")
    assert code == 1
    assert "cannot read" in err


def test_compute_invalid_tree(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"root": 1, "edges": [{"child": 2, "parent": 9}]}')
    code, _, err = run(capsys, "compute", str(path))
    assert code == 1
    assert "unreachable" in err


def test_compute_config_file_with_flag_override(example_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"unit": "1000", "mechanisms": ["shapley"]}))
    code, out, _ = run(
        capsys, "compute", example_file, "--config", str(config), "--format", "csv",
    )
    assert code == 0
    assert "shapley,1,3500/3,1167" in out
    assert "geometric" not in out
    # flag beats config
    code, out, _ = run(
        capsys, "compute", example_file, "--config", str(config),
        "--unit", "1", "--format", "csv", "--exact",
    )
    assert code == 0
    assert "shapley,1,7/6,1" in out


@pytest.mark.parametrize(
    "command,entry",
    [
        ("compute", {"root_adjust": "false"}),
        ("compute", {"exact": 0}),
        ("compute", {"normalize": "no"}),
        ("verify", {"limit_core": 2.9}),
        ("verify", {"limit_bruteforce": True}),
        ("verify", {"limit_bruteforce": 21}),
        ("verify", {"limit_core": 21}),
        ("verify", {"limit_convex": 40}),
        ("verify", {"limit_convex": -2}),
        ("verify", {"limit_core": -1.0}),
    ],
)
def test_config_file_with_mistyped_entry_exits_1(
    command, entry, example_file, tmp_path, capsys
):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entry))
    code, out, err = run(capsys, command, example_file, "--config", str(config))
    assert code == 1
    assert out == ""
    assert f"error: config field '{next(iter(entry))}'" in err
    assert "Traceback" not in err


def test_config_file_json_booleans_apply(example_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"root_adjust": False, "exact": True,
                                  "mechanisms": ["shapley"]}))
    code, out, _ = run(capsys, "compute", example_file, "--config", str(config))
    assert code == 0
    assert out.splitlines()[1].split() == ["shapley", "13/6", "7/6", "1/3", "1/3"]


# -- stream -----------------------------------------------------------------------

def test_stream_replays_example(example_log, capsys):
    code, out, _ = run(
        capsys, "stream", example_log, "--root", "1", "--unit", "1000",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seq 1: node 3 joins 1; +500 to each of [1,3]"
    assert lines[1] == "seq 2: node 6 joins 3; +333 to each of [1,3,6]"
    assert lines[2] == "seq 3: node 7 joins 3; +333 to each of [1,3,7]"
    assert "node,exact,display" in lines
    # root adjustment is on by default, so the root shows 7000/6
    assert "1,3500/3,1167" in lines
    assert "6,1000/3,333" in lines


def test_stream_empty_log(tmp_path, capsys):
    path = tmp_path / "empty.log"
    path.write_text("")
    code, out, _ = run(capsys, "stream", str(path), "--root", "5", "--format", "csv")
    assert code == 0
    assert "5,0,0" in out  # root alone, root-adjusted to zero


def test_stream_bad_parent_fails_after_earlier_deltas(tmp_path, capsys):
    path = tmp_path / "log"
    path.write_text("1 2 1\n2 9 99\n")
    code, out, err = run(capsys, "stream", str(path))
    assert code == 1
    assert "seq 1" in out  # first delta already emitted
    assert "event 2" in err and "unknown parent" in err


def test_stream_quiet_suppresses_deltas(example_log, capsys):
    code, out, _ = run(
        capsys, "stream", example_log, "--quiet", "--unit", "1000", "--format", "csv",
    )
    assert code == 0
    assert "seq" not in out
    assert "6,1000/3,333" in out


def _log(edges) -> str:
    return "".join(f"{seq} {c} {p}\n" for seq, (c, p) in enumerate(edges, start=1))


# Both the delta chunks and the parser's blocks are 1024 lines long.
@pytest.mark.parametrize("k", [1, 2, 1023, 1024, 1025, 2049, 2 * DELTA_CHUNK_LINES + 7])
@pytest.mark.parametrize("bad", ["parent", "field"])
def test_stream_failing_at_event_k_prints_k_minus_1_deltas(k, bad, tmp_path, capsys):
    edges = random_tree_edges(random.Random(k), k)  # k - 1 valid joins
    path = tmp_path / "joins.log"
    if bad == "parent":
        line, message = f"{k} {k + 1} {k + 5}", f"event {k}: unknown parent {k + 5}"
    else:
        line = f"{k} {k + 1} x"
        message = f"line {k}: fields must be integers, got {line!r}"
    path.write_text(_log(edges) + line + "\n")
    code, out, err = run(capsys, "stream", str(path))
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == k - 1
    assert [line.split(":")[0] for line in lines] == [f"seq {s}" for s in range(1, k)]
    assert err == f"error: {message}\n"


def _reference_deltas(edges, unit: Fraction, exact: bool) -> list[str]:
    """Delta lines from IncrementalState.join, in the documented format."""
    state = IncrementalState(1)
    lines = []
    for seq, (node, parent) in enumerate(edges, start=1):
        delta = state.join(node, parent)
        share = delta.rewards[node] * unit
        shown = share if exact else round_half_away_from_zero(share)
        path = ",".join(str(m) for m in sorted(delta.rewards))
        lines.append(f"seq {seq}: node {node} joins {parent}; "
                     f"+{shown} to each of [{path}]")
    return lines


@pytest.mark.parametrize("unit,exact",
                         [("1000", False), ("7/3", True), ("-2.5", False)])
def test_stream_deltas_across_chunks_match_a_reference(unit, exact, tmp_path, capsys):
    edges = random_tree_edges(random.Random(5000), 5000, 50)
    path = tmp_path / "joins.log"
    path.write_text(_log(edges))
    flags = ["--unit", unit, "--format", "csv"] + (["--exact"] if exact else [])
    code, out, _ = run(capsys, "stream", str(path), *flags)
    assert code == 0
    lines = out.splitlines()
    assert lines[:len(edges)] == _reference_deltas(edges, Fraction(unit), exact)
    assert lines[len(edges)] == "node,exact,display"
    code, quiet, _ = run(capsys, "stream", str(path), "--quiet", *flags)
    assert code == 0
    assert "\n".join(lines[len(edges):]) + "\n" == quiet


def test_stream_writes_deltas_in_bounded_chunks(tmp_path):
    joins = 3 * DELTA_CHUNK_LINES + 5
    path = tmp_path / "joins.log"
    path.write_text(_log(random_tree_edges(random.Random(3), joins + 1)))
    writes: list[str] = []

    class Recorder(io.StringIO):
        def write(self, text: str) -> int:
            writes.append(text)
            return super().write(text)

    with contextlib.redirect_stdout(Recorder()):
        assert main(["stream", str(path)]) == 0
    chunks = [text.count("\n") for text in writes
              if isinstance(text, str) and text.startswith("seq ")]
    assert chunks == [DELTA_CHUNK_LINES] * 3 + [5]


@pytest.mark.parametrize("output_format", ["table", "csv", "records"])
@pytest.mark.parametrize("exact", [False, True])
def test_stream_final_in_bounded_chunks_matches_a_whole_render(
    output_format, exact, tmp_path
):
    nodes = 2 * CHUNK_ROWS + 5
    path = tmp_path / "joins.log"
    text = _log(random_tree_edges(random.Random(4), nodes))
    path.write_text(text)
    flags = ["--format", output_format, "--unit", "7/3"] + (["--exact"] if exact else [])
    writes: list[str] = []

    class Recorder(io.StringIO):
        def write(self, text: str) -> int:
            writes.append(text)
            return super().write(text)

    with contextlib.redirect_stdout(Recorder()) as out:
        assert main(["stream", "--quiet", str(path), *flags]) == 0
    whole = replay_events(parse_event_log(text.splitlines(True)), 1,
                          root_adjust=RunConfig().root_adjust).allocation
    assert out.getvalue() == render_allocation(
        whole.scaled(Fraction(7, 3)), output_format, exact
    )
    header = int(output_format == "csv")
    chunks = [text.count("\n") for text in writes if isinstance(text, str) and text]
    assert chunks == [CHUNK_ROWS + header, CHUNK_ROWS, 5]


@pytest.mark.parametrize("output_format", ["csv", "records"])
def test_compute_writes_rows_in_bounded_chunks_matching_a_whole_render(
    output_format, tmp_path
):
    nodes = CHUNK_ROWS + 5
    edges = [{"child": c, "parent": p}
             for c, p in random_tree_edges(random.Random(6), nodes)]
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"root": 1, "edges": edges}))
    flags = ["--format", output_format, "--unit", "7/3", "--exact"]
    writes: list[str] = []

    class Recorder(io.StringIO):
        def write(self, text: str) -> int:
            writes.append(text)
            return super().write(text)

    with contextlib.redirect_stdout(Recorder()) as out:
        assert main(["compute", str(path), *flags]) == 0
    config = RunConfig(unit=Fraction(7, 3), output_format=output_format, exact=True)
    tree = parse_tree_file(path.read_text()).tree
    assert out.getvalue() == render_report(
        compare(tree, config.mechanism_specs()), output_format, exact=True
    )
    header = int(output_format == "csv")
    chunks = [text.count("\n") for text in writes if isinstance(text, str) and text]
    assert chunks == [CHUNK_ROWS + header, 5, CHUNK_ROWS, 5, CHUNK_ROWS, 5]


def _made_texts(monkeypatch) -> list[int]:
    """The numerators ``io.exact_and_display`` is called with from here on."""
    made = []

    def counting(numerator, denominator):
        made.append(numerator)
        return exact_and_display(numerator, denominator)

    monkeypatch.setattr(treeshare_io, "exact_and_display", counting)
    return made


def _distinct_texts(allocations, size: int) -> tuple[int, int]:
    """The distinct numerators of each piece of at most ``size`` nodes,
    summed; and the count if every piece made the allocation's every one."""
    pieces = [list(allocation.split(size)) for allocation in allocations]
    return (sum(len(set(part.numerators.values())) for parts in pieces for part in parts),
            sum(len(parts) * len(set(allocation.numerators.values()))
                for parts, allocation in zip(pieces, allocations)))


@pytest.mark.parametrize("output_format", ["csv", "records", "table"])
def test_compute_makes_each_distinct_reward_text_once_per_chunk(
    output_format, tmp_path, monkeypatch
):
    nodes = CHUNK_ROWS + 500
    edges = random_tree_edges(random.Random(8), nodes, 6)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(
        {"root": 1, "edges": [{"child": c, "parent": p} for c, p in edges]}
    ))
    made = _made_texts(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compute", str(path), "--format", output_format]) == 0
    allocations = compare(parse_tree_file(path.read_text()).tree,
                          RunConfig().mechanism_specs()).allocations()
    if output_format == "table":  # one grid
        assert len(made) <= _distinct_texts(allocations, nodes)[0] < 3 * nodes
    else:
        per_chunk, whole = _distinct_texts(allocations, CHUNK_ROWS)
        assert len(made) <= per_chunk < whole


@pytest.mark.parametrize("output_format", ["csv", "records", "table"])
def test_stream_quiet_makes_each_distinct_reward_text_once_per_chunk(
    output_format, tmp_path, monkeypatch
):
    path = tmp_path / "joins.log"
    text = _log(random_tree_edges(random.Random(8), CHUNK_ROWS + 500, 6))
    path.write_text(text)
    made = _made_texts(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["stream", "--quiet", str(path), "--format", output_format]) == 0
    final = replay_events(parse_event_log(text.splitlines(True)), 1,
                          root_adjust=RunConfig().root_adjust).allocation
    per_chunk, whole = _distinct_texts([final], CHUNK_ROWS)
    assert len(made) <= per_chunk < whole


def test_stream_quiet_builds_no_deltas(monkeypatch, capsys):
    log = str(GOLDEN / "r300.log")
    expected = run(capsys, "stream", log, "--quiet", "--exact")

    def refuse(self, node, parent):
        raise AssertionError("join called")

    monkeypatch.setattr(IncrementalState, "join", refuse)
    assert run(capsys, "stream", log, "--quiet", "--exact") == expected
    assert expected[0] == 0
    with pytest.raises(AssertionError, match="join called"):
        main(["stream", log])


@pytest.mark.parametrize("line", ["\uff11 2 1", "1 1_0 1", "1 +2 1", "1 \u0662 1"])
def test_stream_rejects_ids_int_would_misread(line, tmp_path, capsys):
    path = tmp_path / "joins.log"
    path.write_text(f"# first line\n{line}\n", encoding="utf-8")
    for quiet in ([], ["--quiet"]):
        code, out, err = run(capsys, "stream", str(path), *quiet)
        assert code == 1
        assert out == ""
        assert err == f"error: line 2: fields must be integers, got {line!r}\n"


@pytest.mark.parametrize("field", [0, 1, 2])
def test_stream_names_the_digit_limit_for_a_long_field(field, tmp_path, capsys):
    parts = ["1", "2", "1"]
    parts[field] = "9" * 5000
    path = tmp_path / "joins.log"
    path.write_text(" ".join(parts) + "\n")
    with _int_digit_limit(4300):
        for quiet in ([], ["--quiet"]):
            code, out, err = run(capsys, "stream", str(path), *quiet)
            assert (code, out) == (1, "")
            assert err == "error: line 1: a field has more than 4300 digits\n"
            assert len(err.encode()) < 120


# -- verify ------------------------------------------------------------------------

def test_verify_passes_on_example(example_file, capsys):
    code, out, _ = run(capsys, "verify", example_file)
    assert code == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_skips_on_large_tree(tmp_path, capsys):
    edges = [{"child": k, "parent": k - 1} for k in range(2, 21)]
    path = tmp_path / "chain20.json"
    path.write_text(json.dumps({"root": 1, "edges": edges}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "SKIPPED" in out
    assert "closed form vs trimmed-coalition sum" in out


def test_verify_lines_for_every_skip_reason(tmp_path, capsys):
    # A 20-node star is past every default limit and past the budget:
    # 19 * 2**18 + 2**19 trimmed-coalition members.
    path = tmp_path / "star20.json"
    path.write_text(json.dumps(
        {"root": 1, "edges": [{"child": k, "parent": 1} for k in range(2, 21)]}
    ))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.splitlines() == [
        "SKIPPED  closed form vs brute force (n=20 exceeds brute-force limit 10)",
        "SKIPPED  closed form vs trimmed-coalition sum "
        "(5505024 trimmed coalitions exceed budget 200000)",
        "PASS     efficiency (rewards sum to n) (total=20)",
        "SKIPPED  core membership (n=20 exceeds core limit 16)",
        "SKIPPED  convexity (n=20 exceeds convexity limit 12)",
    ]


def test_verify_lines_for_core_and_convexity_failures(
    example_file, capsys, monkeypatch
):
    # Both failures are unreachable with honest engines, so inject them: a
    # closed form that pays the root nothing (total still n), and a made-up
    # convexity counterexample.
    from treeshare import analysis
    from treeshare.allocation import Allocation

    paid = Allocation({1: 0, 3: Fraction(10, 3), 6: Fraction(1, 3), 7: Fraction(1, 3)})
    witness = analysis.ConvexityResult(
        convex=False, agent=6, smaller=frozenset({1}), larger=frozenset({1, 3}))
    monkeypatch.setattr(analysis, "shapley_basic", lambda tree: paid)
    monkeypatch.setattr(analysis, "is_convex", lambda game, limit: witness)
    code, out, _ = run(capsys, "verify", example_file)
    assert code == 2
    assert out.splitlines() == [
        "FAIL     closed form vs brute force",
        "FAIL     closed form vs trimmed-coalition sum",
        "PASS     efficiency (rewards sum to n) (total=4)",
        "FAIL     core membership (coalition [1] short by 1)",
        "FAIL     convexity (agent 6 loses by joining [1, 3] vs [1])",
    ]


# -- count -------------------------------------------------------------------------

def test_count_chain(tmp_path, capsys):
    edges = [{"child": k, "parent": k - 1} for k in range(2, 6)]
    path = tmp_path / "chain5.json"
    path.write_text(json.dumps({"root": 1, "edges": edges}))
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["node", "depth", "cfg", "tree_game", "basic"]
    assert lines[1].split() == ["1", "0", "16", "5", "5"]
    assert lines[5].split() == ["5", "4", "16", "1", "1"]


def test_count_perfect_binary_adds_closed_form(tmp_path, capsys):
    edges = [{"child": k, "parent": k // 2} for k in range(2, 8)]
    path = tmp_path / "bin2.json"
    path.write_text(json.dumps({"root": 1, "edges": edges}))
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "binary_closed_form" in lines[0]
    root_row = lines[1].split()
    assert root_row[3] == root_row[5] == "25"
    depth1 = lines[2].split()
    assert depth1[3] == depth1[5] == "20"


def test_count_closed_form_disagreement_exits_two_after_the_rows_before_it(
    tmp_path, capsys, monkeypatch
):
    # The closed form agrees with the tree count on every perfect binary
    # tree, so inject a disagreement at depth 1 to pin the exit-code contract.
    from treeshare import analysis

    honest = analysis.binary_tree_count
    monkeypatch.setattr(analysis, "binary_tree_count", lambda h, d: honest(h, d) + (d == 1))
    edges = [{"child": k, "parent": k // 2} for k in range(2, 8)]
    path = tmp_path / "bin2.json"
    path.write_text(json.dumps({"root": 1, "edges": edges}))
    code, out, err = run(capsys, "count", str(path))
    assert code == 2
    assert err == ("verification failed: closed-form count 21 disagrees with "
                   "tree count 20 at node 2\n")
    assert [line.split() for line in out.splitlines()] == [
        ["node", "depth", "cfg", "tree_game", "basic", "binary_closed_form"],
        ["1", "0", "64", "25", "3", "25"],
    ]


@pytest.mark.parametrize("height", range(5))
def test_count_takes_the_closed_form_once_per_depth(height, tmp_path, capsys, monkeypatch):
    from treeshare import analysis

    calls = []
    honest = analysis.binary_tree_count
    monkeypatch.setattr(analysis, "binary_tree_count",
                        lambda h, d: calls.append(d) or honest(h, d))
    edges = [{"child": k, "parent": k // 2} for k in range(2, 2 ** (height + 1))]
    path = tmp_path / "binary.json"
    path.write_text(json.dumps({"root": 1, "edges": edges}))
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    assert len(out.splitlines()) == 2 ** (height + 1)
    assert sorted(calls) == list(range(height + 1))


def test_count_columns_are_right_aligned_to_their_widest_cell(tmp_path, capsys):
    # A star of 30 leaves with a 40-node chain below the root: cfg and the
    # counts are wider than their headers, and counts down the chain shrink
    # by a factor of 41, so the widest cell of a column is its largest value.
    edges = [{"child": k, "parent": 1} for k in range(2, 32)]
    edges += [{"child": k, "parent": 1 if k == 32 else k - 1} for k in range(32, 72)]
    path = tmp_path / "broom.json"
    path.write_text(json.dumps({"root": 1, "edges": edges}))
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    grid = [line.split() for line in out.splitlines()]
    widths = [max(len(cells[k]) for cells in grid) for k in range(5)]
    assert len({len(cells[3]) for cells in grid[1:]}) > 1
    assert out.splitlines() == [
        "  ".join(cell.rjust(w) for cell, w in zip(cells, widths)) for cells in grid
    ]


def test_single_node_count(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"root": 1, "edges": []}')
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    # one node is also a perfect binary tree of height 0, so the closed-form
    # column appears and agrees
    assert out.splitlines()[1].split() == ["1", "0", "1", "1", "1", "1"]


# -- exit codes ----------------------------------------------------------------------

def test_usage_error_is_input_error(capsys):
    code, _, err = run(capsys, "compute")  # missing argument
    assert code == 1
    assert "error" in err.lower()


LONG_ARG = "x" * 10**5
CUT = "'xxxxxxxxxxxxxxxxxxxx'… (100000 characters)"
QUOTES = "'\\"  # a quote and a backslash


@pytest.mark.parametrize("args, message", [
    (["compute", "f9.json", "--format", LONG_ARG],
     f"Invalid value for '--format': {CUT} is not one of 'table', 'records', 'csv'."),
    (["verify", "f9.json", "--limit-core", LONG_ARG],
     f"Invalid value for '--limit-core': {CUT} is not a valid integer."),
    (["stream", "f9.log", "--root", LONG_ARG],
     f"Invalid value for '--root': {CUT} is not a valid integer."),
    (["compute", "f9.json", "--" + LONG_ARG],
     "No such option '--xxxxxxxxxxxxxxxxxx'… (100002 characters)."),
    (["compute", "f9.json", f"--format={LONG_ARG}"],
     f"Invalid value for '--format': {CUT} is not one of 'table', 'records', 'csv'."),
    (["count", "f9.json", LONG_ARG], f"Got unexpected extra argument ({CUT})"),
    (["count", "f9.json", "x" * 41 + LONG_ARG, "x" * 41],
     "Got unexpected extra arguments ('xxxxxxxxxxxxxxxxxxxx'… (100041 characters) "
     "'xxxxxxxxxxxxxxxxxxxx'… (41 characters))"),
    (["count", "f9.json", QUOTES * 50000],
     f"Got unexpected extra argument ({QUOTES * 10!r}… (100000 characters))"),
], ids=["format", "limit-core", "root", "unknown-option", "format-equals",
        "extra-argument", "one-inside-another", "quotes-and-backslashes"])
def test_a_usage_error_cuts_a_long_value(args, message, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, *args)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("args, message", [
    (["compute", "f9.json", "--fromat", "csv"],
     "No such option '--fromat'. (Did you mean one of: '--format', '--ratio'?)"),
    (["stream", "f9.log", "--root", "a\nb"],
     "Invalid value for '--root': 'a\\nb' is not a valid integer."),
    (["count", "f9.json", "it's", "a'b"], "Got unexpected extra arguments (it's a'b)"),
    (["count", "f9.json", "a\nb"], "Got unexpected extra argument ('a\\nb')"),
    (["compute"], "Missing argument 'TREEFILE'."),
], ids=["unknown-option", "newline", "quotes", "bare-newline", "missing-argument"])
def test_a_short_usage_error_is_printed_as_click_wrote_it(args, message, capsys):
    code, _, err = run(capsys, *args)
    assert (code, err) == (1, f"error: {message}\n")


def test_verify_failure_exits_two(example_file, capsys, monkeypatch):
    # A failing check is unreachable with honest engines (the theorems hold),
    # so inject one to pin the exit-code contract.
    from treeshare import analysis
    from treeshare.analysis import CheckOutcome, VerificationReport

    monkeypatch.setattr(
        analysis,
        "run_verification",
        lambda tree, **kwargs: VerificationReport(
            (CheckOutcome("core membership", "fail", "coalition [1] short by 1"),)
        ),
    )
    code, out, err = run(capsys, "verify", example_file)
    assert code == 2
    assert "FAIL" in out
    assert "verification failed" in err


# -- flags and config file agree ---------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"

# Each flag backed by a RunConfig field, with the config entry that means the
# same thing; each changes the output of its command on f9. The shared
# arguments go to every run of a case: the geometric and refer-a-friend
# parameters are shown exactly, since at unit 1 their rounded values barely move.
EXACT = ["--exact"]
FLAG_ENTRIES = [
    ("compute", [], ["--unit", "7/3"], {"unit": "7/3"}),
    ("compute", [], ["--no-root-adjust"], {"root_adjust": False}),
    ("compute", EXACT, ["--ratio", "2/3"], {"ratio": "2/3"}),
    ("compute", EXACT, ["--no-normalize"], {"normalize": False}),
    ("compute", EXACT, ["--referrer-share", "1/3"], {"referrer_share": "1/3"}),
    ("compute", [], ["--exact"], {"exact": True}),
    ("compute", [], ["--format", "records"], {"output_format": "records"}),
    ("compute", [], ["--mechanism", "geometric", "--mechanism", "refer-a-friend"],
     {"mechanisms": ["geometric", "refer-a-friend"]}),
    ("stream", [], ["--unit", "2.5"], {"unit": 2.5}),
    ("stream", [], ["--no-root-adjust"], {"root_adjust": False}),
    ("stream", [], ["--exact"], {"exact": True}),
    ("stream", [], ["--format", "csv"], {"output_format": "csv"}),
    ("verify", [], ["--limit-bruteforce", "5"], {"limit_bruteforce": 5}),
    ("verify", [], ["--limit-core", "5"], {"limit_core": 5}),
    ("verify", [], ["--limit-convex", "5"], {"limit_convex": 5}),
]


def _golden_input(command: str) -> str:
    return str(GOLDEN / ("f9.log" if command == "stream" else "f9.json"))


@pytest.mark.parametrize(
    "command,shared,flags,entry", FLAG_ENTRIES,
    ids=[f"{c} {' '.join(f)}" for c, _, f, _ in FLAG_ENTRIES],
)
def test_flag_and_config_entry_give_identical_output(
    command, shared, flags, entry, tmp_path, capsys
):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entry))
    args = [command, _golden_input(command), *shared]
    without = run(capsys, *args)
    by_flag = run(capsys, *args, *flags)
    by_file = run(capsys, *args, "--config", str(config))
    assert by_flag[0] == 0
    assert by_file == by_flag
    assert by_flag[1] != without[1]


@pytest.mark.parametrize("flag",
                         ["--limit-bruteforce", "--limit-core", "--limit-convex"])
def test_limit_flag_above_the_ceiling_exits_1_before_any_work(flag, capsys):
    # The exhaustive checks hold lists of 2**n entries; 21 allocates nothing
    # here because the limit is refused while the flags are parsed.
    tree = _golden_input("verify")
    code, out, err = run(capsys, "verify", tree, flag, "21")
    assert (code, out) == (1, "")
    field = flag[2:].replace("-", "_")
    assert err == f"error: config field '{field}': expected at most 20, got 21\n"
    code, out, err = run(capsys, "verify", tree, flag, "-1")
    assert (code, out) == (1, "")
    assert err == f"error: config field '{field}': expected at least 0, got -1\n"
    assert run(capsys, "verify", tree, flag, "20") == run(capsys, "verify", tree)


@pytest.mark.parametrize("literal", ["1e999999999", "1e-999999999"])
@pytest.mark.parametrize("command,field", [
    ("compute", "unit"), ("compute", "ratio"), ("compute", "referrer_share"),
    ("stream", "unit"),
])
def test_rational_past_the_literal_ceiling_exits_1_naming_the_field(
    command, field, literal, tmp_path, capsys
):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({field: literal}))
    args = [command, _golden_input(command)]
    flag = "--" + field.replace("_", "-")
    for extra in ([flag, literal], ["--config", str(config)]):
        start = time.perf_counter()
        code, out, err = run(capsys, *args, *extra)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == (f"error: config field '{field}': cannot read {literal!r} as a "
                       f"rational: literal expands to more than 1000000 digits\n")


def test_a_long_rational_literal_is_cut_in_its_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"unit": "1" + "0" * 10**6}))
    tree = _golden_input("compute")
    for extra in (["--config", str(config)], ["--unit", "x" * 10**5]):
        code, out, err = run(capsys, "compute", tree, *extra)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err == ("error: config field 'unit': cannot read 'xxxxxxxxxxxxxxxxxxxx'… "
                   "(100000 characters) as a rational: Invalid literal for Fraction: "
                   "'xxxxxxxxxxxxxxxxxxxx'… (100000 characters)\n")


def test_flag_beats_config_entry(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"unit": "1000", "ratio": "1/3", "exact": False,
                                  "output_format": "csv", "limit_core": 3}))
    tree = _golden_input("compute")
    flags = ["--unit", "7/3", "--ratio", "2/3", "--exact", "--format", "records"]
    assert (run(capsys, "compute", tree, "--config", str(config), *flags)
            == run(capsys, "compute", tree, *flags))
    assert (run(capsys, "verify", tree, "--config", str(config), "--limit-core", "16")
            == run(capsys, "verify", tree))


@pytest.mark.parametrize(
    "command,entry,flags",
    [
        ("compute", {"root_adjust": "false"}, ["--no-root-adjust"]),
        ("compute", {"unit": "abc"}, ["--unit", "2"]),
        ("stream", {"exact": 1}, ["--exact"]),
        ("verify", {"limit_core": 2.9}, ["--limit-core", "3"]),
    ],
)
def test_bad_config_entry_fails_even_when_a_flag_overrides_it(
    command, entry, flags, tmp_path, capsys
):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entry))
    code, out, err = run(capsys, command, _golden_input(command),
                         "--config", str(config), *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert repr(next(iter(entry.values()))) in err
    assert "Traceback" not in err


RATIO_ERROR = "error: geometric ratio must lie strictly between 0 and 1\n"
SHARE_ERROR = "error: referrer share must lie in [0, 1]\n"


@pytest.mark.parametrize("flags, entries, err", [
    (["--ratio", "1"], None, RATIO_ERROR),
    (["--ratio", "2", "--referrer-share", "7"], None, SHARE_ERROR),
    (["--referrer-share", "-1/2"], None, SHARE_ERROR),
    ([], {"ratio": 2}, RATIO_ERROR),
    ([], {"referrer_share": "7"}, SHARE_ERROR),
], ids=["ratio-flag", "both-flags", "share-flag", "ratio-entry", "share-entry"])
def test_out_of_range_parameter_of_an_unrun_mechanism_exits_1(
    flags, entries, err, tmp_path, capsys
):
    # Every spec checks its own parameters, whichever mechanisms run.
    if entries is None:
        flags = ["--mechanism", "shapley", *flags]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mechanisms": ["shapley"], **entries}))
        flags = ["--config", str(config)]
    assert run(capsys, "compute", _golden_input("compute"), *flags) == (1, "", err)


# -- unreadable and malformed input files --------------------------------------------

@pytest.mark.parametrize("command", ["compute", "stream", "verify"])
@pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
def test_unreadable_config_exits_1(command, missing, tmp_path, capsys):
    path = tmp_path / "absent.json" if missing else tmp_path
    code, out, err = run(capsys, command, _golden_input(command),
                         "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
def test_unreadable_event_log_exits_1(missing, tmp_path, capsys):
    path = tmp_path / "absent.log" if missing else tmp_path
    code, out, err = run(capsys, "stream", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["tree", "config"])
def test_deeply_nested_json_exits_1(kind, tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    if kind == "tree":
        argv = ["compute", str(nested)]
    else:
        argv = ["compute", _golden_input("compute"), "--config", str(nested)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {kind} file is nested too deeply")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["compute", "verify", "count"])
def test_tree_file_whose_edges_are_not_a_list_exits_1(command, tmp_path, capsys):
    path = tmp_path / "edges.json"
    path.write_text('{"root": 1, "edges": {}}')
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == "error: 'edges' must be a list of {child, parent} objects\n"


@pytest.mark.parametrize("command", ["compute", "verify", "count"])
@pytest.mark.parametrize("raised, err", [
    # An interrupt ends the line on stderr.
    (KeyboardInterrupt(), "\n"),
], ids=["interrupt"])
def test_a_click_error_or_an_interrupt_exits_1(command, raised, err, monkeypatch, capsys):
    def fail(*args):
        raise raised

    monkeypatch.setattr("treeshare.cli.parse_tree_file", fail)
    assert run(capsys, command, _golden_input(command)) == (1, "", err)


@pytest.mark.parametrize("command", ["compute", "verify", "count"])
def test_tree_file_that_is_not_utf8_exits_1(command, tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes('{"root": 1, "edges": []}'.encode("utf-16"))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec")


@pytest.mark.parametrize("command", ["compute", "stream", "verify"])
def test_config_that_is_not_utf8_exits_1(command, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"output_format": "\xe9"}')
    code, out, err = run(capsys, command, _golden_input(command), "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec")


def test_event_log_that_stops_being_utf8_exits_1(tmp_path, capsys):
    # The bad byte sits past the first buffered chunk, so it is met while
    # stream is already replaying: earlier deltas stand, then the error.
    lines = "".join(f"{k} {k + 1} 1\n" for k in range(1, 1001))
    path = tmp_path / "joins.log"
    path.write_bytes(lines.encode("ascii") + b"1001 \xff 1\n")
    code, out, err = run(capsys, "stream", str(path))
    assert code == 1
    assert out.startswith("seq 1: node 2 joins 1;")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec")
    assert "Traceback" not in err


def test_event_log_lines_read_before_a_decode_error_are_applied(tmp_path, capsys):
    # The bad byte sits past line 3000, so the text file stops inside the
    # third 1024-line block: every line it delivered is still replayed.
    lines = "".join(f"{k} {k + 1} 1\n" for k in range(1, 3001))
    path = tmp_path / "joins.log"
    path.write_bytes(lines.encode("ascii") + b"3001 \xff 1\n")
    delivered = 0
    with open(path, encoding="utf-8") as handle, pytest.raises(UnicodeDecodeError):
        for _ in handle:
            delivered += 1
    assert 2048 < delivered <= 3000
    code, out, err = run(capsys, "stream", str(path))
    assert code == 1
    assert len(out.splitlines()) == delivered
    assert all(line.startswith("seq ") for line in out.splitlines())
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec")


def test_event_log_read_error_exits_1_after_the_lines_it_delivered(monkeypatch, capsys):
    # The read fails with an I/O error after line 3000, inside the third
    # 1024-line block: every line delivered is still replayed.
    class FailingLog(io.StringIO):
        def __iter__(self):
            yield from (f"{k} {k + 1} 1\n" for k in range(1, 3001))
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr("treeshare.cli._open_log", lambda *args, **kwargs: FailingLog())
    code, out, err = run(capsys, "stream", "joins.log")
    assert code == 1
    assert len(out.splitlines()) == 3000
    assert all(line.startswith("seq ") for line in out.splitlines())
    assert err == "error: cannot read joins.log: [Errno 5] Input/output error\n"


class FullStdout(io.StringIO):
    """A stdout with room for ``room`` characters: a write past that fails
    with ``error``, as a write to a full disk does."""

    def __init__(self, room: int, error: int):
        super().__init__()
        self.room, self.error, self.failures = room, error, 0

    def write(self, text):
        if isinstance(text, str) and self.tell() + len(text) > self.room:
            self.failures += 1
            raise OSError(self.error, os.strerror(self.error))
        return super().write(text)


def _run_until_stdout_is_full(argv, error, tmp_path, monkeypatch, capsys):
    """Run ``argv`` once in full, then with room for half of its output.
    Returns the second run's exit code, stderr and stdout."""
    log = tmp_path / "joins.log"
    log.write_text(_log(random_tree_edges(random.Random(5), 3 * DELTA_CHUNK_LINES)))
    names = {"joins.log": log, "f9.json": GOLDEN / "f9.json",
             "r300.json": GOLDEN / "r300.json"}
    argv = [str(names.get(arg, arg)) for arg in argv]
    code, full, _ = run(capsys, *argv)
    assert code == 0
    stdout = FullStdout(len(full) // 2, error)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    monkeypatch.undo()
    assert full.startswith(stdout.getvalue())
    assert stdout.failures == 1  # a failed write is not tried again
    return code, capsys.readouterr().err, stdout.getvalue()


WRITERS = [["compute", "r300.json"], ["compute", "r300.json", "--format", "csv"],
           ["stream", "joins.log", "--quiet"], ["stream", "joins.log"],
           ["verify", "f9.json"], ["count", "r300.json"]]


@pytest.mark.parametrize("argv", WRITERS, ids=" ".join)
def test_failed_write_to_stdout_exits_1_with_a_message(
    argv, tmp_path, monkeypatch, capsys
):
    code, err, out = _run_until_stdout_is_full(
        argv, errno.ENOSPC, tmp_path, monkeypatch, capsys)
    assert code == 1
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"
    if argv == ["stream", "joins.log"]:  # the write of a later delta chunk failed
        assert out.count("\n") == DELTA_CHUNK_LINES
        assert all(line.startswith("seq ") for line in out.splitlines())


@pytest.mark.parametrize("argv", WRITERS, ids=" ".join)
def test_broken_pipe_on_stdout_exits_1_silently(argv, tmp_path, monkeypatch, capsys):
    code, err, _ = _run_until_stdout_is_full(
        argv, errno.EPIPE, tmp_path, monkeypatch, capsys)
    assert (code, err) == (1, "")


# -- the command line as a child process sees it ----------------------------------

CHILD = [sys.executable, "-m", "treeshare.cli"]
# The child's stdout is buffered, as it is by default, so that a write that
# fails can leave bytes for the flush at exit.
CHILD_ENV = {name: value for name, value in os.environ.items()
             if name != "PYTHONUNBUFFERED"}
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(GOLDEN.parents[1] / "src"), os.environ.get("PYTHONPATH")]))


USAGE_ANY = r"Usage: .*"
# Each case: argv, stdin, exit code, and patterns that stdout and stderr
# match whole.
CONTRACT = {
    "stdin": (["stream", "-", "--unit", "7/3", "--exact"],
              (GOLDEN / "f9.log").read_bytes(), 0,
              re.escape(load_transcript("f9")["stream f9.log --unit 7/3 --exact"][1]), ""),
    "stdin-not-utf8": (["stream", "-"], b"1 2 1\n2 \xff 1\n", 1, "",
                       re.escape("error: cannot read -: 'utf-8' codec") + r".*\n"),
    "flag-with-value": (["stream", "f9.log", "--quiet=1"], b"", 1, "",
                        re.escape("error: Option '--quiet' does not take a value.\n")),
    "trailing-option": (["compute", "f9.json", "--format"], b"", 1, "",
                        re.escape("error: Option '--format' requires an argument.\n")),
    "unknown-command": (["bogus"], b"", 1, "", re.escape("error: No such command 'bogus'.\n")),
    "after-double-dash": (["compute", "f9.json", "--", "--x"], b"", 1, "",
                          re.escape("error: Got unexpected extra argument (--x)\n")),
    "last-value-wins": (["verify", "f9.json", "--limit-core", "5", "--limit-core", "6"],
                        b"", 0, r"(.*\n)?" + re.escape(
                            "SKIPPED  core membership (n=9 exceeds core limit 6)\n") + ".*",
                        ""),
    "help": (["--help"], b"", 0, USAGE_ANY, ""),
    **{f"{command}-help": ([command, "--help"], b"", 0, USAGE_ANY, "")
       for command in ("compute", "stream", "verify", "count")},
    "no-arguments": ([], b"", 1, "", "error: " + USAGE_ANY),
}


@pytest.mark.parametrize("case", CONTRACT)
def test_the_command_line_contract_in_a_child(case):
    argv, stdin, code, out, err = CONTRACT[case]
    result = subprocess.run([*CHILD, *argv], input=stdin, capture_output=True,
                            cwd=GOLDEN, env=CHILD_ENV, timeout=60)
    assert result.returncode == code
    assert re.fullmatch(out, result.stdout.decode(), re.DOTALL)
    assert re.fullmatch(err, result.stderr.decode(), re.DOTALL)


@pytest.mark.parametrize("argv", [["compute", "f9.json"], ["verify", "f9.json"],
                                  ["count", "r300.json"], ["--help"]], ids=" ".join)
def test_a_broken_pipe_in_a_child_exits_1_silently(argv):
    # The pipe is closed for reading before the child starts, so its first
    # write fails. That write is short, so its bytes stay buffered for the
    # flush at exit, which must not print a warning either.
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([*CHILD, *argv], stdout=write, stderr=subprocess.PIPE,
                                cwd=GOLDEN, env=CHILD_ENV, timeout=60)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, b"")


@pytest.mark.parametrize("labels", ['[1]', '"x"', '{"2": {"a": [1]}}', '{"2": 5}'])
def test_malformed_labels_exit_1(labels, tmp_path, capsys):
    path = tmp_path / "labels.json"
    path.write_text('{"root": 1, "edges": [{"child": 2, "parent": 1}], '
                    f'"labels": {labels}}}')
    code, out, err = run(capsys, "compute", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "label" in err


@pytest.mark.parametrize("key", ["1_0", " 1 ", "01", "\uff11"])
def test_label_key_that_is_not_canonical_exits_1(key, tmp_path, capsys):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"root": 1, "edges": [{"child": 10, "parent": 1}],
                                "labels": {key: "x"}}))
    code, out, err = run(capsys, "compute", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: label key {key!r} is not a node id\n"


@pytest.mark.parametrize("kind", ["tree", "config"])
def test_too_long_json_integer_exits_1_naming_the_file(kind, tmp_path, capsys):
    digits = "1" + "0" * 5000
    path = tmp_path / f"{kind}.json"
    if kind == "tree":
        path.write_text(f'{{"root": {digits}, "edges": []}}')
        args = ["compute", str(path)]
    else:
        path.write_text(f'{{"limit_core": {digits}}}')
        args = ["verify", _golden_input("verify"), "--config", str(path)]
    with _int_digit_limit(4300):
        code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {kind} file holds an integer of more than ")
    assert "set_int_max_str_digits" not in err


# Edge #2 of a valid three-edge document replaced, and what compute and verify
# print for it under --strict and --no-strict; None marks a run that succeeds
# with the output of the document as it was.
EXPECTED_ENTRY = "error: edge #2: expected an object with 'child' and 'parent'\n"
EDGE_ENTRY_CASES = {
    "extra key": ({"child": 4, "parent": 3, "weight": 5},
                  "error: edge #2: unknown fields ['weight']\n", None),
    "extra keys": ({"child": 4, "parent": 3, "weight": 5, "color": "red"},
                   "error: edge #2: unknown fields ['color', 'weight']\n", None),
    "missing parent": ({"child": 4}, EXPECTED_ENTRY, EXPECTED_ENTRY),
    "not an object": ([4, 3], EXPECTED_ENTRY, EXPECTED_ENTRY),
    "two keys, wrong names": ({"child": 4, "kid": 3}, EXPECTED_ENTRY, EXPECTED_ENTRY),
}


@pytest.mark.parametrize("case", EDGE_ENTRY_CASES)
@pytest.mark.parametrize("command", ["compute", "verify"])
@pytest.mark.parametrize("strict", [True, False])
def test_bad_edge_entry_exits_1_naming_the_edge(case, command, strict, tmp_path, capsys):
    entry, strict_error, loose_error = EDGE_ENTRY_CASES[case]
    edges = [{"child": 2, "parent": 1}, {"child": 3, "parent": 1},
             {"child": 4, "parent": 3}]
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"root": 1, "edges": edges}))
    bad.write_text(json.dumps({"root": 1, "edges": edges[:2] + [entry]}))
    flag = "--strict" if strict else "--no-strict"
    error = strict_error if strict else loose_error
    expected = (1, "", error) if error else run(capsys, command, str(good), flag)
    assert run(capsys, command, str(bad), flag) == expected


# -- arbitrary tree documents -----------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2, max_value=14)
    | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

# Where a mutation puts an arbitrary JSON value into a valid document.
MUTATIONS = ["root", "edges", "labels", "extra", "edge", "child", "parent",
             "edge_extra", "label"]


@st.composite
def tree_documents(draw) -> bytes:
    """Bytes of a tree file: a valid document, one with a field replaced by
    arbitrary JSON, arbitrary JSON, arbitrary text or arbitrary bytes."""
    kind = draw(st.sampled_from(["valid", "mutated", "json", "text", "bytes"]))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES)).encode()
    if kind == "text":
        return draw(st.text(max_size=40)).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    edges = random_tree_edges(rng, draw(st.integers(min_value=1, max_value=10)),
                              draw(st.sampled_from([None, 2])))
    root = 1
    if draw(st.booleans()):
        edges, root = shuffle_ids(rng, edges, 1)
    doc: dict = {"root": root,
                 "edges": [{"child": c, "parent": p} for c, p in edges]}
    if draw(st.booleans()):
        doc["labels"] = {str(c): f"n{c}" for c, _ in edges[:3]}
    if kind == "mutated":
        where = draw(st.sampled_from(MUTATIONS))
        value = draw(JSON_VALUES)
        if where in ("root", "edges", "labels", "extra"):
            doc[where] = value
        elif where == "label":
            doc["labels"] = {str(root): value}
        elif doc["edges"]:
            edge = doc["edges"][draw(st.integers(0, len(doc["edges"]) - 1))]
            if where == "edge":
                doc["edges"][doc["edges"].index(edge)] = value
            else:
                edge["extra" if where == "edge_extra" else where] = value
    return json.dumps(doc).encode()


@settings(max_examples=200, deadline=None)
@given(document=tree_documents(),
       command=st.sampled_from(["compute", "verify", "count"]),
       strict=st.booleans())
def test_any_tree_document_exits_0_or_1(document, command, strict,
                                        tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(document)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), "--strict" if strict else "--no-strict"])
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")


# -- arbitrary event logs and configs ----------------------------------------------

# Field values a mutation may put into a valid log line.
LOG_FIELDS = st.sampled_from(
    ["0", "-1", "-0", "007", "+3", "1_0", "\uff11", "\u0662", "1.0", "1e3", "x", "",
     "--1", "99999", "1" + "0" * 5000]
) | st.integers(-3, 40).map(str) | st.text(max_size=4)


@st.composite
def event_logs(draw) -> tuple[str, bytes, bool]:
    """``(kind, bytes, root)`` of an event log: a valid one (join order,
    maybe shuffled ids, comments and blank lines), one with a field, line or
    order mutated, arbitrary text or arbitrary bytes."""
    kind = draw(st.sampled_from(["valid", "mutated", "text", "bytes"]))
    if kind == "text":
        return kind, draw(st.text(max_size=60)).encode(), 1
    if kind == "bytes":
        return kind, draw(st.binary(max_size=60)), 1
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    edges = random_tree_edges(rng, draw(st.integers(min_value=1, max_value=12)),
                              draw(st.sampled_from([None, 3])))
    root = 1
    if draw(st.booleans()):
        edges, root = shuffle_ids(rng, edges, 1)
    seqs = sorted(rng.sample(range(-5, 100), len(edges)))
    lines = [f"{s} {c} {p}" for s, (c, p) in zip(seqs, edges)]
    if draw(st.booleans()):
        lines.insert(rng.randint(0, len(lines)), "# a comment")
        lines.insert(rng.randint(0, len(lines)), "   ")
    if kind == "mutated" and lines:
        k = rng.randrange(len(lines))
        how = draw(st.sampled_from(["field", "drop", "extra", "swap", "repeat"]))
        if how == "field":
            fields = lines[k].split() or [""]
            fields[rng.randrange(len(fields))] = draw(LOG_FIELDS)
            lines[k] = " ".join(fields)
        elif how == "drop":
            lines[k] = " ".join(lines[k].split()[:2])
        elif how == "extra":
            lines[k] += " 1"
        elif how == "swap":
            j = rng.randrange(len(lines))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            lines.append(lines[k])
    return kind, "".join(line + "\n" for line in lines).encode(), root


def _main_output(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(log=event_logs(),
       flags=st.lists(st.sampled_from(["--exact", "--no-root-adjust", "--format=csv",
                                       "--format=records", "--unit=7/3"]),
                      max_size=3, unique=True))
def test_any_event_log_exits_0_or_1(log, flags, tmp_path_factory):
    kind, data, root = log
    path = tmp_path_factory.getbasetemp() / "fuzzed.log"
    path.write_bytes(data)
    args = ["stream", str(path), "--root", str(root), *flags]
    runs = {}
    for quiet in (False, True):
        argv = args + (["--quiet"] if quiet else [])
        code, out, err = runs[quiet] = _main_output(argv)
        assert code in (0, 1), err
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ")
    (loud_code, loud, _), (quiet_code, quiet, _) = runs[False], runs[True]
    assert loud_code == quiet_code
    if kind == "valid":
        joins = sum(1 for line in data.decode().splitlines()
                    if line.strip() and not line.startswith("#"))
        assert loud_code == 0
        assert loud.endswith(quiet)
        deltas = loud[:len(loud) - len(quiet)].splitlines()
        assert len(deltas) == joins
        assert all(line.startswith("seq ") for line in deltas)


CONFIG_KEYS = ["mechanisms", "unit", "root_adjust", "ratio", "normalize",
               "referrer_share", "limit_bruteforce", "limit_core", "limit_convex",
               "output_format", "exact"]
CONFIG_VALUES = st.sampled_from(
    [["shapley"], ["geometric", "refer-a-friend"], "shapley", "1000", "7/3", "-2.5",
     "1/2", "0", 0.25, 1e308, True, False, 3, "csv", "records", "table"]
) | JSON_VALUES


@st.composite
def config_files(draw) -> bytes:
    """A config of known keys with plausible or arbitrary values, arbitrary
    JSON, arbitrary text or arbitrary bytes."""
    kind = draw(st.sampled_from(["entries", "json", "text", "bytes"]))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES)).encode()
    if kind == "text":
        return draw(st.text(max_size=40)).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    entries = draw(st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES,
                                   max_size=4))
    if draw(st.booleans()):
        entries[draw(st.text(max_size=6))] = draw(CONFIG_VALUES)
    return json.dumps(entries).encode()


@settings(max_examples=200, deadline=None)
@given(config=config_files())
def test_any_config_exits_0_or_1(config, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    path.write_bytes(config)
    code, _, err = _main_output(["compute", _golden_input("compute"),
                                 "--config", str(path)])
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ")


# -- numbers longer than str() writes ------------------------------------------------

def _long_number_runs(argv: list[str]) -> tuple[tuple, tuple]:
    """The run under the default limit of 4300 digits, and the reference
    run with the limit lifted, where plain ``str`` writes every number:
    what the chunked writer must reproduce under the limit."""
    with _int_digit_limit(4300):
        result = _main_output(argv)
    with _int_digit_limit(0):
        return result, _main_output(argv)


@pytest.fixture(scope="module")
def chain60(tmp_path_factory):
    path = tmp_path_factory.mktemp("long") / "chain60.json"
    path.write_text(json.dumps(
        {"root": 1, "edges": [{"child": k, "parent": k - 1} for k in range(2, 61)]}
    ))
    return str(path)


GEOMETRIC_60 = ["compute", "chain60", "--mechanism", "geometric", "--no-normalize",
                "--ratio", "1/1" + "0" * 100]


@pytest.mark.parametrize("argv,prints_long", [
    (["compute", "f9.json", "--mechanism", "shapley", "--unit", "1e5000"], True),
    (["stream", "f9.log", "--quiet", "--unit", "1e5000"], True),
    (["stream", "f9.log", "--unit", "1e5000"], True),
    # The shares round to 0, but their exact text, with denominators of 5900
    # digits, is still made; --exact prints it.
    (GEOMETRIC_60, False),
    (GEOMETRIC_60 + ["--exact"], True),
], ids=["compute", "stream-quiet", "stream-verbose", "compute-geometric",
        "compute-geometric-exact"])
def test_numbers_longer_than_str_allows_print_in_full(argv, prints_long, chain60):
    source = argv[1]
    path = chain60 if source == "chain60" else str(GOLDEN / source)
    argv = [argv[0], path, *argv[2:]]
    (code, out, err), reference = _long_number_runs(argv)
    assert (code, err) == (0, "")
    assert (max(map(len, out.split())) > 4300) == prints_long
    assert (code, out, err) == reference
    if argv[0] == "stream" and "--quiet" not in argv:
        assert sum(line.startswith("seq ") for line in out.splitlines()) == 8


@pytest.mark.parametrize("command", ["compute", "stream"])
def test_unit_literal_longer_than_the_digit_limit_is_read(command):
    # "1" and 4300 zeros: one digit past what Fraction(str) reads at 4300.
    argv = [command, _golden_input(command), "--format", "csv"]
    with _int_digit_limit(4300):
        long_literal = _main_output(argv + ["--unit", "1" + "0" * 4300])
        exponent = _main_output(argv + ["--unit", "1e4300"])
    assert long_literal == exponent
    assert long_literal[0] == 0


# Short and long exponents alike: str() writes at most 4300 digits.
LONG_UNITS = st.builds(
    "{}{}e{}".format, st.sampled_from(["", "-"]), st.integers(1, 10**30),
    st.integers(0, 50) | st.integers(4_300, 10_000),
)
LONG_RATIOS = st.builds(
    "{}e-{}".format, st.integers(1, 999),
    st.integers(3, 50) | st.integers(1_500, 3_300),
)


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["compute", "stream"]), unit=LONG_UNITS,
       ratio=LONG_RATIOS,
       flags=st.lists(st.sampled_from(["--exact", "--no-normalize", "--format=csv",
                                       "--format=records", "--quiet"]),
                      max_size=3, unique=True))
def test_long_units_and_ratios_print_like_unlimited_str(command, unit, ratio, flags):
    # f9 has height 3, so the geometric denominator is the ratio's cubed:
    # up to about 10^4 digits.
    if command == "compute":
        flags = [f for f in flags if f != "--quiet"] + ["--ratio", ratio]
    else:
        flags = [f for f in flags if f != "--no-normalize"]
    argv = [command, _golden_input(command), "--unit", unit, *flags]
    result, reference = _long_number_runs(argv)
    assert result[0] == 0, result[2]
    assert result == reference


def _digit_run(length: int, seed: int) -> str:
    """``length`` random decimal digits, the first one nonzero."""
    rng = random.Random(seed)
    return str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=length - 1))


DIGIT_RUNS = st.builds(_digit_run, st.integers(1, 20) | st.integers(2_000, 5_000),
                       st.integers(0, 2**32))
SIGNS = st.sampled_from(["", "-"])
# Integers, decimals and p/q written out in full, not as exponents: up to
# 10^4 digits, past the 4300 that Fraction(str) reads under the default limit.
LONG_UNIT_LITERALS = st.one_of(
    st.builds("{}{}{}".format, SIGNS, DIGIT_RUNS, DIGIT_RUNS),
    st.builds("{}{}.{}".format, SIGNS, DIGIT_RUNS, DIGIT_RUNS),
    st.builds("{}{}/{}".format, SIGNS, DIGIT_RUNS, DIGIT_RUNS),
)
# Strictly between 0 and 1: q has p's digits with a nonzero run before them.
LONG_RATIO_LITERALS = st.builds("0.{}".format, DIGIT_RUNS) | st.builds(
    "{0}/{1}{0}".format, DIGIT_RUNS, DIGIT_RUNS)


def _f9_rewards(unit: Fraction, ratio: Fraction) -> dict[str, dict[int, Fraction]]:
    """Each mechanism's rewards on f9 at the default settings, from the
    definitions: refer-a-friend halves each referral's unit between invitee
    and referrer; geometric pays ``ratio**distance`` per strict descendant,
    scaled to pay the pool ``8 * unit``; shapley shares each member's unit
    equally among it and its ancestors, and charges the root one unit."""
    parent = dict(F9_EDGES)
    up = {i: [i] for i in range(1, 10)}  # each node, then its ancestors
    for path in up.values():
        while path[-1] in parent:
            path.append(parent[path[-1]])
    raw = {i: sum(ratio ** up[j].index(i) for j in up if i in up[j][1:]) for i in up}
    return {
        "refer_a_friend": {i: unit / 2 * ((i != 1) + list(parent.values()).count(i))
                           for i in up},
        "geometric": {i: 8 * unit * raw[i] / sum(raw.values()) for i in up},
        "shapley": {i: unit * (sum(Fraction(1, len(up[j])) for j in up if i in up[j])
                               - (i == 1)) for i in up},
    }


def _csv_row(value: Fraction) -> str:
    """``exact,display`` for a reward, rounded half away from zero."""
    magnitude = floor(abs(value) + Fraction(1, 2))
    return f"{value},{magnitude if value >= 0 else -magnitude}"


@settings(max_examples=8, deadline=None)
@given(unit=LONG_UNIT_LITERALS, ratio=LONG_RATIO_LITERALS)
def test_long_written_out_literals_give_exact_rewards(unit, ratio):
    csv = ["--format", "csv", "--exact", "--unit", unit]
    with _int_digit_limit(4300):
        computed = _main_output(["compute", _golden_input("compute"), *csv,
                                 "--ratio", ratio])
        streamed = _main_output(["stream", _golden_input("stream"), "--quiet", *csv])
    with _int_digit_limit(0):  # the reference writes every digit with str
        rewards = _f9_rewards(Fraction(unit), Fraction(ratio))
        expected_compute = "".join(
            ["mechanism,node,exact,display\n"]
            + [f"{kind},{i},{_csv_row(value)}\n"
               for kind, by_node in rewards.items() for i, value in by_node.items()])
        expected_stream = "".join(
            ["node,exact,display\n"]
            + [f"{i},{_csv_row(value)}\n" for i, value in rewards["shapley"].items()])
    assert computed == (0, expected_compute, "")
    assert streamed == (0, expected_stream, "")


# -- verify and count at scale ----------------------------------------------------

SCALE_NODES = 20_000


def _int_from_text(text: str) -> int:
    """Parse a decimal of any length: ``int`` refuses more digits in one go
    than the digit limit, which may be as low as 640, so the text is read
    600 digits at a time."""
    value = 0
    for start in range(0, len(text), 600):
        chunk = text[start:start + 600]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _recount(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Trimmed coalitions containing each id, by multiplication only: the
    free choices hanging off the root path, times the node's own subtree
    count. Needs ids 1..n with parents before children."""
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for child, parent in edges:
        children[parent].append(child)
    t = [1] * (n + 1)
    for node in range(n, 0, -1):
        for c in children[node]:
            t[node] *= 1 + t[c]
    above = [1] * (n + 1)  # product of the choices hanging off the path
    for node in range(1, n + 1):
        kids = children[node]
        factors = [1 + t[c] for c in kids]
        prefix = 1
        suffix = [1] * (len(kids) + 1)
        for k in range(len(kids) - 1, -1, -1):
            suffix[k] = suffix[k + 1] * factors[k]
        for k, c in enumerate(kids):
            above[c] = above[node] * prefix * suffix[k + 1]
            prefix *= factors[k]
    return [above[i] * t[i] for i in range(n + 1)]


class _LineChecker(io.TextIOBase):
    """A text stream that hands each complete line to ``check`` as it is
    written, so a large output is checked without being kept."""

    def __init__(self, check) -> None:
        self.check = check
        self.pending = ""
        self.lines = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        *complete, self.pending = (self.pending + text).split("\n")
        for line in complete:
            self.check(self.lines, line)
            self.lines += 1
        return len(text)


@pytest.fixture(scope="module")
def scale_tree(tmp_path_factory):
    edges = random_tree_edges(random.Random(2024), SCALE_NODES, 50)
    path = tmp_path_factory.mktemp("scale") / "tree.json"
    path.write_text(json.dumps(
        {"root": 1, "edges": [{"child": c, "parent": p} for c, p in edges]}
    ))
    return str(path), edges


def test_verify_at_scale_reports_the_exact_work(scale_tree, capsys):
    path, edges = scale_tree
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    line = next(x for x in out.splitlines() if "trimmed-coalition sum" in x)
    status, _, detail = line.partition("(")
    assert status.split()[0] == "SKIPPED"
    total, _, rest = detail.partition(" ")
    assert rest == "trimmed coalitions exceed budget 200000)"
    assert _int_from_text(total) == sum(_recount(SCALE_NODES, edges)[1:])


def test_count_at_scale_matches_a_recount(scale_tree):
    path, edges = scale_tree
    counts = _recount(SCALE_NODES, edges)
    parent = dict(edges)
    depth = [0] * (SCALE_NODES + 1)
    height = [0] * (SCALE_NODES + 1)
    for node in range(2, SCALE_NODES + 1):
        depth[node] = depth[parent[node]] + 1
    for node in range(SCALE_NODES, 1, -1):
        height[parent[node]] = max(height[parent[node]], height[node] + 1)
    cfg = 2 ** (SCALE_NODES - 1)
    seen = []

    def check(index: int, line: str) -> None:
        cells = line.split()
        if index == 0:
            assert cells == ["node", "depth", "cfg", "tree_game", "basic"]
            return
        node = int(cells[0])
        assert [int(cells[1]), int(cells[4])] == [depth[node], height[node] + 1]
        assert _int_from_text(cells[3]) == counts[node]
        if index == 1:  # every row prints the same cfg
            assert _int_from_text(cells[2]) == cfg
            seen.append(cells[2])
        assert cells[2] == seen[0]
        seen.append(node)

    checker = _LineChecker(check)
    with contextlib.redirect_stdout(checker):
        assert main(["count", path]) == 0
    assert checker.pending == ""
    assert seen[1:] == list(range(1, SCALE_NODES + 1))


LONG = "x" * 10**6

# (command, file suffix, file text or None, extra flags): each run echoes an
# input of 10^5 or 10^6 characters in its error.
LONG_ECHOES = {
    "edge id": ("compute", "json",
                {"root": 1, "edges": [{"child": LONG, "parent": 1}]}, []),
    "label key": ("compute", "json", {"root": 1, "edges": [], "labels": {LONG: "a"}}, []),
    "tree field": ("compute", "json", {"root": 1, "edges": [], LONG: 1}, []),
    "edge field": ("compute", "json",
                   {"root": 1, "edges": [{"child": 2, "parent": 1, LONG: 1}]}, []),
    "config field": ("compute", "config", {LONG: 1}, []),
    "config mechanisms": ("compute", "config", {"mechanisms": [LONG]}, []),
    "config exact": ("compute", "config", {"exact": [LONG]}, []),
    "config limit_core": ("verify", "config", {"limit_core": [LONG]}, []),
    "config output_format": ("compute", "config", {"output_format": LONG}, []),
    "log line, three fields": ("stream", "log", "1 2 " + LONG + "\n", []),
    "log line, four fields": ("stream", "log", "1 2 1 " + LONG + "\n", []),
    # ids of 600 digits, which every digit limit reads
    "log parent": ("stream", "log", "1 2 " + "9" * 600 + "\n", []),
    "log node": ("stream", "log", "1 -" + "9" * 600 + " 1\n", []),
    "log seq": ("stream", "log", "9" * 600 + " 2 5\n", []),
    "mechanism flag": ("compute", None, None, ["--mechanism", "x" * 10**5]),
}


@pytest.mark.parametrize("case", LONG_ECHOES)
def test_an_error_cuts_a_long_input_it_echoes(case, tmp_path, capsys):
    command, suffix, content, extra = LONG_ECHOES[case]
    args = [command, _golden_input(command)]
    if suffix is not None:
        path = tmp_path / f"input.{suffix}"
        path.write_text(content if suffix == "log" else json.dumps(content))
        if suffix == "config":
            args += ["--config", str(path)]
        else:
            args[1] = str(path)
    code, out, err = run(capsys, *args, *extra)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "Traceback" not in err and "… (" in err


@pytest.mark.parametrize("limit", [4300, 0])
@pytest.mark.parametrize("flag,literal", [
    ("--ratio", "3/0"), ("--unit", "1" + "0" * 5000 + "/0"),
], ids=["short", "long"])
def test_a_zero_denominator_is_named_as_such(flag, literal, limit, capsys):
    with _int_digit_limit(limit):
        code, out, err = run(capsys, "compute", _golden_input("compute"), flag, literal)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err.endswith(" as a rational: zero denominator\n")
    assert "Fraction(" not in err and "set_int_max_str_digits" not in err

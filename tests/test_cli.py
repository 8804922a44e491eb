"""End-to-end CLI runs: compute, stream, verify, count, and exit codes."""

from __future__ import annotations

import json

import pytest

from treeshare.cli import main

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

"""The benchmark's tracer still finds every function it wraps.

``perfbench/spans.py`` rebinds treeshare functions from outside the package,
by module global, class attribute and module-level dict entry. A refactor
that moves one of them makes ``Tracer.install`` fail or leaves a layer
untimed; this test runs each CLI command on the ``f9`` fixture under the
tracer, without changing anything under ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

import treeshare.cli
import treeshare.io
import treeshare.mechanisms
import treeshare.tree
from treeshare.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

EXPECTED_SPANS = {
    "compute": {"io.parse_tree_file", "tree.build_tree", "mechanisms.refer_a_friend",
                "mechanisms.geometric", "mechanisms.shapley", "shapley.basic",
                "allocation.scaled", "io.render_report"},
    "stream": {"io.parse_event_log", "io.replay_events", "shapley.join",
               "shapley.snapshot", "allocation.scaled", "io.render_allocation"},
    "verify": {"io.parse_tree_file", "analysis.run_verification",
               "shapley.bruteforce", "shapley.general", "analysis.core",
               "analysis.convex"},
    "count": {"io.parse_tree_file", "analysis.complexity_table", "analysis.count"},
}


@pytest.fixture
def tracer_class(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(__import__("sys").modules, "spans", raising=False)
    from spans import Tracer

    return Tracer


@pytest.mark.parametrize("command", sorted(EXPECTED_SPANS))
def test_tracer_times_every_layer_of_a_command(command, tracer_class):
    source = GOLDEN / ("f9.log" if command == "stream" else "f9.json")
    originals = {
        "io.render_report": treeshare.io.render_report,
        "cli.render_report": treeshare.cli.render_report,
        "mechanisms.shapley": treeshare.mechanisms._ALLOCATORS["shapley"],
        "tree.enumerate": treeshare.tree.RootedTree.__dict__[
            "enumerate_trimmed_containing"],
    }
    tracer = tracer_class()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, str(source)]) == 0
        names = {span[1] for span in tracer.spans}
        counts = dict(tracer.counts)
    finally:
        tracer.uninstall()
    assert EXPECTED_SPANS[command] <= names
    if command == "verify":
        assert counts["tree.trimmed_yielded"] > 0
        assert counts["games.value_calls"] > 0
    assert originals == {
        "io.render_report": treeshare.io.render_report,
        "cli.render_report": treeshare.cli.render_report,
        "mechanisms.shapley": treeshare.mechanisms._ALLOCATORS["shapley"],
        "tree.enumerate": treeshare.tree.RootedTree.__dict__[
            "enumerate_trimmed_containing"],
    }

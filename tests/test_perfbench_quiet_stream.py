"""The benchmark's tracer on the quiet ``stream`` path.

``stream --quiet`` attaches joins without building deltas, so it never calls
``IncrementalState.join``; the tracer must still time every other layer of
the run, and wrapping them must not change what is printed.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from treeshare.cli import main

ROOT = Path(__file__).resolve().parents[1]
ARGV = ["stream", "--quiet", str(ROOT / "tests" / "golden" / "f9.log")]


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_quiet_stream_under_the_tracer_times_each_layer_and_no_join(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    from spans import Tracer

    untraced = _stdout(ARGV)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _stdout(ARGV)
        names = {span[1] for span in tracer.spans}
    finally:
        tracer.uninstall()
    assert {"io.parse_event_log", "io.replay_events", "shapley.snapshot",
            "allocation.scaled", "io.render_allocation"} <= names
    assert "shapley.join" not in names
    assert traced == untraced
    assert untraced == _stdout(ARGV)  # the tracer is gone again

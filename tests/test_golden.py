"""Byte-for-byte golden outputs of the treeshare CLI.

Every case runs ``treeshare.cli.main`` on an input file under
``tests/golden/`` and compares its exit code and stdout with the transcript
``tests/golden/<input>.txt``. The inputs are the worked example, the ``f9``
fixture and a seeded 300-join referral tree, each as a tree file and as a
join log.

Regenerate the inputs and transcripts, only when an output change is
intended, with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

from treeshare.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "records", "csv")
HEADER = re.compile(r"^=== (.*) \(exit (\d+)\)$", re.MULTILINE)

EXAMPLE_EDGES = [(3, 1), (6, 3), (7, 3)]
F9_EDGES = [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (9, 4)]


def seeded_edges(seed: int = 2014, n: int = 300) -> list[tuple[int, int]]:
    """A random recursive tree on ids 1..n in join order."""
    rng = random.Random(seed)
    return [(node, rng.randint(1, node - 1)) for node in range(2, n + 1)]


INPUTS = {
    "example": EXAMPLE_EDGES,
    "f9": F9_EDGES,
    "r300": seeded_edges(),
}


def cases(name: str) -> list[list[str]]:
    """The CLI invocations recorded for one input, file names relative."""
    tree, log = f"{name}.json", f"{name}.log"
    out = []
    for exact in ([], ["--exact"]):
        for unit in ([], ["--unit", "1000"], ["--unit", "7/3"]):
            out.append(["compute", tree, "--format", "table", *unit, *exact])
    # --exact changes only the table; records and csv always carry both.
    for fmt, unit in (("records", "1000"), ("csv", "7/3")):
        out.append(["compute", tree, "--format", fmt])
        out.append(["compute", tree, "--format", fmt, "--unit", unit])
        out.append(["compute", tree, "--format", fmt, "--unit", unit, "--exact"])
    for normalize in ("--normalize", "--no-normalize"):
        geometric = ["compute", tree, "--mechanism", "geometric", "--ratio", "2/3"]
        out.append([*geometric, normalize])
        out.append([*geometric, normalize, "--unit", "1000", "--format", "csv",
                    "--exact"])
    out += [
        ["compute", tree, "--no-root-adjust", "--unit", "2.5", "--format", "csv"],
        ["compute", tree, "--unit", "-3", "--exact"],
        ["compute", tree, "--unit", "1/3", "--format", "records"],
        ["compute", tree, "--mechanism", "refer-a-friend", "--referrer-share",
         "1/3", "--unit", "1000", "--format", "csv", "--exact"],
    ]
    for quiet in ([], ["--quiet"]):
        for fmt in FORMATS:
            for adjust in ("--root-adjust", "--no-root-adjust"):
                out.append(["stream", log, "--unit", "1000", "--format", fmt,
                            adjust, *quiet])
    out += [
        ["stream", log, "--unit", "7/3", "--exact"],
        ["stream", log, "--unit", "-3", "--quiet", "--exact", "--format", "csv"],
        ["stream", log, "--unit", "2.5", "--format", "records"],
        ["verify", tree],
        ["count", tree],
    ]
    return out


def run_case(args: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one invocation, input resolved under GOLDEN."""
    argv = [args[0], str(GOLDEN / args[1]), *args[2:]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue()


def load_transcript(name: str) -> dict[str, tuple[int, str]]:
    text = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    headers = list(HEADER.finditer(text))
    ends = [h.start() for h in headers[1:]] + [len(text)]
    return {
        h.group(1): (int(h.group(2)), text[h.end() + 1:end])
        for h, end in zip(headers, ends)
    }


@pytest.mark.parametrize(
    "name,args",
    [(name, args) for name in INPUTS for args in cases(name)],
    ids=lambda value: " ".join(value) if isinstance(value, list) else value,
)
def test_cli_output_matches_golden(name, args):
    assert run_case(args) == load_transcript(name)[" ".join(args)]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, edges in INPUTS.items():
        document = {"root": 1,
                    "edges": [{"child": c, "parent": p} for c, p in edges]}
        (GOLDEN / f"{name}.json").write_text(json.dumps(document) + "\n",
                                             encoding="utf-8")
        (GOLDEN / f"{name}.log").write_text(
            "".join(f"{seq} {c} {p}\n" for seq, (c, p) in enumerate(edges, 1)),
            encoding="utf-8",
        )
        blocks = []
        for args in cases(name):
            code, out = run_case(args)
            blocks.append(f"=== {' '.join(args)} (exit {code})\n{out}")
        (GOLDEN / f"{name}.txt").write_text("".join(blocks), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())

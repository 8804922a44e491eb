"""Self-test of the benchmark: its per-layer counts and outputs are stable.

    python3 perfbench/selftest.py

For each workload it runs the benchmark twice traced and once untraced on
seed 7, with one-second runs, and checks that

* all three runs saw byte-identical inputs;
* every per-layer count is the same in both traced runs;
* every traced in-process output has the digest of the same invocation run
  as a subprocess, so tracing changes nothing the program prints.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import LAYER_COUNTS, OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def digests(passes: list[dict]) -> dict[str, set[str]]:
    seen: dict[str, set[str]] = {}
    for record in passes:
        for row in record["invocations"]:
            seen.setdefault(row["label"], set()).add(row["stdout_sha256"])
    return seen


def check(workload: str, seed: int) -> list[str]:
    first = bench(workload, seed, 1)
    second = bench(workload, seed, 1)
    untraced = bench(workload, seed, 0)
    problems = []
    if not first["inputs"] == second["inputs"] == untraced["inputs"]:
        problems.append("inputs differ between runs of one seed")
    a = first["results"][workload]["per_layer"]
    b = second["results"][workload]["per_layer"]
    for name in LAYER_COUNTS:
        if a[name] != b[name]:
            problems.append(f"{name}: {a[name]} then {b[name]}")
    expected = digests(untraced["results"][workload]["passes"])
    for run in (first, second):
        traced = digests(run["results"][workload]["traced"])
        if traced != expected:
            problems.append(f"traced stdout digests {traced} != untraced {expected}")
    return problems


def main() -> int:
    failed = False
    for workload in WORKLOADS:
        problems = check(workload, SEED)
        print(f"{'ok  ' if not problems else 'FAIL'} {workload}")
        for problem in problems:
            print(f"     {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

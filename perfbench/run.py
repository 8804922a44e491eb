"""Seeded end-to-end and per-layer benchmark of the treeshare CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload stream-100k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` runs every CLI invocation of a workload as a fresh
``python -m treeshare.cli`` subprocess, in a closed loop with one client: the
next invocation starts only when the previous one has ended. Passes repeat
while the next one would still end within ``--seconds``. Wall and CPU time
are trimmed means over passes (see ``trimmed_mean``), memory and set-up time
medians; times are scaled to a reference speed (see ``REFERENCE_S``).
``--trace 1`` runs the same invocations in this process through
``treeshare.cli.main``, alternating untraced and traced passes, and reports
per-layer self times and counts (see ``spans.py``). ``--workload all``
interleaves the untraced passes of every workload, then traces each one, and
prints both sets of metrics.

Every output is checked (see ``workloads.py``); a failed check or a non-zero
exit counts as a failed invocation and makes the command exit with 1. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with per-pass
values, input and output digests and run facts, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 9

# A fixed pure-Python loop, run as a child between invocations. Its time
# tracks the speed the host gives this machine, which on a shared host drifts
# by a quarter or more within minutes, far more than the changes the benchmark
# must resolve. Each invocation's wall time is scaled by REFERENCE_S over the mean
# wall time of the reference runs just before and just after it, and its CPU
# time by REFERENCE_S over their mean CPU time, so that drift cancels out;
# REFERENCE_S is close to the reference's time on an uncontended core of a
# 2.1 GHz Xeon. The raw times are printed and recorded too.
REFERENCE_CODE = "s = 0\nfor i in range(2_500_000):\n    s += i * i\n"
REFERENCE_S = 0.35
INVOCATION_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# Span name -> metric. Every time is self time: the span's duration minus its
# child spans, so the times of one pass add up to the traced CLI time.
LAYER_TIMES = {
    "io.parse_event_log": "io.parse_event_log_s",
    "io.replay_events": "io.replay_events_self_s",
    "io.render_allocation": "io.render_allocation_s",
    "io.parse_tree_file": "io.parse_tree_file_self_s",
    "io.render_report": "io.render_report_s",
    "tree.build_tree": "tree.build_tree_s",
    "shapley.join": "shapley.join_s",
    "shapley.snapshot": "shapley.snapshot_s",
    "shapley.basic": "shapley.basic_s",
    "shapley.general": "shapley.general_s",
    "shapley.bruteforce": "shapley.bruteforce_s",
    "allocation.scaled": "allocation.scaled_s",
    "mechanisms.refer_a_friend": "mechanisms.refer_a_friend_s",
    "mechanisms.geometric": "mechanisms.geometric_s",
    "mechanisms.shapley": "mechanisms.shapley_s",
    "analysis.complexity_table": "analysis.complexity_table_s",
    "analysis.count": "analysis.count_s",
    "analysis.core": "analysis.core_s",
    "analysis.convex": "analysis.convex_s",
    "analysis.run_verification": "analysis.run_verification_self_s",
    "cli": "cli.self_s",
}

LAYER_COUNTS = {
    "io.output_bytes": "bytes",
    "tree.nodes": "count",
    "tree.height": "count",
    "tree.trimmed_yielded": "count",
    "games.value_calls": "count",
    "shapley.join_calls": "count",
    "shapley.join_path_nodes": "count",
    "allocation.round_calls": "count",
    "allocation.max_den_bits": "bits",
    "analysis.count_calls": "count",
    "analysis.checks_skipped": "count",
}

LAYER_OTHER = {
    "shapley.general_visit_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.layer_coverage": "ratio",
}

PER_LAYER = {
    **{metric: "s" for metric in LAYER_TIMES.values()},
    **LAYER_COUNTS,
    **LAYER_OTHER,
}


class ProgramMissing(Exception):
    """The checkout has no runnable treeshare package."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trimmed_mean(values: list[float]) -> float:
    """Mean of the passes after dropping the fastest and the slowest.

    On a shared machine the speed of a core switches between a fast and a
    slow state for seconds at a time, so pass times are bimodal and their
    median jumps between the modes from run to run; the mean follows the
    share of time spent in each and is steadier. Dropping the extremes keeps
    one stray pass from moving it.
    """
    if len(values) >= 5:
        values = sorted(values)[1:-1]
    return statistics.fmean(values)


def summary(values: list[float]) -> dict:
    """Median, quartiles and every value, for the results record."""
    record = {"median": statistics.median(values), "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        record.update(q1=q1, q3=q3)
    return record


def run_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def judge(inv: workloads.Invocation, reference: dict[str, str], code: int,
          out: bytes) -> str | None:
    """Check one output. After a passing full check, later outputs of the
    same invocation must be byte-identical to it."""
    digest = sha256(out)
    if inv.label in reference:
        if code != 0 or digest != reference[inv.label]:
            return f"exit {code}, output differs from the checked first pass"
        return None
    try:
        problem = inv.check(out, code)
    except (ValueError, IndexError) as exc:  # output too malformed to parse
        problem = f"unreadable output: {exc!r}"
    if problem is None:
        reference[inv.label] = digest
    return problem


# -- subprocess passes (end to end) -----------------------------------------

class ChildRunner:
    """Runs ``python -m treeshare.cli`` children against the checkout's
    source, through ``launcher.py``, which measures each child on its own."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def run(self, argv: list[str]) -> dict:
        """One ``treeshare.cli`` child with the given arguments."""
        return self.launch([sys.executable, "-m", "treeshare.cli", *argv])

    def reference(self) -> tuple[float, float]:
        """Wall and CPU time of the reference loop."""
        result = self.launch([sys.executable, "-c", REFERENCE_CODE])
        if result["code"] != 0:
            raise RuntimeError(f"reference loop failed: {result['err']}")
        return result["wall_s"], result["cpu_s"]

    def launch(self, argv: list[str]) -> dict:
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        request = {
            "argv": argv,
            "stdout": str(out_path), "stderr": str(err_path),
            "cwd": str(self.workdir), "timeout": INVOCATION_TIMEOUT_S,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        result = json.loads(self.launcher.stdout.readline())
        result["out"] = out_path.read_bytes()
        result["err"] = err_path.read_bytes()[-400:].decode("utf-8", "replace")
        return result

    def setup_times(self) -> tuple[list[float], list[float]]:
        """Wall times of ``--help``, the interpreter plus every import, and
        of the reference loop, run around every three of them."""
        times, references = [], [self.reference()[0]]
        for k in range(1, SETUP_REPEATS + 1):
            result = self.run(["--help"])
            if result["code"] != 0 or b"Usage" not in result["out"]:
                raise ProgramMissing(f"treeshare.cli --help failed: {result['err']}")
            times.append(result["wall_s"])
            if k % 3 == 0:
                references.append(self.reference()[0])
        return times, references


def subprocess_pass(runner: ChildRunner, workload: workloads.Workload,
                    checked: dict[str, str],
                    before: tuple[float, float]) -> tuple[dict, tuple[float, float]]:
    """One pass, with a reference loop after every invocation. ``before``
    is the reference run just before the pass; the last one is returned."""
    record = {"workload": workload.name, "invocations": []}
    for inv in workload.invocations:
        result = runner.run(inv.argv)
        after = runner.reference()
        problem = judge(inv, checked, result["code"], result["out"])
        if problem and result["err"]:
            problem += f"; stderr: {result['err']}"
        reference_s = (before[0] + after[0]) / 2
        reference_cpu_s = (before[1] + after[1]) / 2
        record["invocations"].append({
            "label": inv.label,
            "code": result["code"],
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "rss_mib": result["rss_mib"],
            "reference_s": reference_s,
            "reference_cpu_s": reference_cpu_s,
            "scaled_wall_s": result["wall_s"] * REFERENCE_S / reference_s,
            "scaled_cpu_s": result["cpu_s"] * REFERENCE_S / reference_cpu_s,
            "stdout_sha256": sha256(result["out"]),
            "problem": problem,
        })
        before = after
    rows = record["invocations"]
    record["metrics"] = {
        name: sum(r[name] for r in rows)
        for name in ("wall_s", "cpu_s", "scaled_wall_s", "scaled_cpu_s")
    }
    record["metrics"]["peak_rss_mib"] = max(r["rss_mib"] for r in rows)
    return record, before


def end_to_end_metrics(workload: workloads.Workload, passes: list[dict],
                       setup: tuple[list[float], list[float]]) -> tuple[dict, dict, dict]:
    """Per-run metrics at reference speed, the raw ones, and the per-pass
    values behind them.

    Wall and CPU time are trimmed means over passes of the sums of scaled
    invocation times; set-up time is the median ``--help`` time, scaled by
    the reference loops run between those. Peak memory is the median over
    passes, unscaled.
    """
    setup_times, setup_references = setup
    summaries = {
        name: summary([p["metrics"][name] for p in passes])
        for name in ("wall_s", "cpu_s", "scaled_wall_s", "scaled_cpu_s",
                     "peak_rss_mib")
    }
    summaries["setup_s"] = summary(setup_times)
    summaries["setup_reference_s"] = summary(setup_references)
    summaries["invocation_wall_s"] = {
        inv.label: summary([p["invocations"][k]["wall_s"] for p in passes])
        for k, inv in enumerate(workload.invocations)
    }
    items = sum(inv.items for inv in workload.invocations)

    raw_wall = trimmed_mean(summaries["wall_s"]["values"])
    raw = {
        "wall_s": raw_wall,
        "items_per_s": items / raw_wall,
        "cpu_s": trimmed_mean(summaries["cpu_s"]["values"]),
        "peak_rss_mib": summaries["peak_rss_mib"]["median"],
        "setup_s": summaries["setup_s"]["median"],
    }
    wall = trimmed_mean(summaries["scaled_wall_s"]["values"])
    metrics = {
        "wall_s": wall,
        "items_per_s": items / wall,
        "cpu_s": trimmed_mean(summaries["scaled_cpu_s"]["values"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "setup_s": raw["setup_s"] * REFERENCE_S / statistics.median(setup_references),
    }
    return metrics, raw, summaries


# -- in-process passes (per layer) ------------------------------------------

def load_program():
    sys.path.insert(0, str(SRC))
    import treeshare.cli

    if not Path(treeshare.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"treeshare was imported from {treeshare.cli.__file__}")
    return treeshare.cli.main


def call_main(main, argv: list[str]) -> tuple[int, bytes, float]:
    """One in-process CLI run with stdout captured as bytes."""
    buffer = io.BytesIO()
    text = io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
    start = time.perf_counter()
    with redirect_stdout(text), redirect_stderr(io.StringIO()):
        code = main(argv)
    wall = time.perf_counter() - start
    text.flush()
    out = buffer.getvalue()
    text.detach()
    return code, out, wall


def inprocess_pass(main, workload: workloads.Workload, reference: dict[str, str],
                   tracer: Tracer | None = None) -> dict:
    if tracer is not None:
        tracer.install()
        main = tracer.span("cli", main)
    gc.collect()
    rows = []
    try:
        for inv in workload.invocations:
            code, out, wall = call_main(main, inv.argv)
            rows.append((inv, code, out, wall))
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"invocations": []}
    for inv, code, out, wall in rows:
        record["invocations"].append({
            "label": inv.label,
            "code": code,
            "wall_s": wall,
            "stdout_sha256": sha256(out),
            "output_bytes": len(out),
            "problem": judge(inv, reference, code, out),
        })
    record["wall_s"] = sum(row[3] for row in rows)
    return record


def layer_values(tracer: Tracer, record: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    from treeshare.analysis import count_trimmed_containing

    times = tracer.self_times()
    values = {metric: times.get(span, 0.0) for span, metric in LAYER_TIMES.items()}
    for name in LAYER_COUNTS:
        values[name] = tracer.counts.get(name, 0)
    values["io.output_bytes"] = sum(r["output_bytes"] for r in record["invocations"])
    values["allocation.max_den_bits"] = tracer.max_den_bits()
    predicted = sum(
        count_trimmed_containing(tree, i)
        for tree in tracer.general_trees for i in tree.node_ids
    )
    values["shapley.general_visit_ratio"] = (
        tracer.counts.get("tree.trimmed_yielded", 0) / predicted if predicted else 0.0
    )
    layers = sum(t for span, t in times.items() if span != "cli")
    values["trace.layer_coverage"] = layers / record["wall_s"]
    return values


def traced_run(main, workload: workloads.Workload, seconds: float) -> dict:
    """Alternate untraced and traced in-process passes for ``seconds``.

    A first untraced pass, not timed into any metric, checks the outputs and
    lets the allocator and caches settle, so the first timed pass does not
    pay for them.
    """
    reference: dict[str, str] = {}
    tracer = Tracer()
    warmup = inprocess_pass(main, workload, reference)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    while not traced or time.perf_counter() + pair_s <= deadline:
        started = time.perf_counter()
        untraced.append(inprocess_pass(main, workload, reference))
        tracer.reset(len(traced))
        record = inprocess_pass(main, workload, reference, tracer)
        record["layers"] = layer_values(tracer, record)
        traced.append(record)
        pair_s = time.perf_counter() - started
    problems = []
    first = traced[0]["layers"]
    for record in traced[1:]:
        for name in LAYER_COUNTS:
            if record["layers"][name] != first[name]:
                problems.append(f"count {name} differs between traced passes")
    metrics = {}
    for name in PER_LAYER:
        if name in LAYER_COUNTS:
            metrics[name] = first[name]
        elif name != "trace.overhead_s":
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced)
    )
    return {"warmup": warmup, "untraced": untraced, "traced": traced, "metrics": metrics,
            "problems": problems, "spans": list(tracer.spans)}


# -- the command ----------------------------------------------------------

def tally(passes: list[dict], extra_problems: list[str]) -> tuple[int, int]:
    attempted = sum(len(p["invocations"]) for p in passes)
    failed = sum(1 for p in passes for r in p["invocations"]
                 if r["code"] != 0 or r["problem"])
    return attempted, failed + len(extra_problems)


def print_metrics(prefix: str, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{prefix}{name} = {value} {units[name]}")


def report_failures(passes: list[dict]) -> None:
    for p in passes:
        for r in p["invocations"]:
            if r["problem"] or r["code"] != 0:
                print(f"FAILED {r['label']}: {r['problem'] or 'exit ' + str(r['code'])}",
                      file=sys.stderr)


def run(args: argparse.Namespace, workdir: Path) -> dict:
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    prepared = {name: workloads.prepare(name, args.seed, workdir) for name in names}
    main = load_program()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "facts": run_facts(),
        "inputs": {name: w.inputs for name, w in prepared.items()},
        "why": {name: workloads.WORKLOADS[name] for name in names},
        "results": {name: {} for name in names},
        "attempted": 0, "failed": 0,
    }

    def count(passes: list[dict], problems: list[str]) -> float:
        attempted, failed = tally(passes, problems)
        record["attempted"] += attempted
        record["failed"] += failed
        report_failures(passes)
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)
        return failed / attempted

    if args.workload == "all" or not args.trace:
        runner = ChildRunner(workdir)
        try:
            setup = runner.setup_times()
            checked = {name: {} for name in names}
            passes: dict[str, list[dict]] = {name: [] for name in names}
            reference = runner.reference()
            order = []
            deadline = time.perf_counter() + args.seconds * len(names)
            round_s = 0.0
            while not order or time.perf_counter() + round_s <= deadline:
                started = time.perf_counter()
                shift = len(order) // len(names) % len(names)
                for name in names[shift:] + names[:shift]:
                    measured, reference = subprocess_pass(
                        runner, prepared[name], checked[name], reference)
                    passes[name].append(measured)
                    order.append(name)
                round_s = time.perf_counter() - started
            record["order"] = order
            for name in names:
                metrics, raw, summaries = end_to_end_metrics(
                    prepared[name], passes[name], setup)
                record["results"][name].update(
                    end_to_end=metrics, raw=raw, summaries=summaries,
                    passes=passes[name],
                    error_rate=count(passes[name], []),
                )
        finally:
            runner.close()

    if args.workload == "all" or args.trace:
        for name in names:
            traced = traced_run(main, prepared[name], args.seconds)
            all_passes = [traced["warmup"], *traced["untraced"], *traced["traced"]]
            record["results"][name].update(
                per_layer=traced["metrics"], traced=traced["traced"],
                untraced=traced["untraced"],
                trace_error_rate=count(all_passes, traced["problems"]),
            )
            # One file per workload, overwritten by each traced run: the
            # spans of a stream pass alone take tens of megabytes.
            (OUT / f"{name}-spans.json").write_text(json.dumps(
                {"seed": args.seed,
                 "fields": ["pass_id", "name", "parent", "start", "end"],
                 "spans": traced["spans"]}))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from traced in-process passes "
                             "(with --workload all, both kinds always run)")
    args = parser.parse_args()

    if not (SRC / "treeshare" / "cli.py").is_file():
        print(f"error: no treeshare source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        record = run(args, workdir)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    metrics = {}
    single = args.workload != "all"
    for name, result in record["results"].items():
        prefix = "" if single else f"{name}."
        if "end_to_end" in result:
            print_metrics(prefix, result["end_to_end"], END_TO_END)
            print(f"{prefix}error_rate = {result['error_rate']} ratio")
            print_metrics(f"{prefix}raw.", result["raw"], END_TO_END)
            for label, walls in result["summaries"]["invocation_wall_s"].items():
                print(f"{prefix}raw.{label}.wall_s = {trimmed_mean(walls['values'])} s")
            metrics.update({prefix + k: {"value": v, "unit": END_TO_END[k]}
                            for k, v in result["end_to_end"].items()})
        if "per_layer" in result:
            print_metrics(prefix, result["per_layer"], PER_LAYER)
            metrics.update({prefix + k: {"value": v, "unit": PER_LAYER[k]}
                            for k, v in result["per_layer"].items()})
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters recorded around treeshare's public functions.

``Tracer.install`` wraps each layer's public functions from outside the
package. A function is rebound wherever a treeshare module holds it, in
module globals and in module-level dicts, because callers look names up in
their own module: wrapping ``round_half_away_from_zero`` only in
``treeshare.allocation`` would miss the calls made from ``treeshare.io`` and
``treeshare.cli``. ``uninstall`` restores every original.

Spans are kept in memory, one tuple ``(pass_id, name, parent, start, end)``
per call, where ``parent`` is the index of the enclosing span. A span's self
time is its duration minus the durations of its direct children; calls are
synchronous, so children never overlap and their sum is the covered part.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self.pass_id = 0
        self.rendered: list = []        # allocations handed to renderers
        self.general_trees: list = []   # trees shapley_general ran on
        self._stack: list[int | None] = [None]
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """``fn`` timed as a span; ``after(args, result)`` runs outside it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.pass_id, name, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def generator_span(self, name: str, fn):
        """A generator function whose every step is a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    sid = len(spans)
                    spans.append(None)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        spans[sid] = (self.pass_id, name, stack[-1], start, clock())
                    yield item

            return steps()

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_items(self, key: str, fn):
        """A generator function whose yielded items are counted."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    # -- patching ----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` wherever a treeshare module holds it."""
        found = False
        for modname, module in list(sys.modules.items()):
            if modname != "treeshare" and not modname.startswith("treeshare."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value, False))
                    setattr(module, attr, replacement)
                    found = True
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if entry is original:
                            self._patches.append((value, key, entry, True))
                            value[key] = replacement
                            found = True
        if not found:
            raise LookupError(f"{original!r} is bound nowhere in treeshare")

    def _replace_attr(self, cls, attr: str, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr], False))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        from treeshare import allocation, analysis, games, io, mechanisms, shapley, tree

        counts, rendered = self.counts, self.rendered

        def built(args, result):
            counts["tree.nodes"] += result.n
            counts["tree.height"] = max(counts["tree.height"], result.height)

        def joined(args, result):
            counts["shapley.join_calls"] += 1
            counts["shapley.join_path_nodes"] += len(result.rewards)

        def counted_call(key):
            def after(args, result):
                counts[key] += 1
            return after

        def skipped(args, result):
            counts["analysis.checks_skipped"] += sum(
                c.status == analysis.SKIPPED for c in result.checks
            )

        functions = [
            (io.parse_tree_file, self.span("io.parse_tree_file", io.parse_tree_file)),
            (io.replay_events, self.span("io.replay_events", io.replay_events)),
            (io.parse_event_log,
             self.generator_span("io.parse_event_log", io.parse_event_log)),
            (io.render_allocation, self.span(
                "io.render_allocation", io.render_allocation,
                lambda args, result: rendered.append(args[0]))),
            (io.render_report, self.span(
                "io.render_report", io.render_report,
                lambda args, result: rendered.extend(args[0].allocations()))),
            (tree.build_tree, self.span("tree.build_tree", tree.build_tree, built)),
            (shapley.shapley_basic, self.span("shapley.basic", shapley.shapley_basic)),
            (shapley.shapley_general, self.span(
                "shapley.general", shapley.shapley_general,
                lambda args, result: self.general_trees.append(args[0].tree))),
            (shapley.shapley_bruteforce,
             self.span("shapley.bruteforce", shapley.shapley_bruteforce)),
            (allocation.round_half_away_from_zero, self.counted(
                "allocation.round_calls", allocation.round_half_away_from_zero)),
            (mechanisms.allocate_refer_a_friend, self.span(
                "mechanisms.refer_a_friend", mechanisms.allocate_refer_a_friend)),
            (mechanisms.allocate_geometric,
             self.span("mechanisms.geometric", mechanisms.allocate_geometric)),
            (mechanisms.allocate_shapley_mechanism, self.span(
                "mechanisms.shapley", mechanisms.allocate_shapley_mechanism)),
            (analysis.complexity_table,
             self.span("analysis.complexity_table", analysis.complexity_table)),
            (analysis.count_trimmed_containing, self.span(
                "analysis.count", analysis.count_trimmed_containing,
                counted_call("analysis.count_calls"))),
            (analysis.is_in_core, self.span("analysis.core", analysis.is_in_core)),
            (analysis.is_convex, self.span("analysis.convex", analysis.is_convex)),
            (analysis.run_verification, self.span(
                "analysis.run_verification", analysis.run_verification, skipped)),
        ]
        for original, replacement in functions:
            self._rebind(original, replacement)

        state = shapley.IncrementalState
        self._replace_attr(state, "join", self.span("shapley.join", state.join, joined))
        self._replace_attr(state, "allocation", property(
            self.span("shapley.snapshot", state.allocation.fget)))
        self._replace_attr(allocation.Allocation, "scaled", self.span(
            "allocation.scaled", allocation.Allocation.scaled))
        self._replace_attr(games.ValueFunction, "of", self.counted(
            "games.value_calls", games.ValueFunction.of))
        self._replace_attr(tree.RootedTree, "enumerate_trimmed_containing",
                           self.counted_items("tree.trimmed_yielded",
                                              tree.RootedTree.enumerate_trimmed_containing))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, is_item = self._patches.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over the spans recorded so far."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, _, parent, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, (_, name, _, start, end) in enumerate(spans):
            totals[name] += (end - start) - covered[sid]
        return dict(totals)

    def max_den_bits(self) -> int:
        return max(
            (v.denominator.bit_length()
             for allocation in self.rendered for v in allocation.rewards.values()),
            default=0,
        )

    def reset(self, pass_id: int) -> None:
        """Drop what the previous pass recorded and start a new pass id."""
        self.spans.clear()
        self.counts.clear()
        self.rendered.clear()
        self.general_trees.clear()
        self.pass_id = pass_id

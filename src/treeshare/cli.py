"""Command-line interface: compute | stream | verify | count.

Exit codes: 0 on success, 1 on input errors, 2 on verification failure.
"""

from __future__ import annotations

import errno
import os
import sys
from itertools import chain

# ``analysis`` and ``mechanisms`` are imported only by the commands that run
# them.
from .allocation import decimal_text, exact_and_display, excerpt
from .io import (
    OUTPUT_FORMATS,
    InputFormatError,
    RunConfig,
    load_config,
    parse_event_log,
    parse_tree_file,
    read_text,
    render_allocation,
    render_report,
    replay_events,
)


# Verbose ``stream`` writes its delta lines in chunks of at most this many.
DELTA_CHUNK_LINES = 1024
# ``compute`` and ``stream`` write csv and records rows in chunks of at most
# this many. Whole texts run to megabytes for large trees, and where the
# allocator placed them moved peak memory by megabytes from run to run.
CHUNK_ROWS = 4096


class VerificationFailure(Exception):
    """Raised by ``verify`` when any check fails; maps to exit code 2."""


class OutputError(OSError):
    """A failed write to stdout. It keeps the errno, so that ``main`` ends a
    broken pipe silently, and ``stream`` tells it from a failed read."""


class UsageError(ValueError):
    """A command line that does not parse; it exits 1 like any input error."""


def _echo(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise OutputError(*exc.args) from None


def _open_log(path: str):
    """The event log at ``path``, or stdin for ``-``, read as UTF-8."""
    if path == "-":
        return open(sys.stdin.fileno(), encoding="utf-8", closefd=False)
    return open(path, encoding="utf-8")


def _build_config(config_path: str | None, **flags) -> RunConfig:
    """The config file's entries, then every flag given on the command line;
    each flag is named after its RunConfig field and parsed like its entry."""
    config = load_config(config_path) if config_path else RunConfig()
    return config.updated(**flags)


def compute(treefile, strict=True, config_path=None, **flags) -> None:
    """Allocate rewards for a tree under one or more mechanisms."""
    from .mechanisms import compare

    config = _build_config(config_path, **flags)
    document = parse_tree_file(read_text(treefile), strict)
    report = compare(document.tree, config.mechanism_specs())
    labels = document.labels
    del document  # the tree is not needed while rendering
    if config.output_format == "table":  # one grid: its widths need every node
        _echo(render_report(report, "table", config.exact, labels))
        return
    header = True
    for spec, allocation in report.results:  # one mechanism and chunk at a time
        for part in allocation.split(CHUNK_ROWS):
            _echo(render_report(report._replace(results=((spec, part),)),
                                config.output_format, config.exact, labels, header))
            header = False


def stream(eventlog, root=1, quiet=False, config_path=None, **flags) -> None:
    """Replay a join-event log, reporting per-event reward deltas and the
    final allocation (the equal-shares mechanism, computed incrementally)."""
    config = _build_config(config_path, **flags)
    unit_value = config.unit
    pending: list[str] = []
    # A join's delta is 1/(depth+1) to each node on its root path, so the
    # share shown depends on the delta's denominator alone.
    shown_share: dict[int, str] = {}

    def write_pending():  # a chunk whose write fails is not written again
        text = "".join(pending)
        pending.clear()
        _echo(text)

    def emit(event, delta):
        seq, node, parent = event
        shown = shown_share.get(delta.denominator)
        if shown is None:
            exact, display = exact_and_display(
                unit_value.numerator, unit_value.denominator * delta.denominator
            )
            shown = shown_share[delta.denominator] = exact if config.exact else display
        path = ",".join(map(str, sorted(delta.numerators)))
        pending.append(f"seq {seq}: node {node} joins {parent}; "
                       f"+{shown} to each of [{path}]\n")
        if len(pending) >= DELTA_CHUNK_LINES:
            write_pending()

    try:
        with _open_log(eventlog) as handle:
            state = replay_events(
                parse_event_log(handle), root,
                root_adjust=config.root_adjust, on_delta=None if quiet else emit,
            )
    except OutputError:
        raise
    except (OSError, UnicodeDecodeError) as exc:  # at the open or as lines are read
        raise InputFormatError(f"cannot read {eventlog}: {exc}") from None
    finally:
        # Also when an event fails, so that the deltas before it come out.
        if pending:
            write_pending()
    snapshot = state.allocation
    del state  # not needed while rendering: less peak memory
    # Scaled a chunk at a time too, so that the scaled allocation is never
    # held whole.
    for k, part in enumerate(snapshot.split(CHUNK_ROWS)):
        _echo(render_allocation(part.scaled(unit_value), config.output_format,
                                config.exact, header=not k))


def verify(treefile, config_path=None, strict=True, **flags) -> None:
    """Cross-check the computation routes and game properties on a tree."""
    from . import analysis

    config = _build_config(config_path, **flags)
    document = parse_tree_file(read_text(treefile), strict)
    report = analysis.run_verification(
        document.tree,
        limit_bruteforce=config.limit_bruteforce,
        limit_core=config.limit_core,
        limit_convex=config.limit_convex,
    )
    for check in report.checks:
        detail = f" ({check.detail})" if check.detail else ""
        _echo(f"{check.status.upper():8s} {check.name}{detail}\n")
    if not report.passed:
        raise VerificationFailure("one or more verification checks failed")


def count(treefile, strict=True) -> None:
    """Per-node coalition counts for each Shapley computation route."""
    from . import analysis

    document = parse_tree_file(read_text(treefile), strict)
    tree = document.tree
    headers = ["node", "depth", "cfg", "tree_game", "basic"]
    closed = None  # on a perfect binary tree, the closed form at each depth
    if analysis.is_complete_binary_tree(tree):
        headers.append("binary_closed_form")
        closed = [analysis.binary_tree_count(tree.height, d)
                  for d in range(tree.height + 1)]
    rows = analysis.complexity_table(tree)
    first = next(rows)
    # A column is as wide as its largest value, each known before any row is
    # counted: every nonempty trimmed coalition holds the root, so the root's
    # count is the largest. Rows are written as they are counted.
    widest = analysis.count_trimmed_containing(tree, tree.root)
    largest = [tree.node_ids[-1], tree.height, first.cfg_count, widest,
               tree.height + 1, widest]
    widths = [max(len(h), len(decimal_text(c))) for h, c in zip(headers, largest)]
    cfg = decimal_text(first.cfg_count).rjust(widths[2])
    _echo("  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n")
    for row in chain((first,), rows):
        depth = tree.depth(row.node)
        cells = [row.node, depth, row.cfg_count, row.tree_game_count, row.basic_count]
        if closed:
            if closed[depth] != row.tree_game_count:
                raise VerificationFailure(
                    f"closed-form count {decimal_text(closed[depth])} disagrees with "
                    f"tree count {decimal_text(row.tree_game_count)} at node {row.node}"
                )
            cells.append(closed[depth])
        _echo("  ".join(cfg if k == 2 else decimal_text(c).rjust(w)
                        for k, (c, w) in enumerate(zip(cells, widths))) + "\n")


# The kinds of option. A flag is True when given; a ``--x/--no-x`` pair is
# True or False; the others take a value: an int, a text shown as TEXT or
# PATH, a text that may be given again (every value is kept), or one of a
# tuple of choices, which is its own kind.
FLAG, PAIR, INT, TEXT, PATH, REPEATED = "flag", "pair", "int", "text", "path", "repeated"
_METAVARS = {INT: "INTEGER", TEXT: "TEXT", PATH: "PATH", REPEATED: "TEXT"}

# Each option as (name, destination, kind, help); a destination is the
# keyword argument that the command is called with.
_HELP = ("--help", "help", FLAG, "Show this message and exit.")
_RUN_OPTIONS = [
    ("--config", "config_path", PATH, "JSON config file; flags override its entries."),
    ("--unit", "unit", TEXT, "Reward pool per referral, as 'p/q' or a decimal; a "
                             "negative unit is accepted and scales every reward."),
    ("--root-adjust/--no-root-adjust", "root_adjust", PAIR,
     "Charge the root one unit for its free signup."),
    ("--exact", "exact", FLAG, "Print exact rationals instead of rounded integers."),
    ("--format", "output_format", OUTPUT_FORMATS, ""),
]
_ABOUT = "Referral-tree reward allocation with exact rational arithmetic."
# Each command as (function, its argument's name, its options).
COMMANDS = {
    "compute": (compute, "TREEFILE", [
        ("--mechanism", "mechanisms", REPEATED, "Mechanism to run (repeatable): "
         "shapley, refer-a-friend, geometric. Default: all three."),
        ("--ratio", "ratio", TEXT, "Geometric decay ratio in (0,1)."),
        ("--normalize/--no-normalize", "normalize", PAIR,
         "Scale geometric shares to pay out the whole pool."),
        ("--referrer-share", "referrer_share", TEXT,
         "Referrer's fraction of each refer-a-friend unit."),
        ("--strict/--no-strict", "strict", PAIR, "Reject unknown fields in the tree file."),
        *_RUN_OPTIONS, _HELP,
    ]),
    "stream": (stream, "EVENTLOG", [
        ("--root", "root", INT, "Id of the node that joined independently.  [default: 1]"),
        ("--quiet", "quiet", FLAG,
         "Print only the final allocation; builds no per-event deltas."),
        *_RUN_OPTIONS, _HELP,
    ]),
    "verify": (verify, "TREEFILE", [
        ("--limit-bruteforce", "limit_bruteforce", INT,
         "Largest n for the brute-force oracle (default 10, 0 to 20)."),
        ("--limit-core", "limit_core", INT,
         "Largest n for the exhaustive core check (default 16, 0 to 20)."),
        ("--limit-convex", "limit_convex", INT,
         "Largest n for the convexity check (default 12, 0 to 20)."),
        ("--config", "config_path", PATH, ""),
        ("--strict/--no-strict", "strict", PAIR, ""),
        _HELP,
    ]),
    "count": (count, "TREEFILE", [("--strict/--no-strict", "strict", PAIR, ""), _HELP]),
}


def _parse(args: list[str], options, interspersed: bool = True) -> tuple[dict, list[str]]:
    """The options given in ``args``, by destination, and the positional
    arguments. A value stays text here, the last one given wins, and a
    repeated option keeps a list. ``--`` ends the options; so does the first
    positional argument unless options may follow it."""
    names = {}
    for name, dest, kind, _ in options:
        for k, part in enumerate(name.split("/")):  # a pair's second name is off
            names[part] = dest, kind, k == 0
    values: dict = {}
    positional: list[str] = []
    rest = iter(args)
    for arg in rest:
        if arg == "--":
            positional += rest
        elif arg[:1] != "-" or arg == "-":  # ``-`` is stdin, not an option
            positional.append(arg)
            if not interspersed:
                positional += rest
        else:
            name, equals, value = arg.partition("=")
            if name not in names:
                raise UsageError(_no_such_option(arg, names))
            dest, kind, on = names[name]
            if kind in (FLAG, PAIR):
                if equals:
                    raise UsageError(f"Option {name!r} does not take a value.")
                values[dest] = on
                continue
            if not equals:
                value = next(rest, None)
                if value is None:
                    raise UsageError(f"Option {name!r} requires an argument.")
            if kind == REPEATED:
                values.setdefault(dest, []).append(value)
            else:
                values[dest] = value
    return values, positional


def _no_such_option(arg: str, names) -> str:
    if not arg.startswith("--"):  # ``-xy`` is read as short options; none exist
        return f"No such option {excerpt(arg[:2])}."
    name = arg.partition("=")[0]
    return f"No such option {excerpt(name)}.{_did_you_mean(name, names)}"


def _did_you_mean(name: str, possibilities) -> str:
    """A hint naming the possibilities closest to a mistyped ``name``."""
    from difflib import get_close_matches  # only a mistyped name needs it

    close = sorted(get_close_matches(name, possibilities))
    listed = ", ".join(map(repr, close))
    if len(close) > 1:
        return f" (Did you mean one of: {listed}?)"
    return f" Did you mean {listed}?" if close else ""


def _convert(values: dict, options) -> None:
    """Read each int and choice value from its text, in the order the
    options were first given."""
    names = {dest: (name, kind) for name, dest, kind, _ in options}
    for dest, value in values.items():
        name, kind = names[dest]
        if kind == INT:
            try:
                values[dest] = int(value)
            except ValueError:
                raise UsageError(f"Invalid value for {name!r}: {excerpt(value)} "
                                 "is not a valid integer.") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"Invalid value for {name!r}: {excerpt(value)} is not "
                             f"one of {', '.join(map(repr, kind))}.")


def _program_name() -> str:
    """The program as it was run: ``python -m`` and a module, or a script."""
    spec = getattr(sys.modules["__main__"], "__spec__", None)
    if spec is None:
        return os.path.basename(sys.argv[0])
    return "python -m " + spec.name.removesuffix(".__main__")


def _help(command: str | None = None) -> str:
    """The help text of ``command``, or of the program when it is None."""
    from textwrap import fill, wrap  # only help needs it

    def definitions(heading: str, rows: list[tuple[str, str]]) -> list[str]:
        # Each term in a column at most 30 wide, its text wrapped beside it;
        # a longer term has a line to itself.
        first = min(max(len(term) for term, _ in rows), 30) + 2
        lines = ["", heading]
        for term, text in rows:
            wrapped = wrap(text, 76 - first)
            if not wrapped:
                lines.append(f"  {term}")
            elif len(term) <= first - 2:
                lines.append(f"  {term:<{first}}{wrapped[0]}")
            else:
                lines += [f"  {term}", " " * (first + 2) + wrapped[0]]
            lines += [" " * (first + 2) + line for line in wrapped[1:]]
        return lines

    if command is None:
        usage, about, options = "[OPTIONS] COMMAND [ARGS]...", _ABOUT, [_HELP]
    else:
        function, argument, options = COMMANDS[command]
        usage = f"{command} [OPTIONS] {argument}"
        about = " ".join(function.__doc__.split())
    rows = []
    for name, _, kind, text in options:
        metavar = ("[" + "|".join(kind) + "]" if isinstance(kind, tuple)
                   else _METAVARS.get(kind))
        rows.append((name.replace("/", " / ") + (f" {metavar}" if metavar else ""), text))
    lines = [f"Usage: {_program_name()} {usage}", "",
             fill(about, 78, initial_indent="  ", subsequent_indent="  "),
             *definitions("Options:", rows)]
    if command is None:
        # Each command's description, cut at a word to fit on its line.
        room = 72 - max(map(len, COMMANDS))
        summaries = []
        for name, (function, _, _) in sorted(COMMANDS.items()):
            text = " ".join(function.__doc__.split())
            if len(text) > room:
                text = text[:room - 2].rsplit(" ", 1)[0] + "..."
            summaries.append((name, text))
        lines += definitions("Commands:", summaries)
    return "\n".join(lines)


def _run(args: list[str]) -> None:
    """Run the command that ``args`` name, or print the help they ask for."""
    if not args:
        raise UsageError(_help())
    values, rest = _parse(args, [_HELP], interspersed=False)
    if values:  # --help
        _echo(_help() + "\n")
        return
    if not rest:
        raise UsageError("Missing command.")
    command, *rest = rest
    if command not in COMMANDS:
        raise UsageError(f"No such command {excerpt(command)}."
                         + _did_you_mean(command, COMMANDS))
    function, argument, options = COMMANDS[command]
    values, positional = _parse(rest, options)
    if values.pop("help", False):
        _echo(_help(command) + "\n")
        return
    _convert(values, options)
    if not positional:
        raise UsageError(f"Missing argument {argument!r}.")
    if len(positional) > 1:
        extra = positional[1:]
        shown = " ".join(a if len(a) <= 40 and a.isprintable() else excerpt(a)
                         for a in extra)
        raise UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} "
                         f"({shown})")
    function(positional[0], **values)


def _silence_stdout() -> None:
    """Point stdout at the null device, so that the flush at exit does not
    meet a broken pipe again and print a warning."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # not a file: nothing to flush at exit
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit codes."""
    try:
        _run(sys.argv[1:] if argv is None else argv)
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 1
    except OutputError as exc:
        if exc.errno == errno.EPIPE:  # the reader is gone: end without a word
            _silence_stdout()
        else:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # UsageError, InputFormatError and TreeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

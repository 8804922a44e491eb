"""Command-line interface: compute | stream | verify | count.

Exit codes: 0 on success, 1 on input errors, 2 on verification failure.
"""

from __future__ import annotations

import sys
from itertools import chain

# Our modules are imported before click on purpose: compiled after it, they
# raised a run's peak memory by about 0.3 MiB. ``analysis`` and ``mechanisms``
# are imported only by the commands that run them.
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

import click


# Verbose ``stream`` writes its delta lines in chunks of at most this many.
DELTA_CHUNK_LINES = 1024
# ``compute`` and ``stream`` write csv and records rows in chunks of at most
# this many. Whole texts run to megabytes for large trees, and where the
# allocator placed them moved peak memory by megabytes from run to run.
CHUNK_ROWS = 4096


class VerificationFailure(Exception):
    """Raised by ``verify`` when any check fails; maps to exit code 2."""


class OutputError(OSError):
    """A failed write to stdout. It keeps the errno, so click still ends a
    broken pipe silently, and ``stream`` tells it from a failed read."""


def _echo(text: str) -> None:
    try:
        click.echo(text, nl=False)
    except OSError as exc:
        raise OutputError(*exc.args) from None


def _build_config(config_path: str | None, **flags) -> RunConfig:
    """The config file's entries, then every flag given on the command line;
    each flag is named after its RunConfig field and parsed like its entry."""
    config = load_config(config_path) if config_path else RunConfig()
    return config.updated(**flags)


_COMMON = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="JSON config file; flags override its entries."),
    click.option("--unit", default=None,
                 help="Reward pool per referral, as 'p/q' or a decimal; a "
                      "negative unit is accepted and scales every reward."),
    click.option("--root-adjust/--no-root-adjust", "root_adjust", default=None,
                 help="Charge the root one unit for its free signup."),
    click.option("--exact", is_flag=True, default=None,
                 help="Print exact rationals instead of rounded integers."),
    click.option("--format", "output_format",
                 type=click.Choice(OUTPUT_FORMATS), default=None),
]


def _with(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


@click.group()
def cli() -> None:
    """Referral-tree reward allocation with exact rational arithmetic."""


@cli.command()
@click.argument("treefile", type=click.Path())
@click.option("--mechanism", "mechanisms", multiple=True,
              help="Mechanism to run (repeatable): shapley, refer-a-friend, "
                   "geometric. Default: all three.")
@click.option("--ratio", default=None, help="Geometric decay ratio in (0,1).")
@click.option("--normalize/--no-normalize", "normalize", default=None,
              help="Scale geometric shares to pay out the whole pool.")
@click.option("--referrer-share", default=None,
              help="Referrer's fraction of each refer-a-friend unit.")
@click.option("--strict/--no-strict", default=True,
              help="Reject unknown fields in the tree file.")
@_with(_COMMON)
def compute(treefile, strict, config_path, **flags) -> None:
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


@cli.command()
@click.argument("eventlog", type=click.Path(allow_dash=True))
@click.option("--root", type=int, default=1, show_default=True,
              help="Id of the node that joined independently.")
@click.option("--quiet", is_flag=True, default=False,
              help="Print only the final allocation; builds no per-event "
                   "deltas.")
@_with(_COMMON)
def stream(eventlog, root, quiet, config_path, **flags) -> None:
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
        with click.open_file(eventlog, encoding="utf-8") as handle:
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


@cli.command()
@click.argument("treefile", type=click.Path())
@click.option("--limit-bruteforce", type=int, default=None,
              help="Largest n for the brute-force oracle (default 10, 0 to 20).")
@click.option("--limit-core", type=int, default=None,
              help="Largest n for the exhaustive core check (default 16, 0 to 20).")
@click.option("--limit-convex", type=int, default=None,
              help="Largest n for the convexity check (default 12, 0 to 20).")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--strict/--no-strict", default=True)
def verify(treefile, config_path, strict, **flags) -> None:
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


@cli.command()
@click.argument("treefile", type=click.Path())
@click.option("--strict/--no-strict", default=True)
def count(treefile, strict) -> None:
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


def _cut_arguments(message: str, args: list[str]) -> str:
    """click's message with each argument it echoes, quoted as ``repr``
    writes it or bare, cut as ``excerpt`` cuts it when longer than 40
    characters or not printable, so that a usage error is one short line.
    Either side of ``--option=value`` counts as an argument too."""
    values = {value for arg in args for value in (arg, *arg.partition("=")[::2])}
    for value in sorted(values, key=len, reverse=True):  # one may hold another
        if len(value) > 40 or not value.isprintable():
            cut = excerpt(value)
            message = message.replace(repr(value), cut).replace(value, cut)
    return message


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:  # a UsageError among them
        args = sys.argv[1:] if argv is None else argv
        click.echo(f"error: {_cut_arguments(exc.format_message(), args)}", err=True)
        return 1
    except click.exceptions.Abort:
        return 1
    except OutputError as exc:
        click.echo(f"error: cannot write output: {exc}", err=True)
        return 1
    except ValueError as exc:  # InputFormatError and TreeError among them
        click.echo(f"error: {exc}", err=True)
        return 1
    except VerificationFailure as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

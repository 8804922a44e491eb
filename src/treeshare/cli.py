"""Command-line interface: compute | stream | verify | count.

Exit codes: 0 on success, 1 on input errors, 2 on verification failure.
"""

from __future__ import annotations

import sys

import click

from . import analysis
from .allocation import exact_and_display
from .io import (
    InputFormatError,
    RunConfig,
    TreeDocument,
    load_config,
    normalize_mechanism_name,
    parse_event_log,
    parse_rational,
    parse_tree_file,
    render_allocation,
    render_report,
    replay_events,
)
from .mechanisms import compare
from .tree import TreeError


class VerificationFailure(Exception):
    """Raised by ``verify`` when any check fails; maps to exit code 2."""


def _read_tree(path: str, strict: bool) -> TreeDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    return parse_tree_file(text, strict=strict)


def _build_config(
    config_path: str | None,
    mechanisms: tuple[str, ...],
    unit: str | None,
    root_adjust: bool | None,
    ratio: str | None,
    normalize: bool | None,
    referrer_share: str | None,
    exact: bool | None,
    output_format: str | None,
    limit_bruteforce: int | None = None,
    limit_core: int | None = None,
    limit_convex: int | None = None,
) -> RunConfig:
    config = load_config(config_path) if config_path else RunConfig()
    return config.updated(
        mechanisms=tuple(normalize_mechanism_name(m) for m in mechanisms) or None,
        unit=parse_rational(unit) if unit is not None else None,
        root_adjust=root_adjust,
        ratio=parse_rational(ratio) if ratio is not None else None,
        normalize=normalize,
        referrer_share=(
            parse_rational(referrer_share) if referrer_share is not None else None
        ),
        exact=exact,
        output_format=output_format,
        limit_bruteforce=limit_bruteforce,
        limit_core=limit_core,
        limit_convex=limit_convex,
    )


_COMMON = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="JSON config file; flags override its entries."),
    click.option("--unit", default=None,
                 help="Reward pool per referral, as 'p/q' or a decimal."),
    click.option("--root-adjust/--no-root-adjust", "root_adjust", default=None,
                 help="Charge the root one unit for its free signup."),
    click.option("--exact", is_flag=True, default=None,
                 help="Print exact rationals instead of rounded integers."),
    click.option("--format", "output_format",
                 type=click.Choice(["table", "records", "csv"]), default=None),
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
def compute(treefile, mechanisms, ratio, normalize, referrer_share, strict,
            config_path, unit, root_adjust, exact, output_format) -> None:
    """Allocate rewards for a tree under one or more mechanisms."""
    config = _build_config(config_path, mechanisms, unit, root_adjust, ratio,
                           normalize, referrer_share, exact, output_format)
    document = _read_tree(treefile, strict)
    report = compare(document.tree, config.mechanism_specs())
    click.echo(
        render_report(report, config.output_format, config.exact, document.labels),
        nl=False,
    )


@cli.command()
@click.argument("eventlog", type=click.Path(allow_dash=True))
@click.option("--root", type=int, default=1, show_default=True,
              help="Id of the node that joined independently.")
@click.option("--quiet", is_flag=True, default=False,
              help="Suppress per-event delta lines.")
@_with(_COMMON)
def stream(eventlog, root, quiet,
           config_path, unit, root_adjust, exact, output_format) -> None:
    """Replay a join-event log, reporting per-event reward deltas and the
    final allocation (the equal-shares mechanism, computed incrementally)."""
    config = _build_config(config_path, (), unit, root_adjust, None, None,
                           None, exact, output_format)
    unit_value = config.unit

    def emit(event, delta):
        if quiet:
            return
        exact, display = exact_and_display(
            unit_value.numerator * delta.numerators[event.node],
            unit_value.denominator * delta.denominator,
        )
        shown = exact if config.exact else display
        path = ",".join(map(str, sorted(delta.numerators)))
        click.echo(f"seq {event.seq}: node {event.node} joins {event.parent}; "
                   f"+{shown} to each of [{path}]")

    with click.open_file(eventlog, encoding="utf-8") as handle:
        state = replay_events(
            parse_event_log(handle), root,
            root_adjust=config.root_adjust, on_delta=emit,
        )
    final = state.allocation.scaled(unit_value)
    click.echo(render_allocation(final, config.output_format, config.exact), nl=False)


@cli.command()
@click.argument("treefile", type=click.Path())
@click.option("--limit-bruteforce", type=int, default=None,
              help="Largest n for the brute-force oracle (default 10).")
@click.option("--limit-core", type=int, default=None,
              help="Largest n for the exhaustive core check (default 16).")
@click.option("--limit-convex", type=int, default=None,
              help="Largest n for the convexity check (default 12).")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--strict/--no-strict", default=True)
def verify(treefile, limit_bruteforce, limit_core, limit_convex, config_path,
           strict) -> None:
    """Cross-check the computation routes and game properties on a tree."""
    config = _build_config(config_path, (), None, None, None, None, None,
                           None, None, limit_bruteforce, limit_core, limit_convex)
    document = _read_tree(treefile, strict)
    report = analysis.run_verification(
        document.tree,
        limit_bruteforce=config.limit_bruteforce,
        limit_core=config.limit_core,
        limit_convex=config.limit_convex,
    )
    for check in report.checks:
        detail = f" ({check.detail})" if check.detail else ""
        click.echo(f"{check.status.upper():8s} {check.name}{detail}")
    if not report.passed:
        raise VerificationFailure("one or more verification checks failed")


@cli.command()
@click.argument("treefile", type=click.Path())
@click.option("--strict/--no-strict", default=True)
def count(treefile, strict) -> None:
    """Per-node coalition counts for each Shapley computation route."""
    document = _read_tree(treefile, strict)
    tree = document.tree
    rows = analysis.complexity_table(tree)
    perfect = analysis.is_complete_binary_tree(tree)
    headers = ["node", "depth", "cfg", "tree_game", "basic"]
    if perfect:
        headers.append("binary_closed_form")
    grid = [headers]
    for row in rows:
        cells = [row.node, tree.depth(row.node), row.cfg_count,
                 row.tree_game_count, row.basic_count]
        if perfect:
            closed = analysis.binary_tree_count(tree.height, tree.depth(row.node))
            if closed != row.tree_game_count:
                raise VerificationFailure(
                    f"closed-form count {closed} disagrees with tree count "
                    f"{row.tree_game_count} at node {row.node}"
                )
            cells.append(closed)
        grid.append([str(c) for c in cells])
    widths = [max(len(line[k]) for line in grid) for k in range(len(headers))]
    for line in grid:
        click.echo("  ".join(cell.rjust(widths[k]) for k, cell in enumerate(line)))


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except (InputFormatError, TreeError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except VerificationFailure as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

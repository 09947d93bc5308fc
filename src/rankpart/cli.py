"""Command-line interface.

The subcommands and their one-line summaries are the `COMMANDS` table, and
`_add_arguments` declares each option once, for every parser that holds it.

Exit codes: 0 success, 1 verification or computation failure, 2 usage or
parse error, 3 enumeration budget exhausted.  A reader that closes stdout
early, as in `rankpart census | head -1`, cuts the output short: the run
ends quietly with exit 1.  The RANKPART_NODE_BUDGET environment variable
overrides the enumeration node cap.

generate and reshuffle show the first 46 ranks, or every rank of a
horizon shorter than that; an explicit --show must lie within the horizon.

A call pays only for the subcommand it runs: a parser holding only the options
of the subcommand its first argument names parses it (the full parser is built
only without one, or to report a leftover token, so every message reads the
same), and each cmd_* function imports what it runs.  Loading this module
loads only config and errors; the package names it once imported, as
`rankpart.cli.greedy_extend`, resolve from their defining modules.
"""
from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from . import _MODULE_OF
from .config import DEFAULT_COLUMNS_SHOWN, DEFAULT_HORIZON, DEFAULT_NODE_BUDGET, ModulusConfig
from .errors import HorizonError, InvariantError, ParseError, RankPartError, ResourceError

if TYPE_CHECKING:
    from .enumeration import Head

BUDGET_ENV = "RANKPART_NODE_BUDGET"
# the exit code of an error a command raises: that of the first class it belongs to
_EXIT_CODES = (
    (ParseError, 2), (InvariantError, 2), (HorizonError, 2), (ResourceError, 3), (RankPartError, 1), (ValueError, 2)
)


def _node_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{BUDGET_ENV} must be positive, got {value}")
    return value


def _resolve_head(token: str, m_flag: int | None, node_budget: int, horizon: int) -> Head:
    """The head a head id (ASCII digits, as in head files) or head file names.

    The horizon must cover the head's columns.
    """
    if token.isascii() and token.isdigit():
        from .enumeration import head_by_id
        cfg = ModulusConfig(m_flag if m_flag is not None else 5)
        head = head_by_id(cfg, int(token), node_budget=node_budget)
    else:
        from .headfile import parse_head_file
        path = Path(token)
        if not path.exists():
            raise ValueError(f"head file not found: {token}")
        try:
            head = parse_head_file(path)
        except OSError as e:
            raise ValueError(f"cannot read head file {token}: {e.strerror or e}") from None
        if m_flag is not None and head.cfg.m != m_flag:
            raise ValueError(f"head file has m={head.cfg.m}, but --m {m_flag} was given")
    if horizon < len(head.columns):
        raise ValueError(f"horizon {horizon} is shorter than the {len(head.columns)} head columns")
    return head


def _shown(args: argparse.Namespace) -> int:
    """The ranks to display: --show, or the first DEFAULT_COLUMNS_SHOWN within the horizon."""
    return min(DEFAULT_COLUMNS_SHOWN, args.horizon) if args.show is None else args.show


def cmd_generate(args: argparse.Namespace) -> int:
    from .greedy import greedy_extend
    from .partition import standard_partition
    from .render import partition_pieces

    budget = _node_budget()
    head = None if args.head == "standard" else _resolve_head(args.head, args.m, budget, args.horizon)
    cfg = head.cfg if head else ModulusConfig(args.m if args.m is not None else 5)
    p = greedy_extend(cfg, head.columns, args.horizon) if head else standard_partition(cfg, args.horizon)
    sys.stdout.writelines(partition_pieces(p, _shown(args), args.format))
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    from .census import run_census, run_census_both
    from .render import census_pieces

    budget = _node_budget()
    m = args.m if args.m is not None else 5
    if args.both_protocols:
        reports = list(run_census_both(m, args.horizon, budget))
    else:
        reports = [run_census(m, args.horizon, args.protocol, budget)]
    sys.stdout.writelines(census_pieces(reports, args.format))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .checks import run_verification, verification_passed
    from .render import render_checks

    results = run_verification(
        m=args.m if args.m is not None else 5,
        horizon=args.horizon,
        inject=args.inject,
        node_budget=_node_budget(),
    )
    sys.stdout.write(render_checks(results))
    return 0 if verification_passed(results) else 1


def cmd_diff(args: argparse.Namespace) -> int:
    from .equivalence import diff_vs_standard
    from .greedy import greedy_extend

    head = _resolve_head(args.head, args.m, _node_budget(), args.horizon)
    p = greedy_extend(head.cfg, head.columns, args.horizon)
    diffs = diff_vs_standard(p, args.horizon)
    for rank, std_col, got_col in diffs:
        std_text = " ".join(str(x) for x in std_col)
        got_text = " ".join(str(x) for x in got_col)
        sys.stdout.write(f"rank {rank}: {std_text} -> {got_text}\n")
    sys.stdout.write(f"{len(diffs)} differing ranks through {args.horizon}\n")
    return 0


def cmd_reshuffle(args: argparse.Namespace) -> int:
    from .partition import standard_partition
    from .render import partition_pieces
    from .reshuffle import reshuffle_family

    std = standard_partition(ModulusConfig(args.m if args.m is not None else 5), args.horizon)
    p = reshuffle_family(std, args.family, args.kmax)
    sys.stdout.writelines(partition_pieces(p, _shown(args), args.format))
    return 0


# name -> (its line in the full parser's help, the function it runs)
COMMANDS = {
    "generate": ("render a partition table", cmd_generate),
    "census": ("enumeration and classification report", cmd_census),
    "verify": ("run consistency checks", cmd_verify),
    "diff": ("columns differing from the standard partition", cmd_diff),
    "reshuffle": ("apply an exchange family to the standard partition", cmd_reshuffle),
}


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """Declare the options of `command` on parser, the one place each is declared."""
    parser.add_argument("--m", type=int, default=None, help="odd modulus, default 5")
    parser.add_argument("--horizon", type=int, default=DEFAULT_HORIZON, help="columns generated internally")
    parser.set_defaults(func=COMMANDS[command][1])
    if command == "generate":
        parser.add_argument("--head", default="standard", help="'standard', a head id, or a head file path")
    elif command == "census":
        from .census import PROTOCOLS
        parser.add_argument("--protocol", choices=PROTOCOLS, default="exclude-standard")
        parser.add_argument("--both-protocols", action="store_true", help="report under both dedup protocols")
        parser.add_argument("--format", choices=("json", "csv"), default="json")
    elif command == "verify":
        from .checks import INJECTIONS
        parser.add_argument("--inject", choices=INJECTIONS, default=None, help="deliberately corrupt the data first")
    elif command == "diff":
        parser.add_argument("--head", required=True, help="head id or head file path")
        parser.add_argument("--against", choices=("standard",), default="standard")
    else:
        from .reshuffle import FAMILIES
        parser.add_argument("--family", choices=tuple(FAMILIES), required=True)
        parser.add_argument("--kmax", type=int, required=True, help="number of exchange steps")
    if command in ("generate", "reshuffle"):
        parser.add_argument("--show", type=int, default=None, help="ranks to display")
        parser.add_argument("--format", choices=("text", "csv", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = argparse.ArgumentParser(prog="rankpart", description="Construct, enumerate, classify, and verify rank-sum partitions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The options of a call, or argparse's SystemExit for --help or a usage error.

    A named subcommand's own parser parses the call alone; the full parser is
    built only for a call without one, or to report a leftover token.
    """
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"rankpart {argv[0]}")
        _add_arguments(parser, argv[0])
        args, leftover = parser.parse_known_args(argv[1:])
        if not leftover:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # stdout goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RankPartError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(e, cls))


def __getattr__(name: str):
    """A package export read through this module, such as `cli.greedy_extend`.

    perfbench's self-test reads that name.  It comes from its defining
    module at each read, so a replacement made there shows here too.
    """
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __package__), name)


if __name__ == "__main__":
    sys.exit(main())

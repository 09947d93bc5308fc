"""Command-line interface.

Subcommands: generate (render a partition table), census (enumeration and
classification report), verify (consistency checks with optional fault
injection), diff (columns differing from the standard partition), reshuffle
(apply an exchange family to the standard partition).

Exit codes: 0 success, 1 verification or computation failure, 2 usage or
parse error, 3 enumeration budget exhausted.  A reader that closes stdout
early, as in `rankpart census | head -1`, cuts the output short: the run
ends quietly with exit 1.  The RANKPART_NODE_BUDGET environment variable
overrides the enumeration node cap.

generate and reshuffle show the first 46 ranks, or every rank of a
horizon shorter than that; an explicit --show must lie within the horizon.

A call pays only for the subcommand it runs: when the first argument names
one, `main` builds that sub-parser alone (anything else gets the full
parser, so every message reads the same), and each cmd_* function imports
what it runs.  Loading this module loads only config and errors; the
package names it once imported, as `rankpart.cli.greedy_extend`, still
resolve, from their defining modules.
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
    try:
        p = reshuffle_family(std, args.family, args.kmax)
    except HorizonError as e:  # a horizon too short for --kmax is a usage error, as elsewhere
        raise ValueError(str(e)) from None
    sys.stdout.writelines(partition_pieces(p, _shown(args), args.format))
    return 0


COMMANDS = ("generate", "census", "verify", "diff", "reshuffle")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with `command` of that one alone.

    The one-command parser names every subcommand in its usage line, so its
    "unrecognized arguments" message reads as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="rankpart",
        description="Construct, enumerate, classify, and verify rank-sum partitions.",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name: str, summary: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--m", type=int, default=None, help="odd modulus, default 5")
        p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON, help="columns generated internally")
        p.set_defaults(func=func)
        return p

    if command in (None, "generate"):
        g = add("generate", "render a partition table", cmd_generate)
        g.add_argument("--head", default="standard", help="'standard', a head id, or a head file path")
        g.add_argument("--show", type=int, default=None, help="ranks to display")
        g.add_argument("--format", choices=("text", "csv", "json"), default="text")
    if command in (None, "census"):
        from .census import PROTOCOLS
        c = add("census", "enumeration and classification report", cmd_census)
        c.add_argument("--protocol", choices=PROTOCOLS, default="exclude-standard")
        c.add_argument("--both-protocols", action="store_true", help="report under both dedup protocols")
        c.add_argument("--format", choices=("json", "csv"), default="json")
    if command in (None, "verify"):
        from .checks import INJECTIONS
        v = add("verify", "run consistency checks", cmd_verify)
        v.add_argument("--inject", choices=INJECTIONS, default=None, help="deliberately corrupt the data first")
    if command in (None, "diff"):
        d = add("diff", "columns differing from the standard partition", cmd_diff)
        d.add_argument("--head", required=True, help="head id or head file path")
        d.add_argument("--against", choices=("standard",), default="standard")
    if command in (None, "reshuffle"):
        from .reshuffle import FAMILIES
        r = add("reshuffle", "apply an exchange family to the standard partition", cmd_reshuffle)
        r.add_argument("--family", choices=tuple(FAMILIES), required=True)
        r.add_argument("--kmax", type=int, required=True, help="number of exchange steps")
        r.add_argument("--show", type=int, default=None, help="ranks to display")
        r.add_argument("--format", choices=("text", "csv", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # stdout goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, InvariantError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RankPartError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


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

"""Command-line interface.

Subcommands: generate (render a partition table), census (enumeration and
classification report), verify (consistency checks with optional fault
injection), diff (columns differing from the standard partition), reshuffle
(apply an exchange family to the standard partition).

Exit codes: 0 success, 1 verification or computation failure, 2 usage or
parse error, 3 enumeration budget exhausted.  The RANKPART_NODE_BUDGET
environment variable overrides the enumeration node cap.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .census import PROTOCOLS, run_census, run_census_both
from .checks import INJECTIONS, run_verification, verification_passed
from .config import DEFAULT_COLUMNS_SHOWN, DEFAULT_HORIZON, DEFAULT_NODE_BUDGET, ModulusConfig
from .enumeration import Head, head_by_id
from .equivalence import diff_vs_standard
from .errors import InvariantError, ParseError, RankPartError, ResourceError
from .greedy import greedy_extend
from .headfile import parse_head_file
from .partition import standard_partition
from .render import render_census, render_checks, render_partition
from .reshuffle import reshuffle_family_i, reshuffle_family_ii

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
    """The head a head id or head file names; the horizon must cover its columns."""
    if token.isdigit():
        cfg = ModulusConfig(m_flag if m_flag is not None else 5)
        head = head_by_id(cfg, int(token), node_budget=node_budget)
    else:
        path = Path(token)
        if not path.exists():
            raise ValueError(f"head file not found: {token}")
        head = parse_head_file(path)
        if m_flag is not None and head.cfg.m != m_flag:
            raise ValueError(f"head file has m={head.cfg.m}, but --m {m_flag} was given")
    if horizon < len(head.columns):
        raise ValueError(f"horizon {horizon} is shorter than the {len(head.columns)} head columns")
    return head


def cmd_generate(args: argparse.Namespace) -> int:
    budget = _node_budget()
    head = None if args.head == "standard" else _resolve_head(args.head, args.m, budget, args.horizon)
    cfg = head.cfg if head else ModulusConfig(args.m if args.m is not None else 5)
    p = greedy_extend(cfg, head.columns, args.horizon) if head else standard_partition(cfg, args.horizon)
    sys.stdout.write(render_partition(p, args.show, args.format))
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    budget = _node_budget()
    m = args.m if args.m is not None else 5
    if args.both_protocols:
        reports = list(run_census_both(m, args.horizon, budget))
    else:
        reports = [run_census(m, args.horizon, args.protocol, budget)]
    sys.stdout.write(render_census(reports, args.format))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(
        m=args.m if args.m is not None else 5,
        horizon=args.horizon,
        inject=args.inject,
        node_budget=_node_budget(),
    )
    sys.stdout.write(render_checks(results))
    return 0 if verification_passed(results) else 1


def cmd_diff(args: argparse.Namespace) -> int:
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
    m = args.m if args.m is not None else 5
    if m != 5:
        raise ValueError("reshuffle families are defined for m=5 only")
    std = standard_partition(ModulusConfig(m), args.horizon)
    family = reshuffle_family_i if args.family == "i" else reshuffle_family_ii
    p = family(std, args.kmax)
    sys.stdout.write(render_partition(p, args.show, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankpart",
        description="Construct, enumerate, classify, and verify rank-sum partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, horizon: int = DEFAULT_HORIZON) -> None:
        p.add_argument("--m", type=int, default=None, help="odd modulus, default 5")
        p.add_argument("--horizon", type=int, default=horizon, help="columns generated internally")

    g = sub.add_parser("generate", help="render a partition table")
    add_common(g)
    g.add_argument("--head", default="standard", help="'standard', a head id, or a head file path")
    g.add_argument("--show", type=int, default=DEFAULT_COLUMNS_SHOWN, help="ranks to display")
    g.add_argument("--format", choices=("text", "csv", "json"), default="text")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("census", help="enumeration and classification report")
    add_common(c)
    c.add_argument("--protocol", choices=PROTOCOLS, default="exclude-standard")
    c.add_argument("--both-protocols", action="store_true", help="report under both dedup protocols")
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.set_defaults(func=cmd_census)

    v = sub.add_parser("verify", help="run consistency checks")
    add_common(v)
    v.add_argument("--inject", choices=INJECTIONS, default=None, help="deliberately corrupt the data first")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("diff", help="columns differing from the standard partition")
    add_common(d)
    d.add_argument("--head", required=True, help="head id or head file path")
    d.add_argument("--against", choices=("standard",), default="standard")
    d.set_defaults(func=cmd_diff)

    r = sub.add_parser("reshuffle", help="apply an exchange family to the standard partition")
    add_common(r)
    r.add_argument("--family", choices=("i", "ii"), required=True)
    r.add_argument("--kmax", type=int, required=True, help="number of exchange steps")
    r.add_argument("--show", type=int, default=DEFAULT_COLUMNS_SHOWN, help="ranks to display")
    r.add_argument("--format", choices=("text", "csv", "json"), default="text")
    r.set_defaults(func=cmd_reshuffle)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())

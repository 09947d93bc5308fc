"""Survey how each deduplicated five-set head deviates from the standard table.

For every representative head: its partition number, equivalence class,
signature witness (last rank off the class pattern), and the first few
differing columns.
"""
from __future__ import annotations

import argparse
import sys

from rankpart import (
    ModulusConfig,
    diff_vs_standard,
    head_groups,
    lockstep_extensions,
    partition_numbering,
    signature_matches,
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon", type=int, default=4096)
    parser.add_argument("--diffs", type=int, default=4,
                        help="differing columns to show per head")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cfg = ModulusConfig(5)
    _, groups = head_groups(cfg)
    numbers = partition_numbering(groups)
    print(f"{'head':>4} {'partition':>9} {'class':>5} {'witness':>7}  first diffs")
    heads = [g.representative for g in groups if not g.is_standard]
    extensions = lockstep_extensions(cfg, [head.columns for head in heads], args.horizon)
    for head, p in zip(heads, extensions):
        matches = signature_matches(p, args.horizon)
        class_id, witness = matches[0] if matches else ("-", "-")
        diffs = diff_vs_standard(p, args.horizon)
        shown = ", ".join(
            f"r{rank}:{'/'.join(map(str, got))}" for rank, _, got in diffs[:args.diffs]
        )
        more = f" (+{len(diffs) - args.diffs} more)" if len(diffs) > args.diffs else ""
        print(f"{head.choice_id:>4} {numbers[head.choice_id]:>9} "
              f"{class_id:>5} {witness:>7}  {shown}{more}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

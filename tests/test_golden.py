"""Golden CLI outputs: the sha256 of stdout and the exit code of fixed commands.

The hashes were recorded from the commit before head grouping, the
standard-equivalence run and the CLI's run settings were each reduced to one
implementation, so a refactor that changes any byte of these outputs, or an
exit code, fails here.  Only stdout is hashed: the bad --show message on
stderr changed in that refactor (its exit code did not), and
test_cli.py checks stderr where it matters.  To re-record after a deliberate
output change, run each command through rankpart.cli.main and hash its
stdout.
"""
from __future__ import annotations

import hashlib

import pytest

from rankpart.cli import main

GOLDEN = [
    ("census --both-protocols --m 5 --horizon 64 --format json", 0,
     "3779d96d165ce285e8d4fad2b23c837415e6dbc5859f551b16992594a79da5c9"),
    ("census --both-protocols --m 5 --horizon 64 --format csv", 0,
     "0daac6a10161308851da6814ed429669570134e5907c0e78fc56aa2455ab1dc6"),
    ("census --both-protocols --m 5 --horizon 4096 --format json", 0,
     "e8060058b25e76633a1f8307edd95f74662e7e81a1bc311a48a481a86bf3108e"),
    ("census --both-protocols --m 5 --horizon 4096 --format csv", 0,
     "f169fd744e7a9ca44778ccfefb130a209c723fbeacab9bc8c4477f5bed7855ea"),
    ("census --both-protocols --m 7 --horizon 64 --format json", 0,
     "a6ae662d2d100ea9a81061ba7bf89017d5fb1bb8dace9de7acb93a2d4b199936"),
    ("census --both-protocols --m 7 --horizon 64 --format csv", 0,
     "0ea692a4f815494032d76a0cc55d90cacdb3982b77146bded39d073c8b58765f"),
    ("census --both-protocols --m 7 --horizon 4096 --format json", 0,
     "86531af4c44def32564f2f00d48e5dd239d53d911df2b24ed72092879bb55348"),
    ("census --both-protocols --m 7 --horizon 4096 --format csv", 0,
     "a3ad9d781168d23080f35a1d3c15e4d229407e422b393c371b10164478fc78b3"),
    ("census --m 13 --horizon 64", 0,
     "d0184522285c5a74af62dfe15ab32eccddeb68290731ce13e9f452c7523b3fb3"),
    ("verify --m 5 --horizon 2048", 0,
     "fef0d5dfc4538d2e1d2c7d2b8da8141cbbe5673ff53339f7948822105a48d442"),
    ("verify --m 5 --horizon 256 --inject sum-schedule", 1,
     "20ecebfe3c152da2a76cf6ec456393377d858ad14e41e70b3a906c3cae67f99c"),
    ("verify --m 5 --horizon 256 --inject swap", 1,
     "128ebd6b16018f99bdde34eced15d05e686583da6af4385036f91a8f34fc9e1b"),
    ("verify --m 7 --horizon 256", 0,
     "c49b9cf09257a61e8c4c74b370e815ef20f31b3426acb7a2b52e17453ec73705"),
    ("generate --head 8 --horizon 4096", 0,
     "d9275aee67a885b96efe77ae4f5991d8f7e764b1a4d8d0a2f0855dc4de64da7f"),
    ("generate --head 17 --horizon 4096", 0,
     "24e354f525580c2b087158e103138c9b502c5cc51b2ea8aa523348692b3b4af5"),
    ("diff --head 17 --horizon 4096", 0,
     "d334db654b9883acc3200aac45a82b38c284604778e3b6dc55dee9cf108067e6"),
    ("reshuffle --family i --kmax 8", 0,
     "41345fb7b8447c9800959a3f35245d2292f4f10b51cec984163f16de26adbb60"),
    ("reshuffle --family ii --kmax 8", 0,
     "4166c2d8e58399426648a5c539c944412c0026728760933b6bc30e3638b22bf3"),
    ("generate --horizon 8 --show 9", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[argv for argv, _, _ in GOLDEN])
def test_cli_output_matches_recorded_hash(capsys, argv, code, digest):
    assert main(argv.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

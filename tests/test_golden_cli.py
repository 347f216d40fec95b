"""Byte-for-byte regression corpus for the CLI.

`golden_cli/cases.json` lists argv vectors (README commands, file inputs,
two validation errors and two usage errors) with their exit codes;
`<name>.out` holds the exact stdout each produces.  Paths in argv are
relative to `golden_cli/`.  Refactors must leave every case unchanged.
"""

import argparse
import json
from pathlib import Path

import pytest

from sll.cli import _parser, main

GOLDEN = Path(__file__).parent / "golden_cli"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_cli(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{case['name']}.out").read_bytes()


def _subcommands(parser):
    """The name -> parser map of a parser's subcommands, empty if it has none."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_every_operation_has_a_golden_case():
    covered = set()
    for case in CASES:
        words = list(case["argv"])
        if words[:1] == ["--seed"]:
            words = words[2:]
        covered.add(tuple(words[:2]))
        covered.add(tuple(words[:1]))
    commands = _subcommands(_parser())
    pairs = {(command, op) if op else (command,)
             for command, parser in commands.items()
             for op in (_subcommands(parser) or [None])}
    assert {("witt", "add"), ("local-model", "chart"), ("deform",)} <= pairs  # the walk works
    assert pairs <= covered, sorted(pairs - covered)

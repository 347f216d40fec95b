"""Byte-for-byte regression corpus for the CLI.

`golden_cli/cases.json` lists argv vectors (README commands, file inputs,
two validation errors and two usage errors) with their exit codes;
`<name>.out` holds the exact stdout each produces.  Paths in argv are
relative to `golden_cli/`.  Refactors must leave every case unchanged.
"""

import json
from pathlib import Path

import pytest

from sll.cli import main

GOLDEN = Path(__file__).parent / "golden_cli"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_cli(case, capsys, monkeypatch):
    monkeypatch.delenv("SLL_PRECISION", raising=False)
    monkeypatch.chdir(GOLDEN)
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{case['name']}.out").read_bytes()

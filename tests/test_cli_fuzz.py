"""Seeded fuzzing of the CLI exit-code contract.

Valid documents for `witt`, `series-reduce`, `dieudonne --file` and
`deform --file` are mutated with stdlib `random` and run in process
through `cli.main`.  Every case must end in exit code 0, 2, 3 or 4 within
1 s and print exactly one JSON document; on exit 0, every element, series
and normal form in that document must decode through `jsonio` and encode
back to the same JSON.
"""

import copy
import json
import random
import time
from pathlib import Path

import pytest

from sll import jsonio
from sll.cli import main
from sll.singularity import NormalFormResult

GOLDEN = Path(__file__).parent / "golden_cli"

# leaf values a mutation may put anywhere: boundary integers, the ring
# limits, and every JSON type that is not an integer
LEAVES = (0, 1, -1, 2, 3, 4, 5, 9, 64, 257, 65521, 65537, 2 ** 64, -2 ** 70,
          0.5, 2.0, True, False, None, "", "a", [], {}, [0], [[1]], [1, 0, 1])

WITT_OPS = ("add", "mul", "frob", "digits")
DIEUDONNE_OPS = ("validate", "invariants", "dual", "lagrangian-search")
WITT_DOCS = (
    {"p": 2, "m": 1, "n": 2, "coeffs": [[1], [1]]},
    {"p": 2, "m": 2, "n": 3, "coeffs": [[3, 5], [7, 2], [1, 6]]},
    {"p": 3, "m": 1, "n": 3, "digits": [[1, 2, 0]]},
    {"p": 2, "m": 3, "n": 2, "modulus": [1, 0, 1, 1], "coeffs": [[1, 2, 3], [0, 1, 1]]},
    {"p": 5, "m": 2, "n": 2, "digits": [[[1, 2], [0, 4]]]},
)


def _json_file(name):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def _nodes(node):
    """(parent, key, child) for every node below node, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key, child
        yield from _nodes(child)


def _leaf(rng):
    return copy.deepcopy(rng.choice(LEAVES))


def _mutate(rng, doc):
    """One random edit: nudge an integer, or replace, delete, duplicate or
    wrap a node; the root itself is sometimes replaced."""
    nodes = list(_nodes(doc))
    ints = [t for t in nodes if isinstance(t[2], int) and not isinstance(t[2], bool)]
    if not nodes or rng.random() < 0.02:
        return _leaf(rng)
    if ints and rng.random() < 0.4:
        parent, key, value = rng.choice(ints)
        parent[key] = rng.choice((value - 1, value + 1, -value, 2 * value, value * 7, 0))
        return doc
    parent, key, value = rng.choice(nodes)
    op = rng.randrange(4)
    if op == 0:
        parent[key] = _leaf(rng)
    elif op == 1:
        del parent[key]
    elif op == 2 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    elif op == 2:
        parent[rng.choice(("extra", "modulus", "m", "vars", "type"))] = _leaf(rng)
    else:
        parent[key] = [value]
    return doc


def _cases(seed, count):
    """count argv vectors, each ending in a mutated document."""
    rng = random.Random(seed)
    series = [_json_file(name)
              for name in ("series_odp.json", "series_smooth.json", "series_odp_q4.json")]
    module = _json_file("module_iia_q4.json")
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            doc, argv = rng.choice(WITT_DOCS), ["witt", rng.choice(WITT_OPS)]
        elif kind == 1:
            doc, argv = rng.choice(series), ["series-reduce"]
            if rng.random() < 0.3:
                argv += ["--degree", str(rng.randrange(3, 9))]
        elif kind == 2:
            doc, argv = module, ["dieudonne", rng.choice(DIEUDONNE_OPS), "--file"]
        else:
            doc, argv = module, ["deform", "--file"]
        doc = copy.deepcopy(doc)
        for _ in range(rng.randrange(1, 4)):
            doc = _mutate(rng, doc)
        yield argv + [json.dumps(doc)]


def _check_roundtrip(node):
    """Decode and re-encode every jsonio encoding inside an output document."""
    if isinstance(node, list):
        for value in node:
            _check_roundtrip(value)
        return
    if not isinstance(node, dict):
        return
    if {"coeff_ring", "terms"} <= node.keys():
        assert jsonio.series_to_json(jsonio.series_from_json(node)) == node
    elif {"a_prime", "q_prime", "phi", "unit"} <= node.keys():
        unit = jsonio.series_from_json(node["unit"])
        ring = unit.parent.coeff_ring
        result = NormalFormResult(
            jsonio.elem_from_fields(ring, node["a_prime"]),
            jsonio.quadform_from_json(ring, node["q_prime"]),
            [jsonio.series_from_json(d) for d in node["phi"]], unit)
        assert jsonio.normal_form_to_json(ring, result) == node
    elif {"p", "m", "n"} <= node.keys() and ("coeffs" in node or "digits" in node):
        ring = jsonio.ring_from_json(node)
        x = jsonio.elem_from_fields(ring, node)
        encoded = jsonio.elem_to_json(ring, x)
        assert {k: encoded[k] for k in ("coeffs", "digits") if k in node} == \
            {k: node[k] for k in ("coeffs", "digits") if k in node}
    else:
        for value in node.values():
            _check_roundtrip(value)


@pytest.mark.parametrize("seed", range(8))
def test_mutated_documents_keep_the_exit_code_contract(seed, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # a mutated document that is a bare scalar reads as a path
    for argv in _cases(seed, 40):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code in (0, 2, 3, 4), argv
        assert elapsed < 1.0, (elapsed, argv)
        doc = json.loads(out)  # exactly one JSON document, or this raises
        if code == 0:
            _check_roundtrip(doc)
        else:
            assert list(doc) == ["error"], argv

"""Seeded fuzzing of the CLI exit-code contract.

Valid documents for `witt`, `series-reduce`, `dieudonne --file` and
`deform --file` are mutated with stdlib `random` and run in process
through `cli.main`.  Every case must end in exit code 0, 2, 3 or 4 within
1 s and print exactly one JSON document; on exit 0, every element, series
and normal form in that document must decode through `jsonio` and encode
back to the same JSON.  Outside the timed window, every exit-0 result is
also checked for its meaning by oracle arithmetic: a printed normal form
must satisfy f(phi) = unit * (a' + Q'), and a printed Lagrangian witness
must give the standard pairing shape on a basis.

Valid argument vectors for the `dieudonne` operations on a fixture,
`deform` and the `local-model` operations are mutated the same way:
values of --q, --n, --frame, --fixture, --seed and --spot-checks are
replaced, dropped, doubled or moved onto a command that does not take
them.  Those commands read no file, so every case must end in exit code
0 or 2 within 1 s with exactly one JSON document, under the same checks.
"""

import copy
import json
import random
import time
from pathlib import Path

import pytest

from sll import jsonio
from sll.base_rings import STANDARD_CASES, WittRing, field_for_q
from sll.cli import DEFAULT_PRECISION, _parser, main
from sll.dieudonne import make_standard
from sll.singularity import NormalFormResult

from . import oracles

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


# option values an argv mutation may put in: valid ones, each option's
# boundaries, and text that is no number; --spot-checks stays in 0..3 when
# valid, as a spot check costs milliseconds each
OPTION_VALUES = {
    "--q": ("2", "3", "4", "5", "7", "8", "9", "16", "65521",
            "0", "1", "-1", "6", "12", "65537", str(2 ** 64), "x", "", "2.5"),
    "--n": ("2", "3", "4", "5", "16", "1", "0", "-1", "300", "x", ""),
    "--frame": ("3,4", "1,2", "1,3", "2,4", "4,3", "1,1", "0,1", "5,6", "1", "1,2,3",
                "a,b", "", "-1,2"),
    "--fixture": STANDARD_CASES + ("nope", "", "IIA"),
    "--seed": ("0", "1", "-1", str(2 ** 64), "x"),
    "--spot-checks": ("0", "1", "2", "3", "-1", "1000000000", "x", ""),
}


def _valid_argv(rng):
    """A valid command on a fixture, or a local-model command, as tokens."""
    kind = rng.randrange(3)
    fixture = rng.choice(STANDARD_CASES[:-1])  # supersingular_a1 needs odd q
    if kind == 0:
        op = rng.choice(DIEUDONNE_OPS)
        argv = ["dieudonne", op, "--fixture", fixture, "--q", rng.choice(("2", "4")),
                "--n", rng.choice(("2", "3"))]
        if op == "validate":
            argv += ["--spot-checks", str(rng.randrange(4))]
    elif kind == 1:
        argv = ["deform", "--fixture", fixture, "--n", rng.choice(("2", "3"))]
        if rng.random() < 0.5:
            argv += ["--frame", "3,4"]
    else:
        op = rng.choice(("points", "tangents", "chart"))
        argv = ["local-model", op, "--q", rng.choice(("2", "3", "4"))]
        if op == "chart":
            argv += ["--n", rng.choice(("2", "3"))]
    return (["--seed", str(rng.randrange(4))] if rng.random() < 0.3 else []) + argv


def _mutate_argv(rng, argv):
    """One edit of an option: a new value, the option dropped (with or
    without its value), the option doubled, or an option added anywhere."""
    present = [i for i, tok in enumerate(argv[:-1]) if tok in OPTION_VALUES]
    op = rng.randrange(5)
    if present and op == 0:
        i = rng.choice(present)
        argv[i + 1] = rng.choice(OPTION_VALUES[argv[i]])
    elif present and op == 1:
        i = rng.choice(present)
        del argv[i:i + 2]
    elif present and op == 2:
        del argv[rng.choice(present) + 1]
    elif present and op == 3:
        i = rng.choice(present)
        argv += [argv[i], rng.choice(OPTION_VALUES[argv[i]])]
    else:
        option = rng.choice(sorted(OPTION_VALUES))
        i = rng.randrange(len(argv) + 1)
        argv[i:i] = [option, rng.choice(OPTION_VALUES[option])]
    return argv


def _argv_cases(seed, count):
    rng = random.Random(f"argv-{seed}")
    for _ in range(count):
        argv = _valid_argv(rng)
        for _ in range(rng.randrange(1, 4)):
            argv = _mutate_argv(rng, argv)
        yield argv


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


def _check_normal_form(argv, nf):
    """f(phi) = unit * (a' + Q'), by naive composition and multiplication."""
    f = jsonio.series_from_json(json.loads(argv[-1]))
    if "--degree" in argv:
        f = f.truncate(int(argv[argv.index("--degree") + 1]))
    nvars = f.parent.nvars
    terms = [((0,) * nvars, nf["a_prime"]["coeffs"])]
    for t in nf["q_prime"]["upper"]:
        exps = [0] * nvars
        exps[t["i"]] += 1
        exps[t["j"]] += 1
        terms.append((exps, t["coeff"]))
    unit = jsonio.series_from_json(nf["unit"])
    rhs = oracles.naive_mul(unit, unit.parent.from_terms(terms))
    lhs = oracles.naive_compose(f, [jsonio.series_from_json(d) for d in nf["phi"]])
    assert {e: c for e, c in lhs.items() if c} == {e: c for e, c in rhs.items() if c}, argv


def _module_of(argv):
    """The module a dieudonne command ran on: its module file, or its fixture
    over W_n(F_q) with the CLI's defaults for q and n."""
    args = _parser().parse_args(argv)
    if args.file is not None:
        return jsonio.module_from_json(json.loads(args.file))
    q = 2 if args.q is None else args.q
    n = DEFAULT_PRECISION if args.n is None else args.n
    return make_standard(WittRing(field_for_q(q), n), args.fixture)


def _check_witness(argv, witness):
    """The basis (X1, X2, Y1, Y2) has the standard Gram matrix and is a basis."""
    module = _module_of(argv)
    ring = module.ring
    basis = [[ring.element(c) for c in witness[key]] for key in ("X1", "X2", "Y1", "Y2")]
    columns = [list(col) for col in zip(*basis)]
    gram = oracles.naive_mat_mul(basis, oracles.naive_mat_mul(module.J, columns))
    p = ring.p
    shape = [[0, 0, 1, 0], [0, 0, 0, p], [-1, 0, 0, 0], [0, -p, 0, 0]]
    assert gram == [[ring.from_int(x) for x in row] for row in shape], argv
    # the determinant is a unit exactly when the residues have full rank
    assert oracles.independent_rank(ring.field, [[ring.residue(x) for x in v] for v in basis]) == 4


def _check_meaning(argv, doc):
    if argv[0] == "series-reduce" and doc["normal_form"] is not None:
        _check_normal_form(argv, doc["normal_form"])
    elif "lagrangian-search" in argv and doc["found"]:
        _check_witness(argv, doc["witness"])


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
            _check_meaning(argv, doc)
        else:
            assert list(doc) == ["error"], argv


@pytest.mark.parametrize("seed", range(4))
def test_mutated_options_keep_the_exit_code_contract(seed, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    codes = set()
    for argv in _argv_cases(seed, 60):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code in (0, 2), argv
        assert elapsed < 1.0, (elapsed, argv)
        doc = json.loads(out)  # exactly one JSON document, or this raises
        codes.add(code)
        if code == 0:
            _check_roundtrip(doc)
            _check_meaning(argv, doc)
        else:
            assert list(doc) == ["error"], argv
    assert codes == {0, 2}


@pytest.mark.parametrize("argv", [
    ["series-reduce", "--degree", "6", "series_odp.json"],
    ["series-reduce", "series_odp_q4.json"],
    ["dieudonne", "lagrangian-search", "--file", "module_iia_q4.json"],
])
def test_meaning_checks_accept_results_and_refuse_tampered_ones(argv, capsys):
    argv = argv[:-1] + [(GOLDEN / argv[-1]).read_text(encoding="utf-8")]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    _check_meaning(argv, doc)
    if argv[0] == "series-reduce":
        doc["normal_form"]["a_prime"]["coeffs"][0] += 1
    else:
        witness = doc["witness"]
        witness["X1"], witness["X2"] = witness["X2"], witness["X1"]
    with pytest.raises(AssertionError):
        _check_meaning(argv, doc)

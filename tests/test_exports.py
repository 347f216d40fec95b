import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import sll

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the public surface, pinned: a name leaves or joins it only on purpose
PUBLIC = [
    # base_rings, series, quadforms
    "FiniteField", "WittRing",
    "SeriesRing", "TruncatedSeries",
    "QuadraticForm", "bilinear_gram", "is_nondegenerate", "quadric_class",
    # singularity
    "NormalFormResult", "LocalRingClass", "kill_linear_term", "strip_higher_terms",
    "normal_form", "classify_local_ring",
    # dieudonne
    "DieudonneModule", "make_standard", "a_number", "p_rank", "dual_lattice",
    "kernel_type", "lagrangian_witness_search",
    # deformation
    "HodgeFrame", "standard_frame", "deformation_equation", "classify_point",
    "standard_display", "nonordinary_locus",
    # local_model
    "IsotropicPlane", "enumerate_special_fiber", "tangent_dimension", "chart_equation",
]


# definitions that only tests call yet, each kept for the open ROADMAP item
# that is to give it a caller, or for the reason given; every other function,
# class and method of src/sll has one
AWAITING_A_CALLER = {
    "quadforms.quadric_class": "item 1",
    "deformation.classify_point": "item 1",
    "local_model.radical_plane": "item 1",
    "deformation.standard_display": "item 5",
    "deformation.nonordinary_locus": "item 5",
    "jsonio.module_to_json": "tests write module files with it",
    "jsonio.quadform_from_json": "a bench/tracer.py target; only tests call it",
    "linalg.mat_vec": "a bench/tracer.py target; the witness verdict pairs on slot-int rows",
}


def _read_names():
    """Every name or attribute read in src/sll or bench/; a definition alone
    is neither, and neither is a tracer target, which wraps a function by
    name but does not call it."""
    used = set()
    for path in [*(SRC / "sll").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _definitions(tree):
    """(owning class name or None, node) for every function, class and
    method defined in a module, nested ones included."""
    for node in ast.walk(tree):
        owner = node.name if isinstance(node, ast.ClassDef) else None
        body = getattr(node, "body", None)  # a lambda's body is one expression
        for child in body if isinstance(body, list) else []:
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield owner, child


def test_every_exported_name_has_a_caller():
    used = _read_names()
    awaiting = {name.rpartition(".")[2] for name in AWAITING_A_CALLER}
    assert {name for name in sll.__all__ if name not in used} == awaiting & set(sll.__all__)


def test_every_definition_has_a_caller():
    used = _read_names()
    uncalled = set()
    for path in (SRC / "sll").glob("*.py"):
        module = sll if path.stem == "__init__" else importlib.import_module(f"sll.{path.stem}")
        for owner, node in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in used:
                continue
            cls = getattr(module, owner, None) if owner else None
            if cls is not None and any(hasattr(base, name) for base in cls.__mro__[1:]):
                continue  # an override, called by its base class
            uncalled.add(f"{path.stem}.{owner + '.' if owner else ''}{name}")
    assert uncalled == set(AWAITING_A_CALLER)


RING_PRIMITIVES = {"valuation", "is_unit", "invert", "residue", "frobenius", "frobenius_inv"}


def test_ring_primitives_are_written_once():
    # F_q is W_1(F_q) at the ring interface: the coefficient rings define
    # the primitives once, in their base class, and WittRing only re-binds
    # `invert` in its own namespace, where the benchmark tracer finds it
    from sll.base_rings import _CoeffRing

    defined, bound, maximal_ideal = set(), set(), []
    for path in (SRC / "sll").glob("*.py"):
        module = importlib.import_module(f"sll.{path.stem}") if path.stem != "__init__" else sll
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "in_maximal_ideal":
                maximal_ideal.append(path.stem)
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if not (isinstance(cls, type) and issubclass(cls, _CoeffRing)):
                continue
            for child in node.body:
                if isinstance(child, ast.FunctionDef) and child.name in RING_PRIMITIVES:
                    defined.add((node.name, child.name))
                elif isinstance(child, ast.Assign):
                    bound |= {(node.name, t.id, ast.unparse(child.value)) for t in child.targets
                              if isinstance(t, ast.Name) and t.id in RING_PRIMITIVES}
    assert defined == {("_CoeffRing", name) for name in RING_PRIMITIVES}
    assert bound == {("WittRing", "invert", "_CoeffRing.invert")}
    assert maximal_ideal == []


KEY_LAYOUT = ("_shift", "_degree_shift", "_limit", "_weights")


def test_monomial_keys_are_read_only_in_series():
    # `SeriesRing._shift`, `_degree_shift`, `_limit` and `_weights` lay out
    # the monomial keys; every other module asks `sll.series` for
    # coefficients instead of adding keys
    readers = []
    for path in (SRC / "sll").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in KEY_LAYOUT):
                readers.append((path.name, node.attr, node.lineno))
    # every name is read, so a renamed field cannot pass unchecked
    assert {attr for _, attr, _ in readers} == set(KEY_LAYOUT)
    assert [r for r in readers if r[0] != "series.py"] == []


SLOT_LAYOUT = ("slot_width", "shifts", "mask", "offset", "slot_bound")


def test_slot_layout_is_read_only_in_base_rings():
    # `CoeffPacking` lays out its slots at its own width; every other module
    # asks it for slot ints, residues and elements instead of shifting slots
    readers = []
    for path in (SRC / "sll").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in SLOT_LAYOUT):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers and [r for r in readers if not r.startswith("base_rings.py:")] == []


def test_slot_int_routines_call_no_residue_kernel():
    # CoeffPacking computes on slot ints: no method but `_sigmas`, which
    # makes the Frobenius images once per packing, calls the Residue
    # kernels `_mulmod` or `_powmod`, and neither does a compiled kernel
    tree = ast.parse((SRC / "sll" / "base_rings.py").read_text(encoding="utf-8"))
    [packing] = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "CoeffPacking"]
    routines = [node for node in packing.body if isinstance(node, ast.FunctionDef)]
    routines += [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name.endswith("_kernel")]
    calls = {(routine.name, node.func.id) for routine in routines for node in ast.walk(routine)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("_mulmod", "_powmod")}
    assert calls == {("_sigmas", "_mulmod"), ("_sigmas", "_powmod")}
    assert {"_fold_kernel", "inverse"} <= {routine.name for routine in routines}


def test_dieudonne_reads_mod_p_facts_off_witt_entries():
    # every mod-p fact of a module is read off its W_n(F_q) entries, and row
    # reduction is the one invertibility test: sll.dieudonne reads no
    # `residue` and calls no `det`, and the spot checks in sll.cli leave the
    # test of a draw to base_change's inverse, with no rank filter of their own
    def parse(name):
        return ast.parse((SRC / "sll" / name).read_text(encoding="utf-8"))

    detours = [f"dieudonne.py:{node.lineno}" for node in ast.walk(parse("dieudonne.py"))
               if (isinstance(node, ast.Attribute) and node.attr in ("residue", "det"))
               or (isinstance(node, ast.Name) and node.id == "det")]
    assert detours == []
    cli = parse("cli.py")
    defined = {node.name for node in ast.walk(cli) if isinstance(node, ast.FunctionDef)}
    imported = set()
    for node in ast.walk(cli):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert "_random_unimodular" not in defined
    assert [name for name in imported if name.rpartition(".")[2] == "linalg"] == []


def test_oracles_import_no_private_name_from_sll():
    # an oracle that imports the private helpers it checks shares their faults;
    # also refused: a private attribute read off an imported sll module
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    private, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sll":
            private += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            private += [a.name for a in node.names
                        if a.name.split(".")[0] == "sll" and "._" in a.name]
            bound |= {a.asname or a.name.split(".")[0] for a in node.names
                      if a.name.split(".")[0] == "sll"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


def test_every_exported_name_resolves():
    assert [name for name in sll.__all__ if not hasattr(sll, name)] == []


def test_public_surface_is_pinned():
    assert sll.__all__ == PUBLIC


# in a fresh interpreter: what resolves, what `import *` binds, what is refused
LAZY_CHILD = """
import json, pkgutil, sys, sll
names = [n for n in sll.__all__ if not hasattr(sll, n)]
subs = [m.name for m in pkgutil.iter_modules(sll.__path__)]
# through the hook itself: a submodule another import bound already would hide a gap
broken = [m for m in subs if sll.__getattr__(m) is not sys.modules.get("sll." + m)]
star = {}
exec("from sll import *", star)
try:
    sll.no_such_name
    refused = False
except AttributeError:
    refused = True
print(json.dumps({"unresolved": names, "submodules": subs, "broken": broken,
                  "star": sorted(set(star) - {"__builtins__"}), "refused": refused,
                  "hasattr": hasattr(sll, "no_such_name")}))
"""


def test_lazy_package_contract():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", LAZY_CHILD], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stdout
    report = json.loads(out)
    assert report["unresolved"] == []
    assert "linalg" in report["submodules"] and report["broken"] == []
    assert report["star"] == sorted(PUBLIC)
    assert report["refused"] and not report["hasattr"]

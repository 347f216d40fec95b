"""Each cold `sll` command imports only the modules its handler runs.

Every case runs one golden argv as `python -m sll.cli` would, in a fresh
interpreter, and reports the `sll.*` modules it loaded.  The sets pin the
cold-start cost: a top-level import that drags in a module the command does
not use shows here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden_cli"
SRC = Path(__file__).resolve().parent.parent / "src"
CASES = {c["name"]: c for c in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))}

BASE = ["base_rings", "errors", "jsonio"]
ALL = BASE + ["deformation", "dieudonne", "linalg", "local_model", "quadforms", "series",
              "singularity"]
FOOTPRINT = {
    "witt_add": BASE,
    "series_reduce_odp": BASE + ["linalg", "quadforms", "series", "singularity"],
    "dieudonne_invariants_ordinary": BASE + ["dieudonne", "linalg"],
    "file_validate": BASE + ["dieudonne", "linalg"],
    "deform_iib": [m for m in ALL if m != "local_model"],
    "local_model_points": BASE + ["linalg", "local_model"],
    "local_model_tangents": BASE + ["linalg", "local_model"],
    "local_model_chart": [m for m in ALL if m != "dieudonne"],
}

# run sll.cli as __main__, then report its exit code and what it imported
CHILD = """
import json, runpy, sys
sys.argv = ["sll"] + json.loads(sys.argv[1])
try:
    runpy.run_module("sll.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write(json.dumps({
    "code": code,
    "sll": sorted(m[4:] for m in sys.modules if m.startswith("sll.")),
    "stdlib": [m for m in ("dataclasses", "traceback") if m in sys.modules],
}))
"""


def _child(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=GOLDEN, env=env, capture_output=True,
                          text=True, timeout=60, check=True)


@pytest.mark.parametrize("name", sorted(FOOTPRINT))
def test_command_loads_only_its_modules(name):
    report = json.loads(_child("-c", CHILD, json.dumps(CASES[name]["argv"])).stderr)
    assert report["code"] == CASES[name]["exit"] == 0
    assert report["sll"] == sorted(FOOTPRINT[name])
    assert report["stdlib"] == []


def test_import_sll_loads_no_submodule():
    out = _child("-c", "import sys, sll; print(*sorted(m for m in sys.modules if 'sll' in m))")
    assert out.stdout.split() == ["sll"]


def test_no_kernel_is_compiled_at_import():
    # the CoeffPacking product, row and fold kernels compile on first use:
    # after every public name of `sll` is loaded, and after `sll.cli`, every
    # cache is empty, and every one is bounded
    out = _child("-c", """
import sll
from sll import base_rings
kernels = (base_rings._mat_mul_kernel, base_rings._submul_kernel, base_rings._fold_kernel)
for name in sll.__all__:
    getattr(sll, name)
print(*[k.cache_info().currsize for k in kernels])
import sll.cli
print(*[k.cache_info().currsize for k in kernels])
print(*[k.cache_info().maxsize for k in kernels])
""")
    loaded, cli, bounds = [line.split() for line in out.stdout.splitlines()]
    assert loaded == cli == ["0", "0", "0"]
    assert all(0 < int(bound) <= 1024 for bound in bounds)

import json
import os
import subprocess
import sys
from pathlib import Path

import sll

SRC = Path(__file__).resolve().parent.parent / "src"

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
    "IsotropicPlane", "enumerate_special_fiber", "tangent_dimension", "singular_points",
    "chart_equation",
]


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

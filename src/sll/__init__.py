"""sll: exact local computations over truncated Witt rings.

Subpackages: base_rings (F_q and W_n(F_q)), series (truncated multivariate
power series), quadforms (quadratic forms and the split/non-split class of
their quadrics), singularity (normal forms of non-degenerate quadratic
singularities), dieudonne (quasi-polarized rank-4 modules), deformation
(first-order isotropy relations and displays), local_model (special-fiber
enumeration), cli (JSON command-line front end).

The package is lazy (PEP 562): `import sll` loads no submodule, and a
public name or a submodule is imported the first time it is used.
"""

import importlib

# each public name under its home module, in the order of __all__
_HOME = {
    "base_rings": ("FiniteField", "WittRing"),
    "series": ("SeriesRing", "TruncatedSeries"),
    "quadforms": ("QuadraticForm", "bilinear_gram", "is_nondegenerate", "quadric_class"),
    "singularity": ("NormalFormResult", "LocalRingClass", "kill_linear_term",
                    "strip_higher_terms", "normal_form", "classify_local_ring"),
    "dieudonne": ("DieudonneModule", "make_standard", "a_number", "p_rank", "dual_lattice",
                  "kernel_type", "lagrangian_witness_search"),
    "deformation": ("HodgeFrame", "standard_frame", "deformation_equation", "classify_point",
                    "standard_display", "nonordinary_locus"),
    "local_model": ("IsotropicPlane", "enumerate_special_fiber", "tangent_dimension",
                    "singular_points", "chart_equation"),
}
_SUBMODULES = frozenset(_HOME) | {"cli", "errors", "jsonio", "linalg"}

__all__ = [name for names in _HOME.values() for name in names]
_HOME_OF = {name: module for module, names in _HOME.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:  # importing a submodule also binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value

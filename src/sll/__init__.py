"""sll: exact local computations over truncated Witt rings.

Subpackages: base_rings (F_q and W_n(F_q)), series (truncated multivariate
power series), quadforms (quadratic forms and the split/non-split class of
their quadrics), singularity (normal forms of non-degenerate quadratic
singularities), dieudonne (quasi-polarized rank-4 modules), deformation
(first-order isotropy relations and displays), local_model (special-fiber
enumeration), cli (JSON command-line front end).
"""

from .base_rings import FiniteField, WittRing
from .deformation import (
    HodgeFrame,
    classify_point,
    deformation_equation,
    nonordinary_locus,
    standard_display,
    standard_frame,
)
from .dieudonne import (
    DieudonneModule,
    a_number,
    dual_lattice,
    kernel_type,
    lagrangian_witness_search,
    make_standard,
    p_rank,
)
from .local_model import (
    IsotropicPlane,
    chart_equation,
    enumerate_special_fiber,
    singular_points,
    tangent_dimension,
)
from .quadforms import QuadraticForm, bilinear_gram, is_nondegenerate, quadric_class
from .series import SeriesRing, TruncatedSeries
from .singularity import (
    LocalRingClass,
    NormalFormResult,
    classify_local_ring,
    kill_linear_term,
    normal_form,
    strip_higher_terms,
)

__all__ = [
    "FiniteField",
    "WittRing",
    "SeriesRing",
    "TruncatedSeries",
    "QuadraticForm",
    "bilinear_gram",
    "is_nondegenerate",
    "quadric_class",
    "NormalFormResult",
    "LocalRingClass",
    "kill_linear_term",
    "strip_higher_terms",
    "normal_form",
    "classify_local_ring",
    "DieudonneModule",
    "make_standard",
    "a_number",
    "p_rank",
    "dual_lattice",
    "kernel_type",
    "lagrangian_witness_search",
    "HodgeFrame",
    "standard_frame",
    "deformation_equation",
    "classify_point",
    "standard_display",
    "nonordinary_locus",
    "IsotropicPlane",
    "enumerate_special_fiber",
    "tangent_dimension",
    "singular_points",
    "chart_equation",
]

__version__ = "0.1.0"

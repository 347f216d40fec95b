import sll

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

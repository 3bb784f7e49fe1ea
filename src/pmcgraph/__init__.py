"""Barriers, solvability checks and solvers for graphs of prescribed mean curvature."""

from .barrier import (
    NodoidProfile,
    annulus_height_bound,
    apex,
    barrier_constants,
    make_profile,
    profile_for_annulus,
    profile_zeros,
    select_c,
    slope,
    usable_radius,
)
from .conditions import (
    CheckResult,
    ConditionReport,
    CurvatureField,
    check_annulus_smallness,
    check_inscribed_disc,
    check_mean_convexity,
    check_strip_smallness,
    check_volume_smallness,
    nonexistence_height_bound,
    unit_ball_volume,
    verify_gradient_bound_inputs,
)
from .geometry import (
    Annulus,
    AnnulusFit,
    ConvexPolygon,
    Disc,
    GridMask,
    annulus_fit,
    boundary_mean_curvature,
    domain_from_json,
    exterior_sphere_radius,
    inscribed_disc_radius,
    strip_width,
)
from .grid import MaskedGrid, grid_from_domain
from .solver import (
    GridSolution,
    Level,
    RadialShootResult,
    SolveOutcome,
    continuation_solve,
    mc_residual,
    newton_solve,
    radial_shoot,
)
from .verify import (
    EstimateReport,
    check_boundary_gradient,
    check_height_estimate,
    estimate_report,
    gradient_blowup_example,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus", "AnnulusFit", "CheckResult", "ConditionReport",
    "ConvexPolygon", "CurvatureField", "Disc", "EstimateReport",
    "GridMask", "GridSolution", "Level", "MaskedGrid",
    "NodoidProfile", "RadialShootResult", "SolveOutcome",
    "annulus_fit", "annulus_height_bound", "apex", "barrier_constants",
    "boundary_mean_curvature", "check_annulus_smallness",
    "check_boundary_gradient", "check_height_estimate",
    "check_inscribed_disc", "check_mean_convexity", "check_strip_smallness",
    "check_volume_smallness", "continuation_solve", "domain_from_json",
    "estimate_report", "exterior_sphere_radius", "gradient_blowup_example",
    "grid_from_domain", "inscribed_disc_radius", "make_profile",
    "mc_residual", "newton_solve", "nonexistence_height_bound",
    "profile_for_annulus", "profile_zeros", "radial_shoot", "select_c",
    "slope", "strip_width", "unit_ball_volume",
    "usable_radius", "verify_gradient_bound_inputs",
]

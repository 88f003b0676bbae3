"""Extremal Sobolev functions, sharp constants, and reverse Holder verification."""

from .core import (AdmissibilityError, CrossingError, DomainSpec, GridError,
                   SolverError, SpecError, VerificationError, admissible, alpha,
                   check_exponents, profile_integral, unit_ball_volume)
from .radial import (RadialProfile, RawShot, VolumeProfile, cp_ball,
                     cp_unit_ball, normalize_to_unit_ball, shoot,
                     unit_ball_profile, verify_integro_differential,
                     volume_profile)
from .elliptic import (GriddedField, SobolevResult, build_grid,
                       minimize_quotient, poisson_solve, quotient)
from .rearrange import (DistributionFunction, decreasing_rearrangement,
                        distribution, equimeasurability_residual,
                        hlp_conclusion_check, hlp_dominates,
                        symmetrized_sample, verify_talenti)
from . import formats
from .chiti import (ComparisonBall, CrossingAnalysis, ReverseHolderReport,
                    ReverseHolderRow, comparison_ball, constant_K,
                    crossing_analysis, dominance_check, khat, torsion_form,
                    verify_reverse_holder)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "CrossingError", "DomainSpec",
    "GridError", "SolverError", "SpecError", "VerificationError",
    "admissible", "check_exponents", "alpha", "profile_integral",
    "unit_ball_volume",
    "RawShot", "RadialProfile", "VolumeProfile",
    "shoot", "normalize_to_unit_ball", "cp_unit_ball", "cp_ball",
    "unit_ball_profile", "volume_profile", "verify_integro_differential",
    "GriddedField", "SobolevResult", "build_grid", "poisson_solve",
    "quotient", "minimize_quotient",
    "DistributionFunction", "distribution", "decreasing_rearrangement",
    "symmetrized_sample", "equimeasurability_residual", "verify_talenti",
    "hlp_dominates", "hlp_conclusion_check", "formats",
    "ComparisonBall", "CrossingAnalysis", "ReverseHolderReport",
    "ReverseHolderRow", "comparison_ball", "crossing_analysis",
    "dominance_check", "constant_K", "khat", "torsion_form",
    "verify_reverse_holder",
    "__version__",
]

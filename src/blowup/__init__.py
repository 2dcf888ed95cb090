"""Numerical toolkit for boundary blow-up solutions of the Liouville equation
and the supporting dyadic-cube machinery.

Subpackages:
  geometry      planar domains, signed distances, smoothing profiles
  grid          finite-difference lattices and scalar fields
  whitney       dyadic cube decompositions and partitions of unity
  inequalities  weighted integral inequalities and their certified constants
  energy        the renormalized energy functional and its derivatives
  solver        Newton minimization and verification utilities
  svg           heatmaps of grid fields and drawings of cube layouts
"""

from .energy import (
    EnergyBreakdown,
    ExponentOverflowError,
    SingularPart,
    build_singular_part,
    energy_gap,
    energy_gradient,
)
from .geometry import (
    Annulus,
    Box,
    Disk,
    Domain,
    Polygon,
    SmoothingProfile,
    default_profile,
    domain_from_json,
)
from .grid import Grid, ScalarField, laplacian_of_distance
from .inequalities import (
    ChainReport,
    HardyEstimate,
    c2_constant,
    chain_audit,
    hardy_quotient,
    phi_n,
    resolve_hardy_constant,
    sigma_q,
    weighted_lhs,
    weighted_rhs,
)
from .solver import (
    LineSearchError,
    SolveReport,
    SolverConfig,
    corollary4_check,
    disk_exact_solution,
    liouville_residual,
    solve,
    verify_minimizer,
)
from .svg import decomposition_to_svg, field_to_svg
from .whitney import (
    BumpFunction,
    DerivedConstants,
    WhitneyDecomposition,
    WhitneyParams,
    decompose,
    verify_properties,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "Box",
    "Disk",
    "Domain",
    "Polygon",
    "SmoothingProfile",
    "default_profile",
    "domain_from_json",
    "Grid",
    "ScalarField",
    "laplacian_of_distance",
    "ChainReport",
    "HardyEstimate",
    "c2_constant",
    "chain_audit",
    "hardy_quotient",
    "phi_n",
    "resolve_hardy_constant",
    "sigma_q",
    "weighted_lhs",
    "weighted_rhs",
    "BumpFunction",
    "DerivedConstants",
    "WhitneyDecomposition",
    "WhitneyParams",
    "decompose",
    "verify_properties",
    "EnergyBreakdown",
    "ExponentOverflowError",
    "SingularPart",
    "build_singular_part",
    "energy_gap",
    "energy_gradient",
    "LineSearchError",
    "SolveReport",
    "SolverConfig",
    "corollary4_check",
    "disk_exact_solution",
    "liouville_residual",
    "solve",
    "verify_minimizer",
    "decomposition_to_svg",
    "field_to_svg",
    "__version__",
]

"""Renormalized energy for the boundary blow-up problem.

The maximal solution splits as u = v + w with v = -ln(2d) carrying the
boundary singularity (d is the capped smoothed distance) and w a bounded
Dirichlet remainder.  The functional assembled here,

    E[phi] = integral of |grad phi|^2
           + (1/d^2) (e^{2 phi} - 1 - 2 phi)
           + 2 r phi,

is finite on Dirichlet fields even though the raw energy of u diverges; its
unique minimizer is w.  The residual field r measures how far v is from
solving the equation; by default it is the closed-form continuum residual
Lap(d)/d + (1 - F'^2)/d^2, so the singular part never passes through the
stencil and the remainder equation keeps second-order accuracy.  A lattice
variant (r = -Lap_h v + 1/d^2 on full-stencil nodes) makes u = v + w solve
the five-point Liouville equation exactly at convergence, at the price of
inheriting the stencil's truncation on the log singularity near the rim.

Discretization: the Dirichlet term is the forward-difference square sum,
whose pairing with the five-point Laplacian is exact (summation by parts),
so gradient and Hessian formulas below are the exact derivatives of the
discrete energy, not approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Annulus, Disk, Domain, SmoothingProfile
from .grid import Grid, ScalarField, laplacian_of_distance

__all__ = [
    "ExponentOverflowError",
    "SingularPart",
    "EnergyBreakdown",
    "build_singular_part",
    "energy",
    "energy_gradient",
    "hessian_apply",
    "hessian_operator",
    "energy_gap",
]

# 2|phi| beyond this overflows exp comfortably before float range ends;
# the minimizer is O(d), so hitting the cap means divergence, not scale
_EXP_CAP = 350.0


class ExponentOverflowError(OverflowError):
    """A field value overflows the exponential nonlinearity."""


def _guard_exponent(values: np.ndarray, grid: Grid, context: str) -> None:
    if len(values) == 0:
        return
    i = int(np.argmax(np.abs(values)))
    if 2.0 * abs(values[i]) > _EXP_CAP:
        x, y = grid.points[i]
        raise ExponentOverflowError(
            f"{context}: value {values[i]:.6g} at node {i} ({x:.4f}, {y:.4f}) "
            "overflows the exponential; the iteration has diverged"
        )


@dataclass(frozen=True)
class SingularPart:
    """Singular profile v = -ln(2d) and derived fields on one grid.

    weight = 1/d^2 equals 4 e^{2v} algebraically; r is the residual of v
    as an approximate solution; delta_d stores the Laplacian of d for the
    gradient-norm bound of the remainder.
    """

    d: ScalarField
    v: ScalarField
    weight: ScalarField
    r: ScalarField
    delta_d: ScalarField
    full_stencil_nodes: int
    residual_mode: str = "continuum"

    @property
    def grid(self) -> Grid:
        return self.d.grid

    def to_json_dict(self) -> dict:
        return {
            "nodes": self.grid.n_interior,
            "h": self.grid.h,
            "full_stencil_nodes": self.full_stencil_nodes,
            "residual_mode": self.residual_mode,
            "boundary_layer": "curvature",
            "max_abs_r": float(np.max(np.abs(self.r.values))),
            "max_r_times_d": float(np.max(np.abs(self.r.values * self.d.values))),
            "l2_delta_d": float(
                np.sqrt(np.sum(self.delta_d.values**2) * self.grid.h**2)
            ),
        }


@dataclass(frozen=True)
class EnergyBreakdown:
    dirichlet_term: float
    nonlinear_term: float
    linear_term: float

    @property
    def total(self) -> float:
        return self.dirichlet_term + self.nonlinear_term + self.linear_term


def _boundary_curvature(domain: Domain, pts: np.ndarray) -> np.ndarray:
    """Curvature of the boundary at its point nearest to each node, signed
    positive where the domain is locally convex.  Polygonal boundaries are
    flat along edges (corners carry no area), so they report zero."""
    if isinstance(domain, Disk):
        return np.full(len(pts), 1.0 / domain.radius)
    if isinstance(domain, Annulus):
        rho = np.linalg.norm(pts - domain.center, axis=-1)
        mid = 0.5 * (domain.inner_radius + domain.outer_radius)
        return np.where(
            rho >= mid, 1.0 / domain.outer_radius, -1.0 / domain.inner_radius
        )
    return np.zeros(len(pts))


def build_singular_part(
    domain: Domain,
    profile: SmoothingProfile,
    grid: Grid,
    residual_mode: str = "continuum",
) -> SingularPart:
    """Assemble d, v = -ln(2d), weight = 1/d^2, and the residual r.

    residual_mode selects how r is evaluated:

    * ``continuum`` (default): the closed form Lap(d)/d + (1 - F'^2)/d^2,
      which reduces to Lap(d)/d in the near-boundary zone where F is the
      identity and to 1/d_max^2 where F saturates.  The log singularity of
      v then never meets the stencil, so the remainder w is resolved to
      second order and u = v + w is accurate even close to the rim.
    * ``lattice``: -Lap_h(v) + 1/d^2 wherever the full five-point stencil
      stays on interior nodes (continuum fallback on rim nodes).  The
      reconstructed u then satisfies the discrete Liouville equation
      exactly at full-stencil nodes at convergence, but u inherits the
      stencil's O(h^2/delta^4) truncation of v near the rim, which shows
      up as a first-order error mode in u.

    Either way rim nodes correct for their Dirichlet ghosts: the remainder
    behaves like (kappa/2) * delta at a smooth boundary (kappa the local
    curvature), so forcing ghost values to zero misstates it by
    (kappa/2) * sd(ghost).  The rim residual absorbs that known offset; on
    polygons kappa = 0 and nothing changes.
    """
    if grid.n_interior == 0:
        raise ValueError("grid has no interior nodes; refine the spacing")
    if grid.domain is not domain:
        raise ValueError("grid was built on a different domain")
    if residual_mode not in ("continuum", "lattice"):
        raise ValueError("residual_mode must be 'continuum' or 'lattice'")
    delta = grid.delta
    d = profile.value(delta)
    v = -np.log(2.0 * d)
    weight = 1.0 / d**2
    dd = laplacian_of_distance(domain, profile, grid)
    full_stencil = grid.full_stencil

    fp = profile.slope(delta)
    r = dd / d + (1.0 - fp**2) * weight
    if residual_mode == "lattice":
        r = np.where(full_stencil, -grid.laplacian(v) + weight, r)
    # only rim nodes have ghosts, so the correction vanishes elsewhere
    kappa = _boundary_curvature(domain, grid.points)
    r = r - 0.5 * kappa * grid.ghost_signed_sum() / grid.h**2

    mk = lambda a: ScalarField(grid, a)
    return SingularPart(
        d=mk(d),
        v=mk(v),
        weight=mk(weight),
        r=mk(r),
        delta_d=mk(dd),
        full_stencil_nodes=int(np.count_nonzero(full_stencil)),
        residual_mode=residual_mode,
    )


def _same_grid(phi: ScalarField, sp: SingularPart) -> Grid:
    if phi.grid is not sp.grid:
        raise ValueError("field and singular part live on different grids")
    return phi.grid


def energy(phi: ScalarField, sp: SingularPart) -> EnergyBreakdown:
    """Three-term breakdown of the renormalized energy at phi."""
    g = _same_grid(phi, sp)
    _guard_exponent(phi.values, g, "energy")
    h2 = g.h**2
    dirichlet = g.dirichlet_energy(phi.values)
    two_phi = 2.0 * phi.values
    nonlinear = float(np.sum(sp.weight.values * (np.expm1(two_phi) - two_phi))) * h2
    linear = float(np.sum(2.0 * sp.r.values * phi.values)) * h2
    return EnergyBreakdown(dirichlet, nonlinear, linear)


def energy_gradient(phi: ScalarField, sp: SingularPart) -> ScalarField:
    """Residual field G(phi) = -Lap phi + weight (e^{2 phi} - 1) + r.

    Normalized so the directional derivative of the energy at phi along psi
    is exactly 2 <G(phi), psi> h^2.
    """
    g = _same_grid(phi, sp)
    _guard_exponent(phi.values, g, "energy_gradient")
    vals = (
        -g.laplacian(phi.values)
        + sp.weight.values * np.expm1(2.0 * phi.values)
        + sp.r.values
    )
    return ScalarField(g, vals)


def hessian_operator(phi: ScalarField, sp: SingularPart):
    """Second-variation operator at phi as a map on interior-node vectors,
    psi -> -Lap psi + mass psi with mass = 2 weight e^{2 phi}.  Symmetric
    positive definite.  Returns (map, mass).

    The mass term is computed once here, so repeated applications (one per
    conjugate-gradient iteration) cost one Laplacian each, and the
    multigrid preconditioner reuses the same mass.
    """
    g = _same_grid(phi, sp)
    _guard_exponent(phi.values, g, "hessian_operator")
    mass = 2.0 * sp.weight.values * np.exp(2.0 * phi.values)
    return (lambda psi: -g.laplacian(psi) + mass * psi), mass


def hessian_apply(phi: ScalarField, sp: SingularPart, psi: ScalarField) -> ScalarField:
    """The second-variation operator at phi applied to the field psi."""
    if psi.grid is not phi.grid:
        raise ValueError("direction lives on a different grid")
    apply_h, _ = hessian_operator(phi, sp)
    return ScalarField(psi.grid, apply_h(psi.values))


def energy_gap(
    phi: ScalarField, w: ScalarField, sp: SingularPart
) -> tuple[float, float]:
    """Both sides of the expansion of the energy around w.

    lhs = energy(w + phi) - energy(w); rhs = quadrature of the manifestly
    nonnegative form  |grad phi|^2 + weight e^{2w} (e^{2 phi} - 1 - 2 phi).
    They differ by exactly 2 <phi, G(w)> h^2, so at a converged w the two
    evaluations agree to the solver tolerance.
    """
    g = _same_grid(phi, sp)
    if w.grid is not g:
        raise ValueError("fields live on different grids")
    shifted = ScalarField(g, w.values + phi.values)
    lhs = energy(shifted, sp).total - energy(w, sp).total
    two_phi = 2.0 * phi.values
    rhs = g.dirichlet_energy(phi.values) + float(
        np.sum(
            sp.weight.values * np.exp(2.0 * w.values) * (np.expm1(two_phi) - two_phi)
        )
    ) * g.h**2
    return lhs, rhs

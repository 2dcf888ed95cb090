"""Damped Newton minimization of the renormalized energy.

Solves for the bounded remainder w from the zero initial guess, then
reconstructs the blow-up field u = v + w.  The energy is smooth and convex
with a positive definite Hessian, so Newton steps with an Armijo
backtracking line search converge globally; the line search tests the
energy difference by its exact expansion (``energy_difference``), which
stays accurate where a difference of two energies is lost to rounding.
Each step's linear system is solved matrix-free by CG preconditioned by one
geometric-multigrid V-cycle (``Grid.vcycle_preconditioner``), which keeps
the iteration count per step bounded as h shrinks and the whole pipeline
deterministic.  The V-cycle smooths in float32 and solves its coarsest
level in float64; CG, the Hessian product and the energies are float64,
and CG stops on float64 residuals.  The CG solve is inexact: each step
stops at its own relative residual, the forcing term of Eisenstat and
Walker (*Choosing the forcing terms in an inexact Newton method*, SIAM J.
Sci. Comput. 1996),

    cg_rtol_k = max(floor, min(FORCING_MAX, max(eta_k, FORCING_SAFEGUARD tol / g_k))),
    eta_k = FORCING_GAMMA (g_k / g_{k-1})^2,

with g_k step k's gradient norm, tol the Newton tolerance gradient_tol and
eta_1 = FORCING_MAX, so far from the minimizer a step is only as accurate
as its Newton model.  The second bound is a safeguard in the manner of
Kelley (*Iterative Methods for Linear and Nonlinear Equations*, SIAM 1995,
section 6.3) for the last step: CG's residual is the linearized next
gradient, so no step solves below the relative residual that brings that
gradient to FORCING_SAFEGUARD tol.  The floor is max(LINEAR_RTOL, eps / h^2):
the condition number of -Lap_h grows like h^-2, so the true relative
residual of a linear solve can stall near eps / h^2, which passes
LINEAR_RTOL on grids finer than about h = 1/6700.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    EnergyBreakdown,
    ExponentOverflowError,
    SingularPart,
    energy,
    energy_difference,
    energy_gap,
    energy_gradient,
    hessian_operator,
)
from .geometry import Annulus, Disk, distance_to
from .grid import Grid, ScalarField

__all__ = [
    "LineSearchError",
    "SolverConfig",
    "SolveReport",
    "solve",
    "disk_exact_solution",
    "oracle_errors",
    "verify_minimizer",
    "corollary4_check",
    "liouville_defect",
    "liouville_residual",
]


class LineSearchError(RuntimeError):
    """Backtracking found no decrease down to the minimal step, or CG none
    to search along (``cg_iterations`` 0: a non-finite residual)."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


# Armijo sufficient-decrease constant and line-search step shrink factor
ARMIJO_C = 1e-4
BACKTRACK_RATIO = 0.5
# forcing terms of the inexact Newton steps (module docstring): the largest
# CG tolerance, the first step's, and the factor on the squared ratio of
# successive gradient norms
FORCING_MAX = 0.1
FORCING_GAMMA = 0.9
# the share of gradient_tol that a step's linearized next gradient aims for:
# the safeguard that stops the last step's CG at the tolerance asked for
FORCING_SAFEGUARD = 0.5
# the floor of every step's CG tolerance (module docstring)
LINEAR_RTOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Newton iteration knobs.

    gradient_tol is on the mesh-independent residual norm |G| * h (discrete
    L2), positive and finite.  max_iterations is an integer (not a bool), at
    least 1.  ``linear_rtol`` reads the CG floor ``LINEAR_RTOL``, which no
    config sets.
    """

    gradient_tol: float = 1e-8
    max_iterations: int = 40

    def __post_init__(self):
        if not 0.0 < self.gradient_tol < math.inf:
            raise ValueError("tolerances must be positive and finite")
        if isinstance(self.max_iterations, bool) or not isinstance(
            self.max_iterations, (int, np.integer)
        ):
            raise ValueError(
                f"max_iterations must be an integer, got {self.max_iterations!r}"
            )
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")

    @property
    def linear_rtol(self) -> float:
        return LINEAR_RTOL


@dataclass
class SolveReport:
    """Outcome of ``solve``.  ``converged`` is the Newton gradient test alone;
    ``linear_converged`` says whether every step's linear solve met its own
    target ``cg_rtol``.  ``singular_part`` is the one the solve minimized on;
    the checks below read it from here, and ``to_json_dict`` leaves it out."""

    w: ScalarField
    u: ScalarField
    singular_part: SingularPart
    iterations: int
    energy_history: list[float]
    final_grad_norm: float
    converged: bool
    steps: list[dict] = field(default_factory=list)
    runtime_seconds: float = 0.0
    corollary4: dict | None = None
    oracle: dict | None = None
    verification: dict | None = None

    @property
    def linear_converged(self) -> bool:
        return all(s["linear_converged"] for s in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "linear_converged": self.linear_converged,
            "energy_history": self.energy_history,
            "final_energy": self.energy_history[-1],
            "final_grad_norm": self.final_grad_norm,
            "runtime_seconds": self.runtime_seconds,
            "steps": self.steps,
            "corollary4": self.corollary4,
            "oracle": self.oracle,
            "verification": self.verification,
            "nodes": self.w.grid.n_interior,
            "h": self.w.grid.h,
        }


def _pcg(apply_op, apply_prec, b, rtol, maxiter):
    """Preconditioned conjugate gradients for an SPD operator and an SPD
    preconditioner, zero initial guess.  Stops once the unpreconditioned
    relative residual |r| / |b| of the recurrence is at most rtol.

    The recurrence residual drifts below the true one at rounding level, so
    a stop is confirmed on |b - A x| / |b| (one more operator application);
    when that falls short of rtol the iteration restarts, once, from the
    true residual.  It stops early, too, once r . z (z the preconditioned
    residual) is not finite, as when the float32 V-cycle overflows; it
    then returns the iterate reached, x = 0 before the first iteration.
    Returns (x, residuals, true_relative_residual): residuals holds the
    recurrence's |r| / |b| after each iteration, those after the restart
    included, so its length is the iteration count (0 when r . z was never
    finite) and its last entry belongs to the returned x.
    ``apply_op`` and ``apply_prec`` must return new arrays: ``_pcg`` overwrites
    them in place.
    Deterministic: plain numpy reductions, no randomness.
    """
    x = np.zeros_like(b)
    bnorm = math.sqrt(float(np.dot(b, b)))
    residuals: list[float] = []
    if bnorm == 0.0:
        return x, residuals, 0.0

    def true_residual():
        r = apply_op(x)
        np.subtract(b, r, out=r)
        return r, math.sqrt(float(np.dot(r, r))) / bnorm

    r = b.copy()
    p = apply_prec(r)
    rz = float(np.dot(r, p))
    restarted = False
    for _ in range(maxiter):
        if not math.isfinite(rz):
            break
        Ap = apply_op(p)
        alpha = rz / float(np.dot(p, Ap))
        # r -= alpha Ap and x += alpha p, through Ap's buffer; Ap is then
        # freed before the next product allocates its own
        Ap *= alpha
        r -= Ap
        np.multiply(p, alpha, out=Ap)
        x += Ap
        del Ap
        relres = math.sqrt(float(np.dot(r, r))) / bnorm
        residuals.append(relres)
        if relres <= rtol:
            r_true, true_relres = true_residual()
            if true_relres <= rtol or restarted:
                return x, residuals, true_relres
            r, restarted = r_true, True
            p = apply_prec(r)
            rz = float(np.dot(r, p))
            continue
        z = apply_prec(r)
        rz_new = float(np.dot(r, z))
        p *= rz_new / rz
        p += z
        # no second z is alive while the next preconditioner runs
        del z
        rz = rz_new
    return x, residuals, true_residual()[1]


def _grad_norm(gvals: np.ndarray, h: float) -> float:
    return math.sqrt(float(np.dot(gvals, gvals))) * h


def solve(
    sp: SingularPart,
    config: SolverConfig | None = None,
    initial_guess: np.ndarray | None = None,
) -> SolveReport:
    """Minimize the renormalized energy of the singular part ``sp`` on its
    grid; returns the remainder w and u = v + w.

    Newton from w = 0 (or the supplied initial guess) with Armijo
    backtracking; by convexity the stationary point reached is the unique
    minimizer regardless of the start.

    Raises ValueError, before any work, when the initial guess does not
    hold one entry per interior node.

    Memory.  Besides the grid and the singular part (d, weight and r per
    interior node), the Newton loop holds per interior node: w and the
    V-cycle levels, built at the first step, retargeted at each later one
    and gone when ``solve`` returns (1/diag, f, u and t in float32 per
    padded node at spacing h, the bytes of two float64 arrays, and about a
    quarter of that per coarser level); in each step the right-hand side
    -G and the Hessian's mass; in CG x, r and p and one product or
    preconditioned residual at a time; in the line search s, the trial step
    t s and the candidate.
    Nothing derivable is kept: v and the node coordinates are computed when
    asked for.
    """
    t_start = time.perf_counter()
    grid = sp.grid
    if config is None:
        config = SolverConfig()
    if initial_guess is not None and np.shape(initial_guess) != (grid.n_interior,):
        raise ValueError("initial guess must have one entry per interior node")
    w, history, steps, gnorm, converged = _newton(sp, config, initial_guess)
    report = SolveReport(
        w=ScalarField(grid, w),
        u=ScalarField(grid, sp.v.values + w),
        singular_part=sp,
        iterations=len(steps),
        energy_history=history,
        final_grad_norm=gnorm,
        converged=converged,
        steps=steps,
        runtime_seconds=time.perf_counter() - t_start,
    )
    if isinstance(grid.domain, Disk):
        report.oracle = oracle_errors(report.u, grid.domain)
    return report


def _newton(sp: SingularPart, config: SolverConfig, initial_guess):
    """Newton from ``initial_guess`` (zero when None) on the grid of ``sp``:
    (w, energy history, steps, last gradient norm, converged).  A step
    record adds the step scale, CG residuals and new energy to the seven
    keys it shares with ``LineSearchError.diagnostics``."""
    grid = sp.grid
    h = grid.h
    n = grid.n_interior
    maxiter_lin = max(200, 20 * int(math.sqrt(n)))
    floor = max(LINEAR_RTOL, np.finfo(float).eps / (h * h))
    if initial_guess is None:
        w = np.zeros(n)
        current = EnergyBreakdown(0.0, 0.0, 0.0)
    else:
        w = np.array(initial_guess, dtype=float)
        current = energy(ScalarField(grid, w), sp)
    history = [current.total]
    steps: list[dict] = []
    gnorm = math.inf
    # the V-cycle's levels, built at the first step and retargeted at each
    # later one; they go when the Newton loop returns
    precondition = None

    for it in range(1, config.max_iterations + 1):
        wf = ScalarField(grid, w)
        g = energy_gradient(wf, sp).values
        gprev, gnorm = gnorm, _grad_norm(g, h)
        if gnorm <= config.gradient_tol:
            return w, history, steps, gnorm, True
        forcing = FORCING_MAX if it == 1 else FORCING_GAMMA * (gnorm / gprev) ** 2
        forcing = max(forcing, FORCING_SAFEGUARD * config.gradient_tol / gnorm)
        # float(): a numpy gradient_tol or eps would leave numpy scalars in the record
        cg_rtol = float(max(floor, min(FORCING_MAX, forcing)))

        # g becomes the right-hand side -G in place (negation is exact); the
        # mass stays for the line search
        np.negative(g, out=g)
        apply_h, mass = hessian_operator(wf, sp)
        if precondition is None:
            precondition = grid.vcycle_preconditioner(mass)
        else:
            precondition.retarget(mass)
        s, cg_residuals, true_relres = _pcg(apply_h, precondition, g, cg_rtol, maxiter_lin)
        del apply_h
        step = {
            "iteration": it,
            "grad_norm": gnorm,
            "cg_iterations": len(cg_residuals),
            "cg_rtol": cg_rtol,
            "cg_relres": cg_residuals[-1] if cg_residuals else math.nan,
            "cg_true_relres": true_relres,
            "linear_converged": true_relres <= cg_rtol,
        }
        if not cg_residuals:  # g != 0 here, so r . z was not finite
            raise LineSearchError(
                "CG found no Newton direction: its preconditioned residual is non-finite",
                {**step, "energy": current.total},
            )

        # directional derivative of the energy along s at w, 2 <G, s> h^2
        slope = -2.0 * float(np.dot(g, s)) * h * h
        if slope >= 0.0:
            # fall back to steepest descent if the inexact solve lost
            # the descent property (does not happen for SPD solves, kept
            # as a safety net)
            s = g
            slope = -2.0 * float(np.dot(g, s)) * h * h
        del g
        accepted = _line_search(w, s, slope, mass, sp)
        del mass
        if accepted is None:
            raise LineSearchError(
                "no energy decrease found along the Newton direction",
                {**step, "slope": slope, "energy": current.total},
            )
        cand, current, t = accepted
        w = cand.values
        # near float resolution a step can leave the energy bitwise
        # unchanged while still improving the gradient; record only
        # representable decreases so the history stays strictly monotone
        if current.total < history[-1]:
            history.append(current.total)
        steps.append(
            {**step, "step_scale": t, "cg_residuals": cg_residuals, "energy": current.total}
        )
    return w, history, steps, gnorm, False


def _line_search(
    w: np.ndarray, s: np.ndarray, slope: float, mass: np.ndarray, sp: SingularPart
):
    """(field, energy, t) at the first t = 1, 1/2, ... >= 1e-14 whose w + t s
    does not overflow and decreases the energy by at least -ARMIJO_C t
    slope, with slope the energy's derivative along s at w and mass the
    Hessian's mass there; else None.  The decrease is ``energy_difference``,
    which resolves it below the rounding of the energy itself."""
    t = 1.0
    while t >= 1e-14:
        step = ScalarField(sp.grid, t * s)
        try:
            if energy_difference(step, mass, t * slope) <= ARMIJO_C * t * slope:
                cand = ScalarField(sp.grid, w + step.values)
                return cand, energy(cand, sp), t
        except ExponentOverflowError:
            pass
        t *= BACKTRACK_RATIO
    return None


# ---------------------------------------------------------------------------
# disk oracle
# ---------------------------------------------------------------------------


def disk_exact_solution(disk: Disk):
    """Closed-form maximal solution on a disk of radius R centered at c:
    u(x) = -ln((R^2 - |x - c|^2) / R).  Unit disk: -ln(1 - |x|^2)."""
    c = np.asarray(disk.center, dtype=float)
    R = disk.radius

    def u_star(pts):
        rho2 = distance_to(pts, c, squared=True)
        return -np.log((R**2 - rho2) / R)

    return u_star


# the oracle compares the nodes farther than this from the boundary
ORACLE_DEPTH = 0.05


def oracle_errors(u: ScalarField, disk: Disk) -> dict:
    """Sup and L2 error of u against the closed-form solution on the
    region {boundary distance > ORACLE_DEPTH}."""
    g = u.grid
    exact = disk_exact_solution(disk)(g.points)
    sel = g.delta > ORACLE_DEPTH
    diff = u.values[sel] - exact[sel]
    return {
        "region_depth": ORACLE_DEPTH,
        "nodes_compared": int(np.count_nonzero(sel)),
        "sup_error": float(np.max(np.abs(diff))) if diff.size else math.nan,
        "l2_error": float(math.sqrt(np.sum(diff**2) * g.h**2)),
    }


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


PERTURBATION_AMPLITUDES = (1e-3, 1e-2, 1e-1)
GAP_SLACK = 1e-8
IDENTITY_RTOL = 1e-6


def _random_perturbation(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Smooth-ish random Dirichlet field with unit sup norm."""
    raw = rng.standard_normal(grid.n_interior)
    # a few Jacobi smoothing sweeps tame the high frequencies
    for _ in range(3):
        raw = raw + 0.2 * grid.h**2 * grid.laplacian(raw)
    taper = np.minimum(grid.delta, 0.3)
    vals = raw * taper
    return vals / np.max(np.abs(vals))


def verify_minimizer(report: SolveReport, trials: int = 100, seed: int = 0) -> SolveReport:
    """Random-perturbation check that w is the minimizer.

    For seeded random Dirichlet perturbations at each of the amplitudes
    PERTURBATION_AMPLITUDES the energy gap energy(w + phi) - energy(w) must
    be >= -GAP_SLACK, and the two independent evaluations of the expansion
    identity must agree to IDENTITY_RTOL.  Results are attached to the report.
    """
    g = report.w.grid
    sp = report.singular_part
    rng = np.random.default_rng(seed)
    shapes = [_random_perturbation(g, rng) for _ in range(trials)]
    worst_gap = math.inf
    worst_rel = 0.0
    gap_rows = []
    failures = 0
    for amp in PERTURBATION_AMPLITUDES:
        for k, shape in enumerate(shapes):
            phi = ScalarField(g, amp * shape)
            lhs, rhs = energy_gap(phi, report.w, sp)
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
            worst_gap = min(worst_gap, lhs)
            worst_rel = max(worst_rel, rel)
            ok = lhs >= -GAP_SLACK and rel < IDENTITY_RTOL
            if not ok:
                failures += 1
                gap_rows.append(
                    {"trial": k, "amplitude": amp, "gap": lhs, "identity_rel": rel}
                )
    report.verification = {
        "trials": trials,
        "amplitudes": list(PERTURBATION_AMPLITUDES),
        "slack": GAP_SLACK,
        "identity_rtol": IDENTITY_RTOL,
        "worst_gap": worst_gap,
        "worst_identity_rel": worst_rel,
        "failures": failures,
        "failed_cases": gap_rows[:20],
        "passed": failures == 0,
    }
    return report


def corollary4_check(report: SolveReport, H: float) -> dict:
    """Gradient-norm bound for the remainder: |grad w|_2 <= 2 H |Lap d|_2.

    ``in_hypothesis`` says whether the domain has the smooth boundary the
    paper's corollary assumes: disks and annuli do; on boxes and polygons
    the corners make |Lap d|_2 grow as h shrinks, and the bound speaks
    of the grid only.
    """
    g = report.w.grid
    lhs = math.sqrt(g.dirichlet_energy(report.w.values))
    rhs = 2.0 * H * report.singular_part.l2_delta_d
    out = {
        "lhs": lhs,
        "rhs": rhs,
        "H": H,
        "margin": rhs - lhs,
        "pass": bool(lhs <= rhs),
        "in_hypothesis": isinstance(g.domain, (Disk, Annulus)),
    }
    report.corollary4 = out
    return out


def liouville_defect(report: SolveReport) -> ScalarField:
    """Pointwise defect (-Lap_h(u) + 4 e^{2u}) d^2 of the blow-up equation
    at full-stencil interior nodes; zero at rim nodes, whose stencil reads
    Dirichlet ghosts.

    4 e^{2u} is evaluated as (1/d^2) e^{2w}, which stays finite where a
    direct exponential of u would overflow.
    """
    g = report.w.grid
    sp = report.singular_part
    defect = -g.laplacian(report.u.values) + sp.weight.values * np.exp(
        2.0 * report.w.values
    )
    return ScalarField(g, np.where(g.full_stencil, defect * sp.d.values**2, 0.0))


def liouville_residual(report: SolveReport) -> dict:
    """Largest d^2-weighted Liouville defect (see liouville_defect).

    With the lattice residual mode the defect equals the energy gradient at
    w exactly, so it tracks the solver tolerance all the way down; with the
    continuum mode it floors at the stencil's truncation of the singular
    part near the rim, reported separately so the two effects are not
    conflated.
    """
    g = report.w.grid
    sp = report.singular_part
    full = g.full_stencil
    weighted = np.abs(liouville_defect(report).values[full])
    gvals = energy_gradient(report.w, sp).values
    gw = np.abs(gvals[full]) * sp.d.values[full] ** 2
    deep = g.delta[full] > 0.2
    return {
        "max_weighted_residual": float(np.max(weighted)) if weighted.size else 0.0,
        "max_weighted_residual_deep": (
            float(np.max(weighted[deep])) if deep.any() else 0.0
        ),
        "max_weighted_gradient": float(np.max(gw)) if gw.size else 0.0,
        "full_stencil_nodes": int(np.count_nonzero(full)),
        "residual_mode": sp.residual_mode,
    }

"""Damped Newton minimization of the renormalized energy.

Solves for the bounded remainder w from the zero initial guess, then
reconstructs the blow-up field u = v + w.  The energy is smooth and convex
with a positive definite Hessian, so Newton steps with an Armijo
backtracking line search converge globally; each step's linear system is
solved matrix-free by CG preconditioned by one geometric-multigrid V-cycle
(``Grid.vcycle_preconditioner``), which keeps the iteration count per step
bounded as h shrinks and the whole pipeline deterministic.
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
    build_singular_part,
    energy,
    energy_gap,
    energy_gradient,
    hessian_operator,
)
from .geometry import Disk, Domain, SmoothingProfile, default_profile
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
    """Backtracking found no decrease down to the minimal step."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


# Armijo sufficient-decrease constant and line-search step shrink factor
ARMIJO_C = 1e-4
BACKTRACK_RATIO = 0.5
# smallest accepted linear_rtol: below it the CG recurrence residual keeps
# shrinking after the true residual has stalled at rounding level (so a step
# reads as converged when it is not), and it can underflow to zero
MIN_LINEAR_RTOL = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    """Newton iteration knobs.

    gradient_tol is on the mesh-independent residual norm |G| * h (discrete
    L2); linear_rtol is the relative residual at which each step's
    conjugate-gradient solve stops, at least ``MIN_LINEAR_RTOL``.
    """

    gradient_tol: float = 1e-8
    max_iterations: int = 40
    linear_rtol: float = 1e-8

    def __post_init__(self):
        if self.gradient_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not self.linear_rtol >= MIN_LINEAR_RTOL:
            raise ValueError(
                f"linear_rtol must be at least {MIN_LINEAR_RTOL:g}, "
                f"got {self.linear_rtol!r}"
            )
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass
class SolveReport:
    w: ScalarField
    u: ScalarField
    iterations: int
    energy_history: list[float]
    final_grad_norm: float
    converged: bool
    steps: list[dict] = field(default_factory=list)
    runtime_seconds: float = 0.0
    corollary4: dict | None = None
    oracle: dict | None = None
    verification: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
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
    relative residual |r| / |b| is at most rtol.

    Returns (x, iterations, relative_residual).  Deterministic: plain
    numpy reductions, no randomness.
    """
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = math.sqrt(float(np.dot(r, r)))
    if bnorm == 0.0:
        return x, 0, 0.0
    z = apply_prec(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    relres = 1.0
    for it in range(1, maxiter + 1):
        Ap = apply_op(p)
        alpha = rz / float(np.dot(p, Ap))
        x += alpha * p
        r -= alpha * Ap
        relres = math.sqrt(float(np.dot(r, r))) / bnorm
        if relres <= rtol:
            return x, it, relres
        z = apply_prec(r)
        rz_new = float(np.dot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x, maxiter, relres


def _grad_norm(gvals: np.ndarray, h: float) -> float:
    return math.sqrt(float(np.dot(gvals, gvals))) * h


def solve(
    domain: Domain,
    profile: SmoothingProfile | None = None,
    grid: Grid | None = None,
    config: SolverConfig | None = None,
    singular_part: SingularPart | None = None,
    initial_guess: np.ndarray | None = None,
) -> SolveReport:
    """Minimize the renormalized energy; returns the remainder w and u = v + w.

    Newton from w = 0 (or the supplied initial guess) with Armijo
    backtracking; by convexity the stationary point reached is the unique
    minimizer regardless of the start.
    """
    t_start = time.perf_counter()
    if profile is None:
        profile = default_profile(domain)
    if grid is None:
        grid = Grid(domain, 1 / 128)
    if config is None:
        config = SolverConfig()
    sp = (
        singular_part
        if singular_part is not None
        else build_singular_part(domain, profile, grid)
    )
    h = grid.h
    n = grid.n_interior
    maxiter_lin = max(200, 20 * int(math.sqrt(n)))

    if initial_guess is None:
        w = np.zeros(n)
        current = EnergyBreakdown(0.0, 0.0, 0.0)
    else:
        w = np.array(initial_guess, dtype=float)
        if w.shape != (n,):
            raise ValueError("initial guess must have one entry per interior node")
        current = energy(ScalarField(grid, w), sp)
    history = [current.total]
    steps: list[dict] = []
    gnorm = math.inf
    converged = False

    for it in range(1, config.max_iterations + 1):
        wf = ScalarField(grid, w)
        g = energy_gradient(wf, sp).values
        gnorm = _grad_norm(g, h)
        if gnorm <= config.gradient_tol:
            converged = True
            break

        apply_h, mass = hessian_operator(wf, sp)
        s, cg_iters, relres = _pcg(
            apply_h,
            grid.vcycle_preconditioner(mass),
            -g,
            config.linear_rtol,
            maxiter_lin,
        )
        linear_converged = relres <= config.linear_rtol

        # directional derivative of the energy along s at w
        slope = 2.0 * float(np.dot(g, s)) * h * h
        if slope >= 0.0:
            # fall back to steepest descent if the inexact solve lost
            # the descent property (does not happen for SPD solves, kept
            # as a safety net)
            s = -g
            slope = 2.0 * float(np.dot(g, s)) * h * h
        t = 1.0
        e0 = current.total
        accepted = None
        while t >= 1e-14:
            try:
                cand = ScalarField(grid, w + t * s)
                e_cand = energy(cand, sp)
            except ExponentOverflowError:
                t *= BACKTRACK_RATIO
                continue
            if e_cand.total <= e0 + ARMIJO_C * t * slope:
                accepted = (cand, e_cand, t)
                break
            t *= BACKTRACK_RATIO
        if accepted is None:
            raise LineSearchError(
                "no energy decrease found along the Newton direction",
                {
                    "iteration": it,
                    "grad_norm": gnorm,
                    "slope": slope,
                    "cg_iterations": cg_iters,
                    "cg_relres": relres,
                    "linear_converged": linear_converged,
                    "energy": e0,
                },
            )
        cand, e_cand, t = accepted
        w = cand.values
        current = e_cand
        # near float resolution a step can leave the energy bitwise
        # unchanged while still improving the gradient; record only
        # representable decreases so the history stays strictly monotone
        if e_cand.total < history[-1]:
            history.append(e_cand.total)
        steps.append(
            {
                "iteration": it,
                "grad_norm": gnorm,
                "step_scale": t,
                "cg_iterations": cg_iters,
                "cg_relres": relres,
                "linear_converged": linear_converged,
                "energy": e_cand.total,
            }
        )

    wf = ScalarField(grid, w)
    u = ScalarField(grid, sp.v.values + w)
    report = SolveReport(
        w=wf,
        u=u,
        iterations=len(steps),
        energy_history=history,
        final_grad_norm=gnorm,
        converged=converged,
        steps=steps,
        runtime_seconds=time.perf_counter() - t_start,
    )
    if isinstance(domain, Disk):
        report.oracle = oracle_errors(u, domain)
    return report


# ---------------------------------------------------------------------------
# disk oracle
# ---------------------------------------------------------------------------


def disk_exact_solution(disk: Disk):
    """Closed-form maximal solution on a disk of radius R centered at c:
    u(x) = -ln((R^2 - |x - c|^2) / R).  Unit disk: -ln(1 - |x|^2)."""
    c = np.asarray(disk.center, dtype=float)
    R = disk.radius

    def u_star(pts):
        pts = np.asarray(pts, dtype=float)
        rho2 = np.sum((pts - c) ** 2, axis=-1)
        return -np.log((R**2 - rho2) / R)

    return u_star


def oracle_errors(u: ScalarField, disk: Disk, region_depth: float = 0.05) -> dict:
    """Sup and L2 error of u against the closed-form solution on the
    region {boundary distance > region_depth}."""
    g = u.grid
    exact = disk_exact_solution(disk)(g.points)
    sel = g.delta > region_depth
    diff = u.values[sel] - exact[sel]
    return {
        "region_depth": region_depth,
        "excluded_layer_width": region_depth,
        "nodes_compared": int(np.count_nonzero(sel)),
        "sup_error": float(np.max(np.abs(diff))) if diff.size else math.nan,
        "l2_error": float(math.sqrt(np.sum(diff**2) * g.h**2)),
    }


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _random_perturbation(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Smooth-ish random Dirichlet field with unit sup norm."""
    raw = rng.standard_normal(grid.n_interior)
    # a few Jacobi smoothing sweeps tame the high frequencies
    for _ in range(3):
        raw = raw + 0.2 * grid.h**2 * grid.laplacian(raw)
    taper = np.minimum(grid.delta, 0.3)
    vals = raw * taper
    return vals / np.max(np.abs(vals))


def verify_minimizer(
    report: SolveReport,
    sp: SingularPart,
    trials: int = 100,
    amplitudes: tuple = (1e-3, 1e-2, 1e-1),
    seed: int = 0,
    slack: float = 1e-8,
    identity_rtol: float = 1e-6,
) -> SolveReport:
    """Random-perturbation check that w is the minimizer.

    For seeded random Dirichlet perturbations at several amplitudes the
    energy gap energy(w + phi) - energy(w) must be >= -slack, and the two
    independent evaluations of the expansion identity must agree to
    identity_rtol.  Results are attached to the report.
    """
    g = report.w.grid
    rng = np.random.default_rng(seed)
    shapes = [_random_perturbation(g, rng) for _ in range(trials)]
    worst_gap = math.inf
    worst_rel = 0.0
    gap_rows = []
    failures = 0
    for amp in amplitudes:
        for k, shape in enumerate(shapes):
            phi = ScalarField(g, amp * shape)
            lhs, rhs = energy_gap(phi, report.w, sp)
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
            worst_gap = min(worst_gap, lhs)
            worst_rel = max(worst_rel, rel)
            ok = lhs >= -slack and rel < identity_rtol
            if not ok:
                failures += 1
                gap_rows.append(
                    {"trial": k, "amplitude": amp, "gap": lhs, "identity_rel": rel}
                )
    report.verification = {
        "trials": trials,
        "amplitudes": list(amplitudes),
        "slack": slack,
        "identity_rtol": identity_rtol,
        "worst_gap": worst_gap,
        "worst_identity_rel": worst_rel,
        "failures": failures,
        "failed_cases": gap_rows[:20],
        "passed": failures == 0,
    }
    return report


def corollary4_check(report: SolveReport, sp: SingularPart, H: float) -> dict:
    """Gradient-norm bound for the remainder: |grad w|_2 <= 2 H |Lap d|_2."""
    g = report.w.grid
    lhs = math.sqrt(g.dirichlet_energy(report.w.values))
    rhs = 2.0 * H * math.sqrt(float(np.sum(sp.delta_d.values**2)) * g.h**2)
    out = {
        "lhs": lhs,
        "rhs": rhs,
        "H": H,
        "margin": rhs - lhs,
        "pass": bool(lhs <= rhs),
    }
    report.corollary4 = out
    return out


def liouville_defect(report: SolveReport, sp: SingularPart) -> ScalarField:
    """Pointwise defect (-Lap_h(u) + 4 e^{2u}) d^2 of the blow-up equation
    at full-stencil interior nodes; zero at rim nodes, whose stencil reads
    Dirichlet ghosts.

    4 e^{2u} is evaluated as (1/d^2) e^{2w}, which stays finite where a
    direct exponential of u would overflow.
    """
    g = report.w.grid
    defect = -g.laplacian(report.u.values) + sp.weight.values * np.exp(
        2.0 * report.w.values
    )
    return ScalarField(g, np.where(g.full_stencil, defect * sp.d.values**2, 0.0))


def liouville_residual(report: SolveReport, sp: SingularPart) -> dict:
    """Largest d^2-weighted Liouville defect (see liouville_defect).

    With the lattice residual mode the defect equals the energy gradient at
    w exactly, so it tracks the solver tolerance all the way down; with the
    continuum mode it floors at the stencil's truncation of the singular
    part near the rim, reported separately so the two effects are not
    conflated.
    """
    g = report.w.grid
    full = g.full_stencil
    weighted = np.abs(liouville_defect(report, sp).values[full])
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

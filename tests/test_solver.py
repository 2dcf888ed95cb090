"""Newton solver: convergence, oracle accuracy, minimizer verification,
and the gradient-norm bound for the remainder."""

import dataclasses
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import L_SHAPE, UNIT_SQUARE, singular_part, solved

from blowup.energy import (
    ExponentOverflowError,
    energy,
    energy_difference,
    energy_gap,
    energy_gradient,
    hessian_operator,
)
import blowup.solver as solver_module
from blowup.geometry import Box, Disk
from blowup.grid import Grid, ScalarField
from blowup.solver import (
    LineSearchError,
    SolveReport,
    SolverConfig,
    _pcg,
    corollary4_check,
    disk_exact_solution,
    liouville_residual,
    oracle_errors,
    solve,
    verify_minimizer,
)

DISK = Disk((0.0, 0.0), 1.0)


@pytest.fixture(scope="module")
def disk64():
    report = solved(DISK, 1 / 64)
    return report.singular_part.grid, report.singular_part, report


@pytest.fixture(scope="module")
def disk128(disk_solve_128):
    return disk_solve_128.singular_part.grid, disk_solve_128.singular_part, disk_solve_128


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gradient_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


def test_config_fields_are_exactly_the_two_knobs():
    # the forcing terms and the CG floor add no knob: their constants live
    # in the module, and linear_rtol only reads the floor
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "gradient_tol",
        "max_iterations",
    ]
    assert SolverConfig().linear_rtol == solver_module.LINEAR_RTOL == 1e-8


def test_initial_guess_shape_rejected():
    with pytest.raises(ValueError):
        solve(singular_part(DISK, 1 / 16), initial_guess=np.zeros(3))


@pytest.mark.parametrize("extra", [(-1,), (1,), (0, 1)])
def test_initial_guess_shape_rejected_before_any_work(monkeypatch, extra):
    # one entry short, one too many, and a column: no Newton step starts
    def unreachable(*args, **kwargs):
        raise AssertionError("solve did work before checking the initial guess")

    monkeypatch.setattr(solver_module, "_newton", unreachable)
    sp = singular_part(DISK, 1 / 16)
    shape = (sp.grid.n_interior + extra[0], *extra[1:])
    with pytest.raises(ValueError, match="one entry per interior node"):
        solve(sp, initial_guess=np.zeros(shape))


@pytest.mark.parametrize("value", [1.5, 4.0, "4", True, False, None])
def test_config_rejects_a_max_iterations_that_is_not_an_integer(value):
    # 1.5 used to fail inside the Newton loop's range, after the set-up,
    # and True ran one step
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        SolverConfig(max_iterations=value)


def test_config_takes_a_numpy_integer_max_iterations():
    assert SolverConfig(max_iterations=np.int64(3)).max_iterations == 3


@pytest.mark.parametrize(
    "field, value",
    [("gradient_tol", math.inf), ("gradient_tol", math.nan)],
)
def test_config_rejects_non_finite_tolerances(field, value):
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(**{field: value})


# ---------------------------------------------------------------------------
# convergence basics
# ---------------------------------------------------------------------------


def test_disk_solve_converges(disk64):
    _, _, rep = disk64
    assert rep.converged
    assert rep.final_grad_norm <= SolverConfig().gradient_tol
    assert rep.iterations >= 2


def test_energy_history_strictly_decreasing(disk64):
    _, _, rep = disk64
    hist = rep.energy_history
    assert hist[0] == 0.0
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_energy_negative_when_residual_nonzero(disk64):
    _, _, rep = disk64
    assert rep.energy_history[-1] < 0.0


# the keys a Newton step shares with the line-search diagnostics
SHARED_STEP_KEYS = {
    "iteration",
    "grad_norm",
    "cg_iterations",
    "cg_rtol",
    "cg_relres",
    "cg_true_relres",
    "linear_converged",
}


def test_step_records_hold_exactly_their_keys(disk64):
    _, _, rep = disk64
    assert rep.steps
    for s in rep.steps:
        assert set(s) == SHARED_STEP_KEYS | {"step_scale", "cg_residuals", "energy"}


def test_every_step_reported(disk64):
    _, _, rep = disk64
    assert len(rep.steps) == rep.iterations
    for s in rep.steps:
        assert s["cg_iterations"] >= 1
        assert 0.0 < s["step_scale"] <= 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_cg_residual_fails_the_step_at_once():
    # at w = 40 the right-hand side overflows the float32 V-cycle, so r . z
    # is not finite before CG's first iteration
    sp = singular_part(DISK, 1 / 64)
    with pytest.raises(LineSearchError, match="non-finite") as info:
        solve(sp, initial_guess=np.full(sp.grid.n_interior, 40.0))
    assert info.value.diagnostics["iteration"] == 1
    assert info.value.diagnostics["cg_iterations"] == 0


def test_not_converged_within_one_iteration():
    rep = solved(DISK, 1 / 32, SolverConfig(max_iterations=1))
    assert not rep.converged
    assert rep.iterations == 1


def test_overflowing_initial_guess_raises():
    sp = singular_part(DISK, 1 / 16)
    with pytest.raises(ExponentOverflowError):
        solve(sp, initial_guess=np.full(sp.grid.n_interior, 400.0))


# ---------------------------------------------------------------------------
# oracle accuracy
# ---------------------------------------------------------------------------


def test_disk_oracle_sup_error(disk128):
    _, _, rep = disk128
    assert rep.oracle is not None
    assert rep.oracle["sup_error"] < 5e-3
    assert rep.oracle["l2_error"] < rep.oracle["sup_error"] * 10
    assert rep.oracle["region_depth"] == 0.05


def test_oracle_error_shrinks_under_refinement(disk64, disk128):
    _, _, r64 = disk64
    _, _, r128 = disk128
    assert r128.oracle["sup_error"] < r64.oracle["sup_error"] / 1.5


def test_exact_solution_general_disk():
    # u = -ln((R^2 - rho^2)/R) solves -Lap u + 4 e^{2u} = 0 for any radius;
    # check by a tight central stencil at off-center sample points
    disk = Disk((1.0, -0.5), 2.0)
    u = disk_exact_solution(disk)
    eps = 1e-4
    for p in [(1.0, -0.5), (2.1, 0.3), (0.2, -1.1)]:
        p = np.array(p)
        lap = (
            u(p + [eps, 0]) + u(p - [eps, 0]) + u(p + [0, eps]) + u(p - [0, eps]) - 4 * u(p)
        ) / eps**2
        assert abs(-lap + 4 * math.exp(2 * u(p))) < 1e-5


def test_oracle_absent_off_disk():
    rep = solved(Box((0.0, 0.0), (1.0, 1.0)), 1 / 32)
    assert rep.converged
    assert rep.oracle is None


def test_oracle_region_helper(disk64, monkeypatch):
    # a deeper region compares fewer nodes, none of them worse
    grid, _, rep = disk64
    monkeypatch.setattr(solver_module, "ORACLE_DEPTH", 0.3)
    out = oracle_errors(rep.u, DISK)
    assert out["region_depth"] == 0.3
    assert out["nodes_compared"] < rep.oracle["nodes_compared"] < grid.n_interior
    assert out["sup_error"] <= rep.oracle["sup_error"]


# ---------------------------------------------------------------------------
# remainder structure
# ---------------------------------------------------------------------------


def test_remainder_is_order_of_distance(disk64, disk128):
    ratios = []
    for grid, sp, rep in (disk64, disk128):
        ratios.append(float(np.max(np.abs(rep.w.values) / sp.d.values)))
    assert ratios[0] < 1.0 and ratios[1] < 1.0
    assert abs(ratios[1] - ratios[0]) < 0.05 * ratios[0]


def test_radial_symmetry_under_quarter_turns(disk64):
    grid, _, rep = disk64
    idx = np.argwhere(grid.interior_mask)
    ai = idx[:, 0] + grid.i0
    aj = idx[:, 1] + grid.j0
    ri = -aj - grid.i0
    rj = ai - grid.j0
    assert (ri >= 0).all() and (ri < grid.nx).all()
    assert (rj >= 0).all() and (rj < grid.ny).all()
    index = np.full((grid.nx, grid.ny), -1)
    index[grid.interior_mask] = np.arange(grid.n_interior)
    target = index[ri, rj]
    assert (target >= 0).all()
    assert np.max(np.abs(rep.w.values - rep.w.values[target])) < 1e-7


def test_uniqueness_from_random_starts():
    sp = singular_part(DISK, 1 / 32)
    grid = sp.grid
    rng = np.random.default_rng(7)
    taper = np.minimum(grid.delta, 0.3)
    sols = []
    for _ in range(2):
        guess = 0.01 * rng.standard_normal(grid.n_interior) * taper
        rep = solve(sp, initial_guess=guess)
        assert rep.converged
        sols.append(rep.w.values)
    assert np.max(np.abs(sols[0] - sols[1])) < 10 * solver_module.LINEAR_RTOL


# ---------------------------------------------------------------------------
# degenerate forcing
# ---------------------------------------------------------------------------


def test_zero_residual_gives_zero_remainder(disk64):
    grid, sp, _ = disk64
    quiet = dataclasses.replace(sp, r=ScalarField.zeros(grid))
    rep = solve(quiet)
    assert rep.converged
    assert rep.iterations == 0
    assert np.all(rep.w.values == 0.0)
    out = corollary4_check(rep, 2.0)
    assert out["lhs"] == 0.0
    assert out["pass"]


# ---------------------------------------------------------------------------
# minimizer verification
# ---------------------------------------------------------------------------


def test_verify_minimizer_all_gaps_nonnegative(disk64):
    _, _, rep = disk64
    verify_minimizer(rep, trials=25, seed=3)
    v = rep.verification
    assert v["passed"]
    assert v["failures"] == 0
    assert v["worst_gap"] >= -1e-8
    assert v["worst_identity_rel"] < 1e-6


def test_gap_vanishes_only_with_amplitude(disk64):
    grid, sp, rep = disk64
    rng = np.random.default_rng(11)
    shape = rng.standard_normal(grid.n_interior) * np.minimum(grid.delta, 0.3)
    shape /= np.max(np.abs(shape))
    gaps = []
    for amp in (1e-1, 1e-2, 1e-3):
        lhs, _ = energy_gap(ScalarField(grid, amp * shape), rep.w, sp)
        gaps.append(lhs)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_restoring_zero_perturbation(disk64):
    # phi = -w brings the field back to zero, where the energy is 0
    grid, sp, rep = disk64
    e_w = energy(rep.w, sp).total
    phi = ScalarField(grid, -rep.w.values)
    lhs, rhs = energy_gap(phi, rep.w, sp)
    assert abs(lhs - (0.0 - e_w)) < 1e-12
    assert lhs > 0.0


# ---------------------------------------------------------------------------
# gradient-norm bound of the remainder
# ---------------------------------------------------------------------------


def test_corollary_bound_on_disk(disk64):
    _, _, rep = disk64
    out = corollary4_check(rep, 2.0)
    assert out["pass"]
    assert out["lhs"] > 0.0
    assert out["margin"] > 0.0
    assert rep.corollary4 == out


def test_intermediate_forcing_bound(disk64):
    # -sum 2 r phi h^2 <= K |grad phi| with K = 2 H |Lap d|, spot-checked
    # on seeded random Dirichlet fields
    grid, sp, _ = disk64
    H = 2.0
    K = 2.0 * H * sp.l2_delta_d
    rng = np.random.default_rng(5)
    for _ in range(20):
        phi = rng.standard_normal(grid.n_interior) * np.minimum(grid.delta, 0.3)
        lhs = -2.0 * float(np.sum(sp.r.values * phi)) * grid.h**2
        rhs = K * math.sqrt(grid.dirichlet_energy(phi))
        assert lhs <= rhs


# ---------------------------------------------------------------------------
# pointwise equation defect
# ---------------------------------------------------------------------------


def test_lattice_mode_defect_tracks_tolerance():
    sp = singular_part(DISK, 1 / 48, residual_mode="lattice")
    maxima = []
    for tol in (1e-4, 1e-10):
        rep = solve(sp, SolverConfig(gradient_tol=tol))
        maxima.append(liouville_residual(rep)["max_weighted_residual"])
    assert maxima[1] < maxima[0] / 100.0
    assert maxima[1] < 1e-9


def test_continuum_mode_defect_floor_is_bounded(disk64):
    _, _, rep = disk64
    out = liouville_residual(rep)
    assert out["residual_mode"] == "continuum"
    # rim floor from the stencil truncation of the log profile
    assert out["max_weighted_residual"] < 1.0
    # away from the rim only the profile-blend truncation remains
    assert out["max_weighted_residual_deep"] < 0.1
    # the energy gradient itself is at solver tolerance
    assert out["max_weighted_gradient"] < 1e-7


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------


def test_pcg_deterministic_and_accurate():
    rng = np.random.default_rng(0)
    n = 80
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    apply_op = lambda x: a @ x
    identity = np.copy  # a new array, as _pcg requires
    x1, res1, true1 = _pcg(apply_op, identity, b, 1e-10, 500)
    x2, res2, _ = _pcg(apply_op, identity, b, 1e-10, 500)
    assert res1 == res2
    assert np.array_equal(x1, x2)
    assert np.linalg.norm(a @ x1 - b) <= 1e-9 * np.linalg.norm(b)
    assert true1 == pytest.approx(np.linalg.norm(a @ x1 - b) / np.linalg.norm(b))
    # one entry per iteration; only the last meets the tolerance
    assert res1[-1] <= 1e-10 < min(res1[:-1])


def test_solve_heap_on_the_disk_at_1_256(monkeypatch):
    # traced from after the singular part: the peak while solve runs
    # (measured 19.50 MiB, in CG: the V-cycle levels, 6.84 MiB with all
    # but the coarsest in float32 (8.75 in float64), and eight interior
    # vectors) and what it keeps (measured 3.138 MiB: w and u, 3.130 MiB,
    # and the report); each gate is the measured value plus about 5%.  The
    # V-cycle levels are built once, at the first of the 4 Newton steps,
    # and none outlives the solve.
    sp = singular_part(DISK, 1 / 256)
    made, builds = [], []
    build = Grid._hierarchy

    def recorded(grid):
        levels = build(grid)
        builds.append(len(levels))
        made.extend(weakref.ref(level) for level in levels)
        return levels

    monkeypatch.setattr(Grid, "_hierarchy", recorded)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = solve(sp)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert rep.iterations == 4
    assert len(builds) == 1
    assert made and all(level() is None for level in made)
    mib = 2**20
    assert peak <= 20.5 * mib, peak / mib
    assert kept <= 3.3 * mib, kept / mib


def test_pcg_zero_rhs():
    x, res, true = _pcg(lambda x: 2.0 * x, np.copy, np.zeros(5), 1e-8, 50)
    assert np.all(x == 0.0) and res == [] and true == 0.0


def test_pcg_residual_history_includes_the_restart():
    # the operator is A + 1e-6 I until the recurrence first meets rtol and A
    # from the check of the true residual on, so that check fails once and
    # CG restarts from the true residual
    n, rtol = 40, 1e-10
    a = np.diag(np.linspace(1.0, 4.0, n))
    b = np.random.default_rng(1).standard_normal(n)
    perturbed = a + 1e-6 * np.eye(n)
    _, before, _ = _pcg(lambda v: perturbed @ v, np.copy, b, rtol, 500)
    calls = []

    def switching(v):
        calls.append(None)
        return (perturbed if len(calls) <= len(before) else a) @ v

    x, res, true = _pcg(switching, np.copy, b, rtol, 500)
    assert res[: len(before)] == before
    assert len(res) > len(before)
    assert res[-1] <= rtol
    assert true <= rtol
    assert np.linalg.norm(a @ x - b) <= 10 * rtol * np.linalg.norm(b)


def test_cg_iterations_per_newton_step_bounded(disk64, disk128, lshape_solve_64):
    # the V-cycle keeps the count flat as h halves (plain CG doubled it)
    reports = [solved(DISK, 1 / 32), disk64[2], disk128[2], lshape_solve_64]
    for rep in reports:
        assert rep.converged
        assert max(s["cg_iterations"] for s in rep.steps) <= 12


@pytest.mark.parametrize(
    "domain, h",
    [(UNIT_SQUARE, 1 / 128), (UNIT_SQUARE, 1 / 256), (L_SHAPE, 1 / 256)],
    ids=["square-1/128", "square-1/256", "lshape-1/256"],
)
def test_inexact_newton_takes_only_full_steps(domain, h):
    # with the Armijo test on a difference of two rounded energies, the
    # square at 1/128 has its fifth step cut to 0.5 under one BLAS thread,
    # and the L-shape at 1/256 takes six steps, one at 0.5, under two
    rep = solved(domain, h)
    assert rep.converged
    assert rep.iterations == 5
    assert [s["step_scale"] for s in rep.steps] == [1.0] * 5


def test_line_search_sees_changes_below_the_energy_rounding():
    # at the disk solved far below rounding (gradient_tol 1e-12) the Newton
    # step s lowers the energy by about 1.8e-29, thirteen orders below the
    # rounding of the energy (5e-16).  The exact expansion still reads the
    # quadratic model's values: slope / 2 along s, so the full step passes
    # the Armijo test, and -3 slope / 2 along 3 s, a rise, so that step is
    # cut to 3 s / 2.  A difference of two rounded energies sees neither
    # and accepts 3 s.
    rep = solved(DISK, 1 / 64, SolverConfig(gradient_tol=1e-12))
    sp = rep.singular_part
    grid = sp.grid
    w = rep.w.values
    G = energy_gradient(rep.w, sp).values
    apply_h, mass = hessian_operator(rep.w, sp)
    s, _, _ = _pcg(apply_h, grid.vcycle_preconditioner(mass), -G, 1e-10, 200)
    slope = 2.0 * float(np.dot(G, s)) * grid.h**2
    assert -1e-27 < slope < 0.0
    assert np.finfo(float).eps * abs(rep.energy_history[-1]) > 1e10 * abs(slope)
    for scale, change, t in ((1.0, 0.5, 1.0), (3.0, -1.5, 0.5)):
        step = ScalarField(grid, scale * s)
        got = energy_difference(step, mass, scale * slope)
        assert got == pytest.approx(change * slope, rel=0.02)
        assert solver_module._line_search(w, scale * s, scale * slope, mass, sp)[2] == t


def test_linear_converged_on_every_default_step(disk64):
    _, _, rep = disk64
    assert all(s["linear_converged"] is True for s in rep.steps)


def test_steps_record_the_cg_residual_history(disk64):
    _, _, rep = disk64
    for s in rep.steps:
        history = s["cg_residuals"]
        assert len(history) == s["cg_iterations"]
        assert history[-1] == s["cg_relres"] <= s["cg_rtol"]
        assert all(rel > s["cg_rtol"] for rel in history[:-1])


def test_linear_converged_false_when_cg_stops_at_its_cap(monkeypatch):
    # capped at 2 iterations, CG meets the loose targets of the first two
    # steps (0.1 and 8.0e-3 at 1/16) and not the third's (2.2e-5)
    capped = lambda op, prec, b, rtol, maxiter: _pcg(op, prec, b, rtol, 2)
    monkeypatch.setattr(solver_module, "_pcg", capped)
    rep = solved(DISK, 1 / 16, SolverConfig(max_iterations=3))
    assert [s["linear_converged"] for s in rep.steps] == [True, True, False]
    last = rep.steps[-1]
    assert last["cg_iterations"] == 2
    assert last["cg_relres"] > last["cg_rtol"]
    assert not rep.linear_converged


def _forcing_terms(config, norms):
    """The module docstring's CG targets for steps of these gradient norms:
    the first step at FORCING_MAX, then FORCING_GAMMA times the squared
    ratio of successive gradient norms, raised to FORCING_SAFEGUARD
    gradient_tol / the step's norm, capped at FORCING_MAX and floored at
    LINEAR_RTOL (above eps / h^2 on these grids)."""
    forcing = [solver_module.FORCING_MAX] + [
        solver_module.FORCING_GAMMA * (b / a) ** 2 for a, b in zip(norms, norms[1:])
    ]
    return [
        max(
            solver_module.LINEAR_RTOL,
            min(
                solver_module.FORCING_MAX,
                max(f, solver_module.FORCING_SAFEGUARD * config.gradient_tol / g),
            ),
        )
        for f, g in zip(forcing, norms)
    ]


def test_cg_rtol_follows_the_forcing_terms(monkeypatch):
    # a floor of 1e-4 binds at the third step and the safeguard at the
    # fourth, the last
    monkeypatch.setattr(solver_module, "LINEAR_RTOL", 1e-4)
    config = SolverConfig()
    rep = solved(DISK, 1 / 64, config)
    assert rep.converged
    got = [s["cg_rtol"] for s in rep.steps]
    norms = [s["grad_norm"] for s in rep.steps]
    assert got == _forcing_terms(config, norms)
    assert got[0] == 0.1 > got[1] > got[2] == 1e-4
    assert got[3:] == [0.5 * config.gradient_tol / norms[3]]


def test_the_last_step_solves_only_to_the_newton_tolerance(disk64):
    # at 1/64 the last step's squared-ratio term is 6.5e-11; the safeguard
    # lifts its CG target to 0.5 gradient_tol / grad_norm = 6.5e-3, which
    # takes 3 CG iterations instead of 7 (with linear_rtol 1e-8) and still
    # ends the solve in 4 Newton steps, below the tolerance
    _, _, rep = disk64
    config = SolverConfig()
    last = rep.steps[-1]
    assert last["cg_rtol"] == 0.5 * config.gradient_tol / last["grad_norm"]
    assert [s["cg_rtol"] for s in rep.steps] == _forcing_terms(
        config, [s["grad_norm"] for s in rep.steps]
    )
    assert rep.converged and rep.iterations == 4
    assert last["cg_iterations"] == 3
    assert rep.final_grad_norm <= config.gradient_tol


def test_cg_floor_rises_to_the_grid_floor(monkeypatch):
    # with the floor constant at 1e-14, below eps / h^2 = 9.09e-13 at 1/64,
    # and the forcing terms at 0, every step aims at the floor: none aims
    # below eps / h^2, near which the true residual stalls (7.4e-13 at the
    # last step), and every linear solve and the solve still converge
    monkeypatch.setattr(solver_module, "LINEAR_RTOL", 1e-14)
    monkeypatch.setattr(solver_module, "FORCING_MAX", 0.0)
    sp = singular_part(DISK, 1 / 64)
    rep = solve(sp)
    grid_floor = np.finfo(float).eps / sp.grid.h**2
    assert grid_floor == pytest.approx(9.09e-13, rel=1e-3)
    assert rep.converged and rep.linear_converged and rep.steps
    assert all(s["cg_rtol"] == grid_floor for s in rep.steps)
    json.dumps(rep.to_json_dict())  # a numpy eps leaves no numpy bool


def test_linear_converged_follows_the_true_residual(monkeypatch):
    # a linear solve whose recurrence meets linear_rtol while the true
    # residual of the returned step does not
    reported = []

    def stalled(op, prec, b, rtol, maxiter):
        x, residuals, _ = _pcg(op, prec, b, rtol, maxiter)
        reported.append(10.0 * rtol)
        return x, residuals, reported[-1]

    monkeypatch.setattr(solver_module, "_pcg", stalled)
    rep = solved(DISK, 1 / 64)
    assert rep.converged
    assert not rep.linear_converged
    assert len(rep.steps) == len(reported) > 0
    for s, true in zip(rep.steps, reported):
        assert s["cg_relres"] <= s["cg_rtol"]
        assert s["cg_true_relres"] == true
        assert s["linear_converged"] is False


def test_line_search_error_reports_linear_convergence(monkeypatch):
    # an energy that never decreases makes the first line search fail
    monkeypatch.setattr(solver_module, "energy_difference", lambda psi, mass, slope: 1.0)
    with pytest.raises(LineSearchError) as info:
        solved(DISK, 1 / 16)
    diagnostics = info.value.diagnostics
    assert set(diagnostics) == SHARED_STEP_KEYS | {"slope", "energy"}
    assert diagnostics["iteration"] == 1
    assert diagnostics["linear_converged"] is True
    assert diagnostics["cg_relres"] <= diagnostics["cg_rtol"] == 0.1


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def test_report_serializes(disk64):
    _, _, rep = disk64
    corollary4_check(rep, 2.0)
    verify_minimizer(rep, trials=3)
    payload = rep.to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    assert "energy_history" in payload
    assert payload["converged"] is True
    assert json.loads(text)["oracle"]["sup_error"] == rep.oracle["sup_error"]


def test_line_search_error_carries_diagnostics():
    err = LineSearchError("no decrease", {"iteration": 3, "grad_norm": 1.0})
    assert err.diagnostics["iteration"] == 3

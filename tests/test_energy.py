"""Tests for the renormalized energy: singular part assembly, the three-term
breakdown, exact derivative formulas, and the expansion identity."""

import math

import numpy as np
import pytest
from conftest import singular_part

from blowup.geometry import Annulus, Box, Disk, SmoothingProfile, default_profile
from blowup.grid import Grid, ScalarField, laplacian_of_distance
import blowup.energy as en

DISK = Disk((0.0, 0.0), 1.0)
ANNULUS = Annulus((0.0, 0.0), 0.5, 1.0)


@pytest.fixture(scope="module")
def disk_sp(disk_sp_128):
    return disk_sp_128


@pytest.fixture(scope="module")
def disk_grid(disk_sp):
    return disk_sp.grid


def _smooth_field(grid, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    base = scale * np.sin(3 * grid.points[:, 0]) * np.cos(2 * grid.points[:, 1])
    noise = 0.2 * scale * rng.standard_normal(grid.n_interior)
    # taper by the boundary distance so fields are Dirichlet-like
    return ScalarField(grid, (base + noise) * np.minimum(grid.delta, 0.5))


# ---------------------------------------------------------------------------
# singular part
# ---------------------------------------------------------------------------


def test_weight_is_exponential_of_profile(disk_sp):
    rel = np.abs(4.0 * np.exp(2.0 * disk_sp.v.values) - disk_sp.weight.values)
    assert np.max(rel / disk_sp.weight.values) < 1e-13


def test_distance_times_exponential_is_half(disk_sp):
    assert np.max(np.abs(disk_sp.d.values * np.exp(disk_sp.v.values) - 0.5)) < 1e-14


def test_spot_values_near_tenth_depth(disk_grid, disk_sp):
    i = int(np.argmin(np.abs(disk_grid.delta - 0.1)))
    assert disk_sp.v.values[i] == pytest.approx(1.6094, abs=2e-3)
    assert disk_sp.weight.values[i] == pytest.approx(100.0, rel=5e-3)
    assert disk_sp.r.values[i] == pytest.approx(-11.11, rel=3e-2)


def test_residual_is_big_o_of_inverse_distance():
    # |r| * d stays bounded by a modest constant wherever the stencil
    # resolves the profile (fixed physical band), stably under refinement;
    # inside the rim layer the discrete residual picks up the intrinsic
    # O(h^2/delta^4) truncation of the five-point stencil
    for h in (1 / 64, 1 / 128, 1 / 256):
        sp = singular_part(DISK, h)
        g = sp.grid
        band = g.delta > 0.05
        prod = np.abs(sp.r.values[band] * sp.d.values[band])
        assert np.max(prod) < 4.0


def test_saturated_zone_residual_equals_weight(disk_grid, disk_sp):
    prof = default_profile(DISK)
    deep = disk_grid.delta > prof.transition_end + 2.0 * disk_grid.h
    assert np.count_nonzero(deep) > 1000
    assert np.max(np.abs(disk_sp.r.values[deep] - disk_sp.weight.values[deep])) == 0.0


def test_continuum_residual_identity_zone(disk_grid, disk_sp):
    # where F is the identity and no ghost touches the stencil, the default
    # residual is exactly Lap(d)/d
    sel = disk_grid.full_stencil & (disk_grid.delta > 0.05) & (disk_grid.delta < 0.19)
    assert np.count_nonzero(sel) > 1000
    got = disk_sp.r.values[sel] * disk_sp.d.values[sel]
    dd = laplacian_of_distance(disk_grid, default_profile(DISK))
    assert np.max(np.abs(got - dd[sel])) < 1e-12


def test_lattice_residual_times_distance_converges_to_distance_laplacian():
    # the lattice residual satisfies r*d = Lap(d) on a fixed band up to a
    # second-order consistency error
    errs = []
    for h in (1 / 64, 1 / 256):
        sp = singular_part(DISK, h, residual_mode="lattice")
        g = sp.grid
        band = (g.delta > 0.1) & (g.delta < 0.19)
        dd = laplacian_of_distance(g, default_profile(DISK))[band]
        rel = np.abs(sp.r.values[band] * sp.d.values[band] - dd) / np.abs(dd)
        errs.append(np.max(rel))
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 0.02


def test_rim_ghost_correction_is_curvature_scaled(disk_grid, disk_sp):
    # the rim residual differs from the uncorrected closed form
    # Lap(d)/d + (1 - F'^2)/d^2 by exactly
    # (kappa/2) * (sum of ghost signed distances) / h^2
    prof = default_profile(DISK)
    delta = disk_grid.delta
    d = prof.value(delta)
    weight = 1.0 / d**2
    plain = laplacian_of_distance(disk_grid, prof) / d + (
        1.0 - prof.slope(delta) ** 2
    ) * weight
    diff = disk_sp.r.values - plain
    rim = ~disk_grid.full_stencil
    assert np.count_nonzero(diff[~rim]) == 0
    assert np.count_nonzero(diff[rim]) > 100
    expected = -0.5 * 1.0 * disk_grid.ghost_signed_sum() / disk_grid.h**2
    assert np.max(np.abs(diff - expected)) < 1e-9


def test_singular_part_takes_the_given_profile(disk_grid, disk_sp):
    # without a profile it is default_profile(grid.domain); with one, d is
    # that profile of the boundary distance
    assert np.array_equal(
        disk_sp.d.values, default_profile(disk_grid.domain).value(disk_grid.delta)
    )
    profile = SmoothingProfile(transition_start=0.1)
    sp = en.build_singular_part(disk_grid, profile)
    assert np.array_equal(sp.d.values, profile.value(disk_grid.delta))
    assert not np.array_equal(sp.d.values, disk_sp.d.values)


def test_grid_too_coarse_for_the_profile_is_refused():
    # the 0.5/1.0 annulus at h = 1/4: every interior node has delta >=
    # 0.2071, beyond transition_end 0.1875 (t0 = 0.0625), where Lap d = 0
    g = Grid(ANNULUS, 1 / 4)
    assert default_profile(ANNULUS).transition_end == 0.1875
    with pytest.raises(
        ValueError,
        match=r"too coarse.*h = 0\.25 .*distance 0\.2071 .*transition_end 0\.1875",
    ):
        en.build_singular_part(g)
    # one node short of transition_end is enough: the 4 x 0.03 strip at
    # h = 0.01 (delta 0.01 against 0.01125) keeps its singular part
    strip = Grid(Box((0.0, 0.0), (4.0, 0.03)), 0.01)
    assert float(strip.delta.min()) < default_profile(strip.domain).transition_end
    en.build_singular_part(strip)


def test_v_is_computed_from_d(disk_sp):
    assert np.array_equal(disk_sp.v.values, -np.log(2.0 * disk_sp.d.values))
    assert disk_sp.v.grid is disk_sp.grid


def test_residual_mode_rejected(disk_grid):
    with pytest.raises(ValueError):
        en.build_singular_part(disk_grid, residual_mode="spectral")


def test_singular_part_json(disk_sp):
    payload = disk_sp.to_json_dict()
    assert payload["full_stencil_nodes"] > 0
    assert payload["residual_mode"] == "continuum"
    assert payload["boundary_layer"] == "curvature"
    assert payload["l2_delta_d"] > 0


# ---------------------------------------------------------------------------
# energy breakdown
# ---------------------------------------------------------------------------


def test_energy_zero_field(disk_grid, disk_sp):
    e = en.energy(ScalarField.zeros(disk_grid), disk_sp)
    assert e.total == 0.0
    assert e.dirichlet_term == 0.0
    assert e.nonlinear_term == 0.0
    assert e.linear_term == 0.0


def test_nonlinear_term_nonnegative(disk_grid, disk_sp):
    for seed in range(5):
        e = en.energy(_smooth_field(disk_grid, seed), disk_sp)
        assert e.nonlinear_term >= 0.0
        assert e.total == pytest.approx(
            e.dirichlet_term + e.nonlinear_term + e.linear_term, rel=1e-15
        )


def test_nonlinear_integrand_pointwise_bound(disk_grid, disk_sp):
    # weight*(e^{2p}-1-2p) <= 2 (p/d)^2 e^{2|p|} at every node
    phi = _smooth_field(disk_grid, 3, scale=0.3)
    p = phi.values
    lhs = disk_sp.weight.values * (np.expm1(2 * p) - 2 * p)
    rhs = 2.0 * (p / disk_sp.d.values) ** 2 * np.exp(2 * np.abs(p))
    assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-300)


def test_energy_overflow_names_node(disk_grid, disk_sp):
    bad = ScalarField(disk_grid, np.full(disk_grid.n_interior, 200.0))
    x, y = disk_grid.points[0]
    with pytest.raises(en.ExponentOverflowError, match=rf"node 0 \({x:.4f}, {y:.4f}\)"):
        en.energy(bad, disk_sp)
    with pytest.raises(en.ExponentOverflowError):
        en.energy_gradient(bad, disk_sp)


def test_energy_grid_mismatch(disk_sp):
    other = Grid(DISK, 1 / 32)
    with pytest.raises(ValueError):
        en.energy(ScalarField.zeros(other), disk_sp)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_gradient_at_zero_is_residual(disk_grid, disk_sp):
    g0 = en.energy_gradient(ScalarField.zeros(disk_grid), disk_sp)
    assert np.array_equal(g0.values, disk_sp.r.values)


def test_gradient_matches_finite_differences(disk_grid, disk_sp):
    eps = 1e-5
    h2 = disk_grid.h**2
    for seed in range(10):
        phi = _smooth_field(disk_grid, seed)
        psi = _smooth_field(disk_grid, seed + 100)
        G = en.energy_gradient(phi, disk_sp)
        up = en.energy(ScalarField(disk_grid, phi.values + eps * psi.values), disk_sp)
        dn = en.energy(ScalarField(disk_grid, phi.values - eps * psi.values), disk_sp)
        fd = (up.total - dn.total) / (2 * eps)
        an = 2.0 * float(np.sum(G.values * psi.values)) * h2
        assert fd == pytest.approx(an, rel=1e-6)


def _hessian_apply(phi, sp, psi):
    """The second-variation operator at phi applied to the field psi."""
    apply_h, _ = en.hessian_operator(phi, sp)
    return ScalarField(psi.grid, apply_h(psi.values))


def test_hessian_zero_direction(disk_grid, disk_sp):
    phi = _smooth_field(disk_grid, 1)
    out = _hessian_apply(phi, disk_sp, ScalarField.zeros(disk_grid))
    assert np.all(out.values == 0.0)


def test_hessian_symmetric_and_positive(disk_grid, disk_sp):
    rng = np.random.default_rng(11)
    phi = _smooth_field(disk_grid, 2)
    for _ in range(5):
        a = ScalarField(disk_grid, rng.standard_normal(disk_grid.n_interior))
        b = ScalarField(disk_grid, rng.standard_normal(disk_grid.n_interior))
        Ha = _hessian_apply(phi, disk_sp, a)
        Hb = _hessian_apply(phi, disk_sp, b)
        sym_l = float(np.sum(Ha.values * b.values))
        sym_r = float(np.sum(a.values * Hb.values))
        assert sym_l == pytest.approx(sym_r, rel=1e-12)
        assert float(np.sum(Ha.values * a.values)) > 0.0


@pytest.mark.parametrize("h", [1 / 16, 1 / 128], ids=["one-block", "blocks"])
def test_hessian_product_bit_identical_to_the_whole_vector_form(h):
    # at 1/128 the product runs over several full blocks and a partial one
    sp = singular_part(DISK, h)
    grid = sp.grid
    phi = _smooth_field(grid, 8)
    apply_h, mass = en.hessian_operator(phi, sp)
    if h == 1 / 128:
        assert grid.n_interior > 2 * en._BLOCK and grid.n_interior % en._BLOCK
    rng = np.random.default_rng(9)
    for _ in range(3):
        psi = rng.standard_normal(grid.n_interior)
        assert np.array_equal(apply_h(psi), mass * psi - grid.laplacian(psi))


def test_hessian_is_gradient_derivative(disk_grid, disk_sp):
    eps = 1e-6
    phi = _smooth_field(disk_grid, 4)
    psi = _smooth_field(disk_grid, 5)
    up = en.energy_gradient(
        ScalarField(disk_grid, phi.values + eps * psi.values), disk_sp
    )
    dn = en.energy_gradient(
        ScalarField(disk_grid, phi.values - eps * psi.values), disk_sp
    )
    fd = (up.values - dn.values) / (2 * eps)
    an = _hessian_apply(phi, disk_sp, psi).values
    scale = np.max(np.abs(an))
    assert np.max(np.abs(fd - an)) < 1e-5 * scale


def test_summation_by_parts_polarization(disk_grid):
    # <-Lap a, b> h^2 equals the polarized forward-difference form exactly
    rng = np.random.default_rng(3)
    a = rng.standard_normal(disk_grid.n_interior)
    b = rng.standard_normal(disk_grid.n_interior)
    h2 = disk_grid.h**2
    pair = float(np.sum(-disk_grid.laplacian(a) * b)) * h2
    quad = 0.5 * (
        disk_grid.dirichlet_energy(a + b)
        - disk_grid.dirichlet_energy(a)
        - disk_grid.dirichlet_energy(b)
    )
    assert pair == pytest.approx(quad, rel=1e-11, abs=1e-11)


# ---------------------------------------------------------------------------
# expansion identity
# ---------------------------------------------------------------------------


def test_gap_zero_perturbation(disk_grid, disk_sp):
    w = _smooth_field(disk_grid, 6)
    lhs, rhs = en.energy_gap(ScalarField.zeros(disk_grid), w, disk_sp)
    assert lhs == 0.0
    assert rhs == 0.0


def test_gap_identity_exact(disk_grid, disk_sp):
    # lhs - rhs = 2 <phi, G(w)> h^2 holds for any w, converged or not
    h2 = disk_grid.h**2
    for seed in range(5):
        phi = _smooth_field(disk_grid, seed)
        w = _smooth_field(disk_grid, seed + 50)
        lhs, rhs = en.energy_gap(phi, w, disk_sp)
        cross = 2.0 * float(
            np.sum(phi.values * en.energy_gradient(w, disk_sp).values)
        ) * h2
        assert lhs - rhs == pytest.approx(cross, abs=1e-11 * (1 + abs(lhs)))
        assert rhs >= 0.0


def test_energy_difference_is_the_difference_of_energies(disk_grid, disk_sp):
    h2 = disk_grid.h**2
    for seed in range(3):
        w = _smooth_field(disk_grid, seed + 70)
        _, mass = en.hessian_operator(w, disk_sp)
        G = en.energy_gradient(w, disk_sp).values
        for amp in (1.0, 0.1, 0.01):
            psi = ScalarField(disk_grid, amp * _smooth_field(disk_grid, seed).values)
            slope = 2.0 * float(np.sum(G * psi.values)) * h2
            shifted = ScalarField(disk_grid, w.values + psi.values)
            direct = en.energy(shifted, disk_sp).total - en.energy(w, disk_sp).total
            got = en.energy_difference(psi, mass, slope)
            assert got == pytest.approx(direct, abs=1e-11 * (1 + abs(direct)))


def test_energy_difference_refuses_an_overflowing_step(disk_grid, disk_sp):
    _, mass = en.hessian_operator(ScalarField.zeros(disk_grid), disk_sp)
    psi = ScalarField(disk_grid, np.full(disk_grid.n_interior, 200.0))
    with pytest.raises(en.ExponentOverflowError, match="energy_difference"):
        en.energy_difference(psi, mass, 0.0)


def _reference_gap_rhs(phi, w, sp):
    """The expansion form as energy_gap computed it before it shared
    energy_difference."""
    two_phi = 2.0 * phi.values
    g = phi.grid
    return g.dirichlet_energy(phi.values) + float(
        np.sum(
            sp.weight.values * np.exp(2.0 * w.values) * (np.expm1(two_phi) - two_phi)
        )
    ) * g.h**2


def test_gap_rhs_bit_identical_to_its_reference(disk_grid, disk_sp):
    for seed in range(3):
        phi = _smooth_field(disk_grid, seed)
        w = _smooth_field(disk_grid, seed + 50)
        _, rhs = en.energy_gap(phi, w, disk_sp)
        assert rhs == _reference_gap_rhs(phi, w, disk_sp)


def test_energy_convex_along_segments(disk_grid, disk_sp):
    for seed in range(5):
        a = _smooth_field(disk_grid, seed, scale=0.2)
        b = _smooth_field(disk_grid, seed + 30, scale=0.2)
        mid = ScalarField(disk_grid, 0.5 * (a.values + b.values))
        ea = en.energy(a, disk_sp).total
        eb = en.energy(b, disk_sp).total
        em = en.energy(mid, disk_sp).total
        assert ea + eb >= 2.0 * em - 1e-10 * (1 + abs(ea) + abs(eb))


def test_breakdown_total_is_sum_of_terms(disk_grid, disk_sp):
    e = en.energy(_smooth_field(disk_grid, 9), disk_sp)
    assert e.total == e.dirichlet_term + e.nonlinear_term + e.linear_term
    assert e.dirichlet_term > 0.0

"""Tests for the weighted-inequality module: series, norms, constants,
Hardy quotients, and the proof-chain audit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup.geometry import Annulus, Box, Disk, Polygon, SmoothingProfile
from blowup.grid import Grid, ScalarField
from blowup.whitney import BumpFunction, WhitneyParams, decompose
from blowup import inequalities as ineq

UNIT_DISK = Disk((0.0, 0.0), 1.0)
UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
RING = Annulus(center=(0.0, 0.0), inner_radius=0.5, outer_radius=1.0)
OFFSET_BOX = Box((3.9 / 64, 3.9 / 64), (3.0 + 3.9 / 64, 3.0 + 3.9 / 64))
TINY_DISK = Disk((0.3, 0.1), 0.05)


def _r2(pts, center):
    """Squared distance of each point to center, the argument of radial_bump."""
    return np.sum((pts - np.asarray(center, dtype=float)) ** 2, axis=-1)


def _at_points(domain, pts):
    """The standard family at arbitrary points, as a name -> values dict."""
    return dict(
        ineq.standard_family(
            domain, pts[..., 0], pts[..., 1], domain.signed_distance(pts)
        )
    )


@pytest.fixture(scope="module")
def square_decomp():
    return decompose(UNIT_SQUARE, WhitneyParams(k_max=12))


@pytest.fixture(scope="module")
def constants(square_decomp):
    return square_decomp.constants


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_matches_exponential_closed_form():
    t = np.linspace(-4.0, 4.0, 161)
    got = ineq.phi_n(t, n=2)
    want = np.expm1(t**2)
    assert np.max(np.abs(got - want) / np.maximum(want, 1e-300)) < 1e-13


def test_series_zero_and_shape():
    assert ineq.phi_n(0.0) == 0.0
    out = ineq.phi_n(np.zeros((3, 4)))
    assert out.shape == (3, 4) and np.all(out == 0.0)
    assert isinstance(ineq.phi_n(1.5), float)


def test_series_three_dimensional_value():
    # for n = 3 the series at t = 1 sums 1/k! from k = 2, i.e. e - 2
    assert ineq.phi_n(1.0, n=3) == pytest.approx(math.e - 2.0, rel=1e-14)


def test_series_overflow_raises():
    with pytest.raises(ineq.SeriesOverflowError):
        ineq.phi_n(40.0, n=2)


def test_unit_ball_volumes():
    assert ineq.unit_ball_volume(1) == pytest.approx(2.0)
    assert ineq.unit_ball_volume(2) == pytest.approx(math.pi)
    assert ineq.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def square_grid():
    return Grid(UNIT_SQUARE, 1 / 128)


@pytest.fixture(scope="module")
def sine_field(square_grid):
    return dict(ineq.grid_family(square_grid))["sine_11"]


# the combined (M) norm is weighted_rhs at p = n = 2


def test_m_norm_homogeneous(sine_field):
    base = ineq.weighted_rhs(sine_field, 2)
    doubled = ineq.weighted_rhs(
        ScalarField(sine_field.grid, 2.0 * sine_field.values), 2
    )
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_m_norm_rejects_bad_exponent(sine_field):
    with pytest.raises(ValueError):
        ineq.weighted_rhs(sine_field, 0.5)


def test_gradient_energy_of_sine_mode(sine_field):
    # oracle: integral of |grad(sin pi x sin pi y)|^2 over the unit square
    # is pi^2/2.  Quadrature omits the boundary collar of width h/2 where
    # this gradient is largest, so convergence is first order; check the
    # value and that refinement moves it toward the oracle.
    want = math.pi**2 / 2.0

    def value(h):
        g = Grid(UNIT_SQUARE, h)
        gx, gy = g.gradient(dict(ineq.grid_family(g))["sine_11"].values)
        return float(np.sum(gx**2 + gy**2)) * g.h**2

    coarse, fine = value(1 / 128), value(1 / 256)
    assert coarse == pytest.approx(want, rel=2.5e-2)
    assert abs(fine - want) < abs(coarse - want)


def test_weighted_lhs_scaling(sine_field):
    q = 4.0
    base = ineq.weighted_lhs(sine_field, q)
    tripled = ineq.weighted_lhs(
        ScalarField(sine_field.grid, 3.0 * sine_field.values), q
    )
    assert tripled == pytest.approx(3.0 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_sobolev_bound_values():
    assert ineq.sobolev_bound(2, 2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    q = 7.0
    assert ineq.sobolev_bound(q, 2) == pytest.approx(
        (math.pi * q) ** (0.5 + 1.0 / q), rel=1e-14
    )
    with pytest.raises(ValueError):
        ineq.sobolev_bound(1.5, 2)


def test_sigma_rejects_low_exponent(constants):
    with pytest.raises(ValueError):
        ineq.sigma_q(constants, 1.0)


def test_sigma_closed_form(constants):
    lam = constants.delta_side_min
    mu = constants.delta_side_max
    c3 = constants.grad_bound
    P = constants.overlap_bound
    q = 4.0
    want = (
        2.0
        * P
        * (math.pi * q) ** (0.5 + 1.0 / q)
        * lam ** (-2.0 / q)
        * math.sqrt(1.0 + P * c3**2 * mu**2)
    )
    assert ineq.sigma_q(constants, q) == pytest.approx(want, rel=1e-13)


def test_sigma_regression_pin(constants):
    # regression pin for the default geometry parameters
    assert ineq.sigma_q(constants, 4) == pytest.approx(3.072815764335619e18, rel=1e-9)


def test_sigma_monotone_in_overlap(constants):
    import dataclasses

    bigger = dataclasses.replace(constants, overlap_bound=2 * constants.overlap_bound)
    for q in (3, 6, 20):
        assert ineq.sigma_q(bigger, q) > ineq.sigma_q(constants, q)


def test_sigma_growth_normalization_decreasing(constants):
    rows = ineq.sigma_growth_scan(constants, range(3, 61))
    vals = [r["normalized"] for r in rows]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert max(vals) == vals[0]


def test_aggregate_constant_recomputed(constants):
    P = constants.overlap_bound
    c3 = constants.grad_bound
    mu = constants.delta_side_max
    want = (2.0 * P * math.sqrt(1.0 + P * (c3 * mu) ** 2)) ** 2.0
    assert ineq.a_constant(constants) == pytest.approx(want, rel=1e-13)


def test_series_constant_against_high_precision_sum(constants):
    import mpmath

    res = ineq.c2_constant(4.0 * res_threshold(constants), constants)
    mpmath.mp.dps = 40
    A = mpmath.mpf(ineq.a_constant(constants))
    lam = mpmath.mpf(constants.delta_side_min)
    c1 = mpmath.mpf(res.c1)
    x = 2 * mpmath.pi * A / c1**2
    total = mpmath.mpf(0)
    q = 1
    while True:
        term = lam**-2 * 2 * mpmath.pi * x**q * mpmath.mpf(q) ** q / mpmath.factorial(q - 1)
        total += term
        if q > 5 and term < mpmath.mpf(10) ** -35 * total:
            break
        q += 1
    assert res.value == pytest.approx(float(total), rel=1e-10)
    assert not res.diverges
    assert res.tail_bound <= 1e-12 * res.value


def res_threshold(constants):
    return (math.e * math.pi * 2.0 * ineq.a_constant(constants)) ** 0.5


def test_series_constant_divergence_flag(constants):
    thr = res_threshold(constants)
    below = ineq.c2_constant(0.99 * thr, constants)
    above = ineq.c2_constant(1.01 * thr, constants)
    assert below.diverges and not above.diverges
    assert math.isinf(below.value)
    assert above.threshold_c1 == pytest.approx(thr, rel=1e-12)


def test_series_constant_decreasing_in_coupling(constants):
    thr = res_threshold(constants)
    v2 = ineq.c2_constant(2.0 * thr, constants).value
    v4 = ineq.c2_constant(4.0 * thr, constants).value
    v8 = ineq.c2_constant(8.0 * thr, constants).value
    assert v2 > v4 > v8 > 0.0


@pytest.mark.parametrize("n", [1, 0])
def test_series_constants_reject_dimension_below_2(constants, n):
    # n' = n / (n - 1) has no value at n = 1
    with pytest.raises(ValueError, match="dimension"):
        ineq.a_constant(constants, n=n)
    with pytest.raises(ValueError, match="dimension"):
        ineq.c2_constant(3.0, constants, n=n)


# ---------------------------------------------------------------------------
# Hardy quotients
# ---------------------------------------------------------------------------


def test_hardy_quotient_scale_invariant(sine_field):
    a = ineq.hardy_quotient(sine_field)
    b = ineq.hardy_quotient(ScalarField(sine_field.grid, 7.0 * sine_field.values))
    assert a == pytest.approx(b, rel=1e-12)


def test_hardy_quotient_zero_field_rejected(square_grid):
    with pytest.raises(ineq.DegenerateInputError):
        ineq.hardy_quotient(ScalarField.zeros(square_grid))


@pytest.mark.parametrize("domain", [UNIT_DISK, UNIT_SQUARE], ids=["disk", "square"])
def test_convex_family_quotients_below_two(domain):
    grid = Grid(domain, 1 / 64)
    for name, u in ineq.grid_family(grid):
        assert ineq.hardy_quotient(u) <= 2.0 + 0.05, name


def test_resolve_hardy_convex():
    est = ineq.resolve_hardy_constant(UNIT_DISK, Grid(UNIT_DISK, 1 / 64))
    assert est.value == 2.0
    assert "convex" in est.method
    assert est.empirical_max <= 2.05


def test_resolve_hardy_nonconvex():
    est = ineq.resolve_hardy_constant(RING, Grid(RING, 1 / 64))
    assert est.value >= 2.0
    assert "empirical" in est.method
    assert est.value >= est.empirical_max


# ---------------------------------------------------------------------------
# witness family
# ---------------------------------------------------------------------------


def test_radial_bump_rejects_sharp_exponent():
    with pytest.raises(ValueError):
        ineq.radial_bump(np.zeros(3), 1.0, 0.5)


def test_deep_point_avoids_reentrant_corner():
    p = ineq.deep_point(L_SHAPE)
    assert L_SHAPE.signed_distance(p) > 0.25


def test_family_members_vanish_at_boundary():
    theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    rim = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    family = _at_points(UNIT_DISK, rim)
    assert tuple(family) == ineq.FAMILY_NAMES
    for name, vals in family.items():
        assert np.max(np.abs(vals)) < 1e-12, name


def test_family_nontrivial_on_grid(square_grid):
    family = _at_points(UNIT_SQUARE, square_grid.points)
    assert tuple(family) == ineq.FAMILY_NAMES
    for name, vals in family.items():
        assert np.max(np.abs(vals)) > 1e-3, name


def _reference_standard_family(domain):
    """The witness family as separate pointwise closures, each recomputing
    its inputs: the oracle for the shared-input generator."""
    center = ineq.deep_point(domain)
    depth = float(domain.signed_distance(center))
    prof = SmoothingProfile(max(domain.inradius() / 3.0, 1e-3))
    lo, hi = domain.bounding_box()
    span = hi - lo

    def bump(radius, exponent):
        def f(pts):
            r2 = np.sum((pts - center) ** 2, axis=-1) / radius**2
            return np.maximum(0.0, 1.0 - r2) ** exponent

        return f

    def tent(pts):
        return prof.value(np.maximum(domain.signed_distance(pts), 0.0))

    def sine(k1, k2):
        def f(pts):
            a = np.sin(k1 * math.pi * (pts[..., 0] - lo[0]) / span[0])
            b = np.sin(k2 * math.pi * (pts[..., 1] - lo[1]) / span[1])
            return a * b if isinstance(domain, Box) else a * b * tent(pts)

        return f

    def log_cutoff(cut):
        def f(pts):
            return np.log1p(np.maximum(domain.signed_distance(pts), 0.0) / cut)

        return f

    out = [
        (f"bump_f{frac:.2f}_e{expo:.0f}", bump(frac * depth, expo))
        for frac in (0.95, 0.55)
        for expo in (1.0, 2.0, 3.0)
    ]
    out.append(("tent", tent))
    out += [(f"sine_{k1}{k2}", sine(k1, k2)) for k1, k2 in ((1, 1), (2, 1), (3, 2), (5, 3))]
    out += [(f"log_c{cut:g}", log_cutoff(cut)) for cut in (0.05, 0.2)]
    return out


def _reference_hardy_quotient(u):
    g = u.grid
    gx, gy = g.gradient(u.values)
    denom = math.sqrt(float(np.sum(gx**2 + gy**2)) * g.h**2)
    numer = math.sqrt(float(np.sum((u.values / g.delta) ** 2)) * g.h**2)
    return numer / denom


FAMILY_DOMAINS = [UNIT_DISK, UNIT_SQUARE, L_SHAPE, RING, OFFSET_BOX, TINY_DISK]
FAMILY_IDS = ["disk", "square", "lshape", "annulus", "offset-box", "tiny-disk"]


@pytest.mark.parametrize("h", [1 / 64, 1 / 250], ids=["h64", "h250"])
@pytest.mark.parametrize("domain", FAMILY_DOMAINS, ids=FAMILY_IDS)
def test_standard_family_bit_identical_to_reference(domain, h):
    grid = Grid(domain, h)
    pts = grid.points
    want = [(name, fn(pts)) for name, fn in _reference_standard_family(domain)]
    assert tuple(name for name, _ in want) == ineq.FAMILY_NAMES
    on_grid = ineq.standard_family(
        domain, grid.xs[:, None], grid.ys[None, :], grid.signed_dist
    )
    on_grid = {name: v[grid.interior_mask] for name, v in on_grid}
    for got in (on_grid, _at_points(domain, pts)):
        assert tuple(got) == ineq.FAMILY_NAMES
        for name, values in want:
            assert np.array_equal(got[name], values), name
    # grid_family: the same values, members zero at every node left out
    fields = dict(ineq.grid_family(grid))
    assert list(fields) == [name for name, values in want if np.any(values)]
    for name, values in want:
        if name in fields:
            assert np.array_equal(fields[name].values, values), name


def test_grid_family_leaves_out_members_zero_at_every_node(square_grid, monkeypatch):
    # no member of the real family vanishes on the grids above, so feed
    # grid_family a family with one member that does
    def family(domain, x, y, sd):
        yield "zero", np.zeros_like(sd)
        yield "ramp", np.maximum(sd, 0.0)

    monkeypatch.setattr(ineq, "standard_family", family)
    fields = dict(ineq.grid_family(square_grid))
    assert list(fields) == ["ramp"]
    assert np.array_equal(fields["ramp"].values, square_grid.delta)


@pytest.mark.parametrize("domain", FAMILY_DOMAINS, ids=FAMILY_IDS)
def test_resolve_hardy_matches_reference_loop(domain):
    grid = Grid(domain, 1 / 64)
    best, witness = 0.0, ""
    for name, fn in _reference_standard_family(domain):
        u = ScalarField(grid, fn(grid.points))
        if not np.any(u.values):
            continue
        val = _reference_hardy_quotient(u)
        if val > best:
            best, witness = val, name
    est = ineq.resolve_hardy_constant(domain, grid)
    assert (est.empirical_max, est.witness) == (best, witness)
    assert witness


# ---------------------------------------------------------------------------
# elementary inequalities used by the chain (property tests)
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20),
    st.floats(1.0, 4.0),
)
def test_power_sum_inequality(bs, r):
    b = np.asarray(bs)
    assert np.sum(b**r) <= np.sum(b) ** r * (1 + 1e-12) + 1e-300


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    st.floats(0.0, 1e3),
    st.floats(0.0, 1e3),
    st.floats(1.0, 4.0),
)
def test_two_term_split_inequality(x, y, r):
    assert (x + y) ** r <= 2**r * (x**r + y**r) * (1 + 1e-12) + 1e-300


# ---------------------------------------------------------------------------
# weighted embedding inequality across domains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "domain", [UNIT_DISK, UNIT_SQUARE, L_SHAPE], ids=["disk", "square", "lshape"]
)
def test_weighted_embedding_holds(domain):
    dec = decompose(domain, WhitneyParams(k_max=12))
    grid = Grid(domain, 1 / 64)
    rows_all = []
    for name, u in ineq.grid_family(grid):
        rows = ineq.embedding_report(u, dec.constants, [3, 4, 6, 10, 20])
        rows_all.extend((name, r) for r in rows)
    assert rows_all
    for name, r in rows_all:
        assert r["pass"], (name, r)
        assert r["ratio"] < 1.0


# ---------------------------------------------------------------------------
# proof-chain audit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def audit_setup(square_decomp):
    grid = Grid(UNIT_SQUARE, 1 / 250)
    u = ScalarField(grid, ineq.radial_bump(_r2(grid.points, (0.5, 0.5)), 0.45, 2.0))
    return u, square_decomp


def test_chain_audit_all_steps_pass(audit_setup):
    u, dec = audit_setup
    rep = ineq.chain_audit(u, dec, q=4)
    assert rep.all_passed
    assert rep.total_violations == 0
    names = [s.name for s in rep.steps]
    assert "partition_reconstruction" in names
    assert "scaled_sobolev" in names
    assert "gradient_split" in names
    assert "assembled_bound" in names


def test_chain_audit_exercises_transition_collars(audit_setup):
    # the 1/250 grid is incommensurate with the dyadic lattice, so the
    # partition gradients must be genuinely nonzero somewhere
    u, dec = audit_setup
    rep = ineq.chain_audit(u, dec, q=4)
    by_name = {s.name: s for s in rep.steps}
    assert by_name["partition_gradient_pointwise"].lhs > 1.0
    assert by_name["partition_reconstruction"].lhs <= 1e-12


@pytest.mark.parametrize("q", [3, 6, 10, 20])
def test_chain_audit_other_exponents(audit_setup, q):
    u, dec = audit_setup
    rep = ineq.chain_audit(u, dec, q=q)
    assert rep.all_passed, [s.name for s in rep.steps if not s.passed]


def test_chain_audit_rejects_bad_exponents(audit_setup):
    u, dec = audit_setup
    with pytest.raises(ValueError):
        ineq.chain_audit(u, dec, q=1.0)


def test_chain_audit_rejects_mismatched_bump(audit_setup):
    u, dec = audit_setup
    with pytest.raises(ValueError):
        ineq.chain_audit(u, dec, bump=BumpFunction(eta_prime=1.2), q=4)


def test_chain_audit_rejects_shallow_decomposition():
    shallow = decompose(UNIT_SQUARE, WhitneyParams(k_max=4))
    grid = Grid(UNIT_SQUARE, 1 / 64)
    u = ScalarField(grid, ineq.radial_bump(_r2(grid.points, (0.5, 0.5)), 0.4))
    with pytest.raises(ValueError, match="coverage cut"):
        ineq.chain_audit(u, shallow, q=4)


def test_chain_audit_partition_cache_follows_grid_and_decomposition(square_decomp):
    # consecutive audits change the grid, then the decomposition, then only
    # the function (a cache hit); a cache keyed on less than the grid and
    # the decomposition would hand back another grid's partition
    other = decompose(UNIT_SQUARE, WhitneyParams(eta=2.5, eta_prime=1.2, k_max=12))
    g250, g200 = Grid(UNIT_SQUARE, 1 / 250), Grid(UNIT_SQUARE, 1 / 200)

    def radial(g):
        return ineq.radial_bump(_r2(g.points, (0.5, 0.5)), 0.45, 2.0)

    def tent(g):
        return dict(ineq.grid_family(g))["tent"].values

    cases = [
        (g250, square_decomp, radial),
        (g200, square_decomp, radial),
        (g200, other, radial),
        (g250, other, radial),
        (g250, other, tent),
    ]
    fields = [ScalarField(g, fn(g)) for g, _, fn in cases]
    cached = [
        ineq.chain_audit(u, dec, q=4).to_json_dict()
        for u, (_, dec, _) in zip(fields, cases)
    ]
    for u, (_, dec, _), report in zip(fields, cases, cached):
        ineq._grid_partition.cache_clear()
        assert ineq.chain_audit(u, dec, q=4).to_json_dict() == report
    assert cached[0] != cached[1] and cached[1] != cached[2]


def test_chain_report_serializes(audit_setup):
    u, dec = audit_setup
    rep = ineq.chain_audit(u, dec, q=3)
    payload = rep.to_json_dict()
    assert payload["all_passed"] is True
    assert payload["total_violations"] == 0
    assert len(payload["steps"]) == len(rep.steps)
    assert all("lhs" in s and "rhs" in s for s in payload["steps"])


# ---------------------------------------------------------------------------
# exact partition gradients (finite-difference validation)
# ---------------------------------------------------------------------------


def test_bump_gradient_matches_finite_differences():
    bump = BumpFunction(1.05)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.6, 0.6, size=(4000, 2))
    grad = bump.gradient(pts)
    eps = 1e-7
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = eps
        fd = (bump.value(pts + shift) - bump.value(pts - shift)) / (2 * eps)
        mask = np.abs(grad[:, axis]) > 1e-3
        assert np.any(mask)
        rel = np.abs(fd[mask] - grad[mask, axis]) / np.abs(grad[mask, axis])
        assert np.max(rel) < 1e-5


def test_profile_derivative_zero_on_plateau_and_outside():
    bump = BumpFunction(1.05)
    t = np.array([-0.6, -0.525, -0.3, 0.0, 0.49, 0.5, 0.525, 0.8])
    d = bump.profile_derivative(t)
    assert np.all(d[np.abs(t) <= 0.5] == 0.0)
    assert np.all(d[np.abs(t) >= 0.525] == 0.0)
    mid = bump.profile_derivative(np.array([0.51]))
    assert mid[0] < 0.0


def test_orlicz_integral_zero_field(square_grid):
    assert ineq.orlicz_boundary_integral(ScalarField.zeros(square_grid), 1.0) == 0.0


def test_orlicz_integral_finite(sine_field):
    val = ineq.orlicz_boundary_integral(sine_field, 2.0)
    assert 0.0 < val < math.inf

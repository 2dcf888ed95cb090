"""Tests for the weighted-inequality module: series, norms, constants,
Hardy quotients, and the proof-chain audit."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup.geometry import Annulus, Box, Disk, Polygon, SmoothingProfile, deepest_point
from blowup.grid import Grid, ScalarField
from blowup.whitney import BumpFunction, WhitneyParams, decompose, derive_constants
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
def square_decomp(square_decomp_12):
    return square_decomp_12


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
    base = ineq.weighted_rhs(sine_field)
    doubled = ineq.weighted_rhs(ScalarField(sine_field.grid, 2.0 * sine_field.values))
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


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


@pytest.mark.parametrize("c1", [math.nan, math.inf])
def test_c2_rejects_a_coupling_not_positive_and_finite(constants, c1):
    # NaN once ran the whole series to value nan, and inf failed in math.log
    with pytest.raises(ValueError, match="positive and finite"):
        ineq.c2_constant(c1, constants)


@pytest.mark.parametrize("c1", [1e-300, 1e300])
def test_c2_at_couplings_whose_power_leaves_the_float_range(constants, c1):
    # c1**2 underflows to 0 or overflows; the series diverges below the
    # threshold and is finite above it, here flushed to 0
    res = ineq.c2_constant(c1, constants)
    assert res.diverges is (c1 < res.threshold_c1)
    assert res.value == (math.inf if res.diverges else 0.0)


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
    assert ineq.sigma_q(constants, 4) == pytest.approx(3.794387868470e8, rel=1e-9)


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


def test_series_constant_never_raises_above_the_threshold(constants):
    # c1 = threshold (1 + 10^-k): from about k = 4 on the sum needs more
    # than C2_MAX_TERMS terms, and the result is a certified upper bound
    thr = ineq.c2_constant(1.0, constants).threshold_c1
    values = []
    for k in range(1, 13):
        res = ineq.c2_constant(thr * (1.0 + 10.0**-k), constants)
        assert not res.diverges
        assert math.isfinite(res.value)
        assert 0.0 < res.tail_bound <= res.value
        values.append(res.value)
    # the sum grows as c1 falls towards the threshold, and so do the bounds
    assert values == sorted(values)
    assert res.terms_used == ineq.C2_MAX_TERMS
    assert res.tail_bound > ineq.C2_TAIL_RTOL * res.value


def test_series_tail_bound_from_the_cap_is_an_upper_bound(constants, monkeypatch):
    # 10^-3 above the threshold the sum certifies in 14,738 terms; capped at
    # 1000, the partial sum falls short of it and the partial sum plus
    # Robbins' tail bound does not
    c1 = ineq.c2_constant(1.0, constants).threshold_c1 * 1.001
    exact = ineq.c2_constant(c1, constants)
    assert exact.terms_used == 14738
    assert exact.tail_bound <= ineq.C2_TAIL_RTOL * exact.value
    monkeypatch.setattr(ineq, "C2_MAX_TERMS", 1000)
    capped = ineq.c2_constant(c1, constants)
    assert capped.terms_used == 1000
    assert capped.value - capped.tail_bound < exact.value <= capped.value


def test_series_constants_reject_dimension_below_2():
    # n' = n / (n - 1) has no value at n = 1; WhitneyParams refuses n = 0
    constants = derive_constants(WhitneyParams(dim=1))
    with pytest.raises(ValueError, match="dimension"):
        ineq.a_constant(constants)
    with pytest.raises(ValueError, match="dimension"):
        ineq.c2_constant(3.0, constants)


def test_constants_carry_the_dimension(sine_field):
    # the values `constants --N 3` reports; a dimension passed next to the
    # constants could disagree with theirs
    constants = derive_constants(WhitneyParams(dim=3))
    assert ineq.sigma_q(constants, 4.0) == 56344613727.75909
    assert ineq.c2_constant(1.0, constants).threshold_c1 == 4660960424.640298
    # a grid is planar
    with pytest.raises(ValueError, match="planar"):
        ineq.embedding_report(sine_field, constants, [4.0])


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
    grid = Grid(UNIT_DISK, 1 / 64)
    best, witness = ineq.hardy_witness_max(grid)
    assert best <= 2.05
    assert witness
    est = ineq.resolve_hardy_constant(grid)
    assert est == ineq.HardyEstimate(2.0, None, "convex literature value", None)


def test_resolve_hardy_nonconvex():
    est = ineq.resolve_hardy_constant(Grid(RING, 1 / 64))
    assert est.value >= 2.0
    assert "empirical" in est.method
    assert est.value >= est.empirical_max


# resolve_hardy_constant on non-convex domains at h = 1/64, as measured
# before the witness loop became hardy_witness_max: (value, empirical_max,
# witness), the floats as float.hex
NONCONVEX_HARDY = {
    "lshape": (L_SHAPE, "0x1.0000000000000p+1", "0x1.92100abcca99bp+0", "log_c0.05"),
    "annulus": (RING, "0x1.0000000000000p+1", "0x1.80029a43fcffcp+0", "log_c0.05"),
}


@pytest.mark.parametrize(
    "domain, value, empirical_max, witness", NONCONVEX_HARDY.values(), ids=list(NONCONVEX_HARDY)
)
def test_resolve_hardy_nonconvex_bit_for_bit(domain, value, empirical_max, witness):
    est = ineq.resolve_hardy_constant(Grid(domain, 1 / 64))
    assert est == ineq.HardyEstimate(
        float.fromhex(value), float.fromhex(empirical_max), "empirical with margin", witness
    )


# ---------------------------------------------------------------------------
# witness family
# ---------------------------------------------------------------------------


def test_radial_bump_rejects_sharp_exponent():
    with pytest.raises(ValueError):
        ineq.radial_bump(np.zeros(3), 1.0, 0.5)


def test_deep_point_avoids_reentrant_corner():
    p, _ = deepest_point(L_SHAPE, 256)
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
    center = deepest_point(domain, 256)[0]
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
    assert ineq.hardy_witness_max(grid) == (best, witness)
    assert witness
    est = ineq.resolve_hardy_constant(grid)
    reported = (None, None) if domain.is_convex() else (best, witness)
    assert (est.empirical_max, est.witness) == reported


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


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_exponents_must_be_finite(audit_setup, q):
    u, dec = audit_setup
    calls = {
        "sobolev_bound": lambda: ineq.sobolev_bound(q, 2),
        "sigma_q": lambda: ineq.sigma_q(dec.constants, q),
        "weighted_lhs": lambda: ineq.weighted_lhs(u, q),
        "chain_audit": lambda: ineq.chain_audit(u, dec, q=q),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="finite"):
            call()
            pytest.fail(f"{name} accepted q={q}")


def test_chain_audit_rejects_shallow_decomposition():
    shallow = decompose(UNIT_SQUARE, WhitneyParams(k_max=4))
    grid = Grid(UNIT_SQUARE, 1 / 64)
    u = ScalarField(grid, ineq.radial_bump(_r2(grid.points, (0.5, 0.5)), 0.4))
    # the message names the nearest node's distance (one step, 1/64), the
    # cut and the depth
    cut = f"{shallow.constants.epsilon_cut:.6g}"
    message = rf"\(smallest delta 0.015625 <= epsilon_cut {cut} at k_max 4\)"
    with pytest.raises(ValueError, match=message):
        ineq.chain_audit(u, shallow, q=4)


def test_chain_audit_rejects_a_decomposition_of_another_domain(audit_setup, monkeypatch):
    # the audit takes distances at the grid's nodes: a disk's cubes on the
    # square's grid would be audited against the wrong boundary.  (The
    # square's own decomposition is of an equal but separate Box object,
    # which the other audit tests accept.)
    u, _ = audit_setup
    disk_decomp = decompose(UNIT_DISK, WhitneyParams(k_max=6))

    def unreachable(*args, **kwargs):
        raise AssertionError("the partition was built before the domain check")

    monkeypatch.setattr(ineq, "_grid_partition", unreachable)
    with pytest.raises(ValueError, match="different domains"):
        ineq.chain_audit(u, disk_decomp)


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


# oracle for the audit: the partition record and the audit as first written,
# against which every report must match to the last bit


def _reference_grid_partition(grid, decomp, bump):
    """The partition record as first written: (incidence, axis) arrays,
    ``np.add.at`` scatters and cube numbers from ``np.unique``."""
    pts = grid.points
    n = decomp.params.dim
    pid, gid, _, _, phi_ref, psi = decomp.partition_values(pts)
    ks, ms, _, _ = decomp.arrays()
    lev, m = ks[gid], ms[gid]
    _, gci = np.unique(gid, return_inverse=True)
    C = int(gci.max()) + 1 if len(gci) else 0
    sides = 2.0 ** (-lev.astype(float))
    centers = (m + 0.5) * sides[:, None]
    offs = (pts[pid] - centers) / sides[:, None]
    w_part = phi_ref / psi[pid]
    s_cube = np.zeros(C)
    s_cube[gci] = sides

    recon = np.zeros(len(pts))
    np.add.at(recon, pid, w_part)
    recon_worst = float(np.abs(recon - 1.0).max()) if len(pts) else 0.0

    gref = bump.gradient(offs) / sides[:, None]
    grad_psi = np.zeros((len(pts), n))
    np.add.at(grad_psi, pid, gref)
    grad_w = (gref * psi[pid][:, None] - phi_ref[:, None] * grad_psi[pid]) / (
        psi[pid] ** 2
    )[:, None]
    gw2 = np.sum(grad_w**2, axis=-1)
    s_grad = sides * np.sqrt(gw2)
    grad_worst = float(s_grad.max()) if len(s_grad) else 0.0

    for a in (pid, gci, sides, s_cube, w_part, grad_w, gw2):
        a.flags.writeable = False
    return SimpleNamespace(
        pid=pid, gci=gci, cube_count=C, sides=sides, s_cube=s_cube, w_part=w_part,
        grad_w=grad_w, gw2=gw2, recon_worst=recon_worst, grad_worst=grad_worst,
    )


def _reference_chain_audit(u, decomp, bump=None, q=4.0):
    """The audit as first written: (incidence, axis) gradients, repeated
    gathers and ``np.add.at`` cube sums, and its own gradient of u for the
    combined norm."""
    n = decomp.params.dim
    if q < n:
        raise ValueError("q must be at least n")
    if bump is None:
        bump = decomp.bump
    elif bump.eta_prime != decomp.params.eta_prime:
        raise ValueError("bump support dilation must match the decomposition")
    g = u.grid
    cst = decomp.constants
    delta = g.delta
    if float(delta.min()) <= cst.epsilon_cut:
        raise ValueError(
            "interior nodes reach below the coverage cut; deepen the "
            "decomposition or coarsen the grid"
        )
    part = _reference_grid_partition(g, decomp, bump)
    pid, gci, C, sides = part.pid, part.gci, part.cube_count, part.sides
    w_part, grad_w, gw2, s_cube = part.w_part, part.grad_w, part.gw2, part.s_cube
    h = g.h
    uv = u.values
    gx, gy = g.gradient(uv)
    Du = np.stack([gx, gy], axis=-1)
    du2 = gx**2 + gy**2
    G_tot = float(np.sum(du2)) * h**2
    W_tot = float(np.sum(uv**2 / delta**2)) * h**2
    lhs_total = float(np.sum(np.abs(uv) ** q / delta**n)) * h**2

    report = ineq.ChainReport(
        q=q, p=float(n), cube_count=C, node_count=len(g.points), incidence_count=len(pid)
    )

    def gsum(x):
        out = np.zeros(C)
        np.add.at(out, gci, x)
        return out

    # step: the partition reconstructs u exactly on covered nodes
    report.steps.append(
        ineq.ChainStep(
            "partition_reconstruction",
            part.recon_worst <= 1e-12,
            part.recon_worst,
            1e-12,
            detail="max deviation of the weight sum from 1 at interior nodes",
        )
    )

    # exact partition gradients via the quotient rule
    report.steps.append(
        ineq.ChainStep(
            "partition_gradient_pointwise",
            part.grad_worst <= cst.grad_bound,
            part.grad_worst,
            cst.grad_bound,
            detail="side-scaled exact partition gradient against the derived bound",
        )
    )

    # per-incidence localized pieces
    v = uv[pid] * w_part
    Dv = w_part[:, None] * Du[pid] + uv[pid][:, None] * grad_w
    dv2 = np.sum(Dv**2, axis=-1)
    dn = delta[pid]

    L = gsum(np.abs(v) ** q / dn**n) * h**2
    Iq = gsum(np.abs(v) ** q) * h**2
    vhat_q = Iq / s_cube**n
    dv_mass = gsum(dv2) * h**2
    vmass_scaled = gsum(v**2 / sides**2) * h**2
    K2 = dv_mass + vmass_scaled
    grad_piece = gsum(w_part**2 * du2[pid]) * h**2
    cross_piece = gsum(uv[pid] ** 2 * gw2) * h**2
    G_cube = gsum(du2[pid]) * h**2
    W_cube = gsum(uv[pid] ** 2 / dn**2) * h**2

    P = cst.overlap_bound
    lam = cst.delta_side_min
    mu = cst.delta_side_max
    c3 = cst.grad_bound
    S = ineq.sobolev_bound(q, n)

    # localization: |sum of <= P terms|^q <= P^q * sum of |term|^q
    rhs = P**q * float(L.sum())
    report.steps.append(
        ineq.ChainStep(
            "localization",
            lhs_total <= rhs * (1 + ineq._EPS),
            lhs_total,
            rhs,
            detail="whole-domain weighted power against the localized sum",
        )
    )

    # distance window: delta >= lambda * side on supports
    rhs_off = lam ** (-n) * vhat_q
    bad = L > rhs_off * (1 + ineq._EPS)
    report.steps.append(
        ineq.ChainStep(
            "support_weight_offload",
            not np.any(bad),
            float(L.max()) if C else 0.0,
            float(rhs_off.max()) if C else 0.0,
            violations=int(np.count_nonzero(bad)),
            detail="per-cube weighted power against the unweighted one",
        )
    )

    # scaled Sobolev on each support
    lhs_sob = vhat_q ** (1.0 / q)
    rhs_sob = S * np.sqrt(K2)
    bad = lhs_sob > rhs_sob * (1 + 1e-9)
    report.steps.append(
        ineq.ChainStep(
            "scaled_sobolev",
            not np.any(bad),
            float((lhs_sob / np.maximum(rhs_sob, 1e-300)).max()) if C else 0.0,
            1.0,
            violations=int(np.count_nonzero(bad)),
            detail="per-cube q-norm of the localized piece against the embedding "
            "bound times its scaled gradient norm (ratio reported)",
        )
    )

    # gradient split with the crude 2^r constant
    split_rhs = 4.0 * grad_piece + 4.0 * cross_piece
    bad = dv_mass > split_rhs * (1 + ineq._EPS)
    report.steps.append(
        ineq.ChainStep(
            "gradient_split",
            not np.any(bad),
            float(dv_mass.max()) if C else 0.0,
            float(split_rhs.max()) if C else 0.0,
            violations=int(np.count_nonzero(bad)),
            detail="product-rule split of the localized gradient mass",
        )
    )

    # transfer support-scale weights onto boundary-distance weights
    ok1 = grad_piece <= G_cube * (1 + ineq._EPS)
    ok2 = cross_piece <= (c3**2 / s_cube**2) * (gsum(uv[pid] ** 2) * h**2) * (1 + ineq._EPS)
    ok3 = cross_piece <= c3**2 * mu**2 * W_cube * (1 + ineq._EPS)
    ok4 = vmass_scaled <= mu**2 * W_cube * (1 + ineq._EPS)
    bad = ~(ok1 & ok2 & ok3 & ok4)
    report.steps.append(
        ineq.ChainStep(
            "support_weight_transfer",
            not np.any(bad),
            float(cross_piece.max()) if C else 0.0,
            float((c3**2 * mu**2 * W_cube).max()) if C else 0.0,
            violations=int(np.count_nonzero(bad)),
            detail="partition bounds and the distance window move support "
            "sums onto the weighted norms",
        )
    )

    # overlap aggregation
    lhs_g = float(G_cube.sum())
    lhs_w = float(W_cube.sum())
    ok = lhs_g <= P * G_tot * (1 + ineq._EPS) and lhs_w <= P * W_tot * (1 + ineq._EPS)
    report.steps.append(
        ineq.ChainStep(
            "overlap_aggregation",
            ok,
            max(lhs_g, lhs_w),
            max(P * G_tot, P * W_tot),
            detail="summed support integrals against the overlap bound times "
            "the whole-domain integrals",
        )
    )

    # power-sum collapse: sum b^r <= (sum b)^r for r = q/p >= 1
    lhs_c = float(np.sum(K2 ** (q / 2.0)))
    rhs_c = float(K2.sum()) ** (q / 2.0)
    report.steps.append(
        ineq.ChainStep(
            "power_sum_collapse",
            lhs_c <= rhs_c * (1 + ineq._EPS),
            lhs_c,
            rhs_c,
            detail="elementary power-sum inequality over the cube family",
        )
    )

    # assembled final bound, in logs to dodge overflow at large q
    bracket = 4.0 * P * G_tot + (4.0 * c3**2 + 1.0) * mu**2 * P * W_tot
    log_assembled = (
        q * math.log(P)
        - n * math.log(lam)
        + q * math.log(S)
        + (q / 2.0) * math.log(bracket)
    )
    log_lhs = math.log(lhs_total) if lhs_total > 0 else -math.inf
    report.steps.append(
        ineq.ChainStep(
            "assembled_bound",
            log_lhs <= log_assembled + ineq._EPS,
            log_lhs,
            log_assembled,
            detail="log of the weighted power against the log of the chained bound",
        )
    )

    # closure against the single-constant form
    final = math.exp(log_assembled / q)
    rhs_m = ineq.weighted_rhs(u)
    sig = ineq.sigma_q(cst, q)
    report.steps.append(
        ineq.ChainStep(
            "dominated_by_sigma_bound",
            final <= sig * rhs_m * (1 + ineq._EPS) or rhs_m == 0.0,
            final,
            sig * rhs_m,
            detail="chained bound against the closed-form constant times the "
            "combined norm",
        )
    )
    return report


@pytest.fixture(scope="module")
def lshape_decomp():
    return decompose(L_SHAPE, WhitneyParams(k_max=10))


def _assert_same_reports(u, dec, q):
    got = ineq.chain_audit(u, dec, q=q).to_json_dict()
    want = _reference_chain_audit(u, dec, q=q).to_json_dict()
    assert got == want
    # json keeps the sign of a zero, which == does not see
    assert json.dumps(got) == json.dumps(want)


def test_chain_audit_matches_reference_on_the_dyadic_square(square_decomp):
    # h = 1/64 puts every node on a plateau: the collars carry no node
    names = []
    for name, u in ineq.grid_family(Grid(UNIT_SQUARE, 1 / 64)):
        names.append(name)
        _assert_same_reports(u, square_decomp, 4.0)
    assert names == list(ineq.FAMILY_NAMES)


@pytest.mark.parametrize("q", [3.0, 4.0, 6.0])
def test_chain_audit_matches_reference_on_the_lshape_off_the_lattice(lshape_decomp, q):
    # 1/90 divides no power of two, so nodes fall in the transition collars
    # and the gradient steps compare nonzero partition gradients
    grid = Grid(L_SHAPE, 1 / 90)
    family = list(ineq.grid_family(grid))
    assert len(family) == len(ineq.FAMILY_NAMES)
    for _, u in family:
        _assert_same_reports(u, lshape_decomp, q)
    part = ineq._grid_partition(grid, lshape_decomp)
    assert part.grad_worst > 1.0


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

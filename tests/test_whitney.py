"""Dyadic decomposition tests.

Constants are recomputed here with fresh arithmetic, the overlap bound is
crosschecked against a brute-force count of supports, and cube-level claims
are re-verified with plain norm computations independent of the geometry
predicates used during selection.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from blowup import whitney
from blowup.geometry import _CHUNK, Annulus, Box, Disk, Polygon, _fold, domain_from_json
from blowup.grid import Grid
from blowup.svg import decomposition_to_svg
from blowup.whitney import (
    BumpFunction,
    TruncationError,
    WhitneyDecomposition,
    WhitneyParams,
    _cube_checks,
    _cube_geometry,
    _distinct_rows,
    _nested_pairs,
    _sample_beyond_cut,
    _smoothstep,
    decompose,
    derive_constants,
    verify_properties,
)

UNIT_DISK = Disk()
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
# two reflex corners and slanted edges
HEXAGON = Polygon([(0, 0), (2, 0.5), (4, 0), (3, 2), (2, 1.2), (1, 2)])
RING = Annulus(center=(0.0, 0.0), inner_radius=0.5, outer_radius=1.0)

ROOT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# parameters and constants
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        WhitneyParams(eta=1.5, eta_prime=1.2)  # 1.5/sqrt(2) < 1.2
    with pytest.raises(ValueError):
        WhitneyParams(eta_prime=0.9)
    with pytest.raises(ValueError):
        WhitneyParams(dim=0)
    WhitneyParams()  # defaults are valid


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["eta", "eta_prime"])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="finite eta"):
        WhitneyParams(**{name: value})


@pytest.mark.parametrize("value", [10.5, 2.0, True, False, "2"])
@pytest.mark.parametrize("name", ["dim", "k_max"])
def test_params_reject_levels_and_dimensions_that_are_not_integers(name, value):
    # a float once failed with a TypeError inside decompose, and k_max=True
    # ended in a TruncationError
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        WhitneyParams(**{name: value})
    assert getattr(WhitneyParams(**{name: np.int64(2)}), name) == 2


def test_constants_closed_forms():
    # hand-computed for eta=2, eta_prime=1.05, dim=2
    params = WhitneyParams()
    cst = derive_constants(params)
    lam = (2.0 - 1.05 * ROOT2) / 2.0
    mu = (2.0 + 0.5 + 0.525) * ROOT2
    assert cst.delta_side_min == pytest.approx(0.2575378797, rel=1e-9)
    assert cst.delta_side_max == pytest.approx(4.2779960262, rel=1e-9)
    assert cst.delta_side_min == pytest.approx(lam, rel=1e-14)
    assert cst.delta_side_max == pytest.approx(mu, rel=1e-14)
    assert cst.side_ratio_bound == pytest.approx(mu / lam, rel=1e-12)
    assert cst.side_ratio_bound == pytest.approx(16.61113, rel=1e-5)
    assert cst.level_window == pytest.approx(math.log2(mu / lam), rel=1e-12)
    assert cst.center_window == pytest.approx(
        (1.0 + mu / lam) * 1.05 * ROOT2 / 2.0, rel=1e-12
    )
    assert cst.epsilon_cut == pytest.approx(mu * 2.0**-14, rel=1e-12)
    # positivity orderings
    assert 0 < cst.delta_side_min < 1 < cst.delta_side_max
    assert cst.side_ratio_bound > 4


def _support_count(x, delta, cst):
    """Number of cubes (k, m) with side 2**-k in [delta / delta_side_max,
    delta / delta_side_min] whose closed eta_prime support holds the point
    x, counted per axis over every index within 3 of x / side."""
    count = 0
    for k in range(-10, 40):
        s = 2.0**-k
        if not delta / cst.delta_side_max <= s <= delta / cst.delta_side_min:
            continue
        per_axis = [
            sum(
                abs(xi - (m + 0.5) * s) <= cst.eta_prime * s / 2.0
                for m in range(math.floor(xi / s) - 3, math.floor(xi / s) + 4)
            )
            for xi in x
        ]
        count += math.prod(per_axis)
    return count


@pytest.mark.parametrize("dim, bound", [(2, 20), (3, 48)])
def test_overlap_bound_against_bruteforce_support_count(dim, bound):
    # domain-free: any point x with boundary distance delta lies only in
    # supports whose side is in the delta/side window; the bound holds at
    # random points, at points on dyadic lattices and at window edges, and
    # a lattice vertex with delta = delta_side_max / 8 attains it
    cst = derive_constants(WhitneyParams(dim=dim))
    assert cst.overlap_bound == bound
    rng = np.random.default_rng(dim)
    for i in range(300):
        x = rng.uniform(-3.0, 3.0, dim)
        if i % 2:
            x = np.round(x * 2.0 ** (i % 7)) / 2.0 ** (i % 7)
        delta = rng.uniform(1e-3, 2.0)
        if i % 3 == 0:
            delta = cst.delta_side_max * 2.0 ** -int(rng.integers(0, 8))
        assert _support_count(x, delta, cst) <= cst.overlap_bound
    vertex = np.zeros(dim)
    for x in (vertex, vertex + 2.0 ** (dim - 1)):
        assert _support_count(x, cst.delta_side_max / 8.0, cst) == cst.overlap_bound


def test_grad_bound_structure():
    params = WhitneyParams()
    bump = BumpFunction(1.05)
    cst = derive_constants(params)
    assert cst.ref_slope_bound == pytest.approx(ROOT2 * bump.max_slope(), rel=1e-12)
    assert cst.ref_slope_bound == pytest.approx(ROOT2 * 80.0, rel=1e-15)
    assert cst.grad_bound == pytest.approx(
        cst.ref_slope_bound * (1 + cst.overlap_bound * cst.side_ratio_bound), rel=1e-12
    )
    assert cst.grad_bound == pytest.approx(3.76998e4, rel=1e-5)


# ---------------------------------------------------------------------------
# bump function
# ---------------------------------------------------------------------------


def test_bump_plateau_and_support():
    bump = BumpFunction(1.05)
    ts = np.array([0.0, 0.2, 0.5, -0.5])
    assert np.all(bump.profile(ts) == 1.0)
    ts = np.array([0.525, 0.6, 2.0, -0.53])
    assert np.all(bump.profile(ts) == 0.0)
    mid = bump.profile(np.linspace(0.501, 0.524, 50))
    assert np.all((mid > 0) & (mid < 1))
    # monotone decrease across the transition
    assert np.all(np.diff(bump.profile(np.linspace(0.5, 0.525, 200))) <= 1e-15)


def test_bump_tensor_product():
    bump = BumpFunction(1.05)
    y = np.array([[0.1, 0.51], [0.52, 0.52], [0.0, 0.0]])
    expect = bump.profile(y[:, 0]) * bump.profile(y[:, 1])
    assert bump.value(y) == pytest.approx(expect, rel=1e-14)
    assert bump.value(np.array([0.3, -0.4])) == 1.0
    assert bump.value(np.array([0.3, 0.6])) == 0.0


def test_bump_flat_at_seams():
    # C-infinity gluing: values approach the plateau faster than any power
    bump = BumpFunction(1.05)
    assert 1.0 - bump.profile(0.5 + 1e-4) < 1e-50
    assert bump.profile(0.525 - 1e-4) < 1e-50


def test_max_slope_magnitude():
    # the closed form 2 / width bounds |g'| on a fine sample of the
    # transition and is reached there up to rounding: the sampled maxima are
    # 79.99999999999991, 13.333... and 4.0
    for eta_prime in (1.05, 1.3, 2.0):
        bump = BumpFunction(eta_prime)
        assert bump.max_slope() == 2.0 / ((eta_prime - 1.0) / 2.0)
        ts = np.linspace(0.5, eta_prime / 2.0, 2_000_000)
        worst = np.abs(bump.profile_derivative(ts)).max()
        assert worst <= bump.max_slope()
        assert worst == pytest.approx(bump.max_slope(), rel=1e-12)


def _reference_smoothstep(t):
    """The step with both exponentials over every entry, as first written."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
        return a / (a + b)


def _reference_profile(eta_prime, t):
    t = np.abs(np.asarray(t, dtype=float))
    width = (eta_prime - 1.0) / 2.0
    return _reference_smoothstep((eta_prime / 2.0 - t) / width)


def _reference_profile_derivative(eta_prime, t):
    t = np.asarray(t, dtype=float)
    width = (eta_prime - 1.0) / 2.0
    tau = (eta_prime / 2.0 - np.abs(t)) / width
    inside = (tau > 0.0) & (tau < 1.0)
    tc = np.clip(tau, 1e-12, 1.0 - 1e-12)
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.exp(-1.0 / tc)
        b = np.exp(-1.0 / (1.0 - tc))
        sprime = a * b * (tc**-2 + (1.0 - tc) ** -2) / (a + b) ** 2
    return np.where(inside, -np.sign(t) * sprime / width, 0.0)


def _reference_gradient(eta_prime, y):
    y = np.asarray(y, dtype=float)
    g = _reference_profile(eta_prime, y)
    gp = _reference_profile_derivative(eta_prime, y)
    cols = []
    for i in range(y.shape[-1]):
        others = np.prod(np.delete(g, i, axis=-1), axis=-1)
        cols.append(gp[..., i] * others)
    return np.stack(cols, axis=-1)


def _assert_same_values(got, want):
    """Equal shape and values, NaN where the reference has NaN, and the sign
    of every zero kept."""
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True), (got, want)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got)[real], np.signbit(want)[real])


@pytest.mark.parametrize("eta_prime", [1.05, 1.3])
def test_bump_kernels_match_full_evaluation_reference(eta_prime):
    # the kernels take exp only on the transition; every other entry must
    # still be the exact plateau or zero value of the full evaluation
    bump = BumpFunction(eta_prime)
    half, edge = 0.5, eta_prime / 2.0
    # zero, both ends of the transition and the floats next to them, beyond
    # the support, negatives, infinities and NaN
    special = np.array(
        [
            *(0.0, -0.0, half, -half, edge, -edge),
            *(np.nextafter(half, 1.0), np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)),
            *(edge + 0.1, -edge - 0.1, 3.0, -7.0, np.inf, -np.inf, np.nan, 0.3, -0.2),
        ]
    )
    rng = np.random.default_rng(11)
    transition = rng.uniform(half, edge, 300) * rng.choice([-1.0, 1.0], 300)
    offsets = np.concatenate([special, transition, rng.uniform(-1.0, 1.0, 300)])
    # the step's own argument: its ends, its middle, beyond, and rounding
    # distance from either end
    ends = [0.0, -0.0, 0.5, 1.0, 1.5, -0.3, np.inf, -np.inf, np.nan, 1e-310]
    steps = np.concatenate([ends, [np.nextafter(1.0, 0.0)], rng.uniform(-0.5, 1.5, 300)])
    for t in [*steps[:11].tolist(), *(np.asarray(x) for x in steps[:11]), steps]:
        _assert_same_values(_smoothstep(t), _reference_smoothstep(t))
    for t in [*special.tolist(), *(np.asarray(x) for x in special), offsets]:
        _assert_same_values(bump.profile(t), _reference_profile(eta_prime, t))
        _assert_same_values(
            bump.profile_derivative(t), _reference_profile_derivative(eta_prime, t)
        )
    pairs = [offsets.reshape(-1, 2), rng.permutation(offsets).reshape(-1, 2)]
    for y in [*pairs, special[:2], special[None, 4:6], np.empty((0, 2))]:
        _assert_same_values(bump.value(y), np.prod(_reference_profile(eta_prime, y), axis=-1))
        _assert_same_values(bump.gradient(y), _reference_gradient(eta_prime, y))


# ---------------------------------------------------------------------------
# decomposition on the disk, verified independently
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "domain, count",
    [(UNIT_DISK, 260_892), (Box((0.0, 0.0), (1.0, 1.0)), 130_900), (L_SHAPE, 261_956)],
    ids=["disk", "square", "lshape"],
)
def test_cube_counts_at_k_max_14(domain, count):
    # the counts of the acceptance runs, which the exact cube predicates fix
    assert decompose(domain, WhitneyParams(k_max=14)).cube_count == count


@pytest.fixture(scope="module")
def disk_decomp():
    return decompose(UNIT_DISK, WhitneyParams(k_max=9))


def _corner_offsets(dim):
    return np.stack(
        np.meshgrid(*[np.array([-0.5, 0.5])] * dim, indexing="ij"), axis=-1
    ).reshape(-1, dim)


def test_disk_selection_rule_recomputed(disk_decomp):
    # re-verify with raw norms: eta-dilate inside the open ball, parent's not
    eta = disk_decomp.params.eta
    corners = _corner_offsets(2)
    for k in sorted(disk_decomp.levels):
        m = disk_decomp.levels[k]
        s = 2.0 ** (-k)
        c = (m + 0.5) * s
        own = c[:, None, :] + corners[None, :, :] * (eta * s)
        assert np.all(np.linalg.norm(own, axis=-1) < 1.0)
        pm = np.floor_divide(m, 2)
        pc = (pm + 0.5) * (2 * s)
        par = pc[:, None, :] + corners[None, :, :] * (eta * 2 * s)
        assert np.all(np.max(np.linalg.norm(par, axis=-1), axis=-1) >= 1.0)


def test_disk_center_distance_window(disk_decomp):
    eta = disk_decomp.params.eta
    for k in sorted(disk_decomp.levels):
        s = 2.0 ** (-k)
        c = (disk_decomp.levels[k] + 0.5) * s
        delta = 1.0 - np.linalg.norm(c, axis=-1)
        assert np.all(delta / s > eta / 2.0)
        assert np.all(delta / s <= (eta + 0.5) * ROOT2)


def test_disk_cubes_disjoint_and_nonnested(disk_decomp):
    # cubes at one level are distinct; no cube sits inside a coarser one
    levels = disk_decomp.levels
    seen = {(k, tuple(row)) for k, ms in levels.items() for row in ms.tolist()}
    assert len(seen) == disk_decomp.cube_count
    k0 = min(levels)
    for k, ms in levels.items():
        assert np.all(disk_decomp.cube_ids(k, ms) >= 0)
        for j in range(1, k - k0 + 1):
            anc = ms // 2**j
            assert np.all(disk_decomp.cube_ids(k - j, anc) == -1)
            assert not any((k - j, tuple(row)) in seen for row in anc.tolist())


def test_disk_coverage(disk_decomp):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(40_000, 2))
    pts = pts[np.linalg.norm(pts, axis=1) < 1.0]
    delta = 1.0 - np.linalg.norm(pts, axis=1)
    deep = delta > disk_decomp.constants.epsilon_cut
    assert np.all(disk_decomp.covers(pts[deep]))
    # exterior points are never covered
    outside = rng.uniform(1.1, 2.0, size=(100, 2))
    assert not np.any(disk_decomp.covers(outside))


def test_disk_coverage_includes_face_points(disk_decomp):
    # a point exactly on the face between two cubes is still covered
    k = max(disk_decomp.levels)
    m = disk_decomp.levels[k][0]
    s = 2.0 ** (-k)
    corner = m * s  # lower corner, shared with neighbors
    assert disk_decomp.covers(np.array([corner]))[0]


def test_disk_coverage_includes_upper_corners(disk_decomp):
    # the upper corner of a finest cube floors into the next cube up, so only
    # the shifted face lookup can find the cube that holds it
    k = max(disk_decomp.levels)
    corners = (disk_decomp.levels[k] + 1) * 2.0 ** (-k)
    assert np.all(disk_decomp.covers(corners))


def _reference_covers(decomp, points):
    """Every lower-neighbour shift tried for every pending point."""
    n = points.shape[1]
    out = np.zeros(len(points), dtype=bool)
    shifts = np.stack(
        np.meshgrid(*[np.array([0, -1])] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)
    for k in decomp.levels:
        todo = np.flatnonzero(~out)
        scaled = points[todo] / 2.0 ** (-k)
        base = np.floor(scaled).astype(np.int64)
        on_lattice = scaled == base
        for sh in shifts:
            ask = ~out[todo] & np.all(on_lattice | (sh == 0), axis=1)
            out[todo[ask]] = decomp.cube_ids(k, base[ask] + sh) >= 0
    return out


@pytest.mark.parametrize("domain", [UNIT_DISK, L_SHAPE], ids=["disk", "lshape"])
def test_covers_matches_all_shifts_reference(domain):
    decomp = decompose(domain, WhitneyParams(k_max=8))
    rng = np.random.default_rng(5)
    lo, hi = domain.bounding_box()
    pts = [lo - 0.25 + rng.random((20_000, 2)) * (hi - lo + 0.5)]
    # corners, face midpoints and face points of the cubes at three levels,
    # and a lattice that lies on the lattice of every level from 6 on
    ks = sorted(decomp.levels)
    for k in (ks[0], ks[len(ks) // 2], ks[-1]):
        s = 2.0 ** (-k)
        m = decomp.levels[k]
        for off in ([0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0], [0, 0.5], [1, 0.5], [0.25, 1]):
            pts.append((m + np.array(off)) * s)
    step = 2.0**-6
    ticks = [np.arange(lo[i] - 4 * step, hi[i] + 4 * step, step) for i in range(2)]
    pts.append(np.stack(np.meshgrid(*ticks, indexing="ij"), axis=-1).reshape(-1, 2))
    pts = np.concatenate(pts)
    got = decomp.covers(pts)
    assert np.array_equal(got, _reference_covers(decomp, pts))
    assert got.any() and not got.all()


def _reference_covers_whole(decomp, points):
    """``covers`` over all points at once, level by level: each level holds
    temporaries of the points' length."""
    n = points.shape[1]
    out = np.zeros(len(points), dtype=bool)
    shifts = np.stack(
        np.meshgrid(*[np.array([0, -1])] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)[1:]
    todo = np.arange(len(points))
    for k in decomp.levels:
        scaled = points[todo] / 2.0 ** (-k)
        base = np.floor(scaled).astype(np.int64)
        hit = decomp.cube_ids(k, base) >= 0
        on_lattice = scaled == base
        edge = np.flatnonzero(~hit & _fold(np.logical_or, on_lattice))
        for sh in shifts:
            ask = edge[~hit[edge] & _fold(np.logical_and, on_lattice[edge] | (sh == 0))]
            hit[ask] = decomp.cube_ids(k, base[ask] + sh) >= 0
        out[todo[hit]] = True
        todo = todo[~hit]
    return out


@pytest.fixture(scope="module")
def block_decomps():
    return {
        "lshape": decompose(L_SHAPE, WhitneyParams(k_max=8)),
        "hexagon": decompose(HEXAGON, WhitneyParams(k_max=7)),
    }


@pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
@pytest.mark.parametrize("name", ["lshape", "hexagon"])
def test_covers_in_blocks_matches_whole_array_reference(block_decomps, name, count):
    decomp = block_decomps[name]
    rng = np.random.default_rng(count)
    lo, hi = decomp.domain.bounding_box()
    pts = lo - 0.25 + rng.random((count, 2)) * (hi - lo + 0.5)
    # the rows within 7 of a block boundary hold corners and face points of
    # selected cubes at three levels, which a closed cube always covers
    ks = sorted(decomp.levels)
    lattice = []
    for k in (ks[0], ks[len(ks) // 2], ks[-1]):
        m = decomp.levels[k]
        for off in ([0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0], [1, 0.5], [0.25, 1]):
            lattice.append((m + np.array(off)) * 2.0 ** (-k))
    lattice = np.concatenate(lattice)
    near = np.flatnonzero(np.abs((np.arange(count) + 7) % _CHUNK - 7) <= 7)
    pts[near] = lattice[rng.integers(len(lattice), size=len(near))]
    got = decomp.covers(pts)
    assert got.dtype == bool and got.shape == (count,)
    assert np.array_equal(got, _reference_covers_whole(decomp, pts))
    assert np.array_equal(got, _reference_covers(decomp, pts))
    assert got[near].all()


def test_covers_allocates_a_block_not_the_points():
    decomp = decompose(L_SHAPE, WhitneyParams(k_max=8))
    pts = np.random.default_rng(12).random((300_000, 2)) * 2.0
    decomp.covers(pts[:10])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = decomp.covers(pts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the result (a byte a point) and about 60 bytes a point of one block
    # (measured 2.30 MB in all), with a quarter to spare: under two thirds of
    # one (n, 2) float copy (4.8 MB), where asking every point at once held
    # several arrays of the points' length
    bound = out.nbytes + 80 * _CHUNK
    assert bound < 2 * pts.nbytes / 3
    assert peak <= bound, peak


def test_decompose_tests_containment_in_blocks():
    # the L-shape at k_max 12, 65372 cubes: the eta-dilates are tested in
    # blocks of _CHUNK cubes and each level is sorted once, by the
    # constructor.  Measured peak 8036889 bytes (7.66 MiB); testing each
    # level's candidates whole and sorting the selected rows in decompose
    # too peaked at 10395043.  The bound is the measured peak and 5%.
    decompose(L_SHAPE, WhitneyParams(k_max=6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decompose(L_SHAPE, WhitneyParams(k_max=12))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8036889 * 1.05, peak


def _table_edge_points(decomp, rng):
    """Points where the bit table of ``covers`` is most easily wrong: on
    the level-L lattice, on the upper faces and corners of the selected
    cubes of levels <= L (which only the per-level search finds), the
    float neighbours of all of these, and points below and past the
    table's span."""
    top, origin, table = decomp._cover_table()
    n = decomp.params.dim
    s = 2.0**-top
    shape = np.array(table.shape)
    lattice = origin + rng.integers(0, shape + 1, size=(4000, n))
    pts = [lattice * s]
    corners = np.stack(np.meshgrid(*[np.array([0.0, 0.5, 1.0])] * n, indexing="ij"), axis=-1)
    corners = corners.reshape(-1, n)
    for k, m in decomp.levels.items():
        if k <= top:
            sub = m[rng.integers(len(m), size=min(len(m), 200))]
            for off in corners[np.any(corners == 1.0, axis=1)]:
                pts.append((sub + off) * 2.0**-k)
    # below, at and past each end of the span along each axis
    for i in range(n):
        for cell in (-3, -1, 0, shape[i] - 1, shape[i], shape[i] + 2):
            edge = lattice[:200].copy()
            edge[:, i] = origin[i] + cell
            pts += [edge * s, (edge + 0.5) * s]
    pts = np.concatenate(pts)
    # one float step along each axis and along both diagonals
    steps = np.concatenate([np.eye(n), np.ones((1, n))])
    return np.concatenate([pts] + [np.nextafter(pts, pts + d) for d in (*steps, *-steps)])


_TABLE_CASES = {
    "lshape": (lambda: decompose(L_SHAPE, WhitneyParams(k_max=8)), 8),
    "hexagon": (lambda: decompose(HEXAGON, WhitneyParams(k_max=7)), 7),
    "box3": (
        lambda: decompose(
            Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), WhitneyParams(eta=3.0, dim=3, k_max=7)
        ),
        6,
    ),
}


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_covers_table_edges_match_reference(case):
    build, top = _TABLE_CASES[case]
    decomp = build()
    assert decomp._cover_table()[0] == top
    pts = _table_edge_points(decomp, np.random.default_rng(9))
    got = decomp.covers(pts)
    assert np.array_equal(got, _reference_covers(decomp, pts))
    assert got.any() and not got.all()


@pytest.mark.parametrize("cap", [1, 8, 4**5, 2**20])
def test_covers_matches_reference_at_any_table_cap(monkeypatch, cap):
    # at cap 1 and 8 the coarsest level alone exceeds the cap, so there is
    # no table and every point takes the per-level search
    monkeypatch.setattr(whitney, "_COVER_CELLS", cap)
    decomp = decompose(L_SHAPE, WhitneyParams(k_max=8))
    marks = decomp._cover_table()
    assert (marks is None) == (cap < 16)
    if marks is not None:
        assert marks[2].size <= cap
    rng = np.random.default_rng(cap)
    with monkeypatch.context() as m:
        m.setattr(whitney, "_COVER_CELLS", 2**20)
        pts = _table_edge_points(decomp, rng)
    pts = np.concatenate([pts, rng.random((20_000, 2)) * 2.5 - 0.25])
    assert np.array_equal(decomp.covers(pts), _reference_covers(decomp, pts))


_TOO_WIDE_FOR_A_TABLE = {0: np.array([[0, 0], [2000, 2000]]), 3: np.array([[9, 9], [10, 9]])}


def test_covers_without_a_table_when_the_coarsest_level_is_too_wide():
    # two level-0 cubes 2000 cells apart: 2001**2 cells exceed the cap
    decomp = WhitneyDecomposition(L_SHAPE, WhitneyParams(), _TOO_WIDE_FOR_A_TABLE, {})
    assert decomp._cover_table() is None
    inside = [[0.5, 0.5], [1.0, 1.0], [1.0, 0.0], [2000.0, 2001.0], [2000.5, 2000.5],
              [1.25, 1.125], [1.375, 1.25]]
    outside = [[1.5, 1.25], [3.0, 3.0], [-1e-300, 0.0], [1.0, np.nextafter(1.0, 2.0)]]
    pts = np.array(inside + outside)
    got = decomp.covers(pts)
    assert np.array_equal(got, _reference_covers(decomp, pts))
    assert got.tolist() == [True] * len(inside) + [False] * len(outside)


def test_covers_outside_a_table_marked_to_its_edges():
    # cubes [0, 1]^2, [1, 2] x [0, 1] and [0, 0.5] x [1, 1.5] mark cells on
    # two edges of the level-1 table over [0, 2]^2, so a point past an edge
    # that took the nearest cell, or wrapped into the next row, would read
    # a marked cell
    levels = {0: np.array([[0, 0], [1, 0]]), 1: np.array([[0, 2]])}
    decomp = WhitneyDecomposition(L_SHAPE, WhitneyParams(), levels, {})
    top, origin, table = decomp._cover_table()
    assert (top, origin.tolist(), table.shape) == (1, [0, 0], (4, 4))
    marked = [[1, 1, 1, 0], [1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 0, 0]]
    assert table.tolist() == np.array(marked, dtype=bool).tolist()
    inside = [[0.0, 0.0], [2.0, 1.0], [0.5, 1.5], [0.25, 1.0], [1.5, 0.5]]
    tiny = np.nextafter(0.0, 1.0)
    outside = [[-0.25, 0.5], [2.25, 0.5], [1.5, -0.25], [0.25, 2.25], [-tiny, 0.5],
               [0.5, 2.0], [1.0, 1.75], [2.0, 1.25], [0.25, -1e3], [4.0, -0.5]]
    pts = np.array(inside + outside)
    got = decomp.covers(pts)
    assert np.array_equal(got, _reference_covers(decomp, pts))
    assert got.tolist() == [True] * len(inside) + [False] * len(outside)


@pytest.mark.parametrize("bad", [[math.nan, 0.5], [math.inf, 0.0], [0.5, -math.inf]])
def test_covers_rejects_non_finite_points(block_decomps, bad):
    with pytest.raises(ValueError, match="finite"):
        block_decomps["lshape"].covers(np.array([[0.5, 0.5], bad]))


@pytest.mark.parametrize("table", [True, False])
def test_covers_answers_false_beyond_every_cube_index(table):
    # the largest index a cube may have, 2**51 - 1, at level 0, and the
    # coordinates no cube index reaches, which once were cast to int64
    top = 2**51 - 1
    levels = {0: np.array([[top, 0]]), 3: np.array([[9, 9]])}
    if not table:
        levels[0] = np.concatenate([_TOO_WIDE_FOR_A_TABLE[0], levels[0]])
    decomp = WhitneyDecomposition(L_SHAPE, WhitneyParams(), levels, {})
    assert (decomp._cover_table() is not None) == table
    inside = [[top + 0.5, 0.5], [top, 0.0], [top + 1.0, 1.0], [1.125, 1.25]]
    outside = [[top + 2.0, 0.5], [2.0**52, 0.5], [0.5, -1e300], [1e300, 0.5],
               [-1e300, -1e300], [1.7e308, 1.125], [2.0**60, 0.5], [0.5, 2.0**62]]
    got = decomp.covers(np.array(inside + outside))
    assert got.tolist() == [True] * len(inside) + [False] * len(outside)
    assert np.array_equal(got[:4], _reference_covers(decomp, np.array(inside)))


def test_covers_answers_false_past_the_float_range_of_a_fine_table(block_decomps):
    # the table is at level 8, so 1.7e308 scales past the float range
    decomp = block_decomps["lshape"]
    assert decomp._cover_table()[0] == 8
    got = decomp.covers(np.array([[1.7e308, 0.5], [0.5, -1.7e308], [0.5, 0.5]]))
    assert got.tolist() == [False, False, True]


@pytest.mark.parametrize("index", [2**51, -(2**51)])
def test_decomposition_refuses_indices_past_2_to_51(index):
    with pytest.raises(ValueError, match="below 2\\*\\*51"):
        WhitneyDecomposition(L_SHAPE, WhitneyParams(), {0: np.array([[0, index]])}, {})


def test_covers_sends_few_rows_to_cube_ids(monkeypatch):
    # the L-shape at k_max 14 takes its table at level 9; of a 200k sample
    # beyond epsilon_cut, 1386 rows reach cube_ids (0.0069 a point), where
    # the per-level search alone sent 441486 (2.21 a point).  The bound,
    # 0.01 a point, leaves 44% over the measured count.
    decomp = decompose(L_SHAPE, WhitneyParams(k_max=14))
    assert decomp._cover_table()[0] == 9
    pts = _sample_beyond_cut(decomp, 200_000, np.random.default_rng(7))
    rows = []
    cube_ids = decomp.cube_ids

    def counted(lev, m):
        rows.append(len(m))
        return cube_ids(lev, m)

    monkeypatch.setattr(decomp, "cube_ids", counted)
    assert decomp.covers(pts).all()
    assert sum(rows) <= 0.01 * len(pts), sum(rows)


def _ids_per_row(decomp, lev, m):
    """``cube_ids`` of the cubes (lev[i], m[i]), one call per level."""
    out = np.full(len(m), -1, dtype=np.int64)
    for k in set(lev.tolist()):
        rows = np.flatnonzero(lev == k)
        out[rows] = decomp.cube_ids(k, m[rows])
    return out


def test_cube_ids_are_the_rows_of_arrays(disk_decomp):
    ks, ms, _, _ = disk_decomp.arrays()
    assert np.array_equal(_ids_per_row(disk_decomp, ks, ms), np.arange(disk_decomp.cube_count))
    # the rows run level-major, then lexicographically: axis 0 most
    # significant, the last axis fastest
    assert np.array_equal(np.lexsort((*ms.T[::-1], ks)), np.arange(disk_decomp.cube_count))
    # rows given out of order are sorted into that order
    rng = np.random.default_rng(5)
    shuffled = {k: rows[rng.permutation(len(rows))] for k, rows in disk_decomp.levels.items()}
    again = WhitneyDecomposition(disk_decomp.domain, disk_decomp.params, shuffled, {})
    assert np.array_equal(again.arrays()[1], ms)
    assert np.array_equal(_ids_per_row(again, ks, ms), np.arange(disk_decomp.cube_count))


def test_cube_ids_minus_one_for_non_members(disk_decomp):
    ks, ms, _, _ = disk_decomp.arrays()
    k, m = int(ks[-1]), ms[-1:]
    assert disk_decomp.cube_ids(k, m)[0] >= 0
    assert disk_decomp.cube_ids(k - 1, m // 2)[0] == -1  # parent
    far = np.array([[ms[:, 0].max() + 1, m[0, 1]], [m[0, 0], ms[:, 1].min() - 1]])
    assert np.all(disk_decomp.cube_ids(k, far) == -1)  # index out of range
    for lev in (int(ks[0]) - 1, int(ks[-1]) + 1):  # level out of range
        assert disk_decomp.cube_ids(lev, m)[0] == -1


def _reference_cube_ids(decomp, lev, m):
    """One search of the whole key table: the level is the most significant
    digit of a mixed-radix key over the global index range, then axis 0,
    ..., the last axis varying fastest."""
    ks, ms, _, _ = decomp.arrays()
    lo, hi = ms.min(axis=0), ms.max(axis=0) + 1
    # place values of the last axis, ..., axis 0, then the level
    place = np.cumprod([1, *(hi - lo)[::-1].tolist()])

    def key(lev, m):
        return (m - lo) @ place[-2::-1] + (np.asarray(lev) - ks.min()) * place[-1]

    table = np.sort(key(ks, ms))
    m = np.asarray(m, dtype=np.int64).reshape(-1, ms.shape[1])
    in_range = np.all((m >= lo) & (m < hi), axis=-1)
    keys = key(lev, np.where(in_range[:, None], m, lo))
    pos = np.searchsorted(table, keys)
    found = table[np.minimum(pos, len(table) - 1)] == keys
    return np.where(in_range & found, pos, -1)


_CUBE_ID_CASES = {
    "disk": lambda: decompose(UNIT_DISK, WhitneyParams(k_max=8)),
    "lshape": lambda: decompose(L_SHAPE, WhitneyParams(k_max=9)),
    "box3": lambda: decompose(
        Box((0.0, 0.0, 0.0), (1.0, 1.0, 2.0)), WhitneyParams(eta=3.0, dim=3, k_max=5)
    ),
}


@pytest.mark.parametrize("case", sorted(_CUBE_ID_CASES))
def test_cube_ids_per_level_match_full_table_reference(case):
    decomp = _CUBE_ID_CASES[case]()
    ks, ms, _, _ = decomp.arrays()
    n = decomp.params.dim
    lo, hi = ms.min(axis=0), ms.max(axis=0) + 1
    rng = np.random.default_rng(4)
    for k in range(int(ks.min()) - 2, int(ks.max()) + 3):
        own = decomp.levels.get(k, ms[:1])
        # the level's cubes and their neighbours, indices anywhere in and
        # just beyond the global range, and indices far outside it
        queries = np.concatenate(
            [
                own,
                own[rng.integers(0, len(own), 500)] + rng.integers(-2, 3, (500, n)),
                rng.integers(lo - 3, hi + 3, (2000, n)),
                rng.integers(-(2**40), 2**40, (200, n)),
            ]
        )
        got = decomp.cube_ids(k, queries)
        assert np.array_equal(got, _reference_cube_ids(decomp, k, queries))
        if k in decomp.levels:
            assert np.all(got[: len(own)] >= 0)
        assert decomp.cube_ids(k, np.empty((0, n), dtype=np.int64)).shape == (0,)


def _per_row_nested_pairs(decomp):
    """One cube_ids call per level and generation."""
    k0 = min(decomp.levels)
    return sum(
        int(np.count_nonzero(decomp.cube_ids(k - j, ms // 2**j) >= 0))
        for k, ms in decomp.levels.items()
        for j in range(1, k - k0 + 1)
    )


def _hand_made(d, levels):
    return WhitneyDecomposition(d.domain, d.params, levels, {})


def test_nested_pairs_match_per_row_count():
    # the count verify_properties reports as no_nesting's worst, against one
    # cube_ids call per level and generation, on a hand-made
    # family: (1, 1) at level 2 holds (2, 2) and (3, 3) at level 3, and
    # three of the level-5 cubes sit in both; level 4 is empty
    d = decompose(Box((0.0, 0.0), (1.0, 1.0)), WhitneyParams(k_max=6))
    levels = {
        2: np.array([[1, 1]]),
        3: np.array([[0, 0], [2, 2], [3, 3]]),
        5: np.array([[8, 8], [9, 9], [15, 15], [31, 0]]),
    }
    nested = _hand_made(d, levels)
    assert _nested_pairs(nested) == _per_row_nested_pairs(nested) == 8
    assert _nested_pairs(d) == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distinct_rows_match_unique_rows(dim):
    # negative indices and a column whose range is one value wide
    rng = np.random.default_rng(dim)
    ms = rng.integers(-5, 4, (3000, dim))
    ms[:, -1] = 7
    first, inverse = _distinct_rows(ms)
    want, want_first = np.unique(ms, axis=0, return_index=True)
    assert len(first) == len(want)
    assert sorted(map(tuple, ms[first].tolist())) == sorted(map(tuple, want.tolist()))
    assert sorted(first.tolist()) == sorted(want_first.tolist())  # first occurrences
    assert np.array_equal(ms[first][inverse], ms)


def test_nested_pairs_count_siblings_through_one_ancestor():
    # the four level-6 siblings under (16, 16) have selected ancestors 2 and
    # 3 levels up, (8, 8) and (4, 4), and are carried up as one ancestor of
    # multiplicity 4; (8, 8) sits in (4, 4), (0, 63) in (0, 7) three levels
    # up; (40, 40) and (1, 1) have no selected ancestor; level 5 is empty
    d = decompose(Box((0.0, 0.0), (1.0, 1.0)), WhitneyParams(k_max=6))
    levels = {
        3: np.array([[0, 7], [4, 4]]),
        4: np.array([[1, 1], [8, 8]]),
        6: np.array([[0, 63], [32, 32], [32, 33], [33, 32], [33, 33], [40, 40]]),
    }
    nested = _hand_made(d, levels)
    assert _nested_pairs(nested) == _per_row_nested_pairs(nested) == 4 * 2 + 1 + 1


def test_selection_rule_fails_for_siblings_of_a_selectable_parent():
    # replace one selected cube by its four children: the children share a
    # parent whose eta-dilate lies in the domain, so the parent-out half of
    # the selection rule fails for them, while nothing is nested
    d = decompose(Box((0.0, 0.0), (1.0, 1.0)), WhitneyParams(k_max=6))
    k = sorted(d.levels)[1]
    levels = dict(d.levels)
    split = levels[k][len(levels[k]) // 2]
    levels[k] = np.delete(levels[k], len(levels[k]) // 2, axis=0)
    children = 2 * split + np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    levels[k + 1] = np.concatenate([levels[k + 1], children])
    levels[k + 1] = levels[k + 1][np.lexsort(levels[k + 1].T[::-1])]
    for decomp, selected in ((d, True), (_hand_made(d, levels), False)):
        report = verify_properties(decomp, sample_count=2000, coverage_samples=2000)
        checks = {c.name: c.passed for c in report.checks}
        assert checks["selection_rule"] is selected
        assert checks["no_nesting"]


# the supports' cases: the disk, the L-shape and the 3-D box
_SUPPORT_CHECK_CASES = {
    "disk": lambda: decompose(UNIT_DISK, WhitneyParams(k_max=8)),
    "lshape": lambda: decompose(L_SHAPE, WhitneyParams(k_max=8)),
    "box3": lambda: decompose(
        Box((0.0, 0.0, 0.0), (1.0, 1.0, 2.0)), WhitneyParams(eta=3.0, dim=3, k_max=5)
    ),
}


def _support_checks(decomp):
    return {c.name: c for c in _cube_checks(decomp)}


@pytest.mark.parametrize("case", sorted(_SUPPORT_CHECK_CASES))
def test_support_in_domain_agrees_with_the_support_dilates(case):
    # the check reads the selection rule's eta-dilates; a direct test of
    # every eta_prime-dilate gives the same answer
    decomp = _SUPPORT_CHECK_CASES[case]()
    ks, ms = decomp._ks, decomp._ms
    direct = whitney._dilate_inside(decomp.domain, ks, ms, decomp.params.eta_prime)
    assert _support_checks(decomp)["support_in_domain"].passed is bool(direct.all()) is True


@pytest.mark.parametrize("case", sorted(_SUPPORT_CHECK_CASES))
def test_support_window_bounds_every_sampled_support_point(case):
    # worst is min(center ratio) - eta_prime sqrt(n) / 2 bit for bit, and
    # points drawn in every support (four a cube) have delta / side in the
    # proved [worst, max(center ratio) + eta_prime sqrt(n) / 2]
    decomp = _SUPPORT_CHECK_CASES[case]()
    _, _, sides, centers = decomp.arrays()
    n, cst = decomp.params.dim, decomp.constants
    half = decomp.params.eta_prime * math.sqrt(n) / 2.0
    ratio_c = decomp.domain.distance(centers) / sides
    check = _support_checks(decomp)["support_distance_window"]
    assert check.passed
    assert check.worst == ratio_c.min() - half
    top = ratio_c.max() + half
    assert cst.delta_side_min <= check.worst and top <= cst.delta_side_max
    rng = np.random.default_rng(0)
    for _ in range(4):
        pts = centers + rng.uniform(-0.5, 0.5, size=centers.shape) * (
            decomp.params.eta_prime * sides
        )[:, None]
        ratio = decomp.domain.distance(pts) / sides
        assert check.worst <= ratio.min() and ratio.max() <= top


def test_cube_checks_fail_for_a_cube_outside_the_windows_or_the_domain():
    # hand-made families from the square's: one selected cube replaced by a
    # central grandchild, whose center ratio, near 4 times the cube's (at
    # least 1.5), leaves the window above; or by its parent, whose
    # eta-dilate leaves the domain, as the cube was selected
    d = decompose(Box((0.0, 0.0), (1.0, 1.0)), WhitneyParams(k_max=6))
    k = sorted(d.levels)[0]
    m = d.levels[k][0]
    rest = dict(d.levels)
    rest[k] = d.levels[k][1:]
    deep = _support_checks(_hand_made(d, {**rest, k + 2: np.array([4 * m + 1])}))
    assert not deep["center_distance_window"].passed
    assert not deep["support_distance_window"].passed
    assert deep["support_in_domain"].passed
    assert not deep["selection_rule"].passed
    up = _support_checks(_hand_made(d, {**rest, k - 1: np.array([m // 2])}))
    assert not up["selection_rule"].passed
    assert not up["support_in_domain"].passed
    base = _support_checks(d)
    assert all(base[name].passed for name in base)


def test_coverage_sample_is_the_first_draw_from_the_seed(monkeypatch):
    decomp = decompose(L_SHAPE, WhitneyParams(k_max=8))
    asked = []
    covers = decomp.covers
    monkeypatch.setattr(decomp, "covers", lambda p: asked.append(p.copy()) or covers(p))
    verify_properties(decomp, sample_count=2000, coverage_samples=5000, seed=3)
    want = _sample_beyond_cut(decomp, 5000, np.random.default_rng(3))
    assert len(asked) == 1 and np.array_equal(asked[0], want)


def test_cube_keys_must_fit_in_63_bits(disk_decomp):
    far_apart = {0: np.array([[0, 0], [2**32, 2**32]], dtype=np.int64)}
    with pytest.raises(ValueError, match="63 bits"):
        WhitneyDecomposition(disk_decomp.domain, disk_decomp.params, far_apart, {})


def test_overlap_counts_and_bound(disk_decomp):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(30_000, 2))
    pts = pts[1.0 - np.linalg.norm(pts, axis=1) > disk_decomp.constants.epsilon_cut]
    counts = disk_decomp.overlap_counts(pts)
    assert np.all(counts >= 1)
    assert counts.max() <= disk_decomp.constants.overlap_bound
    # the actual overlap is small even though the proved bound is generous
    assert counts.max() <= 30


def test_partition_sums_to_one(disk_decomp):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(20_000, 2))
    pts = pts[1.0 - np.linalg.norm(pts, axis=1) > disk_decomp.constants.epsilon_cut]
    pid, _, _, _, phi, psi = disk_decomp.partition_values(pts)
    assert np.all(psi >= 1.0 - 1e-12)
    # psi adds each point's bumps in incidence order, as np.add.at does
    want = np.zeros(len(pts))
    np.add.at(want, pid, phi)
    assert np.array_equal(psi, want)
    total = np.zeros(len(pts))
    np.add.at(total, pid, phi / psi[pid])
    assert np.abs(total - 1.0).max() <= 1e-12


def test_partition_single_point_api(disk_decomp):
    point = np.array([0.31, -0.12])
    pid, gid, _, _, phi, psi = disk_decomp.partition_values(point)
    ks, ms, _, _ = disk_decomp.arrays()
    lev, m = ks[gid], ms[gid]
    assert np.all(pid == 0)
    active = phi > 0.0
    assert active.any()
    w = phi[active] / psi[0]
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all((w > 0) & (w <= 1))
    # the point must lie in the support of every cube with a positive weight
    side = 2.0 ** -lev[active].astype(float)
    center = (m[active] + 0.5) * side[:, None]
    off = np.abs(point - center) / side[:, None]
    assert np.all(off.max(axis=1) <= 1.05 / 2 + 1e-12)
    assert disk_decomp.overlap_counts(point)[0] >= np.count_nonzero(active)


def _reference_support_hits(decomp, points):
    """The per-combination loop that ``_support_hits`` replaced: one max-norm
    test and one ``cube_ids`` call per (level, offset combination)."""
    etp = decomp.params.eta_prime
    n = points.shape[1]
    reach = int(math.floor(etp)) + 2
    combos = np.stack(
        np.meshgrid(*[np.arange(reach)] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)
    pid_all, lev_all, m_all = [], [], []
    for k in decomp.levels:
        s = 2.0 ** (-k)
        base = np.ceil(points / s - 0.5 - etp / 2.0 - 1e-12).astype(np.int64)
        for combo in combos:
            mq = base + combo
            centers = (mq + 0.5) * s
            near = np.flatnonzero(
                np.max(np.abs(points - centers), axis=-1) <= etp * s / 2.0 * (1.0 + 1e-12)
            )
            hit = near[decomp.cube_ids(k, mq[near]) >= 0]
            pid_all.append(hit)
            lev_all.append(np.full(len(hit), k, dtype=np.int64))
            m_all.append(mq[hit])
    return np.concatenate(pid_all), np.concatenate(lev_all), np.concatenate(m_all)


def _support_face_points(decomp):
    """Points exactly on the support faces of every fourth cube and exactly
    at the max-norm test's threshold from its center."""
    _, _, sides, centers = decomp.arrays()
    c = centers[::4]
    half = 0.5 * decomp.params.eta_prime * sides[::4]
    thr = half * (1.0 + 1e-12)
    on_faces = []
    for axis in range(decomp.params.dim):
        for sign in (-1.0, 1.0):
            for reach in (half, thr):
                p = c.copy()
                p[:, axis] += sign * reach
                on_faces.append(p[np.abs(p[:, axis] - c[:, axis]) == reach])
    return np.concatenate(on_faces)


def _support_probe_points(decomp, rng):
    """Random points, the support face points, and the dyadic lattice at
    twice the finest side, inside the decomposition's domain."""
    ks, _, _, _ = decomp.arrays()
    n = decomp.params.dim
    lo, hi = decomp.domain.bounding_box()
    step = 2.0 ** -int(ks.max() - 1)
    ticks = [np.arange(lo[i], hi[i] + step, step) for i in range(n)]
    lattice = np.stack(np.meshgrid(*ticks, indexing="ij"), axis=-1).reshape(-1, n)
    random_pts = lo + rng.random((2000, n)) * (hi - lo)
    pts = np.concatenate([random_pts, lattice, _support_face_points(decomp)])
    return pts[decomp.domain.contains(pts)]


@pytest.mark.parametrize("domain", [UNIT_DISK, L_SHAPE], ids=["disk", "lshape"])
def test_support_hits_match_brute_force_max_norm(domain):
    decomp = decompose(domain, WhitneyParams(k_max=6))
    pts = _support_probe_points(decomp, np.random.default_rng(8))
    pid, gid, _, _, phi, psi = decomp.partition_values(pts)
    ks, ms, _, _ = decomp.arrays()
    lev, m = ks[gid], ms[gid]
    # same incidences, in the same order, as the per-combination loop
    ref = _reference_support_hits(decomp, pts)
    for got, want in zip((pid, lev, m), ref):
        assert np.array_equal(got, want)
    # same set as testing every cube against every point in the max norm
    ks, ms, sides, centers = decomp.arrays()
    thr = decomp.params.eta_prime * sides / 2.0 * (1.0 + 1e-12)
    want_pid, want_cube = [], []
    for j in range(0, decomp.cube_count, 64):
        dist = np.max(np.abs(pts[:, None, :] - centers[None, j : j + 64, :]), axis=-1)
        p, c = np.nonzero(dist <= thr[None, j : j + 64])
        want_pid.append(p)
        want_cube.append(c + j)
    want_pid, want_cube = np.concatenate(want_pid), np.concatenate(want_cube)
    row_ids = _ids_per_row(decomp, ks, ms)
    assert sorted(zip(pid.tolist(), _ids_per_row(decomp, lev, m).tolist())) == sorted(
        zip(want_pid.tolist(), row_ids[want_cube].tolist())
    )
    # psi is the sum of the reference bumps over those cubes
    offsets = (pts[want_pid] - centers[want_cube]) / sides[want_cube, None]
    psi_ref = np.zeros(len(pts))
    np.add.at(psi_ref, want_pid, decomp.bump.value(offsets))
    assert np.abs(psi - psi_ref).max() <= 1e-15


TRIANGLE = Polygon([(0.0, 0.0), (1.0, 0.0), (0.3, 0.8)])

# domain, parameters, a boundary point on a face and the face's inward axis;
# on the L-shape's and the triangle's faces, which are flat and lie at
# coordinate 0, a point t inside along that axis has delta = t exactly (on
# the box, at its two finest levels)
_SUPPORT_CASES = {
    "disk": (UNIT_DISK, WhitneyParams(k_max=6), (-1.0, 0.0), 0),
    "lshape": (L_SHAPE, WhitneyParams(k_max=6), (0.0, 0.5), 0),
    "lshape-k10": (L_SHAPE, WhitneyParams(k_max=10), (0.0, 0.5), 0),
    "annulus": (RING, WhitneyParams(k_max=7), (-1.0, 0.0), 0),
    "triangle": (TRIANGLE, WhitneyParams(k_max=8), (0.5, 0.0), 1),
    "box3": (
        Box((0.0, 0.0, 0.0), (1.0, 1.0, 2.0)),
        WhitneyParams(eta=3.0, dim=3, k_max=5),
        (0.0, 0.5, 1.0),
        0,
    ),
}


def _window_edge_points(decomp, face, axis):
    """Points t = delta_side_min * s and t = delta_side_max * s inside the
    face along its inward axis, for the sides s of the three finest levels,
    at eight places along the face, and their mirror images outside it."""
    cst = decomp.constants
    n = decomp.params.dim
    out = []
    for k in sorted(decomp.levels)[-3:]:
        s = 2.0**-k
        for t in (cst.delta_side_min * s, cst.delta_side_max * s):
            for sign in (1.0, -1.0):
                p = np.tile(np.asarray(face, dtype=float), (8, 1))
                p[:, axis] += sign * t
                p[:, (axis + 1) % n] += np.arange(8) * 0.37 * s
                out.append(p)
    return np.concatenate(out)


def _support_cases_points(case):
    domain, params, face, axis = _SUPPORT_CASES[case]
    decomp = decompose(domain, params)
    n = params.dim
    lo, hi = domain.bounding_box()
    rng = np.random.default_rng(12)
    pts = [
        # the bounding box grown by a quarter each side, so some lie outside
        lo - 0.25 * (hi - lo) + rng.random((3000, n)) * 1.5 * (hi - lo),
        _support_face_points(decomp),
        _window_edge_points(decomp, face, axis),
    ]
    if n == 2:
        pts.append(Grid(domain, 1.0 / 64).points)  # the audit lattice
    return decomp, np.concatenate(pts)


@pytest.mark.parametrize("case", sorted(_SUPPORT_CASES))
def test_support_hits_match_every_level_reference(case):
    decomp, pts = _support_cases_points(case)
    assert not decomp.domain.contains(pts).all()
    pid, gid, _, _, phi, psi = decomp.partition_values(pts)
    ks, ms, _, _ = decomp.arrays()
    lev, m = ks[gid], ms[gid]
    ref = _reference_support_hits(decomp, pts)
    for got, want in zip((pid, lev, m), ref):
        assert np.array_equal(got, want)
    assert np.all(decomp.domain.contains(pts[pid]))
    # psi from the reference incidences, summed in their order, bit for bit
    ref_pid, ref_lev, ref_m = ref
    sides = 2.0 ** (-ref_lev.astype(float))
    offsets = (pts[ref_pid] - (ref_m + 0.5) * sides[:, None]) / sides[:, None]
    psi_ref = np.zeros(len(pts))
    np.add.at(psi_ref, ref_pid, decomp.bump.value(offsets))
    assert np.array_equal(psi, psi_ref)


@pytest.mark.parametrize("case", sorted(_SUPPORT_CASES))
def test_partition_values_hand_out_each_incidence_geometry(case):
    # per incidence: the id cube_ids gives, the cube's side, and the point's
    # offset from the center at cube scale, bit for bit as the cube geometry
    # gives them; phi is the bump at that offset
    decomp, pts = _support_cases_points(case)
    pid, gid, sides, offsets, phi, psi = decomp.partition_values(pts)
    ks, ms, _, _ = decomp.arrays()
    lev, m = ks[gid], ms[gid]
    assert np.array_equal(_ids_per_row(decomp, lev, m), gid)
    want_sides, centers = _cube_geometry(lev, m)
    assert np.array_equal(sides, want_sides)
    assert np.array_equal(offsets, (pts[pid] - centers) / want_sides[:, None])
    assert np.array_equal(phi, decomp.bump.value(offsets))


def test_support_hits_ask_each_point_at_few_levels(monkeypatch):
    # one point at a time: every point asked at a level has a candidate
    # cube there (the one holding it), so the levels whose cube_ids call
    # gets rows are the levels the point was asked at; the L-shape at k_max
    # 10 has 9 levels
    decomp, pts = _support_cases_points("lshape-k10")
    asked = []
    cube_ids = WhitneyDecomposition.cube_ids

    def counting(self, lev, m):
        if len(m):
            asked.append(lev)
        return cube_ids(self, lev, m)

    monkeypatch.setattr(WhitneyDecomposition, "cube_ids", counting)
    most = 0
    for p in pts[:: max(1, len(pts) // 200)]:
        asked.clear()
        decomp.partition_values(p)
        most = max(most, len(asked))
    assert 1 <= most <= int(decomp.constants.level_window) + 2 < len(decomp.levels)


def _one_stream_reference(decomp, count, seed):
    """(deep points, rows drawn): the points beyond epsilon_cut among the
    first ``count`` inside points of one uniform stream drawn whole, and the
    end of the block of min(count, _CHUNK) rows that holds the count-th."""
    domain, cut = decomp.domain, decomp.constants.epsilon_cut
    lo, hi = domain.bounding_box()
    # ten times count rows: the thin ring below keeps about 15% of its box
    pts = lo + np.random.default_rng(seed).random((10 * count, domain.dim)) * (hi - lo)
    sd = domain.signed_distance(pts)
    inside = np.flatnonzero(sd > 0.0)[:count]
    assert len(inside) == count
    block = min(count, _CHUNK)
    return pts[inside[sd[inside] > cut]], (inside[-1] // block + 1) * block


# (domain, k_max, count): the L-shape keeps 3/4 of its box; the thin ring
# about 15%, so several blocks; a count of a few blocks of _CHUNK rows
_SAMPLER_CASES = {
    "lshape": (L_SHAPE, 8, 30_000),
    "thin-ring": (Annulus((0.0, 0.0), 0.9, 1.0), 8, 5_000),
    "lshape-small": (L_SHAPE, 8, 1_000),
    "lshape-blocks": (L_SHAPE, 8, 100_000),
}


@pytest.mark.parametrize("case", sorted(_SAMPLER_CASES))
def test_sample_beyond_cut_matches_one_stream_reference(case):
    domain, k_max, count = _SAMPLER_CASES[case]
    decomp = decompose(domain, WhitneyParams(k_max=k_max))
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        got = _sample_beyond_cut(decomp, count, rng)
        want, drawn = _one_stream_reference(decomp, count, seed)
        assert len(got) > 0 and np.array_equal(got, want)
        # the stream stands at the end of the block that held the count-th
        # inside point
        after = np.random.default_rng(seed)
        after.random((drawn, domain.dim))
        assert rng.random() == after.random()


@pytest.mark.parametrize("case", sorted(_SAMPLER_CASES))
def test_sample_beyond_cut_measures_distances_in_blocks_of_at_most_chunk(monkeypatch, case):
    domain, k_max, count = _SAMPLER_CASES[case]
    decomp = decompose(domain, WhitneyParams(k_max=k_max))
    drawn = _one_stream_reference(decomp, count, 2)[1]
    calls = []
    signed_distance = decomp.domain.signed_distance
    monkeypatch.setattr(
        decomp.domain, "signed_distance", lambda p: calls.append(len(p)) or signed_distance(p)
    )
    _sample_beyond_cut(decomp, count, np.random.default_rng(2))
    # every block whole, min(count, _CHUNK) rows, and no block past the one
    # that held the count-th inside point
    assert set(calls) == {min(count, _CHUNK)}
    assert sum(calls) == drawn


def test_sample_beyond_cut_heap_peak():
    decomp = decompose(L_SHAPE, WhitneyParams(k_max=8))
    _sample_beyond_cut(decomp, 1000, np.random.default_rng(1))  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pts = _sample_beyond_cut(decomp, 200_000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(pts) > 190_000
    # measured 5.95 MB (seeds 0, 3 and 11): the 3.2 MB of returned rows,
    # one block of _CHUNK box points and one block's distance temporaries;
    # the bound is that plus 5%.  Whole batches of box points put it at
    # 8.63 MB.
    assert peak <= 6_250_000, peak


def test_verify_properties_disk(disk_decomp):
    report = verify_properties(disk_decomp, sample_count=6000, coverage_samples=6000)
    names = {c.name for c in report.checks}
    assert {
        "selection_rule",
        "support_in_domain",
        "no_nesting",
        "center_distance_window",
        "support_distance_window",
        "neighbor_side_ratio",
        "coverage_beyond_cut",
        "overlap_bound",
        "psi_window",
        "partition_sum",
        "partition_power_sums",
        "partition_gradient_bound",
    } <= names
    for check in report.checks:
        assert check.passed, f"{check.name}: worst={check.worst} {check.detail}"
    assert report.empirical_overlap_max >= 1
    assert 0 < report.empirical_grad_max < report_grad_limit(disk_decomp)


def test_verify_properties_heap_peak_on_the_lshape():
    decomp = decompose(L_SHAPE, WhitneyParams(k_max=8))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = verify_properties(decomp, sample_count=20_000, coverage_samples=200_000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.all_passed
    # measured 6.70 MB in a fresh process (seeds 0, 3 and 11), 5.95 MB after
    # an earlier sample; the bound is the larger plus about 5%.  The
    # coverage sample set it at 9.38 MB while it drew whole batches of box
    # points, at 10.98 MB while it kept their distances until it returned;
    # whole-array polygon queries and coverage, with every check's arrays
    # alive to the end, at 22.9-23.7 MB.
    assert peak <= 7_050_000, peak


def test_cube_checks_hold_a_block_of_boxes_not_every_cube():
    decomp = decompose(L_SHAPE, WhitneyParams(k_max=14))
    _cube_checks(decompose(L_SHAPE, WhitneyParams(k_max=6)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        checks = _cube_checks(decomp)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    # measured 14.6 MB over 261,956 cubes: the nesting walk holds about 51
    # bytes a cube (its index rows, keys and sort order; 13.2 MB alone) and
    # each dilate test and the centre distances one block of boxes (about
    # 6.6 MB, 200 bytes a row of a block).  Building every cube's centre
    # and dilate corners at once peaked at 32.8 MB.
    bound = 64 * decomp.cube_count + 256 * _CHUNK
    assert peak <= bound, peak


def report_grad_limit(decomp):
    return decomp.constants.grad_bound


@pytest.mark.parametrize("name", ["sample_count", "coverage_samples"])
def test_verify_properties_rejects_nonpositive_counts(disk_decomp, name):
    for value in (0, -5):
        with pytest.raises(ValueError, match=name):
            verify_properties(disk_decomp, **{name: value})


def test_verify_properties_rejects_a_negative_seed_before_any_work(disk_decomp, monkeypatch):
    def no_checks(*args):
        raise AssertionError("a check ran before the seed was validated")

    monkeypatch.setattr(whitney, "_cube_checks", no_checks)
    with pytest.raises(ValueError, match="seed"):
        verify_properties(disk_decomp, seed=-1)


@pytest.mark.parametrize(
    "domain", [UNIT_DISK, Box((0.0, 0.0), (1.0, 1.0))], ids=["disk", "square"]
)
def test_shallow_decomposition_names_the_cut(domain):
    # at k_max = 2 the coverage cut lies deeper than any point of the domain
    decomp = decompose(domain, WhitneyParams(k_max=2))
    assert decomp.constants.epsilon_cut > domain.inradius()
    with pytest.raises(ValueError, match=r"epsilon_cut=.*k_max=2"):
        verify_properties(decomp, sample_count=1000)


# ---------------------------------------------------------------------------
# other domains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain", [L_SHAPE, RING], ids=["lshape", "ring"])
def test_verify_properties_other_domains(domain):
    decomp = decompose(domain, WhitneyParams(k_max=8))
    report = verify_properties(decomp, sample_count=4000, coverage_samples=4000)
    for check in report.checks:
        assert check.passed, f"{check.name}: worst={check.worst} {check.detail}"


def test_lshape_respects_reflex_corner():
    decomp = decompose(L_SHAPE, WhitneyParams(k_max=8))
    # supports must avoid the notch [1,2]x[1,2]; sample support points
    ks, ms, sides, centers = decomp.arrays()
    rng = np.random.default_rng(0)
    offs = rng.uniform(-0.5, 0.5, size=(8, len(ks), 2))
    pts = (centers[None] + offs * (1.05 * sides)[None, :, None]).reshape(-1, 2)
    in_notch = (pts[:, 0] > 1.0) & (pts[:, 1] > 1.0)
    assert not np.any(in_notch)


# ---------------------------------------------------------------------------
# truncation and failure modes
# ---------------------------------------------------------------------------


def test_truncation_recorded():
    decomp = decompose(UNIT_DISK, WhitneyParams(k_max=4))
    assert decomp.truncated.get(4, 0) > 0
    assert decomp.constants.epsilon_cut == pytest.approx(
        decomp.constants.delta_side_max / 16.0
    )


def test_empty_selection_raises_with_report():
    thin = Annulus(center=(0.0, 0.0), inner_radius=0.49, outer_radius=0.5)
    with pytest.raises(TruncationError) as err:
        decompose(thin, WhitneyParams(k_max=4))
    assert err.value.report["k_max"] == 4
    assert "epsilon_cut" in err.value.report


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------


def test_decomposition_deterministic():
    a = decompose(UNIT_DISK, WhitneyParams(k_max=7))
    b = decompose(UNIT_DISK, WhitneyParams(k_max=7))
    assert sorted(a.levels) == sorted(b.levels)
    for k in a.levels:
        assert np.array_equal(a.levels[k], b.levels[k])


def test_levels_are_read_only_views_of_the_stacked_cubes(disk_decomp):
    # each cube is stored once: a level's rows are a slice of the stacked
    # index array, and the keys keep the order they were given in
    for k, rows in disk_decomp.levels.items():
        assert np.shares_memory(rows, disk_decomp._ms)
        assert not rows.flags.writeable
    given = {k: disk_decomp.levels[k].copy() for k in sorted(disk_decomp.levels, reverse=True)}
    again = WhitneyDecomposition(disk_decomp.domain, disk_decomp.params, given, {})
    assert list(again.levels) == list(given)
    for k, rows in again.levels.items():
        assert np.array_equal(rows, given[k]) and np.shares_memory(rows, again._ms)


def test_json_and_svg_outputs(tmp_path, disk_decomp):
    payload = json.loads("".join(disk_decomp.json_chunks({})))
    assert payload["cube_count"] == disk_decomp.cube_count
    assert len(payload["cubes"]) == disk_decomp.cube_count
    first = payload["cubes"][0]
    assert set(first) == {"level", "index"}
    k = min(disk_decomp.levels)
    assert first["level"] == k
    assert first["index"] == disk_decomp.levels[k][0].tolist()
    assert 2.0 ** -first["level"] == disk_decomp.arrays()[2][0] == 2.0**-k
    svg_path = tmp_path / "layout.svg"
    decomposition_to_svg(disk_decomp, svg_path)
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert "<circle" in text and "<rect" in text



# ---------------------------------------------------------------------------
# neighbour check and column folds against their plain references
# ---------------------------------------------------------------------------


def _reference_neighbor_side_ratios(decomp):
    """The neighbour scan over level gaps up to 8, with every fine cube
    sent to ``cube_ids``."""
    etp = decomp.params.eta_prime
    ks = sorted(decomp.levels)
    n = decomp.params.dim
    worst_ratio, worst_gap = 1.0, 0
    for kc in ks:
        sc = 2.0 ** (-kc)
        for kf in ks:
            gap = kf - kc
            if gap < 0 or gap > 8:
                continue
            sf = 2.0 ** (-kf)
            mf = decomp.levels[kf]
            cf = (mf + 0.5) * sf
            reach = 0.5 * etp * (sc + sf)
            lo = np.ceil((cf - reach) / sc - 0.5 - 1e-12).astype(np.int64)
            hi = np.floor((cf + reach) / sc - 0.5 + 1e-12).astype(np.int64)
            width = int((hi - lo).max() + 1)
            found_pair = False
            for combo in np.ndindex(*([width] * n)):
                mq = lo + np.asarray(combo, dtype=np.int64)
                ok = np.all(mq <= hi, axis=-1)
                if gap == 0:
                    ok &= np.any(mq != mf, axis=-1)
                hit = ok & (decomp.cube_ids(kc, mq) >= 0)
                if not np.any(hit):
                    continue
                cc = (mq[hit] + 0.5) * sc
                touch = np.all(np.abs(cc - cf[hit]) <= reach * (1.0 + 1e-12), axis=-1)
                if np.any(touch):
                    found_pair = True
            if found_pair:
                worst_ratio = max(worst_ratio, sc / sf)
                worst_gap = max(worst_gap, gap)
    return worst_ratio, worst_gap


_NEIGHBOR_SCAN_CASES = {
    "disk-8": lambda: decompose(UNIT_DISK, WhitneyParams(k_max=8)),
    "disk-10": lambda: decompose(UNIT_DISK, WhitneyParams(k_max=10)),
    "square-9": lambda: decompose(Box((0.0, 0.0), (1.0, 1.0)), WhitneyParams(k_max=9)),
    "lshape-8": lambda: decompose(L_SHAPE, WhitneyParams(k_max=8)),
    "lshape-10": lambda: decompose(L_SHAPE, WhitneyParams(k_max=10)),
    # the 3-D box of the cube-file test
    "box3": lambda: decompose(
        domain_from_json(
            '{"shape": "rectangle", "corner_min": [0, 0, 0], "corner_max": [1, 1, 2]}'
        ),
        WhitneyParams(eta=3.0, dim=3, k_max=5),
    ),
}


def _neighbor_check(decomp):
    """(worst, level gap) of the ``neighbor_side_ratio`` check, the gap read
    back from its detail."""
    check = _support_checks(decomp)["neighbor_side_ratio"]
    gap = check.detail.split("worst level gap ")[1].split(" ")[0]
    return check.worst, float(gap) if gap == "inf" else int(gap)


@pytest.mark.parametrize("case", sorted(_NEIGHBOR_SCAN_CASES))
def test_neighbor_scan_matches_gap_8_reference(case):
    # the bound from the support window is at least the ratio and the gap
    # of every pair the scan finds, and is attained on the L-shape, the
    # square and the 3-D box; on the disk hi / lo is 12.3 at k_max 8 and
    # 14.1 at k_max 10, so the bound is (8.0, 3) against the scan's (4.0, 2)
    decomp = _NEIGHBOR_SCAN_CASES[case]()
    worst, gap = _neighbor_check(decomp)
    ref_worst, ref_gap = _reference_neighbor_side_ratios(decomp)
    assert worst >= ref_worst and gap >= ref_gap
    if not case.startswith("disk"):
        assert (worst, gap) == (ref_worst, ref_gap) == (2.0, 1)
    else:
        assert (worst, gap) == (8.0, 3)
    assert worst == 2.0**gap and 1 <= gap <= decomp.constants.level_window
    assert _support_checks(decomp)["neighbor_side_ratio"].passed


def _central_difference_gradient(decomp, points, pid, lev, m):
    """The gradient of each normalized weight by central differences of
    ``partition_values`` at tau = 1e-6 * side, one axis at a time."""
    sides, centers = _cube_geometry(lev, m)
    tau = 1e-6 * sides
    grad = np.empty((points.shape[1], len(pid)))
    for axis in range(points.shape[1]):
        w = []
        for sign in (1.0, -1.0):
            q = points[pid]
            q[:, axis] += sign * tau
            *_, psi = decomp.partition_values(q)
            w.append(decomp.bump.value((q - centers) / sides[:, None]) / psi)
        grad[axis] = (w[0] - w[1]) / (2.0 * tau)
    return grad


@pytest.mark.parametrize("case", ["disk-8", "lshape-8", "box3"])
def test_exact_weight_gradient_matches_central_differences(case):
    decomp = _NEIGHBOR_SCAN_CASES[case]()
    pts = _sample_beyond_cut(decomp, 1500, np.random.default_rng(0))
    pid, gid, sides, offsets, phi, psi = decomp.partition_values(pts)
    ks, ms, _, _ = decomp.arrays()
    lev, m = ks[gid], ms[gid]
    exact = decomp.partition_gradient(pid, sides, offsets, phi, psi)[0]
    fd = _central_difference_gradient(decomp, pts, pid, lev, m)
    scaled = sides * np.sqrt(np.sum(exact**2, axis=0))
    gap = sides * np.sqrt(np.sum((exact - fd) ** 2, axis=0))
    assert 10.0 < scaled.max() <= decomp.constants.grad_bound
    # measured max gap / max scaled gradient: 9.6e-8 (disk), 6.7e-8
    # (lshape), 1.8e-7 (box3), and at most 1.8e-7 over seeds 0-3; the gate
    # leaves a factor 5.6 above that
    assert gap.max() <= 1e-6 * scaled.max(), gap.max() / scaled.max()


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_fold_is_all_and_any_over_the_last_axis(size):
    rng = np.random.default_rng(size)
    for shape in ((0, size), (257, size), (3, 5, size)):
        for p_true in (0.2, 0.5, 0.9):
            m = rng.random(shape) < p_true
            before = m.copy()
            assert np.array_equal(_fold(np.logical_and, m), np.all(m, axis=-1))
            assert np.array_equal(_fold(np.logical_or, m), np.any(m, axis=-1))
            assert np.array_equal(m, before)


def test_neighbor_scan_reports_a_pair_one_level_past_the_window():
    # a hand-made family that breaks the Lipschitz argument: a cube at level
    # 7 whose support touches that of a level-2 cube
    d = decompose(Box((0.0, 0.0), (1.0, 1.0)), WhitneyParams(k_max=6))
    gap = int(d.constants.level_window) + 1
    levels = {2: np.array([[1, 1]]), 2 + gap: np.array([[2 ** (gap + 1), 40]])}
    pair = _hand_made(d, levels)
    assert _reference_neighbor_side_ratios(pair) == (2.0**gap, gap)
    assert _neighbor_check(pair) == (2.0**gap, gap)
    assert gap > d.constants.level_window
    assert not _support_checks(pair)["neighbor_side_ratio"].passed


def test_neighbor_check_fails_without_a_positive_support_window():
    # the corner cube (0, 0) at level 2 of the unit square has center ratio
    # 1/2, below eta_prime sqrt(2) / 2, so the support window starts below 0
    # and bounds no side ratio
    d = decompose(Box((0.0, 0.0), (1.0, 1.0)), WhitneyParams(k_max=6))
    corner = _hand_made(d, {2: np.array([[0, 0]]), 3: np.array([[3, 3]])})
    checks = _support_checks(corner)
    assert checks["support_distance_window"].worst <= 0.0
    assert _neighbor_check(corner) == (math.inf, math.inf)
    assert not checks["neighbor_side_ratio"].passed

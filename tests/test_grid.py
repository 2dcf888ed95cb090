"""Grid, masked fields, five-point operators, smoothed-distance Laplacian."""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import singular_part
from hypothesis import given, settings
from hypothesis import strategies as st

import blowup.grid
from blowup.energy import build_singular_part
from blowup.geometry import (
    Annulus,
    Box,
    Disk,
    Polygon,
    SmoothingProfile,
    default_profile,
)
from blowup.grid import (
    DENSE_NODES,
    JACOBI_DAMPING,
    SMOOTHING_SWEEPS,
    Grid,
    ScalarField,
    _flat,
    _Level,
    _transfer_slices,
    laplacian_of_distance,
)
from blowup.solver import solve

DISK = Disk(radius=1.0)
SQUARE = Box((0.0, 0.0), (1.0, 1.0))
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
ANNULUS = Annulus((0.0, 0.0), 0.5, 1.0)
# lower corner 3.9 h past a multiple of 8h at h = 1/64: interior nodes of
# the 8h and 16h lattices then sit on the edge of their padded arrays
OFFSET_BOX = Box((3.9 / 64, 3.9 / 64), (3.0 + 3.9 / 64, 3.0 + 3.9 / 64))
# at h = 0.01 a level without its exterior ring moved a V-cycle by 3.5e-4
RING_BOX = Box(
    (0.21269280773768062, 0.7520496508879551), (2.9267170144952264, 3.722074057387839)
)
DOMAINS = [DISK, SQUARE, L_SHAPE, ANNULUS, OFFSET_BOX]
DOMAIN_IDS = ["disk", "square", "lshape", "annulus", "offset-box"]
SPACINGS = [1 / 8, 1 / 50, 1 / 64, 1 / 250]


@pytest.fixture
def float64_vcycle(monkeypatch):
    """Every V-cycle level in float64, for the checks of exact arithmetic:
    symmetry to rounding and agreement with the reference cycle."""
    monkeypatch.setattr(blowup.grid, "VCYCLE_DTYPE", np.float64)


@pytest.fixture(scope="module")
def disk_grid():
    return Grid(DISK, 1.0 / 64)


@pytest.fixture(scope="module")
def square_grid():
    return Grid(SQUARE, 1.0 / 64)


def test_classification_thresholds(disk_grid):
    g = disk_grid
    assert np.all(g.delta >= g.h / 2)
    assert np.all(g.signed_dist[~g.interior_mask] < g.h / 2)


def test_grid_nodes_on_lattice(disk_grid):
    g = disk_grid
    np.testing.assert_allclose(np.round(g.xs / g.h), g.xs / g.h, atol=1e-9)
    # symmetric domain -> symmetric node set containing the origin
    assert 0.0 in g.xs and 0.0 in g.ys


def test_laplacian_zero_field(disk_grid):
    z = np.zeros(disk_grid.n_interior)
    assert np.all(disk_grid.laplacian(z) == 0.0)


def test_laplacian_exact_on_quadratics(disk_grid):
    g = disk_grid
    x, y = g.points.T
    vals = x * x + y * y - 3 * x + 2 * y + 1
    lap = g.laplacian(vals)
    np.testing.assert_allclose(lap[g.full_stencil], 4.0, atol=1e-9)


def test_laplacian_sine_mode_second_order():
    errs = {}
    for h in (1.0 / 64, 1.0 / 128):
        g = Grid(SQUARE, h)
        x, y = g.points.T
        u = np.sin(np.pi * x) * np.sin(np.pi * y)
        lap = g.laplacian(u)
        exact = -2 * np.pi**2 * u
        err = np.abs(lap - exact)[g.full_stencil]
        scale = 2 * np.pi**2
        errs[h] = err.max() / scale
    assert errs[1.0 / 128] < 5e-3
    assert errs[1.0 / 64] / errs[1.0 / 128] > 3.0


def test_laplacian_symmetric(disk_grid):
    g = disk_grid
    rng = np.random.default_rng(5)
    a = rng.standard_normal(g.n_interior)
    b = rng.standard_normal(g.n_interior)
    left = np.dot(g.laplacian(a), b)
    right = np.dot(a, g.laplacian(b))
    assert left == pytest.approx(right, rel=1e-12)


def test_dirichlet_energy_matches_laplacian_pairing(disk_grid):
    g = disk_grid
    rng = np.random.default_rng(6)
    v = rng.standard_normal(g.n_interior)
    pairing = -np.dot(g.laplacian(v), v) * g.h**2
    assert g.dirichlet_energy(v) == pytest.approx(pairing, rel=1e-12)


def test_gradient_central_on_linear_field(square_grid):
    g = square_grid
    x, y = g.points.T
    vals = 2.0 * x - 3.0 * y
    gx, gy = g.gradient(vals)
    full = g.full_stencil
    np.testing.assert_allclose(gx[full], 2.0, atol=1e-10)
    np.testing.assert_allclose(gy[full], -3.0, atol=1e-10)


# reference versions of the padded-array operators: the Laplacian and
# gradient as they were before the scratch buffers (a fresh scatter and
# full-size temporaries per call), the stencil and the V-cycle residual on
# a stored diagonal as they were before the flat layout (2-D views of the
# padded arrays), and the V-cycle as it was before the stored 1/diag and
# the separable transfers


def _reference_stencil(g, full, out):
    o = out[1:-1, 1:-1]
    np.add(full[2:, 1:-1], full[:-2, 1:-1], out=o)
    o += full[1:-1, 2:]
    o += full[1:-1, :-2]
    o *= 0.25
    o -= full[1:-1, 1:-1]
    o *= 4.0
    o /= g.h * g.h


def _reference_residual(level):
    u, t = level.u, level.t
    np.multiply(level.diag, u, out=t)
    t[1:, :] -= u[:-1, :]
    t[:-1, :] -= u[1:, :]
    t[:, 1:] -= u[:, :-1]
    t[:, :-1] -= u[:, 1:]
    np.subtract(level.f, t, out=t)


def _reference_target(level):
    # t = (f + neighbor sum) / diag on the 2-D interior of the padded arrays
    u, o = level.u, level.t[1:-1, 1:-1]
    np.add(level.f[1:-1, 1:-1], u[2:, 1:-1], out=o)
    o += u[:-2, 1:-1]
    o += u[1:-1, 2:]
    o += u[1:-1, :-2]
    o *= level.inv_diag[1:-1, 1:-1]


def _reference_smooth(level, sweeps):
    for _ in range(sweeps):
        _reference_target(level)
        level.u *= 1.0 - JACOBI_DAMPING
        level.t *= JACOBI_DAMPING
        level.u += level.t


def _reference_scaled_residual(level):
    _reference_target(level)
    level.t -= level.u
    np.divide(level.t, level.inv_diag, out=level.t, where=level.mask)


def _offsets(fine, coarse):
    """Per axis, the fine index under coarse index 0, read off the position
    of the coarse level's first node in both arrays."""
    ids = np.arange(fine.n)[fine.nodes] if isinstance(fine.nodes, slice) else fine.nodes
    at = np.searchsorted(ids, coarse.nodes[0])
    assert ids[at] == coarse.nodes[0]
    return np.argwhere(fine.mask)[at] - 2 * np.argwhere(coarse.mask)[0]


PAD = 4  # zeros around the fine arrays: every coarse node's fine neighbors fit


def _reference_restrict(level, coarse):
    # full weighting at every coarse node of a zero-padded copy of t, with
    # temporaries: rows, then columns, in t's dtype until the sum of the
    # outer columns lands in coarse.f's (float64 on the coarsest level)
    ax, ay = _offsets(level, coarse)
    nx, ny = coarse.f.shape
    t = np.pad(level.t, PAD)
    rows = [t[PAD + ax + d : PAD + ax + d + 2 * nx : 2] for d in (-1, 0, 1)]
    r = 0.5 * (rows[0] + rows[2]) + rows[1]
    cols = [r[:, PAD + ay + d : PAD + ay + d + 2 * ny : 2] for d in (-1, 0, 1)]
    outer = (cols[0] + cols[2]).astype(coarse.f.dtype)
    coarse.f[...] = 0.5 * outer + cols[1]


def _reference_prolong(level, coarse):
    # linear interpolation of every coarse node along each axis into a
    # zero-padded fine array: columns, then rows, each sum in the dtype of
    # what it spreads and each spread in the fine level's dtype
    ax, ay = _offsets(level, coarse)

    def spread(e, a, n):
        out = np.zeros((n + 2 * PAD,) + e.shape[1:], level.t.dtype)
        out[PAD + a : PAD + a + 2 * len(e) : 2] = e
        zero = np.zeros((1,) + e.shape[1:], e.dtype)
        padded = np.concatenate([zero, e, zero])
        out[PAD + a - 1 : PAD + a + 2 * len(e) : 2] = 0.5 * (padded[:-1] + padded[1:])
        return out[PAD : PAD + n]

    nx, ny = level.u.shape
    level.t[...] = spread(spread(coarse.u.T, ay, ny).T, ax, nx) * level.mask
    level.u += level.t


def _transfer_pairs(a, n_fine, n_coarse):
    # the clipped (weight, fine slice, coarse slice) pairs behind the
    # nine-pass transfers
    pairs = []
    for d in (-1, 0, 1):
        lo = max(0, -((a + d) // 2))
        hi = min(n_coarse, (n_fine - 1 - a - d) // 2 + 1)
        start = a + d + 2 * lo
        pairs.append(
            (1.0 - 0.5 * abs(d), slice(start, start + 2 * (hi - lo), 2), slice(lo, hi))
        )
    return pairs


def _reference_cycle(g, mass, r):
    """One V-cycle on r with a stored diagonal, damped-Jacobi sweeps that
    divide by it, and nine clipped strided passes per transfer, on buffers
    of its own.  A hierarchy of its own supplies masks, nodes and the
    coarsest inverse."""
    levels = g._hierarchy()
    levels[-1].factor(4.0 + levels[-1].h ** 2 * mass[levels[-1].nodes])
    state = []
    for level in levels:
        diag = np.full(level.mask.shape, 4.0)
        diag[level.mask] = 4.0 + level.h**2 * mass[level.nodes]
        buffers = {k: np.zeros(level.mask.shape) for k in "fut"}
        state.append(SimpleNamespace(mask=level.mask, diag=diag, **buffers))
    for k, (fine, coarse) in enumerate(zip(levels, levels[1:])):
        ax, ay = _offsets(fine, coarse)
        (fx, fy), (cx, cy) = fine.mask.shape, coarse.mask.shape
        state[k].pairs = (_transfer_pairs(ax, fx, cx), _transfer_pairs(ay, fy, cy))

    def smooth(level, sweeps):
        for _ in range(sweeps):
            _reference_residual(level)
            level.t /= level.diag
            level.t *= JACOBI_DAMPING
            level.t *= level.mask
            level.u += level.t

    def cycle(k):
        level = state[k]
        if k == len(state) - 1:
            level.u[level.mask] = levels[k].inverse @ level.f[level.mask]
            return
        coarse = state[k + 1]
        xs, ys = level.pairs
        np.divide(level.f, level.diag, out=level.u)
        level.u *= JACOBI_DAMPING
        level.u *= level.mask
        smooth(level, SMOOTHING_SWEEPS - 1)
        _reference_residual(level)
        level.t *= level.mask
        coarse.f.fill(0.0)
        for wx, fx, cx in xs:
            for wy, fy, cy in ys:
                coarse.f[cx, cy] += wx * wy * level.t[fx, fy]
        cycle(k + 1)
        for wx, fx, cx in xs:
            for wy, fy, cy in ys:
                level.u[fx, fy] += wx * wy * coarse.u[cx, cy]
        level.u *= level.mask
        smooth(level, SMOOTHING_SWEEPS)

    top = state[0]
    top.f[top.mask] = r * (g.h * g.h)
    cycle(0)
    return top.u[top.mask]


def _use_reference_vcycle_kernels(monkeypatch):
    monkeypatch.setattr(_Level, "smooth", _reference_smooth)
    monkeypatch.setattr(_Level, "residual", _reference_scaled_residual)
    monkeypatch.setattr(_Level, "restrict", _reference_restrict)
    monkeypatch.setattr(_Level, "prolong", _reference_prolong)


def _reference_laplacian(g, values):
    full = g.scatter(values)
    out = np.zeros_like(full)
    out[1:-1, 1:-1] = (
        full[2:, 1:-1]
        + full[:-2, 1:-1]
        + full[1:-1, 2:]
        + full[1:-1, :-2]
        - 4.0 * full[1:-1, 1:-1]
    )
    out /= g.h * g.h
    return out[g.interior_mask]


def _reference_neighbors(a):
    """West, east, south and north neighbor of every node of a padded
    (nx, ny) array, zero (False) past the array's edge."""
    w, e, s, n = (np.zeros_like(a) for _ in range(4))
    w[1:, :] = a[:-1, :]
    e[:-1, :] = a[1:, :]
    s[:, 1:] = a[:, :-1]
    n[:, :-1] = a[:, 1:]
    return w, e, s, n


def _reference_gradient(g, values):
    full = g.scatter(values)
    h = g.h
    m = g.interior_mask
    w, e, s, n = _reference_neighbors(full)
    has_w, has_e, has_s, has_n = _reference_neighbors(m)

    def axis(lowv, highv, has_low, has_high):
        central = (highv - lowv) / (2.0 * h)
        up = (highv - full) / h
        down = (full - lowv) / h
        return np.where(
            has_low & has_high,
            central,
            np.where(has_high, up, np.where(has_low, down, 0.0)),
        )

    return axis(w, e, has_w, has_e)[m], axis(s, n, has_s, has_n)[m]


def _domains_and_spacings():
    """DOMAINS at SPACINGS; a case at 1/64 is named by its domain alone."""
    return [
        pytest.param(d, h, id=name if h == 1 / 64 else f"{name}-1/{round(1 / h)}")
        for d, name in zip(DOMAINS, DOMAIN_IDS)
        for h in SPACINGS
    ]


@pytest.mark.parametrize(
    "domain, h",
    # the tiny disk has nodes with no interior neighbor along an axis
    _domains_and_spacings() + [pytest.param(Disk((0.3, 0.1), 0.05), 1 / 64, id="tiny-disk")],
)
def test_operators_bit_identical_to_reference(domain, h):
    g = Grid(domain, h)
    rng = np.random.default_rng(3)
    for _ in range(2):  # the second call reuses the scratch buffers
        v = rng.standard_normal(g.n_interior)
        assert np.array_equal(g.laplacian(v), _reference_laplacian(g, v))
        gx, gy = g.gradient(v)
        rx, ry = _reference_gradient(g, v)
        assert np.array_equal(gx, rx)
        assert np.array_equal(gy, ry)
    profile = default_profile(domain)
    d_ext = profile.value(g.signed_dist)
    expected = np.zeros_like(d_ext)
    _reference_stencil(g, d_ext, expected)
    fd = laplacian_of_distance(g, profile, method="fd")
    assert np.array_equal(fd, expected[g.interior_mask])


def test_flat_view_refuses_a_buffer_it_would_copy():
    g = Grid(DISK, 1 / 16)
    with pytest.raises(ValueError, match="C-contiguous"):
        _flat(g.signed_dist[:, ::2])
    out = np.zeros((g.ny, g.nx)).T  # Fortran order: reshape(-1) would copy
    with pytest.raises(ValueError, match="C-contiguous"):
        g._stencil(g.signed_dist, out)
    assert not out.any()
    flat = _flat(g.signed_dist)
    assert np.shares_memory(flat, g.signed_dist)


def test_ghost_signed_sum_matches_neighbor_loop():
    g = Grid(DISK, 1 / 16)
    m = g.interior_mask
    expected, full = [], []
    for i, j in zip(*np.nonzero(m)):
        total = 0.0
        for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if not m[a, b]:
                total += g.signed_dist[a, b]
        expected.append(total)
        full.append(bool(m[i - 1, j] and m[i + 1, j] and m[i, j - 1] and m[i, j + 1]))
    assert np.count_nonzero(expected) > 0
    np.testing.assert_array_equal(g.ghost_signed_sum(), expected)
    assert 0 < sum(full) < len(full)
    np.testing.assert_array_equal(g.full_stencil, full)


# ---------------------------------------------------------------------------
# multigrid hierarchy and V-cycle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "domain", [DISK, L_SHAPE, OFFSET_BOX], ids=["disk", "lshape", "offset-box"]
)
def test_points_are_the_lattice_coordinates(domain):
    # built from the flat indices, bit for bit the nodes the grid sampled
    g = Grid(domain, 1 / 64)
    lattice = np.stack(np.meshgrid(g.xs, g.ys, indexing="ij"), axis=-1)
    want = lattice[g.interior_mask]
    assert np.array_equal(g.points, want)
    k = g.n_interior // 3
    assert np.array_equal(g.points_at(k), want[k])
    near = g.delta < 0.1
    assert np.array_equal(g.points_at(near), want[near])


@pytest.mark.parametrize(
    "domain",
    [DISK, SQUARE, L_SHAPE, ANNULUS, OFFSET_BOX],
    ids=["disk", "square", "lshape", "annulus", "offset-box"],
)
def test_coarse_levels_are_the_coarser_grids(domain):
    g = Grid(domain, 1 / 64)
    levels = g._hierarchy()
    assert len(levels) >= 3
    assert levels[-1].n <= 400 < levels[-2].n
    for k, level in enumerate(levels[1:], start=1):
        coarse = Grid(domain, 2**k * g.h)
        assert level.h == coarse.h
        assert level.n == coarse.n_interior
        # same interior nodes in the same (row-major) order
        assert np.array_equal(g.points[level.nodes], coarse.points)


@pytest.mark.parametrize("a", [-2, -1, 0, 1])
@pytest.mark.parametrize("n_fine", [7, 8])
def test_transfer_pairs_are_bilinear_interpolation(a, n_fine):
    # coarse index p sits on fine index a + 2p; P is bilinear interpolation
    # clipped to the fine array
    n_coarse = len(range(a, n_fine, 2))
    expected = np.zeros((n_fine, n_coarse))
    for p in range(n_coarse):
        for d in (-1, 0, 1):
            if 0 <= a + 2 * p + d < n_fine:
                expected[a + 2 * p + d, p] = 1.0 - 0.5 * abs(d)
    window, f0, fo = _transfer_slices(a, n_fine, n_coarse)
    inside = np.zeros(n_coarse, dtype=bool)
    inside[window] = True
    # the window holds every coarse node whose fine node is off the ring
    for p in range(n_coarse):
        if 1 <= a + 2 * p <= n_fine - 2:
            assert inside[p]
    # through the window's slices, restriction is P^T on the window's rows
    # and prolongation is P on coarse vectors that vanish off the window
    fine_eye = np.eye(n_fine)
    restricted = np.zeros((n_coarse, n_fine))
    restricted[window] = 0.5 * (fine_eye[fo][:-1] + fine_eye[fo][1:]) + fine_eye[f0]
    assert np.array_equal(restricted[inside], expected.T[inside])
    coarse_eye = np.eye(np.count_nonzero(inside))
    prolonged = np.zeros((n_fine, len(coarse_eye)))
    prolonged[f0] = coarse_eye
    ends = [coarse_eye[:1], coarse_eye[:-1] + coarse_eye[1:], coarse_eye[-1:]]
    prolonged[fo] = 0.5 * np.concatenate(ends)
    assert np.array_equal(prolonged, expected[:, inside])


@pytest.mark.parametrize(
    "domain", [DISK, L_SHAPE, OFFSET_BOX], ids=["disk", "lshape", "offset-box"]
)
def test_vcycle_symmetric_positive_definite(domain, float64_vcycle):
    g = Grid(domain, 1 / 64)
    precondition = g.vcycle_preconditioner(2.0 / g.delta**2)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal(g.n_interior)
        y = rng.standard_normal(g.n_interior)
        mx, my = precondition(x), precondition(y)
        gap = abs(np.dot(mx, y) - np.dot(x, my))
        assert gap <= 1e-12 * np.linalg.norm(mx) * np.linalg.norm(y)
        assert np.dot(mx, x) > 0.0


@pytest.mark.parametrize(
    "domain, h",
    _domains_and_spacings() + [pytest.param(RING_BOX, 0.01, id="ring-box-0.01")],
)
def test_vcycle_bit_identical_to_reference_residual(domain, h, monkeypatch):
    # the flat sweep, residual and transfers against 2-D references: the
    # shifts by +-1 wrap, so this also fails if an interior node sits on a
    # level's outer ring
    g = Grid(domain, h)
    mass = 2.0 / g.delta**2
    r = np.random.default_rng(4).standard_normal(g.n_interior)
    flat = g.vcycle_preconditioner(mass)(r)
    _use_reference_vcycle_kernels(monkeypatch)
    assert np.array_equal(g.vcycle_preconditioner(mass)(r), flat)


@pytest.mark.parametrize("domain, h", _domains_and_spacings())
def test_retargeted_vcycle_is_a_fresh_one_bit_for_bit(domain, h):
    # a solve builds its levels once and retargets them at each Newton
    # step's mass: after cycles at one mass the kept levels must cycle at
    # another exactly as levels built for it
    g = Grid(domain, h)
    rng = np.random.default_rng(6)
    first, second = (m / g.delta**2 for m in (2.0, rng.uniform(1.0, 3.0, g.n_interior)))
    r = rng.standard_normal(g.n_interior)
    kept = g.vcycle_preconditioner(first)
    kept(r), kept(-r)
    kept.retarget(second)
    want = g.vcycle_preconditioner(second)(r)
    assert np.array_equal(kept(r), want)
    with pytest.raises(ValueError, match="one entry per interior node"):
        kept.retarget(second[1:])


@pytest.mark.parametrize(
    "domain, h",
    _domains_and_spacings() + [pytest.param(RING_BOX, 0.01, id="ring-box-0.01")],
)
def test_vcycle_matches_reference_cycle(domain, h, float64_vcycle):
    # the stored 1/diag and the separable transfers round differently from
    # the stored diag and the nine-pass transfers, and only that far
    g = Grid(domain, h)
    mass = 2.0 / g.delta**2
    precondition = g.vcycle_preconditioner(mass)
    r = np.random.default_rng(4).standard_normal(g.n_interior)
    got = precondition(r)
    want = _reference_cycle(g, mass, r)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


SHIPPED_CASES = [
    pytest.param(domain, h, id=f"{name}-1/{round(1 / h)}")
    for domain, name in ((DISK, "disk"), (L_SHAPE, "lshape"), (OFFSET_BOX, "offset-box"))
    for h in (1 / 64, 1 / 256)
]


def test_vcycle_levels_smooth_in_float32_and_solve_the_coarsest_in_float64():
    g = Grid(DISK, 1 / 64)
    *smoothing, coarsest = g._hierarchy()
    assert smoothing
    for level in smoothing:
        for a in (level.inv_diag, level.f, level.u, level.t, level.scratch):
            assert a.dtype == np.float32
    assert coarsest.f.dtype == coarsest.u.dtype == np.float64
    out = g.vcycle_preconditioner(np.ones(g.n_interior))(np.ones(g.n_interior))
    assert out.dtype == np.float64
    # a grid of one level is all coarsest: float64 throughout
    (only,) = Grid(DISK, 1 / 8)._hierarchy()
    assert only.f.dtype == only.u.dtype == np.float64


@pytest.mark.parametrize("domain, h", SHIPPED_CASES)
def test_vcycle_in_float32_is_nearly_symmetric(domain, h):
    # |<Mx, y> - <x, My>| / (|Mx| |y|): at most 3.3e-9 measured here (the
    # L-shape at 1/64), gated at 1e-8, three times that
    g = Grid(domain, h)
    precondition = g.vcycle_preconditioner(2.0 / g.delta**2)
    rng = np.random.default_rng(8)
    for _ in range(6):
        x = rng.standard_normal(g.n_interior)
        y = rng.standard_normal(g.n_interior)
        mx, my = precondition(x), precondition(y)
        gap = abs(np.dot(mx, y) - np.dot(x, my))
        assert gap <= 1e-8 * np.linalg.norm(mx) * np.linalg.norm(y)
        assert np.dot(mx, x) > 0.0


@pytest.mark.parametrize("domain, h", SHIPPED_CASES)
def test_vcycle_in_float32_stays_near_the_float64_cycle(domain, h, monkeypatch):
    # |M32 r - M64 r| / |M64 r|: at most 3.0e-7 (2.5 float32 eps) measured
    # here (the offset box at 1/256) and 4.5e-7 over 20 vectors per case,
    # gated at 8 float32 eps (9.5e-7), three and two times those
    g = Grid(domain, h)
    mass = 2.0 / g.delta**2
    single = g.vcycle_preconditioner(mass)
    monkeypatch.setattr(blowup.grid, "VCYCLE_DTYPE", np.float64)
    double = g.vcycle_preconditioner(mass)
    rng = np.random.default_rng(4)
    for _ in range(3):
        r = rng.standard_normal(g.n_interior)
        want = double(r)
        gap = np.linalg.norm(single(r) - want)
        assert gap <= 8 * np.finfo(np.float32).eps * np.linalg.norm(want)


def test_vcycle_allocates_little_beyond_its_result():
    # one application at 1/64 after a first one
    g = Grid(DISK, 1 / 64)
    precondition = g.vcycle_preconditioner(2.0 / g.delta**2)
    r = np.random.default_rng(5).standard_normal(g.n_interior)
    precondition(r)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = precondition(r)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # no array of grid size is alive but the result (101 KB) or numpy's
    # iteration buffers, up to two of getbufsize() doubles, which the
    # strided transfer passes take; a level-0 array (142 KB) is larger
    bound = max(out.nbytes, 2 * np.getbufsize() * 8) + 8 * 1024
    assert g._u.nbytes > bound
    assert peak <= bound, peak


def test_grid_and_singular_part_heap_on_the_disk_at_1_256():
    # traced from before the grid: what the grid keeps (measured 9.74 MiB:
    # the signed distances, the interior mask, its flat indices, the
    # interior distances, the stencil sets and the scratch pair), the peak
    # while build_singular_part runs on it (measured 28.52 MiB) and what
    # the grid and the singular part keep (measured 14.44 MiB: d, weight
    # and r per interior node; 16.00 MiB while Lap d was kept too); each
    # gate is the measured value plus about 5%
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = Grid(DISK, 1 / 256)
        kept = tracemalloc.get_traced_memory()[0] - before
        sp = build_singular_part(g)
        peak = tracemalloc.get_traced_memory()[1] - before
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    mib = 2**20
    assert kept <= 10.25 * mib, kept / mib
    assert peak <= 30.0 * mib, peak / mib
    assert held <= 15.15 * mib, held / mib


def _reference_dirichlet_energy(g, values):
    """The np.diff form: squared differences of a fresh scattered array."""
    full = g.scatter(values)
    dx = np.diff(full, axis=0)
    dy = np.diff(full, axis=1)
    return float(np.sum(dx * dx) + np.sum(dy * dy))


@pytest.mark.parametrize(
    "domain", [DISK, L_SHAPE, OFFSET_BOX], ids=["disk", "lshape", "offset-box"]
)
def test_dirichlet_energy_bit_identical_to_reference(domain):
    g = Grid(domain, 1 / 64)
    rng = np.random.default_rng(6)
    mass = 2.0 / g.delta**2
    r = rng.standard_normal(g.n_interior)
    cycled = g.vcycle_preconditioner(mass)(r)
    for _ in range(3):
        v = rng.standard_normal(g.n_interior)
        assert g.dirichlet_energy(v) == _reference_dirichlet_energy(g, v)
    # it leaves the scratch result zero past the five-point passes' range,
    # as the V-cycle needs it
    t = _flat(g._t)
    assert not t[: g.ny + 1].any() and not t[t.size - g.ny - 1 :].any()
    assert np.array_equal(g.vcycle_preconditioner(mass)(r), cycled)


def test_dirichlet_energy_allocates_no_grid_array():
    # one call at 1/256 after a first one: no padded array (2.1 MB) nor
    # interior vector (1.6 MB), only numpy's iteration buffers for the
    # strided differences, up to two of getbufsize() doubles
    g = Grid(DISK, 1 / 256)
    v = np.random.default_rng(7).standard_normal(g.n_interior)
    g.dirichlet_energy(v)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g.dirichlet_energy(v)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = 2 * np.getbufsize() * 8 + 8 * 1024
    assert v.nbytes > bound
    assert peak <= bound, peak


def test_dense_level_refused_on_a_thin_strip(monkeypatch):
    # at h = 0.01 the strip has no interior node at 2h, so the fine grid
    # itself would be the dense level
    def no_inverse(self, diag):
        raise AssertionError("an inverse was formed")

    monkeypatch.setattr(_Level, "factor", no_inverse)
    g = Grid(Box((0.0, 0.0), (32.0, 0.03)), 0.01)
    assert g.n_interior > DENSE_NODES
    with pytest.raises(ValueError, match=rf"{g.n_interior} interior nodes.*too thin for h = 0\.01"):
        g.vcycle_preconditioner(np.ones(g.n_interior))


def test_thin_strip_below_the_dense_cap_still_solves():
    strip = Box((0.0, 0.0), (4.0, 0.03))
    g = Grid(strip, 0.01)
    assert g.n_interior == 798
    assert len(g._hierarchy()) == 1
    rep = solve(build_singular_part(g))
    assert rep.converged
    assert rep.linear_converged


@pytest.mark.parametrize("mode", ["continuum", "lattice"])
def test_solve_bit_identical_to_reference_kernels(mode, monkeypatch):
    def run():
        rep = solve(singular_part(DISK, 1 / 64, residual_mode=mode))
        return rep.w.values, rep.steps

    w, steps = run()
    monkeypatch.setattr(Grid, "_stencil", _reference_stencil)
    monkeypatch.setattr(Grid, "gradient", _reference_gradient)
    _use_reference_vcycle_kernels(monkeypatch)
    w_ref, steps_ref = run()
    assert np.array_equal(w, w_ref)
    assert steps == steps_ref


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    disk=st.booleans(),
    corner=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    side=st.floats(0.3, 3.0),
    aspect=st.floats(0.3, 1.0),
    cells=st.floats(8.0, 200.0),
)
def test_hierarchy_keeps_the_ring_invariant(disk, corner, side, aspect, cells):
    # cells: spacings across the short side, so there are interior nodes
    x, y = corner
    if disk:
        domain = Disk((x, y), side / 2)
        h = side / cells
    else:
        domain = Box((x, y), (x + side, y + aspect * side))
        h = aspect * side / cells
    g = Grid(domain, h)
    levels = g._hierarchy()
    for k, level in enumerate(levels):
        m = level.mask
        assert not (m[[0, -1]].any() or m[:, [0, -1]].any())
        coarse = Grid(domain, 2**k * h)
        assert level.n == coarse.n_interior
        assert np.array_equal(g.points[level.nodes], coarse.points)
    # symmetry to rounding holds in exact arithmetic, so in float64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blowup.grid, "VCYCLE_DTYPE", np.float64)
        precondition = g.vcycle_preconditioner(2.0 / g.delta**2)
    rng = np.random.default_rng(9)
    for _ in range(3):
        a = rng.standard_normal(g.n_interior)
        b = rng.standard_normal(g.n_interior)
        ma, mb = precondition(a), precondition(b)
        gap = abs(np.dot(ma, b) - np.dot(a, mb))
        assert gap <= 1e-12 * np.linalg.norm(ma) * np.linalg.norm(b)


def test_vcycle_exact_on_a_single_level():
    # at most 400 interior nodes: no coarsening, the dense solve is exact
    g = Grid(DISK, 1 / 8)
    assert g.n_interior <= 400
    mass = np.linspace(1.0, 3.0, g.n_interior)
    b = np.random.default_rng(2).standard_normal(g.n_interior)
    x = g.vcycle_preconditioner(mass)(b)
    np.testing.assert_allclose(-g.laplacian(x) + mass * x, b, atol=1e-10)


def test_scalar_field_csv(tmp_path, square_grid):
    f = ScalarField(square_grid, square_grid.points.sum(axis=1))
    path = tmp_path / "field.csv"
    f.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (square_grid.n_interior, 3)
    np.testing.assert_allclose(data[:, 2], f.values)


def test_field_length_checked(square_grid):
    with pytest.raises(ValueError):
        ScalarField(square_grid, np.zeros(3))


# ---------------------------------------------------------------------------
# Laplacian of the smoothed distance
# ---------------------------------------------------------------------------


def test_lap_distance_disk_identity_zone():
    prof = SmoothingProfile(transition_start=0.2)
    g = Grid(DISK, 1.0 / 64)
    lap_d = laplacian_of_distance(g, prof, method="analytic")
    rho = np.linalg.norm(g.points, axis=1)
    zone = g.delta < 0.19
    np.testing.assert_allclose(lap_d[zone], -1.0 / rho[zone], rtol=1e-12)


def test_lap_distance_disk_saturated_zone_zero():
    prof = SmoothingProfile(transition_start=0.2)
    g = Grid(DISK, 1.0 / 64)
    lap_d = laplacian_of_distance(g, prof, method="analytic")
    assert np.all(lap_d[g.delta > 0.61] == 0.0)


def test_lap_distance_fd_matches_analytic_on_disk():
    """Cross-validation of the two paths away from profile seams and center."""
    prof = SmoothingProfile(transition_start=0.2)
    diffs = {}
    for h in (1.0 / 64, 1.0 / 128):
        g = Grid(DISK, h)
        ana = laplacian_of_distance(g, prof, method="analytic")
        fd = laplacian_of_distance(g, prof, method="fd")
        seam = np.minimum(
            np.abs(g.delta - prof.transition_start),
            np.abs(g.delta - prof.transition_end),
        )
        rho = np.linalg.norm(g.points, axis=1)
        sel = (seam > 3 * h) & (rho > 0.2) & g.full_stencil
        diffs[h] = np.max(np.abs(ana[sel] - fd[sel]))
    assert diffs[1.0 / 128] < 5e-3
    assert diffs[1.0 / 64] / diffs[1.0 / 128] > 3.0


def test_lap_distance_fd_square_plateau():
    # inside the blend zone of a square, away from the diagonal ridges, the
    # smoothed distance is F(face distance) and its Laplacian is F''(delta)
    prof = SmoothingProfile(transition_start=0.1)
    g = Grid(SQUARE, 1.0 / 128)
    fd = laplacian_of_distance(g, prof, method="fd")
    x, y = g.points[:, 0], g.points[:, 1]
    ridge = np.minimum(np.abs(x - y), np.abs(x + y - 1.0)) / np.sqrt(2.0)
    sel = (ridge > 0.05) & (g.delta > 0.12) & (g.delta < 0.28)
    np.testing.assert_allclose(fd[sel], prof.curvature(g.delta[sel]), atol=2e-2)


def test_lap_distance_analytic_refused_for_polygon():
    poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    g = Grid(poly, 1.0 / 32)
    with pytest.raises(ValueError):
        laplacian_of_distance(g, default_profile(poly), method="analytic")


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -0.5])
def test_grid_rejects_a_spacing_that_is_not_positive_and_finite(h):
    # NaN used to fail converting to an integer, and inf to warn twice
    # and then find no interior node
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="h must be positive and finite"):
            Grid(DISK, h)


def test_grid_rejects_too_coarse():
    with pytest.raises(ValueError):
        Grid(Box((0.0, 0.0), (0.01, 0.01)), h=0.5)

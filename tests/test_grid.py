"""Grid, masked fields, five-point operators, smoothed-distance Laplacian."""

import numpy as np
import pytest

from blowup.geometry import (
    Annulus,
    Box,
    Disk,
    Polygon,
    SmoothingProfile,
    default_profile,
)
from blowup.grid import (
    Grid,
    ScalarField,
    _neighbors,
    _transfer_pairs,
    laplacian_of_distance,
)

DISK = Disk(radius=1.0)
SQUARE = Box((0.0, 0.0), (1.0, 1.0))
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
ANNULUS = Annulus((0.0, 0.0), 0.5, 1.0)
# lower corner 3.9 h past a multiple of 8h at h = 1/64: interior nodes of
# the 8h and 16h lattices then sit on the edge of their padded arrays
OFFSET_BOX = Box((3.9 / 64, 3.9 / 64), (3.0 + 3.9 / 64, 3.0 + 3.9 / 64))


@pytest.fixture(scope="module")
def disk_grid():
    return Grid(DISK, 1.0 / 64)


@pytest.fixture(scope="module")
def square_grid():
    return Grid(SQUARE, 1.0 / 64)


def test_classification_thresholds(disk_grid):
    g = disk_grid
    assert np.all(g.delta >= g.h / 2)
    adj = g.classification == 1
    assert np.all(g.signed_dist[adj] > 0)
    assert np.all(g.signed_dist[adj] < g.h / 2)
    ext = g.classification == 0
    assert np.all(g.signed_dist[ext] <= 0)


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


# reference versions of the padded-array operators, as they were before the
# scratch buffers: a fresh scatter and full-size temporaries per call


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


def _reference_gradient(g, values):
    full = g.scatter(values)
    h = g.h
    m = g.interior_mask
    w, e, s, n = _neighbors(full)
    has_w, has_e, has_s, has_n = _neighbors(m)

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


@pytest.mark.parametrize(
    "domain",
    [DISK, SQUARE, L_SHAPE, Disk((0.3, 0.1), 0.05)],
    ids=["disk", "square", "lshape", "tiny-disk"],
)
def test_operators_bit_identical_to_reference(domain):
    # the tiny disk has nodes with no interior neighbor along an axis
    g = Grid(domain, 1 / 64)
    rng = np.random.default_rng(3)
    for _ in range(2):  # the second call reuses the scratch buffers
        v = rng.standard_normal(g.n_interior)
        assert np.array_equal(g.laplacian(v), _reference_laplacian(g, v))
        gx, gy = g.gradient(v)
        rx, ry = _reference_gradient(g, v)
        assert np.array_equal(gx, rx)
        assert np.array_equal(gy, ry)


def test_ghost_signed_sum_matches_neighbor_loop():
    g = Grid(DISK, 1 / 16)
    m = g.interior_mask
    expected = []
    for i, j in zip(*np.nonzero(m)):
        total = 0.0
        for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if not m[a, b]:
                total += g.signed_dist[a, b]
        expected.append(total)
    assert np.count_nonzero(expected) > 0
    np.testing.assert_array_equal(g.ghost_signed_sum(), expected)


# ---------------------------------------------------------------------------
# multigrid hierarchy and V-cycle
# ---------------------------------------------------------------------------


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


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("n_fine", [7, 8])
def test_transfer_pairs_are_bilinear_interpolation(a, n_fine):
    n_coarse = len(range(a, n_fine, 2))
    expected = np.zeros((n_fine, n_coarse))
    for p in range(n_coarse):
        for d in (-1, 0, 1):
            if 0 <= a + 2 * p + d < n_fine:
                expected[a + 2 * p + d, p] = 1.0 - 0.5 * abs(d)
    got = np.zeros((n_fine, n_coarse))
    eye = np.eye(n_coarse)
    for weight, fine, coarse in _transfer_pairs(a, n_fine, n_coarse):
        got[fine] += weight * eye[coarse]
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "domain", [DISK, L_SHAPE, OFFSET_BOX], ids=["disk", "lshape", "offset-box"]
)
def test_vcycle_symmetric_positive_definite(domain):
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
    lap_d = laplacian_of_distance(DISK, prof, g, method="analytic")
    rho = np.linalg.norm(g.points, axis=1)
    zone = g.delta < 0.19
    np.testing.assert_allclose(lap_d[zone], -1.0 / rho[zone], rtol=1e-12)


def test_lap_distance_disk_saturated_zone_zero():
    prof = SmoothingProfile(transition_start=0.2)
    g = Grid(DISK, 1.0 / 64)
    lap_d = laplacian_of_distance(DISK, prof, g, method="analytic")
    assert np.all(lap_d[g.delta > 0.61] == 0.0)


def test_lap_distance_fd_matches_analytic_on_disk():
    """Cross-validation of the two paths away from profile seams and center."""
    prof = SmoothingProfile(transition_start=0.2)
    diffs = {}
    for h in (1.0 / 64, 1.0 / 128):
        g = Grid(DISK, h)
        ana = laplacian_of_distance(DISK, prof, g, method="analytic")
        fd = laplacian_of_distance(DISK, prof, g, method="fd")
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
    fd = laplacian_of_distance(SQUARE, prof, g, method="fd")
    x, y = g.points[:, 0], g.points[:, 1]
    ridge = np.minimum(np.abs(x - y), np.abs(x + y - 1.0)) / np.sqrt(2.0)
    sel = (ridge > 0.05) & (g.delta > 0.12) & (g.delta < 0.28)
    np.testing.assert_allclose(fd[sel], prof.curvature(g.delta[sel]), atol=2e-2)


def test_lap_distance_analytic_refused_for_polygon():
    poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    g = Grid(poly, 1.0 / 32)
    with pytest.raises(ValueError):
        laplacian_of_distance(poly, default_profile(poly), g, method="analytic")


def test_grid_rejects_too_coarse():
    with pytest.raises(ValueError):
        Grid(Box((0.0, 0.0), (0.01, 0.01)), h=0.5)

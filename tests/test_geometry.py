"""Geometry layer: distances, cube predicates, smoothing profile."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup.geometry import (
    Annulus,
    Box,
    Disk,
    Polygon,
    SmoothingProfile,
    _box_corners,
    default_profile,
    domain_from_json,
)

RNG = np.random.default_rng(20260822)

UNIT_DISK = Disk(center=(0.0, 0.0), radius=1.0)
UNIT_SQUARE = Box(corner_min=(0.0, 0.0), corner_max=(1.0, 1.0))
SQUARE_POLY = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
RING = Annulus(center=(0.0, 0.0), inner_radius=0.5, outer_radius=1.0)

ALL_DOMAINS = [UNIT_DISK, UNIT_SQUARE, SQUARE_POLY, L_SHAPE, RING]


def quintic_blend_oracle(t0, t):
    """Independent construction of the unique quintic on [t0, 3*t0] matching
    value/slope/curvature (t0, 1, 0) at the left end and (2*t0, 0, 0) at the
    right end, evaluated by a direct 6x6 Hermite solve."""
    a, b = t0, 3.0 * t0

    def rows(x):
        return [
            [1, x, x**2, x**3, x**4, x**5],
            [0, 1, 2 * x, 3 * x**2, 4 * x**3, 5 * x**4],
            [0, 0, 2, 6 * x, 12 * x**2, 20 * x**3],
        ]

    A = np.array(rows(a) + rows(b), dtype=float)
    rhs = np.array([t0, 1.0, 0.0, 2.0 * t0, 0.0, 0.0])
    coeffs = np.linalg.solve(A, rhs)
    return np.polyval(coeffs[::-1], t)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_disk_center_distance():
    assert UNIT_DISK.distance(np.array([0.0, 0.0])) == pytest.approx(1.0)


def test_rectangle_point_distance():
    assert UNIT_SQUARE.distance(np.array([0.5, 0.25])) == pytest.approx(0.25)


def test_square_polygon_matches_box_closed_form():
    pts = RNG.uniform(-0.5, 1.5, size=(1000, 2))
    np.testing.assert_allclose(
        SQUARE_POLY.signed_distance(pts),
        UNIT_SQUARE.signed_distance(pts),
        atol=1e-12,
    )


def test_annulus_distance_both_walls():
    p = np.array([[0.6, 0.0], [0.95, 0.0], [0.3, 0.0], [1.2, 0.0]])
    np.testing.assert_allclose(
        RING.signed_distance(p), [0.1, 0.05, -0.2, -0.2], atol=1e-14
    )


def test_outside_points_negative_signed_distance():
    for dom in ALL_DOMAINS:
        lo, hi = dom.bounding_box()
        far = hi + 1.0
        assert dom.signed_distance(far) < 0
        assert dom.distance(far) > 0
        assert not dom.contains(far)


def test_lshape_reflex_corner_distance():
    # near the reflex corner the nearest boundary point is the corner itself
    p = np.array([0.9, 0.9])
    assert L_SHAPE.signed_distance(p) == pytest.approx(np.hypot(0.1, 0.1))
    assert L_SHAPE.distance_laplacian(p) == pytest.approx(1.0 / np.hypot(0.1, 0.1))
    # deep in an arm the nearest feature is an edge
    q = np.array([0.5, 1.7])  # 0.3 below the top edge, nearest feature an edge
    assert L_SHAPE.signed_distance(q) == pytest.approx(0.3)
    assert L_SHAPE.distance_laplacian(q) == pytest.approx(0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4),
    st.tuples(st.floats(-2, 3), st.floats(-2, 3)),
    st.tuples(st.floats(-2, 3), st.floats(-2, 3)),
)
def test_signed_distance_is_1_lipschitz(idx, p, q):
    dom = ALL_DOMAINS[idx]
    p = np.asarray(p)
    q = np.asarray(q)
    dp = dom.signed_distance(p)
    dq = dom.signed_distance(q)
    assert abs(dp - dq) <= np.linalg.norm(p - q) + 1e-12


def test_distance_laplacian_disk_value():
    p = np.array([0.9, 0.0])
    assert UNIT_DISK.distance_laplacian(p) == pytest.approx(-1.0 / 0.9)


def test_distance_laplacian_annulus_branches():
    inner_side = np.array([0.6, 0.0])  # closer to the inner wall
    outer_side = np.array([0.9, 0.0])
    assert RING.distance_laplacian(inner_side) == pytest.approx(1.0 / 0.6)
    assert RING.distance_laplacian(outer_side) == pytest.approx(-1.0 / 0.9)


# ---------------------------------------------------------------------------
# cube predicates
# ---------------------------------------------------------------------------


def _random_cubes(dom, n=400, seed=7):
    rng = np.random.default_rng(seed)
    lo_b, hi_b = dom.bounding_box()
    span = hi_b - lo_b
    center = lo_b - 0.2 * span + rng.random((n, 2)) * 1.4 * span
    side = 10.0 ** rng.uniform(-3, -0.3, size=n) * span.max()
    return center - side[:, None] / 2, center + side[:, None] / 2


@pytest.mark.parametrize("dom", ALL_DOMAINS)
def test_cube_contained_sound(dom):
    lo, hi = _random_cubes(dom)
    contained = dom.cube_contained(lo, hi)
    ts = np.linspace(0.0, 1.0, 9)
    U, V = np.meshgrid(ts, ts, indexing="ij")
    for k in np.flatnonzero(contained):
        pts = np.stack(
            [lo[k, 0] + U * (hi[k, 0] - lo[k, 0]), lo[k, 1] + V * (hi[k, 1] - lo[k, 1])],
            axis=-1,
        )
        assert np.all(dom.signed_distance(pts) > 0)


@pytest.mark.parametrize("dom", ALL_DOMAINS)
def test_cube_intersects_complete(dom):
    # every cube holding an interior sample point must report intersection
    lo, hi = _random_cubes(dom, seed=11)
    hits = dom.cube_intersects(lo, hi)
    ts = np.linspace(0.05, 0.95, 7)
    U, V = np.meshgrid(ts, ts, indexing="ij")
    for k in range(len(lo)):
        pts = np.stack(
            [lo[k, 0] + U * (hi[k, 0] - lo[k, 0]), lo[k, 1] + V * (hi[k, 1] - lo[k, 1])],
            axis=-1,
        )
        if np.any(dom.signed_distance(pts) > 1e-9):
            assert hits[k]


@pytest.mark.parametrize("dom", ALL_DOMAINS)
def test_cube_distance_implications(dom):
    """delta(center) > (s/2)*sqrt(2)  =>  cube inside  =>  delta(center) > s/2."""
    rng = np.random.default_rng(3)
    lo_b, hi_b = dom.bounding_box()
    pts = lo_b + rng.random((3000, 2)) * (hi_b - lo_b)
    pts = pts[dom.contains(pts)]
    sides = 10.0 ** rng.uniform(-3, -0.5, size=len(pts))
    lo = pts - sides[:, None] / 2
    hi = pts + sides[:, None] / 2
    contained = dom.cube_contained(lo, hi)
    delta = dom.distance(pts)
    must_hold = delta > (sides / 2) * np.sqrt(2.0) + 1e-12
    assert np.all(contained[must_hold])
    assert np.all(delta[contained] > sides[contained] / 2)


def test_notched_polygon_rejects_corners_only_test():
    # all four cube corners inside, yet a thin notch of the boundary cuts
    # through the cube: the edge-overlap test must reject containment
    notched = Polygon(
        [(0, 0), (2, 0), (2, 2), (1.05, 2), (1.0, 1.0), (0.95, 2), (0, 2)]
    )
    lo = np.array([[0.9, 0.9]])
    hi = np.array([[1.1, 1.1]])
    corners = np.array(
        [[0.9, 0.9], [1.1, 0.9], [1.1, 1.1], [0.9, 1.1]]
    )
    assert np.all(notched.contains(corners))
    assert not notched.cube_contained(lo, hi)[0]


# ---------------------------------------------------------------------------
# polygon distance: per-edge passes against the all-edges-at-once reference
# ---------------------------------------------------------------------------

# two reflex corners, and slanted edges whose projection parameters round
HEXAGON = Polygon([(0, 0), (2, 0.5), (4, 0), (3, 2), (2, 1.2), (1, 2)])


def _reference_edge_distances(poly, p):
    a = poly._a
    ab = poly._b - a
    ab2 = np.sum(ab * ab, axis=-1)
    ap = p[..., None, :] - a
    t = np.clip(np.sum(ap * ab, axis=-1) / ab2, 0.0, 1.0)
    closest = a + t[..., None] * ab
    dist = np.linalg.norm(p[..., None, :] - closest, axis=-1)
    return dist, t


def _reference_inside(poly, p):
    x, y = p[..., 0], p[..., 1]
    ax, ay = poly._a[:, 0], poly._a[:, 1]
    bx, by = poly._b[:, 0], poly._b[:, 1]
    crosses = (ay > y[..., None]) != (by > y[..., None])
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = ax + (y[..., None] - ay) * (bx - ax) / (by - ay)
    hit = crosses & (x[..., None] < x_int)
    return np.sum(hit, axis=-1) % 2 == 1


def _reference_signed_distance(poly, p):
    dist, _ = _reference_edge_distances(poly, p)
    d = np.min(dist, axis=-1)
    return np.where(_reference_inside(poly, p), d, -d)


def _reference_distance_laplacian(poly, p):
    dist, t = _reference_edge_distances(poly, p)
    k = np.argmin(dist, axis=-1)
    t_near = np.take_along_axis(t, k[..., None], axis=-1)[..., 0]
    d_near = np.take_along_axis(dist, k[..., None], axis=-1)[..., 0]
    at_vertex = (t_near <= 0.0) | (t_near >= 1.0)
    return np.where(at_vertex, 1.0 / np.maximum(d_near, 1e-300), 0.0)


def _reference_cube_contained(poly, lo, hi):
    corners_in = _reference_signed_distance(poly, _box_corners(lo, hi)) > 0.0
    return np.all(corners_in, axis=-1) & ~poly._edges_overlap_box(lo, hi)


def _reference_cube_intersects(poly, lo, hi):
    corners_in = _reference_signed_distance(poly, _box_corners(lo, hi)) > 0.0
    any_in = np.any(corners_in, axis=-1)
    v = poly.vertices
    vert_in = np.any(
        np.all((v[None, :, :] > lo[:, None, :]) & (v[None, :, :] < hi[:, None, :]), axis=-1),
        axis=-1,
    )
    return any_in | vert_in | poly._edges_overlap_box(lo, hi)


def _special_points(poly):
    """The vertices (reflex corners among them), points exactly on every
    edge, and the 1/16 lattice over the bounding box, which holds equidistant
    points and points level with the vertices."""
    a, b = poly._a, poly._b
    t = np.linspace(0.0, 1.0, 17)
    on_edges = (a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]).reshape(-1, 2)
    lo, hi = poly.bounding_box()
    xs = lo[0] - 0.5 + np.arange(16 * (hi[0] - lo[0] + 1) + 1) / 16
    ys = lo[1] - 0.5 + np.arange(16 * (hi[1] - lo[1] + 1) + 1) / 16
    lattice = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    return np.concatenate([poly.vertices, on_edges, lattice])


@pytest.mark.parametrize("poly", [L_SHAPE, HEXAGON], ids=["lshape", "hexagon"])
def test_polygon_distance_bit_identical_to_reference(poly):
    rng = np.random.default_rng(11)
    lo, hi = poly.bounding_box()
    random_pts = lo - 0.5 + rng.random((20000, 2)) * (hi - lo + 1.0)
    special = _special_points(poly)
    for pts in (random_pts, special, special.reshape(-1, 1, 2), special[7]):
        assert np.array_equal(
            poly.signed_distance(pts), _reference_signed_distance(poly, pts)
        )
        assert np.array_equal(
            poly.distance_laplacian(pts), _reference_distance_laplacian(poly, pts)
        )


@pytest.mark.parametrize("poly", [L_SHAPE, HEXAGON], ids=["lshape", "hexagon"])
def test_polygon_cube_predicates_bit_identical_to_reference(poly):
    lo_r, hi_r = _random_cubes(poly, n=4000, seed=5)
    # dyadic boxes put corners exactly on edges, vertices and reflex corners
    boxes = [(lo_r, hi_r)]
    for s in (1.0, 0.5, 0.25, 0.125):
        i, j = np.meshgrid(np.arange(-1, 4 / s + 1), np.arange(-1, 2 / s + 1), indexing="ij")
        m = np.stack([i.ravel(), j.ravel()], axis=-1)
        boxes.append((m * s, (m + 1) * s))
    for lo, hi in boxes:
        assert np.array_equal(
            poly.cube_contained(lo, hi), _reference_cube_contained(poly, lo, hi)
        )
        assert np.array_equal(
            poly.cube_intersects(lo, hi), _reference_cube_intersects(poly, lo, hi)
        )


# ---------------------------------------------------------------------------
# smoothing profile
# ---------------------------------------------------------------------------


def test_profile_identity_zone():
    prof = SmoothingProfile(transition_start=0.2)
    assert prof.value(0.1) == pytest.approx(0.1)
    assert prof.slope(0.1) == 1.0
    assert prof.curvature(0.1) == 0.0


def test_profile_matches_hermite_oracle():
    t0 = 0.2
    prof = SmoothingProfile(transition_start=t0)
    ts = np.linspace(t0, 3 * t0, 41)
    np.testing.assert_allclose(prof.value(ts), quintic_blend_oracle(t0, ts), atol=1e-12)
    # the frozen value used elsewhere in the suite
    assert prof.value(0.5) == pytest.approx(quintic_blend_oracle(t0, 0.5))
    assert prof.value(0.5) == pytest.approx(0.39453125)


def test_profile_cap_and_saturation():
    prof = SmoothingProfile(transition_start=0.2)
    assert prof.cap == pytest.approx(0.4)
    assert prof.value(0.6) == pytest.approx(0.4)
    assert prof.value(5.0) == pytest.approx(0.4)
    assert prof.slope(0.61) == 0.0
    assert prof.curvature(0.61) == 0.0


def test_profile_c2_gluing_and_slope_range():
    prof = SmoothingProfile(transition_start=0.15, cap=0.5)
    ts = np.linspace(1e-4, prof.transition_end + 0.3, 20001)
    vals = prof.value(ts)
    slopes = prof.slope(ts)
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all((slopes >= 0.0) & (slopes <= 1.0))
    assert np.all(vals <= np.minimum(ts, prof.cap) + 1e-12)
    # derivative consistency across the seams
    eps = 1e-6
    for t in [prof.transition_start, prof.transition_end, 0.3]:
        fd_slope = (prof.value(t + eps) - prof.value(t - eps)) / (2 * eps)
        assert fd_slope == pytest.approx(prof.slope(t), abs=5e-6)
        fd_curv = (prof.slope(t + eps) - prof.slope(t - eps)) / (2 * eps)
        assert fd_curv == pytest.approx(prof.curvature(t), abs=5e-5)


def test_default_profile_uses_inradius():
    assert default_profile(UNIT_DISK).transition_start == pytest.approx(0.2)
    assert default_profile(UNIT_SQUARE).transition_start == pytest.approx(0.125)
    # L-shape inradius is 2 - sqrt(2): the largest disk touches both outer
    # walls and the reflex corner
    assert default_profile(L_SHAPE).transition_start == pytest.approx(
        (2.0 - np.sqrt(2.0)) / 4.0, rel=1e-2
    )


def test_smoothed_distance_identity_and_interior():
    prof = SmoothingProfile(transition_start=0.2)
    edge_pt = np.array([0.9, 0.0])  # delta = 0.1 on the unit disk
    assert prof.value(UNIT_DISK.signed_distance(edge_pt)) == pytest.approx(0.1)
    center = np.array([0.0, 0.0])
    val = prof.value(UNIT_DISK.signed_distance(center))
    assert 0.2 < val <= 0.4


def test_smoothed_distance_square_example():
    prof = SmoothingProfile(transition_start=0.2)
    val = prof.value(UNIT_SQUARE.signed_distance(np.array([0.5, 0.5])))
    assert val == pytest.approx(quintic_blend_oracle(0.2, 0.5))


def test_profile_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SmoothingProfile(transition_start=-0.1)
    with pytest.raises(ValueError):
        SmoothingProfile(transition_start=0.3, cap=0.2)


# ---------------------------------------------------------------------------
# polygon validation and JSON round trips
# ---------------------------------------------------------------------------


def test_polygon_rejects_self_intersection():
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


def test_polygon_orientation_normalized():
    cw = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert cw.signed_distance(np.array([0.5, 0.5])) == pytest.approx(0.5)


def test_domain_json_round_trip():
    for dom in ALL_DOMAINS:
        clone = domain_from_json(json.dumps(dom.to_json_dict()))
        pts = RNG.uniform(-1.5, 2.5, size=(64, 2))
        np.testing.assert_allclose(
            clone.signed_distance(pts), dom.signed_distance(pts), atol=1e-14
        )


def test_domain_json_errors():
    with pytest.raises(ValueError):
        domain_from_json('{"shape": "torus"}')
    with pytest.raises(ValueError):
        domain_from_json('{"shape": "disk"}')
    with pytest.raises(ValueError):
        domain_from_json("[1, 2, 3]")

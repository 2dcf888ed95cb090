"""Geometry layer: distances, cube predicates, smoothing profile."""

import json
import re
import tracemalloc

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
    _CHUNK,
    _radial_range,
    default_profile,
    distance_to,
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
    # deep in an arm the nearest feature is an edge
    q = np.array([0.5, 1.7])  # 0.3 below the top edge, nearest feature an edge
    assert L_SHAPE.signed_distance(q) == pytest.approx(0.3)


@settings(max_examples=200, deadline=None, derandomize=True)
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
# distance_to against numpy's reductions
# ---------------------------------------------------------------------------


def _lattice(dim, n):
    """A lattice of n points per axis over [-1.3, 1.3]^dim, (n, ..., n, dim)
    as the grid samples its signed distances."""
    axes = [np.linspace(-1.3, 1.3, n)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _point_sets(dim):
    rng = np.random.default_rng(dim)
    return [
        _lattice(dim, {2: 517, 3: 41}.get(dim, 4)),
        rng.standard_normal((1000, dim)) * 10.0 ** rng.uniform(-8, 8, (1000, 1)),
        rng.standard_normal(dim),  # one point
        np.empty((0, dim)),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
def test_distance_to_is_numpy_norm_bit_for_bit(dim):
    center = np.linspace(-0.3, 0.4, dim)
    for p in _point_sets(dim):
        for c in (center, None):
            d = p if c is None else p - c
            want = np.linalg.norm(d, axis=-1)
            got = distance_to(p, c)
            assert np.shape(got) == want.shape and np.array_equal(got, want)
            assert np.isscalar(got) == np.isscalar(want)
            squared = distance_to(p, c, squared=True)
            assert np.array_equal(squared, np.sum(d**2, axis=-1))


def _norm_signed_distance(dom, p):
    """The signed distances of disks, annuli and boxes through numpy's
    reductions."""
    if isinstance(dom, Disk):
        return dom.radius - np.linalg.norm(p - dom.center, axis=-1)
    if isinstance(dom, Annulus):
        rho = np.linalg.norm(p - dom.center, axis=-1)
        return np.minimum(rho - dom.inner_radius, dom.outer_radius - rho)
    gap = np.minimum(p - dom.corner_min, dom.corner_max - p)
    outside = np.linalg.norm(np.maximum(-gap, 0.0), axis=-1)
    return np.where(np.min(gap, axis=-1) > 0, np.min(gap, axis=-1), -outside)


def _norm_distance_laplacian(dom, p):
    rho = np.maximum(np.linalg.norm(p - dom.center, axis=-1), 1e-300)
    if isinstance(dom, Disk):
        return -(dom.dim - 1) / rho
    inner = (rho - dom.inner_radius) <= (dom.outer_radius - rho)
    return np.where(inner, (dom.dim - 1) / rho, -(dom.dim - 1) / rho)


CLOSED_FORM_DOMAINS = {
    "disk": UNIT_DISK,
    "annulus": RING,
    "square": UNIT_SQUARE,
    "disk3": Disk((0.1, -0.2, 0.3), 0.9),
    "annulus3": Annulus((0.0, 0.2, 0.0), 0.3, 1.1),
    "box3": Box((0.0, -0.5, 0.0), (1.0, 1.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_DOMAINS))
def test_closed_form_distances_match_numpy_norm_reference(name):
    dom = CLOSED_FORM_DOMAINS[name]
    for p in _point_sets(dom.dim):
        want = _norm_signed_distance(dom, p)
        assert np.array_equal(dom.signed_distance(p), want)
        if not isinstance(dom, Box):
            want = _norm_distance_laplacian(dom, p)
            assert np.array_equal(dom.distance_laplacian(p), want)


@pytest.mark.parametrize("dim", [2, 3])
def test_radial_range_matches_numpy_norm_reference(dim):
    rng = np.random.default_rng(dim)
    center = rng.standard_normal(dim)
    lo = rng.uniform(-2.0, 2.0, (5000, dim))
    hi = lo + 10.0 ** rng.uniform(-4, 0, (5000, 1))
    below, above = lo - center, center - hi
    near = np.linalg.norm(np.maximum(np.maximum(below, above), 0.0), axis=-1)
    far = np.linalg.norm(np.maximum(np.abs(below), np.abs(above)), axis=-1)
    got = _radial_range(center, lo, hi)
    assert np.array_equal(got[0], near) and np.array_equal(got[1], far)


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
# horizontal edges, vertical edges running up and down, and slanted edges
# in one polygon, with vertices that are not dyadic
MIXED = Polygon(
    [(0.1, 0.0), (2.3, 0.0), (2.3, 0.7), (1.7, 1.3), (1.7, 0.9), (0.9, 0.9), (0.9, 1.9),
     (0.1, 1.9), (0.0, 1.0)]
)
REFERENCE_POLYGONS = [L_SHAPE, HEXAGON, MIXED]
REFERENCE_IDS = ["lshape", "hexagon", "mixed"]


def _box_corners(lo, hi):
    """The corners of the boxes [lo, hi] as an (n, 4, 2) array."""
    n = lo.shape[0]
    out = np.empty((n, 4, 2))
    out[:, 0] = lo
    out[:, 1, 0], out[:, 1, 1] = hi[:, 0], lo[:, 1]
    out[:, 2] = hi
    out[:, 3, 0], out[:, 3, 1] = lo[:, 0], hi[:, 1]
    return out


def _reference_edge_distances(poly, p):
    a = poly._a
    ab = poly._b - a
    ab2 = np.sum(ab * ab, axis=-1)
    ap = p[..., None, :] - a
    t = np.clip(np.sum(ap * ab, axis=-1) / ab2, 0.0, 1.0)
    closest = a + t[..., None] * ab
    return np.linalg.norm(p[..., None, :] - closest, axis=-1)


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
    d = np.min(_reference_edge_distances(poly, p), axis=-1)
    return np.where(_reference_inside(poly, p), d, -d)


def _reference_edges_overlap_box(poly, lo, hi):
    """The slab test for every (edge, box) pair at once, with axis-parallel
    edges patched in afterwards."""
    a, b = poly._a, poly._b
    d = b - a
    t0 = np.zeros((len(a), lo.shape[0]))
    t1 = np.ones((len(a), lo.shape[0]))
    for ax in range(2):
        da = d[:, ax][:, None]
        pa = a[:, ax][:, None]
        lo_ax = lo[:, ax][None, :]
        hi_ax = hi[:, ax][None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            tl = (lo_ax - pa) / da
            th = (hi_ax - pa) / da
        t_lo = np.minimum(tl, th)
        t_hi = np.maximum(tl, th)
        par = da[:, 0] == 0.0
        inside = (pa >= lo_ax) & (pa <= hi_ax)
        t_lo = np.where(par[:, None], np.where(inside, 0.0, 1.0), t_lo)
        t_hi = np.where(par[:, None], np.where(inside, 1.0, 0.0), t_hi)
        t0 = np.maximum(t0, t_lo)
        t1 = np.minimum(t1, t_hi)
    return np.any(t0 <= t1, axis=0)


def _reference_cube_contained(poly, lo, hi):
    corners_in = _reference_signed_distance(poly, _box_corners(lo, hi)) > 0.0
    return np.all(corners_in, axis=-1) & ~_reference_edges_overlap_box(poly, lo, hi)


def _reference_cube_intersects(poly, lo, hi):
    corners_in = _reference_signed_distance(poly, _box_corners(lo, hi)) > 0.0
    any_in = np.any(corners_in, axis=-1)
    v = poly.vertices
    vert_in = np.any(
        np.all((v[None, :, :] > lo[:, None, :]) & (v[None, :, :] < hi[:, None, :]), axis=-1),
        axis=-1,
    )
    return any_in | vert_in | _reference_edges_overlap_box(poly, lo, hi)


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


@pytest.mark.parametrize("poly", REFERENCE_POLYGONS, ids=REFERENCE_IDS)
def test_polygon_distance_bit_identical_to_reference(poly):
    rng = np.random.default_rng(11)
    lo, hi = poly.bounding_box()
    random_pts = lo - 0.5 + rng.random((20000, 2)) * (hi - lo + 1.0)
    special = _special_points(poly)
    for pts in (random_pts, special, special.reshape(-1, 1, 2), special[7]):
        assert np.array_equal(
            poly.signed_distance(pts), _reference_signed_distance(poly, pts)
        )


@pytest.mark.parametrize("poly", REFERENCE_POLYGONS, ids=REFERENCE_IDS)
def test_polygon_cube_predicates_bit_identical_to_reference(poly):
    lo_r, hi_r = _random_cubes(poly, n=4000, seed=5)
    # dyadic boxes put corners exactly on edges, vertices and reflex corners
    boxes = [(lo_r, hi_r)]
    for s in (1.0, 0.5, 0.25, 0.125):
        i, j = np.meshgrid(np.arange(-1, 4 / s + 1), np.arange(-1, 2 / s + 1), indexing="ij")
        m = np.stack([i.ravel(), j.ravel()], axis=-1)
        boxes.append((m * s, (m + 1) * s))
    # corners on the vertices, and faces along the axis-parallel edges (the
    # hexagon has none)
    for touching in (_boxes_on_vertices, _boxes_on_axis_parallel_edges):
        lo, hi = touching(poly, (0.1, 0.25, 1.0))
        if len(lo):
            boxes.append((lo, hi))
    for lo, hi in boxes:
        assert np.array_equal(
            poly.cube_contained(lo, hi), _reference_cube_contained(poly, lo, hi)
        )
        assert np.array_equal(
            poly.cube_intersects(lo, hi), _reference_cube_intersects(poly, lo, hi)
        )


# boxes whose corners sit exactly on the L-shape's boundary: (lo, hi,
# contained, intersects)
L_SHAPE_TOUCHING_BOXES = [
    # a corner on an edge, from inside and from outside
    ((0.5, 0.0), (0.75, 0.25), False, True),
    ((0.5, -0.25), (0.75, 0.0), False, True),
    ((2.0, 0.25), (2.25, 0.5), False, True),
    # clear of the boundary
    ((0.25, 0.25), (0.5, 0.5), True, True),
    ((2.5, 2.5), (3.0, 3.0), False, False),
    # a corner at the reflex vertex (1, 1)
    ((0.75, 0.75), (1.0, 1.0), False, True),
    ((1.0, 1.0), (1.25, 1.25), False, True),
    ((0.75, 1.0), (1.0, 1.25), False, True),
    ((1.0, 0.75), (1.25, 1.0), False, True),
    ((0.5, 0.5), (1.5, 1.5), False, True),
    # sharing an edge, or part of one, from outside
    ((1.0, 1.0), (2.0, 2.0), False, True),
    ((0.0, -1.0), (2.0, 0.0), False, True),
    ((2.0, 0.0), (2.5, 0.5), False, True),
    ((-0.5, 0.5), (0.0, 1.0), False, True),
    ((1.0, 1.5), (1.5, 2.0), False, True),
]


def test_polygon_cube_predicates_on_touching_boxes():
    lo = np.array([box[0] for box in L_SHAPE_TOUCHING_BOXES])
    hi = np.array([box[1] for box in L_SHAPE_TOUCHING_BOXES])
    contained = L_SHAPE.cube_contained(lo, hi)
    intersects = L_SHAPE.cube_intersects(lo, hi)
    assert contained.tolist() == [box[2] for box in L_SHAPE_TOUCHING_BOXES]
    assert intersects.tolist() == [box[3] for box in L_SHAPE_TOUCHING_BOXES]
    # the corner test by signed distance gives the same answers
    assert np.array_equal(contained, _reference_cube_contained(L_SHAPE, lo, hi))
    assert np.array_equal(intersects, _reference_cube_intersects(L_SHAPE, lo, hi))


def _boxes_at_scales(poly, scales, n, rng):
    lo_b, hi_b = poly.bounding_box()
    span = hi_b - lo_b
    boxes = []
    for scale in scales:
        center = lo_b - 0.2 * span + rng.random((n, 2)) * 1.4 * span
        side = scale * rng.uniform(0.2, 1.0, size=(n, 2)) * span.max()
        boxes.append((center - side / 2, center + side / 2))
    return boxes


def _boxes_on_vertices(poly, sides):
    """Boxes with a corner on each vertex, in all four quadrants, and boxes
    with a face through each vertex along both axes."""
    lo, hi = [], []
    for v in poly.vertices:
        for s in sides:
            for q in np.array([[0, 0], [-1, 0], [0, -1], [-1, -1]]):
                lo.append(v + q * s)
                hi.append(v + (q + 1) * s)
            for axis in range(2):
                for face in (0.0, -s):
                    off = np.full(2, -s / 2)
                    off[axis] = face
                    lo.append(v + off)
                    hi.append(v + off + s)
    return np.array(lo), np.array(hi)


def _boxes_on_axis_parallel_edges(poly, sides):
    """Boxes with a face on each axis-parallel edge's line, from both sides,
    spanning the edge, an end of it, or a stretch inside it."""
    lo, hi = [], []
    for a, b in zip(poly._a, poly._b):
        for axis in range(2):
            if a[axis] != b[axis]:
                continue
            other = 1 - axis
            e0, e1 = sorted((a[other], b[other]))
            spans = [
                (e0, e1),
                (e0 - 0.25, e0 + 0.25),
                (e1 - 0.25, e1 + 0.25),
                (e0 + 0.25 * (e1 - e0), e0 + 0.5 * (e1 - e0)),
                (e1, e1 + 0.5),
            ]
            for s in sides:
                for face in (a[axis], a[axis] - s):
                    for s0, s1 in spans:
                        box_lo, box_hi = np.empty(2), np.empty(2)
                        box_lo[axis], box_hi[axis] = face, face + s
                        box_lo[other], box_hi[other] = s0, s1
                        lo.append(box_lo)
                        hi.append(box_hi)
    return np.array(lo), np.array(hi)


SLANTED_POLYGONS = {
    "triangle": '{"shape": "polygon", "vertices": [[0, 0], [3, 1], [1, 2.5]]}',
    "rotated_square": (
        '{"shape": "polygon", "vertices": [[0.5, 0], [1, 0.5], [0.5, 1], [0, 0.5]]}'
    ),
}



@pytest.mark.parametrize("name", ["lshape", *SLANTED_POLYGONS])
def test_polygon_distance_is_abs_of_signed_distance(name):
    poly = L_SHAPE if name == "lshape" else domain_from_json(SLANTED_POLYGONS[name])
    rng = np.random.default_rng(23)
    lo, hi = poly.bounding_box()
    random_pts = lo - 0.5 + rng.random((20000, 2)) * (hi - lo + 1.0)
    midpoints = (poly._a + poly._b) / 2.0
    for pts in (random_pts, poly.vertices, midpoints, _special_points(poly), midpoints[0]):
        assert np.array_equal(poly.distance(pts), np.abs(poly.signed_distance(pts)))
    assert poly.contains(random_pts).any() and not poly.contains(random_pts).all()


SCALES = (0.5, 0.05, 0.002)


def _slab_test_cases():
    """(id, polygon, random box sets, box sets that all touch the boundary)."""
    rng = np.random.default_rng(17)
    cases = [
        ("lshape-random", L_SHAPE, _boxes_at_scales(L_SHAPE, SCALES, 3000, rng), []),
        (
            "lshape-boundary",
            L_SHAPE,
            [],
            [
                _boxes_on_vertices(L_SHAPE, (0.125, 0.5, 1.0, 3.0)),
                _boxes_on_axis_parallel_edges(L_SHAPE, (0.125, 0.5, 1.0)),
            ],
        ),
    ]
    for name, spec in SLANTED_POLYGONS.items():
        poly = domain_from_json(spec)
        cases.append(
            (
                name,
                poly,
                _boxes_at_scales(poly, SCALES, 3000, rng),
                [_boxes_on_vertices(poly, (0.125, 0.5, 1.0))],
            )
        )
    return cases


SLAB_TEST_CASES = _slab_test_cases()


@pytest.mark.parametrize(
    "poly, random_boxes, touching_boxes",
    [case[1:] for case in SLAB_TEST_CASES],
    ids=[case[0] for case in SLAB_TEST_CASES],
)
def test_slab_pass_per_edge_matches_broadcast_reference(poly, random_boxes, touching_boxes):
    def overlap_matching_reference(lo, hi):
        overlap = np.concatenate(
            [block.copy() for _, _, block in poly._box_blocks(lo, hi)]
        )
        assert np.array_equal(overlap, _reference_edges_overlap_box(poly, lo, hi))
        assert np.array_equal(
            poly.cube_contained(lo, hi), _reference_cube_contained(poly, lo, hi)
        )
        assert np.array_equal(
            poly.cube_intersects(lo, hi), _reference_cube_intersects(poly, lo, hi)
        )
        return overlap

    for lo, hi in random_boxes:
        overlap = overlap_matching_reference(lo, hi)
        assert overlap.any() and not overlap.all()
    for lo, hi in touching_boxes:
        # a vertex or a stretch of an edge lies on every closed box
        assert overlap_matching_reference(lo, hi).all()


# ---------------------------------------------------------------------------
# polygon queries in blocks, against the whole-array passes they replaced
# ---------------------------------------------------------------------------


def _reference_polygon_distance(poly, p):
    """``Polygon.distance`` with one whole-array pass per edge."""
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1, 2)
    x, y = flat[:, 0], flat[:, 1]
    best = None
    for (ax, ay), (bx, by) in zip(poly._a.tolist(), poly._b.tolist()):
        abx, aby = bx - ax, by - ay
        ab2 = abx * abx + aby * aby
        t = np.clip(((x - ax) * abx + (y - ay) * aby) / ab2, 0.0, 1.0)
        dx = x - (ax + t * abx)
        dy = y - (ay + t * aby)
        d2 = dx * dx + dy * dy
        best = d2 if best is None else np.minimum(best, d2, out=best)
    return np.sqrt(best).reshape(p.shape[:-1])


def _reference_even_odd_inside(poly, p):
    """``Polygon._even_odd_inside`` with one whole-array pass per edge."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    inside = np.zeros(x.shape, dtype=bool)
    for (ax, ay), (bx, by) in zip(poly._a.tolist(), poly._b.tolist()):
        if ay == by:
            continue
        crosses = (ay > y) != (by > y)
        x_int = ax + (y - ay) * (bx - ax) / (by - ay)
        inside ^= crosses & (x < x_int)
    return inside


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# point counts around the block size, a partial last block among them
BLOCK_COUNTS = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]


def _points_across_blocks(poly, count, seed):
    """``count`` random points around the polygon; the rows within 7 of a
    block boundary are vertices, points on edges and lattice points."""
    rng = np.random.default_rng(seed)
    lo, hi = poly.bounding_box()
    pts = lo - 0.5 + rng.random((count, 2)) * (hi - lo + 1.0)
    special = _special_points(poly)
    near = np.flatnonzero(np.abs((np.arange(count) + 7) % _CHUNK - 7) <= 7)
    pts[near] = special[rng.integers(len(special), size=len(near))]
    return pts


@pytest.mark.parametrize("count", BLOCK_COUNTS)
@pytest.mark.parametrize("poly", REFERENCE_POLYGONS, ids=REFERENCE_IDS)
def test_polygon_block_kernels_match_whole_array_reference(poly, count):
    pts = _points_across_blocks(poly, count, seed=count)
    wide = np.zeros((count, 3))
    wide[:, 1:] = pts
    shapes = {
        "points": pts,
        "corners": _box_corners(pts, pts + 0.25),  # (n, 4, 2)
        "view": wide[::-1, 1:],  # rows reversed, not contiguous
    }
    for name, p in shapes.items():
        dist = _reference_polygon_distance(poly, p)
        inside = _reference_even_odd_inside(poly, p)
        signed = poly.signed_distance(p)
        assert _same_bits(poly.distance(p), dist), name
        # the sign bit is the even-odd bit, at a zero distance too
        assert _same_bits(~np.signbit(signed), inside), name
        assert _same_bits(signed, np.where(inside, dist, -dist)), name


@pytest.mark.parametrize("poly", REFERENCE_POLYGONS, ids=REFERENCE_IDS)
def test_polygon_cube_predicates_in_blocks_match_reference(poly):
    rng = np.random.default_rng(29)
    count = _CHUNK + 7  # a full block and a partial one
    # random boxes at three scales, then boxes with a corner on a vertex or
    # on an edge around each block boundary
    scales = _boxes_at_scales(poly, (0.5, 0.05, 0.002), count // 3 + 1, rng)
    lo = np.concatenate([box[0] for box in scales])[:count]
    hi = np.concatenate([box[1] for box in scales])[:count]
    corners = _points_across_blocks(poly, count, seed=31)
    near = np.flatnonzero(np.abs((np.arange(count) + 7) % _CHUNK - 7) <= 7)
    lo[near], hi[near] = corners[near], corners[near] + 0.125
    assert np.array_equal(poly.cube_contained(lo, hi), _reference_cube_contained(poly, lo, hi))
    assert np.array_equal(
        poly.cube_intersects(lo, hi), _reference_cube_intersects(poly, lo, hi)
    )


def _heap_peak(fn, *args):
    """(result, bytes allocated at the peak of one call beyond what was
    held before it), after a first call that fills any cache."""
    fn(*args)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_polygon_distance_allocates_its_result_and_a_few_block_rows():
    pts = np.random.default_rng(9).random((1_000_000, 2)) * 2.0
    out, peak = _heap_peak(L_SHAPE.distance, pts)
    # the result, plus the block's two coordinate rows and three scratch
    # rows (measured: exactly that), with one more row and 64 KiB to spare:
    # under an eighth of one copy of the points, where the whole-array
    # passes held several arrays of the points' length
    bound = out.nbytes + 6 * 8 * _CHUNK + 64 * 1024
    assert bound < out.nbytes + pts.nbytes / 8
    assert peak <= bound, peak


def test_polygon_cube_predicates_allocate_their_result_and_block_rows():
    rng = np.random.default_rng(3)
    lo = rng.random((200_000, 2)) * 2.4 - 0.2
    hi = lo + rng.uniform(0.001, 0.3, size=lo.shape)
    # measured: 2,270,989 bytes for cube_contained and 2,270,373 for
    # cube_intersects: the result, the (n, 2) mask of the corner check, and
    # seven float and seven bool rows of one block.  The (n, 4, 2) corner
    # array and the (n, vertices, 2) vertex test they replaced peaked at
    # 4,266,688 and 4,725,504 bytes.  Gate: the measured peak plus 5%.
    for predicate in (L_SHAPE.cube_contained, L_SHAPE.cube_intersects):
        _, peak = _heap_peak(predicate, lo, hi)
        assert peak <= 1.05 * 2_270_989, (predicate.__name__, peak)


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
    prof = SmoothingProfile(transition_start=0.15)
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
        SmoothingProfile(transition_start=0.0)
    # a NaN start would make every value, slope and curvature NaN
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            SmoothingProfile(transition_start=bad)


# ---------------------------------------------------------------------------
# polygon validation and JSON round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_polygon_rejects_non_finite_vertices(bad):
    with pytest.raises(ValueError, match="finite"):
        Polygon([(0, 0), (bad, 0), (1, 1)])
    spec = json.dumps({"shape": "polygon", "vertices": [[0, 0], [1, 0], [1, bad]]})
    with pytest.raises(ValueError, match="finite"):
        domain_from_json(spec)
    # finite vertices whose difference overflows to infinity
    with pytest.raises(ValueError, match="finite"):
        Polygon([(-1e308, 0), (1e308, 0), (0, 1e-300)])


def test_polygon_rejects_self_intersection():
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


NOT_SIMPLE = {
    "pinched_vertex": [(0, 0), (2, 0), (2, 2), (1, 0), (0, 2)],
    "collinear_overlap": [(0, 0), (3, 0), (3, 1), (2, 0), (1, 0), (1, 1), (0, 1)],
    "figure_8": [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)],
    "folded_spike": [(0, 0), (2, 0), (2, 1), (3, 1), (2, 1), (0, 1)],
}


@pytest.mark.parametrize("name", NOT_SIMPLE)
def test_polygon_rejects_edges_that_touch_or_overlap(name):
    with pytest.raises(ValueError, match="not simple"):
        Polygon(NOT_SIMPLE[name])
    with pytest.raises(ValueError, match="not simple"):
        Polygon(NOT_SIMPLE[name][::-1])


CONVEXITY = {
    "lshape": ([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], False),
    "hexagon": ([(0, 0), (2, 0.5), (4, 0), (3, 2), (2, 1.2), (1, 2)], False),
    "square": ([(0, 0), (1, 0), (1, 1), (0, 1)], True),
    "triangle": ([(0, 0), (3, 1), (1, 2.5)], True),
    "square_with_midpoint": ([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)], True),
}


@pytest.mark.parametrize("scale", [1e-8, 1e-7, 1e-3, 1.0, 1e3, 1e8])
def test_polygon_convexity_does_not_depend_on_scale(scale):
    for name, (vertices, convex) in CONVEXITY.items():
        assert Polygon(np.array(vertices, dtype=float) * scale).is_convex() is convex, name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_polygon_queries_reject_non_finite_coordinates(bad):
    # the bad row sits in the second block
    pts = np.full((_CHUNK + 5, 2), 0.5)
    pts[-1, 1] = bad
    for query in (L_SHAPE.distance, L_SHAPE.signed_distance, L_SHAPE.contains):
        with pytest.raises(ValueError, match="finite"):
            query(pts)
        with pytest.raises(ValueError, match="finite"):
            query(pts[-1])
    # placed where the corner-order check lets it through
    lo, hi = np.zeros_like(pts), np.ones_like(pts)
    (hi if bad > 0 else lo)[-1, 0] = bad
    for predicate in (L_SHAPE.cube_contained, L_SHAPE.cube_intersects):
        with pytest.raises(ValueError, match="finite"):
            predicate(lo, hi)


CLOSED_FORM = {
    "disk": UNIT_DISK,
    "annulus": RING,
    "square": UNIT_SQUARE,
    "ball3": Disk(center=(0.0, 0.0, 0.0), radius=1.0),
    "shell3": Annulus(center=(0.0, 0.0, 0.0)),
    "box3": Box((0.0, 0.0, 0.0), (1.0, 1.0, 2.0)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_closed_form_queries_reject_non_finite_coordinates(name, bad):
    # Disk() answered -inf at (inf, 0) and a Box NaN at (nan, 0.5)
    dom = CLOSED_FORM[name]
    pts = np.full((5, dom.dim), 0.25)
    pts[-1, 0] = bad
    queries = [dom.signed_distance, dom.distance, dom.contains]
    queries += [getattr(dom, "distance_laplacian")] if hasattr(dom, "distance_laplacian") else []
    for query in queries:
        with pytest.raises(ValueError, match="finite"):
            query(pts)
        with pytest.raises(ValueError, match="finite"):
            query(pts[-1])
        assert query(np.empty((0, dom.dim))).shape == (0,)
    # placed where the corner-order check lets it through: a NaN lower
    # corner made Box.cube_intersects answer False, a false negative
    lo, hi = np.zeros_like(pts), np.ones_like(pts)
    (hi if bad > 0 else lo)[-1, 0] = bad
    for predicate in (dom.cube_contained, dom.cube_intersects):
        with pytest.raises(ValueError, match="finite"):
            predicate(lo, hi)
        assert predicate(lo[:-1], hi[:-1]).shape == (4,)


def _reference_segments_meet(p, q, r, s):
    """The closed segments pq and rs share a point, one pair at a time in
    Python floats."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    o1, o2 = orient(p, q, r), orient(p, q, s)
    o3, o4 = orient(r, s, p), orient(r, s, q)
    if (o1 < 0.0 < o2 or o2 < 0.0 < o1) and (o3 < 0.0 < o4 or o4 < 0.0 < o3):
        return True
    touching = ((o1, p, q, r), (o2, p, q, s), (o3, r, s, p), (o4, r, s, q))
    return any(
        o == 0.0 and all(min(a[k], b[k]) <= c[k] <= max(a[k], b[k]) for k in (0, 1))
        for o, a, b, c in touching
    )


def _reference_first_meeting_pair(a, b):
    """(i, j) of the first pair of non-neighbouring edges a[i]b[i], a[j]b[j]
    that meet, every pair tested in a Python loop; None when none does."""
    a, b = a.tolist(), b.tolist()
    n = len(a)
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            if _reference_segments_meet(a[i], b[i], a[j], b[j]):
                return i, j
    return None


def _first_meeting_pair(vertices):
    """The pair ``Polygon._check_simple`` names for the edges of
    ``vertices`` taken as given, or None when it accepts them."""
    poly = object.__new__(Polygon)
    poly._a = np.asarray(vertices, dtype=float)
    poly._b = np.roll(poly._a, -1, axis=0)
    try:
        poly._check_simple()
    except ValueError as exc:
        found = re.fullmatch(r"polygon is not simple: edges (\d+) and (\d+) meet", str(exc))
        return int(found[1]), int(found[2])
    return None


def _star(rng, n):
    """A simple polygon: n vertices at increasing angles and random radii."""
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    r = rng.uniform(0.5, 1.5, n)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)


def _simplicity_cases():
    rng = np.random.default_rng(34)
    cases = {f"grid_{i}": rng.integers(0, 5, (rng.integers(4, 13), 2)) for i in range(300)}
    cases.update({f"random_{i}": rng.random((rng.integers(4, 31), 2)) for i in range(100)})
    cases.update({f"star_{i}": _star(rng, rng.integers(3, 120)) for i in range(40)})
    for i in range(40):
        # a star with a spike folded back on itself after a vertex: out along
        # x by w, back by w / 2, then on, so the spike's first edge holds the
        # start of its third, exactly
        v = _star(rng, rng.integers(5, 40)).tolist()
        k = rng.integers(len(v))
        (ax, ay), w = v[k], rng.uniform(-0.3, 0.3)
        cases[f"folded_{i}"] = v[: k + 1] + [[ax + w, ay], [ax + w / 2, ay]] + v[k + 1 :]
    cases["subdivided_square"] = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (2, 2), (1, 2), (0, 2), (0, 1)]
    cases["subdivided_diagonal"] = [(0, 0), (4, 0), (4, 4), (3, 3), (2, 2), (1, 1)]
    for name, v in NOT_SIMPLE.items():
        cases[name], cases[name + "_reversed"] = v, v[::-1]
    return cases


def test_check_simple_matches_pairwise_loop():
    cases = _simplicity_cases()
    found = {}
    for name, v in cases.items():
        v = np.asarray(v, dtype=float)
        found[name] = _first_meeting_pair(v)
        assert found[name] == _reference_first_meeting_pair(v, np.roll(v, -1, axis=0)), name
    simple = {name for name in cases if name.startswith(("star", "subdivided"))}
    assert all(found[name] is None for name in simple)
    folded = {n for n in cases if n.startswith("folded") or n.removesuffix("_reversed") in NOT_SIMPLE}
    assert all(found[name] is not None for name in folded)
    grid = [found[name] is None for name in cases if name.startswith("grid")]
    assert 10 < sum(grid) < len(grid) - 10


def test_check_simple_skips_edges_whose_boxes_are_apart():
    # a triangle whose slanted side runs through 198 rounded points: the
    # pairwise loop's rounded orientations call two of its edges, whose
    # bounding boxes are far apart, crossing; the box test never asks
    t = np.linspace(0.0, 1.0, 200)
    side = np.stack([t * 3.3, t * 3.3 * 0.7], axis=1)
    poly = Polygon(np.concatenate([side, [(3.3, 0.0)]]))
    i, j = _reference_first_meeting_pair(poly._a, poly._b)
    lo, hi = np.minimum(poly._a, poly._b), np.maximum(poly._a, poly._b)
    assert np.any((hi[i] < lo[j]) | (hi[j] < lo[i]))


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

"""Domain geometry: signed boundary distances, membership, axis-aligned cube
tests, and the smoothed-distance profile.

Domains are open sets in R^dim.  ``signed_distance`` is positive inside,
negative outside, zero on the boundary; ``distance`` is its absolute value.
Point-valued operations accept arrays of shape (..., dim) and vectorize over
the leading axes.  Cube tests take arrays of lower/upper corners and answer
exactly (no sampling), which is what the dyadic decomposition relies on.
Both raise ``ValueError`` on a coordinate that is not finite.

All objects here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "Disk",
    "Annulus",
    "Box",
    "Polygon",
    "SmoothingProfile",
    "default_profile",
    "deepest_point",
    "distance_to",
    "domain_from_json",
]


def _finite(a: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless every entry of ``a`` is finite: one min
    and one max over the array, no mask of its size."""
    # a NaN comes out of min and max as NaN, which fails the test
    if a.size and not -np.inf < a.min() <= a.max() < np.inf:
        raise ValueError(f"{what} must be finite")


def _points(p, dim: int) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.ndim == 0 or a.shape[-1] != dim:
        raise ValueError(f"expected points with last axis {dim}, got shape {a.shape}")
    _finite(a, "query coordinates")
    return a


def _corners(lo, hi, dim: int):
    lo = np.atleast_2d(np.asarray(lo, dtype=float))
    hi = np.atleast_2d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or lo.shape[-1] != dim:
        raise ValueError("cube corner arrays must share shape (n, dim)")
    _finite(lo, "cube corners")
    _finite(hi, "cube corners")
    if np.any(hi <= lo):
        raise ValueError("cube upper corners must exceed lower corners")
    return lo, hi


def _fold(op, mask):
    """``op`` folded over the last axis of ``mask``, one column at a time:
    ``_fold(np.logical_and, m)`` is ``np.all(m, axis=-1)``.  For a last axis
    of a few entries (the dimension, the corners of a box) this is many
    times faster than numpy's reduction, which walks such an axis element
    by element."""
    out = mask[..., 0].copy()
    for i in range(1, mask.shape[-1]):
        op(out, mask[..., i], out=out)
    return out


def distance_to(p, center=None, squared=False):
    """|p - center| over the last axis of the points p (|p| when center is
    None), or its square when ``squared``; a scalar for a single point.

    Bit for bit ``np.linalg.norm(p - center, axis=-1)``, and its square
    ``np.sum((p - center) ** 2, axis=-1)``: the squares are summed one
    column at a time, first to last, which is the order numpy's reduction
    takes over an axis of fewer than 8 entries (over a longer axis the two
    agree to rounding).  For the coordinate axis of a lattice this is
    several times faster than the reduction (see ``_fold``)."""
    p = np.asarray(p, dtype=float)
    dim = p.shape[-1]
    if center is None:
        center = np.zeros(dim)
    # 0.0 + the first square is that square, bit for bit
    out = np.zeros(p.shape[:-1])
    col = np.empty_like(out)
    for i in range(dim):
        np.subtract(p[..., i], center[i], out=col)
        col *= col
        out += col
    if not squared:
        np.sqrt(out, out=out)
    return out[()]


# rows per block of the polygon queries and of the Whitney point queries:
# a block's coordinates and scratch rows stay small enough for the cache, and
# no temporary grows with the number of points or boxes
_CHUNK = 2**15


def _blocks(columns, n_rows, n_masks=0):
    """Walk the equal-length 1-D float arrays ``columns`` in blocks of at
    most ``_CHUNK`` rows.

    Yields (rows, cols, scratch, masks) per block: the block's slice, its
    entries of each column copied into a contiguous row, and ``n_rows``
    float and ``n_masks`` bool scratch rows of the block's length.  Every
    block reuses the same buffers.
    """
    n = len(columns[0])
    size = min(n, _CHUNK)
    floats = np.empty((len(columns) + n_rows, size))
    masks = np.empty((n_masks, size), dtype=bool)
    for start in range(0, n, _CHUNK):
        rows = slice(start, min(start + _CHUNK, n))
        width = rows.stop - start
        cols = list(floats[: len(columns), :width])
        for row, column in zip(cols, columns):
            np.copyto(row, column[rows])
        yield rows, cols, list(floats[len(columns) :, :width]), list(masks[:, :width])


def _by_rows(test, *arrays, dtype=bool):
    """The answers (of ``dtype``) of ``test`` over blocks of at most
    ``_CHUNK`` leading rows of ``arrays``, for a test whose answer for a row
    depends on that row alone: the temporaries of ``test`` grow with the
    block, not with the arrays."""
    out = np.empty(len(arrays[0]), dtype=dtype)
    for start in range(0, len(out), _CHUNK):
        rows = slice(start, start + _CHUNK)
        out[rows] = test(*(a[rows] for a in arrays))
    return out


def _radial_range(center, lo, hi):
    """(nearest, farthest) distance from center over each closed box [lo, hi]."""
    below = lo - center
    above = center - hi
    near = distance_to(np.maximum(np.maximum(below, above), 0.0))
    far = distance_to(np.maximum(np.abs(below), np.abs(above)))
    return near, far


class Domain(ABC):
    """Open bounded domain with exact distance and cube predicates."""

    dim: int

    # -- distances ---------------------------------------------------------

    @abstractmethod
    def signed_distance(self, p) -> np.ndarray:
        """Distance to the boundary, positive inside and negative outside."""

    def distance(self, p) -> np.ndarray:
        return np.abs(self.signed_distance(p))

    def contains(self, p) -> np.ndarray:
        return self.signed_distance(p) > 0.0

    # -- extent ------------------------------------------------------------

    @abstractmethod
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corners of an axis-aligned bounding box."""

    @abstractmethod
    def diameter(self) -> float:
        ...

    @abstractmethod
    def inradius(self) -> float:
        """sup of the boundary distance over the domain (exact where the
        shape admits it, a deterministic grid estimate for polygons)."""

    @abstractmethod
    def is_convex(self) -> bool:
        ...

    # -- cube predicates ---------------------------------------------------

    @abstractmethod
    def cube_contained(self, lo, hi) -> np.ndarray:
        """True where the closed box [lo, hi] lies inside the open domain."""

    @abstractmethod
    def cube_intersects(self, lo, hi) -> np.ndarray:
        """True where the closed box [lo, hi] meets the open domain.  May
        report rare boundary-touching false positives; never false negatives.
        """

    # -- serialization -----------------------------------------------------

    @abstractmethod
    def to_json_dict(self) -> dict:
        ...


# ---------------------------------------------------------------------------
# concrete shapes
# ---------------------------------------------------------------------------


class Disk(Domain):
    """Open ball; a disk in the plane, a ball in higher dimension."""

    def __init__(self, center=(0.0, 0.0), radius: float = 1.0):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = self.center.shape[0]

    def signed_distance(self, p):
        p = _points(p, self.dim)
        return self.radius - distance_to(p, self.center)

    def distance_laplacian(self, p):
        """Laplacian of the boundary distance, -(dim - 1) / rho."""
        p = _points(p, self.dim)
        rho = distance_to(p, self.center)
        return -(self.dim - 1) / np.maximum(rho, 1e-300)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def diameter(self):
        return 2.0 * self.radius

    def inradius(self):
        return self.radius

    def is_convex(self):
        return True

    def cube_contained(self, lo, hi):
        _, far = _radial_range(self.center, *_corners(lo, hi, self.dim))
        return far < self.radius

    def cube_intersects(self, lo, hi):
        near, _ = _radial_range(self.center, *_corners(lo, hi, self.dim))
        return near < self.radius

    def to_json_dict(self):
        return {"shape": "disk", "center": self.center.tolist(), "radius": self.radius}


class Annulus(Domain):
    """Open spherical shell between two concentric spheres."""

    def __init__(self, center=(0.0, 0.0), inner_radius: float = 0.5, outer_radius: float = 1.0):
        self.center = np.asarray(center, dtype=float)
        self.inner_radius = float(inner_radius)
        self.outer_radius = float(outer_radius)
        if not 0 < self.inner_radius < self.outer_radius:
            raise ValueError("need 0 < inner_radius < outer_radius")
        self.dim = self.center.shape[0]

    def signed_distance(self, p):
        p = _points(p, self.dim)
        rho = distance_to(p, self.center)
        return np.minimum(rho - self.inner_radius, self.outer_radius - rho)

    def distance_laplacian(self, p):
        """Laplacian of the boundary distance, that of the inner wall's
        branch on the medial sphere."""
        p = _points(p, self.dim)
        rho = distance_to(p, self.center)
        rho = np.maximum(rho, 1e-300)
        inner = (rho - self.inner_radius) <= (self.outer_radius - rho)
        return np.where(inner, (self.dim - 1) / rho, -(self.dim - 1) / rho)

    def bounding_box(self):
        return self.center - self.outer_radius, self.center + self.outer_radius

    def diameter(self):
        return 2.0 * self.outer_radius

    def inradius(self):
        return 0.5 * (self.outer_radius - self.inner_radius)

    def is_convex(self):
        return False

    def cube_contained(self, lo, hi):
        near, far = _radial_range(self.center, *_corners(lo, hi, self.dim))
        return (far < self.outer_radius) & (near > self.inner_radius)

    def cube_intersects(self, lo, hi):
        near, far = _radial_range(self.center, *_corners(lo, hi, self.dim))
        return (near < self.outer_radius) & (far > self.inner_radius)

    def to_json_dict(self):
        return {
            "shape": "annulus",
            "center": self.center.tolist(),
            "inner_radius": self.inner_radius,
            "outer_radius": self.outer_radius,
        }


class Box(Domain):
    """Open axis-aligned rectangle (any dimension)."""

    def __init__(self, corner_min, corner_max):
        self.corner_min = np.asarray(corner_min, dtype=float)
        self.corner_max = np.asarray(corner_max, dtype=float)
        if self.corner_min.shape != self.corner_max.shape:
            raise ValueError("corner arrays must share shape")
        if np.any(self.corner_max <= self.corner_min):
            raise ValueError("corner_max must exceed corner_min componentwise")
        self.dim = self.corner_min.shape[0]

    def signed_distance(self, p):
        p = _points(p, self.dim)
        gap = np.minimum(p - self.corner_min, self.corner_max - p)
        inside_gap = _fold(np.minimum, gap)
        outside = distance_to(np.maximum(-gap, 0.0))
        return np.where(inside_gap > 0, inside_gap, -outside)

    def bounding_box(self):
        return self.corner_min.copy(), self.corner_max.copy()

    def diameter(self):
        return float(np.linalg.norm(self.corner_max - self.corner_min))

    def inradius(self):
        return float(np.min(self.corner_max - self.corner_min) / 2.0)

    def is_convex(self):
        return True

    def cube_contained(self, lo, hi):
        lo, hi = _corners(lo, hi, self.dim)
        return _fold(np.logical_and, (lo > self.corner_min) & (hi < self.corner_max))

    def cube_intersects(self, lo, hi):
        lo, hi = _corners(lo, hi, self.dim)
        return _fold(np.logical_and, (lo < self.corner_max) & (hi > self.corner_min))

    def to_json_dict(self):
        return {
            "shape": "rectangle",
            "corner_min": self.corner_min.tolist(),
            "corner_max": self.corner_max.tolist(),
        }


class Polygon(Domain):
    """Open simple polygon in the plane.

    Vertices may be given in either orientation; they are stored
    counterclockwise.  Construction rejects vertices that are not finite or
    whose differences overflow, and vertex lists whose edges cross, touch or
    overlap anywhere but at the shared vertex of neighbours.

    The queries read their points and boxes in blocks of coordinate columns
    and raise ``ValueError`` on a coordinate that is not finite.  For finite
    coordinates, the terms of an axis-parallel edge that carry its zero
    component as a factor are exact zeros, so the edge skips them and every
    answer keeps the full formulas' bits; slanted edges take the full
    formulas.
    """

    dim = 2

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("vertices must be an (n>=3, 2) array")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        if area2 == 0:
            raise ValueError("degenerate polygon")
        if area2 < 0:
            v = v[::-1].copy()
        self.vertices = v
        self._a = v
        self._b = np.roll(v, -1, axis=0)
        with np.errstate(over="ignore"):
            edges = self._b - self._a
        # the box predicates' slab test needs finite edge vectors
        if not np.all(np.isfinite(edges)):
            raise ValueError("polygon edges must be finite: vertices too far apart")
        if np.any(np.sum(edges**2, axis=-1) == 0.0):
            raise ValueError("polygon has a zero-length edge")
        self._check_simple()

    def _check_simple(self):
        """Raise unless no two edges share a point other than the vertex
        of neighbours.  Only pairs of non-neighbours are tested: an edge
        that folds back along its neighbour puts a vertex on a third edge
        (a folded triangle has zero area and is refused before this).

        The pairs (i, j), j >= i + 2, are walked in blocks of rows i of
        about 4 ``_CHUNK`` pairs, and ``_segments_meet`` tests the pairs whose
        closed bounding boxes overlap, as those of edges that share a point
        do.  The error names the first pair in (i, j) order that meets.
        Skipping the other pairs drops only the crossings that rounded
        orientations can report for nearly collinear edges whose boxes are
        apart, which a test of every pair took as meeting.
        """
        a, b = self._a, self._b
        n = len(a)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        rows = max(1, 4 * _CHUNK // n)
        for start in range(0, n - 2, rows):
            i = np.arange(start, min(start + rows, n - 2))[:, None]
            j = np.arange(start + 2, n)
            near = j >= i + 2
            if start == 0:
                near[0, -1] = False  # the last edge neighbours edge 0
            for k in (0, 1):
                near &= lo[j, k] <= hi[i, k]
                near &= lo[i, k] <= hi[j, k]
            ii, jj = np.nonzero(near)  # in (i, j) order
            ei, ej = i[ii, 0], j[jj]
            meet = _segments_meet(a[ei].T, b[ei].T, a[ej].T, b[ej].T)
            if meet.any():
                first = np.argmax(meet)
                raise ValueError(
                    f"polygon is not simple: edges {ei[first]} and {ej[first]} meet"
                )

    def _edge_projections(self, x, y, t, d, d2):
        """Per edge, in order: fills ``t`` with the clamped projection
        parameter of each point (x, y) on the edge and ``d2`` with the
        squared distance from the point to that projection, then yields the
        edge's number; ``d`` is scratch.

        Each pass is one in-place ufunc, and the passes keep the operand
        order of t = clip(((x - ax) abx + (y - ay) aby) / ab2, 0, 1),
        dx = x - (ax + t abx), dy = y - (ay + t aby) and d2 = dx dx + dy dy,
        so every value is the formula's, bit for bit.  An edge with abx or
        aby zero skips the products with that zero: for finite points they
        are ±0, and adding ±0 to a number leaves it as it is, so t can
        differ only in the sign of a zero, and dx and dy only in the sign of
        a zero, which their squares erase.
        """
        edges = zip(self._a.tolist(), self._b.tolist())
        for i, ((ax, ay), (bx, by)) in enumerate(edges):
            abx, aby = bx - ax, by - ay
            ab2 = abx * abx + aby * aby
            if abx == 0.0:
                np.subtract(y, ay, out=t)
                t *= aby
            else:
                np.subtract(x, ax, out=t)
                t *= abx
                if aby != 0.0:
                    np.subtract(y, ay, out=d)
                    d *= aby
                    t += d
            t /= ab2
            np.clip(t, 0.0, 1.0, out=t)
            dx = _gap(x, t, ax, abx, d)
            np.multiply(dx, dx, out=d2)
            dy = _gap(y, t, ay, aby, d)
            dy *= dy
            d2 += dy
            yield i

    def distance(self, p):
        return self._distances(p, signed=False)

    def signed_distance(self, p):
        return self._distances(p, signed=True)

    def _distances(self, p, signed):
        # sqrt is monotone and correctly rounded, so the root of the least
        # squared distance is the least distance, bit for bit
        p = _points(p, 2)
        flat = p.reshape(-1, 2)
        out = np.empty(len(flat))
        columns = (flat[:, 0], flat[:, 1])
        for rows, (x, y), (t, d, d2), masks in _blocks(columns, 3, 3 if signed else 0):
            best = out[rows]
            for edge in self._edge_projections(x, y, t, d, d2):
                if edge == 0:
                    np.copyto(best, d2)
                else:
                    np.minimum(best, d2, out=best)
            np.sqrt(best, out=best)
            if signed:
                inside, crosses, left = masks
                self._even_odd_inside(y, (x,), (inside,), t, crosses, left)
                np.negative(best, out=best, where=np.logical_not(inside, out=crosses))
        return out.reshape(p.shape[:-1])

    def _even_odd_inside(self, y, xs, insides, x_int, crosses, left):
        """Fills each row of ``insides`` with the even-odd bit of the points
        (x, y), x the matching row of ``xs``: whether the ray from the point
        toward +x crosses the boundary an odd number of times.  One y row's
        crossings and intercepts serve every x row; ``x_int``, ``crosses``
        and ``left`` are scratch.

        Per edge, crosses = (ay > y) != (by > y), x_int = ax + (y - ay) *
        (bx - ax) / (by - ay) and inside ^= crosses & (x < x_int).  A
        horizontal edge never crosses the ray.  A vertical edge's x_int is
        ax + (±0) for finite y, a number equal to ax, so x is compared with
        ax.
        """
        for inside in insides:
            inside.fill(False)
        for (ax, ay), (bx, by) in zip(self._a.tolist(), self._b.tolist()):
            if ay == by:
                continue
            np.less(y, ay, out=crosses)
            np.less(y, by, out=left)
            np.not_equal(crosses, left, out=crosses)
            bound = ax
            if bx != ax:
                np.subtract(y, ay, out=x_int)
                x_int *= bx - ax
                x_int /= by - ay
                x_int += ax
                bound = x_int
            for x, inside in zip(xs, insides):
                np.less(x, bound, out=left)
                left &= crosses
                inside ^= left

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def diameter(self):
        v = self.vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))

    _INRADIUS_SAMPLES = 512

    def inradius(self):
        """Deterministic grid estimate of max boundary distance (lower bound,
        accurate to about diameter/512)."""
        return deepest_point(self, self._INRADIUS_SAMPLES)[1]

    def is_convex(self):
        # each turn's cross product against the product of its two edges'
        # lengths, a test that does not depend on the polygon's scale
        e = self._b - self._a
        length = np.hypot(e[:, 0], e[:, 1])
        e_next = np.roll(e, -1, axis=0)
        cross = e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]
        return bool(np.all(cross >= -1e-14 * length * np.roll(length, -1)))

    def _edges_overlap_box(self, x0, x1, y0, y1, t0, t1, t, meets, in_slab, out):
        """Fills ``out`` with True where some polygon edge meets the closed
        box [x0, x1] x [y0, y1]; ``t0``, ``t1``, ``t``, ``meets`` and
        ``in_slab`` are scratch.

        Slab test, one pass per edge: the edge's parameter interval [0, 1]
        is clipped to each axis' slab [lo, hi].  An edge parallel to an axis
        misses every box whose slab on that axis does not hold it.
        """
        out.fill(False)
        slabs = ((x0, x1), (y0, y1))
        for a, b in zip(self._a.tolist(), self._b.tolist()):
            # t0 = max(0, near-face parameters), t1 = min(1, far-face ones)
            t0_from, t1_from = 0.0, 1.0
            parallel = None
            for (lo, hi), pa, pb in zip(slabs, a, b):
                da = pb - pa
                if da == 0.0:
                    parallel = lo, hi, pa
                    continue
                # lo < hi, so the nearer face's parameter is the smaller one
                near, far = (lo, hi) if da > 0.0 else (hi, lo)
                np.subtract(near, pa, out=t)
                t /= da
                np.maximum(t0_from, t, out=t0)
                np.subtract(far, pa, out=t)
                t /= da
                np.minimum(t1_from, t, out=t1)
                t0_from, t1_from = t0, t1
            np.less_equal(t0, t1, out=meets)
            if parallel is not None:
                lo, hi, pa = parallel
                np.less_equal(lo, pa, out=in_slab)
                meets &= in_slab
                np.greater_equal(hi, pa, out=in_slab)
                meets &= in_slab
            out |= meets

    # Box corners need only the even-odd bit, not ``contains``: the two
    # differ only at a corner on an edge, and that edge meets the closed box,
    # so ``_edges_overlap_box`` decides the answer either way.

    def _box_blocks(self, lo, hi):
        """Walk the boxes [lo, hi] in blocks of at most ``_CHUNK`` rows.

        Yields (rows, corners, overlap) per block: the even-odd bits of the
        corners (x0, y0), (x1, y0), (x0, y1) and (x1, y1), and where some
        edge meets the closed box.  Each y value's crossings and intercepts
        serve the two corners on it.  Every block reuses the same rows.
        """
        columns = (lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1])
        for rows, (x0, x1, y0, y1), (t0, t1, t), masks in _blocks(columns, 3, 7):
            corners, (overlap, m0, m1) = masks[:4], masks[4:]
            for y, pair in ((y0, corners[:2]), (y1, corners[2:])):
                self._even_odd_inside(y, (x0, x1), pair, t0, m0, m1)
            self._edges_overlap_box(x0, x1, y0, y1, t0, t1, t, m0, m1, overlap)
            yield rows, corners, overlap

    def cube_contained(self, lo, hi):
        """True where every corner of the closed box is inside and no edge
        meets the box."""
        lo, hi = _corners(lo, hi, 2)
        out = np.empty(len(lo), dtype=bool)
        for rows, corners, overlap in self._box_blocks(lo, hi):
            block = out[rows]
            np.logical_not(overlap, out=block)
            for corner in corners:
                block &= corner
        return out

    def cube_intersects(self, lo, hi):
        """True where a corner of the closed box is inside or an edge meets
        the box.

        A vertex strictly inside the box needs no test of its own, as the
        slab test finds the edge that starts at it: on an axis where the
        edge moves, the near face's parameter (face - pa) / da is <= 0 and
        the far face's is >= 0, since face - pa is not zero and has the
        sign that makes them so, and da is finite and not zero; so the
        clipped interval holds t = 0.  On an axis where the edge does not
        move, pa lies in the slab.
        """
        lo, hi = _corners(lo, hi, 2)
        out = np.empty(len(lo), dtype=bool)
        for rows, corners, overlap in self._box_blocks(lo, hi):
            block = out[rows]
            np.copyto(block, overlap)
            for corner in corners:
                block |= corner
        return out

    def to_json_dict(self):
        return {"shape": "polygon", "vertices": self.vertices.tolist()}


def _gap(c, t, ac, abc, out):
    """c - (ac + t abc) into ``out``: the gap along one axis from the
    points' coordinates c to their projections on an edge from ac with
    component abc; c - ac when abc is zero."""
    if abc == 0.0:
        return np.subtract(c, ac, out=out)
    np.multiply(t, abc, out=out)
    out += ac
    return np.subtract(c, out, out=out)


def deepest_point(domain: Domain, samples: int):
    """(point, signed distance) of the deepest of samples x samples points
    spaced evenly over the bounding box of the planar domain; the first
    such point in row-major order on a tie, so it is deterministic."""
    lo, hi = domain.bounding_box()
    axes = [np.linspace(lo[i], hi[i], samples) for i in range(2)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    sd = domain.signed_distance(pts)
    i = np.unravel_index(np.argmax(sd), sd.shape)
    return pts[i], float(sd[i])


def _orient(a, b, c):
    """Twice the signed area of the triangle abc: positive when it turns
    counterclockwise, zero when the points are collinear."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_meet(p, q, r, s):
    """True where the closed segments pq and rs share a point: they cross,
    or an endpoint of one lies on the other.  Each point is a pair of
    coordinate rows, one segment per column."""
    o1, o2 = _orient(p, q, r), _orient(p, q, s)
    o3, o4 = _orient(r, s, p), _orient(r, s, q)
    meet = ((o1 < 0.0) & (0.0 < o2)) | ((o2 < 0.0) & (0.0 < o1))
    meet &= ((o3 < 0.0) & (0.0 < o4)) | ((o4 < 0.0) & (0.0 < o3))
    # an endpoint collinear with the other segment and within its box
    for o, a, b, c in ((o1, p, q, r), (o2, p, q, s), (o3, r, s, p), (o4, r, s, q)):
        touch = o == 0.0
        for k in (0, 1):
            touch &= np.minimum(a[k], b[k]) <= c[k]
            touch &= c[k] <= np.maximum(a[k], b[k])
        meet |= touch
    return meet


# ---------------------------------------------------------------------------
# smoothed distance profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothingProfile:
    """Monotone C^2 profile F applied to the boundary distance.

    F(t) = t on (-inf, t0]  (identity near the boundary),
    F(t) = cap = 2*t0 for t >= 2*cap - t0  (constant far inside),
    and a quintic Hermite blend in between.  The blend keeps F' in [0, 1]
    with F'(t0) = 1, F'(end) = 0 and matching second derivatives, so the
    composite F(delta) is C^2 wherever delta is.
    """

    transition_start: float

    def __post_init__(self):
        if not 0 < self.transition_start < np.inf:  # NaN fails as well
            raise ValueError("transition_start must be positive and finite")

    @property
    def cap(self) -> float:
        return 2.0 * self.transition_start

    @property
    def transition_end(self) -> float:
        return 2.0 * self.cap - self.transition_start

    def _s(self, t):
        return (t - self.transition_start) / (self.transition_end - self.transition_start)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        t0, cap, tend = self.transition_start, self.cap, self.transition_end
        s = np.clip(self._s(t), 0.0, 1.0)
        blend = t0 + (tend - t0) * (s - s**3 + 0.5 * s**4)
        return np.where(t <= t0, t, np.where(t >= tend, cap, blend))

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        s = np.clip(self._s(t), 0.0, 1.0)
        return np.where(
            t <= self.transition_start,
            1.0,
            np.where(t >= self.transition_end, 0.0, 1.0 - 3.0 * s**2 + 2.0 * s**3),
        )

    def curvature(self, t):
        t = np.asarray(t, dtype=float)
        t0, tend = self.transition_start, self.transition_end
        s = np.clip(self._s(t), 0.0, 1.0)
        inner = 6.0 * (s**2 - s) / (tend - t0)
        return np.where((t <= t0) | (t >= tend), 0.0, inner)


def default_profile(domain: Domain) -> SmoothingProfile:
    """Profile with transition at min(0.2, inradius/4) and cap twice that."""
    t0 = min(0.2, domain.inradius() / 4.0)
    return SmoothingProfile(transition_start=t0)


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


def domain_from_json(spec) -> Domain:
    """Build a domain from a JSON string or an already-parsed mapping.

    Recognized shapes: disk, annulus, rectangle, polygon.
    """
    if isinstance(spec, (str, bytes)):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError("domain spec must be a JSON object")
    shape = spec.get("shape")
    try:
        if shape == "disk":
            return Disk(center=spec.get("center", (0.0, 0.0)), radius=spec["radius"])
        if shape == "annulus":
            return Annulus(
                center=spec.get("center", (0.0, 0.0)),
                inner_radius=spec["inner_radius"],
                outer_radius=spec["outer_radius"],
            )
        if shape == "rectangle":
            return Box(corner_min=spec["corner_min"], corner_max=spec["corner_max"])
        if shape == "polygon":
            return Polygon(vertices=spec["vertices"])
    except KeyError as exc:
        raise ValueError(f"domain spec for {shape!r} is missing field {exc}") from exc
    raise ValueError(f"unknown shape {shape!r}")

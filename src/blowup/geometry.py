"""Domain geometry: signed boundary distances, membership, axis-aligned cube
tests, and the smoothed-distance profile.

Domains are open sets in R^dim.  ``signed_distance`` is positive inside,
negative outside, zero on the boundary; ``distance`` is its absolute value.
Point-valued operations accept arrays of shape (..., dim) and vectorize over
the leading axes.  Cube tests take arrays of lower/upper corners and answer
exactly (no sampling), which is what the dyadic decomposition relies on.

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
    "domain_from_json",
]


def _points(p, dim: int) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.ndim == 0 or a.shape[-1] != dim:
        raise ValueError(f"expected points with last axis {dim}, got shape {a.shape}")
    return a


def _corners(lo, hi, dim: int):
    lo = np.atleast_2d(np.asarray(lo, dtype=float))
    hi = np.atleast_2d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or lo.shape[-1] != dim:
        raise ValueError("cube corner arrays must share shape (n, dim)")
    if np.any(hi <= lo):
        raise ValueError("cube upper corners must exceed lower corners")
    return lo, hi


def _radial_range(center, lo, hi):
    """(nearest, farthest) distance from center over each closed box [lo, hi]."""
    below = lo - center
    above = center - hi
    near = np.linalg.norm(np.maximum(np.maximum(below, above), 0.0), axis=-1)
    far = np.linalg.norm(np.maximum(np.abs(below), np.abs(above)), axis=-1)
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

    @abstractmethod
    def distance_laplacian(self, p) -> np.ndarray:
        """Laplacian of the boundary distance at interior points, almost
        everywhere (undefined on the medial axis; there the value of the
        nearest branch is returned)."""

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
        return self.radius - np.linalg.norm(p - self.center, axis=-1)

    def distance_laplacian(self, p):
        p = _points(p, self.dim)
        rho = np.linalg.norm(p - self.center, axis=-1)
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
        rho = np.linalg.norm(p - self.center, axis=-1)
        return np.minimum(rho - self.inner_radius, self.outer_radius - rho)

    def distance_laplacian(self, p):
        p = _points(p, self.dim)
        rho = np.linalg.norm(p - self.center, axis=-1)
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
        inside_gap = np.min(gap, axis=-1)
        outside = np.linalg.norm(np.maximum(-gap, 0.0), axis=-1)
        return np.where(inside_gap > 0, inside_gap, -outside)

    def distance_laplacian(self, p):
        p = _points(p, self.dim)
        # distance to a face is locally affine; the singular ridge has measure zero
        return np.zeros(p.shape[:-1])

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
        return np.all((lo > self.corner_min) & (hi < self.corner_max), axis=-1)

    def cube_intersects(self, lo, hi):
        lo, hi = _corners(lo, hi, self.dim)
        return np.all((lo < self.corner_max) & (hi > self.corner_min), axis=-1)

    def to_json_dict(self):
        return {
            "shape": "rectangle",
            "corner_min": self.corner_min.tolist(),
            "corner_max": self.corner_max.tolist(),
        }


class Polygon(Domain):
    """Open simple polygon in the plane.

    Vertices may be given in either orientation; they are stored
    counterclockwise.  Construction rejects self-intersecting vertex lists.
    """

    dim = 2

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("vertices must be an (n>=3, 2) array")
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        if area2 == 0:
            raise ValueError("degenerate polygon")
        if area2 < 0:
            v = v[::-1].copy()
        self.vertices = v
        self._a = v
        self._b = np.roll(v, -1, axis=0)
        if np.any(np.sum((self._b - self._a) ** 2, axis=-1) == 0.0):
            raise ValueError("polygon has a zero-length edge")
        self._check_simple()

    def _check_simple(self):
        a, b = self._a, self._b
        n = len(a)
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue  # shared endpoint
                if _segments_cross(a[i], b[i], a[j], b[j]):
                    raise ValueError("polygon is self-intersecting")

    # nearest-feature machinery shared by distance and distance_laplacian
    def _nearest_edge(self, p):
        """Distance to the nearest edge and the clamped projection parameter
        on that edge, each of shape (...).

        One pass per edge; a tie keeps the first edge, as argmin would.
        """
        p = _points(p, 2)
        flat = p.reshape(-1, 2)
        x, y = flat[:, 0], flat[:, 1]
        best = t_best = None
        for (ax, ay), (bx, by) in zip(self._a.tolist(), self._b.tolist()):
            abx, aby = bx - ax, by - ay
            ab2 = abx * abx + aby * aby
            t = np.clip(((x - ax) * abx + (y - ay) * aby) / ab2, 0.0, 1.0)
            dx = x - (ax + t * abx)
            dy = y - (ay + t * aby)
            d = np.sqrt(dx * dx + dy * dy)
            if best is None:
                best, t_best = d, t
            else:
                closer = d < best
                np.copyto(best, d, where=closer)
                np.copyto(t_best, t, where=closer)
        return best.reshape(p.shape[:-1]), t_best.reshape(p.shape[:-1])

    def signed_distance(self, p):
        p = _points(p, 2)
        d, _ = self._nearest_edge(p)
        return np.where(self._even_odd_inside(p), d, -d)

    def _even_odd_inside(self, p):
        p = _points(p, 2)
        x, y = p[..., 0], p[..., 1]
        inside = np.zeros(x.shape, dtype=bool)
        for (ax, ay), (bx, by) in zip(self._a.tolist(), self._b.tolist()):
            if ay == by:
                continue  # a horizontal edge never crosses the ray
            crosses = (ay > y) != (by > y)
            x_int = ax + (y - ay) * (bx - ax) / (by - ay)
            inside ^= crosses & (x < x_int)
        return inside

    def distance_laplacian(self, p):
        d_near, t_near = self._nearest_edge(p)
        at_vertex = (t_near <= 0.0) | (t_near >= 1.0)
        # nearest feature an edge interior: distance is locally affine;
        # nearest feature a vertex (reflex corner seen from inside): radial
        return np.where(at_vertex, 1.0 / np.maximum(d_near, 1e-300), 0.0)

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
        lo, hi = self.bounding_box()
        n = self._INRADIUS_SAMPLES
        xs = np.linspace(lo[0], hi[0], n)
        ys = np.linspace(lo[1], hi[1], n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        sd = self.signed_distance(np.stack([X, Y], axis=-1))
        return float(np.max(sd))

    def is_convex(self):
        e = self._b - self._a
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        return bool(np.all(cross >= -1e-14))

    def _edges_overlap_box(self, lo, hi):
        """True per box where some polygon edge meets the closed box."""
        a, b = self._a, self._b  # (E, 2)
        d = b - a
        n_box = lo.shape[0]
        t0 = np.zeros((len(a), n_box))
        t1 = np.ones((len(a), n_box))
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

    def cube_contained(self, lo, hi):
        lo, hi = _corners(lo, hi, 2)
        corners = _box_corners(lo, hi)  # (n, 4, 2)
        all_in = np.all(self.contains(corners), axis=-1)
        return all_in & ~self._edges_overlap_box(lo, hi)

    def cube_intersects(self, lo, hi):
        lo, hi = _corners(lo, hi, 2)
        corners = _box_corners(lo, hi)
        any_corner_in = np.any(self.contains(corners), axis=-1)
        v = self.vertices
        vert_in = np.any(
            np.all((v[None, :, :] > lo[:, None, :]) & (v[None, :, :] < hi[:, None, :]), axis=-1),
            axis=-1,
        )
        return any_corner_in | vert_in | self._edges_overlap_box(lo, hi)

    def to_json_dict(self):
        return {"shape": "polygon", "vertices": self.vertices.tolist()}


def _box_corners(lo, hi):
    n = lo.shape[0]
    out = np.empty((n, 4, 2))
    out[:, 0] = lo
    out[:, 1] = np.stack([hi[:, 0], lo[:, 1]], axis=-1)
    out[:, 2] = hi
    out[:, 3] = np.stack([lo[:, 0], hi[:, 1]], axis=-1)
    return out


def _segments_cross(p, q, r, s):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    o1, o2 = orient(p, q, r), orient(p, q, s)
    o3, o4 = orient(r, s, p), orient(r, s, q)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


# ---------------------------------------------------------------------------
# smoothed distance profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothingProfile:
    """Monotone C^2 profile F applied to the boundary distance.

    F(t) = t on (-inf, t0]  (identity near the boundary),
    F(t) = cap for t >= 2*cap - t0  (constant far inside),
    and a quintic Hermite blend in between.  The blend keeps F' in [0, 1]
    with F'(t0) = 1, F'(end) = 0 and matching second derivatives, so the
    composite F(delta) is C^2 wherever delta is.
    """

    transition_start: float
    cap: float | None = None

    def __post_init__(self):
        if self.transition_start <= 0:
            raise ValueError("transition_start must be positive")
        if self.cap is None:
            object.__setattr__(self, "cap", 2.0 * self.transition_start)
        if self.cap <= self.transition_start:
            raise ValueError("cap must exceed transition_start")

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

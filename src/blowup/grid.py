"""Uniform Cartesian grid over a planar domain, masked scalar fields, and
five-point finite-difference operators.

Nodes sit on the lattice h*Z^2 so that grids at dyadic spacings nest and a
symmetric domain yields a symmetric node set.  Classification:

* interior          signed distance >= h/2; these carry the unknowns,
* boundary-adjacent inside the domain but closer than h/2 to the boundary;
  they hold the Dirichlet value 0,
* exterior          outside the closed domain.

Stencils read missing neighbors as 0 (the Dirichlet ghost value).  Quadrature
is the midpoint rule sum f(node) * h^2 over interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Annulus, Box, Disk, Domain, Polygon, SmoothingProfile

__all__ = ["Grid", "ScalarField", "laplacian_of_distance"]

EXTERIOR, BOUNDARY_ADJACENT, INTERIOR = 0, 1, 2


def _neighbors(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """West, east, south and north neighbor of every node of a padded
    (nx, ny) array, zero (False) past the array's edge."""
    w, e, s, n = (np.zeros_like(a) for _ in range(4))
    w[1:, :] = a[:-1, :]
    e[:-1, :] = a[1:, :]
    s[:, 1:] = a[:, :-1]
    n[:, :-1] = a[:, 1:]
    return w, e, s, n


class Grid:
    """Lattice nodes m*h covering the domain's bounding box with a margin.

    The margin (two rings of exterior nodes) keeps every interior node's
    stencil inside the arrays.  Immutable once built.
    """

    def __init__(self, domain: Domain, h: float, margin: int = 2):
        if domain.dim != 2:
            raise ValueError("grids are two-dimensional")
        if h <= 0:
            raise ValueError("h must be positive")
        self.domain = domain
        self.h = float(h)
        lo, hi = domain.bounding_box()
        self.i0 = int(np.floor(lo[0] / h)) - margin
        self.j0 = int(np.floor(lo[1] / h)) - margin
        i1 = int(np.ceil(hi[0] / h)) + margin
        j1 = int(np.ceil(hi[1] / h)) + margin
        self.nx = i1 - self.i0 + 1
        self.ny = j1 - self.j0 + 1
        self.xs = (self.i0 + np.arange(self.nx)) * self.h
        self.ys = (self.j0 + np.arange(self.ny)) * self.h
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        self.X, self.Y = X, Y
        pts = np.stack([X, Y], axis=-1)
        self.signed_dist = domain.signed_distance(pts)
        self.classification = np.where(
            self.signed_dist >= 0.5 * self.h,
            INTERIOR,
            np.where(self.signed_dist > 0.0, BOUNDARY_ADJACENT, EXTERIOR),
        ).astype(np.int8)
        self.interior_mask = self.classification == INTERIOR
        self.n_interior = int(np.count_nonzero(self.interior_mask))
        if self.n_interior == 0:
            raise ValueError("grid has no interior nodes; h too coarse for the domain")
        self.index = np.full((self.nx, self.ny), -1, dtype=np.int64)
        self.index[self.interior_mask] = np.arange(self.n_interior)
        self.delta = self.signed_dist[self.interior_mask]
        self.points = pts[self.interior_mask]
        # per node and neighbor (west, east, south, north): is it interior
        m = self.interior_mask
        self._has = _neighbors(m)
        has_w, has_e, has_s, has_n = self._has
        self.full_stencil = (m & has_w & has_e & has_s & has_n)[m]

    # -- value layout ------------------------------------------------------

    def scatter(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Interior vector -> full (nx, ny) array holding fill (by default
        the Dirichlet zero) at every other node."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_interior,):
            raise ValueError("values must have one entry per interior node")
        full = np.full((self.nx, self.ny), fill)
        full[self.interior_mask] = values
        return full

    def eval_function(self, f) -> np.ndarray:
        """Sample f(x, y) at interior nodes."""
        return np.asarray(f(self.points[:, 0], self.points[:, 1]), dtype=float)

    # -- operators ---------------------------------------------------------

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Five-point Laplacian with zero ghost values, at interior nodes."""
        full = self.scatter(values)
        return self._stencil(full)[self.interior_mask]

    def _stencil(self, full: np.ndarray) -> np.ndarray:
        out = np.zeros_like(full)
        out[1:-1, 1:-1] = (
            full[2:, 1:-1]
            + full[:-2, 1:-1]
            + full[1:-1, 2:]
            + full[1:-1, :-2]
            - 4.0 * full[1:-1, 1:-1]
        )
        out /= self.h * self.h
        return out

    def dirichlet_energy(self, values: np.ndarray) -> float:
        """Sum of squared forward differences: integral of |grad u|^2 under
        the pairing <-Lap u, u> h^2 (summation by parts is exact)."""
        full = self.scatter(values)
        dx = np.diff(full, axis=0)
        dy = np.diff(full, axis=1)
        return float(np.sum(dx * dx) + np.sum(dy * dy))

    def gradient(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Central-difference gradient at interior nodes, one-sided where a
        stencil neighbor is not interior, zero when neither side is."""
        full = self.scatter(values)
        h = self.h
        m = self.interior_mask
        w, e, s, n = _neighbors(full)
        has_w, has_e, has_s, has_n = self._has

        def axis(lowv, highv, has_low, has_high):
            central = (highv - lowv) / (2.0 * h)
            up = (highv - full) / h
            down = (full - lowv) / h
            g = np.where(
                has_low & has_high,
                central,
                np.where(has_high, up, np.where(has_low, down, 0.0)),
            )
            return g

        gx = axis(w, e, has_w, has_e)[m]
        gy = axis(s, n, has_s, has_n)[m]
        return gx, gy

    def ghost_signed_sum(self) -> np.ndarray:
        """Per interior node, the sum of signed boundary distances over its
        stencil neighbors that are not interior (the Dirichlet ghosts)."""
        out = np.zeros_like(self.signed_dist)
        for has, sd in zip(self._has, _neighbors(self.signed_dist)):
            out += np.where(has, 0.0, sd)
        return out[self.interior_mask]

    def integrate(self, node_values: np.ndarray) -> float:
        """Midpoint quadrature over interior nodes."""
        node_values = np.asarray(node_values, dtype=float)
        if node_values.shape != (self.n_interior,):
            raise ValueError("integrand must be an interior-node vector")
        return float(np.sum(node_values) * self.h * self.h)


@dataclass(frozen=True)
class ScalarField:
    """Values at the interior nodes of a grid; zero on the Dirichlet mask."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_interior,):
            raise ValueError("field length must match the grid's interior node count")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: Grid, f) -> "ScalarField":
        return cls(grid, grid.eval_function(f))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.n_interior))

    def to_csv(self, path) -> None:
        pts = self.grid.points
        data = np.column_stack([pts[:, 0], pts[:, 1], self.values])
        np.savetxt(path, data, delimiter=",", header="x,y,value", comments="")

    def to_json_dict(self) -> dict:
        g = self.grid
        return {
            "h": g.h,
            "origin": [g.i0 * g.h, g.j0 * g.h],
            "shape": [g.nx, g.ny],
            "mask": g.classification.flatten().tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict, domain: Domain) -> "ScalarField":
        grid = Grid(domain, payload["h"])
        stored = np.asarray(payload["mask"], dtype=np.int8).reshape(payload["shape"])
        if stored.shape != grid.classification.shape or np.any(
            stored != grid.classification
        ):
            raise ValueError("stored mask does not match the grid built from the domain")
        return cls(grid, np.asarray(payload["values"], dtype=float))


def laplacian_of_distance(
    domain: Domain,
    profile: SmoothingProfile,
    grid: Grid,
    method: str = "auto",
) -> np.ndarray:
    """Laplacian of the smoothed distance d = F(delta) at interior nodes.

    * ``analytic``: chain rule F''(delta) + F'(delta) * Lap(delta) with the
      shape's exact distance Laplacian.  Valid where delta is smooth, which
      holds everywhere relevant for disks and annuli (the medial set is a
      point or a circle, below the cap where F' vanishes).
    * ``fd``: five-point stencil on sampled F(signed distance).  The signed
      extension is kink-free across the boundary, so this is O(h^2) away
      from the medial axis; on the medial axis of a box or polygon the true
      Laplacian has a singular (surface measure) part and the stencil
      returns its h-smeared version there, by design.
    * ``auto``: analytic for Disk/Annulus, fd for Box/Polygon.
    """
    if method == "auto":
        method = "analytic" if isinstance(domain, (Disk, Annulus)) else "fd"
    if method == "analytic":
        if not isinstance(domain, (Disk, Annulus)):
            raise ValueError("analytic path is only exact for disk and annulus")
        delta = grid.delta
        fp = profile.slope(delta)
        fpp = profile.curvature(delta)
        lap_delta = domain.distance_laplacian(grid.points)
        return fpp + np.where(fp != 0.0, fp, 0.0) * np.where(fp != 0.0, lap_delta, 0.0)
    if method == "fd":
        d_ext = profile.value(grid.signed_dist)
        return grid._stencil(d_ext)[grid.interior_mask]
    raise ValueError(f"unknown method {method!r}")

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

Flat layout.  Node values live in C-contiguous (nx, ny) arrays, so node
(i, j) is entry i*ny + j of the array's 1-D view, and its four neighbors are
the entries ny and 1 before and after it.  The five-point passes run on
those contiguous shifts of the whole view.  A shift by 1 wraps from the end
of one row to the start of the next, so it is exact only when no interior
node lies on the array's outer ring.  That is the ring invariant: level 0
has two rings of exterior margin, and every coarse level of the V-cycle is
padded with one exterior ring.  Off the interior the passes leave values
that carry no meaning.

Every interior node at spacing 2h is an interior node at spacing h, so the
lattices at h, 2h, 4h, ... nest.  ``Grid.vcycle_preconditioner`` uses them
for one symmetric geometric-multigrid V-cycle (Briggs, Henson & McCormick, *A
Multigrid Tutorial*, 2000) on -Lap_h + diag(mass), the Hessian of the
renormalized energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Annulus, Box, Disk, Domain, Polygon, SmoothingProfile

__all__ = ["Grid", "ScalarField", "laplacian_of_distance"]

EXTERIOR, BOUNDARY_ADJACENT, INTERIOR = 0, 1, 2

# V-cycle: damped-Jacobi sweeps before and after each coarse correction, the
# damping factor, and the node count at or below which a level is solved
# densely instead of coarsened further
SMOOTHING_SWEEPS = 2
JACOBI_DAMPING = 0.8
COARSEST_NODES = 400


def _flat(a: np.ndarray) -> np.ndarray:
    """The 1-D view of a padded array.  A buffer that is not C-contiguous is
    refused: reshaping it would copy, and writes to the copy would be lost."""
    if not a.flags.c_contiguous:
        raise ValueError("padded arrays must be C-contiguous")
    return a.reshape(-1)


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
    stencil inside the arrays.  Immutable once built, apart from private
    scratch buffers (the padded pair behind ``laplacian`` and ``gradient``,
    the multigrid levels) whose contents are valid only inside one call.
    """

    def __init__(self, domain: Domain, h: float):
        if domain.dim != 2:
            raise ValueError("grids are two-dimensional")
        if h <= 0:
            raise ValueError("h must be positive")
        self.domain = domain
        self.h = float(h)
        lo, hi = domain.bounding_box()
        margin = 2
        self.i0 = int(np.floor(lo[0] / h)) - margin
        self.j0 = int(np.floor(lo[1] / h)) - margin
        i1 = int(np.ceil(hi[0] / h)) + margin
        j1 = int(np.ceil(hi[1] / h)) + margin
        self.nx = i1 - self.i0 + 1
        self.ny = j1 - self.j0 + 1
        self.xs = (self.i0 + np.arange(self.nx)) * self.h
        self.ys = (self.j0 + np.arange(self.ny)) * self.h
        pts = np.stack(np.meshgrid(self.xs, self.ys, indexing="ij"), axis=-1)
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
        # per axis (flat step ny along x, 1 along y): the interior nodes with
        # only their high or only their low neighbor interior, as positions
        # in the interior vector and flat indices, for gradient's one-sided
        # differences
        at = np.flatnonzero(m)
        self._one_sided = []
        for step, low, high in ((self.ny, has_w, has_e), (1, has_s, has_n)):
            up = np.flatnonzero((high & ~low)[m])
            down = np.flatnonzero((low & ~high)[m])
            self._one_sided.append((step, up, at[up], down, at[down]))
        # padded scratch pair: operand and result of the stencil, and level
        # 0's correction and residual in the V-cycle; the operand is zero
        # outside the interior between calls
        self._u = np.zeros((self.nx, self.ny))
        self._t = np.zeros((self.nx, self.ny))
        self._levels: list[_Level] | None = None

    # -- value layout ------------------------------------------------------

    def scatter(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Interior vector -> full (nx, ny) array holding fill (by default
        the Dirichlet zero) at every other node."""
        full = np.full((self.nx, self.ny), fill)
        full[self.interior_mask] = self._interior_vector(values)
        return full

    def _interior_vector(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_interior,):
            raise ValueError("values must have one entry per interior node")
        return values

    # -- operators ---------------------------------------------------------

    def _scatter_scratch(self, values: np.ndarray) -> np.ndarray:
        """Interior vector -> the padded scratch operand (zero elsewhere)."""
        self._u[self.interior_mask] = self._interior_vector(values)
        return self._u

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Five-point Laplacian with zero ghost values, at interior nodes."""
        self._stencil(self._scatter_scratch(values), self._t)
        return self._t[self.interior_mask]

    def _stencil(self, full: np.ndarray, out: np.ndarray) -> None:
        """Five-point Laplacian of the padded array full into out, in place,
        exact at interior nodes (see the flat layout above).  Sums in the
        order E + W + N + S - 4C; the centre term is subtracted as
        4 (sum/4 - C), which rounds exactly like sum - 4C because scaling by
        4 is exact."""
        f, ny = _flat(full), self.ny
        # entries ny + 1 .. size - ny - 2 hold every interior node, and each
        # of their shifts by +-ny and +-1 stays inside the array
        end = f.size - ny - 1

        def shift(k):
            return f[ny + 1 + k : end + k]

        o = _flat(out)[ny + 1 : end]
        np.add(shift(ny), shift(-ny), out=o)
        o += shift(1)
        o += shift(-1)
        o *= 0.25
        o -= shift(0)
        o *= 4.0
        o /= self.h * self.h

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
        f = _flat(self._scatter_scratch(values))
        inside = _flat(self.interior_mask)
        h = self.h

        def axis(step, up, up_at, down, down_at):
            # central everywhere first, over the flat shifts by +-step: with
            # neither neighbor interior both values are the zero ghosts, so
            # it is already 0 there
            g = np.subtract(f[2 * step :], f[: -2 * step])[inside[step:-step]]
            g /= 2.0 * h
            g[up] = (f[up_at + step] - f[up_at]) / h
            g[down] = (f[down_at] - f[down_at - step]) / h
            return g

        return tuple(axis(*one_sided) for one_sided in self._one_sided)

    def ghost_signed_sum(self) -> np.ndarray:
        """Per interior node, the sum of signed boundary distances over its
        stencil neighbors that are not interior (the Dirichlet ghosts)."""
        out = np.zeros_like(self.signed_dist)
        for has, sd in zip(self._has, _neighbors(self.signed_dist)):
            out += np.where(has, 0.0, sd)
        return out[self.interior_mask]

    # -- multigrid ---------------------------------------------------------

    def vcycle_preconditioner(self, mass: np.ndarray):
        """Preconditioner for A = -Lap_h + diag(mass), mass > 0 per interior
        node: the map r -> (one V-cycle applied to r), a symmetric positive
        definite approximation of A^{-1} r.

        Level k has spacing 2^k h; its operator is the five-point stencil at
        that spacing plus the mass sampled at its nodes.  Each level below
        the coarsest runs SMOOTHING_SWEEPS damped-Jacobi sweeps, restricts
        the residual by full weighting (P^T / 4 for bilinear prolongation
        P), corrects with the next level's cycle, and smooths again; the
        coarsest level is solved densely.  The map shares this grid's
        scratch buffers and holds until the next call.
        """
        mass = np.asarray(mass, dtype=float)
        if mass.shape != (self.n_interior,):
            raise ValueError("mass must have one entry per interior node")
        levels = self._hierarchy()
        for level in levels:
            level.diag[level.mask] = 4.0 + level.h**2 * mass[level.nodes]
        levels[-1].factor()

        def apply(r: np.ndarray) -> np.ndarray:
            top = levels[0]
            top.f[top.mask] = r * (self.h * self.h)
            _cycle(levels, 0)
            return top.u[top.mask]

        return apply

    def _hierarchy(self) -> list[_Level]:
        """The nested lattices at spacings h, 2h, 4h, ..., built on first
        use.  Level k + 1 keeps the nodes of level k that lie on even
        multiples of its spacing, so its signed distances are a strided
        slice of level k's and its interior nodes (signed distance at least
        half its spacing) are those of Grid(domain, 2^(k+1) h).  The slice
        can put interior nodes on its edge, so each coarse level's arrays
        are the slice padded with one exterior ring, which keeps the ring
        invariant of the flat layout.  Coarsening stops at COARSEST_NODES
        interior nodes or before a level with none.
        """
        if self._levels is None:
            top = _Level(self.interior_mask, self.h, slice(None), self._u, self._t)
            levels = [top]
            # the current level's unpadded strided view of the finest grid's
            # arrays, the lattice index of the view's first row and column,
            # and the rings its arrays add around the view
            sd, index, ci, cj, ring = self.signed_dist, self.index, self.i0, self.j0, 0
            while levels[-1].n > COARSEST_NODES:
                fine = levels[-1]
                a, b = ci % 2, cj % 2
                h = 2.0 * fine.h
                sd, index = sd[a::2, b::2], index[a::2, b::2]
                inner = sd >= 0.5 * h
                if not inner.any():
                    break
                mask = np.pad(inner, 1)
                # index p of the padded coarse arrays sits on index
                # a + ring + 2(p - 1) of the fine arrays
                fine.to_coarse = (
                    _transfer_pairs(a + ring - 2, fine.mask.shape[0], mask.shape[0]),
                    _transfer_pairs(b + ring - 2, fine.mask.shape[1], mask.shape[1]),
                )
                u, t = np.zeros(mask.shape), np.zeros(mask.shape)
                levels.append(_Level(mask, h, index[inner], u, t))
                ci, cj, ring = (ci + a) // 2, (cj + b) // 2, 1
            self._levels = levels
        return self._levels


def _transfer_pairs(a: int, n_fine: int, n_coarse: int) -> list[tuple]:
    """Bilinear interpolation along one axis whose coarse index p sits on
    fine index a + 2p (a may be negative): per offset d in (-1, 0, 1), the
    weight 1 - |d|/2 and the slices pairing p with fine index a + 2p + d,
    clipped to both arrays."""
    pairs = []
    for d in (-1, 0, 1):
        lo = max(0, -((a + d) // 2))
        hi = min(n_coarse, (n_fine - 1 - a - d) // 2 + 1)
        start = a + d + 2 * lo
        pairs.append(
            (1.0 - 0.5 * abs(d), slice(start, start + 2 * (hi - lo), 2), slice(lo, hi))
        )
    return pairs


class _Level:
    """One lattice of the V-cycle in the padded layout of its spacing h.

    The buffers hold the level's equation multiplied by h^2: diag is
    4 + h^2 mass at interior nodes (4 elsewhere), f the right-hand side, u
    the correction (zero outside the interior), t scratch.  nodes picks the
    level's interior nodes out of the finest grid's interior vector.  The
    outer ring of mask is exterior (the flat layout's ring invariant).
    """

    def __init__(self, mask, h, nodes, u, t):
        assert not (mask[[0, -1]].any() or mask[:, [0, -1]].any()), (
            "interior node on the level's outer ring"
        )
        self.mask = mask
        self.h = h
        self.nodes = nodes
        self.n = int(np.count_nonzero(mask))
        self.diag = np.full(mask.shape, 4.0)
        self.f = np.zeros(mask.shape)
        self.u = u
        self.t = t
        self.to_coarse = None
        self.inverse = None

    def residual(self) -> None:
        """t = f - A u at every node (only interior values are meaningful:
        the shifts by +-1 wrap between rows off the interior)."""
        u, t, ny = _flat(self.u), _flat(self.t), self.u.shape[1]
        np.multiply(self.diag, self.u, out=self.t)
        t[ny:] -= u[:-ny]
        t[:-ny] -= u[ny:]
        t[1:] -= u[:-1]
        t[:-1] -= u[1:]
        np.subtract(self.f, self.t, out=self.t)

    def smooth(self, sweeps: int) -> None:
        """Damped-Jacobi sweeps u += omega (f - A u) / diag at interior nodes."""
        for _ in range(sweeps):
            self.residual()
            self.t /= self.diag
            self.t *= JACOBI_DAMPING
            self.t *= self.mask
            self.u += self.t

    def factor(self) -> None:
        """Dense inverse of the level's operator (coarsest level only),
        symmetrized so the V-cycle stays exactly symmetric."""
        local = np.full(self.mask.shape, -1)
        local[self.mask] = np.arange(self.n)
        a = np.diag(self.diag[self.mask])
        for lo, hi in ((local[:-1, :], local[1:, :]), (local[:, :-1], local[:, 1:])):
            both = (lo >= 0) & (hi >= 0)
            a[lo[both], hi[both]] = -1.0
            a[hi[both], lo[both]] = -1.0
        inv = np.linalg.inv(a)
        self.inverse = 0.5 * (inv + inv.T)


def _cycle(levels: list[_Level], k: int) -> None:
    """One V-cycle from level k down on levels[k].f into levels[k].u."""
    level = levels[k]
    if k == len(levels) - 1:
        level.u[level.mask] = level.inverse @ level.f[level.mask]
        return
    coarse = levels[k + 1]
    xs, ys = level.to_coarse
    # pre-smoothing; the first sweep starts from u = 0
    np.divide(level.f, level.diag, out=level.u)
    level.u *= JACOBI_DAMPING
    level.u *= level.mask
    level.smooth(SMOOTHING_SWEEPS - 1)
    level.residual()
    level.t *= level.mask
    # restriction: the h^2 scaling turns full weighting into plain P^T; the
    # centre pass has weight 1 and adds without a product
    coarse.f.fill(0.0)
    for wx, fx, cx in xs:
        for wy, fy, cy in ys:
            w, t = wx * wy, level.t[fx, fy]
            coarse.f[cx, cy] += t if w == 1.0 else w * t
    _cycle(levels, k + 1)
    for wx, fx, cx in xs:
        for wy, fy, cy in ys:
            w, u = wx * wy, coarse.u[cx, cy]
            level.u[fx, fy] += u if w == 1.0 else w * u
    level.u *= level.mask
    level.smooth(SMOOTHING_SWEEPS)


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
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.n_interior))

    def to_csv(self, path) -> None:
        pts = self.grid.points
        data = np.column_stack([pts[:, 0], pts[:, 1], self.values])
        np.savetxt(path, data, delimiter=",", header="x,y,value", comments="")


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
        grid._stencil(d_ext, grid._t)
        return grid._t[grid.interior_mask]
    raise ValueError(f"unknown method {method!r}")

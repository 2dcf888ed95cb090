"""Uniform Cartesian grid over a planar domain, masked scalar fields, and
five-point finite-difference operators.

Nodes sit on the lattice h*Z^2 so that grids at dyadic spacings nest and a
symmetric domain yields a symmetric node set.  Three kinds of node:

* interior          signed distance >= h/2; these carry the unknowns,
* boundary-adjacent inside the domain but closer than h/2 to the boundary;
  they hold the Dirichlet value 0,
* exterior          outside the closed domain.

Only the interior mask is stored: stencils read every other node as 0 (the
Dirichlet ghost value), and the rim's ghost correction reads its signed
distance.  Quadrature is the midpoint rule sum f(node) * h^2 over interior
nodes.

Flat layout.  Node values live in C-contiguous (nx, ny) arrays, so node
(i, j) is entry i*ny + j of the array's 1-D view, and its west, east, south
and north neighbors are the entries at offsets -ny, +ny, -1 and +1.  Every
neighbor lookup is one of these flat shifts, of the whole view (the
five-point passes) or of the interior nodes' flat indices (the per-node
sets).  A shift by 1 wraps from the end of one row to the start of the
next, so it is exact only when no interior node lies on the array's outer
ring.  That is the ring invariant: level 0 has two rings of exterior
margin, and every coarse level of the V-cycle is padded with one exterior
ring.  Off the interior the passes leave values that carry no meaning.

Every interior node at spacing 2h is an interior node at spacing h, so the
lattices at h, 2h, 4h, ... nest.  ``Grid.vcycle_preconditioner`` uses them
for one symmetric geometric-multigrid V-cycle (Briggs, Henson & McCormick, *A
Multigrid Tutorial*, 2000) on -Lap_h + diag(mass), the Hessian of the
renormalized energy.  Each level stores 1/diag at its interior nodes and 0
elsewhere, so a damped-Jacobi sweep is five flat passes for
(f + neighbor sum) / diag and three for the damped update, and every value
it leaves off the interior is 0 without a mask.  The transfers are
separable: one axis at a time, three strided passes each, through one
scratch array that all levels share.  A preconditioner need only
approximate the inverse, so every level above the coarsest, and the
transfer scratch, hold VCYCLE_DTYPE (float32), which halves the bytes
each pass moves; the coarsest level's dense solve stays in float64.  The
operators above, and the CG that the V-cycle preconditions, are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Annulus, Disk, Domain, SmoothingProfile

__all__ = ["Grid", "ScalarField", "VCycle", "laplacian_of_distance"]

# V-cycle: damped-Jacobi sweeps before and after each coarse correction, the
# damping factor, and the node count at or below which a level is solved
# densely instead of coarsened further
SMOOTHING_SWEEPS = 2
# the floating type of the levels that smooth (all but the coarsest) and of
# the transfer scratch
VCYCLE_DTYPE = np.float32
JACOBI_DAMPING = 0.8
COARSEST_NODES = 400
# the largest dense level accepted: its inverse takes 128 MiB and O(n^3) work
# each Newton step.  A domain too thin to coarsen leaves more nodes there.
DENSE_NODES = 4096


def _flat(a: np.ndarray) -> np.ndarray:
    """The 1-D view of a padded array.  A buffer that is not C-contiguous is
    refused: reshaping it would copy, and writes to the copy would be lost."""
    if not a.flags.c_contiguous:
        raise ValueError("padded arrays must be C-contiguous")
    return a.reshape(-1)


class Grid:
    """Lattice nodes m*h covering the domain's bounding box with a margin.

    The margin (two rings of exterior nodes) keeps every interior node's
    stencil inside the arrays.  Immutable once built, apart from the private
    float64 padded scratch pair behind the operators, whose contents are
    valid only inside one call; a V-cycle reads its float32 correction back
    through the scratch result.  Per interior node it keeps the flat index,
    delta and the full-stencil flag; ``points`` is computed when asked for.
    """

    def __init__(self, domain: Domain, h: float):
        if domain.dim != 2:
            raise ValueError("grids are two-dimensional")
        if not 0.0 < h < np.inf:
            raise ValueError("h must be positive and finite")
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
        self.interior_mask = self.signed_dist >= 0.5 * self.h
        self.n_interior = int(np.count_nonzero(self.interior_mask))
        if self.n_interior == 0:
            raise ValueError("grid has no interior nodes; h too coarse for the domain")
        self.delta = self.signed_dist[self.interior_mask]
        # flat index of each interior node, in interior-vector order
        self._at = np.flatnonzero(self.interior_mask)
        inside = _flat(self.interior_mask)
        has_w, has_e, has_s, has_n = (inside[k] for k in self._neighbor_at())
        self.full_stencil = has_w & has_e & has_s & has_n
        # per axis (flat step ny along x, 1 along y): the interior nodes with
        # only their high or only their low neighbor interior, as positions
        # in the interior vector and flat indices, for gradient's one-sided
        # differences
        self._one_sided = []
        for step, low, high in ((self.ny, has_w, has_e), (1, has_s, has_n)):
            up = np.flatnonzero(high & ~low)
            down = np.flatnonzero(low & ~high)
            self._one_sided.append((step, up, self._at[up], down, self._at[down]))
        # padded scratch pair: operand and result of the stencil; the
        # operand is zero outside the interior between calls, and the
        # result is zero past the flat range the five-point passes write
        self._u = np.zeros((self.nx, self.ny))
        self._t = np.zeros((self.nx, self.ny))

    @property
    def points(self) -> np.ndarray:
        """(n_interior, 2) coordinates of the interior nodes, built when asked
        for (see ``points_at``)."""
        return self.points_at(slice(None))

    def points_at(self, nodes) -> np.ndarray:
        """Coordinates of the interior nodes picked by ``nodes`` (an index,
        slice or mask into the interior vector): (xs[i], ys[j]) for flat
        index i*ny + j, the very values the lattice was sampled at."""
        i, j = np.divmod(self._at[nodes], self.ny)
        return np.stack((self.xs[i], self.ys[j]), axis=-1)

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
        the pairing <-Lap u, u> h^2 (summation by parts is exact).

        Each axis's differences go into a C-contiguous view of the scratch
        result with ``np.diff``'s shape, so they sum in ``np.diff``'s
        pairwise order.  What lands past the flat range the five-point
        passes write is a difference of two margin nodes, so 0, and the
        scratch result stays zero there."""
        full = self._scatter_scratch(values)
        t = _flat(self._t)
        total = 0.0
        for hi, lo in ((full[1:], full[:-1]), (full[:, 1:], full[:, :-1])):
            d = t[: hi.size].reshape(hi.shape)
            np.subtract(hi, lo, out=d)
            d *= d
            total += np.sum(d)
        return float(total)

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
        inside, sd = _flat(self.interior_mask), _flat(self.signed_dist)
        out = np.zeros(self.n_interior)
        # skipping an interior neighbor leaves the bits of adding 0.0, as
        # the sum starts at 0.0 and so is never -0.0
        for k in self._neighbor_at():
            np.add(out, sd[k], out=out, where=~inside[k])
        return out

    def _neighbor_at(self):
        """Flat indices of the interior nodes' west, east, south and north
        neighbors, one direction at a time (offsets -ny, +ny, -1, +1), in
        one buffer that each step overwrites; the ring invariant keeps them
        inside the arrays."""
        at = np.empty_like(self._at)
        for k in (-self.ny, self.ny, -1, 1):
            yield np.add(self._at, k, out=at)

    # -- multigrid ---------------------------------------------------------

    def vcycle_preconditioner(self, mass: np.ndarray) -> VCycle:
        """Preconditioner for A = -Lap_h + diag(mass), mass > 0 per interior
        node: a ``VCycle`` on this grid's levels, targeted at ``mass``.
        Raises ValueError, before any inverse is formed, on a domain too
        thin for h to coarsen to DENSE_NODES nodes.
        """
        precondition = VCycle(self, self._hierarchy())
        precondition.retarget(mass)
        return precondition

    def _hierarchy(self) -> list[_Level]:
        """The nested lattices at spacings h, 2h, 4h, ..., built anew on
        each call for the ``VCycle`` that owns them.  Level k + 1 keeps the
        nodes of level k that lie on even multiples of its spacing, so its
        signed distances are a strided slice of level k's and its interior
        nodes (signed distance at least half its spacing) are those of
        Grid(domain, 2^(k+1) h).  The slice can put interior nodes on its
        edge, so each coarse level's arrays are the slice padded with one
        exterior ring, which keeps the ring invariant of the flat layout.
        Coarsening stops at COARSEST_NODES interior nodes or before a level
        with none.  A coarsest level above DENSE_NODES raises ValueError
        before any inverse is formed.  The levels that smooth hold their
        buffers and the transfer scratch in VCYCLE_DTYPE, the coarsest its
        f and u in float64.
        """
        top = _Level(self.interior_mask, self.h, slice(None))
        levels = [top]
        # each node's position in the finest grid's interior vector (-1
        # off the interior), which picks out every level's nodes
        index = np.full((self.nx, self.ny), -1)
        index[self.interior_mask] = np.arange(self.n_interior)
        # the current level's unpadded strided view of the finest grid's
        # arrays (sd and index), the lattice index of the view's first
        # row and column, and the rings its arrays add around the view
        sd, ci, cj, ring = self.signed_dist, self.i0, self.j0, 0
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
                _transfer_slices(a + ring - 2, fine.mask.shape[0], mask.shape[0]),
                _transfer_slices(b + ring - 2, fine.mask.shape[1], mask.shape[1]),
            )
            levels.append(_Level(mask, h, index[inner]))
            ci, cj, ring = (ci + a) // 2, (cj + b) // 2, 1
        if levels[-1].n > DENSE_NODES:
            raise ValueError(
                f"the coarsest multigrid level has {levels[-1].n} interior "
                f"nodes, more than the {DENSE_NODES} a dense solve takes: "
                f"the domain is too thin for h = {self.h:g}"
            )
        *smoothing, coarsest = levels
        coarsest.f, coarsest.u = np.zeros((2, *coarsest.mask.shape))
        # the four buffers of each smoothing level and one (coarse rows,
        # fine columns) scratch that every transfer shares are views of one
        # allocation, which lives as long as the levels and is released
        # whole with them
        shapes = [(c.mask.shape[0], f.mask.shape[1]) for f, c in zip(levels, levels[1:])]
        sizes = [4 * level.mask.size for level in smoothing]
        block = np.zeros(sum(sizes) + max((x * y for x, y in shapes), default=0), VCYCLE_DTYPE)
        *parts, scratch = np.split(block, np.cumsum(sizes, dtype=int))
        for level, part in zip(smoothing, parts):
            level.inv_diag, level.f, level.u, level.t = part.reshape(4, *level.mask.shape)
        for fine, shape in zip(levels, shapes):
            fine.scratch = scratch[: shape[0] * shape[1]].reshape(shape)
        return levels


class VCycle:
    """The map r -> (one V-cycle applied to r), a symmetric positive
    definite approximation of A^{-1} r for A = -Lap_h + diag(mass), symmetric
    up to float32 rounding; ``retarget`` moves it to another mass on the
    same levels.

    Level k has spacing s = 2^k h; its operator is the five-point stencil at
    that spacing plus the mass sampled at its nodes, times s^2, so its
    diagonal is diag = 4 + s^2 mass.  Each level below the coarsest stores
    1 / diag and runs SMOOTHING_SWEEPS damped-Jacobi sweeps, restricts the
    residual by full weighting (P^T / 4 for bilinear prolongation P) one
    axis at a time, corrects with the next level's cycle, and smooths again;
    the coarsest level is solved densely.  The map is linear, so it runs the
    cycle on r and scales the result by h^2 rather than scaling r.  Every
    level but the coarsest runs in VCYCLE_DTYPE: r is rounded to it on
    entry, and the correction is widened to float64, through the grid's
    scratch result, before the scaling; the coarsest level's dense solve is
    float64, so a grid of one level is solved exactly.  The map owns its
    levels, which go with it.
    """

    def __init__(self, grid: Grid, levels: list[_Level]):
        self.grid = grid
        self.levels = levels

    def retarget(self, mass: np.ndarray) -> None:
        """Aim the cycle at A = -Lap_h + diag(mass): only each smoothing
        level's 1 / diag and the coarsest level's inverse change."""
        mass = np.asarray(mass, dtype=float)
        if mass.shape != (self.grid.n_interior,):
            raise ValueError("mass must have one entry per interior node")
        *smoothing, coarsest = self.levels
        for level in smoothing:
            level.inv_diag[level.mask] = 1.0 / (4.0 + level.h**2 * mass[level.nodes])
        coarsest.factor(4.0 + coarsest.h**2 * mass[coarsest.nodes])

    def __call__(self, r: np.ndarray) -> np.ndarray:
        g, top = self.grid, self.levels[0]
        top.f[top.mask] = r
        _cycle(self.levels, 0)
        # top.u is zero off the interior, so the scratch result stays zero
        # past the five-point passes' range
        np.copyto(g._t, top.u)
        out = g._t[g.interior_mask]
        out *= g.h * g.h
        return out


def _transfer_slices(a: int, n_fine: int, n_coarse: int) -> tuple[slice, slice, slice]:
    """Bilinear transfer along one axis whose coarse index p sits on fine
    index a + 2p (a may be negative): the window c of coarse indices whose
    fine node a + 2p and both its neighbors lie in the fine array, the fine
    nodes f0 under the window and the fine nodes fo between and around
    them (one more than f0).

    Every interior coarse node is an interior fine node, so its fine
    neighbors exist and it lies in the window; a coarse node outside the
    window carries zero.  The spread fo reaches every fine node off the
    fine array's outer ring.
    """
    lo = max(0, (2 - a) // 2)
    hi = min(n_coarse, (n_fine - 2 - a) // 2 + 1)
    start, stop = a + 2 * lo, a + 2 * hi
    assert start <= 2 and stop >= n_fine - 1, "the spread misses a fine node"
    return slice(lo, hi), slice(start, stop - 1, 2), slice(start - 1, stop, 2)


def _restrict_axis(fine: np.ndarray, coarse: np.ndarray, slices) -> None:
    """Full weighting along axis 0 onto the window: coarse[c] is half the
    sum of the two fine nodes fo beside each centre f0, plus the centre.
    The transpose of the spread below, in three passes and no temporary."""
    c, f0, fo = slices
    odd, out = fine[fo], coarse[c]
    np.add(odd[:-1], odd[1:], out=out)
    out *= 0.5
    out += fine[f0]


def _prolong_axis(coarse: np.ndarray, fine: np.ndarray, slices) -> None:
    """Linear interpolation of coarse[c] along axis 0 into fine[f0] and
    fine[fo], the window's outer neighbors taken as zero."""
    c, f0, fo = slices
    near, odd = coarse[c], fine[fo]
    np.add(near[:-1], near[1:], out=odd[1:-1])
    odd[0] = near[0]
    odd[-1] = near[-1]
    odd *= 0.5
    fine[f0] = near


class _Level:
    """One lattice of the V-cycle in the padded layout of its spacing h.

    The buffers hold the level's equation multiplied by h^2, whose diagonal
    is diag = 4 + h^2 mass.  inv_diag holds 1 / diag at interior nodes and
    0 elsewhere, f the right-hand side, u the correction (zero off the
    interior), t scratch, which the sweep, the residual and the
    prolongation leave zero off the interior; all four are VCYCLE_DTYPE.
    Restriction reads t off the interior too, so no pass may leave it
    nonzero outside the flat range the sweep rewrites.  The coarsest level
    has only f and u, in float64, and hands diag to factor instead;
    ``Grid._hierarchy`` allocates the buffers once it knows which level is
    the coarsest.  nodes picks the level's interior nodes out of the
    finest grid's interior vector.  The outer ring of mask is exterior (the
    flat layout's ring invariant).  to_coarse holds the per-axis transfer
    slices to the next level and scratch the shared (next level's rows,
    this level's columns) buffer they pass through.
    """

    def __init__(self, mask, h, nodes):
        assert not (mask[[0, -1]].any() or mask[:, [0, -1]].any()), (
            "interior node on the level's outer ring"
        )
        self.mask = mask
        self.h = h
        self.nodes = nodes
        self.n = int(np.count_nonzero(mask))
        self.inv_diag = self.f = self.u = self.t = None
        self.to_coarse = None
        self.scratch = None
        self.inverse = None

    def _jacobi(self) -> None:
        """t = (f + sum of u's four neighbors) / diag over the flat entries
        that hold every interior node; zero off the interior, where 1/diag
        is zero (the shifts by +-1 wrap between rows there)."""
        u, t, ny = _flat(self.u), _flat(self.t), self.u.shape[1]
        lo, hi = ny + 1, t.size - ny - 1
        o = t[lo:hi]
        np.add(_flat(self.f)[lo:hi], u[lo + ny : hi + ny], out=o)
        o += u[lo - ny : hi - ny]
        o += u[lo + 1 : hi + 1]
        o += u[lo - 1 : hi - 1]
        o *= _flat(self.inv_diag)[lo:hi]

    def smooth(self, sweeps: int) -> None:
        """Damped-Jacobi sweeps u = (1 - omega) u + omega (f + neighbor sum)
        / diag, which is u + omega (f - A u) / diag."""
        for _ in range(sweeps):
            self._jacobi()
            self.u *= 1.0 - JACOBI_DAMPING
            self.t *= JACOBI_DAMPING
            self.u += self.t

    def residual(self) -> None:
        """t = f - A u at interior nodes and exactly 0 elsewhere, as
        ((f + neighbor sum) / diag - u) / (1 / diag)."""
        self._jacobi()
        self.t -= self.u
        np.divide(self.t, self.inv_diag, out=self.t, where=self.mask)

    def restrict(self, coarse: _Level) -> None:
        """coarse.f = P^T t on the coarse window, rows first: the h^2
        scaling of each level's equation turns full weighting into P^T."""
        xs, ys = self.to_coarse
        _restrict_axis(self.t, self.scratch, xs)
        _restrict_axis(self.scratch[xs[0]].T, coarse.f[xs[0]].T, ys)

    def prolong(self, coarse: _Level) -> None:
        """u += P coarse.u at interior nodes, columns first, spread through
        t (left zero off the interior)."""
        xs, ys = self.to_coarse
        _prolong_axis(coarse.u[xs[0]].T, self.scratch[xs[0]].T, ys)
        _prolong_axis(self.scratch, self.t, xs)
        self.t *= self.mask
        self.u += self.t

    def factor(self, diag: np.ndarray) -> None:
        """Dense inverse of the level's operator (coarsest level only), given
        its diagonal at the interior nodes in row-major order, symmetrized
        so the V-cycle stays exactly symmetric."""
        at = np.flatnonzero(self.mask)
        local = np.full(self.mask.size, -1)
        local[at] = np.arange(self.n)
        a = np.diag(diag)
        # each interior node's interior east and north neighbors (flat
        # offsets ny and 1)
        for k in (self.mask.shape[1], 1):
            hi = local[at + k]
            lo = np.flatnonzero(hi >= 0)
            a[lo, hi[lo]] = a[hi[lo], lo] = -1.0
        inv = np.linalg.inv(a)
        self.inverse = 0.5 * (inv + inv.T)


def _cycle(levels: list[_Level], k: int) -> None:
    """One V-cycle from level k down on levels[k].f into levels[k].u."""
    level = levels[k]
    if k == len(levels) - 1:
        level.u[level.mask] = level.inverse @ level.f[level.mask]
        return
    coarse = levels[k + 1]
    # pre-smoothing; the first sweep starts from u = 0
    np.multiply(level.f, level.inv_diag, out=level.u)
    level.u *= JACOBI_DAMPING
    level.smooth(SMOOTHING_SWEEPS - 1)
    level.residual()
    level.restrict(coarse)
    _cycle(levels, k + 1)
    level.prolong(coarse)
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
    grid: Grid, profile: SmoothingProfile, method: str = "auto"
) -> np.ndarray:
    """Laplacian of the smoothed distance d = F(delta) at interior nodes.

    * ``analytic``: chain rule F''(delta) + F'(delta) * Lap(delta) with the
      exact ``distance_laplacian``, which only disks and annuli define.
      Valid where delta is smooth, which holds everywhere relevant for them
      (the medial set is a point or a circle, below the cap where F'
      vanishes).
    * ``fd``: five-point stencil on sampled F(signed distance).  The signed
      extension is kink-free across the boundary, so this is O(h^2) away
      from the medial axis; on the medial axis of a box or polygon the true
      Laplacian has a singular (surface measure) part and the stencil
      returns its h-smeared version there, by design.
    * ``auto``: analytic for Disk/Annulus, fd for Box/Polygon.
    """
    domain = grid.domain
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

"""Dyadic cube decomposition of an open set, with a smooth partition of unity.

A cube at level k has side 2**-k and integer index m (lower corner m * 2**-k
per axis).  A cube is selected when its eta-dilate about the center lies in
the domain while the parent cube's eta-dilate does not.  Selection walks the
dyadic tree breadth-first with exact per-shape containment predicates, prunes
subtrees that cannot contribute, and truncates at a maximal level, recording
the abandoned cubes.  Points farther than ``epsilon_cut`` from the boundary
are guaranteed covered; the truncation report quantifies the rest.

Derived constants bound the geometry of the selected family: distance-to-side
ratios on supports, the side ratio of overlapping neighbors, the number of
supports that can share a point, and a gradient bound for the normalized
partition functions.  Each is a closed form in (eta, eta_prime, dim) and a
theorem of the construction, not an empirical fit; empirical maxima are
reported alongside for scale.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import _CHUNK, Domain, _by_rows, _finite, _fold

# cells of the bit table that ``covers`` builds per call (one byte each):
# the finest level whose cells over the cubes' range number at most this
_COVER_CELLS = 2**20

__all__ = [
    "WhitneyParams",
    "DerivedConstants",
    "BumpFunction",
    "WhitneyDecomposition",
    "TruncationError",
    "decompose",
    "verify_properties",
    "PropertyCheck",
    "PropertyReport",
]


# ---------------------------------------------------------------------------
# parameters and constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WhitneyParams:
    """Selection parameters.

    ``eta`` dilates a cube for the containment test; ``eta_prime`` dilates it
    for the bump support.  Validity needs eta / sqrt(dim) > eta_prime > 1:
    supports then stay inside the domain with room to spare.  ``dim`` and
    ``k_max`` are integers (not bools).
    """

    eta: float = 2.0
    eta_prime: float = 1.05
    dim: int = 2
    k_max: int = 14

    def __post_init__(self):
        for name in ("dim", "k_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        root_n = math.sqrt(self.dim)
        if not (math.isfinite(self.eta) and self.eta / root_n > self.eta_prime > 1.0):
            raise ValueError(
                "need finite eta with eta/sqrt(dim) > eta_prime > 1, got "
                f"eta={self.eta}, eta_prime={self.eta_prime}, dim={self.dim}"
            )


@dataclass(frozen=True)
class DerivedConstants:
    """Geometric constants implied by (eta, eta_prime, dim).

    delta_side_min / delta_side_max bound distance-to-boundary over cube side
    on supports; side_ratio_bound bounds the side ratio of cubes with
    overlapping supports; overlap_bound bounds how many supports can share a
    point; grad_bound scales the gradient of a normalized partition function
    by the cube side.  epsilon_cut is the coverage guarantee of the
    truncated family.

    Proof of the delta/side window for x in the support of a selected cube
    of side s and center c, so |x - c| <= sqrt(n) eta_prime s / 2: the
    cube's eta-dilate lies in the domain, so delta(c) >= eta s / 2, and its
    parent's eta-dilate (side 2 eta s, center s sqrt(n) / 2 from c) meets the
    complement, so delta(c) <= (eta + 1/2) sqrt(n) s.  delta is 1-Lipschitz,
    so delta(x) / s lies in [delta_side_min, delta_side_max] = [(eta -
    sqrt(n) eta_prime) / 2, (eta + 1/2 + eta_prime / 2) sqrt(n)].

    Proof of overlap_bound = (floor(eta_prime) + 1)**n (floor(log2(mu /
    lam)) + 1), [lam, mu] that window: a support of side s holding x has s
    in [delta(x) / mu, delta(x) / lam], which holds at most floor(log2(mu /
    lam)) + 1 powers of 2, and per axis |x_i - (m_i + 1/2) s| <= eta_prime
    s / 2 holds for at most floor(eta_prime) + 1 integers m_i.  At the
    defaults that is 4 * 5 = 20 in 2-D and 8 * 6 = 48 in 3-D, attained at x
    = 0 with delta(x) = mu / 8: 2**n supports at each side in the window.
    """

    eta: float
    eta_prime: float
    dim: int
    delta_side_min: float
    delta_side_max: float
    side_ratio_bound: float
    level_window: float
    center_window: float
    overlap_bound: int
    ref_slope_bound: float
    grad_bound: float
    epsilon_cut: float


def derive_constants(params: WhitneyParams) -> DerivedConstants:
    eta, etp, n = params.eta, params.eta_prime, params.dim
    root_n = math.sqrt(n)
    lam = (eta - etp * root_n) / 2.0
    mu = (eta + 0.5 + 0.5 * etp) * root_n
    c_ratio = (2.0 * eta + 1.0 + etp) * root_n / (eta - etp * root_n)
    level_window = math.log(c_ratio) / math.log(2.0)
    center_window = 0.5 * (1.0 + c_ratio) * etp * root_n
    # frexp(c)[1] is floor(log2(c)) + 1 exactly, c being f * 2**e with 1/2 <= f < 1
    overlap = (math.floor(etp) + 1) ** n * math.frexp(c_ratio)[1]
    ref_slope = root_n * BumpFunction(etp).max_slope()
    grad_bound = ref_slope * (1.0 + overlap * c_ratio)
    return DerivedConstants(
        eta=eta,
        eta_prime=etp,
        dim=n,
        delta_side_min=lam,
        delta_side_max=mu,
        side_ratio_bound=c_ratio,
        level_window=level_window,
        center_window=center_window,
        overlap_bound=overlap,
        ref_slope_bound=ref_slope,
        grad_bound=grad_bound,
        epsilon_cut=mu * 2.0 ** (-params.k_max),
    )


# ---------------------------------------------------------------------------
# reference bump
# ---------------------------------------------------------------------------


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly increasing;
    NaN stays NaN.  The exponentials are taken only strictly inside (0, 1),
    the transition; every other entry is its exact plateau value."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    np.copyto(out, t, where=np.isnan(t))
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    with np.errstate(over="ignore"):  # -1/t is -inf for t below 1/DBL_MAX
        a = np.exp(-1.0 / ti)
    b = np.exp(-1.0 / (1.0 - ti))
    out[inside] = a / (a + b)
    return out[()]  # a scalar for a scalar t


class BumpFunction:
    """Tensor-product C-infinity bump at unit scale.

    Equal to 1 on the closed unit cube (max-norm <= 1/2), supported in the
    eta_prime-dilate (max-norm <= eta_prime/2), values in [0, 1].
    """

    def __init__(self, eta_prime: float):
        if eta_prime <= 1.0:
            raise ValueError("eta_prime must exceed 1")
        self.eta_prime = float(eta_prime)
        self.width = (self.eta_prime - 1.0) / 2.0

    def profile(self, t: np.ndarray) -> np.ndarray:
        """1-D profile g(|t|): 1 up to 1/2, 0 beyond eta_prime/2."""
        t = np.abs(np.asarray(t, dtype=float))
        return _smoothstep((self.eta_prime / 2.0 - t) / self.width)

    def value(self, y) -> np.ndarray:
        """Bump at unit-scale offsets y of shape (..., dim)."""
        y = np.asarray(y, dtype=float)
        return np.prod(self.profile(y), axis=-1)

    def profile_derivative(self, t: np.ndarray) -> np.ndarray:
        """Exact derivative of the 1-D profile (zero on plateau and outside),
        evaluated only on the transition."""
        t = np.asarray(t, dtype=float)
        tau = (self.eta_prime / 2.0 - np.abs(t)) / self.width
        inside = (tau > 0.0) & (tau < 1.0)
        tc = np.clip(tau[inside], 1e-12, 1.0 - 1e-12)
        a = np.exp(-1.0 / tc)
        b = np.exp(-1.0 / (1.0 - tc))
        sprime = a * b * (tc**-2 + (1.0 - tc) ** -2) / (a + b) ** 2
        out = np.zeros(tau.shape)
        out[inside] = -np.sign(t[inside]) * sprime / self.width
        return out

    def gradient(self, y) -> np.ndarray:
        """Exact gradient of the tensor bump at offsets y of shape (..., dim)."""
        y = np.asarray(y, dtype=float)
        g = self.profile(y)
        gp = self.profile_derivative(y)
        n = y.shape[-1]
        cols = []
        for i in range(n):
            others = np.prod(np.delete(g, i, axis=-1), axis=-1)
            cols.append(gp[..., i] * others)
        return np.stack(cols, axis=-1)

    def max_slope(self) -> float:
        """max |g'| = 2 / width, at the middle of the transition.

        Proof: |g'| is s'(tau) / width, s the smoothstep.  With u = tau - 1/2
        and p = tau (1 - tau) = 1/4 - u**2, s = sigma(2u / p), sigma the
        logistic function, so s' = sigma (1 - sigma) (tau**-2 + (1 -
        tau)**-2) = (1/2 + 2 u**2) / (4 p**2 cosh(u / p)**2).  As cosh(y)**2
        >= 1 + y**2, that denominator is at least 4 p**2 + 4 u**2 = 1/4 + 2
        u**2 + 4 u**4, so s' <= 2 as 1/2 + 2 u**2 <= 1/2 + 4 u**2 + 8 u**4,
        with equality only at u = 0.
        """
        return 2.0 / self.width


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


class TruncationError(RuntimeError):
    """Raised when no cube survives selection; carries the truncation report."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


class WhitneyDecomposition:
    """Selected dyadic cubes with constants, one key table per level, and
    queries.

    Immutable after construction.  The cubes are stacked level-major once;
    ``levels`` maps level -> a read-only view of its (count, dim) index
    rows in lexicographic order (each level's rows are sorted once, by key),
    keys in the order given, and every membership question goes through
    ``cube_ids``, whose ids index ``arrays()``.  The partition bump and the
    constants follow from ``params``.
    """

    def __init__(
        self,
        domain: Domain,
        params: WhitneyParams,
        levels: dict[int, np.ndarray],
        truncated: dict[int, int],
    ):
        self.domain = domain
        self.params = params
        self.bump = BumpFunction(params.eta_prime)
        self.constants = derive_constants(params)
        self.truncated = truncated
        order = sorted(levels)
        self._ks = np.concatenate(
            [np.full(len(levels[k]), k, dtype=np.int64) for k in order]
        )
        self._ms = np.concatenate([levels[k] for k in order], axis=0)
        self.cube_count = len(self._ks)
        # one int64 key per cube: the index in mixed radix over the global
        # index range, axis 0 most significant, so keys sort as rows do.  The
        # sorted keys of level k0 + i are _keys[_level_starts[i]:_level_starts[i + 1]].
        self._k0 = order[0]
        self._lo, hi = self._ms.min(axis=0), self._ms.max(axis=0)
        self._extent = (hi + 1 - self._lo).astype(np.uint64)
        if math.prod(int(e) for e in self._extent) >= 2**63:
            raise ValueError("cube keys do not fit in 63 bits")
        # so that m and m + 1 are floats, and m * side exact (see _covers)
        if max(-int(self._lo.min()), int(hi.max())) >= 2**51:
            raise ValueError("cube indices must lie below 2**51 in magnitude")
        counts = [len(levels.get(k, ())) for k in range(order[0], order[-1] + 1)]
        self._level_starts = at = np.cumsum([0] + counts).tolist()
        self._keys, _ = _index_keys(self._ms, self._lo, self._extent)
        for a, b in zip(at, at[1:]):
            rows = a + np.argsort(self._keys[a:b], kind="stable")
            self._ms[a:b], self._keys[a:b] = self._ms[rows], self._keys[rows]
        self._ks.flags.writeable = self._ms.flags.writeable = False
        self.levels = {k: self._ms[at[k - self._k0] : at[k - self._k0 + 1]] for k in levels}

    # -- iteration ---------------------------------------------------------

    def arrays(self):
        """(levels, indices, sides, centers) stacked over all cubes."""
        return self._ks, self._ms, *_cube_geometry(self._ks, self._ms)

    # -- membership --------------------------------------------------------

    def cube_ids(self, k: int, m: np.ndarray) -> np.ndarray:
        """Global id of each queried cube (level k, index m), or -1 where
        that cube is not selected.

        Ids run level-major, then in the lexicographic order of the index:
        a cube's id is its row in ``arrays()``.  A query searches its
        level's keys alone, a table several times shorter than all the
        keys.
        """
        m = np.asarray(m, dtype=np.int64)
        out = np.full(len(m), -1, dtype=np.int64)
        i = int(k) - self._k0
        if not 0 <= i < len(self._level_starts) - 1:
            return out
        start, stop = self._level_starts[i], self._level_starts[i + 1]
        if start == stop:
            return out
        table = self._keys[start:stop]
        keys, ok = _index_keys(m, self._lo, self._extent)
        pos = np.searchsorted(table, keys)
        # pos is at most len(table), and clipping makes that the last key
        ok &= table.take(pos, mode="clip") == keys
        pos += start
        np.copyto(out, pos, where=ok)
        return out

    # -- point queries -----------------------------------------------------

    def covers(self, points: np.ndarray) -> np.ndarray:
        """True where some selected (undilated, closed) cube holds the point;
        ValueError on a non-finite coordinate.

        A bool table over the cells of one level L, built per call by
        ``_cover_table``, marks the cells that lie in a selected cube of
        level <= L.  Each block of points is looked up in it, and only the
        points whose cell is not marked go through the per-level search
        ``_covers``.

        A marked cell means covered: for a point x the scaling x 2**L is
        exact (a power of two), and its half-open cell is c = floor(x
        2**L).  The table marks c when some selected cube (k, m) with k <=
        L holds it, that is m = floor(c / 2**(L - k)) = floor(x 2**k), as
        the floor of a floor over an integer is the floor of the quotient.
        Then m 2**-k <= x < (m + 1) 2**-k, so the closed cube (k, m) holds
        x and ``_covers`` finds it.  Every other point (in an unmarked cell
        or outside the table) is answered by ``_covers`` itself, so each
        answer is the per-level search's.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        _finite(points, "query coordinates")
        marks = self._cover_table()
        if marks is None:
            return _by_rows(self._covers, points)
        return _by_rows(lambda block: self._covers_marked(block, *marks), points)

    def _cover_table(self):
        """(L, origin, table), or None when the coarsest level's table alone
        would exceed ``_COVER_CELLS`` cells: ``table`` marks each level-L
        cell, numbered from ``origin``, that lies in a selected cube of
        level <= L.

        The table spans the cubes of levels <= L, widened to whole cells of
        the coarsest level k0, so a level-k cube is a block of 2**(L - k)
        cells per axis, aligned to that block size: one strided assignment
        per level marks them, on a view of the table with each axis split
        into (blocks, cells per block).  The span grows and each level's
        cells halve, so the table at least doubles per axis from one level
        to the next, and L is the last level before it exceeds the cap.
        """
        k0, n = self._k0, self._ms.shape[1]
        span = top = None
        for k, m in sorted(self.levels.items()):
            if not len(m):
                continue
            # the level's cubes, in level-k0 cells: floor and ceiling shifts
            lo, hi = m.min(axis=0) >> (k - k0), -(-(m.max(axis=0) + 1) >> (k - k0))
            if span is not None:
                lo, hi = np.minimum(span[0], lo), np.maximum(span[1], hi)
            if math.prod((hi - lo).tolist()) << (n * (k - k0)) > _COVER_CELLS:
                break
            span, top = (lo, hi), k
        if span is None:
            return None
        table = np.zeros(tuple(((span[1] - span[0]) << (top - k0)).tolist()), dtype=bool)
        for k, m in self.levels.items():
            if k <= top and len(m):
                block = 1 << (top - k)
                view = table.reshape([e for size in table.shape for e in (size // block, block)])
                rel = m - (span[0] << (k - k0))
                view[tuple(i for col in rel.T for i in (col, slice(None)))] = True
        return top, span[0] << (top - k0), table

    def _covers_marked(self, points, top, origin, table):
        """``_covers`` of the block ``points``, given the level-``top`` table
        of ``_cover_table`` and its origin.

        A point in a marked cell is covered (see ``covers``).  A point in
        the table's span whose cell is not marked lies in no selected cube
        of level k <= top unless it is on the level-k lattice along some
        axis: off that lattice the only closed level-k cube that holds it is
        the one of index floor(x 2**k), whose cells hold the point's, and no
        selected cube of level <= top holds an unmarked cell.  A point on
        the level-k lattice is on the level-top one, so the points off the
        level-top lattice are asked at the finer levels alone.  The rest
        (outside the span or on that lattice) take the whole search.
        """
        inside = np.ones(len(points), dtype=bool)
        cell = np.zeros(len(points))
        col = np.empty(len(points))
        test = np.empty(len(points), dtype=bool)
        for i, size in enumerate(table.shape):
            with np.errstate(over="ignore"):  # an infinity lies outside the span
                np.multiply(points[:, i], 2.0**top, out=col)
            np.floor(col, out=col)
            col -= origin[i]
            inside &= np.greater_equal(col, 0.0, out=test)
            inside &= np.less(col, size, out=test)
            # every row gets a cell in the table
            np.maximum(col, 0.0, out=col)
            np.minimum(col, size - 1, out=col)
            cell *= size
            cell += col
        out = table.take(cell.astype(np.intp))
        out &= inside
        unmarked = np.flatnonzero(inside ^ out)
        scaled = points[unmarked] * 2.0**top
        lattice = _fold(np.logical_or, scaled == np.floor(scaled))
        finer = unmarked[~lattice]
        out[finer] = self._covers(points[finer], finer_than=top)
        rest = np.concatenate([np.flatnonzero(~inside), unmarked[lattice]])
        out[rest] = self._covers(points[rest])
        return out

    def _covers(self, points: np.ndarray, finer_than=None) -> np.ndarray:
        """Per level (only those above ``finer_than`` when given), whether a
        selected closed cube of that level holds each finite point; a point
        found at one level is not asked at the next.

        At level k, of side s, ``_near(k, x, s / 2)`` gives every selected
        cube whose center c has |x - c| <= (1 + 1e-12) s / 2 on each axis.
        That includes every cube that holds x: there |x - c| <= s / 2, and
        the rounded difference keeps the bound, s / 2 being a float.  A hit
        (k, m) is kept where m s <= x <= (m + 1) s on every axis, the closed
        cube exactly: m and m + 1 lie below 2**51 in magnitude (the
        constructor's check), so they and their products with the power of
        two s are exact.  A cube of level k that holds x has |m| >= |x| / s
        - 1, so x is asked at level k only where |x| < 2**52 s on every
        axis, which keeps the integer indices of ``_near`` exact too.
        """
        out = np.zeros(len(points), dtype=bool)
        todo = np.arange(len(points))
        for k in self.levels:
            if not len(todo):
                break
            if finer_than is not None and k <= finer_than:
                continue
            s = 2.0 ** (-k)
            ask = todo[_fold(np.logical_and, np.abs(points[todo]) < 2.0**52 * s)]
            x = points[ask]
            rows, _, ids = self._near(k, x, s / 2.0)
            m, x = self._ms[ids], x[rows]
            held = _fold(np.logical_and, (m * s <= x) & (x <= (m + 1) * s))
            out[ask[rows[held]]] = True
            todo = todo[~out[todo]]
        return out

    def _support_hits(self, points: np.ndarray, delta: np.ndarray):
        """All (point, cube) incidences of the eta_prime supports, given the
        boundary distance ``delta`` of each point.

        Returns (point_idx, cube id, side, offset) arrays concatenated over
        levels, the offset being the point's offset from the cube's center
        over the cube's side; within a level, in ``_near``'s order: by
        offset combination, then by point.

        A point x is asked only at the levels whose side s has
        delta_side_min * s <= delta(x) <= delta_side_max * s, widened by a
        relative 1e-9: a support of side s that holds x has delta(x) / s in
        [delta_side_min, delta_side_max] (see ``DerivedConstants``), so at
        most floor(level_window) + 2 levels per point.  The kept points stay
        in point order, so the incidences and their order are those of
        asking every point at every level.  delta is unsigned: a point
        outside the domain lies in no support (each support lies inside its
        cube's eta-dilate), so it has no incidences either way.
        """
        etp = self.params.eta_prime
        lam = self.constants.delta_side_min * (1.0 - 1e-9)
        mu = self.constants.delta_side_max * (1.0 + 1e-9)
        hits = []
        for k in self.levels:
            s = 2.0 ** (-k)
            rows = np.flatnonzero((delta >= lam * s) & (delta <= mu * s))
            sub, off, ids = self._near(k, points[rows], etp * s / 2.0)
            hits.append((rows[sub], ids, off))
        pid, gid, offsets = (np.concatenate(a) for a in zip(*hits))
        sides = np.repeat([2.0 ** (-k) for k in self.levels], [len(h[1]) for h in hits])
        return pid, gid, sides, offsets

    def _near(self, k: int, points: np.ndarray, half: float):
        """(row, offset, id) of every selected level-k cube whose center lies
        within ``half * (1 + 1e-12)`` of a row of ``points`` in the max norm,
        ordered by offset combination, then by row: offset is the row's
        offset from the cube's center over the side s, and id is the cube's
        global id.  Per axis, a row's candidates are floor(2 half / s) + 2
        indices from its lowest; each (axis, offset) test is made once, a
        combination's candidates are the AND of its axes' tests, and one
        ``cube_ids`` call keeps the selected ones."""
        n = points.shape[1]
        s = 2.0 ** (-k)
        reach = int(math.floor(2.0 * half / s)) + 2
        combos = np.indices((reach,) * n).reshape(n, -1).T  # axis 0 slowest
        thr = half * (1.0 + 1e-12)
        base = np.ceil(points / s - 0.5 - half / s - 1e-12).astype(np.int64)
        near_axis = [
            [np.abs(points[:, i] - (base[:, i] + j + 0.5) * s) <= thr for j in range(reach)]
            for i in range(n)
        ]
        near = [
            np.flatnonzero(np.logical_and.reduce([near_axis[i][j] for i, j in enumerate(combo)]))
            for combo in combos
        ]
        sub = np.concatenate(near)
        mq = base[sub] + np.repeat(combos, [len(c) for c in near], axis=0)
        ids = self.cube_ids(k, mq)
        hit = ids >= 0
        sub = sub[hit]
        return sub, (points[sub] - (mq[hit] + 0.5) * s) / s, ids[hit]

    def overlap_counts(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        pid = self._support_hits(points, self.domain.distance(points))[0]
        return np.bincount(pid, minlength=len(points)).astype(np.int64)

    def partition_values(self, points: np.ndarray):
        """(pid, gid, sides, offsets, phi, psi) for all support incidences.

        Per incidence: the point's row, the cube's global id (that of
        ``cube_ids``), the cube's side, the point's offset from the cube's
        center over that side, and phi, the reference bump there.  psi is
        per point: the sum of its bump values.  The normalized partition
        weights are phi / psi[pid]; ``partition_gradient`` gives their exact
        gradients.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        pid, gid, sides, offsets = self._support_hits(points, self.domain.distance(points))
        phi = _by_rows(self.bump.value, offsets, dtype=float)
        psi = np.bincount(pid, weights=phi, minlength=len(points))
        return pid, gid, sides, offsets, phi, psi

    def partition_gradient(self, pid, sides, offsets, phi, psi):
        """(grad_w, |grad_w|^2, largest side * |grad_w|) of the normalized
        weights phi / psi[pid] of the incidences (pid, sides, offsets, phi)
        of ``partition_values``, exact by the quotient rule; grad_w holds
        one axis per row.  At an incidence the bump's gradient is
        ``bump.gradient(offsets) / sides``, and psi's is the sum of those
        over the point's incidences.  The last value is the quantity the
        derived gradient bound caps (0 without incidences)."""
        # the bump's gradient in blocks of _CHUNK rows, so its temporaries
        # stay block-sized, and each row of grad_w formed in place, so one
        # axis's temporaries are alive at a time
        gref = np.empty_like(offsets)
        for start in range(0, len(gref), _CHUNK):
            rows = slice(start, start + _CHUNK)
            gref[rows] = self.bump.gradient(offsets[rows])
        gref /= sides[:, None]
        psi = psi[pid]
        grad_w = np.empty(gref.shape[::-1])
        gw2 = np.zeros(len(pid))
        for row, gi in zip(grad_w, gref.T):
            np.multiply(gi, psi, out=row)
            row -= phi * np.bincount(pid, weights=gi)[pid]
            row /= psi**2
            gw2 += row**2
        return grad_w, gw2, float((sides * np.sqrt(gw2)).max()) if len(sides) else 0.0

    # -- serialization -----------------------------------------------------

    def _header_json_dict(self) -> dict:
        """Every field of the cube file but ``cubes``."""
        return {
            "domain": self.domain.to_json_dict(),
            "eta": self.params.eta,
            "eta_prime": self.params.eta_prime,
            "k_max": self.params.k_max,
            "cube_count": self.cube_count,
            "truncated_per_level": {str(k): int(v) for k, v in self.truncated.items()},
            "constants": asdict(self.constants),
        }

    def to_json_dict(self) -> dict:
        """The decomposition with every cube's level, index, side and center."""
        cubes = [_cube_record(*row) for row in zip(*(a.tolist() for a in self.arrays()))]
        return {**self._header_json_dict(), "cubes": cubes}

    def json_chunks(self, extra: dict):
        """``json.dumps({**self.to_json_dict(), **extra}, indent=2,
        sort_keys=True)`` in pieces, without building the cube dicts: the
        header is rendered once, and each cube is joined from pieces cut from
        ``_cube_record``'s layout (``repr`` of a float is what json writes
        for it).  A piece holds at most ``_CUBES_PER_CHUNK`` cubes of one
        level.

        Each level's cubes come from ``_level_chunks``.
        """
        head = json.dumps(
            {**self._header_json_dict(), **extra, "cubes": []}, indent=2, sort_keys=True
        )
        before, after = head.split('\n  "cubes": []')
        layout = _cube_layout(self.params.dim)
        yield before + '\n  "cubes": [\n'
        sep = ""
        for k in sorted(self.levels):
            yield from _level_chunks(k, self.levels[k], layout, sep)
            sep = ",\n"
        yield "\n  ]" + after


def _cube_geometry(lev, m: np.ndarray):
    """(sides, centers) of the cubes at levels ``lev`` (one level, or one per
    row of the index array ``m``) with indices ``m``."""
    sides = 2.0 ** (-np.asarray(lev, dtype=float))
    return sides, (m + 0.5) * np.atleast_1d(sides)[:, None]


def _dilate_inside(domain: Domain, lev, m: np.ndarray, factor: float) -> np.ndarray:
    """True where the closed ``factor``-dilate about its center of the cube
    (lev, m) lies in ``domain``, in blocks of ``_CHUNK`` cubes; ``lev`` is
    one level or one per row of m."""

    def inside(lev, m):
        sides, centers = _cube_geometry(lev, m)
        half = (0.5 * factor * sides)[:, None]
        return domain.cube_contained(centers - half, centers + half)

    return _by_rows(inside, np.broadcast_to(lev, len(m)), m)


_CUBES_PER_CHUNK = 8192


def _level_chunks(k: int, ms: np.ndarray, layout: list[str], sep: str):
    """The cube-file entries of level k's index rows ``ms``, joined with
    ",\n", at most ``_CUBES_PER_CHUNK`` cubes per string, the first string
    led by ``sep`` and the others by ",\n"; ``layout`` is
    ``_cube_layout``'s.

    Each field renders each index value m of its own axis, from that
    axis's lowest to its highest at this level, once: as its index or its
    center ``(m + 0.5) * side`` (the value ``arrays()`` computes) followed
    by the layout up to the next varying field; the level and the side are
    folded into those pieces.  The texts thus scale with each axis's extent,
    not with where the domain sits; axes with the same range render their
    bare value texts once.  A cube looks its texts up by the offset of its
    indices from the per-axis lowest.  The texts die with the generator,
    before the next level renders its own.
    """
    side = 2.0 ** (-float(k))
    lo = ms.min(axis=0)
    hi = ms.max(axis=0)
    fixed = (str(k), repr(side))
    # [text before, kind, axis, text after] per index or center field;
    # fixed text goes into the piece after it, or the last one
    fields = []
    pending = layout[0]
    for kind, axis, text_after in zip(layout[1::3], layout[2::3], layout[3::3]):
        kind = int(kind)
        if kind < 2:
            pending += fixed[kind] + text_after
            continue
        fields.append([pending, kind, int(axis), text_after])
        pending = ""
    fields[-1][3] += pending
    # (text per index value of the field's axis, axis) per field
    bare = {}
    pieces = []
    for pre, kind, axis, post in fields:
        key = (kind, int(lo[axis]), int(hi[axis]))
        if key not in bare:
            values = np.arange(key[1], key[2] + 1)
            if kind == 3:
                values = (values + 0.5) * side
            bare[key] = [repr(v) for v in values.tolist()]
        pieces.append((np.array([pre + t + post for t in bare[key]], dtype=object), axis))
    del values, bare  # the bare value texts; the pieces hold their own
    for start in range(0, len(ms), _CUBES_PER_CHUNK):
        offsets = ms[start : start + _CUBES_PER_CHUNK] - lo
        texts, axis = pieces[0]
        cubes = texts[offsets[:, axis]]
        for texts, axis in pieces[1:]:
            cubes = cubes + texts[offsets[:, axis]]
        yield sep + ",\n".join(cubes.tolist())
        sep = ",\n"


def _cube_record(level, index, side, center) -> dict:
    """One entry of the cube file's ``cubes`` list."""
    return {"level": level, "index": index, "side": side, "center": center}


def _cube_layout(dim: int) -> list[str]:
    """One ``_cube_record`` as json.dumps with indent=2 lays it out inside the
    top-level ``cubes`` list, cut at its fields: [text, kind, axis, text,
    kind, axis, ..., text], where kind is "0" for the level, "1" the side,
    "2" an index entry and "3" a center entry (axis "0" for level and side).
    """
    record = _cube_record(
        "#0.0",
        [f"#2.{i}" for i in range(dim)],
        "#1.0",
        [f"#3.{i}" for i in range(dim)],
    )
    text = json.dumps(record, indent=2, sort_keys=True)
    return re.split(r'"#(\d)\.(\d+)"', "\n".join("    " + line for line in text.split("\n")))


def decompose(domain: Domain, params: WhitneyParams) -> WhitneyDecomposition:
    """Select cubes level by level with exact containment predicates.

    A cube is selected when its eta-dilate fits in the domain; its children
    are explored otherwise (pruning children that miss the domain entirely is
    an optimization only: their descendants could never be selected).  The
    root cubes are at least as wide as the domain's diameter, so no root can
    be selected and every selected cube's parent was examined and failed the
    containment test.
    """
    n = params.dim
    if domain.dim != n:
        raise ValueError("domain dimension does not match params.dim")
    diam = domain.diameter()
    k_min = -math.ceil(math.log2(diam)) if diam > 1.0 else 0

    lo_b, hi_b = domain.bounding_box()
    s0 = 2.0 ** (-k_min)
    ranges = [
        np.arange(math.floor(lo_b[i] / s0), math.floor(hi_b[i] / s0) + 1)
        for i in range(n)
    ]
    active = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
    active = active.astype(np.int64)

    levels: dict[int, np.ndarray] = {}
    truncated: dict[int, int] = {}
    child_offsets = np.stack(
        np.meshgrid(*[np.arange(2)] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)

    for k in range(k_min, params.k_max + 1):
        if len(active) == 0:
            break
        s = 2.0 ** (-k)
        contained = _dilate_inside(domain, k, active, params.eta)
        if contained.any():
            levels[k] = active[contained]
        rest = active[~contained]
        if len(rest) > 0:
            keep = domain.cube_intersects(rest * s, (rest + 1) * s)
            rest = rest[keep]
        if k == params.k_max:
            if len(rest) > 0:
                truncated[k] = int(len(rest))
            break
        active = (rest[:, None, :] * 2 + child_offsets[None, :, :]).reshape(-1, n)

    if not levels:
        capped = truncated.get(params.k_max, 0)
        cut = derive_constants(params).epsilon_cut
        report = {
            "reason": "no cube passed selection before the level cap",
            "k_max": params.k_max,
            "truncated_at_cap": capped,
            "epsilon_cut": cut,
        }
        raise TruncationError(
            "empty decomposition: domain thinner than the deepest cube level "
            f"(k_max={params.k_max}, truncated_at_cap={capped}, epsilon_cut={cut:.3e})",
            report,
        )
    return WhitneyDecomposition(domain, params, levels, truncated)


# ---------------------------------------------------------------------------
# property verification
# ---------------------------------------------------------------------------


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    worst: float | None = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst": None if self.worst is None else float(self.worst),
            "detail": self.detail,
        }


@dataclass
class PropertyReport:
    checks: list[PropertyCheck] = field(default_factory=list)
    empirical_overlap_max: int = 0
    empirical_grad_max: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "empirical_overlap_max": int(self.empirical_overlap_max),
            "empirical_grad_max": float(self.empirical_grad_max),
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _sample_beyond_cut(decomp: WhitneyDecomposition, count: int, rng):
    """The points farther than epsilon_cut from the boundary among the first
    ``count`` of uniform points in the bounding box that fall in the domain;
    ValueError when there are none, since the decomposition then guarantees
    nothing to check.

    The box points come in batches of ``max(count, 4096)``, each drawn in
    blocks of at most ``_CHUNK`` rows into one buffer.  Blocks are sized
    from the share of points inside seen so far, and distances are taken
    block by block until ``count`` points inside are found.  The rest of
    the batch is then drawn and dropped: a batch's draws in blocks are its
    draws whole, bit for bit, so the random stream moves as if every point
    were used.  Only the rows returned are kept from a block.
    """
    domain, cut = decomp.domain, decomp.constants.epsilon_cut
    lo, hi = domain.bounding_box()
    batch = max(count, 4096)
    block = np.empty((min(batch, _CHUNK), domain.dim))
    pts = np.empty((count, domain.dim))
    have = tried = kept = 0
    while have < count:
        left = batch  # rows of this batch not drawn yet
        while have < count and left:
            need = count - have
            # 5% above the rows the yield so far predicts, so that another
            # block is seldom needed; no fewer than need, as the yield is <= 1
            step = math.ceil(need * tried / have * 1.05) if have else need
            chunk = block[: min(step, _CHUNK, left)]
            rng.random(out=chunk)
            chunk *= hi - lo
            chunk += lo
            sd = domain.signed_distance(chunk)
            inside = np.flatnonzero(sd > 0.0)[:need]
            keep = inside[sd[inside] > cut]
            pts[kept : kept + len(keep)] = chunk[keep]
            kept += len(keep)
            have += len(inside)
            tried += len(chunk)
            left -= len(chunk)
        for start in range(0, left, _CHUNK):
            rng.random(out=block[: min(_CHUNK, left - start)])
    if kept == 0:
        raise ValueError(
            f"no sample lies beyond epsilon_cut={cut:.3e}: the decomposition is "
            f"too shallow for the domain at k_max={decomp.params.k_max}; raise k_max"
        )
    return pts[:kept]


GRADIENT_POINTS = 1500


def verify_properties(
    decomp: WhitneyDecomposition,
    sample_count: int = 200_000,
    coverage_samples: int | None = None,
    seed: int = 0,
) -> PropertyReport:
    """Exhaustive exact checks on cubes plus sampled checks on points.

    The sampled checks use points beyond ``epsilon_cut``; a ValueError naming
    it and ``k_max`` is raised when a sample holds none (a decomposition too
    shallow for the domain).  The exact gradients are checked on the first
    ``GRADIENT_POINTS`` of the partition sample.  The checks that hold large
    arrays each run in a helper of their own, so those arrays are freed
    before the next check starts.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if coverage_samples is not None and coverage_samples < 1:
        raise ValueError("coverage_samples must be at least 1")
    rng = np.random.default_rng(seed)
    report = PropertyReport()
    report.checks += _cube_checks(decomp)
    report.checks.append(_support_window_check(decomp, rng))
    # neighbor side ratios over all pairs with overlapping supports
    cst = decomp.constants
    worst_ratio, worst_gap = _neighbor_side_ratios(decomp)
    report.checks.append(
        PropertyCheck(
            "neighbor_side_ratio",
            worst_ratio < cst.side_ratio_bound and worst_gap <= cst.level_window,
            worst=worst_ratio,
            detail=(
                f"ratio bound {cst.side_ratio_bound:.4g}, worst level gap "
                f"{worst_gap} (window {cst.level_window:.3g})"
            ),
        )
    )
    n_cov = coverage_samples if coverage_samples is not None else sample_count
    report.checks.append(_coverage_check(decomp, n_cov, rng))
    _partition_checks(decomp, sample_count, rng, report)
    return report


def _cube_checks(decomp: WhitneyDecomposition) -> list[PropertyCheck]:
    """The selection rule, supports in the domain, no nesting and the center
    distance window, each exact on every cube."""
    dom, params = decomp.domain, decomp.params
    ks, ms = decomp._ks, decomp._ms
    checks = []

    # selection rule; siblings share a parent, so each distinct parent is
    # tested once
    ok = bool(np.all(_dilate_inside(dom, ks, ms, params.eta)))
    for k, level_ms in decomp.levels.items():
        parents = level_ms // 2
        parents = parents[_distinct_rows(parents)[0]]
        ok &= not np.any(_dilate_inside(dom, k - 1, parents, params.eta))
    checks.append(
        PropertyCheck(
            "selection_rule",
            ok,
            detail=f"{decomp.cube_count} cubes, dilate-in and parent-out verified exactly",
        )
    )

    # supports stay inside the domain
    sup_ok = _dilate_inside(dom, ks, ms, params.eta_prime)
    checks.append(PropertyCheck("support_in_domain", bool(np.all(sup_ok))))

    # no selected cube is an ancestor of another
    nested = _nested_pairs(decomp)
    checks.append(PropertyCheck("no_nesting", nested == 0, worst=float(nested)))

    # center distance bounds: eta/2 < delta/side <= (eta + 1/2) sqrt(dim)
    def center_ratio(lev, m):
        sides, centers = _cube_geometry(lev, m)
        return dom.distance(centers) / sides

    ratio_c = _by_rows(center_ratio, ks, ms, dtype=float)
    lo_c = params.eta / 2.0
    hi_c = (params.eta + 0.5) * math.sqrt(params.dim)
    checks.append(
        PropertyCheck(
            "center_distance_window",
            bool(np.all((ratio_c > lo_c) & (ratio_c <= hi_c))),
            worst=float(ratio_c.min()),
            detail=f"delta/side in ({lo_c:.4g}, {hi_c:.4g}]",
        )
    )
    return checks


def _support_window_check(decomp: WhitneyDecomposition, rng) -> PropertyCheck:
    """Support distance bounds at four random points in each support, drawn
    one point per cube at a time."""
    cst, dim = decomp.constants, decomp.params.dim
    _, _, sides, centers = decomp.arrays()
    scale = (decomp.params.eta_prime * sides)[:, None]
    ok, worst = True, []
    for _ in range(4):
        pts = rng.uniform(-0.5, 0.5, size=(decomp.cube_count, dim))
        pts *= scale
        pts += centers
        ratio = decomp.domain.distance(pts)
        ratio /= sides
        ok &= bool(np.all(ratio >= cst.delta_side_min) and np.all(ratio <= cst.delta_side_max))
        worst.append(ratio.min())
    return PropertyCheck(
        "support_distance_window",
        ok,
        worst=float(np.min(worst)),
        detail=f"bounds [{cst.delta_side_min:.4g}, {cst.delta_side_max:.4g}]",
    )


def _coverage_check(decomp: WhitneyDecomposition, count: int, rng) -> PropertyCheck:
    """Coverage of the comfortably-interior region."""
    pts = _sample_beyond_cut(decomp, count, rng)
    misses = int(np.count_nonzero(~decomp.covers(pts)))
    return PropertyCheck(
        "coverage_beyond_cut",
        misses == 0,
        worst=float(misses),
        detail=f"{len(pts)} samples beyond epsilon_cut={decomp.constants.epsilon_cut:.3e}",
    )


def _partition_checks(decomp: WhitneyDecomposition, count: int, rng, report) -> None:
    """Overlap bound, partition sums and the gradient bound on a fresh
    sample; appends their checks to ``report`` and sets its empirical
    maxima."""
    cst = decomp.constants
    pts = _sample_beyond_cut(decomp, count, rng)
    pid, _, sides, offsets, phi, psi = decomp.partition_values(pts)
    counts = np.bincount(pid, minlength=len(pts))
    report.empirical_overlap_max = int(counts.max())
    report.checks.append(
        PropertyCheck(
            "overlap_bound",
            bool(np.all(counts <= cst.overlap_bound)),
            worst=float(counts.max()),
            detail=f"certified bound {cst.overlap_bound}",
        )
    )
    psi_ok = bool(np.all(psi >= 1.0 - 1e-12) and np.all(psi <= cst.overlap_bound))
    report.checks.append(
        PropertyCheck(
            "psi_window",
            psi_ok,
            worst=float(psi.min()),
            detail="1 <= sum of reference bumps <= overlap bound on covered points",
        )
    )
    w = phi / psi[pid]
    weight_sum = np.bincount(pid, weights=w, minlength=len(pts))
    report.checks.append(
        PropertyCheck(
            "partition_sum",
            bool(np.all(np.abs(weight_sum - 1.0) <= 1e-12)),
            worst=float(np.abs(weight_sum - 1.0).max()),
            detail="normalized weights sum to 1 within 1e-12",
        )
    )
    # powers of partition weights: sum w^q <= 1 and (sum w)^q <= P^q sum w^q
    q = 3.0
    wq = np.bincount(pid, weights=w**q, minlength=len(pts))
    pow_ok = bool(
        np.all(wq <= 1.0 + 1e-12)
        and np.all(weight_sum**q <= cst.overlap_bound**q * wq * (1 + 1e-9))
    )
    report.checks.append(PropertyCheck("partition_power_sums", pow_ok, worst=float(wq.max())))

    # exact gradient bound for normalized partition functions; the first
    # points' incidences, in the order a query of those points alone gives
    head = pid < GRADIENT_POINTS
    grad_max = decomp.partition_gradient(
        pid[head], sides[head], offsets[head], phi[head], psi
    )[2]
    report.empirical_grad_max = grad_max
    report.checks.append(
        PropertyCheck(
            "partition_gradient_bound",
            grad_max <= cst.grad_bound,
            worst=grad_max,
            detail=f"side * |grad weight| <= {cst.grad_bound:.4g}",
        )
    )


def _index_keys(m: np.ndarray, lo: np.ndarray, extent: np.ndarray):
    """(key, in range) of each row of the int64 index array m: its
    mixed-radix key over the index range [lo, lo + extent) (``extent``
    unsigned), axis 0 most significant, so keys sort as rows do, and True
    where the row lies in that range.  Only the keys of rows in range mean
    anything.  The key is built column by column (Horner's rule), as numpy
    reduces a short last axis element by element."""
    keys = m[:, 0] - lo[0]
    # a negative offset reads as a huge unsigned one, so one comparison
    # checks both ends of the range
    ok = keys.view(np.uint64) < extent[0]
    for i in range(1, m.shape[1]):
        rel = m[:, i] - lo[i]
        ok &= rel.view(np.uint64) < extent[i]
        keys *= int(extent[i])
        keys += rel
    return keys, ok


def _distinct_rows(ms: np.ndarray):
    """(first, inverse) of ``np.unique`` over the rows of the int64 array
    ``ms``, through ``_index_keys`` over the rows' own index range
    (``np.unique(axis=0)`` is several times slower).  The keys are ranked
    by the stable sort ``np.unique`` uses with ``return_index``, so
    ``first`` holds each row's first occurrence; done here, the Whitney run
    calls no ``np.unique``, whose first call in a process imports
    ``numpy.ma`` (about 30 ms of CPU)."""
    lo = ms.min(axis=0)
    keys, _ = _index_keys(ms, lo, (ms.max(axis=0) + 1 - lo).astype(np.uint64))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _nested_pairs(decomp: WhitneyDecomposition) -> int:
    """Number of (cube, selected ancestor) pairs; 0 when no selected cube is
    nested in another.

    Walks from the finest level to the coarsest over distinct ancestors, each
    with a multiplicity: the number of selected finer cubes it stands for.
    One ``cube_ids`` call per level adds the multiplicities of the selected
    ones.
    """
    ks = sorted(decomp.levels)
    ms = np.empty((0, decomp.params.dim), dtype=np.int64)
    mult = np.empty(0, dtype=np.int64)
    pairs = 0
    for k in range(ks[-1], ks[0], -1):
        if k in decomp.levels:
            ms = np.concatenate([ms, decomp.levels[k]])
            mult = np.concatenate([mult, np.ones(len(decomp.levels[k]), dtype=np.int64)])
        parents = ms // 2
        first, inverse = _distinct_rows(parents)
        ms = parents[first]
        # the counts stay far below 2**53, so the float sums are exact
        mult = np.bincount(inverse, weights=mult).astype(np.int64)
        pairs += int(mult[decomp.cube_ids(k - 1, ms) >= 0].sum())
    return pairs


def _neighbor_side_ratios(decomp: WhitneyDecomposition):
    """Check every pair of cubes whose eta_prime supports meet, scanning
    the pairs that the bounds below leave open.

    The supports of a coarse cube and a fine one meet when their centers
    lie within eta_prime (s_c + s_f) / 2 in the max norm, so the coarse
    partners of each block of fine cubes are one ``_near`` query around
    their centers: at most floor(2 eta_prime) + 2 indices per axis, whatever
    the level gap.  Level gaps above
    int(level_window) + 1 need not be scanned: distance to the boundary is
    1-Lipschitz, so a point y in both supports has delta(y) > delta_side_min
    * s_c from the coarse cube and delta(y) <= delta_side_max * s_f from the
    fine one, and the side ratio s_c / s_f stays below delta_side_max /
    delta_side_min = side_ratio_bound = 2**level_window (under 2**5 at the
    defaults).  The scan goes one level past that, so a pair that broke the
    argument would show as worst_gap > level_window.

    Only whether a pair exists at a level gap can move the result: a
    same-level pair, with side ratio 1 and gap 0, the values the scan
    starts from, cannot move it and is not scanned, so the scan covers gaps
    1 to int(level_window) + 1, and the scan of a level pair stops at the
    first block that finds one.  (Centers are not checked: a pair at a gap
    up to int(level_window) has its centers at most sqrt(n) eta_prime
    (2**gap + 1) s_f / 2 apart, within center_window s_f = (1 +
    side_ratio_bound) eta_prime sqrt(n) s_f / 2 as 2**gap <=
    side_ratio_bound, and a pair at a larger gap already fails.)

    Returns (worst side ratio found, worst level gap found).
    """
    etp = decomp.params.eta_prime
    cst = decomp.constants
    ks = sorted(decomp.levels)
    worst_ratio = 1.0
    worst_gap = 0
    gap_max = int(cst.level_window) + 1
    # fine cubes per query: each brings at most 4 candidates (2-D, default
    # eta_prime), so a query's temporaries stay below those of 2 * _CHUNK rows
    block = _CHUNK // 4
    for kc in ks:  # coarse level
        sc = 2.0 ** (-kc)
        for kf in ks:  # finer level
            gap = kf - kc
            if gap < 1 or gap > gap_max:
                continue
            sf = 2.0 ** (-kf)
            for start in range(0, len(decomp.levels[kf]), block):
                mf = decomp.levels[kf][start : start + block]
                _, cf = _cube_geometry(kf, mf)
                rows, _, _ = decomp._near(kc, cf, 0.5 * etp * (sc + sf))
                if len(rows):
                    worst_ratio = max(worst_ratio, sc / sf)
                    worst_gap = max(worst_gap, gap)
                    break
    return worst_ratio, worst_gap

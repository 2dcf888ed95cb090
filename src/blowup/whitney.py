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

    def json_chunks(self, extra: dict):
        """The cube file, with ``extra`` merged into its header, in pieces.
        The header is ``json.dumps(..., indent=2, sort_keys=True)``; its
        ``cubes`` list holds one compact ``{"level": k, "index": [...]}``
        line per cube, in the order of ``arrays()``, at most ``_CHUNK`` cubes
        of one level per piece.  A cube's side is 2**-k and its center
        (index + 0.5) * side, so neither is written."""
        header = {
            "format": 2,
            "domain": self.domain.to_json_dict(),
            "eta": self.params.eta,
            "eta_prime": self.params.eta_prime,
            "k_max": self.params.k_max,
            "cube_count": self.cube_count,
            "truncated_per_level": {str(k): int(v) for k, v in self.truncated.items()},
            "constants": asdict(self.constants),
            **extra,
            "cubes": [],
        }
        before, after = json.dumps(header, indent=2, sort_keys=True).split('\n  "cubes": []')
        yield before + '\n  "cubes": ['
        sep = "\n"
        for k in sorted(self.levels):
            ms, record = self.levels[k], f'    {{"level": {k}, "index": ['
            for start in range(0, len(ms), _CHUNK):
                rows = json.dumps(ms[start : start + _CHUNK].tolist())[2:-2]
                yield sep + record + rows.replace("], [", "]},\n" + record) + "]}"
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
            rest = rest[_by_rows(lambda m: domain.cube_intersects(m * s, (m + 1) * s), rest)]
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

    The box points are drawn in blocks of ``min(count, _CHUNK)`` rows into
    one buffer, and each block's distances are taken, until ``count`` points
    inside are found; the stream stops at the end of that block.  Only the
    rows returned are kept from a block.
    """
    domain, cut = decomp.domain, decomp.constants.epsilon_cut
    lo, hi = domain.bounding_box()
    block = np.empty((min(count, _CHUNK), domain.dim))
    pts = np.empty((count, domain.dim))
    have = kept = 0
    while have < count:
        rng.random(out=block)
        block *= hi - lo
        block += lo
        sd = domain.signed_distance(block)
        inside = np.flatnonzero(sd > 0.0)[: count - have]
        keep = inside[sd[inside] > cut]
        pts[kept : kept + len(keep)] = block[keep]
        kept += len(keep)
        have += len(inside)
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

    Exact on every cube: those of ``_cube_checks``, among them the neighbor
    side ratio, bounded by the support window.  Sampled: coverage on the
    first draws from ``seed``, then the overlap, partition and gradient
    checks.

    The sampled checks use points beyond ``epsilon_cut``; a ValueError naming
    it and ``k_max`` is raised when a sample holds none (a decomposition too
    shallow for the domain).  The exact gradients are checked on the first
    ``GRADIENT_POINTS`` of the partition sample.  The checks that hold large
    arrays each run in a helper of their own, so those arrays are freed
    before the next check starts.  A negative ``seed`` is a ValueError.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if coverage_samples is not None and coverage_samples < 1:
        raise ValueError("coverage_samples must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    report = PropertyReport()
    report.checks += _cube_checks(decomp)
    n_cov = coverage_samples if coverage_samples is not None else sample_count
    report.checks.append(_coverage_check(decomp, n_cov, rng))
    _partition_checks(decomp, sample_count, rng, report)
    return report


def _cube_checks(decomp: WhitneyDecomposition) -> list[PropertyCheck]:
    """The selection rule, no nesting and the center distance window, each
    exact on every cube, and the three checks that follow from them.

    ``support_in_domain`` is the selection rule's dilate-in half: the
    eta_prime-dilate lies in the eta-dilate, as eta_prime < eta / sqrt(dim).
    ``support_distance_window``: a support point x has |x - c| <= h s, h =
    eta_prime sqrt(dim) / 2, and delta is 1-Lipschitz, so the center ratios
    r = delta(c) / s put every support's delta / s in [lo, hi] = [min r -
    h, max r + h], checked against [delta_side_min, delta_side_max].  Each
    end is one float operation, within half an ulp of the exact sum of the
    float r and h; at the high end a center ratio of (eta + 1/2) sqrt(dim)
    exactly, which the center window admits, may round one ulp past
    delta_side_max.

    ``neighbor_side_ratio``: two supports of sides s_c >= s_f that meet at
    y have lo s_c <= delta(y) <= hi s_f, so s_c / s_f <= hi / lo.  The
    sides are powers of two, so the worst ratio is at most 2**G, G the
    largest integer with 2**G lo <= hi; scaling by a power of two is exact,
    so G is exact for the float lo and hi.  The check asks 2**G <
    side_ratio_bound and G <= level_window.  For lo <= 0 no bound follows,
    and the check fails with worst inf.
    """
    dom, params, cst = decomp.domain, decomp.params, decomp.constants
    ks, ms = decomp._ks, decomp._ms
    checks = []

    # selection rule; siblings share a parent, so each distinct parent is
    # tested once
    ok = dilate_in = bool(np.all(_dilate_inside(dom, ks, ms, params.eta)))
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
    checks.append(PropertyCheck("support_in_domain", dilate_in))

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

    half = params.eta_prime * math.sqrt(params.dim) / 2.0
    lo, hi = float(ratio_c.min()) - half, float(ratio_c.max()) + half
    checks.append(
        PropertyCheck(
            "support_distance_window",
            cst.delta_side_min <= lo and hi <= cst.delta_side_max,
            worst=lo,
            detail=f"[{lo:.4g}, {hi:.4g}] in [{cst.delta_side_min:.4g}, {cst.delta_side_max:.4g}]",
        )
    )

    # the largest gap with 2**gap lo <= hi, from the binary exponents
    gap = math.inf
    if lo > 0.0:
        gap = math.frexp(hi)[1] - math.frexp(lo)[1]
        if math.ldexp(lo, gap) > hi:
            gap -= 1
    worst = 2.0**gap
    checks.append(
        PropertyCheck(
            "neighbor_side_ratio",
            worst < cst.side_ratio_bound and gap <= cst.level_window,
            worst=worst,
            detail=(
                f"ratio bound {cst.side_ratio_bound:.4g}, worst level gap "
                f"{gap} (window {cst.level_window:.3g})"
            ),
        )
    )
    return checks


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

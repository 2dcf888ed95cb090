"""Dyadic cube decomposition of an open set, with a smooth partition of unity.

A cube at level k has side 2**-k and integer index m (lower corner m * 2**-k
per axis).  A cube is selected when its eta-dilate about the center lies in
the domain while the parent cube's eta-dilate does not.  Selection walks the
dyadic tree breadth-first with exact per-shape containment predicates, prunes
subtrees that cannot contribute, and truncates at a maximal level, recording
the abandoned cubes.  Points farther than ``epsilon_cut`` from the boundary
are guaranteed covered; the truncation report quantifies the rest.

Derived constants bound the geometry of the selected family: distance-to-side
ratios on supports, the side ratio of overlapping neighbors, a finite overlap
bound obtained by enumerating the dyadic positions an overlapping neighbor
could occupy, and a gradient bound for the normalized partition functions.
All bounds are theorems of the construction, not empirical fits; empirical
maxima are reported alongside for scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain

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
    supports then stay inside the domain with room to spare.
    """

    eta: float = 2.0
    eta_prime: float = 1.05
    dim: int = 2
    k_min: int | None = None
    k_max: int = 14

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        root_n = math.sqrt(self.dim)
        if not (self.eta / root_n > self.eta_prime > 1.0):
            raise ValueError(
                "need eta/sqrt(dim) > eta_prime > 1, got "
                f"eta={self.eta}, eta_prime={self.eta_prime}, dim={self.dim}"
            )
        if self.k_min is not None and self.k_min > self.k_max:
            raise ValueError("k_min must not exceed k_max")


@dataclass(frozen=True)
class DerivedConstants:
    """Geometric constants implied by (eta, eta_prime, dim).

    delta_side_min / delta_side_max bound distance-to-boundary over cube side
    on supports; side_ratio_bound bounds the side ratio of cubes with
    overlapping supports; overlap_bound counts, by exact enumeration of
    admissible dyadic positions, how many supports can share a point;
    grad_bound scales the gradient of a normalized partition function by the
    cube side.  epsilon_cut is the coverage guarantee of the truncated family.
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

    def to_json_dict(self) -> dict:
        return {
            "eta": self.eta,
            "eta_prime": self.eta_prime,
            "dim": self.dim,
            "delta_side_min": self.delta_side_min,
            "delta_side_max": self.delta_side_max,
            "side_ratio_bound": self.side_ratio_bound,
            "level_window": self.level_window,
            "center_window": self.center_window,
            "overlap_bound": self.overlap_bound,
            "ref_slope_bound": self.ref_slope_bound,
            "grad_bound": self.grad_bound,
            "epsilon_cut": self.epsilon_cut,
        }


def _count_shifted_lattice_ball(radius: float, dim: int) -> int:
    """Number of m in Z^dim with |m + 1/2| <= radius (Euclidean)."""
    if radius < 0:
        return 0
    if dim == 1:
        lo = math.ceil(-radius - 0.5)
        hi = math.floor(radius - 0.5)
        return max(0, hi - lo + 1)
    lo = math.ceil(-radius - 0.5)
    hi = math.floor(radius - 0.5)
    if hi < lo:
        return 0
    m0 = np.arange(lo, hi + 1, dtype=float)
    rem = radius * radius - (m0 + 0.5) ** 2
    total = 0
    for r2 in rem:
        if r2 >= 0:
            total += _count_shifted_lattice_ball(math.sqrt(r2), dim - 1)
    return total


def _overlap_enumeration_bound(side_ratio_bound: float, center_window: float, dim: int) -> int:
    """Count dyadic cubes (level offset j, index m) that could, after scaling
    one cube to unit side, overlap it: |j| <= log2(side ratio bound) and
    center within the window radius."""
    j_max = int(math.floor(math.log2(side_ratio_bound)))
    total = 0
    for j in range(-j_max, j_max + 1):
        scale = 2.0**j
        total += _count_shifted_lattice_ball(center_window / scale, dim)
    return total


def derive_constants(params: WhitneyParams, bump: "BumpFunction") -> DerivedConstants:
    eta, etp, n = params.eta, params.eta_prime, params.dim
    root_n = math.sqrt(n)
    lam = (eta - etp * root_n) / 2.0
    mu = (eta + 0.5 + 0.5 * etp) * root_n
    c_ratio = (2.0 * eta + 1.0 + etp) * root_n / (eta - etp * root_n)
    level_window = math.log(c_ratio) / math.log(2.0)
    center_window = 0.5 * (1.0 + c_ratio) * etp * root_n
    overlap = _overlap_enumeration_bound(c_ratio, center_window, n)
    ref_slope = root_n * bump.max_slope()
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
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly increasing."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


class BumpFunction:
    """Tensor-product C-infinity bump at unit scale.

    Equal to 1 on the closed unit cube (max-norm <= 1/2), supported in the
    eta_prime-dilate (max-norm <= eta_prime/2), values in [0, 1].
    """

    def __init__(self, eta_prime: float):
        if eta_prime <= 1.0:
            raise ValueError("eta_prime must exceed 1")
        self.eta_prime = float(eta_prime)
        self._max_slope: float | None = None

    def profile(self, t: np.ndarray) -> np.ndarray:
        """1-D profile g(|t|): 1 up to 1/2, 0 beyond eta_prime/2."""
        t = np.abs(np.asarray(t, dtype=float))
        width = (self.eta_prime - 1.0) / 2.0
        return _smoothstep((self.eta_prime / 2.0 - t) / width)

    def value(self, y) -> np.ndarray:
        """Bump at unit-scale offsets y of shape (..., dim)."""
        y = np.asarray(y, dtype=float)
        return np.prod(self.profile(y), axis=-1)

    def profile_derivative(self, t: np.ndarray) -> np.ndarray:
        """Exact derivative of the 1-D profile (zero on plateau and outside)."""
        t = np.asarray(t, dtype=float)
        width = (self.eta_prime - 1.0) / 2.0
        tau = (self.eta_prime / 2.0 - np.abs(t)) / width
        inside = (tau > 0.0) & (tau < 1.0)
        tc = np.clip(tau, 1e-12, 1.0 - 1e-12)
        with np.errstate(over="ignore"):
            a = np.exp(-1.0 / tc)
            b = np.exp(-1.0 / (1.0 - tc))
            sprime = a * b * (tc**-2 + (1.0 - tc) ** -2) / (a + b) ** 2
        return np.where(inside, -np.sign(t) * sprime / width, 0.0)

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
        """Numerical maximum of |g'| over the transition, with a 1% cushion
        so downstream bounds stay on the safe side."""
        if self._max_slope is None:
            lo, hi = 0.5, self.eta_prime / 2.0
            ts = np.linspace(lo, hi, 200_001)
            g = self.profile(ts)
            slope = np.abs(np.diff(g)) / (ts[1] - ts[0])
            self._max_slope = float(slope.max()) * 1.01
        return self._max_slope


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


class TruncationError(RuntimeError):
    """Raised when no cube survives selection; carries the truncation report."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


class WhitneyDecomposition:
    """Selected dyadic cubes with constants, one global key table, and queries.

    Immutable after construction.  ``levels`` maps level -> (count, dim)
    integer index array, sorted for determinism; the same cubes are stacked
    level-major once, and every membership question goes through
    ``cube_ids``.
    """

    def __init__(
        self,
        domain: Domain,
        params: WhitneyParams,
        bump: BumpFunction,
        constants: DerivedConstants,
        levels: dict[int, np.ndarray],
        truncated: dict[int, int],
    ):
        self.domain = domain
        self.params = params
        self.bump = bump
        self.constants = constants
        self.levels = levels
        self.truncated = truncated
        order = sorted(levels)
        self._ks = np.concatenate(
            [np.full(len(levels[k]), k, dtype=np.int64) for k in order]
        )
        self._ms = np.concatenate([levels[k] for k in order], axis=0)
        self._ks.flags.writeable = self._ms.flags.writeable = False
        self.cube_count = len(self._ks)
        # one int64 key per cube: level most significant, then the index in
        # mixed radix over the global index range with axis 0 varying fastest
        self._k0 = order[0]
        self._lo = self._ms.min(axis=0)
        self._hi = self._ms.max(axis=0) + 1
        extent = [int(e) for e in self._hi - self._lo] + [order[-1] - order[0] + 1]
        if math.prod(extent) >= 2**63:
            raise ValueError("cube keys do not fit in 63 bits")
        self._radix = np.cumprod([1] + extent[:-1]).astype(np.int64)
        self._keys = np.sort(self._key(self._ks, self._ms - self._lo))

    # -- iteration ---------------------------------------------------------

    def arrays(self):
        """(levels, indices, sides, centers) stacked over all cubes."""
        sides = 2.0 ** (-self._ks.astype(float))
        centers = (self._ms + 0.5) * sides[:, None]
        return self._ks, self._ms, sides, centers

    # -- membership --------------------------------------------------------

    def _key(self, lev, rel: np.ndarray) -> np.ndarray:
        return rel @ self._radix[:-1] + (np.asarray(lev) - self._k0) * self._radix[-1]

    def cube_ids(self, lev, m: np.ndarray) -> np.ndarray:
        """Global id of each queried cube (level lev, index m), or -1 where
        that cube is not selected.  ``lev`` is one level or one per row of m.

        Ids run level-major, then over the index with axis 0 varying fastest.
        Only the index is range-checked: a level outside the selected range
        already keys outside the table.
        """
        m = np.asarray(m, dtype=np.int64)
        ok = np.all((m >= self._lo) & (m < self._hi), axis=-1)
        keys = self._key(lev, np.where(ok[:, None], m - self._lo, 0))
        pos = np.searchsorted(self._keys, keys)
        found = self._keys[np.minimum(pos, len(self._keys) - 1)] == keys
        return np.where(ok & found, pos, -1)

    # -- point queries -----------------------------------------------------

    def covers(self, points: np.ndarray) -> np.ndarray:
        """True where some selected (undilated, closed) cube holds the point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[1]
        out = np.zeros(len(points), dtype=bool)
        # a point exactly on a shared face or corner also belongs to the lower
        # neighbors along the axes where it sits on the lattice
        shifts = np.stack(
            np.meshgrid(*[np.array([0, -1])] * n, indexing="ij"), axis=-1
        ).reshape(-1, n)
        for k in self.levels:
            todo = np.flatnonzero(~out)
            scaled = points[todo] / 2.0 ** (-k)
            base = np.floor(scaled).astype(np.int64)
            on_lattice = scaled == base
            for sh in shifts:
                ask = ~out[todo] & np.all(on_lattice | (sh == 0), axis=1)
                out[todo[ask]] = self.cube_ids(k, base[ask] + sh) >= 0
        return out

    def _support_hits(self, points: np.ndarray):
        """All (point, cube) incidences of the eta_prime supports.

        Returns (point_idx, level, m) arrays concatenated over levels.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        etp = self.params.eta_prime
        n = points.shape[1]
        reach = int(math.floor(etp)) + 2
        combos = np.stack(
            np.meshgrid(*[np.arange(reach)] * n, indexing="ij"), axis=-1
        ).reshape(-1, n)
        pid_all, lev_all, m_all = [], [], []
        for k in self.levels:
            s = 2.0 ** (-k)
            base = np.ceil(points / s - 0.5 - etp / 2.0 - 1e-12).astype(np.int64)
            for combo in combos:
                mq = base + combo
                centers = (mq + 0.5) * s
                near = np.flatnonzero(
                    np.max(np.abs(points - centers), axis=-1)
                    <= etp * s / 2.0 * (1.0 + 1e-12)
                )
                hit = near[self.cube_ids(k, mq[near]) >= 0]
                pid_all.append(hit)
                lev_all.append(np.full(len(hit), k, dtype=np.int64))
                m_all.append(mq[hit])
        return (
            np.concatenate(pid_all),
            np.concatenate(lev_all),
            np.concatenate(m_all, axis=0),
        )

    def overlap_counts(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        pid, _, _ = self._support_hits(points)
        return np.bincount(pid, minlength=len(points)).astype(np.int64)

    def partition_values(self, points: np.ndarray):
        """(pid, level, m, phi_ref, psi) for all support incidences.

        psi is per point: the sum of reference bump values there; normalized
        partition weights are phi_ref / psi[pid].
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        pid, lev, m = self._support_hits(points)
        sides = 2.0 ** (-lev.astype(float))
        centers = (m + 0.5) * sides[:, None]
        offsets = (points[pid] - centers) / sides[:, None]
        phi = self.bump.value(offsets)
        psi = np.zeros(len(points))
        np.add.at(psi, pid, phi)
        return pid, lev, m, phi, psi

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """The decomposition with every cube's level, index, side and center."""
        ks, ms, sides, centers = self.arrays()
        return {
            "domain": self.domain.to_json_dict(),
            "eta": self.params.eta,
            "eta_prime": self.params.eta_prime,
            "k_max": self.params.k_max,
            "cube_count": self.cube_count,
            "truncated_per_level": {str(k): int(v) for k, v in self.truncated.items()},
            "constants": self.constants.to_json_dict(),
            "cubes": [
                {
                    "level": int(k),
                    "index": [int(v) for v in m],
                    "side": float(s),
                    "center": [float(c) for c in cen],
                }
                for k, m, s, cen in zip(ks, ms, sides, centers)
            ],
        }


def decompose(
    domain: Domain, params: WhitneyParams, bump: BumpFunction | None = None
) -> WhitneyDecomposition:
    """Select cubes level by level with exact containment predicates.

    A cube is selected when its eta-dilate fits in the domain; its children
    are explored otherwise (pruning children that miss the domain entirely is
    an optimization only: their descendants could never be selected).  Roots
    are coarse enough that no root can be selected, so every selected cube's
    parent was examined and failed the containment test.
    """
    if bump is None:
        bump = BumpFunction(params.eta_prime)
    if bump.eta_prime != params.eta_prime:
        raise ValueError("bump support dilation must match params.eta_prime")
    n = params.dim
    if domain.dim != n:
        raise ValueError("domain dimension does not match params.dim")
    diam = domain.diameter()
    auto_k_min = -math.ceil(math.log2(diam)) if diam > 1.0 else 0
    k_min = params.k_min if params.k_min is not None else auto_k_min
    if 2.0 ** (-k_min) < diam:
        raise ValueError("root cubes must be at least as wide as the domain diameter")
    constants = derive_constants(params, bump)

    lo_b, hi_b = domain.bounding_box()
    s0 = 2.0 ** (-k_min)
    ranges = [
        np.arange(math.floor(lo_b[i] / s0), math.floor(hi_b[i] / s0) + 1)
        for i in range(n)
    ]
    active = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
    active = active.astype(np.int64)

    eta = params.eta
    levels: dict[int, np.ndarray] = {}
    truncated: dict[int, int] = {}
    child_offsets = np.stack(
        np.meshgrid(*[np.arange(2)] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)

    for k in range(k_min, params.k_max + 1):
        if len(active) == 0:
            break
        s = 2.0 ** (-k)
        centers = (active + 0.5) * s
        half = 0.5 * eta * s
        contained = domain.cube_contained(centers - half, centers + half)
        chosen = active[contained]
        if len(chosen) > 0:
            order = np.lexsort(chosen.T[::-1])
            levels[k] = chosen[order]
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
        report = {
            "reason": "no cube passed selection before the level cap",
            "k_max": params.k_max,
            "truncated_at_cap": truncated.get(params.k_max, 0),
            "epsilon_cut": constants.epsilon_cut,
        }
        raise TruncationError(
            "empty decomposition: domain thinner than the deepest cube level",
            report,
        )
    return WhitneyDecomposition(domain, params, bump, constants, levels, truncated)


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


def _sample_beyond_cut(decomp: WhitneyDecomposition, count: int, rng) -> np.ndarray:
    """The points farther than epsilon_cut from the boundary among ``count``
    uniform points in the domain; ValueError when there are none, since the
    decomposition then guarantees nothing to check."""
    domain, cut = decomp.domain, decomp.constants.epsilon_cut
    lo, hi = domain.bounding_box()
    pts, dist = [], []
    have = 0
    while have < count:
        batch = lo + rng.random((max(count, 4096), domain.dim)) * (hi - lo)
        sd = domain.signed_distance(batch)
        inside = sd > 0.0
        pts.append(batch[inside])
        dist.append(sd[inside])
        have += len(dist[-1])
    deep = np.concatenate(dist)[:count] > cut
    if not deep.any():
        raise ValueError(
            f"no sample lies beyond epsilon_cut={cut:.3e}: the decomposition is "
            f"too shallow for the domain at k_max={decomp.params.k_max}; raise k_max"
        )
    return np.concatenate(pts, axis=0)[:count][deep]


def verify_properties(
    decomp: WhitneyDecomposition,
    sample_count: int = 200_000,
    coverage_samples: int | None = None,
    gradient_points: int = 1500,
    seed: int = 0,
) -> PropertyReport:
    """Exhaustive exact checks on cubes plus sampled checks on points.

    The sampled checks use points beyond ``epsilon_cut``; a ValueError naming
    it and ``k_max`` is raised when a sample holds none (a decomposition too
    shallow for the domain).
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if coverage_samples is not None and coverage_samples < 1:
        raise ValueError("coverage_samples must be at least 1")
    if gradient_points < 1:
        raise ValueError("gradient_points must be at least 1")
    rng = np.random.default_rng(seed)
    dom = decomp.domain
    cst = decomp.constants
    params = decomp.params
    report = PropertyReport()
    ks, ms, sides, centers = decomp.arrays()

    # selection rule, exact on every cube
    half = 0.5 * params.eta * sides
    sel_ok = dom.cube_contained(centers - half[:, None], centers + half[:, None])
    p_sides = sides * 2.0
    p_centers = (np.floor_divide(ms, 2) + 0.5) * p_sides[:, None]
    p_half = 0.5 * params.eta * p_sides
    parent_ok = ~dom.cube_contained(
        p_centers - p_half[:, None], p_centers + p_half[:, None]
    )
    ok = bool(np.all(sel_ok) and np.all(parent_ok))
    report.checks.append(
        PropertyCheck(
            "selection_rule",
            ok,
            detail=f"{decomp.cube_count} cubes, dilate-in and parent-out verified exactly",
        )
    )

    # supports stay inside the domain, exact on every cube
    s_half = 0.5 * params.eta_prime * sides
    sup_ok = dom.cube_contained(centers - s_half[:, None], centers + s_half[:, None])
    report.checks.append(
        PropertyCheck("support_in_domain", bool(np.all(sup_ok)))
    )

    # no selected cube is an ancestor of another
    nested = sum(
        int(np.count_nonzero(decomp.cube_ids(ks - j, ms // 2**j) >= 0))
        for j in range(1, int(ks[-1] - ks[0]) + 1)
    )
    report.checks.append(
        PropertyCheck("no_nesting", nested == 0, worst=float(nested))
    )

    # center distance bounds: eta/2 < delta/side <= (eta + 1/2) sqrt(dim)
    delta_c = dom.distance(centers)
    ratio_c = delta_c / sides
    lo_c = params.eta / 2.0
    hi_c = (params.eta + 0.5) * math.sqrt(params.dim)
    report.checks.append(
        PropertyCheck(
            "center_distance_window",
            bool(np.all((ratio_c > lo_c) & (ratio_c <= hi_c))),
            worst=float(ratio_c.min()),
            detail=f"delta/side in ({lo_c:.4g}, {hi_c:.4g}]",
        )
    )

    # support distance bounds via random points in each support
    reps = 4
    offs = rng.uniform(-0.5, 0.5, size=(reps, len(ks), params.dim))
    pts = centers[None, :, :] + offs * (params.eta_prime * sides)[None, :, None]
    ratio_s = dom.distance(pts.reshape(-1, params.dim)).reshape(reps, -1) / sides[None, :]
    report.checks.append(
        PropertyCheck(
            "support_distance_window",
            bool(
                np.all(ratio_s >= cst.delta_side_min)
                and np.all(ratio_s <= cst.delta_side_max)
            ),
            worst=float(ratio_s.min()),
            detail=f"bounds [{cst.delta_side_min:.4g}, {cst.delta_side_max:.4g}]",
        )
    )

    # neighbor side ratios over all pairs with overlapping supports
    worst_ratio, worst_gap, centers_ok = _neighbor_side_ratios(decomp)
    report.checks.append(
        PropertyCheck(
            "neighbor_side_ratio",
            worst_ratio < cst.side_ratio_bound
            and worst_gap <= cst.level_window
            and centers_ok,
            worst=worst_ratio,
            detail=(
                f"ratio bound {cst.side_ratio_bound:.4g}, worst level gap "
                f"{worst_gap} (window {cst.level_window:.3g})"
            ),
        )
    )

    # coverage of the comfortably-interior region
    n_cov = coverage_samples if coverage_samples is not None else sample_count
    pts = _sample_beyond_cut(decomp, n_cov, rng)
    misses = int(np.count_nonzero(~decomp.covers(pts)))
    report.checks.append(
        PropertyCheck(
            "coverage_beyond_cut",
            misses == 0,
            worst=float(misses),
            detail=f"{len(pts)} samples beyond epsilon_cut={cst.epsilon_cut:.3e}",
        )
    )

    # overlap bound and partition sums on a fresh sample
    pts = _sample_beyond_cut(decomp, sample_count, rng)
    pid, lev, m, phi, psi = decomp.partition_values(pts)
    counts = np.bincount(pid, minlength=len(pts))
    report.empirical_overlap_max = int(counts.max())
    report.checks.append(
        PropertyCheck(
            "overlap_bound",
            bool(np.all(counts <= cst.overlap_bound)),
            worst=float(counts.max()),
            detail=f"enumerated bound {cst.overlap_bound}",
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
    weight_sum = np.zeros(len(pts))
    np.add.at(weight_sum, pid, phi / psi[pid])
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
    wq = np.zeros(len(pts))
    np.add.at(wq, pid, (phi / psi[pid]) ** q)
    pow_ok = bool(
        np.all(wq <= 1.0 + 1e-12)
        and np.all(weight_sum**q <= cst.overlap_bound**q * wq * (1 + 1e-9))
    )
    report.checks.append(PropertyCheck("partition_power_sums", pow_ok, worst=float(wq.max())))

    # gradient bound for normalized partition functions, finite differences
    grad_max, grad_ok = _partition_gradient_check(decomp, pts[:gradient_points])
    report.empirical_grad_max = grad_max
    report.checks.append(
        PropertyCheck(
            "partition_gradient_bound",
            grad_ok,
            worst=grad_max,
            detail=f"side * |grad weight| <= {cst.grad_bound:.4g}",
        )
    )
    return report


def _neighbor_side_ratios(decomp: WhitneyDecomposition):
    """Examine every pair of cubes whose eta_prime supports meet.

    For each finer cube the coarser-level candidate window is at most about
    2 * eta_prime + 1 indices wide per axis, independent of the level gap, so
    the enumeration is exhaustive and cheap.  Level gaps above 8 need not be
    scanned: distance to the boundary is 1-Lipschitz, so the exactly-checked
    center distance window already forces the side ratio of support-sharing
    cubes under delta_side_max / delta_side_min < 2**8.

    Returns (worst side ratio found, worst level gap found, True when every
    center offset obeyed the center_window constant).
    """
    etp = decomp.params.eta_prime
    cst = decomp.constants
    ks = sorted(decomp.levels)
    n = decomp.params.dim
    worst_ratio = 1.0
    worst_gap = 0
    centers_ok = True
    for kc in ks:  # coarse level
        sc = 2.0 ** (-kc)
        for kf in ks:  # fine or equal level
            gap = kf - kc
            if gap < 0 or gap > 8:
                continue
            sf = 2.0 ** (-kf)
            mf = decomp.levels[kf]
            cf = (mf + 0.5) * sf
            reach = 0.5 * etp * (sc + sf)
            lo = np.ceil((cf - reach) / sc - 0.5 - 1e-12).astype(np.int64)
            hi = np.floor((cf + reach) / sc - 0.5 + 1e-12).astype(np.int64)
            width = int((hi - lo).max() + 1)
            found_pair = False
            for combo in np.ndindex(*([width] * n)):
                mq = lo + np.asarray(combo, dtype=np.int64)
                ok = np.all(mq <= hi, axis=-1)
                if gap == 0:
                    ok &= np.any(mq != mf, axis=-1)  # skip self pairs
                if not np.any(ok):
                    continue
                hit = ok & (decomp.cube_ids(kc, mq) >= 0)
                if not np.any(hit):
                    continue
                cc = (mq[hit] + 0.5) * sc
                off = np.abs(cc - cf[hit])
                touch = np.all(off <= reach * (1.0 + 1e-12), axis=-1)
                if np.any(touch):
                    found_pair = True
                    dist = np.sqrt(np.sum((cc - cf[hit]) ** 2, axis=-1))[touch]
                    if np.any(dist > cst.center_window * sf * (1.0 + 1e-9)):
                        centers_ok = False
            if found_pair:
                worst_ratio = max(worst_ratio, sc / sf)
                worst_gap = max(worst_gap, gap)
    return worst_ratio, worst_gap, centers_ok


def _partition_gradient_check(decomp: WhitneyDecomposition, points: np.ndarray):
    """Central-difference gradients of every normalized weight active at the
    sample points, batched; returns (max of side*|grad|, within-bound flag).

    The step is scaled to the cube side, far smaller than the distance to the
    boundary on covered points, so all stencil points stay inside the domain.
    """
    cst = decomp.constants
    pid, lev, m, _, _ = decomp.partition_values(points)
    if len(pid) == 0:
        return 0.0, True
    n = points.shape[1]
    sides = 2.0 ** (-lev.astype(float))
    centers = (m + 0.5) * sides[:, None]
    tau = 1e-6 * sides
    # stencil layout: (incidence, axis, +/-), flattened for one batched query
    stencil = np.repeat(points[pid][:, None, None, :], n, axis=1).repeat(2, axis=2)
    for ax in range(n):
        stencil[:, ax, 0, ax] += tau
        stencil[:, ax, 1, ax] -= tau
    flat = stencil.reshape(-1, n)
    reps = 2 * n
    phi_own = decomp.bump.value(
        (flat - np.repeat(centers, reps, axis=0)) / np.repeat(sides, reps)[:, None]
    )
    _, _, _, _, psi_flat = decomp.partition_values(flat)
    w = (phi_own / psi_flat).reshape(len(pid), n, 2)
    grad = (w[:, :, 0] - w[:, :, 1]) / (2.0 * tau[:, None])
    vals = sides * np.sqrt(np.sum(grad**2, axis=1))
    worst = float(vals.max())
    return worst, bool(worst <= cst.grad_bound)

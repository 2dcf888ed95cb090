"""Weighted integral inequalities on planar domains, with certified constants.

Evaluates both sides of embedding inequalities of the form

    (integral of |u|^q / delta^n)^(1/q)  <=  Sigma_q * (combined norm of u)

by grid quadrature, computes the theoretical constants from a dyadic cube
decomposition (Sigma_q, the series constant c2, the exponential-class
integrand), and audits the localization proof chain cube by cube: every
inequality used in the derivation is checked numerically on the actual data.

Distances are true boundary distances from the domain, not smoothed ones.
All norms use midpoint quadrature over interior nodes; gradients are central
differences with one-sided stencils at the Dirichlet rim.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, Domain, SmoothingProfile, deepest_point
from .grid import Grid, ScalarField
from .whitney import DerivedConstants, WhitneyDecomposition

__all__ = [
    "SeriesOverflowError",
    "DegenerateInputError",
    "unit_ball_volume",
    "weighted_lhs",
    "weighted_rhs",
    "sobolev_bound",
    "sigma_q",
    "a_constant",
    "C2Result",
    "c2_constant",
    "orlicz_boundary_integral",
    "hardy_quotient",
    "radial_bump",
    "FAMILY_NAMES",
    "standard_family",
    "grid_family",
    "HardyEstimate",
    "hardy_witness_max",
    "resolve_hardy_constant",
    "ChainStep",
    "ChainReport",
    "chain_audit",
    "embedding_report",
    "sigma_growth_scan",
]


class SeriesOverflowError(OverflowError):
    """Series argument too large for the floating range; result saturates."""


class DegenerateInputError(ValueError):
    """Input lacks the structure the operation needs (e.g. zero gradient)."""


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# grid norms
# ---------------------------------------------------------------------------


def weighted_lhs(u: ScalarField, q: float) -> float:
    """(integral of |u|^q / delta^2)^(1/q) by midpoint quadrature, formed as
    M (integral of (|u| / M)^q / delta^2)^(1/q) with M = max |u|, so the
    powers stay at most 1 and the value is finite wherever the norm is."""
    if not 1 <= q < math.inf:
        raise ValueError("q must be finite and at least 1")
    g = u.grid
    top = float(np.abs(u.values).max())
    if top == 0.0:
        return 0.0
    total = np.sum((np.abs(u.values) / top) ** q / g.delta**2) * g.h**2
    return top * float(total ** (1.0 / q))


def weighted_rhs(u: ScalarField) -> float:
    """The combined norm (integral of |grad u|^2 + u^2 / delta^2)^(1/2),
    the form (integral of |grad u|^p delta^(p-n) + |u|^p / delta^n)^(1/p)
    at p = n = 2, the grid's dimension and the only exponent the constants
    are certified for.  Quadrature over interior nodes only; nodes inside
    the Dirichlet rim carry value zero by construction and are excluded.
    """
    return _weighted_rhs(u, *u.grid.gradient(u.values))


def _weighted_rhs(u: ScalarField, gx, gy) -> float:
    """``weighted_rhs`` of u given its gradient (gx, gy) from ``Grid.gradient``."""
    g = u.grid
    total = np.sum(np.hypot(gx, gy) ** 2 + u.values**2 / g.delta**2) * g.h**2
    return float(total**0.5)


# ---------------------------------------------------------------------------
# theoretical constants
# ---------------------------------------------------------------------------


def sobolev_bound(q: float, n: int) -> float:
    """Growth bound (omega_n q)^(1 - 1/n + 1/q) for the embedding constant
    of W^{1,n} into L^q on the reference cube, valid for q >= n."""
    if not n <= q < math.inf:
        raise ValueError("bound requires finite q >= n")
    return (unit_ball_volume(n) * q) ** (1.0 - 1.0 / n + 1.0 / q)


def sigma_q(constants: DerivedConstants, q: float) -> float:
    """Embedding constant 2 P S_q lambda^(-n/q) [1 + P c3^n mu^n]^(1/n).

    This is the general form 2 P S_q lambda^(-n/q) [mu^(n-p) + P c3^p
    mu^n]^(1/p) at p = n = ``constants.dim``, the only exponent with a
    certified growth bound for S_q.
    """
    n = constants.dim
    if not n <= q < math.inf:
        raise ValueError("q must be finite and at least n")
    lam = constants.delta_side_min
    mu = constants.delta_side_max
    c3 = constants.grad_bound
    P = constants.overlap_bound
    s = sobolev_bound(q, n)
    bracket = 1.0 + P * c3**n * mu**n
    return 2.0 * P * s * lam ** (-n / q) * bracket ** (1.0 / n)


def a_constant(constants: DerivedConstants) -> float:
    """Aggregate constant {2P [1 + P (c3 mu)^n]^(1/n)}^(n/(n-1)), n = dim."""
    n = constants.dim
    if n < 2:
        raise ValueError("dimension must be at least 2")
    P = constants.overlap_bound
    c3 = constants.grad_bound
    mu = constants.delta_side_max
    nprime = n / (n - 1.0)
    return (2.0 * P * (1.0 + P * (c3 * mu) ** n) ** (1.0 / n)) ** nprime


@dataclass(frozen=True)
class C2Result:
    """Outcome of the series constant: value with a certified tail bound, or
    a divergence flag when the coupling falls below the convergence threshold.
    value is the partial sum when tail_bound is at most ``C2_TAIL_RTOL`` of
    it, and otherwise the partial sum plus tail_bound, an upper bound."""

    c1: float
    diverges: bool
    value: float
    threshold_c1: float
    tail_bound: float
    terms_used: int
    a_value: float

    def to_json_dict(self) -> dict:
        return {
            "c1": self.c1,
            "diverges": self.diverges,
            "value": None if self.diverges else self.value,
            "threshold_c1": self.threshold_c1,
            "tail_bound": self.tail_bound,
            "terms_used": self.terms_used,
            "a_value": self.a_value,
        }


C2_TAIL_RTOL = 1e-12
C2_MAX_TERMS = 100_000


def c2_constant(c1: float, constants: DerivedConstants) -> C2Result:
    """Series sum_{q >= n-1} lambda^(-n) n' omega_n (n' omega_n A / c1^n')^q q^q/(q-1)!,
    n = ``constants.dim``.

    The term ratio is x (1 + 1/q)^(q+1), strictly decreasing to x e, so the
    series converges exactly when x e < 1, i.e. c1^n' > e omega_n n' A.  On
    convergence the partial sum is returned once the remaining geometric
    tail is certified below ``C2_TAIL_RTOL`` of the partial sum.

    Near the threshold that takes more than ``C2_MAX_TERMS`` terms; the
    value returned there is the partial sum plus a tail bound that holds
    from any Q, a certified upper bound.  Robbins' q! >= sqrt(2 pi q)
    (q/e)^q (Amer. Math. Monthly 1955) gives q^q/(q-1)! <= e^q sqrt(q) /
    sqrt(2 pi), so with r = x e the tail from Q is at most lambda^(-n) n'
    omega_n / sqrt(2 pi) times sum_{q >= Q} q r^q = r^Q (Q (1-r) + r) /
    (1-r)^2.
    """
    n = constants.dim
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0 < c1 < math.inf:
        raise ValueError("c1 must be positive and finite")
    nprime = n / (n - 1.0)
    omega = unit_ball_volume(n)
    A = a_constant(constants)
    lam = constants.delta_side_min
    threshold = (math.e * omega * nprime * A) ** (1.0 / nprime)
    try:
        x = nprime * omega * A / c1**nprime
        log_x = math.log(x)
    except (OverflowError, ZeroDivisionError, ValueError):
        # past the float range: log x from log c1, x capped at 1 (diverges)
        log_x = math.log(nprime * omega * A) - nprime * math.log(c1)
        x = math.exp(min(log_x, 0.0))
    if x * math.e >= 1.0:
        return C2Result(c1, True, math.inf, threshold, math.inf, 0, A)
    log_coef = -n * math.log(lam) + math.log(nprime * omega)
    partial = 0.0
    q = n - 1
    used = 0
    while True:
        log_term = log_coef + q * log_x + q * math.log(q) - math.lgamma(q)
        term = math.exp(log_term)
        partial += term
        used += 1
        ratio_next = x * (1.0 + 1.0 / (q + 1)) ** (q + 2)
        if ratio_next < 1.0:
            next_term = term * x * (1.0 + 1.0 / q) ** (q + 1)
            tail = next_term / (1.0 - ratio_next)
            if tail <= C2_TAIL_RTOL * partial:
                return C2Result(c1, False, partial, threshold, tail, used, A)
        q += 1
        if used >= C2_MAX_TERMS:
            r = x * math.e
            tail = (
                math.exp(log_coef + q * (log_x + 1.0))
                * (q * (1.0 - r) + r)
                / ((1.0 - r) ** 2 * math.sqrt(2.0 * math.pi))
            )
            return C2Result(c1, False, partial + tail, threshold, tail, used, A)


def orlicz_boundary_integral(u: ScalarField, c1: float) -> float:
    """Quadrature of the planar Orlicz function exp((u / c1)^2) - 1 over
    delta^2 at the interior nodes; SeriesOverflowError where (u / c1)^2
    passes 700, near the float range."""
    g = u.grid
    t2 = (u.values / c1) ** 2
    if t2.max() > 700.0:
        raise SeriesOverflowError(f"exp((u / c1)^2) saturates: (u / c1)^2 up to {t2.max():.6g}")
    return float(np.sum(np.expm1(t2) / g.delta**2) * g.h**2)


def hardy_quotient(u: ScalarField) -> float:
    """Ratio of the boundary-weighted L2 norm to the gradient L2 norm."""
    g = u.grid
    gx, gy = g.gradient(u.values)
    gx *= gx
    gy *= gy
    gx += gy
    denom = math.sqrt(float(np.sum(gx)) * g.h**2)
    if denom == 0.0:
        raise DegenerateInputError("gradient vanishes identically")
    q = u.values / g.delta
    q *= q
    numer = math.sqrt(float(np.sum(q)) * g.h**2)
    return numer / denom


# ---------------------------------------------------------------------------
# test function family
# ---------------------------------------------------------------------------


def radial_bump(r2, radius: float, exponent: float = 2.0):
    """(1 - r2/R^2)_+^exponent of the squared distance r2 to the centre;
    Lipschitz for exponent >= 1 and supported in the ball of radius R, so it
    vanishes on the boundary whenever the ball sits inside the domain."""
    if exponent < 1:
        raise ValueError("exponent below 1 is not Lipschitz at the bubble rim")
    return np.maximum(0.0, 1.0 - r2 / radius**2) ** exponent


# witness parameters: grid nodes per axis of the deepest-point search, bump
# radii (fractions of its depth) with exponents, sine wave numbers per axis,
# and log cutoffs
_DEEP_SAMPLES = 256
_BUMPS = tuple((frac, expo) for frac in (0.95, 0.55) for expo in (1.0, 2.0, 3.0))
_SINE_MODES = ((1, 1), (2, 1), (3, 2), (5, 3))
_LOG_CUTOFFS = (0.05, 0.2)
FAMILY_NAMES = (
    *(f"bump_f{frac:.2f}_e{expo:.0f}" for frac, expo in _BUMPS),
    "tent",
    *(f"sine_{k1}{k2}" for k1, k2 in _SINE_MODES),
    *(f"log_c{cut:g}" for cut in _LOG_CUTOFFS),
)


def standard_family(domain: Domain, x, y, sd):
    """Deterministic witnesses for the inequalities: yields (name, values)
    in the order of ``FAMILY_NAMES``.

    x, y and sd (coordinates and signed boundary distance of the points)
    broadcast against each other, and each member takes their broadcast
    shape.  For arbitrary points pass ``pts[..., 0]``, ``pts[..., 1]`` and
    ``domain.signed_distance(pts)``; ``grid_family`` passes a grid's axes
    and its own distances, so each sine wave costs a 1-D ``sin`` per axis.
    Shared inputs are computed once: the squared offsets (x - c)^2 and
    (y - c)^2 for the six bumps, and the tent for the sine modes.  On a
    grid the offsets are 1-D, and nothing of grid size is kept while a
    member is out, except the tent for the sine modes off rectangles.
    Members may share memory; do not write to them.

    Every member vanishes on the boundary and is Lipschitz, hence
    admissible: bumps centred at the deepest node of a ``_DEEP_SAMPLES``
    per axis grid (``geometry.deepest_point``) with radii a fraction of its
    depth; the tent, a ramp of the distance with slope at most 1 that levels
    off at two thirds of the inradius; sine waves over the bounding box,
    damped by the tent off rectangles; and log(1 + delta/cutoff).
    """
    names = iter(FAMILY_NAMES)
    center, depth = deepest_point(domain, _DEEP_SAMPLES)
    dx2, dy2 = (x - center[0]) ** 2, (y - center[1]) ** 2
    for frac, expo in _BUMPS:
        yield next(names), radial_bump(dx2 + dy2, frac * depth, expo)
    tent = SmoothingProfile(max(domain.inradius() / 3.0, 1e-3)).value
    # on a rectangle the waves vanish on the boundary by themselves
    damping = None if isinstance(domain, Box) else tent(np.maximum(sd, 0.0))
    yield next(names), tent(np.maximum(sd, 0.0)) if damping is None else damping
    lo, hi = domain.bounding_box()
    span = hi - lo
    for k1, k2 in _SINE_MODES:
        a = np.sin(k1 * math.pi * (x - lo[0]) / span[0])
        b = np.sin(k2 * math.pi * (y - lo[1]) / span[1])
        yield next(names), a * b if damping is None else a * b * damping
    del damping
    for cut in _LOG_CUTOFFS:
        yield next(names), np.log1p(np.maximum(sd, 0.0) / cut)


def grid_family(grid: Grid):
    """The standard family at the interior nodes of ``grid`` as
    (name, ScalarField) pairs, leaving out members that vanish at every
    node."""
    for name, values in standard_family(
        grid.domain, grid.xs[:, None], grid.ys[None, :], grid.signed_dist
    ):
        u = ScalarField(grid, values[grid.interior_mask])
        del values  # the full-grid array, while the caller holds u
        if np.any(u.values):
            yield name, u


@dataclass(frozen=True)
class HardyEstimate:
    value: float
    empirical_max: float | None
    method: str
    witness: str | None


HARDY_SAFETY = 1.05


def hardy_witness_max(grid: Grid) -> tuple[float, str]:
    """Largest Hardy quotient over the witness family on ``grid`` and the
    member that attains it; members whose gradient vanishes are skipped."""
    best = 0.0
    witness = ""
    for name, u in grid_family(grid):
        try:
            val = hardy_quotient(u)
        except DegenerateInputError:
            continue
        if val > best:
            best, witness = val, name
    return best, witness


def resolve_hardy_constant(grid: Grid) -> HardyEstimate:
    """Boundary-distance Hardy constant for ``grid.domain``.

    Convex domains take the literature value 2, and no witness is
    evaluated.  Otherwise the constant is HARDY_SAFETY times the largest
    quotient over the witness family on ``grid`` (``hardy_witness_max``),
    floored at 2.
    """
    if grid.domain.is_convex():
        return HardyEstimate(2.0, None, "convex literature value", None)
    best, witness = hardy_witness_max(grid)
    return HardyEstimate(max(2.0, HARDY_SAFETY * best), best, "empirical with margin", witness)


# ---------------------------------------------------------------------------
# proof-chain audit
# ---------------------------------------------------------------------------


@dataclass
class ChainStep:
    name: str
    passed: bool
    lhs: float
    rhs: float
    violations: int = 0
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "violations": int(self.violations),
            "detail": self.detail,
        }


@dataclass
class ChainReport:
    q: float
    p: float
    steps: list[ChainStep] = field(default_factory=list)
    cube_count: int = 0
    node_count: int = 0
    incidence_count: int = 0

    @property
    def total_violations(self) -> int:
        return sum(s.violations for s in self.steps) + sum(
            1 for s in self.steps if not s.passed and s.violations == 0
        )

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "all_passed": self.all_passed,
            "total_violations": self.total_violations,
            "cube_count": self.cube_count,
            "node_count": self.node_count,
            "incidence_count": self.incidence_count,
            "steps": [s.to_json_dict() for s in self.steps],
        }


# float-roundoff guard for comparisons between finite sums that are exactly
# ordered in real arithmetic
_EPS = 1e-12


def _times_power(x: float, base: float, exponent: float) -> float:
    """x * base**exponent for x >= 0, +inf for x > 0 where the power leaves
    the float range (``chain_audit`` then decides the step in logs)."""
    try:
        return x * base**exponent
    except OverflowError:
        return math.inf if x > 0.0 else 0.0


def _in_range(side, live=True) -> bool:
    """Whether the float sums of nonnegative terms in ``side`` can decide a
    comparison: each is finite and, where ``live`` says its terms are not
    all 0, a normal float; a sum flushed below the normal range has lost
    its relative precision, or all of it."""
    side = np.asarray(side)
    return bool(np.all(np.isfinite(side) & ((side >= np.finfo(float).tiny) | ~np.asarray(live))))


def _log_power_sum(x, q, weight) -> float:
    """log of the sum of |x|^q * weight, x not all 0, formed as q log m +
    log(sum of (|x| / m)^q * weight) with m = max |x|: the powers lie in
    [0, 1] and the largest is 1, so the sum neither overflows nor flushes
    to 0 for weights in range."""
    ax = np.abs(x)
    m = float(ax.max())
    return q * math.log(m) + math.log(float(np.sum((ax / m) ** q * weight)))


def _scaled_power_sums(x, q, groups, count, *weights):
    """``_log_power_sum`` per group g < count: (q log m, s_1, ...), where
    the sum of |x|^q * w_k over the entries with groups == g is
    e^(q log m) s_k, m the group's largest |x|.  A group whose x are all 0
    has q log m = -inf and s_k = 0."""
    ax = np.abs(x)
    top = np.zeros(count)
    np.maximum.at(top, groups, ax)
    m = top[groups]
    powers = np.divide(ax, m, out=np.zeros_like(ax), where=m > 0) ** q
    with np.errstate(divide="ignore"):
        log_scale = q * np.log(top)
    return (log_scale, *(np.bincount(groups, weights=powers * w, minlength=count) for w in weights))


def _log_le(a: float, b: float) -> bool:
    """a <= b for the logs of two sides, with the guard _EPS relative to the
    size of b: a log's rounding error is absolute, a few eps times its size."""
    return a <= b + _EPS * max(1.0, abs(b))


@dataclass(frozen=True)
class _Partition:
    """The u-independent part of ``chain_audit`` on one grid.

    One entry per (interior node, cube support) incidence, in the order of
    ``partition_values``; cubes are numbered 0..cube_count-1 in id order.
    Next to the incidence map it holds every per-incidence factor of the
    audit's cube sums that does not depend on u, each a contiguous 1-D
    array: the weight and its square, the exact gradient of the weight one
    axis per row and its squared length, the node's delta^2 (delta^n on the
    planar grid) and the squared side.  Arrays are read-only because one
    record serves every audit on the same grid.

    Every scatter-add here and in the audit is ``np.bincount`` with
    weights, which adds each cube's (or node's) terms in input order into a
    float64 zero, one at a time, as ``np.add.at`` into a zero array does:
    the sums are the same bit for bit.
    """

    pid: np.ndarray  # node of each incidence
    gci: np.ndarray  # cube number of each incidence
    s_cube: np.ndarray  # side of each cube
    w_part: np.ndarray  # normalized partition weight
    w2: np.ndarray  # w_part^2
    grad_w: np.ndarray  # (n, incidences) exact gradient of the weight
    gw2: np.ndarray  # |grad_w|^2
    delta2: np.ndarray  # delta^2 at the node
    side2: np.ndarray  # squared cube side
    cube_count: int
    recon_worst: float  # max |sum of the weights - 1| over the nodes
    grad_worst: float  # max of side * |grad_w|


@functools.lru_cache(maxsize=1)
def _grid_partition(grid: Grid, decomp: WhitneyDecomposition) -> _Partition:
    """Partition weights of ``decomp`` at the interior nodes of ``grid``,
    with their exact gradients (``WhitneyDecomposition.partition_gradient``).

    Kept for the last (grid, decomposition): both are immutable and hash by
    identity, and an audit of several functions on one grid asks for the
    same partition each time.
    """
    # temporaries are dropped once used: the end of this build is the heap
    # peak of an audit run
    pid, gid, sides, offsets, phi_ref, psi = decomp.partition_values(grid.points)
    # number the cubes met in id order: the rank of each id among those
    # present, which is np.unique's inverse without its sort (nor the
    # numpy.ma import its first call in a process costs)
    rank = np.zeros(decomp.cube_count, dtype=np.int64)
    rank[gid] = 1
    np.cumsum(rank, out=rank)
    gci = rank[gid] - 1
    C = int(rank[-1])
    del gid, rank
    s_cube = np.zeros(C)
    s_cube[gci] = sides
    grad_w, gw2, grad_worst = decomp.partition_gradient(pid, sides, offsets, phi_ref, psi)
    del offsets

    w_part = phi_ref / psi[pid]
    del psi, phi_ref
    recon = np.bincount(pid, weights=w_part, minlength=grid.n_interior)
    recon_worst = float(np.abs(recon - 1.0).max())
    del recon

    dn = grid.delta[pid]
    arrays = (pid, gci, s_cube, w_part, w_part**2, grad_w, gw2, dn**2, sides**2)
    for a in arrays:
        a.flags.writeable = False
    return _Partition(*arrays, C, recon_worst, grad_worst)


@np.errstate(over="ignore")
def chain_audit(u: ScalarField, decomp: WhitneyDecomposition, q: float = 4.0) -> ChainReport:
    """Audit the localization proof of the weighted embedding numerically.

    Walks the derivation one inequality at a time on the actual grid data:
    partition reconstruction, the overlap-power localization, the distance
    window on supports, the per-cube scaled Sobolev step, the product-rule
    gradient split (via (x+y)^r <= 2^r (x^r + y^r)), the transfer of support
    weights onto boundary-distance weights, overlap aggregation, the
    power-sum collapse, and the assembled final bound.  Each step records
    both sides; per-cube steps count violating cubes.  Gradients of the
    partition functions are exact (analytic); gradients of u are the grid's
    central differences throughout, so every comparison is self-consistent.

    Distances come from ``u.grid``, so ``decomp`` must decompose its domain
    (ValueError otherwise), or cubes meet the wrong boundary.  A field
    whose grid gradient vanishes at every node, which no nonzero continuum
    field does, shows a grid too coarse to difference it: that raises
    DegenerateInputError before the partition is built.

    The partition data does not depend on u: it is cached for the last
    (grid, decomposition), so auditing several functions on one grid
    builds it once.  That per-grid record (``_Partition``) holds the
    incidence map and every u-independent per-incidence factor as a
    contiguous 1-D array; an audit gathers u and |grad u|^2 at the
    incidences once and sums per cube with ``np.bincount``, which adds in
    input order from zero exactly as ``np.add.at`` does, so every sum is
    the same bit for bit.

    At large q the powers |u|^q pass the float range, or flush below it,
    and read inf or 0 without a warning.  A step whose side is not finite,
    or is not a normal float while its terms are not all 0, is decided
    again in logs, from sums with each group's (the domain's, a cube's)
    largest |x| factored out (``_scaled_power_sums``); it then reports the
    logs of its sides and says so in its detail.  Otherwise nothing extra
    runs.

    Grids whose step divides a power of two sample every node exactly on a
    cube plateau (the matching collars between plateaus are thin), which
    leaves the gradient steps trivially satisfied.  Pick a step that is not
    commensurate with the dyadic lattice (1/250, 1/257, ...) to exercise
    the full chain.
    """
    n = decomp.params.dim
    if not n <= q < math.inf:
        raise ValueError("q must be finite and at least n")
    g = u.grid
    if decomp.domain.to_json_dict() != g.domain.to_json_dict():
        raise ValueError("the decomposition and the grid are built on different domains")
    cst = decomp.constants
    delta = g.delta
    if float(delta.min()) <= cst.epsilon_cut:
        raise ValueError(
            f"interior nodes reach below the coverage cut (smallest delta "
            f"{float(delta.min()):.6g} <= epsilon_cut {cst.epsilon_cut:.6g} at "
            f"k_max {decomp.params.k_max}); deepen the decomposition or coarsen "
            "the grid"
        )
    h = g.h
    uv = u.values
    gx, gy = g.gradient(uv)
    du2 = gx**2 + gy**2
    G_tot = float(np.sum(du2)) * h**2
    if G_tot == 0.0:
        raise DegenerateInputError(f"gradient vanishes identically on the grid at h = {h:g}")
    part = _grid_partition(g, decomp)
    pid, gci, C, s_cube = part.pid, part.gci, part.cube_count, part.s_cube
    W_tot = float(np.sum(uv**2 / delta**2)) * h**2
    lhs_total = float(np.sum(np.abs(uv) ** q / delta**n)) * h**2
    in_logs = "; decided in logs, of sums with each group's largest |x| factored out"
    if _in_range(lhs_total):
        log_lhs, lhs_note = math.log(lhs_total), ""
    else:
        log_lhs, lhs_note = _log_power_sum(uv, q, delta**-n) + 2 * math.log(h), in_logs

    report = ChainReport(
        q=q, p=float(n), cube_count=C, node_count=g.n_interior, incidence_count=len(pid)
    )

    def gsum(x):
        """Per-cube sum of the incidence values x, times the cell area."""
        return np.bincount(gci, weights=x, minlength=C) * h**2

    # step: the partition reconstructs u exactly on covered nodes
    report.steps.append(
        ChainStep(
            "partition_reconstruction",
            part.recon_worst <= 1e-12,
            part.recon_worst,
            1e-12,
            detail="max deviation of the weight sum from 1 at interior nodes",
        )
    )

    # exact partition gradients via the quotient rule
    report.steps.append(
        ChainStep(
            "partition_gradient_pointwise",
            part.grad_worst <= cst.grad_bound,
            part.grad_worst,
            cst.grad_bound,
            detail="side-scaled exact partition gradient against the derived bound",
        )
    )

    # per-incidence localized pieces v = w u and Dv = w Du + u Dw, one axis
    # at a time; each per-incidence array is dropped once summed, which
    # keeps the run's heap peak in the partition build
    up = uv[pid]
    v = up * part.w_part
    live = np.bincount(gci, weights=np.abs(v), minlength=C) > 0  # cubes where v is not 0
    vq = np.abs(v) ** q
    L = gsum(vq / part.delta2)
    Iq = gsum(vq)
    del vq
    vmass_scaled = gsum(v**2 / part.side2)
    del v
    dv_mass = gsum(
        sum((part.w_part * du[pid] + up * dw) ** 2 for du, dw in zip((gx, gy), part.grad_w))
    )
    vhat_q = Iq / s_cube**n
    K2 = dv_mass + vmass_scaled
    du2p = du2[pid]
    grad_piece = gsum(part.w2 * du2p)
    G_cube = gsum(du2p)
    del du2p
    up2 = up**2
    cross_piece = gsum(up2 * part.gw2)
    W_cube = gsum(up2 / part.delta2)
    up_mass = gsum(up2)

    P = cst.overlap_bound
    lam = cst.delta_side_min
    mu = cst.delta_side_max
    c3 = cst.grad_bound
    S = sobolev_bound(q, n)

    @functools.cache
    def cube_sums():
        """Per cube, q log of its largest |v| and the scaled sums of |v|^q
        against 1 / delta^2 and against 1 (``_scaled_power_sums``)."""
        return _scaled_power_sums(up * part.w_part, q, gci, C, 1.0 / part.delta2, 1.0)

    # localization: |sum of <= P terms|^q <= P^q * sum of |term|^q
    rhs = _times_power(float(L.sum()), P, q)
    if _in_range((lhs_total, rhs)):
        ok, sides, note = lhs_total <= rhs * (1 + _EPS), (lhs_total, rhs), ""
    else:
        log_rhs = q * math.log(P) + _log_power_sum(up * part.w_part, q, 1.0 / part.delta2)
        log_rhs += 2 * math.log(h)
        ok, sides, note = _log_le(log_lhs, log_rhs), (log_lhs, log_rhs), in_logs
    report.steps.append(
        ChainStep(
            "localization",
            ok,
            *sides,
            detail="whole-domain weighted power against the localized sum" + note,
        )
    )

    # distance window: delta >= lambda * side on supports
    rhs_off = lam ** (-n) * vhat_q
    if _in_range((L, rhs_off), live):
        bad = L > rhs_off * (1 + _EPS)
        sides, note = (float(L.max()), float(rhs_off.max())) if C else (0.0, 0.0), ""
    else:
        # each cube's sides share its factor e^(q log m) h^2, so its scaled
        # sums compare as its sides do
        scale, s_lhs, s_mass = cube_sums()
        s_rhs = lam ** (-n) * (s_mass / s_cube**n)
        bad = s_lhs > s_rhs * (1 + _EPS)
        with np.errstate(divide="ignore"):
            sides = tuple(np.max(scale + np.log(x)) + 2 * math.log(h) for x in (s_lhs, s_rhs))
        note = in_logs
    report.steps.append(
        ChainStep(
            "support_weight_offload",
            not np.any(bad),
            *sides,
            violations=int(np.count_nonzero(bad)),
            detail="per-cube weighted power against the unweighted one" + note,
        )
    )

    # scaled Sobolev on each support
    lhs_sob = vhat_q ** (1.0 / q)
    rhs_sob = S * np.sqrt(K2)
    if _in_range(vhat_q, live):
        bad = lhs_sob > rhs_sob * (1 + 1e-9)
        sides, note = (float((lhs_sob / np.maximum(rhs_sob, 1e-300)).max()) if C else 0.0, 1.0), ""
    else:
        scale, _, s_mass = cube_sums()
        with np.errstate(divide="ignore"):
            log_sob = (scale + np.log(s_mass) + 2 * math.log(h) - n * np.log(s_cube)) / q
        log_ratio = log_sob - np.log(np.maximum(rhs_sob, 1e-300))
        bad = log_ratio > math.log1p(1e-9)
        sides, note = (float(log_ratio.max()), 0.0), in_logs
    report.steps.append(
        ChainStep(
            "scaled_sobolev",
            not np.any(bad),
            *sides,
            violations=int(np.count_nonzero(bad)),
            detail="per-cube q-norm of the localized piece against the embedding "
            "bound times its scaled gradient norm (ratio reported)" + note,
        )
    )

    # gradient split with the crude 2^r constant
    split_rhs = 4.0 * grad_piece + 4.0 * cross_piece
    bad = dv_mass > split_rhs * (1 + _EPS)
    report.steps.append(
        ChainStep(
            "gradient_split",
            not np.any(bad),
            float(dv_mass.max()) if C else 0.0,
            float(split_rhs.max()) if C else 0.0,
            violations=int(np.count_nonzero(bad)),
            detail="product-rule split of the localized gradient mass",
        )
    )

    # transfer support-scale weights onto boundary-distance weights
    ok1 = grad_piece <= G_cube * (1 + _EPS)
    ok2 = cross_piece <= (c3**2 / s_cube**2) * up_mass * (1 + _EPS)
    ok3 = cross_piece <= c3**2 * mu**2 * W_cube * (1 + _EPS)
    ok4 = vmass_scaled <= mu**2 * W_cube * (1 + _EPS)
    bad = ~(ok1 & ok2 & ok3 & ok4)
    report.steps.append(
        ChainStep(
            "support_weight_transfer",
            not np.any(bad),
            float(cross_piece.max()) if C else 0.0,
            float((c3**2 * mu**2 * W_cube).max()) if C else 0.0,
            violations=int(np.count_nonzero(bad)),
            detail="partition bounds and the distance window move support "
            "sums onto the weighted norms",
        )
    )

    # overlap aggregation
    lhs_g = float(G_cube.sum())
    lhs_w = float(W_cube.sum())
    ok = lhs_g <= P * G_tot * (1 + _EPS) and lhs_w <= P * W_tot * (1 + _EPS)
    report.steps.append(
        ChainStep(
            "overlap_aggregation",
            ok,
            max(lhs_g, lhs_w),
            max(P * G_tot, P * W_tot),
            detail="summed support integrals against the overlap bound times "
            "the whole-domain integrals",
        )
    )

    # power-sum collapse: sum b^r <= (sum b)^r for r = q/p >= 1
    lhs_c = float(np.sum(K2 ** (q / 2.0)))
    rhs_c = _times_power(1.0, float(K2.sum()), q / 2.0)
    if _in_range((lhs_c, rhs_c), K2.any()):
        ok, sides, note = lhs_c <= rhs_c * (1 + _EPS), (lhs_c, rhs_c), ""
    else:
        log_l, log_r = _log_power_sum(K2, q / 2.0, 1.0), (q / 2.0) * math.log(float(K2.sum()))
        ok, sides, note = _log_le(log_l, log_r), (log_l, log_r), in_logs
    report.steps.append(
        ChainStep(
            "power_sum_collapse",
            ok,
            *sides,
            detail="elementary power-sum inequality over the cube family" + note,
        )
    )

    # assembled final bound, in logs to dodge overflow at large q
    bracket = 4.0 * P * G_tot + (4.0 * c3**2 + 1.0) * mu**2 * P * W_tot
    log_assembled = (
        q * math.log(P)
        - n * math.log(lam)
        + q * math.log(S)
        + (q / 2.0) * math.log(bracket)
    )
    report.steps.append(
        ChainStep(
            "assembled_bound",
            log_lhs <= log_assembled + _EPS,
            log_lhs,
            log_assembled,
            detail="log of the weighted power against the log of the chained bound" + lhs_note,
        )
    )

    # closure against the single-constant form
    final = math.exp(log_assembled / q)
    rhs_m = _weighted_rhs(u, gx, gy)
    sig = sigma_q(cst, q)
    report.steps.append(
        ChainStep(
            "dominated_by_sigma_bound",
            final <= sig * rhs_m * (1 + _EPS) or rhs_m == 0.0,
            final,
            sig * rhs_m,
            detail="chained bound against the closed-form constant times the "
            "combined norm",
        )
    )
    return report


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------


def embedding_report(u: ScalarField, constants: DerivedConstants, qs):
    """Per-q comparison rows for the weighted embedding inequality.  The
    grid is planar, so ``constants`` must be 2-D (ValueError otherwise)."""
    if constants.dim != 2:
        raise ValueError(f"the grid is planar, but the constants are {constants.dim}-D")
    rows = []
    rhs = weighted_rhs(u)
    for q in qs:
        lhs = weighted_lhs(u, q)
        sig = sigma_q(constants, q)
        bound = sig * rhs
        rows.append(
            {
                "theorem": "weighted-embedding",
                "q": float(q),
                "lhs": lhs,
                "rhs_bound": bound,
                "ratio": lhs / bound if bound > 0 else math.inf,
                "pass": bool(lhs <= bound),
            }
        )
    return rows


def sigma_growth_scan(constants: DerivedConstants, qs):
    """Rows (q, sigma_q, sigma_q / q^(1/2 + 1/q)) for the growth check."""
    rows = []
    for q in qs:
        sig = sigma_q(constants, q)
        rows.append(
            {
                "q": float(q),
                "sigma_q": sig,
                "normalized": sig / q ** (0.5 + 1.0 / q),
            }
        )
    return rows

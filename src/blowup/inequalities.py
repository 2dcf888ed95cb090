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
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Domain, SmoothingProfile
from .grid import Grid, ScalarField
from .whitney import BumpFunction, DerivedConstants, WhitneyDecomposition

__all__ = [
    "SeriesOverflowError",
    "DegenerateInputError",
    "unit_ball_volume",
    "phi_n",
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
    "smoothed_tent",
    "sine_mode",
    "log_cutoff",
    "deep_point",
    "standard_family",
    "HardyEstimate",
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
# exponential-class integrand
# ---------------------------------------------------------------------------


def phi_n(t, n: int = 2):
    """Series sum_{k >= n-1} |t|^(k n') / k! with n' = n/(n-1).

    For n = 2 this equals exp(t^2) - 1.  Truncation is certified: iteration
    continues past the largest term until the geometric tail is below 1e-16
    of the partial sum.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    at = np.abs(t).ravel()
    nprime = n / (n - 1.0)
    acc = np.zeros_like(at)
    if at.size == 0:
        return float(acc) if scalar else acc.reshape(t.shape)
    at_max = float(at.max())
    if at_max > 0 and at_max**nprime > 700.0:
        raise SeriesOverflowError(
            f"series saturates: |t| up to {at_max:.6g} exceeds the floating range"
        )
    pos = at > 0
    with np.errstate(divide="ignore"):
        log_at = np.where(pos, np.log(np.maximum(at, 1e-300)), 0.0)
    peak = at_max**nprime if at_max > 0 else 0.0
    for k in range(n - 1, n + 100_000):
        log_term = k * nprime * log_at - math.lgamma(k + 1)
        term = np.where(pos, np.exp(log_term), 0.0)
        acc += term
        if (k + 1) >= 2.0 * max(peak, 1.0) and np.all(term <= 5e-17 * acc + 1e-300):
            break
    else:
        raise RuntimeError("series failed to certify within 100000 terms")
    out = acc.reshape(t.shape)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# grid norms
# ---------------------------------------------------------------------------


def weighted_lhs(u: ScalarField, q: float, n: int = 2) -> float:
    """(integral of |u|^q / delta^n)^(1/q) by midpoint quadrature."""
    if q < 1:
        raise ValueError("q must be at least 1")
    g = u.grid
    total = np.sum(np.abs(u.values) ** q / g.delta**n) * g.h**2
    return float(total ** (1.0 / q))


def weighted_rhs(u: ScalarField, p: float, n: int = 2) -> float:
    """(integral of |grad u|^p delta^(p-n) + |u|^p / delta^n)^(1/p).

    For p = n = 2 the gradient weight is 1 and this is the combined norm
    (integral of |grad u|^2 + u^2 / delta^2)^(1/2).  Quadrature over
    interior nodes only; nodes inside the Dirichlet rim carry value zero by
    construction and are excluded.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    g = u.grid
    gx, gy = g.gradient(u.values)
    gmag = np.hypot(gx, gy)
    total = (
        np.sum(gmag**p * g.delta ** (p - n) + np.abs(u.values) ** p / g.delta**n)
        * g.h**2
    )
    return float(total ** (1.0 / p))


# ---------------------------------------------------------------------------
# theoretical constants
# ---------------------------------------------------------------------------


def sobolev_bound(q: float, n: int = 2) -> float:
    """Growth bound (omega_n q)^(1 - 1/n + 1/q) for the embedding constant
    of W^{1,n} into L^q on the reference cube, valid for q >= n."""
    if q < n:
        raise ValueError("bound requires q >= n")
    return (unit_ball_volume(n) * q) ** (1.0 - 1.0 / n + 1.0 / q)


def sigma_q(constants: DerivedConstants, q: float, n: int = 2) -> float:
    """Embedding constant 2 P S_q lambda^(-n/q) [1 + P c3^n mu^n]^(1/n).

    This is the general form 2 P S_q lambda^(-n/q) [mu^(n-p) + P c3^p
    mu^n]^(1/p) at p = n, the only exponent with a certified growth bound
    for S_q.
    """
    if q < n:
        raise ValueError("q must be at least n")
    lam = constants.delta_side_min
    mu = constants.delta_side_max
    c3 = constants.grad_bound
    P = constants.overlap_bound
    s = sobolev_bound(q, n)
    bracket = 1.0 + P * c3**n * mu**n
    return 2.0 * P * s * lam ** (-n / q) * bracket ** (1.0 / n)


def a_constant(constants: DerivedConstants, n: int = 2) -> float:
    """Aggregate constant {2P [1 + P (c3 mu)^n]^(1/n)}^(n/(n-1))."""
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
    a divergence flag when the coupling falls below the convergence threshold."""

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


def c2_constant(
    c1: float,
    constants: DerivedConstants,
    n: int = 2,
    tail_rtol: float = 1e-12,
    max_terms: int = 100_000,
) -> C2Result:
    """Series sum_{q >= n-1} lambda^(-n) n' omega_n (n' omega_n A / c1^n')^q q^q/(q-1)!.

    The term ratio is x (1 + 1/q)^(q+1), strictly decreasing to x e, so the
    series converges exactly when x e < 1, i.e. c1^n' > e omega_n n' A.  On
    convergence the partial sum is returned once the remaining geometric
    tail is certified below ``tail_rtol`` of the partial sum.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    nprime = n / (n - 1.0)
    omega = unit_ball_volume(n)
    A = a_constant(constants, n)
    lam = constants.delta_side_min
    threshold = (math.e * omega * nprime * A) ** (1.0 / nprime)
    x = nprime * omega * A / c1**nprime
    if x * math.e >= 1.0:
        return C2Result(c1, True, math.inf, threshold, math.inf, 0, A)
    log_coef = -n * math.log(lam) + math.log(nprime * omega)
    log_x = math.log(x)
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
            if tail <= tail_rtol * partial:
                return C2Result(c1, False, partial, threshold, tail, used, A)
        if used >= max_terms:
            raise RuntimeError("series tail failed to certify")
        q += 1


def orlicz_boundary_integral(u: ScalarField, c1: float, n: int = 2) -> float:
    """Quadrature of phi_n(u / c1) / delta^n over interior nodes."""
    g = u.grid
    vals = phi_n(u.values / c1, n)
    return float(np.sum(vals / g.delta**n) * g.h**2)


def hardy_quotient(u: ScalarField) -> float:
    """Ratio of the boundary-weighted L2 norm to the gradient L2 norm."""
    g = u.grid
    gx, gy = g.gradient(u.values)
    denom = math.sqrt(float(np.sum(gx**2 + gy**2)) * g.h**2)
    if denom == 0.0:
        raise DegenerateInputError("gradient vanishes identically")
    numer = math.sqrt(float(np.sum((u.values / g.delta) ** 2)) * g.h**2)
    return numer / denom


# ---------------------------------------------------------------------------
# test function family
# ---------------------------------------------------------------------------


def radial_bump(center, radius: float, exponent: float = 2.0):
    """(1 - |x-c|^2/R^2)_+^exponent; Lipschitz for exponent >= 1 and
    supported in the ball, so it vanishes on the boundary whenever the ball
    sits inside the domain."""
    if exponent < 1:
        raise ValueError("exponent below 1 is not Lipschitz at the bubble rim")
    c = np.asarray(center, dtype=float)

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum((pts - c) ** 2, axis=-1) / radius**2
        return np.maximum(0.0, 1.0 - r2) ** exponent

    return f


def smoothed_tent(domain: Domain, scale: float | None = None):
    """Saturating ramp of the boundary distance: rises with slope at most 1,
    levels off at roughly twice the scale.  Vanishes on the boundary."""
    t0 = scale if scale is not None else max(domain.inradius() / 3.0, 1e-3)
    prof = SmoothingProfile(t0)

    def f(pts):
        return prof.value(np.maximum(domain.signed_distance(pts), 0.0))

    return f


def sine_mode(domain: Domain, k1: int, k2: int):
    """Product of sine waves over the bounding box.  On a rectangle the waves
    vanish on the boundary by themselves; on other shapes the mode is damped
    by a distance ramp so the product still vanishes on the boundary."""
    from .geometry import Box

    lo, hi = domain.bounding_box()
    span = hi - lo

    def waves(pts):
        pts = np.asarray(pts, dtype=float)
        a = np.sin(k1 * math.pi * (pts[..., 0] - lo[0]) / span[0])
        b = np.sin(k2 * math.pi * (pts[..., 1] - lo[1]) / span[1])
        return a * b

    if isinstance(domain, Box):
        return waves
    ramp = smoothed_tent(domain)

    def f(pts):
        return waves(pts) * ramp(pts)

    return f


def log_cutoff(domain: Domain, cutoff: float = 0.1):
    """log(1 + delta/cutoff): vanishes on the boundary, Lipschitz with
    constant 1/cutoff."""

    def f(pts):
        return np.log1p(np.maximum(domain.signed_distance(pts), 0.0) / cutoff)

    return f


def deep_point(domain: Domain, samples: int = 256) -> np.ndarray:
    """Deterministic grid argmax of the boundary distance (deepest point)."""
    lo, hi = domain.bounding_box()
    xs = np.linspace(lo[0], hi[0], samples)
    ys = np.linspace(lo[1], hi[1], samples)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X, Y], axis=-1)
    sd = domain.signed_distance(pts)
    i = np.unravel_index(np.argmax(sd), sd.shape)
    return pts[i]


def standard_family(domain: Domain):
    """Deterministic list of (name, callable) witnesses for the inequalities.

    Every member vanishes on the boundary and is Lipschitz, hence admissible.
    """
    center = deep_point(domain)
    depth = float(domain.signed_distance(center))
    out = []
    for frac in (0.95, 0.55):
        for expo in (1.0, 2.0, 3.0):
            name = f"bump_f{frac:.2f}_e{expo:.0f}"
            out.append((name, radial_bump(center, frac * depth, expo)))
    out.append(("tent", smoothed_tent(domain)))
    for k1, k2 in ((1, 1), (2, 1), (3, 2), (5, 3)):
        out.append((f"sine_{k1}{k2}", sine_mode(domain, k1, k2)))
    for cut in (0.05, 0.2):
        out.append((f"log_c{cut:g}", log_cutoff(domain, cut)))
    return out


@dataclass(frozen=True)
class HardyEstimate:
    value: float
    empirical_max: float
    method: str
    witness: str

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "empirical_max": self.empirical_max,
            "method": self.method,
            "witness": self.witness,
        }


def resolve_hardy_constant(
    domain: Domain, grid: Grid, safety: float = 1.05
) -> HardyEstimate:
    """Boundary-distance Hardy constant for the domain.

    Convex domains take the literature value 2.  Otherwise the constant is a
    safety multiple of the largest quotient over the witness family, floored
    at 2; the empirical maximum is reported either way.
    """
    best = 0.0
    witness = ""
    for name, fn in standard_family(domain):
        u = ScalarField(grid, fn(grid.points))
        if not np.any(u.values):
            continue
        try:
            val = hardy_quotient(u)
        except DegenerateInputError:
            continue
        if val > best:
            best, witness = val, name
    if domain.is_convex():
        return HardyEstimate(2.0, best, "convex literature value", witness)
    return HardyEstimate(max(2.0, safety * best), best, "empirical with margin", witness)


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


@dataclass(frozen=True)
class _Partition:
    """The u-independent part of ``chain_audit`` on one grid.

    One row per (interior node, cube support) incidence; cubes are numbered
    0..cube_count-1 in key order.  Arrays are read-only because one record
    serves every audit on the same grid.
    """

    pid: np.ndarray  # node of each incidence
    gci: np.ndarray  # cube number of each incidence
    cube_count: int
    sides: np.ndarray  # cube side of each incidence
    s_cube: np.ndarray  # side of each cube
    w_part: np.ndarray  # normalized partition weight
    grad_w: np.ndarray  # (incidences, n) exact gradient of the weight
    gw2: np.ndarray  # |grad_w|^2
    recon_worst: float  # max |sum of the weights - 1| over the nodes
    grad_worst: float  # max of side * |grad_w|


@functools.lru_cache(maxsize=1)
def _grid_partition(
    grid: Grid, decomp: WhitneyDecomposition, bump: BumpFunction
) -> _Partition:
    """Partition weights of ``decomp`` at the interior nodes of ``grid``,
    with exact gradients of ``bump`` through the quotient rule.

    Kept for the last (grid, decomposition, bump): all three are immutable
    and hash by identity, and an audit of several functions on one grid
    asks for the same partition each time.
    """
    pts = grid.points
    n = decomp.params.dim
    pid, lev, m, phi_ref, psi = decomp.partition_values(pts)
    gid = decomp.cube_ids(lev, m)
    _, gci = np.unique(gid, return_inverse=True)
    C = int(gci.max()) + 1 if len(gci) else 0
    sides = 2.0 ** (-lev.astype(float))
    centers = (m + 0.5) * sides[:, None]
    offs = (pts[pid] - centers) / sides[:, None]
    w_part = phi_ref / psi[pid]
    s_cube = np.zeros(C)
    s_cube[gci] = sides

    recon = np.zeros(len(pts))
    np.add.at(recon, pid, w_part)
    recon_worst = float(np.abs(recon - 1.0).max()) if len(pts) else 0.0

    gref = bump.gradient(offs) / sides[:, None]
    grad_psi = np.zeros((len(pts), n))
    np.add.at(grad_psi, pid, gref)
    grad_w = (gref * psi[pid][:, None] - phi_ref[:, None] * grad_psi[pid]) / (
        psi[pid] ** 2
    )[:, None]
    gw2 = np.sum(grad_w**2, axis=-1)
    s_grad = sides * np.sqrt(gw2)
    grad_worst = float(s_grad.max()) if len(s_grad) else 0.0

    for a in (pid, gci, sides, s_cube, w_part, grad_w, gw2):
        a.flags.writeable = False
    return _Partition(
        pid, gci, C, sides, s_cube, w_part, grad_w, gw2, recon_worst, grad_worst
    )


def chain_audit(
    u: ScalarField,
    decomp: WhitneyDecomposition,
    bump: BumpFunction | None = None,
    q: float = 4.0,
) -> ChainReport:
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

    The partition data does not depend on u: it is cached for the last
    (grid, decomposition, bump), so auditing several functions on one grid
    builds it once.

    Grids whose step divides a power of two sample every node exactly on a
    cube plateau (the matching collars between plateaus are thin), which
    leaves the gradient steps trivially satisfied.  Pick a step that is not
    commensurate with the dyadic lattice (1/250, 1/257, ...) to exercise
    the full chain.
    """
    n = decomp.params.dim
    if q < n:
        raise ValueError("q must be at least n")
    if bump is None:
        bump = decomp.bump
    elif bump.eta_prime != decomp.params.eta_prime:
        raise ValueError("bump support dilation must match the decomposition")
    g = u.grid
    cst = decomp.constants
    delta = g.delta
    if float(delta.min()) <= cst.epsilon_cut:
        raise ValueError(
            "interior nodes reach below the coverage cut; deepen the "
            "decomposition or coarsen the grid"
        )
    part = _grid_partition(g, decomp, bump)
    pid, gci, C, sides = part.pid, part.gci, part.cube_count, part.sides
    w_part, grad_w, gw2, s_cube = part.w_part, part.grad_w, part.gw2, part.s_cube
    h = g.h
    uv = u.values
    gx, gy = g.gradient(uv)
    Du = np.stack([gx, gy], axis=-1)
    du2 = gx**2 + gy**2
    G_tot = float(np.sum(du2)) * h**2
    W_tot = float(np.sum(uv**2 / delta**2)) * h**2
    lhs_total = float(np.sum(np.abs(uv) ** q / delta**n)) * h**2

    report = ChainReport(
        q=q, p=float(n), cube_count=C, node_count=len(g.points), incidence_count=len(pid)
    )

    def gsum(x):
        out = np.zeros(C)
        np.add.at(out, gci, x)
        return out

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

    # per-incidence localized pieces
    v = uv[pid] * w_part
    Dv = w_part[:, None] * Du[pid] + uv[pid][:, None] * grad_w
    dv2 = np.sum(Dv**2, axis=-1)
    dn = delta[pid]

    L = gsum(np.abs(v) ** q / dn**n) * h**2
    Iq = gsum(np.abs(v) ** q) * h**2
    vhat_q = Iq / s_cube**n
    dv_mass = gsum(dv2) * h**2
    vmass_scaled = gsum(v**2 / sides**2) * h**2
    K2 = dv_mass + vmass_scaled
    grad_piece = gsum(w_part**2 * du2[pid]) * h**2
    cross_piece = gsum(uv[pid] ** 2 * gw2) * h**2
    G_cube = gsum(du2[pid]) * h**2
    W_cube = gsum(uv[pid] ** 2 / dn**2) * h**2

    P = cst.overlap_bound
    lam = cst.delta_side_min
    mu = cst.delta_side_max
    c3 = cst.grad_bound
    S = sobolev_bound(q, n)

    # localization: |sum of <= P terms|^q <= P^q * sum of |term|^q
    rhs = P**q * float(L.sum())
    report.steps.append(
        ChainStep(
            "localization",
            lhs_total <= rhs * (1 + _EPS),
            lhs_total,
            rhs,
            detail="whole-domain weighted power against the localized sum",
        )
    )

    # distance window: delta >= lambda * side on supports
    rhs_off = lam ** (-n) * vhat_q
    bad = L > rhs_off * (1 + _EPS)
    report.steps.append(
        ChainStep(
            "support_weight_offload",
            not np.any(bad),
            float(L.max()) if C else 0.0,
            float(rhs_off.max()) if C else 0.0,
            violations=int(np.count_nonzero(bad)),
            detail="per-cube weighted power against the unweighted one",
        )
    )

    # scaled Sobolev on each support
    lhs_sob = vhat_q ** (1.0 / q)
    rhs_sob = S * np.sqrt(K2)
    bad = lhs_sob > rhs_sob * (1 + 1e-9)
    report.steps.append(
        ChainStep(
            "scaled_sobolev",
            not np.any(bad),
            float((lhs_sob / np.maximum(rhs_sob, 1e-300)).max()) if C else 0.0,
            1.0,
            violations=int(np.count_nonzero(bad)),
            detail="per-cube q-norm of the localized piece against the embedding "
            "bound times its scaled gradient norm (ratio reported)",
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
    ok2 = cross_piece <= (c3**2 / s_cube**2) * (gsum(uv[pid] ** 2) * h**2) * (1 + _EPS)
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
    rhs_c = float(K2.sum()) ** (q / 2.0)
    report.steps.append(
        ChainStep(
            "power_sum_collapse",
            lhs_c <= rhs_c * (1 + _EPS),
            lhs_c,
            rhs_c,
            detail="elementary power-sum inequality over the cube family",
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
    log_lhs = math.log(lhs_total) if lhs_total > 0 else -math.inf
    report.steps.append(
        ChainStep(
            "assembled_bound",
            log_lhs <= log_assembled + _EPS,
            log_lhs,
            log_assembled,
            detail="log of the weighted power against the log of the chained bound",
        )
    )

    # closure against the single-constant form
    final = math.exp(log_assembled / q)
    rhs_m = weighted_rhs(u, n, n)
    sig = sigma_q(cst, q, n)
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


def embedding_report(u: ScalarField, constants: DerivedConstants, qs, n: int = 2):
    """Per-q comparison rows for the weighted embedding inequality."""
    rows = []
    rhs = weighted_rhs(u, n, n)
    for q in qs:
        lhs = weighted_lhs(u, q, n)
        sig = sigma_q(constants, q, n)
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


def sigma_growth_scan(constants: DerivedConstants, qs, n: int = 2):
    """Rows (q, sigma_q, sigma_q / q^(1/2 + 1/q)) for the growth check."""
    rows = []
    for q in qs:
        sig = sigma_q(constants, q, n)
        rows.append(
            {
                "q": float(q),
                "sigma_q": sig,
                "normalized": sig / q ** (0.5 + 1.0 / q),
            }
        )
    return rows

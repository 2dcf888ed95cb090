"""Dyadic decomposition tests.

Constants are recomputed here with fresh arithmetic, the overlap enumeration
is crosschecked against a brute-force lattice count, and cube-level claims
are re-verified with plain norm computations independent of the geometry
predicates used during selection.
"""

import math

import numpy as np
import pytest

from blowup.geometry import Annulus, Box, Disk, Polygon
from blowup.svg import decomposition_to_svg
from blowup.whitney import (
    BumpFunction,
    TruncationError,
    WhitneyDecomposition,
    WhitneyParams,
    decompose,
    derive_constants,
    verify_properties,
)

UNIT_DISK = Disk()
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
RING = Annulus(center=(0.0, 0.0), inner_radius=0.5, outer_radius=1.0)

ROOT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# parameters and constants
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        WhitneyParams(eta=1.5, eta_prime=1.2)  # 1.5/sqrt(2) < 1.2
    with pytest.raises(ValueError):
        WhitneyParams(eta_prime=0.9)
    with pytest.raises(ValueError):
        WhitneyParams(dim=0)
    with pytest.raises(ValueError):
        WhitneyParams(k_min=5, k_max=3)
    WhitneyParams()  # defaults are valid


def test_constants_closed_forms():
    # hand-computed for eta=2, eta_prime=1.05, dim=2
    params = WhitneyParams()
    cst = derive_constants(params, BumpFunction(1.05))
    lam = (2.0 - 1.05 * ROOT2) / 2.0
    mu = (2.0 + 0.5 + 0.525) * ROOT2
    assert cst.delta_side_min == pytest.approx(0.2575378797, rel=1e-9)
    assert cst.delta_side_max == pytest.approx(4.2779960262, rel=1e-9)
    assert cst.delta_side_min == pytest.approx(lam, rel=1e-14)
    assert cst.delta_side_max == pytest.approx(mu, rel=1e-14)
    assert cst.side_ratio_bound == pytest.approx(mu / lam, rel=1e-12)
    assert cst.side_ratio_bound == pytest.approx(16.61113, rel=1e-5)
    assert cst.level_window == pytest.approx(math.log2(mu / lam), rel=1e-12)
    assert cst.center_window == pytest.approx(
        (1.0 + mu / lam) * 1.05 * ROOT2 / 2.0, rel=1e-12
    )
    assert cst.epsilon_cut == pytest.approx(mu * 2.0**-14, rel=1e-12)
    # positivity orderings
    assert 0 < cst.delta_side_min < 1 < cst.delta_side_max
    assert cst.side_ratio_bound > 4


def test_overlap_bound_matches_bruteforce_lattice_count():
    params = WhitneyParams()
    cst = derive_constants(params, BumpFunction(1.05))
    j_max = int(math.floor(cst.level_window))
    total = 0
    for j in range(-j_max, j_max + 1):
        radius = cst.center_window / 2.0**j
        half = int(math.ceil(radius)) + 1
        m = np.arange(-half, half + 1)
        mx, my = np.meshgrid(m, m, indexing="ij")
        inside = (mx + 0.5) ** 2 + (my + 0.5) ** 2 <= radius**2
        total += int(np.count_nonzero(inside))
    assert cst.overlap_bound == total
    assert 1e5 < cst.overlap_bound < 3e5


def test_grad_bound_structure():
    params = WhitneyParams()
    bump = BumpFunction(1.05)
    cst = derive_constants(params, bump)
    assert cst.ref_slope_bound == pytest.approx(ROOT2 * bump.max_slope(), rel=1e-12)
    assert cst.grad_bound == pytest.approx(
        cst.ref_slope_bound * (1 + cst.overlap_bound * cst.side_ratio_bound), rel=1e-12
    )


# ---------------------------------------------------------------------------
# bump function
# ---------------------------------------------------------------------------


def test_bump_plateau_and_support():
    bump = BumpFunction(1.05)
    ts = np.array([0.0, 0.2, 0.5, -0.5])
    assert np.all(bump.profile(ts) == 1.0)
    ts = np.array([0.525, 0.6, 2.0, -0.53])
    assert np.all(bump.profile(ts) == 0.0)
    mid = bump.profile(np.linspace(0.501, 0.524, 50))
    assert np.all((mid > 0) & (mid < 1))
    # monotone decrease across the transition
    assert np.all(np.diff(bump.profile(np.linspace(0.5, 0.525, 200))) <= 1e-15)


def test_bump_tensor_product():
    bump = BumpFunction(1.05)
    y = np.array([[0.1, 0.51], [0.52, 0.52], [0.0, 0.0]])
    expect = bump.profile(y[:, 0]) * bump.profile(y[:, 1])
    assert bump.value(y) == pytest.approx(expect, rel=1e-14)
    assert bump.value(np.array([0.3, -0.4])) == 1.0
    assert bump.value(np.array([0.3, 0.6])) == 0.0


def test_bump_flat_at_seams():
    # C-infinity gluing: values approach the plateau faster than any power
    bump = BumpFunction(1.05)
    assert 1.0 - bump.profile(0.5 + 1e-4) < 1e-50
    assert bump.profile(0.525 - 1e-4) < 1e-50


def test_max_slope_magnitude():
    # transition width 0.025, interior slope of the smoothstep is about 2,
    # so the peak slope is near 80
    bump = BumpFunction(1.05)
    assert 60 < bump.max_slope() < 110


# ---------------------------------------------------------------------------
# decomposition on the disk, verified independently
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def disk_decomp():
    return decompose(UNIT_DISK, WhitneyParams(k_max=9))


def _corner_offsets(dim):
    return np.stack(
        np.meshgrid(*[np.array([-0.5, 0.5])] * dim, indexing="ij"), axis=-1
    ).reshape(-1, dim)


def test_disk_selection_rule_recomputed(disk_decomp):
    # re-verify with raw norms: eta-dilate inside the open ball, parent's not
    eta = disk_decomp.params.eta
    corners = _corner_offsets(2)
    for k in sorted(disk_decomp.levels):
        m = disk_decomp.levels[k]
        s = 2.0 ** (-k)
        c = (m + 0.5) * s
        own = c[:, None, :] + corners[None, :, :] * (eta * s)
        assert np.all(np.linalg.norm(own, axis=-1) < 1.0)
        pm = np.floor_divide(m, 2)
        pc = (pm + 0.5) * (2 * s)
        par = pc[:, None, :] + corners[None, :, :] * (eta * 2 * s)
        assert np.all(np.max(np.linalg.norm(par, axis=-1), axis=-1) >= 1.0)


def test_disk_center_distance_window(disk_decomp):
    eta = disk_decomp.params.eta
    for k in sorted(disk_decomp.levels):
        s = 2.0 ** (-k)
        c = (disk_decomp.levels[k] + 0.5) * s
        delta = 1.0 - np.linalg.norm(c, axis=-1)
        assert np.all(delta / s > eta / 2.0)
        assert np.all(delta / s <= (eta + 0.5) * ROOT2)


def test_disk_cubes_disjoint_and_nonnested(disk_decomp):
    # cubes at one level are distinct; no cube sits inside a coarser one
    levels = disk_decomp.levels
    seen = {(k, tuple(row)) for k, ms in levels.items() for row in ms.tolist()}
    assert len(seen) == disk_decomp.cube_count
    k0 = min(levels)
    for k, ms in levels.items():
        assert np.all(disk_decomp.cube_ids(k, ms) >= 0)
        for j in range(1, k - k0 + 1):
            anc = ms // 2**j
            assert np.all(disk_decomp.cube_ids(k - j, anc) == -1)
            assert not any((k - j, tuple(row)) in seen for row in anc.tolist())


def test_disk_coverage(disk_decomp):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(40_000, 2))
    pts = pts[np.linalg.norm(pts, axis=1) < 1.0]
    delta = 1.0 - np.linalg.norm(pts, axis=1)
    deep = delta > disk_decomp.constants.epsilon_cut
    assert np.all(disk_decomp.covers(pts[deep]))
    # exterior points are never covered
    outside = rng.uniform(1.1, 2.0, size=(100, 2))
    assert not np.any(disk_decomp.covers(outside))


def test_disk_coverage_includes_face_points(disk_decomp):
    # a point exactly on the face between two cubes is still covered
    k = max(disk_decomp.levels)
    m = disk_decomp.levels[k][0]
    s = 2.0 ** (-k)
    corner = m * s  # lower corner, shared with neighbors
    assert disk_decomp.covers(np.array([corner]))[0]


def test_disk_coverage_includes_upper_corners(disk_decomp):
    # the upper corner of a finest cube floors into the next cube up, so only
    # the shifted face lookup can find the cube that holds it
    k = max(disk_decomp.levels)
    corners = (disk_decomp.levels[k] + 1) * 2.0 ** (-k)
    assert np.all(disk_decomp.covers(corners))


def test_cube_ids_permute_in_level_then_axis0_fastest_order(disk_decomp):
    ks, ms, _, _ = disk_decomp.arrays()
    ids = disk_decomp.cube_ids(ks, ms)
    assert np.array_equal(np.sort(ids), np.arange(disk_decomp.cube_count))
    # level is the most significant key, then the last axis, ..., then axis 0
    assert np.array_equal(np.argsort(ids), np.lexsort((*ms.T, ks)))


def test_cube_ids_minus_one_for_non_members(disk_decomp):
    ks, ms, _, _ = disk_decomp.arrays()
    k, m = int(ks[-1]), ms[-1:]
    assert disk_decomp.cube_ids(k, m)[0] >= 0
    assert disk_decomp.cube_ids(k - 1, m // 2)[0] == -1  # parent
    far = np.array([[ms[:, 0].max() + 1, m[0, 1]], [m[0, 0], ms[:, 1].min() - 1]])
    assert np.all(disk_decomp.cube_ids(k, far) == -1)  # index out of range
    for lev in (int(ks[0]) - 1, int(ks[-1]) + 1):  # level out of range
        assert disk_decomp.cube_ids(lev, m)[0] == -1


def test_cube_keys_must_fit_in_63_bits(disk_decomp):
    far_apart = {0: np.array([[0, 0], [2**32, 2**32]], dtype=np.int64)}
    with pytest.raises(ValueError, match="63 bits"):
        WhitneyDecomposition(
            disk_decomp.domain,
            disk_decomp.params,
            disk_decomp.bump,
            disk_decomp.constants,
            far_apart,
            {},
        )


def test_overlap_counts_and_bound(disk_decomp):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(30_000, 2))
    pts = pts[1.0 - np.linalg.norm(pts, axis=1) > disk_decomp.constants.epsilon_cut]
    counts = disk_decomp.overlap_counts(pts)
    assert np.all(counts >= 1)
    assert counts.max() <= disk_decomp.constants.overlap_bound
    # the actual overlap is small even though the proved bound is generous
    assert counts.max() <= 30


def test_partition_sums_to_one(disk_decomp):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(20_000, 2))
    pts = pts[1.0 - np.linalg.norm(pts, axis=1) > disk_decomp.constants.epsilon_cut]
    pid, lev, m, phi, psi = disk_decomp.partition_values(pts)
    assert np.all(psi >= 1.0 - 1e-12)
    total = np.zeros(len(pts))
    np.add.at(total, pid, phi / psi[pid])
    assert np.abs(total - 1.0).max() <= 1e-12


def test_partition_single_point_api(disk_decomp):
    point = np.array([0.31, -0.12])
    pid, lev, m, phi, psi = disk_decomp.partition_values(point)
    assert np.all(pid == 0)
    active = phi > 0.0
    assert active.any()
    w = phi[active] / psi[0]
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all((w > 0) & (w <= 1))
    # the point must lie in the support of every cube with a positive weight
    side = 2.0 ** -lev[active].astype(float)
    center = (m[active] + 0.5) * side[:, None]
    off = np.abs(point - center) / side[:, None]
    assert np.all(off.max(axis=1) <= 1.05 / 2 + 1e-12)
    assert disk_decomp.overlap_counts(point)[0] >= np.count_nonzero(active)


def test_verify_properties_disk(disk_decomp):
    report = verify_properties(
        disk_decomp, sample_count=6000, coverage_samples=6000, gradient_points=150
    )
    names = {c.name for c in report.checks}
    assert {
        "selection_rule",
        "support_in_domain",
        "no_nesting",
        "center_distance_window",
        "support_distance_window",
        "neighbor_side_ratio",
        "coverage_beyond_cut",
        "overlap_bound",
        "psi_window",
        "partition_sum",
        "partition_power_sums",
        "partition_gradient_bound",
    } <= names
    for check in report.checks:
        assert check.passed, f"{check.name}: worst={check.worst} {check.detail}"
    assert report.empirical_overlap_max >= 1
    assert 0 < report.empirical_grad_max < report_grad_limit(disk_decomp)


def report_grad_limit(decomp):
    return decomp.constants.grad_bound


@pytest.mark.parametrize(
    "name", ["sample_count", "coverage_samples", "gradient_points"]
)
def test_verify_properties_rejects_nonpositive_counts(disk_decomp, name):
    for value in (0, -5):
        with pytest.raises(ValueError, match=name):
            verify_properties(disk_decomp, **{name: value})


@pytest.mark.parametrize(
    "domain", [UNIT_DISK, Box((0.0, 0.0), (1.0, 1.0))], ids=["disk", "square"]
)
def test_shallow_decomposition_names_the_cut(domain):
    # at k_max = 2 the coverage cut lies deeper than any point of the domain
    decomp = decompose(domain, WhitneyParams(k_max=2))
    assert decomp.constants.epsilon_cut > domain.inradius()
    with pytest.raises(ValueError, match=r"epsilon_cut=.*k_max=2"):
        verify_properties(decomp, sample_count=1000)


# ---------------------------------------------------------------------------
# other domains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain", [L_SHAPE, RING], ids=["lshape", "ring"])
def test_verify_properties_other_domains(domain):
    decomp = decompose(domain, WhitneyParams(k_max=8))
    report = verify_properties(
        decomp, sample_count=4000, coverage_samples=4000, gradient_points=100
    )
    for check in report.checks:
        assert check.passed, f"{check.name}: worst={check.worst} {check.detail}"


def test_lshape_respects_reflex_corner():
    decomp = decompose(L_SHAPE, WhitneyParams(k_max=8))
    # supports must avoid the notch [1,2]x[1,2]; sample support points
    ks, ms, sides, centers = decomp.arrays()
    rng = np.random.default_rng(0)
    offs = rng.uniform(-0.5, 0.5, size=(8, len(ks), 2))
    pts = (centers[None] + offs * (1.05 * sides)[None, :, None]).reshape(-1, 2)
    in_notch = (pts[:, 0] > 1.0) & (pts[:, 1] > 1.0)
    assert not np.any(in_notch)


# ---------------------------------------------------------------------------
# truncation and failure modes
# ---------------------------------------------------------------------------


def test_truncation_recorded():
    decomp = decompose(UNIT_DISK, WhitneyParams(k_max=4))
    assert decomp.truncated.get(4, 0) > 0
    assert decomp.constants.epsilon_cut == pytest.approx(
        decomp.constants.delta_side_max / 16.0
    )


def test_empty_selection_raises_with_report():
    thin = Annulus(center=(0.0, 0.0), inner_radius=0.49, outer_radius=0.5)
    with pytest.raises(TruncationError) as err:
        decompose(thin, WhitneyParams(k_max=4))
    assert err.value.report["k_max"] == 4
    assert "epsilon_cut" in err.value.report


def test_root_cube_must_cover_domain():
    with pytest.raises(ValueError):
        decompose(UNIT_DISK, WhitneyParams(k_min=2, k_max=8))


def test_mismatched_bump_rejected():
    with pytest.raises(ValueError):
        decompose(UNIT_DISK, WhitneyParams(k_max=5), bump=BumpFunction(1.02))


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------


def test_decomposition_deterministic():
    a = decompose(UNIT_DISK, WhitneyParams(k_max=7))
    b = decompose(UNIT_DISK, WhitneyParams(k_max=7))
    assert sorted(a.levels) == sorted(b.levels)
    for k in a.levels:
        assert np.array_equal(a.levels[k], b.levels[k])


def test_json_and_svg_outputs(tmp_path, disk_decomp):
    payload = disk_decomp.to_json_dict()
    assert payload["cube_count"] == disk_decomp.cube_count
    assert len(payload["cubes"]) == disk_decomp.cube_count
    first = payload["cubes"][0]
    assert set(first) == {"level", "index", "side", "center"}
    k = min(disk_decomp.levels)
    assert first["level"] == k
    assert first["index"] == disk_decomp.levels[k][0].tolist()
    assert first["side"] == 2.0**-k
    svg_path = tmp_path / "layout.svg"
    decomposition_to_svg(disk_decomp, svg_path)
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert "<circle" in text and "<rect" in text


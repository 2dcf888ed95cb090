# Build a dyadic cube decomposition of an L-shaped region, check every
# structural property it promises, and draw the layout to an SVG.
#
#     python demos/whitney_layout.py

import collections

import numpy as np

from blowup.geometry import Polygon
from blowup.svg import decomposition_to_svg
from blowup.whitney import WhitneyParams, decompose, verify_properties

lshape = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
params = WhitneyParams(eta=2.0, eta_prime=1.05, k_max=9)

decomp = decompose(lshape, params)
print(f"{decomp.cube_count} cubes selected, levels "
      f"{min(decomp.levels)}..{max(decomp.levels)}")

per_level = collections.Counter()
for k, rows in decomp.levels.items():
    per_level[k] = len(rows)
for k in sorted(per_level):
    bar = "#" * max(1, per_level[k] // 40)
    print(f"  level {k:2d}  side 2^-{k:<2d}  {per_level[k]:5d} cubes  {bar}")

c = decomp.constants
print(f"\nderived constants: depth/side window [{c.delta_side_min:.4f}, "
      f"{c.delta_side_max:.4f}], side-ratio bound {c.side_ratio_bound:.2f}, "
      f"overlap bound {c.overlap_bound}, coverage cut {c.epsilon_cut:.2e}")

# supports of dilated cubes form a bounded-overlap partition of unity
rng = np.random.default_rng(0)
samples = rng.uniform([0, 0], [2, 2], size=(50_000, 2))
inside = lshape.signed_distance(samples) > c.epsilon_cut
counts = decomp.overlap_counts(samples[inside])
print(f"\noverlap over {inside.sum()} interior samples: max {counts.max()}, "
      f"mean {counts.mean():.2f}  (bound {c.overlap_bound})")

point = np.array([0.3, 0.7])
_, _, _, phi, psi = decomp.partition_values(point)
weights = phi[phi > 0.0] / psi[0]
print(f"partition weights at {point}: {len(weights)} active cubes, "
      f"sum = {weights.sum():.15f}")
print(f"overlap count there: {decomp.overlap_counts(point)[0]}")

report = verify_properties(decomp, sample_count=100_000, seed=1)
print("\nproperty checks:")
for chk in report.checks:
    flag = "ok " if chk.passed else "BAD"
    print(f"  [{flag}] {chk.name}: {chk.detail or chk.worst}")

decomposition_to_svg(decomp, "whitney_lshape.svg")
print("\nlayout written to whitney_lshape.svg")

# Solve the boundary blow-up problem on the unit disk and compare against
# the closed form u(x) = -ln(1 - |x|^2).
#
# The solution is written as u = v + w: v = -ln(2d) carries the boundary
# explosion exactly, and the smooth remainder w comes out of a damped Newton
# minimization of the renormalized energy.  Run from the repository root:
#
#     python demos/solve_disk.py

import numpy as np

from blowup.energy import build_singular_part
from blowup.geometry import Disk
from blowup.grid import Grid
from blowup.solver import corollary4_check, disk_exact_solution, solve

disk = Disk((0.0, 0.0), 1.0)
h = 1.0 / 128.0

grid = Grid(disk, h)
sp = build_singular_part(grid)
print(f"grid: h = 1/{round(1/h)}, {grid.n_interior} interior nodes")

report = solve(sp)
print(f"converged in {report.iterations} Newton steps, "
      f"final gradient norm {report.final_grad_norm:.2e}, "
      f"{report.runtime_seconds:.1f}s")

print("\nenergy after each accepted step:")
for i, e in enumerate(report.energy_history):
    print(f"  step {i}: {e:+.9f}")

# error against the closed form, by distance band
exact = disk_exact_solution(disk)(grid.points)
err = np.abs(report.u.values - exact)
print("\nsup error against the closed form, by boundary distance:")
for lo, hi in [(0.05, 0.1), (0.1, 0.2), (0.2, 0.4), (0.4, 1.0)]:
    band = (grid.delta > lo) & (grid.delta <= hi)
    print(f"  {lo:4.2f} < depth <= {hi:4.2f}:  {np.max(err[band]):.3e}")

print(f"\noracle summary: {report.oracle}")

# the remainder is small and vanishes linearly at the boundary
ratio = np.abs(report.w.values) / sp.d.values
print(f"\nremainder: sup|w| = {np.max(np.abs(report.w.values)):.4f}, "
      f"sup |w|/d = {np.max(ratio):.4f}  (w = O(d) at the rim)")

# energy-gradient bound with the convex-domain constant
corollary4_check(report, 2.0)
c4 = report.corollary4
print(f"gradient bound: |grad w| = {c4['lhs']:.3f} <= {c4['rhs']:.3f} "
      f"= 2 H |Lap d|  -> {'holds' if c4['pass'] else 'violated'}")

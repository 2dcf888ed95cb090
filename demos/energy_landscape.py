# Probe the landscape of the renormalized energy around the solved minimizer.
#
# The functional is strictly convex, so every perturbation of the solution
# must raise the energy, and the increase admits two independent expressions
# (a direct difference of energies, and gradient-norm plus nonlinear-rest
# terms) that must agree to rounding.  This script solves on a disk, then
# kicks the solution with random smooth bumps of shrinking amplitude and
# tabulates both evaluations.
#
#     python demos/energy_landscape.py

import numpy as np

import blowup.energy as en
from blowup.geometry import Disk
from blowup.grid import Grid, ScalarField
from blowup.solver import solve, verify_minimizer

disk = Disk((0.0, 0.0), 1.0)
grid = Grid(disk, 1.0 / 64.0)
sp = en.build_singular_part(grid)

report = solve(sp)
e_min = report.energy_history[-1]
print(f"minimum energy {e_min:.9f} after {report.iterations} Newton steps")

rng = np.random.default_rng(42)


def smooth_bump(seed_rng):
    raw = seed_rng.standard_normal(grid.n_interior)
    for _ in range(3):
        raw = raw + 0.2 * grid.h**2 * grid.laplacian(raw)
    raw *= np.minimum(grid.delta, 0.3)
    return raw / np.max(np.abs(raw))


shape = smooth_bump(rng)
print(f"\n{'amplitude':>10} {'gap (direct)':>14} {'gap (expanded)':>15} {'rel diff':>10}")
for amp in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
    phi = ScalarField(grid, amp * shape)
    direct, expanded = en.energy_gap(phi, report.w, sp)
    rel = abs(direct - expanded) / max(abs(direct), 1e-300)
    print(f"{amp:>10.3f} {direct:>14.6e} {expanded:>15.6e} {rel:>10.1e}")

print("\ngaps stay positive (minimality) and shrink like amplitude^2 "
      "(the gradient term vanishes at the minimizer)")

# the batch version used by the acceptance gate: 100 seeded shapes at three
# amplitudes, worst gap and worst identity mismatch
verify_minimizer(report, trials=100)
v = report.verification
print(f"\nbatch check: {v['trials']} shapes x {len(v['amplitudes'])} amplitudes, "
      f"worst gap {v['worst_gap']:+.3e}, worst identity mismatch "
      f"{v['worst_identity_rel']:.1e} -> {'clean' if v['passed'] else 'FAILED'}")

# a deliberately wrong "minimizer" flunks immediately: shift w and the gap
# along the shift direction goes negative
shifted = ScalarField(grid, report.w.values + 0.05 * shape)
down = ScalarField(grid, -0.05 * shape)
gap_back, _ = en.energy_gap(down, shifted, sp)
print(f"\nmoving 0.05 off the minimum and stepping back: gap {gap_back:+.3e} "
      "(negative, as it must be away from the true minimizer)")

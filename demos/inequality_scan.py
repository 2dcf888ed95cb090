# Sweep the weighted embedding inequality over exponents and test functions,
# then watch the growth of the embedding constant in the exponent.
#
# For u vanishing on the boundary the q-norm of u / delta^(2/q) is controlled
# by the 2-norm of the gradient times a constant Sigma_q built from the cube
# geometry.  The sweep measures how much slack the bound leaves on concrete
# functions; the scan at the end shows Sigma_q growing like q^(1/2 + 1/q).
#
#     python demos/inequality_scan.py

import blowup.inequalities as ineq
from blowup.geometry import Box, Disk, Polygon
from blowup.grid import Grid
from blowup.whitney import WhitneyParams, derive_constants

params = WhitneyParams(eta=2.0, eta_prime=1.05)
constants = derive_constants(params)

domains = {
    "disk": Disk((0.0, 0.0), 1.0),
    "square": Box((0.0, 0.0), (1.0, 1.0)),
    "lshape": Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
}
qs = [3, 4, 6, 10, 20]

for name, domain in domains.items():
    grid = Grid(domain, 1.0 / 64.0)
    print(f"\n== {name} ==")
    print(f"{'function':<16} " + " ".join(f"q={q:<9}" for q in qs))
    for fn_name, u in ineq.grid_family(grid):
        rows = ineq.embedding_report(u, constants, qs)
        cells = " ".join(f"{r['ratio']:.1e}  " for r in rows)
        ok = all(r["pass"] for r in rows)
        print(f"{fn_name:<16} {cells} {'' if ok else '  <- VIOLATION'}")

print("\nratio = lhs / (Sigma_q * rhs); anything below 1 satisfies the bound.")
print("The enormous slack is the price of a fully explicit constant.")

print(f"\nSigma_q growth (normalized by q^(1/2 + 1/q)):")
rows = ineq.sigma_growth_scan(constants, [3, 5, 8, 13, 21, 34, 55, 60])
for r in rows:
    print(f"  q = {r['q']:4.0f}   Sigma_q = {r['sigma_q']:.4e}   "
          f"normalized = {r['normalized']:.4e}")
print("the normalized column decreases: Sigma_q grows no faster than "
      "q^(1/2 + 1/q) on this range")

# the series constant built on top of Sigma_q: convergence is a threshold
# phenomenon in the coupling c1
probe = ineq.c2_constant(1.0, constants)
print(f"\nseries constant threshold in c1: {probe.threshold_c1:.4e}")
for factor in (0.97, 1.001, 1.5, 3.0):
    res = ineq.c2_constant(factor * probe.threshold_c1, constants)
    if res.diverges:
        print(f"  c1 = {factor:>6.4f} x threshold: diverges")
    else:
        print(f"  c1 = {factor:>6.4f} x threshold: value {res.value:.6e} "
              f"({res.terms_used} terms, tail {res.tail_bound:.1e})")

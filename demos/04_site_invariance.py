#!/usr/bin/env python3
"""Why symmetric protocols must fail: the 2x3 grid and its relatives.

On the 2x3 grid with every site measuring Y, the submeasurement on sites
{1,2,3,5} is certain to give -1. Under the standard rules sites 2 and 5
both flip while 1 and 3 do not, so the flips cancel and the model answers
+1. The failure is not specific to these rules: any protocol whose flip
decisions are constant on automorphism orbits hits a parity contradiction.
"""

from graphlhv import (
    Measurement,
    STANDARD_RULES,
    automorphisms,
    embedded_grid_counterexample,
    find_certain_submeasurements,
    gf2_solve,
    grid,
    orbits,
    site_invariance_system,
    verify_all_submeasurements,
)

g = grid(2, 3)
m = Measurement("YYYYYY")

report = verify_all_submeasurements(g, m)
print("rules-based protocol on the 2x3 grid, all-Y measurement:")
for c in report.mismatches:
    print(f"  subset {c.sites}: oracle {c.oracle} but protocol {c.lhv}")
print("flips chosen under the global measurement:", sorted(STANDARD_RULES.flip_sites(g, m)))

auts = automorphisms(g)
print("\ngraph automorphisms preserving the all-Y coloring:", len(auts))
print("orbits:", orbits(6, auts))

# One flip variable per orbit; each certain submeasurement gives a parity
# equation. The {1,2,3,5} support meets both orbits twice, so the left side
# cancels and the -1 on the right has nothing to produce it.
subs = find_certain_submeasurements(g, m)
system = site_invariance_system(g, m, subs)
solution = gf2_solve(system)
print("orbit-flip system:",
      "inconsistent" if not solution.consistent else "consistent",
      "| certificate equations:", solution.certificate)

# Centering the same 2x3 block inside larger grids (Z measured on the added
# boundary) reproduces the contradiction at any scale:
print("\nembedded counterexamples on larger grids:")
for p, q in ((0, 1), (1, 0), (1, 1)):
    gg, glob, sub = embedded_grid_counterexample(p, q)
    system = site_invariance_system(gg, glob, [(sub.support(), -1)])
    sol = gf2_solve(system)
    rows, cols = 2 + 2 * p, 3 + 2 * q
    print(f"  {rows}x{cols}: certain sub {sub} -> "
          f"{'inconsistent' if not sol.consistent else 'consistent'}")

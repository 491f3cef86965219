#!/usr/bin/env python3
"""Why bounded-distance communication must fail: the triangle ring.

Five global measurements on a 12f-node ring look identical within
communication distance 2f-1 except near three "vertex" nodes, yet each
contains a certain submeasurement. Writing one +/-1 variable per
(site, observable, local view) turns the five certainties into parity
equations whose product is the contradiction 1 = -1.
"""

from graphlhv import (
    build_ring_instance,
    certify_distance,
    distance_bound,
    distance_constraint_system,
    gf2_solve,
)

inst = build_ring_instance(1)
print("ring(12), the five certain submeasurements:")
for c in inst.cases:
    print(f"  [{c.name}] global {c.global_measurement} contains {c.sub} -> {c.expected_sign:+d}")

system = distance_constraint_system(inst.graph, inst.cases, d=1)
print("\nconstraints at communication distance 1 "
      "(variables keyed by site, observable, and 1-ball view):")
for eq in system.equations:
    terms = " ".join(sorted(f"{v.observable}{v.site}" for v in system.keys(eq)))
    print(f"  [{eq.label}] {terms} = {eq.sign:+d}")

solution = gf2_solve(system)
print("\nsolver:", "inconsistent" if not solution.consistent else "consistent",
      "| certificate = equations", solution.certificate)

# Every variable appears an even number of times across the five equations,
# but the right-hand sides multiply to -1.

# With unlimited distance every site sees the whole measurement, the five
# instances stop sharing variables, and a model exists again:
full = distance_constraint_system(inst.graph, inst.cases, d=6)
print("at full view the system is",
      "consistent" if gf2_solve(full).consistent else "inconsistent")

# The bound grows linearly in n; padding with isolated nodes covers sizes
# that are not 12f with f odd.
print("\ncertified failing distances:")
for n in (12, 14, 24, 36, 48, 60):
    cert = certify_distance(n)
    print(f"  n={n:3d}: ring {cert.ring_size} + {cert.padding} idle nodes, "
          f"d = {cert.bound}, system "
          f"{'inconsistent' if not cert.solution.consistent else 'consistent'}")

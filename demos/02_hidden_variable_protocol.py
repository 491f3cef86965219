#!/usr/bin/env python3
"""The communication-assisted hidden-variable protocol, step by step.

Each site holds a coin z_j; x_j is the parity of its neighbors' coins and
y_j = z_j x_j. One round of neighbor messages announces who measures X or Y,
and the resulting counts t_j decide which sites flip their entry's sign.
"""

import itertools

from graphlhv import (
    Measurement,
    SYMMETRIC_RULES,
    all_assignments,
    chain,
    classify,
    communication_round,
    derive_xy,
    product_report,
    ring,
    run,
    star,
)

g = ring(3)
z = (-1, 1, 1)
xs, ys = derive_xy(g, z)
print(f"triangle with coins {z}: x = {xs}, y = {ys}")

m = Measurement("YXY")
comm = communication_round(star(4), Measurement("XXXX"))
print("star(4), all X: broadcast bits", comm.c, "counts t", comm.t)

# Running the protocol on a deterministic word gives the right sign for
# every single coin vector, not just on average.
g3 = chain(3)
products = {run(g3, m, z).product_over((1, 2, 3)) for z in all_assignments(3)}
print(f"\nchain(3), {m}: protocol product over all coins = {products},",
      "oracle says", classify(g3, m))

# The flips are a function of the measurement pattern alone, never of the
# coins, so the product over any subset is a fixed sign times a coin
# monomial. That makes verdicts exact without enumeration:
rep = product_report(g3, m)
print("flip sites:", sorted(rep.flipped), "| leftover monomial:", rep.monomial,
      "| verdict:", rep.verdict)

# A different flip policy that also reproduces every global prediction:
agree = all(
    product_report(g3, Measurement("".join(p)), protocol=SYMMETRIC_RULES).verdict
    == classify(g3, Measurement("".join(p)))
    for p in itertools.product("IXYZ", repeat=3)
)
print("symmetric rules reproduce all 64 global verdicts on chain(3):", agree)

# Sampling mode (seeded) for very large graphs:
big = ring(24)
m24 = Measurement("IX" * 12)
print("\nsampled verdict on ring(24):",
      product_report(big, m24, samples=128, seed=1).verdict)

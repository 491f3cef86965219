#!/usr/bin/env python3
"""A site-invariant protocol that works: sentences on a chain.

Chain stabilizer words tile into sentences: words from {X, YY, Y X..X Y}
separated by single Is and bracketed by Zs (with virtual Zs beyond the chain
ends). Only odd Y X..X Y words carry a minus sign, and the sign can be
produced by flipping the entry of each such word's middle X, a decision
every site can make from the broadcast X/Z positions alone.
"""

from graphlhv import (
    ChainBroadcast,
    Measurement,
    chain,
    classify,
    compare_readings,
    decompose,
    decomposition_sign,
    flip_sites_for,
    run,
    verify_chain_exhaustive,
)

word = "YXYIYYZZXZ"
print(f"decomposing {word}:")
for s in decompose(word):
    left = "virtual" if s.left_virtual else f"Z at {s.left}"
    right = "virtual" if s.right_virtual else f"Z at {s.right}"
    inner = " I ".join(w.letters for w in s.words)
    print(f"  sentence [{left} | {inner} | {right}], sign {s.sign:+d}")
print("total sign:", decomposition_sign(decompose(word)),
      "| oracle:", classify(chain(10), Measurement(word)))

# Flip decisions come from hypothetical sentences consistent with the view.
m = Measurement("IZYXXXYZII")
print(f"\n{m}: flip sites = {sorted(flip_sites_for(m))} "
      "(only the middle X of the odd word flips)")

# Running the protocol reproduces the certain signs for every coin vector:
g = chain(10)
m10 = Measurement(word)
signs = {run(g, m10, z, ChainBroadcast()).product_over(m10.support())
         for z in [tuple(1 if (i >> k) & 1 else -1 for k in range(10)) for i in range(16)]}
print("protocol product over the word's support (16 sampled coin vectors):", signs)

# Exhaustive verification: every deterministic submeasurement of every
# global measurement, under both broadcast readings.
for broadcast_y in (False, True):
    rep = verify_chain_exhaustive(5, broadcast_y=broadcast_y)
    label = "Y broadcast" if broadcast_y else "Y silent"
    print(f"n=5 ({label}): {rep.deterministic_subs_checked} certain subs, "
          f"{len(rep.violations)} violations, "
          f"{len(rep.overlap_violations)} overlap violations")

# The two readings occasionally disagree on a flip, but never inside a
# certain submeasurement; the verifier above is the arbiter.
diffs = compare_readings(4)
print("flip discrepancies between readings at n=4:", len(diffs),
      "e.g.", [(str(d.measurement), d.site) for d in diffs[:3]])

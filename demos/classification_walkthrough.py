"""Canonical pairs on a finite window and how they classify.

Builds the canonical pair of an upward-invariant set, measures the
commutation defect of the defining relation, and walks through the
classification facts at desk scale: factoriality, irreducibility exactly at
multiplicity one, equivalence exactly for equal data, and recovery of the
components of an anonymous direct sum.
"""

import numpy as np

from weylpair import (
    LatticeWindow,
    RepGens,
    SafeRegion,
    SetKind,
    build_pspace_pair,
    check_commuting_ranges,
    decompose,
    direct_sum,
    dual_grid,
    enumerate_pspaces,
    summarize,
    unitarily_equivalent,
    validate_pset,
    weyl_defect,
)

window = LatticeWindow((0,), (7,))
print(f"window {window.lo}..{window.hi}, {window.cardinality} points")

psets = enumerate_pspaces(window)
print(f"upward-invariant sets on the chain: {len(psets)} (the tails)")

# the canonical pair of the tail {2..7} with one-dimensional fibers
tail2 = validate_pset([(y,) for y in range(2, 8)], window, SetKind.PSPACE)
pair = build_pspace_pair(tail2, k=1)
print(f"canonical pair on {{2..7}}: dim {pair.dim}")

# the defining relation U_theta V_a = exp(i theta.a) V_a U_theta holds to
# roundoff on the safe blocks, for every dual-grid angle (passed as one stack)
safe = SafeRegion(3)
thetas = np.array(dual_grid(window))
worst = max(weyl_defect(pair, thetas, (a,), safe) for a in range(4))
print(f"worst commutation defect over the dual grid: {worst:.2e}")
print(f"range projections commute: max commutator "
      f"{check_commuting_ranges(pair):.2e}")

# multiplicity controls the commutant: dim k^2, factor always,
# irreducible exactly for k = 1
for k in (1, 2, 3):
    s = summarize(RepGens.from_pair(build_pspace_pair(tail2, k)))
    print(f"k={k}: commutant dim {s.commutant_dim}, factor {s.is_factor}, "
          f"irreducible {s.is_irreducible}")

# two canonical pairs are equivalent exactly when set and multiplicity agree
other = build_pspace_pair(validate_pset([(y,) for y in range(3, 8)],
                                        window, SetKind.PSPACE), 1)
same, _ = unitarily_equivalent(RepGens.from_pair(pair),
                               RepGens.from_pair(pair))
diff, _ = unitarily_equivalent(RepGens.from_pair(pair),
                               RepGens.from_pair(other))
print(f"pair ~ itself: {same};  {{2..7}} ~ {{3..7}}: {diff}")

# an anonymous direct sum decomposes back into its canonical components
mystery = direct_sum([
    build_pspace_pair(psets[0], 1),
    build_pspace_pair(psets[4], 2),
    build_pspace_pair(psets[4], 1),
])
print(f"mystery sum of three canonical pieces, dim {mystery.dim}")
for comp in decompose(mystery):
    print(f"  component: support starts at {comp.raw.points[0]}, "
          f"multiplicity {comp.multiplicity}, translation {comp.translation}")

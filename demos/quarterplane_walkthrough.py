"""Quarter-plane pairs from free-product projection families.

Two mutually orthogonal projection sequences with nothing imposed across
them drive a monotone projection field over the quarter plane.  The pair
carried by the sampled field satisfies the commutation relation but its
range projections refuse to commute, its commutant is the family
commutant, and its spectral support forgets the family entirely.
"""

import os
import tempfile

import numpy as np

from weylpair import (
    EvaluationPoint,
    GridSpec,
    RepGens,
    build_r2_pair,
    check_commuting_ranges,
    check_increasing,
    commutant_basis,
    commutant_transfer_check,
    demo_family,
    plateau,
    spec_support,
)
from weylpair.cli import export_heatmap
from weylpair.freeproduct import sample_field

family = demo_family(kappa=6)
ev = EvaluationPoint.default()
print(f"family: {family.np_count}+{family.nq_count} rank-one projections "
      f"on a {family.kappa}-dimensional space")
print(f"rectangle [{ev.a},{ev.b}]x[{ev.c},{ev.d}], point {ev.p0}")

grid = GridSpec(10, 4.0)
print(f"grid: step {grid.step}, {len(grid.values())}^2 points on "
      f"[0,{grid.extent})^2")

# the field is sampled once: one step projection per distinct selection
sample = sample_field(family, ev, grid)

# the field is increasing: no comparable pair violates the projection order
violation = check_increasing(sample)
print(f"monotonicity violation over all comparable pairs: {violation:.2e}")

# every step projection is pinned on a plateau of positive area
for (m, n) in [(0, 0), (1, 0), (2, 2)]:
    frac = len(plateau(sample, m, n)) / 100.0
    print(f"plateau fraction of cell ({m},{n}): {frac:.2f}")

# one trace per distinct step projection
ranks = [float(np.trace(e).real) for e in sample.mats]
rows = [(float(sample.vals[i]), float(sample.vals[j]), ranks[k])
        for (i, j), k in np.ndenumerate(sample.ids)]
with tempfile.TemporaryDirectory() as tmp:
    export_heatmap(rows, os.path.join(tmp, "field_rank.csv"))
print(f"rank heatmap: {len(rows)} rows written to field_rank.csv")

# the represented pair: fibers are the field ranges, generators the
# compressed grid shifts
pair = build_r2_pair(family, ev, GridSpec(1, 7.0))
print(f"represented pair dim {pair.dim}")
witness = check_commuting_ranges(pair, [(1, 0), (0, 1), (2, 0), (0, 2)])
print(f"largest range-projection commutator: {witness:.3f} "
      f"(commuting-range classification does not apply)")

# the commutant transfers: sampled field commutant = family commutant
dim_e, dim_f, equal = commutant_transfer_check(family, ev, GridSpec(2, 7.0))
print(f"commutant transfer: sampled {dim_e}, family {dim_f}, equal {equal}")
print(f"pair commutant dim: "
      f"{len(commutant_basis(RepGens.from_pair(pair)))} "
      f"(irreducible)")

# spectral support is family independent: a different rotation gives the
# same support set
other = demo_family(kappa=6, seed=99)
same = spec_support(family, ev, grid) == spec_support(other, ev, grid)
print(f"support of an inequivalent family identical: {same}")

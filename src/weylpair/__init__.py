"""weylpair: a numerical laboratory for weak Weyl pairs on finite lattices.

The package builds canonical pairs from invariant point sets, measures
commutation defects and range-projection commutativity, computes numerical
commutants and unitary-equivalence witnesses, realises minimal unitary
dilations with an explicit depth budget, classifies commuting-range pairs
into canonical components, and carries the quarter-plane free-product
machinery that produces pairs with non-commuting range projections.
"""

import os as _os

# WEYLPAIR_THREADS caps the linear-algebra thread pools; it must act before
# numpy is first imported, which is why it lives at the top of the package.
_threads = _os.environ.get("WEYLPAIR_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .errors import (
    BoundaryCoincidence,
    BudgetExceeded,
    CheckFailed,
    DepthZeroDegenerate,
    DimensionGuard,
    EmptySetError,
    FiberMismatch,
    GridTooSmall,
    IndexBeyondFamily,
    InvarianceViolation,
    LabelMismatch,
    ListKindMismatch,
    MarginTooSmall,
    MonotonicityBroken,
    NonCommutingGenerators,
    NonCommutingRanges,
    PairInvariantViolation,
    PatternNotYSet,
    ScenarioParseError,
    WeylPairError,
    WindowMismatch,
)
from .lattice import (
    LatticeWindow,
    PSet,
    SetKind,
    TestFunction,
    complement_pset,
    enumerate_pspaces,
    indicator_integral,
    reflect_pset,
    translate_pset,
    validate_pset,
)
from .pairs import (
    SafeRegion,
    WeylPair,
    build_pspace_pair,
    canonical_defect_sweep,
    check_commuting_ranges,
    direct_sum,
    dual_grid,
    isometry_defect,
    isometry_v,
    unitary_u,
    weyl_defect,
)
from .commutant import (
    AlgebraSummary,
    RepGens,
    commutant_basis,
    intertwiners,
    subspace_gap,
    summarize,
    sylvester_nullspace,
    unitarily_equivalent,
)
from .dilation import (
    CovariantRep,
    DilationBundle,
    compress_to_base,
    decompose,
    extend_u,
    integrate_family,
    joint_spectrum,
    minimal_dilation,
    project_e,
)
from .freeproduct import (
    EvaluationPoint,
    GridSpec,
    ProjectionFamily,
    build_r2_pair,
    cell_projection,
    check_increasing,
    commutant_transfer_check,
    demo_family,
    minimality_defect,
    plateau,
    random_family,
    spec_support,
    step_projection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

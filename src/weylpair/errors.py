"""Exception hierarchy for the weylpair package.

Every failure mode of the library maps to one of these classes so that
batch runs (and the CLI) can name the violated invariant precisely.
"""


class WeylPairError(Exception):
    """Base class for all library errors."""


class InvarianceViolation(WeylPairError):
    """A point set fails its shift-invariance requirement.

    Carries the first offending pair (point, direction) when known.
    """

    def __init__(self, message, point=None, direction=None):
        super().__init__(message)
        self.point = point
        self.direction = direction


class EmptySetError(WeylPairError):
    """A point set that must be nonempty came out empty."""


class BudgetExceeded(WeylPairError):
    """An enumeration or dilation request exceeds its declared budget."""


class DimensionGuard(WeylPairError):
    """A matrix problem is larger than the solver guard allows."""


class LabelMismatch(WeylPairError):
    """Two generator lists are not aligned label-by-label."""


class WindowMismatch(WeylPairError):
    """Operands live on different lattice windows."""


class MarginTooSmall(WeylPairError):
    """A requested shift does not fit inside the declared safe margin."""


class NonCommutingGenerators(WeylPairError):
    """Generator matrices of an isometry semigroup fail to commute."""


class NonCommutingRanges(WeylPairError):
    """Range projections of the semigroup fail to commute on the probe set."""


class PairInvariantViolation(WeylPairError):
    """A represented pair breaks the position-graded structure."""


class FiberMismatch(WeylPairError):
    """A factor block of a decomposition is not a canonical truncation."""


class DepthZeroDegenerate(WeylPairError):
    """A depth-zero dilation only supports forward semigroup shifts."""


class PatternNotYSet(WeylPairError):
    """A joint-spectrum pattern fails the downward-invariance check."""


class IndexBeyondFamily(WeylPairError):
    """A step-projection index exceeds the finite projection family."""


class BoundaryCoincidence(WeylPairError):
    """The evaluation point sits exactly on a half-open cell boundary."""


class GridTooSmall(WeylPairError):
    """The sampling grid does not pin every step projection."""


class MonotonicityBroken(WeylPairError):
    """The sampled projection field is not increasing, so compression fails."""


class ScenarioParseError(WeylPairError):
    """A scenario file is malformed or references missing inputs."""


class CheckFailed(WeylPairError):
    """A declared scenario check failed; the message names the invariant."""

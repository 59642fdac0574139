"""Quarter-plane pairs built from free-product projection families.

Two sequences of mutually orthogonal projections on a coefficient space
(no commutation imposed across the sequences) generate a monotone field of
projections over the closed quarter plane: each point selects one of four
step projections according to which half-open cell of the unit square a
fixed evaluation point falls into.  Feeding the sampled field into a
position-graded pair produces weak Weyl pairs whose range projections need
not commute, and whose commutant is controlled by the family alone.  The
support of the sampled field depends only on the evaluation data, not on
the family, which is the working form of the spectral-support rigidity
statement.

The field is sampled once per grid: :func:`sample_field` checks the grid,
reads the selection per axis and evaluates each distinct step projection
once, and every consumer below (monotonicity, plateaus, support, commutant
transfer, the represented pair, minimality) reads that sample.
:func:`check_increasing` and :func:`plateau` take the sample itself, so a
caller that runs several of them on one grid samples once.
:func:`cell_projection` is the per-point definition.

The kappa x kappa checks are stacked: :class:`ProjectionFamily` takes the
2-norms of every Hermitian, idempotent and orthogonality defect in one
call, :func:`check_increasing` takes the eigenvalues of every comparable
difference in one call, and the range bases of the represented pair come
from one stacked ``eigh`` of the sampled field values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commutant import DEFAULT_TOL, RepGens, commutant_basis, subspace_gap
from .errors import (
    BoundaryCoincidence,
    GridTooSmall,
    IndexBeyondFamily,
    MonotonicityBroken,
    PairInvariantViolation,
)
from .lattice import LatticeWindow
from .pairs import WeylPair

PROJ_TOL = 1e-12
PLATEAU_TOL = 1e-12


@dataclass(eq=False)
class ProjectionFamily:
    """Finite truncation of two orthogonal projection sequences."""

    plist: list
    qlist: list

    def __post_init__(self):
        self.plist = [np.asarray(p, dtype=complex) for p in self.plist]
        self.qlist = [np.asarray(q, dtype=complex) for q in self.qlist]
        mats = self.plist + self.qlist
        if not mats:
            raise PairInvariantViolation("family needs at least one projection")
        kappa = mats[0].shape[0]
        for m in mats:
            if m.shape != (kappa, kappa):
                raise PairInvariantViolation("family projections must share a size")
        self.kappa = kappa
        if not np.isfinite(np.stack(mats)).all():
            raise PairInvariantViolation("family projections must be finite")
        # the Hermitian, idempotent and pairwise (i, j < i) defects of both
        # sequences, stacked so that one call takes their 2-norms; scan keys
        # (sequence, member, earlier member or -1) order the failures as the
        # member-by-member scan meets them
        defects, keys = [], []
        for s, seq in enumerate((self.plist, self.qlist)):
            if not seq:
                continue
            stack = np.stack(seq)
            later, earlier = np.tril_indices(len(seq), -1)
            defects += [stack - stack.conj().transpose(0, 2, 1),
                        stack @ stack - stack, stack[later] @ stack[earlier]]
            keys += [(s, i, -1) for i in range(len(seq))] * 2
            keys += [(s, i, j) for i, j in zip(later.tolist(), earlier.tolist())]
        bad = np.linalg.norm(np.concatenate(defects), 2, axis=(1, 2)) > PROJ_TOL
        if bad.any():
            _, i, j = min(key for key, b in zip(keys, bad) if b)
            if j < 0:
                raise PairInvariantViolation(
                    f"family member {i} is not a projection")
            raise PairInvariantViolation(
                f"family members {j},{i} are not orthogonal")

    @property
    def np_count(self) -> int:
        return len(self.plist)

    @property
    def nq_count(self) -> int:
        return len(self.qlist)


@dataclass(frozen=True)
class EvaluationPoint:
    """Rectangle [a,b]x[c,d] inside the open unit square, and a point in it."""

    a: float
    b: float
    c: float
    d: float
    p0: tuple[float, float]

    def __post_init__(self):
        if not (0.0 < self.a < self.b < 1.0 and 0.0 < self.c < self.d < 1.0):
            raise ValueError("need 0 < a < b < 1 and 0 < c < d < 1")
        p, q = self.p0
        if not (self.a <= p <= self.b and self.c <= q <= self.d):
            raise ValueError("evaluation point must lie in the rectangle")

    @classmethod
    def default(cls) -> "EvaluationPoint":
        return cls(0.3, 0.4, 0.3, 0.4, (0.35, 0.35))


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of step 1/denominator covering [offset, extent)."""

    denominator: int
    extent: float
    offset: float = 0.0

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")
        if not self.extent > self.offset >= 0:
            raise ValueError("need extent > offset >= 0")

    @property
    def step(self) -> float:
        return 1.0 / self.denominator

    def values(self) -> np.ndarray:
        # every offset + k step below extent; the slack keeps out a point
        # that roundoff puts just below an extent on the grid
        count = math.ceil((self.extent - self.offset) * self.denominator - 1e-9)
        return self.offset + np.arange(count) * self.step


def step_projection(family: ProjectionFamily, m: int, n: int) -> np.ndarray:
    """The four-branch step projection indexed by a lattice point.

    Partial sums of one sequence on the axes, the identity in the open
    quadrant, zero elsewhere.  Indices beyond the finite truncation raise
    IndexBeyondFamily rather than wrapping.
    """
    kappa = family.kappa
    if m >= 1 and n >= 1:
        return np.eye(kappa, dtype=complex)
    if m >= 1 and n == 0:
        if m > family.np_count:
            raise IndexBeyondFamily(
                f"index {m} beyond the {family.np_count} first-row projections")
        return sum(family.plist[:m], np.zeros((kappa, kappa), dtype=complex))
    if m == 0 and n >= 1:
        if n > family.nq_count:
            raise IndexBeyondFamily(
                f"index {n} beyond the {family.nq_count} second-row projections")
        return sum(family.qlist[:n], np.zeros((kappa, kappa), dtype=complex))
    return np.zeros((kappa, kappa), dtype=complex)


def _select_index(ev: EvaluationPoint, s: float, t: float) -> tuple[int, int] | None:
    """Which step projection the field picks at (s, t); None off the cone."""
    if s < 0 or t < 0:
        return None
    m = math.floor(s)
    n = math.floor(t)
    r = m + 1.0 - s
    rp = n + 1.0 - t
    p, q = ev.p0
    if abs(r - p) < 1e-12 or abs(rp - q) < 1e-12:
        raise BoundaryCoincidence(
            f"evaluation point sits on a cell boundary at ({s}, {t})")
    return (m if p < r else m + 1, n if q < rp else n + 1)


def cell_projection(family: ProjectionFamily, ev: EvaluationPoint,
                    s: float, t: float) -> np.ndarray:
    """The projection field at a quarter-plane point.

    Exactly one of the four half-open cells of the unit square contains the
    evaluation point, and the corresponding step projection is returned;
    outside the closed quarter plane the field vanishes.
    """
    sel = _select_index(ev, s, t)
    if sel is None:
        return np.zeros((family.kappa, family.kappa), dtype=complex)
    return step_projection(family, *sel)


@dataclass(frozen=True, eq=False)
class FieldSample:
    """The field on a square grid: at grid point (vals[i], vals[j]) it is
    ``mats[ids[i, j]]``, the step projection of selection ``sels[ids[i, j]]``.
    ``sels`` is sorted and distinct; ``family`` is the family the
    projections were read from."""

    vals: np.ndarray
    ids: np.ndarray
    sels: list
    mats: list
    family: ProjectionFamily

    def step(self, m: int, n: int) -> np.ndarray:
        """Step projection of (m, n), from the sample when it was selected."""
        if (m, n) in self.sels:
            return self.mats[self.sels.index((m, n))]
        return step_projection(self.family, m, n)


def sample_field(family: ProjectionFamily, ev: EvaluationPoint,
                 grid: GridSpec) -> FieldSample:
    """The field of ``family`` on every point of the square grid, once.

    Each distinct step-projection selection is evaluated once.  The
    selection is separable (its first index depends on s alone, its second
    on t alone), so the picks are read once per axis and ``ids`` is their
    product index.

    A grid value that puts a cell boundary on the evaluation point raises
    BoundaryCoincidence.  A grid on which the field selects a projection
    past the family raises IndexBeyondFamily before any projection is
    built: the field picks step projection (m, 0) or (0, n) on the axes, so
    a grid value whose index passes the last projection of its sequence is
    reached whenever the other coordinate selects 0.  The message states
    the largest extent this family and evaluation point admit at the grid's
    denominator and offset.
    """
    vals = grid.values()
    picks = np.zeros((len(vals), 2), dtype=int)
    for i, v in enumerate(vals):
        m = math.floor(v)
        r = m + 1.0 - v
        if min(abs(r - c) for c in ev.p0) < 1e-12:
            raise BoundaryCoincidence(
                f"grid value {v} puts a cell boundary on the evaluation point")
        picks[i] = [m if c < r else m + 1 for c in ev.p0]
    for axis, (count, row) in enumerate([(family.np_count, "first"),
                                         (family.nq_count, "second")]):
        over = np.nonzero(picks[:, axis] > count)[0]
        if over.size and np.any(picks[:, 1 - axis] == 0):
            bound = count + 1 - ev.p0[axis]
            reach = grid.offset + grid.step * math.ceil(
                (bound - grid.offset) * grid.denominator)
            raise IndexBeyondFamily(
                f"grid value {vals[over[0]]:g} selects index "
                f"{picks[over[0], axis]} beyond the {count} {row}-row "
                f"projections; this family and evaluation point admit "
                f"grid values below {bound:g}, an extent of at most "
                f"{reach} at denominator {grid.denominator}")
    firsts, first_id = np.unique(picks[:, 0], return_inverse=True)
    seconds, second_id = np.unique(picks[:, 1], return_inverse=True)
    ids = first_id[:, None] * len(seconds) + second_id[None, :]
    sels = [(int(m), int(n)) for m in firsts for n in seconds]
    return FieldSample(vals, ids, sels,
                       [step_projection(family, *sel) for sel in sels], family)


def check_increasing(sample: FieldSample) -> float:
    """Worst monotonicity violation of the field over comparable grid pairs.

    Scans every comparable pair (s,t) <= (s',t') on the grid and reports the
    most negative eigenvalue of the difference of field values, clamped at
    zero.  The picks never decrease along an axis, so the selections of
    comparable points are exactly the componentwise ordered pairs of
    sampled selections, and each such pair is compared once; an honest
    family yields zero up to roundoff.
    """
    sels = np.array(sample.sels)
    lo, hi = np.nonzero(np.all(sels[:, None] <= sels[None, :], axis=2))
    mats = np.stack(sample.mats)
    diff = mats[hi] - mats[lo]
    lam = np.linalg.eigvalsh(0.5 * (diff + diff.conj().transpose(0, 2, 1)))
    return max(0.0, -float(lam[:, 0].min()))


def plateau(sample: FieldSample, m: int,
            n: int) -> list[tuple[float, float]]:
    """Grid points of the unit cell at (m, n) where the sampled field equals
    the step projection of (m, n)."""
    target = sample.step(m, n)
    equal = np.abs(np.asarray(sample.mats) - target).max(axis=(1, 2)) \
        <= PLATEAU_TOL
    vals = sample.vals
    cell = np.outer((m <= vals) & (vals < m + 1), (n <= vals) & (vals < n + 1))
    return _grid_points(vals, cell & equal[sample.ids])


def plateau_fraction(sample: FieldSample, m: int, n: int) -> float:
    """Share of the grid points of the unit cell at (m, n) on its
    :func:`plateau`, and 0.0 for a cell that holds no grid point."""
    vals = sample.vals
    total = int(((m <= vals) & (vals < m + 1)).sum()) \
        * int(((n <= vals) & (vals < n + 1)).sum())
    found = len(plateau(sample, m, n))
    return found / total if total else 0.0


def _grid_points(vals, mask) -> list[tuple[float, float]]:
    """The grid points (vals[i], vals[j]) where ``mask`` holds, row by row."""
    vals = vals.tolist()
    return [(vals[i], vals[j]) for i, j in np.argwhere(mask).tolist()]


# ---------------------------------------------------------------------------
# families


def demo_family(kappa: int = 6, seed: int = 20240601) -> ProjectionFamily:
    """Rank-one coordinate projections against a rotated copy.

    First sequence: projections onto the standard basis; second sequence:
    projections onto the columns of a seeded Haar-random unitary.  The
    joint commutant of the two sequences is trivial, so pairs built from
    this family are irreducible.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((kappa, kappa)) + 1j * rng.standard_normal((kappa, kappa))
    u, _ = np.linalg.qr(g)
    plist = [np.outer(np.eye(kappa)[:, i], np.eye(kappa)[:, i].conj())
             for i in range(kappa)]
    qlist = [np.outer(u[:, i], u[:, i].conj()) for i in range(kappa)]
    return ProjectionFamily(plist, qlist)


def random_family(kappa: int, parts_p: int, parts_q: int,
                  seed: int) -> ProjectionFamily:
    """Seeded family: two random orthonormal bases, each sliced into
    consecutive groups that sum to the identity."""
    if parts_p > kappa or parts_q > kappa:
        raise ValueError("cannot slice a basis into more parts than vectors")
    rng = np.random.default_rng(seed)

    def basis():
        g = rng.standard_normal((kappa, kappa)) + 1j * rng.standard_normal(
            (kappa, kappa))
        u, _ = np.linalg.qr(g)
        return u

    def slices(parts):
        cuts = sorted(rng.choice(np.arange(1, kappa), size=parts - 1,
                                 replace=False)) if parts > 1 else []
        return np.split(np.arange(kappa), cuts)

    def projs(u, groups):
        return [u[:, g] @ u[:, g].conj().T for g in groups]

    return ProjectionFamily(projs(basis(), slices(parts_p)),
                            projs(basis(), slices(parts_q)))


def coordinate_family(kappa: int, p_coords, q_coords) -> ProjectionFamily:
    """Diagonal coordinate projections; P and Q sequences may overlap."""
    eye = np.eye(kappa, dtype=complex)
    mk = lambda idxs: eye[:, list(idxs)] @ eye[:, list(idxs)].conj().T
    return ProjectionFamily([mk(g) for g in p_coords], [mk(g) for g in q_coords])


# ---------------------------------------------------------------------------
# the represented pair over the sampled grid


def _field_bases(mats) -> list[np.ndarray]:
    """Orthonormal basis of the range of each sampled field value."""
    lam, vec = np.linalg.eigh(np.stack(mats))
    ones = lam > 0.5
    if np.abs(lam[ones] - 1.0).max(initial=0.0) > 1e-10 or \
       np.abs(lam[~ones]).max(initial=0.0) > 1e-10:
        raise MonotonicityBroken("field value is not a projection")
    return [v[:, o] for v, o in zip(vec, ones)]


def build_r2_pair(family: ProjectionFamily, ev: EvaluationPoint,
                  grid: GridSpec, label: str = "") -> WeylPair:
    """Weak Weyl pair carried by the sampled quarter-plane field.

    The fiber at grid point (i, j) is the range of the field value there;
    the two generators are the grid-step shifts compressed to those fibers.
    Because the field is increasing, each compressed shift is an exact
    isometry fiber-to-fiber, but the range projections of the two axes need
    not commute (that is the point of the construction).
    """
    sample = sample_field(family, ev, grid)
    violation = check_increasing(sample)
    if violation > 1e-12:
        raise MonotonicityBroken(
            f"field is not increasing (violation {violation:.3e}); "
            f"compression to the fibers is not defined")
    ids = sample.ids
    bases = _field_bases(sample.mats)
    n = len(sample.vals)
    window = LatticeWindow((-n, -n), (n - 1, n - 1), weight=grid.step ** 2)
    fibers = {pt: bases[k].shape[1] for pt, k in np.ndenumerate(ids)
              if bases[k].shape[1]}
    gens = [{(i, j): bases[ids[i + e[0], j + e[1]]].conj().T @ bases[ids[i, j]]
             for i, j in fibers if (i + e[0], j + e[1]) in fibers}
            for e in window.generators()]
    return WeylPair(window, fibers, gens,
                    label=label or f"quarterplane(k={family.kappa})")


# ---------------------------------------------------------------------------
# commutant transfer, spectral support, minimality


def commutant_transfer_check(family: ProjectionFamily, ev: EvaluationPoint,
                             grid: GridSpec):
    """Compare the commutant of the sampled field with the family commutant.

    The grid must reach past the last truncated projection on each axis and
    actually pin every step projection (each plateau carries grid points);
    then the two commutants coincide as subspaces.  Returns (sampled
    dimension, family dimension, equal flag).
    """
    if grid.extent < family.np_count + 1 or grid.extent < family.nq_count + 1:
        raise GridTooSmall(
            f"grid extent {grid.extent} does not cover the family axes")
    sample = sample_field(family, ev, grid)
    required = {(m, 0) for m in range(1, family.np_count + 1)}
    required |= {(0, m) for m in range(1, family.nq_count + 1)}
    missing = required - set(sample.sels)
    if missing:
        raise GridTooSmall(f"step projections never sampled: {sorted(missing)}")
    dim_e = commutant_basis(RepGens(family.kappa, sample.mats))
    dim_f = commutant_basis(RepGens(family.kappa,
                                    list(family.plist) + list(family.qlist)))
    gap = subspace_gap(dim_e, dim_f)
    return len(dim_e), len(dim_f), (len(dim_e) == len(dim_f) and gap <= DEFAULT_TOL)


def spec_support(family: ProjectionFamily, ev: EvaluationPoint,
                 grid: GridSpec) -> list[tuple[float, float]]:
    """Grid points where the sampled field is nonzero.

    When every family projection is nonzero this set depends only on the
    evaluation data and the grid: inequivalent families share it, so
    spectral support cannot separate pairs without commuting ranges.
    """
    sample = sample_field(family, ev, grid)
    nonzero = np.abs(np.asarray(sample.mats)).max(axis=(1, 2)) > 0
    return _grid_points(sample.vals, nonzero[sample.ids])


def minimality_defect(family: ProjectionFamily, ev: EvaluationPoint,
                      grid: GridSpec, margin_steps: int) -> float:
    """Exhaustion defect of the shifted field ranges on the ambient grid.

    For every grid point whose margin-shifted copy still lies on the grid,
    the union of field ranges pulled back from the forward box must fill
    the whole coefficient space; the defect is the worst distance from
    fullness over those safe points.
    """
    sample = sample_field(family, ev, grid)
    ids = sample.ids
    bases = _field_bases(sample.mats)
    n = len(sample.vals)
    box = margin_steps + 1
    worst = 0.0
    for i in range(n - margin_steps):
        for j in range(n - margin_steps):
            stack = np.hstack([np.zeros((family.kappa, 0))] +
                              [bases[k] for k in ids[i:i + box, j:j + box].ravel()])
            if stack.shape[1] == 0:
                worst = max(worst, 1.0)
                continue
            u, sv, _ = np.linalg.svd(stack, full_matrices=False)
            cols = u[:, sv > 1e-10]
            proj = cols @ cols.conj().T
            worst = max(worst,
                        float(np.linalg.norm(np.eye(family.kappa) - proj, 2)))
    return worst

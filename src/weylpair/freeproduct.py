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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commutant import RepGens, commutant_basis, subspace_gap
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
        for seq in (self.plist, self.qlist):
            for i, p in enumerate(seq):
                if np.linalg.norm(p - p.conj().T, 2) > PROJ_TOL or \
                   np.linalg.norm(p @ p - p, 2) > PROJ_TOL:
                    raise PairInvariantViolation(
                        f"family member {i} is not a projection")
                for j in range(i):
                    if np.linalg.norm(seq[i] @ seq[j], 2) > PROJ_TOL:
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
        count = int(round((self.extent - self.offset) * self.denominator))
        return self.offset + np.arange(count) * self.step


def _check_grid(family: ProjectionFamily, ev: EvaluationPoint,
                grid: GridSpec, f_lookup=None):
    """Reject a grid the field of ``family`` cannot be sampled on.

    A grid value that puts a cell boundary on the evaluation point raises
    BoundaryCoincidence.  Unless ``f_lookup`` replaces the step-projection
    table, a grid on which the field selects a projection past the family
    raises IndexBeyondFamily: the field picks step projection (m, 0) or
    (0, n) on the axes, so a grid value whose index passes the last
    projection of its sequence is reached whenever the other coordinate
    selects 0.  The message states the largest extent this family and
    evaluation point admit at the grid's denominator and offset.  The
    selection is separable, so one pass over the grid values decides both
    axes.
    """
    p, q = ev.p0
    vals = grid.values()
    for v in vals:
        r = math.floor(v) + 1.0 - v
        if min(abs(r - p), abs(r - q)) < 1e-12:
            raise BoundaryCoincidence(
                f"grid value {v} puts a cell boundary on the evaluation point")
    if f_lookup is not None:
        return
    picks = np.array([_select_index(ev, v, v) for v in vals]).reshape(-1, 2)
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
                f"projections; this family and evaluation point admit grid "
                f"values below {bound:g}, an extent of at most {reach} at "
                f"denominator {grid.denominator}")


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
                    s: float, t: float, f_lookup=None) -> np.ndarray:
    """The projection field at a quarter-plane point.

    Exactly one of the four half-open cells of the unit square contains the
    evaluation point, and the corresponding step projection is returned;
    outside the closed quarter plane the field vanishes.  ``f_lookup``
    substitutes the step-projection table (diagnostic hook used to study
    corrupted, non-monotone fields).
    """
    sel = _select_index(ev, s, t)
    if sel is None:
        return np.zeros((family.kappa, family.kappa), dtype=complex)
    lookup = f_lookup or (lambda mm, nn: step_projection(family, mm, nn))
    return lookup(*sel)


def _selection_table(ev, grid):
    vals = grid.values()
    n = len(vals)
    table = np.empty((n, n), dtype=object)
    for i, s in enumerate(vals):
        for j, t in enumerate(vals):
            table[i, j] = _select_index(ev, s, t)
    return vals, table


def check_increasing(family: ProjectionFamily, ev: EvaluationPoint,
                     grid: GridSpec, f_lookup=None) -> float:
    """Worst monotonicity violation of the field over comparable grid pairs.

    Scans every comparable pair (s,t) <= (s',t') on the grid and reports the
    most negative eigenvalue of the difference of field values, clamped at
    zero.  Distinct index pairs are compared once; an honest family yields
    zero up to roundoff.
    """
    _check_grid(family, ev, grid, f_lookup)
    vals, table = _selection_table(ev, grid)
    n = len(vals)
    ids = sorted({table[i, j] for i in range(n) for j in range(n)})
    id_of = {sel: k for k, sel in enumerate(ids)}
    grid_ids = np.array([[id_of[table[i, j]] for j in range(n)]
                         for i in range(n)])
    lookup = f_lookup or (lambda mm, nn: step_projection(family, mm, nn))
    mats = [lookup(*sel) for sel in ids]
    # reach[v][i, j]: some point >= (i, j) carries id v
    combos = set()
    for v in range(len(ids)):
        mask = grid_ids == v
        reach = np.zeros_like(mask)
        acc = np.zeros(n, dtype=bool)
        for i in range(n - 1, -1, -1):
            acc = acc | mask[i]
            row = np.logical_or.accumulate(acc[::-1])[::-1]
            reach[i] = row
        for u in range(len(ids)):
            if np.any((grid_ids == u) & reach):
                combos.add((u, v))
    worst = 0.0
    for u, v in combos:
        diff = mats[v] - mats[u]
        lam = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))[0]
        worst = max(worst, -float(lam))
    return worst


def plateau(family: ProjectionFamily, ev: EvaluationPoint, m: int, n: int,
            grid: GridSpec, f_lookup=None) -> list[tuple[float, float]]:
    """Grid points of the unit cell at (m, n) where the field equals the
    step projection of (m, n)."""
    _check_grid(family, ev, grid, f_lookup)
    lookup = f_lookup or (lambda mm, nn: step_projection(family, mm, nn))
    target = lookup(m, n)
    out = []
    for s in grid.values():
        if not (m <= s < m + 1):
            continue
        for t in grid.values():
            if not (n <= t < n + 1):
                continue
            val = cell_projection(family, ev, s, t, f_lookup=f_lookup)
            if np.abs(val - target).max() <= PLATEAU_TOL:
                out.append((float(s), float(t)))
    return out


def proof_region_points(ev: EvaluationPoint, m: int, n: int,
                        grid: GridSpec) -> list[tuple[float, float]]:
    """Grid points of the open region (m, m+1-b) x (n, n+1-d).

    Every point here lands in the lower-left cell with the rectangle fully
    inside, so the field is pinned to the step projection of (m, n); the
    region has area (1-b)(1-d) and witnesses that each plateau carries
    positive measure.
    """
    out = []
    for s in grid.values():
        if not (m < s < m + 1 - ev.b):
            continue
        for t in grid.values():
            if not (n < t < n + 1 - ev.d):
                continue
            out.append((float(s), float(t)))
    return out


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


def _field_bases(family, ev, grid):
    """Per grid point: orthonormal basis of the range of the field value."""
    vals = grid.values()
    bases = {}
    ranks = {}
    for i, s in enumerate(vals):
        for j, t in enumerate(vals):
            e = cell_projection(family, ev, s, t)
            lam, vec = np.linalg.eigh(e)
            ones = lam > 0.5
            if np.abs(lam[ones] - 1.0).max(initial=0.0) > 1e-10 or \
               np.abs(lam[~ones]).max(initial=0.0) > 1e-10:
                raise MonotonicityBroken("field value is not a projection")
            bases[(i, j)] = vec[:, ones]
            ranks[(i, j)] = int(ones.sum())
    return vals, bases, ranks


def build_r2_pair(family: ProjectionFamily, ev: EvaluationPoint,
                  grid: GridSpec, label: str = "") -> WeylPair:
    """Weak Weyl pair carried by the sampled quarter-plane field.

    The fiber at grid point (i, j) is the range of the field value there;
    the two generators are the grid-step shifts compressed to those fibers.
    Because the field is increasing, each compressed shift is an exact
    isometry fiber-to-fiber, but the range projections of the two axes need
    not commute (that is the point of the construction).
    """
    violation = check_increasing(family, ev, grid)
    if violation > 1e-12:
        raise MonotonicityBroken(
            f"field is not increasing (violation {violation:.3e}); "
            f"compression to the fibers is not defined")
    vals, bases, ranks = _field_bases(family, ev, grid)
    n = len(vals)
    window = LatticeWindow((-n, -n), (n - 1, n - 1), weight=grid.step ** 2)
    fibers = {(i, j): r for (i, j), r in ranks.items() if r > 0}
    offsets = {}
    off = 0
    for pt in sorted(fibers):
        offsets[pt] = off
        off += fibers[pt]
    dim = off
    gens = []
    for axis, e in enumerate([(1, 0), (0, 1)]):
        g = np.zeros((dim, dim), dtype=complex)
        for (i, j), r in fibers.items():
            ti, tj = i + e[0], j + e[1]
            if (ti, tj) not in fibers:
                continue
            src = bases[(i, j)]
            dst = bases[(ti, tj)]
            blk = dst.conj().T @ src
            r0, c0 = offsets[(ti, tj)], offsets[(i, j)]
            g[r0:r0 + dst.shape[1], c0:c0 + r] = blk
        gens.append(g)
    return WeylPair(window, fibers, gens,
                    label=label or f"quarterplane(k={family.kappa})")


# ---------------------------------------------------------------------------
# commutant transfer, spectral support, minimality


def commutant_transfer_check(family: ProjectionFamily, ev: EvaluationPoint,
                             grid: GridSpec, tol: float = 1e-8):
    """Compare the commutant of the sampled field with the family commutant.

    The grid must reach past the last truncated projection on each axis and
    actually pin every step projection (each plateau carries grid points);
    then the two commutants coincide as subspaces.  Returns (sampled
    dimension, family dimension, equal flag).
    """
    if grid.extent < family.np_count + 1 or grid.extent < family.nq_count + 1:
        raise GridTooSmall(
            f"grid extent {grid.extent} does not cover the family axes")
    _check_grid(family, ev, grid)
    vals, table = _selection_table(ev, grid)
    n = len(vals)
    seen = {table[i, j] for i in range(n) for j in range(n)}
    required = {(m, 0) for m in range(1, family.np_count + 1)}
    required |= {(0, m) for m in range(1, family.nq_count + 1)}
    missing = required - seen
    if missing:
        raise GridTooSmall(f"step projections never sampled: {sorted(missing)}")
    sampled = [step_projection(family, *sel) for sel in sorted(seen)]
    dim_e = commutant_basis(RepGens(family.kappa, sampled))
    dim_f = commutant_basis(RepGens(family.kappa,
                                    list(family.plist) + list(family.qlist)))
    gap = subspace_gap(dim_e, dim_f)
    return len(dim_e), len(dim_f), (len(dim_e) == len(dim_f) and gap <= tol)


def spec_support(family: ProjectionFamily, ev: EvaluationPoint,
                 grid: GridSpec) -> list[tuple[float, float]]:
    """Grid points where the sampled field is nonzero.

    When every family projection is nonzero this set depends only on the
    evaluation data and the grid: inequivalent families share it, so
    spectral support cannot separate pairs without commuting ranges.
    """
    _check_grid(family, ev, grid)
    out = []
    for s in grid.values():
        for t in grid.values():
            e = cell_projection(family, ev, s, t)
            if np.abs(e).max() > 0:
                out.append((float(s), float(t)))
    return out


def ambient_field_projection(family, ev, grid) -> np.ndarray:
    """Block-diagonal field projection on the ambient grid space."""
    _check_grid(family, ev, grid)
    vals = grid.values()
    n = len(vals)
    kappa = family.kappa
    out = np.zeros((n * n * kappa, n * n * kappa), dtype=complex)
    for i, s in enumerate(vals):
        for j, t in enumerate(vals):
            e = cell_projection(family, ev, s, t)
            o = (i * n + j) * kappa
            out[o:o + kappa, o:o + kappa] = e
    return out


def ambient_shift(grid: GridSpec, steps: tuple[int, int], kappa: int) -> np.ndarray:
    """Truncated grid shift on the ambient space, identity on coefficients."""
    n = len(grid.values())
    out = np.zeros((n * n * kappa, n * n * kappa), dtype=complex)
    for i in range(n):
        for j in range(n):
            ti, tj = i + steps[0], j + steps[1]
            if 0 <= ti < n and 0 <= tj < n:
                r0 = (ti * n + tj) * kappa
                c0 = (i * n + j) * kappa
                out[r0:r0 + kappa, c0:c0 + kappa] = np.eye(kappa)
    return out


def minimality_defect(family: ProjectionFamily, ev: EvaluationPoint,
                      grid: GridSpec, margin_steps: int) -> float:
    """Exhaustion defect of the shifted field ranges on the ambient grid.

    For every grid point whose margin-shifted copy still lies on the grid,
    the union of field ranges pulled back from the forward box must fill
    the whole coefficient space; the defect is the worst distance from
    fullness over those safe points.
    """
    _check_grid(family, ev, grid)
    vals = grid.values()
    n = len(vals)
    worst = 0.0
    for i in range(n - margin_steps):
        for j in range(n - margin_steps):
            spans = []
            for a in range(margin_steps + 1):
                for b in range(margin_steps + 1):
                    e = cell_projection(family, ev, vals[i + a], vals[j + b])
                    lam, vec = np.linalg.eigh(e)
                    spans.append(vec[:, lam > 0.5])
            stack = np.hstack(spans) if spans else np.zeros((family.kappa, 0))
            if stack.shape[1] == 0:
                worst = max(worst, 1.0)
                continue
            u, sv, _ = np.linalg.svd(stack, full_matrices=False)
            cols = u[:, sv > 1e-10]
            proj = cols @ cols.conj().T
            worst = max(worst,
                        float(np.linalg.norm(np.eye(family.kappa) - proj, 2)))
    return worst

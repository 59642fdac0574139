"""Represented weak Weyl pairs on finite windows.

A pair consists of a position grading (one fiber block per window point)
together with one generator matrix per axis.  The character unitaries are
derived from the grading: the unitary for angle vector theta multiplies the
block of y by exp(i theta.y).  Generator matrices must map the block of y
into the block of y + e_i, which is exactly what the commutation relation

    U_theta V_a = exp(i theta.a) V_a U_theta

forces at the matrix level.  Truncation at the window boundary is
controlled by safe margins: isometry and commutation claims are asserted on
the span of blocks that stay inside the window under all shifts up to the
margin, and nowhere else.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .commutant import opnorm_exceeds
from .errors import (
    MarginTooSmall,
    NonCommutingGenerators,
    PairInvariantViolation,
    WindowMismatch,
)
from .lattice import LatticeWindow, PSet, Point, SetKind, _add

GRADING_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SafeRegion:
    """Margin r: blocks of y with y + [0, r]^d inside the window are safe."""

    margin: int

    def __post_init__(self):
        if self.margin < 0:
            raise MarginTooSmall("margin must be nonnegative")


class WeylPair:
    """Position-graded pair: fiber dimensions plus one matrix per axis.

    ``fibers`` maps window points to positive fiber dimensions; points not
    listed carry the zero fiber.  Blocks are laid out in lexicographic point
    order, so the grading data determines the matrix layout uniquely.
    """

    def __init__(self, window: LatticeWindow, fibers, gens, label: str = "",
                 validate: bool = True):
        self.window = window
        items = sorted((tuple(int(c) for c in p), int(k))
                       for p, k in dict(fibers).items() if int(k) > 0)
        if not items:
            raise PairInvariantViolation("pair needs at least one nonzero fiber")
        for p, _ in items:
            if p not in window:
                raise PairInvariantViolation(f"fiber point {p} outside window")
        self.fibers: tuple[tuple[Point, int], ...] = tuple(items)
        self.offsets: dict[Point, tuple[int, int]] = {}
        off = 0
        for p, k in self.fibers:
            self.offsets[p] = (off, k)
            off += k
        self.dim = off
        gens = tuple(np.asarray(g, dtype=complex) for g in gens)
        if len(gens) != window.dim:
            raise PairInvariantViolation("one generator matrix per axis required")
        for g in gens:
            if g.shape != (self.dim, self.dim):
                raise PairInvariantViolation(
                    f"generator shape {g.shape} does not match dim {self.dim}")
        self.gens = gens
        self.label = label
        if validate:
            self._check_grading()

    def _check_grading(self):
        for axis in range(self.window.dim):
            _, stray = self.graded_blocks(axis)
            if stray > GRADING_TOL:
                raise PairInvariantViolation(
                    f"generator {axis} leaks outside the graded blocks "
                    f"(max stray entry {stray:.3e})")

    def graded_blocks(self, axis: int) -> tuple[dict, float]:
        """Blocks of generator ``axis`` and the largest entry outside them.

        The block of y maps the fiber of y into the fiber of y + e_i; it is
        listed for every y whose shifted point carries a fiber.
        """
        e = self.window.generators()[axis]
        g = self.gens[axis]
        blocks = {}
        rest = g.copy()
        for p, (off, k) in self.offsets.items():
            q = _add(p, e)
            if q in self.offsets:
                qoff, qk = self.offsets[q]
                cut = (slice(qoff, qoff + qk), slice(off, off + k))
                blocks[p] = g[cut]
                rest[cut] = 0.0
        return blocks, float(np.abs(rest).max(initial=0.0))

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.fibers)

    def block_slice(self, p: Point) -> slice:
        off, k = self.offsets[p]
        return slice(off, off + k)

    def position_projection(self, p) -> np.ndarray:
        """Coordinate projection onto the fiber block of a point."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        p = tuple(int(c) for c in p)
        if p in self.offsets:
            s = self.block_slice(p)
            out[s, s] = np.eye(s.stop - s.start)
        return out

    def position_phases(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        out = np.empty(self.dim, dtype=complex)
        for p, (off, k) in self.offsets.items():
            out[off:off + k] = np.exp(1j * float(th @ np.asarray(p)))
        return out

    def position_observable(self) -> np.ndarray:
        """Hermitian position marker: window index of y on the block of y.

        Its spectral projections are exactly the position projections, so
        commuting with it is the same as commuting with every character
        unitary of the pair.
        """
        diag = np.empty(self.dim)
        for p, (off, k) in self.offsets.items():
            diag[off:off + k] = self.window.index(p)
        return np.diag(diag).astype(complex)

    def safe_points(self, safe: SafeRegion) -> tuple[Point, ...]:
        """Points with a nonzero fiber and y + margin*1 inside the window."""
        if safe.margin > min(self.window.sides):
            raise MarginTooSmall("margin exceeds window side length")
        return tuple(p for p in self.offsets
                     if all(c + safe.margin <= h
                            for c, h in zip(p, self.window.hi)))

    def safe_indices(self, safe: SafeRegion) -> np.ndarray:
        """Coordinate indices of blocks with y + margin*1 inside the window."""
        keep = []
        for p in self.safe_points(safe):
            off, k = self.offsets[p]
            keep.extend(range(off, off + k))
        return np.array(keep, dtype=int)


def build_pspace_pair(pspace: PSet, k: int, label: str = "") -> WeylPair:
    """Canonical pair of an upward-invariant set with fiber multiplicity k.

    The generator for axis i is the block shift sending the block of y
    identically onto the block of y + e_i whenever both lie in the set, and
    to zero otherwise; on a chain this is a truncated unilateral shift.
    """
    if pspace.kind is not SetKind.PSPACE:
        raise PairInvariantViolation("canonical pairs require a PSPACE set")
    if k < 1:
        raise PairInvariantViolation("fiber multiplicity must be positive")
    window = pspace.window
    fibers = {p: k for p in pspace.points}
    dim = k * len(pspace)
    offset = {p: i * k for i, p in enumerate(pspace.points)}
    members = set(pspace.points)
    gens = []
    for e in window.generators():
        g = np.zeros((dim, dim), dtype=complex)
        for p in pspace.points:
            q = _add(p, e)
            if q in members:
                g[offset[q]:offset[q] + k, offset[p]:offset[p] + k] = np.eye(k)
        gens.append(g)
    return WeylPair(window, fibers, gens,
                    label=label or f"canonical{pspace.points[0]}x{k}")


def unitary_u(pair: WeylPair, theta) -> np.ndarray:
    """Character unitary: block of y scaled by exp(i theta.y)."""
    return np.diag(pair.position_phases(theta))


def isometry_v(pair: WeylPair, a) -> np.ndarray:
    """Semigroup element V_a as the ordered product of generator powers.

    The two extreme evaluation orders are compared; a discrepancy above
    1e-10 means the generator matrices do not commute and the pair is
    corrupted.
    """
    avec = tuple(int(c) for c in a)
    if len(avec) != pair.window.dim or any(c < 0 for c in avec):
        raise ValueError("semigroup exponent must be a nonnegative vector")
    fwd = np.eye(pair.dim, dtype=complex)
    for axis, power in enumerate(avec):
        if power:
            fwd = np.linalg.matrix_power(pair.gens[axis], power) @ fwd
    if pair.window.dim > 1:
        bwd = np.eye(pair.dim, dtype=complex)
        for axis in reversed(range(pair.window.dim)):
            if avec[axis]:
                bwd = np.linalg.matrix_power(pair.gens[axis], avec[axis]) @ bwd
        if opnorm_exceeds(fwd - bwd, 1e-10):
            raise NonCommutingGenerators(
                f"generator products differ for exponent {avec}")
    return fwd


def weyl_defect(pair: WeylPair, theta, a, safe: SafeRegion) -> float:
    """Norm of U V_a - exp(i theta.a) V_a U compressed to the safe blocks.

    ``theta`` is one angle vector or a stack of shape (m, d); the result is
    the maximum over the stack.  V_a is computed once, so generators that
    fail to commute still raise :class:`NonCommutingGenerators`.

    V_a maps the block of y into the block of y + a, and U scales each
    block by one phase, so the compressed defect is a partial block
    permutation whose norm is the largest ``|phase(y + a) - phase(a)
    phase(y)| * ||B_y||`` over the blocks B_y of V_a with y and y + a safe.
    Whatever V_a holds outside those blocks (the remainder R) adds, for
    each angle, the Frobenius norm of R scaled entrywise by its phase
    deviations.  R is exactly zero for every pair this package builds, and
    the value is then the exact defect; otherwise (stray entries up to
    ``GRADING_TOL``, or a pair built with ``validate=False``) it is an
    upper bound that is never below the exact defect.
    """
    avec = tuple(int(c) for c in a)
    if any(c > safe.margin for c in avec):
        raise MarginTooSmall(f"shift {avec} exceeds safe margin {safe.margin}")
    thetas = np.atleast_2d(np.asarray(theta, dtype=float))
    v = isometry_v(pair, avec)
    safe_pts = pair.safe_points(safe)
    members = set(safe_pts)
    src = [y for y in safe_pts if _add(y, avec) in members]
    cuts = [(pair.block_slice(_add(y, avec)), pair.block_slice(y))
            for y in src]
    # one stacked 2-norm per block shape: ||B_y|| is computed once per block
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, cut in enumerate(cuts):
        by_shape.setdefault(v[cut].shape, []).append(i)
    norms = np.empty(len(cuts))
    for group in by_shape.values():
        norms[group] = np.linalg.norm(np.stack([v[cuts[i]] for i in group]),
                                      2, axis=(1, 2))
    av = np.array(avec, dtype=float)
    per_angle = np.zeros(len(thetas))
    if src:
        coords = np.array(src, dtype=float)
        dev = _phase_deviation(thetas, coords, coords + av, av)
        per_angle = (dev * norms).max(axis=1)
    remainder = v.copy()
    for cut in cuts:
        remainder[cut] = 0.0
    idx = pair.safe_indices(safe)
    rest = remainder[np.ix_(idx, idx)]
    rows, cols = np.nonzero(rest)
    if rows.size:
        where = np.repeat(np.array(safe_pts, dtype=float),
                          [pair.offsets[p][1] for p in safe_pts], axis=0)
        dev = _phase_deviation(thetas, where[cols], where[rows], av)
        per_angle = per_angle + np.linalg.norm(
            dev * np.abs(rest[rows, cols]), axis=1)
    return float(per_angle.max())


def _phase_deviation(thetas, src, dst, a) -> np.ndarray:
    """``|exp(i theta.dst) - exp(i theta.a) exp(i theta.src)|``.

    Rows follow the angle vectors in ``thetas``, columns the point pairs
    (``src[j]``, ``dst[j]``).  This is the factor by which the commutation
    defect scales an entry of V_a taking ``src`` to ``dst``.
    """
    def phases(pts):
        return np.exp(1j * (thetas @ np.asarray(pts, dtype=float).T))
    return np.abs(phases(dst) - phases(a[None, :]) * phases(src))


def isometry_defect(pair: WeylPair, a, safe: SafeRegion) -> float:
    """Norm of (V_a* V_a - 1) compressed to the safe blocks."""
    avec = tuple(int(c) for c in a)
    if any(c > safe.margin for c in avec):
        raise MarginTooSmall(f"shift {avec} exceeds safe margin {safe.margin}")
    v = isometry_v(pair, avec)
    m = v.conj().T @ v - np.eye(pair.dim)
    idx = pair.safe_indices(safe)
    if idx.size == 0:
        return 0.0
    return float(np.linalg.norm(m[np.ix_(idx, idx)], 2))


def range_projection(pair: WeylPair, a) -> np.ndarray:
    """Range projection V_a V_a* of the semigroup element."""
    v = isometry_v(pair, a)
    e = v @ v.conj().T
    return 0.5 * (e + e.conj().T)


def default_probe(dim: int, reach: int = 2) -> list[Point]:
    """All nonzero semigroup exponents up to ``reach`` in each axis."""
    return [a for a in itertools.product(range(reach + 1), repeat=dim)
            if any(a)]


def check_commuting_ranges(pair: WeylPair, probe=None) -> float:
    """Largest commutator norm among range projections over the probe set."""
    if probe is None:
        probe = default_probe(pair.window.dim)
    projs = [range_projection(pair, a) for a in probe]
    worst = 0.0
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            comm = projs[i] @ projs[j] - projs[j] @ projs[i]
            # ||comm||_2 <= ||comm||_F: a commutator skipped here cannot
            # raise the maximum, so no SVD runs on a zero commutator
            if np.linalg.norm(comm) > worst:
                worst = max(worst, float(np.linalg.norm(comm, 2)))
    return worst


def direct_sum(pairs: list[WeylPair], label: str = "") -> WeylPair:
    """Blockwise direct sum on a common window; fibers add pointwise."""
    if not pairs:
        raise ValueError("direct_sum of an empty list")
    window = pairs[0].window
    for p in pairs[1:]:
        if p.window != window:
            raise WindowMismatch("direct summands live on different windows")
    fibers: dict[Point, int] = {}
    for p in pairs:
        for pt, k in p.fibers:
            fibers[pt] = fibers.get(pt, 0) + k
    order = sorted(fibers)
    offsets = {}
    off = 0
    for pt in order:
        offsets[pt] = off
        off += fibers[pt]
    total = off
    injections = []
    for p in pairs:
        inj = np.empty(p.dim, dtype=int)
        cursor = dict(offsets)
        for pt, k in p.fibers:
            s = p.block_slice(pt)
            inj[s] = np.arange(cursor[pt], cursor[pt] + k)
            cursor[pt] += k
        injections.append(inj)
        for pt, k in p.fibers:
            offsets[pt] += k
    gens = []
    for axis in range(window.dim):
        g = np.zeros((total, total), dtype=complex)
        for p, inj in zip(pairs, injections):
            g[np.ix_(inj, inj)] = p.gens[axis]
        gens.append(g)
    return WeylPair(window, fibers, gens,
                    label=label or "+".join(p.label for p in pairs))


def dual_grid(window: LatticeWindow) -> list[np.ndarray]:
    """Finite dual grid: theta_i = 2 pi j / N_i with N_i the window sides."""
    axes = [np.arange(n) * (2.0 * np.pi / n) for n in window.sides]
    return [np.array(t) for t in itertools.product(*axes)]


def recover_position_projections(window: LatticeWindow, samples) -> dict:
    """Invert character samples into position projections.

    ``samples`` pairs each dual-grid angle vector with the corresponding
    unitary.  When the unitaries are graded by window points the finite
    Fourier inversion  P_y = (1/|grid|) sum_theta exp(-i theta.y) U_theta
    is exact.
    """
    samples = list(samples)
    total = len(samples)
    out = {}
    for y in window.points():
        acc = None
        yv = np.asarray(y, dtype=float)
        for theta, u in samples:
            term = np.exp(-1j * float(np.asarray(theta) @ yv)) * np.asarray(u)
            acc = term if acc is None else acc + term
        out[y] = acc / total
    return out


def canonical_defect_sweep(pspace: PSet, k: int, margin: int) -> float:
    """Exhaustive commutation-defect maximum for a canonical pair.

    Sweeps every dual-grid angle and every semigroup shift up to the margin,
    evaluating the same compressed defect as :func:`weyl_defect` through the
    graded sparsity of the canonical generators (the defect matrix has one
    scalar phase per occupied block, so its spectral norm is the largest
    phase deviation).  The fiber multiplicity scales blocks by the identity
    and leaves the norm unchanged.
    """
    if pspace.kind is not SetKind.PSPACE:
        raise PairInvariantViolation("canonical pairs require a PSPACE set")
    if k < 1:
        raise PairInvariantViolation("fiber multiplicity must be positive")
    table = _sweep_table(pspace.window, margin)
    return float(table[list(pspace.indices)].max())


@functools.lru_cache(maxsize=16)
def _sweep_table(window: LatticeWindow, margin: int) -> np.ndarray:
    """Largest phase deviation at each window point over grid and shifts.

    Entry y is the maximum over dual-grid angles theta and shifts a up to
    the margin, with y + a + margin inside the window, of
    ``|phase(y + a) - phase(a) phase(y)|``, and 0 where no shift qualifies.
    Upward invariance puts y + a in every upward set holding y, so the value
    does not depend on the set.
    """
    coords = np.array(list(window.points()), dtype=int)
    thetas = np.array(dual_grid(window))
    hi = np.array(window.hi)
    worst = np.zeros(len(coords))
    for a in itertools.product(range(margin + 1), repeat=window.dim):
        av = np.array(a, dtype=int)
        src = np.nonzero(np.all(coords + av + margin <= hi, axis=1))[0]
        if src.size == 0:
            continue
        dev = _phase_deviation(thetas, coords[src], coords[src] + av, av)
        worst[src] = np.maximum(worst[src], dev.max(axis=0))
    worst.flags.writeable = False
    return worst

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

A pair is kept as its generator blocks: the relation forbids any entry
outside them, and the constructor refuses a dense generator that has one.
The checks read V_a block by block, composed from the generator blocks in
one order, and their values are exact; that the generators commute is
checked once per pair, one commutator block per point.  Dense generators
are written only when asked for.  An operator T with T A = B T between two
pairs (an equivalence witness, a decomposition witness, a dilation
embedding) is checked on its blocks by :func:`intertwining_blocks`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MarginTooSmall,
    NonCommutingGenerators,
    PairInvariantViolation,
    WindowMismatch,
)
from .lattice import LatticeWindow, PSet, Point, SetKind, _add


@dataclass(frozen=True, eq=False)
class SafeRegion:
    """Margin r: blocks of y with y + [0, r]^d inside the window are safe."""

    margin: int

    def __post_init__(self):
        if self.margin < 0:
            raise MarginTooSmall("margin must be nonnegative")


class WeylPair:
    """Position-graded pair: fiber dimensions plus one generator per axis.

    ``fibers`` maps window points to positive fiber dimensions; points not
    listed carry the zero fiber.  Blocks are laid out in lexicographic point
    order, so the grading data determines the matrix layout uniquely.

    A pair is its generator blocks.  ``gens`` gives, per axis, either a dict
    from source point y to the block from the fiber of y into the fiber of
    y + e_i (a source point left out is a zero block), or a dense matrix,
    which is cut into those blocks.  The blocks are kept as read-only
    copies, so they, and the blocks of each V_a composed from them
    (:meth:`shift_blocks`), stay valid for the life of the pair; the dense
    generators (:attr:`gens`) are a view built from them on first use.
    """

    def __init__(self, window: LatticeWindow, fibers, gens, label: str = ""):
        self.window = window
        items = sorted((tuple(int(c) for c in p), int(k))
                       for p, k in dict(fibers).items() if int(k) > 0)
        if not items:
            raise PairInvariantViolation("pair needs at least one nonzero fiber")
        for p, _ in items:
            if len(p) != window.dim or not all(
                    l <= c <= h for l, c, h in zip(window.lo, p, window.hi)):
                raise PairInvariantViolation(f"fiber point {p} outside window")
        self.fibers: tuple[tuple[Point, int], ...] = tuple(items)
        self.offsets: dict[Point, tuple[int, int]] = {}
        off = 0
        for p, k in self.fibers:
            self.offsets[p] = (off, k)
            off += k
        self.dim = off
        self.label = label
        self._commuting = False
        self._shifts: dict[Point, dict] = {}
        self._safe: dict[int, tuple[Point, ...]] = {}
        self._blocks = self._check_grading(gens)

    def _check_grading(self, gens) -> tuple[dict, ...]:
        """Per axis, the generator blocks by source point, in point order.

        A dense generator is cut into its blocks first.  Refused, each as
        :class:`PairInvariantViolation`: a non-finite entry anywhere, first;
        then a nonzero dense entry outside the graded blocks (a stray
        entry), naming the axis and the largest; a block joining a point
        that carries no fiber; and a block of the wrong shape.
        """
        if len(gens) != self.window.dim:
            raise PairInvariantViolation("one generator matrix per axis required")
        steps = self.window.generators()
        cut = [self._cut(e, g) for e, g in zip(steps, gens)]
        for axis, (given, stray) in enumerate(cut):
            entries = [b.ravel() for b in given.values()] + [np.array([stray])]
            if not np.isfinite(np.concatenate(entries)).all():
                raise PairInvariantViolation(
                    f"generator {axis} has a non-finite entry")
        for axis, (_, stray) in enumerate(cut):
            if stray > 0.0:
                raise PairInvariantViolation(
                    f"generator {axis} has an entry outside its graded blocks "
                    f"(largest stray entry {stray:.3e})")
        found = []
        for axis, (e, (given, _)) in enumerate(zip(steps, cut)):
            shapes = {p: (self.offsets[q][1], k)
                      for p, (_, k) in self.offsets.items()
                      if (q := _add(p, e)) in self.offsets}
            for p, b in given.items():
                if p not in shapes:
                    end = _add(p, e) if p in self.offsets else p
                    raise PairInvariantViolation(
                        f"generator {axis}: block point {end} carries no fiber")
                if b.shape != shapes[p]:
                    raise PairInvariantViolation(
                        f"generator {axis}: block of {p} has shape {b.shape}, "
                        f"not {shapes[p]}")
            blocks = {p: given[p] if p in given
                      else np.zeros(shape, dtype=complex)
                      for p, shape in shapes.items()}
            for b in blocks.values():
                b.flags.writeable = False
            found.append(blocks)
        return tuple(found)

    def _cut(self, e: Point, g) -> tuple[dict, float]:
        """A block dict with its points as tuples and its blocks as complex
        copies, and stray 0.0; or copies of a dense generator's blocks and
        the largest absolute entry outside them."""
        if isinstance(g, dict):
            return {tuple(int(c) for c in p): np.array(b, dtype=complex)
                    for p, b in g.items()}, 0.0
        g = np.asarray(g, dtype=complex)
        if g.shape != (self.dim, self.dim):
            raise PairInvariantViolation(
                f"generator shape {g.shape} does not match dim {self.dim}")
        blocks = {}
        rest = np.abs(g)
        for p in self.offsets:
            q = _add(p, e)
            if q in self.offsets:
                cut = (self.block_slice(q), self.block_slice(p))
                blocks[p] = g[cut].copy()
                rest[cut] = 0.0
        return blocks, float(rest.max(initial=0.0))

    @functools.cached_property
    def gens(self) -> tuple[np.ndarray, ...]:
        """The generators as read-only dense dim x dim matrices, written
        from the blocks on first use; every other entry is zero."""
        out = []
        for e, blocks in zip(self.window.generators(), self._blocks):
            g = np.zeros((self.dim, self.dim), dtype=complex)
            for p, b in blocks.items():
                g[self.block_slice(_add(p, e)), self.block_slice(p)] = b
            g.flags.writeable = False
            out.append(g)
        return tuple(out)

    def graded_blocks(self, axis: int) -> dict:
        """Blocks of generator ``axis`` by source point.

        The block of y maps the fiber of y into the fiber of y + e_i; it is
        listed for every y whose shifted point carries a fiber.  Every other
        entry of the generator is zero.
        """
        return dict(self._blocks[axis])

    def shift_blocks(self, a) -> dict[Point, np.ndarray]:
        """Blocks of V_a by source point y; the block of y maps the fiber
        of y into the fiber of y + a, and y is missing where V_a sends the
        fiber of y to zero.

        V_a is composed one generator block at a time in the order of
        :func:`isometry_v` (axis 0 first) only; before the pair's first
        shift along two or more axes, :meth:`_check_commuting` checks once
        that the generators commute.  Shifts are kept on the pair, so each
        is composed once; the dict returned is the pair's own and is read,
        not changed, by its callers.
        """
        a = tuple(int(c) for c in a)
        if a in self._shifts:
            return self._shifts[a]
        if len(a) != self.window.dim or any(c < 0 for c in a):
            raise ValueError("semigroup exponent must be a nonnegative vector")
        axes = [i for i, c in enumerate(a) if c > 0]
        if len(axes) > 1 and not self._commuting:
            self._check_commuting()
        if not axes:
            out = {p: np.eye(k, dtype=complex) for p, k in self.fibers}
        else:
            j = axes[-1]
            prev_a = a[:j] + (a[j] - 1,) + a[j + 1:]
            step = self._blocks[j]
            if not any(prev_a):
                out = dict(step)
            else:
                out = {}
                for y, b in self.shift_blocks(prev_a).items():
                    mid = _add(y, prev_a)
                    if mid in step:
                        out[y] = step[mid] @ b
        self._shifts[a] = out
        return out

    def _check_commuting(self):
        """Raise :class:`NonCommutingGenerators` unless, for all axes
        i < j, every block B^j_{y+e_i} B^i_y - B^i_{y+e_j} B^j_y of their
        commutator (a missing block is zero) is within 1e-10 of 0.  A
        non-finite commutator passes."""
        steps = self.window.generators()
        for i, j in itertools.combinations(range(self.window.dim), 2):
            bi, bj, diffs = self._blocks[i], self._blocks[j], []
            for y, (_, k) in self.offsets.items():
                yi, yj = _add(y, steps[i]), _add(y, steps[j])
                if (q := _add(yi, steps[j])) not in self.offsets:
                    continue
                diff = np.zeros((self.offsets[q][1], k), dtype=complex)
                if yi in self.offsets:
                    diff += bj[yi] @ bi[y]
                if yj in self.offsets:
                    diff -= bi[yj] @ bj[y]
                diffs.append(diff)
            worst = _max_opnorm([s for _, s in _stacks(diffs)], 1e-10)
            if worst > 1e-10:
                raise NonCommutingGenerators(
                    f"generators {i} and {j} do not commute "
                    f"(commutator {worst:.3e})")
        self._commuting = True

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.fibers)

    def block_slice(self, p: Point) -> slice:
        off, k = self.offsets[p]
        return slice(off, off + k)

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
        if safe.margin not in self._safe:
            self._safe[safe.margin] = tuple(
                p for p in self.offsets
                if all(c + safe.margin <= h for c, h in zip(p, self.window.hi)))
        return self._safe[safe.margin]


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
    pair, _ = canonical_sum(pspace.window, [(pspace.points, k)],
                            label or f"canonical{pspace.points[0]}x{k}")
    return pair


def sum_layout(parts) -> tuple[dict, dict]:
    """Block layout of a direct sum of position-graded summands.

    ``parts`` lists each summand's (point, fiber dimension) items.  Returns
    the summed fibers and the index (summand, point) -> first coordinate of
    that summand's fiber inside the block of the point: inside a block the
    summands follow list order.
    """
    fibers: dict[Point, int] = {}
    index: dict[tuple[int, Point], int] = {}
    for si, items in enumerate(parts):
        for p, k in items:
            index[(si, p)] = fibers.get(p, 0)
            fibers[p] = index[(si, p)] + k
    return fibers, index


def _sum_blocks(fibers: dict, index: dict, e: Point, parts) -> dict:
    """The blocks of one axis generator of a direct sum: ``parts`` holds
    each summand's blocks by source point, placed at its :func:`sum_layout`
    index in the sum's block."""
    out: dict[Point, np.ndarray] = {}
    for si, blocks in enumerate(parts):
        for y, b in blocks.items():
            q = _add(y, e)
            if y not in out:
                out[y] = np.zeros((fibers[q], fibers[y]), dtype=complex)
            r, c = index[(si, q)], index[(si, y)]
            out[y][r:r + b.shape[0], c:c + b.shape[1]] = b
    return out


def canonical_sum(window: LatticeWindow, comps, label: str):
    """Direct sum of canonical pairs, one per (points, multiplicity).

    Returns the pair and its :func:`sum_layout` index (summand, point) ->
    first coordinate inside the block of the point.  The block of each
    summand from y to y + e_i is the identity when both points lie in its
    set.
    """
    fibers, index = sum_layout([[(p, k) for p in pts] for pts, k in comps])
    eyes = [(set(pts), np.eye(k)) for pts, k in comps]
    gens = [_sum_blocks(fibers, index, e,
                        [{p: eye for p in pts if _add(p, e) in members}
                         for (pts, _), (members, eye) in zip(comps, eyes)])
            for e in window.generators()]
    return WeylPair(window, fibers, gens, label=label), index


def unitary_u(pair: WeylPair, theta) -> np.ndarray:
    """Character unitary: block of y scaled by exp(i theta.y)."""
    return np.diag(pair.position_phases(theta))


def isometry_v(pair: WeylPair, a) -> np.ndarray:
    """Semigroup element V_a as the ordered product of generator powers.

    This is the dense reference: it multiplies the whole generator
    matrices, and no pair check calls it.  The two extreme evaluation
    orders are compared; a discrepancy above 1e-10 means the generator
    matrices do not commute and the pair is corrupted.
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
        if _max_opnorm([(fwd - bwd)[None]], 1e-10) > 1e-10:
            raise NonCommutingGenerators(
                f"generator products differ for exponent {avec}")
    return fwd


def weyl_defect(pair: WeylPair, theta, a, safe: SafeRegion) -> float:
    """Norm of U V_a - exp(i theta.a) V_a U compressed to the safe blocks.

    ``theta`` is one angle vector or a stack of shape (m, d); the result is
    the maximum over the stack.  Generators that fail to commute raise
    :class:`NonCommutingGenerators`.  A non-finite block B_y (below) gives
    NaN.

    V_a maps the block of y into the block of y + a, and U scales each
    block by one phase, so the compressed defect is a partial block
    permutation whose norm is the largest ``|phase(y + a) - phase(a)
    phase(y)| * ||B_y||`` over the blocks B_y of V_a with y and y + a safe;
    they are read from :meth:`WeylPair.shift_blocks`, and the value is the
    exact defect.
    """
    avec = _check_shift(a, safe)
    thetas = np.atleast_2d(np.asarray(theta, dtype=float))
    blocks = pair.shift_blocks(avec)
    safe_pts = pair.safe_points(safe)
    members = set(safe_pts)
    src = [y for y in safe_pts if y in blocks and _add(y, avec) in members]
    mats = [blocks[y] for y in src]
    # one stacked 2-norm per block shape: ||B_y|| is computed once per block
    norms = np.empty(len(mats))
    for group, stack in _stacks(mats):
        # a non-finite block reads NaN, which the maximum below keeps
        norms[group] = (np.linalg.norm(stack, 2, axis=(1, 2))
                        if np.isfinite(stack).all() else math.nan)
    av = np.array(avec, dtype=float)
    per_angle = np.zeros(len(thetas))
    if src:
        coords = np.array(src, dtype=float)
        dev = _phase_deviation(thetas, coords, coords + av, av)
        per_angle = (dev * norms).max(axis=1)
    return float(per_angle.max())


def _check_shift(a, safe: SafeRegion) -> Point:
    avec = tuple(int(c) for c in a)
    if any(c > safe.margin for c in avec):
        raise MarginTooSmall(f"shift {avec} exceeds safe margin {safe.margin}")
    return avec


def _phase_deviation(thetas, src, dst, a) -> np.ndarray:
    """``|exp(i theta.dst) - exp(i theta.a) exp(i theta.src)|``.

    Rows follow the angle vectors in ``thetas``, columns the point pairs
    (``src[j]``, ``dst[j]``).  This is the factor by which the commutation
    defect scales an entry of V_a taking ``src`` to ``dst``.
    """
    def phases(pts):
        return np.exp(1j * (thetas @ np.asarray(pts, dtype=float).T))
    return np.abs(phases(dst) - phases(a[None, :]) * phases(src))


def _stacks(mats) -> list[tuple[list[int], np.ndarray]]:
    """The matrices grouped by shape: (positions in ``mats``, their stack)."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, m in enumerate(mats):
        by_shape.setdefault(m.shape, []).append(i)
    return [(group, np.stack([mats[i] for i in group]))
            for group in by_shape.values()]


def _max_opnorm(stacks, floor: float = 0.0) -> float:
    """Largest spectral norm in stacks of matrices, and at least ``floor``.

    ``||m||_F / sqrt(rank) <= ||m||_2 <= ||m||_F``, so a matrix whose
    Frobenius norm is at most the floor, or below the largest of those
    lower bounds, cannot raise the maximum and is never decomposed; a zero
    matrix never is.  A non-finite entry anywhere gives NaN, and no matrix
    is decomposed.
    """
    fros = [np.linalg.norm(s, axis=(1, 2)) for s in stacks]
    # a stack is scanned only when a norm is not finite (NaN, or an overflow)
    if not all(np.isfinite(f).all() or np.isfinite(s).all()
               for s, f in zip(stacks, fros)):
        return math.nan
    bound = max([floor] + [f.max(initial=0.0) / np.sqrt(min(s.shape[1:]))
                           for s, f in zip(stacks, fros)])
    worst = floor
    for s, f in zip(stacks, fros):
        keep = (f > floor) & (f >= bound)
        if keep.any():
            worst = max(worst, float(np.linalg.norm(s[keep], 2, axis=(1, 2)).max()))
    return worst


def intertwining_blocks(t: dict, steps, blocks_a, blocks_b):
    """The isometry blocks T_y* T_y - 1 and, for every generator, the
    residual blocks T_{y+e} A_y - B_y T_y of the relation T A = B T, each
    as stacks by shape for :func:`_max_opnorm`.

    ``t`` maps y to T_y, from the fiber of y under A to that under B;
    generator i moves y by ``steps[i]``, with blocks ``blocks_a[i]`` and
    ``blocks_b[i]`` by source point; a missing block is zero.  A generator
    list is the one point () with steps (): T_() is T, A_() a generator.
    """
    iso = [b.conj().T @ b - np.eye(b.shape[1]) for b in t.values()]
    res = []
    for e, found_a, found_b in zip(steps, blocks_a, blocks_b):
        for y in {**found_a, **found_b}:
            q = _add(y, e)
            ta = t[q] @ found_a[y] if y in found_a and q in t else None
            bt = found_b[y] @ t[y] if y in found_b and y in t else None
            if ta is not None or bt is not None:
                res.append(-bt if ta is None else ta if bt is None else ta - bt)
    return [s for _, s in _stacks(iso)], [s for _, s in _stacks(res)]


def isometry_defect(pair: WeylPair, a, safe: SafeRegion) -> float:
    """Norm of (V_a* V_a - 1) compressed to the safe blocks.

    V_a* V_a is block diagonal, so this is the largest ``||B_y* B_y - 1||``
    over the blocks B_y of :meth:`WeylPair.shift_blocks` at the safe points
    y, and 1 at a safe y whose fiber V_a sends to zero.  A non-finite entry
    on the safe blocks gives NaN.
    """
    avec = _check_shift(a, safe)
    blocks = pair.shift_blocks(avec)
    safe_pts = pair.safe_points(safe)
    mats = [blocks[y] for y in safe_pts if y in blocks]
    floor = 1.0 if len(mats) < len(safe_pts) else 0.0
    return _max_opnorm([s.conj().transpose(0, 2, 1) @ s - np.eye(s.shape[2])
                        for _, s in _stacks(mats)], floor)


def default_probe(dim: int) -> list[Point]:
    """All nonzero semigroup exponents up to 2 in each axis."""
    return [a for a in itertools.product(range(3), repeat=dim)
            if any(a)]


def check_commuting_ranges(pair: WeylPair, probe=None) -> float:
    """Largest commutator norm among range projections over the probe set.

    V_a V_a* is block diagonal, its block at z being B B* for the block B
    of V_a into z (:meth:`WeylPair.shift_blocks`), so each commutator is
    read per target point, from the blocks of the two shifts there (a point
    only one shift reaches contributes nothing); the commutator blocks are
    stacked by fiber dimension.  A non-finite entry in a commutator gives
    NaN.
    """
    if probe is None:
        probe = default_probe(pair.window.dim)
    # the range projection blocks by fiber dimension, and for each target
    # point the positions of its blocks among them: only two blocks at one
    # point can fail to commute
    projs: dict[int, list[np.ndarray]] = {}
    at: dict[Point, list[int]] = {}
    for a in probe:
        found = pair.shift_blocks(a)
        srcs = list(found)
        for group, b in _stacks([found[y] for y in srcs]):
            e = b @ b.conj().transpose(0, 2, 1)
            mats = projs.setdefault(e.shape[1], [])
            for g, m in zip(group, 0.5 * (e + e.conj().transpose(0, 2, 1))):
                at.setdefault(_add(srcs[g], a), []).append(len(mats))
                mats.append(m)
    both: dict[int, list[tuple[int, int]]] = {}
    for z, hits in at.items():
        both.setdefault(pair.offsets[z][1], []).extend(
            itertools.combinations(hits, 2))
    comms = []
    for k, pairs in both.items():
        if pairs:
            p = np.stack(projs[k])
            first, second = np.array(pairs).T
            comms.append(p[first] @ p[second] - p[second] @ p[first])
    return _max_opnorm(comms)


def direct_sum(pairs: list[WeylPair], label: str = "") -> WeylPair:
    """Blockwise direct sum on a common window; fibers add pointwise."""
    if not pairs:
        raise ValueError("direct_sum of an empty list")
    window = pairs[0].window
    for p in pairs[1:]:
        if p.window != window:
            raise WindowMismatch("direct summands live on different windows")
    fibers, index = sum_layout([p.fibers for p in pairs])
    gens = [_sum_blocks(fibers, index, e, [p._blocks[axis] for p in pairs])
            for axis, e in enumerate(window.generators())]
    return WeylPair(window, fibers, gens,
                    label=label or "+".join(p.label for p in pairs))


def dual_grid(window: LatticeWindow) -> list[np.ndarray]:
    """Finite dual grid: theta_i = 2 pi j / N_i with N_i the window sides."""
    axes = [np.arange(n) * (2.0 * np.pi / n) for n in window.sides]
    return [np.array(t) for t in itertools.product(*axes)]


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

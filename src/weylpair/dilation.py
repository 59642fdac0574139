"""Minimal unitary dilation with a depth budget, and classification.

A pair with commuting range projections splits into canonical components,
each one upward-invariant set with a constant fiber multiplicity.  Every
component holds the window's top corner hi, and the Morita equivalence
fixes it by its fiber there: the range projections of the V_{hi-y} at hi
commute, each joint eigenspace is one component, the points that reach it
form its set and its dimension is the multiplicity.  The unitary witness
of the split is carried from those eigenspaces down the same routing and
checked block by block.

The minimal unitary dilation of such a pair is realised concretely: the
window is extended downward by the depth, each component support grows to
every point from which a budget shift re-enters the component, and the
dilated pair is the canonical sum of the enlarged supports, built from its
0/1 partial-identity blocks.  Inside the declared budget every dilation
identity holds exactly; outside it nothing is claimed.  The reassembled sum
of a decomposition and the dilated sum are both ``pairs.canonical_sum``.
Every W_x is a coordinate map on the dilated layout
(``DilationBundle.shift_map``), and only ``DilationBundle.w`` writes it out
dense.  The embedding of the base space is kept as its blocks, one per base
point, and ``dilation_checks`` reads the defects of the dilation on those
blocks.

The module also carries the covariant representation (W, E) read off the
same model: the projection family E_x (projections onto shifted copies of
the embedded base space, 0/1 diagonals found by a shift and a mask lookup
on a per-bundle table), integration of test functions against it as a sum
of diagonals, the joint spectrum of the commuting family as the distinct
columns of the diagonal table, the extension of the base character
unitaries as the dilated pair's own character unitaries, and compression
back onto the base space block by block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    DepthZeroDegenerate,
    EmptySetError,
    FiberMismatch,
    InvarianceViolation,
    NonCommutingRanges,
    PatternNotYSet,
)
from .lattice import LatticeWindow, PSet, Point, SetKind, _add, _sub, translate_pset
from .pairs import (WeylPair, _max_opnorm, canonical_sum,
                    check_commuting_ranges, intertwining_blocks, unitary_u)

RANGE_TOL = 1e-10


# ---------------------------------------------------------------------------
# classification of commuting-range pairs


@dataclass(eq=False)
class ComponentResult:
    """One factor block: canonical set, orbit translation, multiplicity."""

    pspace: PSet
    translation: Point
    multiplicity: int
    raw: PSet

    def to_json(self) -> dict:
        from .serialize import pset_to_json

        return {
            "pspace": pset_to_json(self.pspace),
            "translation": list(self.translation),
            "multiplicity": self.multiplicity,
        }


@dataclass(eq=False)
class Decomposition:
    """Components and the witness onto their reassembled sum, kept as
    ``bases``: (component, point) to the component's rows of the witness
    block there, the adjoint of an orthonormal basis of its range.  The
    witness block of a point stacks those rows in component order."""

    components: list[ComponentResult]
    reassembled: WeylPair = field(repr=False)
    bases: dict = field(repr=False)


def decompose_full(pair: WeylPair) -> Decomposition:
    """Split a commuting-range position-graded pair into canonical parts.

    Verify commuting ranges, then read the components at the window's top
    corner hi.  Walking down the Morita routing (from y + e to y on the
    first axis e with room), m_y = m_{y+e} B_y is the block of V_{hi-y}
    from the fiber of y into the fiber of hi, B_y the pair's block.  The
    fiber of hi splits jointly along the range projections m_y m_y*, in
    point order: each joint eigenspace is one component, the points y whose
    projection is 1 on it its upward set, and its dimension the
    multiplicity; equal sets merge.  With q a component's basis at hi, its
    rows of the witness block of y are q* m_y.  FiberMismatch is raised
    unless every eigenvalue lies within 1e-8 of 0 or 1, every set is
    upward invariant, the canonical sum of the components has the pair's
    fibers, and the witness W passes ``pairs.intertwining_blocks`` against
    the sum: every W_y* W_y - 1 and every W_{y+e} B_y - C_y W_y, C_y the
    sum's block, within 1e-8.
    """
    worst = check_commuting_ranges(pair)
    if not worst <= RANGE_TOL:  # a NaN commutator is refused too
        raise NonCommutingRanges(
            f"range projections fail to commute (max commutator {worst:.3e})")
    hi, steps = pair.window.hi, pair.window.generators()
    if hi not in pair.offsets:
        raise FiberMismatch(f"factor-block support is not upward invariant: "
                            f"the top corner {hi} carries no fiber")
    points = pair.points
    m = {hi: np.eye(pair.offsets[hi][1])}
    for y in reversed(points[:-1]):  # y + e_i comes before y
        axis = next(i for i, (c, h) in enumerate(zip(y, hi)) if c < h)
        b = pair._blocks[axis].get(y)
        m[y] = (np.zeros((len(m[hi]), pair.offsets[y][1])) if b is None
                else m[_add(y, steps[axis])] @ b)

    # each branch (orthonormal basis, points where its eigenvalue is 1) is
    # split along the eigenspaces of its compression of the next range
    branches = [(np.eye(len(m[hi]), dtype=complex), [])]
    for y in points:
        proj = m[y] @ m[y].conj().T
        refined = []
        for q, pat in branches:
            vals, vecs = np.linalg.eigh(q.conj().T @ proj @ q)
            ones = vals > 0.5
            if np.abs(vals - ones).max() > 1e-8:
                raise FiberMismatch(
                    f"the range of V_{_sub(hi, y)} at the top corner has "
                    f"eigenvalues {vals}, not 0 and 1: the pair is not "
                    f"unitarily equivalent to a canonical sum")
            refined += [(q @ vecs[:, part], p) for part, p in
                        ((ones, pat + [y]), (~ones, pat)) if part.any()]
        branches = refined
    merged = {}
    for q, pat in branches:
        merged.setdefault(tuple(pat), []).append(q)
    comps = []
    for pat, qs in merged.items():
        try:
            raw = PSet(pair.window, pat, SetKind.PSPACE)
        except InvarianceViolation as exc:
            raise FiberMismatch(
                f"factor-block support is not upward invariant: {exc}") from exc
        comps.append((raw, np.hstack(qs).conj().T))
    comps.sort(key=lambda c: c[0].points)
    reassembled, _ = canonical_sum(
        pair.window, [(raw.points, len(q)) for raw, q in comps], "gradedsum")
    if reassembled.fibers != pair.fibers:
        raise FiberMismatch("reassembled fibers differ from the input's")
    bases = {(ci, y): q @ m[y] for ci, (raw, q) in enumerate(comps)
             for y in raw.points}
    w = {}
    for (_, y), rows in bases.items():  # the sum's components in order
        w.setdefault(y, []).append(rows)
    w = {y: np.vstack(rows) for y, rows in w.items()}
    iso, res = intertwining_blocks(w, steps, pair._blocks, reassembled._blocks)
    if not _max_opnorm(iso + res, 1e-8) <= 1e-8:
        raise FiberMismatch(
            "reassembled canonical sum is not unitarily equivalent to the "
            "input; the pair is not a truncation of a covariant model")

    results = []
    for raw, q in comps:
        t = _sub(raw.points[0], pair.window.lo)
        normalized, _ = translate_pset(raw, tuple(-c for c in t))
        results.append(ComponentResult(normalized, t, len(q), raw))
    return Decomposition(results, reassembled, bases)


def decompose(pair: WeylPair) -> list[ComponentResult]:
    """Canonical components of a commuting-range pair (orbit normalised)."""
    return decompose_full(pair).components


# ---------------------------------------------------------------------------
# the dilation bundle


@dataclass(eq=False)
class DilationBundle:
    """Concrete minimal unitary dilation of a commuting-range pair.

    The dilation space is graded over the window extended downward by the
    depth; ``supports`` records each component's enlarged set.  The
    embedding is the isometry carrying the base space onto the blocks of
    the original component supports.  It maps the fiber of each base point
    y into the dilated block of y, so it is kept as those blocks:
    ``embed_blocks`` maps y to its (dilated fiber) x (base fiber) block, and
    ``embed`` is the dense view.  All unitarity, covariance and exhaustion
    claims are made only for shifts of supremum norm at most ``budget``, the
    depth.
    """

    base: WeylPair
    depth: int
    window_ext: LatticeWindow
    components: list  # (raw PSet in base window, multiplicity)
    supports: list    # point tuples in the extended window, aligned
    dilated: WeylPair = field(repr=False)
    index: dict = field(repr=False)  # its sum_layout index, inside each block
    embed_blocks: dict = field(repr=False)
    _maps: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.dilated.dim

    @property
    def budget(self) -> int:
        return self.depth

    @cached_property
    def embed(self) -> np.ndarray:
        """The embedding as a dense dim x (base dim) matrix."""
        out = np.zeros((self.dim, self.base.dim), dtype=complex)
        for y, block in self.embed_blocks.items():
            out[self.dilated.block_slice(y), self.base.block_slice(y)] = block
        return out

    @cached_property
    def _block_table(self):
        """Every block (component, point) in coordinate order, as the
        point's offset from the extended window's corner and the component;
        the block of each coordinate; and each support's window points."""
        wext = self.window_ext
        blocks = sorted((p, r, ci) for (ci, p), r in self.index.items())
        member = np.zeros((len(self.supports), wext.cardinality), dtype=bool)
        for p, _, ci in blocks:
            member[ci, wext._table.index[p]] = True
        offsets = np.array([p for p, _, _ in blocks], dtype=int) - wext.lo
        comp = np.array([ci for _, _, ci in blocks], dtype=int)
        owner = np.repeat(np.arange(len(blocks)),
                          [self.components[ci][1] for _, _, ci in blocks])
        return offsets, comp, owner, member

    def safe_indices(self, shifts) -> np.ndarray:
        """Blocks that stay inside their component under all given shifts."""
        offsets, comp, owner, member = self._block_table
        sides = self.window_ext.sides
        keep = np.ones(len(offsets), dtype=bool)
        for s in shifts:
            q = offsets + np.asarray(s, dtype=int)
            keep &= np.all((q >= 0) & (q < sides), axis=1)
            keep &= member[comp, np.ravel_multi_index(q.T, sides, mode="clip")]
        return np.flatnonzero(keep[owner])

    @cached_property
    def _range_table(self):
        """Each block's point as an offset from the base window's corner, and
        each component's members as a mask over the base window."""
        window = self.base.window
        member = np.zeros((len(self.components), window.cardinality), dtype=bool)
        for ci, (raw, _) in enumerate(self.components):
            member[ci, list(raw.indices)] = True
        delta = np.subtract(self.window_ext.lo, window.lo)
        return self._block_table[0] + delta, member

    @cached_property
    def _diagonals(self) -> dict:
        """The :func:`e_diagonal` of every shift of the budget box, by shift."""
        _, comp, owner, _ = self._block_table
        points, member = self._range_table
        sides = self.base.window.sides
        box = list(budget_box(self).points())
        z = points[None] - np.array(box, dtype=int)[:, None]
        inside = np.all(z >= 0, axis=2)
        clipped = np.moveaxis(np.minimum(z, np.subtract(sides, 1)), -1, 0)
        inside &= member[comp, np.ravel_multi_index(tuple(clipped), sides,
                                                    mode="clip")]
        return dict(zip(box, inside[:, owner].astype(float)))

    def _check_shift(self, x) -> Point:
        """``x`` as a point, if W_x is available.

        Semigroup directions are always available; mixed or negative shifts
        require a positive depth and are budgeted by the supremum norm.
        """
        xv = tuple(int(c) for c in x)
        if any(c < 0 for c in xv):
            if self.depth == 0:
                raise DepthZeroDegenerate(
                    "depth-zero dilation supports forward shifts only")
            if max(abs(c) for c in xv) > self.budget:
                raise BudgetExceeded(f"shift {xv} exceeds budget {self.budget}")
        return xv

    def shift_map(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate map (rows, cols) of W_x, kept per shift: the block of
        (component, y) goes identically onto the block of (component,
        y + x) when both points lie in the support, so coordinate
        ``cols[t]`` goes to ``rows[t]``; every other coordinate goes to
        zero."""
        xv = self._check_shift(x)
        if xv not in self._maps:
            offsets = self.dilated.offsets
            rows: list[int] = []
            cols: list[int] = []
            for (ci, p), c in self.index.items():
                q = _add(p, xv)
                if (ci, q) in self.index:
                    k = self.components[ci][1]
                    r = offsets[q][0] + self.index[(ci, q)]
                    c += offsets[p][0]
                    rows += range(r, r + k)
                    cols += range(c, c + k)
            self._maps[xv] = (np.array(rows, dtype=int),
                              np.array(cols, dtype=int))
        return self._maps[xv]

    def w(self, x) -> np.ndarray:
        """Dilated group element W_x as a dense clipped block shift."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[self.shift_map(x)] = 1.0
        return out


def _extended_support(raw: PSet, wext: LatticeWindow, depth: int):
    """Points of the extended window from which a shift in the depth box
    re-enters the set.  The set is upward invariant inside its window, so
    some shift does exactly when the largest one, clipped to the window,
    does: p qualifies when min(p + depth, hi) lies in the set."""
    members = set(raw.points)
    hi = raw.window.hi
    return tuple(p for p in wext.points()
                 if tuple(min(c + depth, h) for c, h in zip(p, hi)) in members)


def minimal_dilation(pair: WeylPair, depth: int) -> DilationBundle:
    """Minimal unitary dilation of a commuting-range pair at a given depth.

    Raises NonCommutingRanges when the base pair fails the commuting-range
    probe.  Depth zero returns the degenerate bundle whose group elements
    exist for semigroup directions only.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    dec = decompose_full(pair)
    window = pair.window
    wext = LatticeWindow(tuple(l - depth for l in window.lo), window.hi,
                         window.weight)
    comps = [(c.raw, c.multiplicity) for c in dec.components]
    supports = [_extended_support(raw, wext, depth) for raw, _ in comps]
    dilated, idx = canonical_sum(
        wext, [(s, k) for s, (_, k) in zip(supports, comps)], "gradedsum")
    # each component's witness rows at y go to its rows of the dilated block
    blocks = {y: np.zeros((dilated.offsets[y][1], k), dtype=complex)
              for y, k in pair.fibers}
    for (ci, y), rows in dec.bases.items():
        blocks[y][idx[(ci, y)]:idx[(ci, y)] + len(rows)] = rows
    return DilationBundle(
        base=pair, depth=depth, window_ext=wext,
        components=comps, supports=supports, dilated=dilated, index=idx,
        embed_blocks=blocks,
    )


def dilation_checks(bundle: DilationBundle, tol: float):
    """The defects of a dilation, read on its blocks, as (name, value, tol).

    With E the embedding, V_e the base generators and W_x the dilated
    shifts:

    - ``embed-isometry`` (tol 1e-12): ||E* E - 1||, the worst fiber block;
    - ``dilation-extends-isometries``: max over e of ||E V_e - W_e E||.
      Its block from the fiber of y lands in the dilated block of y + e,
      so the blocks sit at distinct (row, column) points and the operator
      norm is their maximum.  Both are read from the blocks of
      ``pairs.intertwining_blocks`` for the relation E V_e = W_e E;
    - ``exhaustion-defect``: ||1 - P||, with P the projection onto the span
      of W_{-a} E over the depth box (singular values above 1e-10).  Every
      column of W_{-a} E lives in one dilated point, so the span splits by
      point: one zero-padded stacked SVD over the points;
    - ``family-monotone``: max of d_y - d_x over x <= y in the budget box,
      d_x the diagonal of E_x;
    - ``family-covariant``: max of |d_x - d_{x+e}| on the coordinates that
      W_e carries (W_e E_x W_e* = E_{x+e}); W_{-e} carries the same pairs
      backwards, so the steps e = +e_i cover -e_i as well.
    """
    base, dilated = bundle.base, bundle.dilated
    blocks = bundle.embed_blocks
    iso, res = intertwining_blocks(blocks, base.window.generators(),
                                   base._blocks, dilated._blocks)
    iso, extends = _max_opnorm(iso), _max_opnorm(res)

    # exhaustion: W_{-a} moves the rows of each component from the dilated
    # block of y to its block of y - a when the support holds both points
    offsets = dilated.offsets
    rows_at = {}  # point -> component -> its rows in the dilated block
    for (ci, p), r0 in bundle.index.items():
        rows_at.setdefault(p, {})[ci] = slice(r0, r0 + bundle.components[ci][1])
    moves = {}  # point -> [(block, [(rows there, rows of block)])]
    for a in itertools.product(range(bundle.depth + 1), repeat=base.window.dim):
        for y, block in blocks.items():
            q = _sub(y, a)
            there = rows_at.get(q, {})
            parts = [(there[ci], here) for ci, here in rows_at[y].items()
                     if ci in there]
            if parts:
                moves.setdefault(q, []).append((block, parts))
    points = list(offsets)
    width = max(sum(b.shape[1] for b, _ in moves.get(q, ())) for q in points)
    stack = np.zeros((len(points), max(k for _, k in offsets.values()), width),
                     dtype=complex)
    for i, q in enumerate(points):
        col = 0
        for block, parts in moves.get(q, ()):
            for there, here in parts:
                stack[i, there, col:col + block.shape[1]] = block[here]
            col += block.shape[1]
    u, sv, _ = np.linalg.svd(stack, full_matrices=False)
    span = u * (sv > 1e-10)[:, None, :]
    sizes = np.array([offsets[q][1] for q in points])
    eye = (np.arange(stack.shape[1]) < sizes[:, None])[:, :, None] \
        * np.eye(stack.shape[1])
    exhaustion = _max_opnorm([eye - span @ span.conj().transpose(0, 2, 1)])

    box = list(budget_box(bundle).points())
    diags = np.array([e_diagonal(bundle, x) for x in box])
    grid = np.array(box)
    low, high = np.nonzero(np.all(grid[:, None] <= grid[None], axis=2))
    monotone = float((diags[high] - diags[low]).max())
    at = {x: i for i, x in enumerate(box)}
    covariant = 0.0
    for axis, e in enumerate(base.window.generators()):
        rows, cols = bundle.shift_map(e)  # the 0/1 entries of W_e
        src = [i for i, x in enumerate(box) if _add(x, e) in at]
        dst = [at[_add(box[i], e)] for i in src]
        covariant = max(covariant, float(np.abs(
            diags[src][:, cols] - diags[dst][:, rows]).max(initial=0.0)))
    return [("embed-isometry", iso, 1e-12),
            ("dilation-extends-isometries", extends, tol),
            ("exhaustion-defect", exhaustion, tol),
            ("family-monotone", monotone, tol),
            ("family-covariant", covariant, tol)]


def e_diagonal(bundle: DilationBundle, x) -> np.ndarray:
    """Diagonal of E_x, the projection onto W_x(embedded base space).

    Computed from the model: the block of y belongs to the range exactly
    when y - x dominates a minimal element of the component, that is when
    y - x >= lo and min(y - x, hi) lies in the component's set.  The
    bundle computes the diagonals of the whole budget box at once, with
    one shift and one mask lookup on its table for every block.
    """
    xv = tuple(int(c) for c in x)
    if len(xv) != bundle.base.window.dim:
        raise ValueError(f"shift {xv} does not match the window dimension")
    if max(abs(c) for c in xv) > bundle.budget:
        raise BudgetExceeded(f"shift {xv} exceeds budget {bundle.budget}")
    return bundle._diagonals[xv].copy()


def project_e(bundle: DilationBundle, x) -> np.ndarray:
    """Projection E_x onto the shifted copy W_x(embedded base space).

    It is the diagonal matrix of :func:`e_diagonal`.  These projections
    are mutually commuting, decreasing in x and covariant under the dilated
    shifts inside the budget.
    """
    return np.diag(e_diagonal(bundle, x).astype(complex))


def budget_box(bundle: DilationBundle) -> LatticeWindow:
    r = bundle.budget
    d = bundle.base.window.dim
    return LatticeWindow((-r,) * d, (r,) * d, bundle.base.window.weight)


# ---------------------------------------------------------------------------
# covariant representation: family, integration, joint spectrum


@dataclass(eq=False)
class CovariantRep:
    """The projection family of a dilation bundle, indexed by its budget
    box: E_x is :func:`project_e` of the bundle."""

    bundle: DilationBundle

    @classmethod
    def from_bundle(cls, bundle: DilationBundle) -> "CovariantRep":
        return cls(bundle)

    @cached_property
    def box(self) -> LatticeWindow:
        return budget_box(self.bundle)

    def e(self, x) -> np.ndarray:
        return project_e(self.bundle, x)


def integrate_family(rep: CovariantRep, f) -> np.ndarray:
    """Integrate a test function against the projection family.

    Returns weight * sum_x f(x) E_x, a sum of the :func:`e_diagonal`
    diagonals; linear in f, and monotone differences of deltas give
    positive semidefinite results.
    """
    out = np.zeros(rep.bundle.dim, dtype=complex)
    for p, v in f.support:
        out += rep.box.weight * v * e_diagonal(rep.bundle, p)
    return np.diag(out)


def joint_spectrum(rep: CovariantRep):
    """Simultaneous eigenvalue patterns of the commuting projection family.

    Every E_x is a 0/1 diagonal, so each coordinate is a joint eigenvector:
    its pattern (the box points whose E_x is one on it) is its column of
    the :func:`e_diagonal` table, and the coordinates of one column span a
    joint eigenspace.  Each pattern must be downward invariant inside the
    box; anything else signals a non-covariant family and raises
    PatternNotYSet.  Returns (pattern set, eigenspace dimension) pairs.
    """
    pts = sorted(rep.box.points())
    table = np.array([e_diagonal(rep.bundle, x) for x in pts])
    cols, counts = np.unique(table.T > 0.5, axis=0, return_counts=True)
    out = []
    for col, count in zip(cols, counts):
        pat = tuple(x for x, one in zip(pts, col) if one)
        try:
            pattern = PSet(rep.box, pat, SetKind.YSET)
        except (InvarianceViolation, EmptySetError) as exc:
            raise PatternNotYSet(f"pattern {pat} fails downward invariance: "
                                 f"{exc}") from exc
        out.append((pattern, int(count)))
    out.sort(key=lambda t: t[0].points)
    return out


# ---------------------------------------------------------------------------
# extending the character unitaries to the dilation space


def extend_u(bundle: DilationBundle, theta) -> np.ndarray:
    """Extend a base character unitary to the dilation space.

    The extension is the dilated pair's character unitary, exp(i theta.y)
    on the block of y.  The embedding maps the fiber of each base point y
    into the dilated block of y, so this restricts to the base unitary on
    the embedded space exactly, and on the block of y it is the base
    unitary pulled back through any budget shift that re-enters the
    component.  It commutes with every E_x and intertwines the dilated
    shifts with the character phase inside the budget.
    """
    return unitary_u(bundle.dilated, theta)


def compress_to_base(rep: CovariantRep) -> WeylPair:
    """Compress the dilated shifts back onto the embedded base space.

    With E_y the embedding block of y and C_y the dilated generator block
    from y, the compressed generator block from y is E_{y+e}* C_y E_y.
    This inverts the dilation: the compressed pair is the base pair again,
    up to the rounding of the reassembly witness.
    """
    b = rep.bundle
    emb = b.embed_blocks
    gens = [{y: emb[_add(y, e)].conj().T @ blocks[y] @ emb[y]
             for y in emb if _add(y, e) in emb}
            for e, blocks in zip(b.base.window.generators(), b.dilated._blocks)]
    return WeylPair(b.base.window, dict(b.base.fibers), gens,
                    label=f"compressed({b.base.label})")

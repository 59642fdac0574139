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
(``DilationBundle.shift_map``): ``DilationBundle.apply_w`` applies it as a
row gather, and only ``DilationBundle.w`` writes it out dense.  The
embedding of the base space is kept as its blocks, one per base point, and
``dilation_checks`` reads the defects of the dilation on those blocks.

The module also carries the covariant projection family E_x (projections
onto shifted copies of the embedded base space, read off as 0/1 diagonals
by a shift and a mask lookup on a per-bundle table),
integration of test functions against it, the joint spectrum of the
commuting family, and the extension of the base character unitaries to the
dilation space.
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
    WellDefinednessViolation,
)
from .lattice import LatticeWindow, PSet, Point, SetKind, _add, _sub, translate_pset
from .pairs import (WeylPair, _max_opnorm, _stacks, canonical_sum,
                    check_commuting_ranges, unitary_u)

RANGE_TOL = 1e-10
#: Largest disagreement between two evaluation routes of ``extend_u``.
ROUTE_TOL = 1e-8


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


def _joint_split(dim: int, members, refuse):
    """Joint eigenspaces of commuting Hermitian matrices with eigenvalues 0
    and 1, as (orthonormal basis, pattern) pairs.

    ``members`` yields (point, matrix) in order.  Each branch is split
    along the eigenspaces of its compression q* M q, and its pattern lists
    the points where its eigenvalue is 1.  An eigenvalue more than 1e-8
    from 0 and 1 raises ``refuse(point, eigenvalues)``.
    """
    branches = [(np.eye(dim, dtype=complex), [])]
    for x, mat in members:
        refined = []
        for q, pat in branches:
            vals, vecs = np.linalg.eigh(q.conj().T @ mat @ q)
            ones = vals > 0.5
            if np.abs(vals - ones).max() > 1e-8:
                raise refuse(x, vals)
            refined += [(q @ vecs[:, part], p) for part, p in
                        ((ones, pat + [x]), (~ones, pat)) if part.any()]
        branches = refined
    return branches


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
    fibers, every witness block W_y is unitary and every W_{y+e} B_y W_y*
    equals the sum's block C_y within 1e-8.
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

    def refuse(y, vals):
        return FiberMismatch(
            f"the range of V_{_sub(hi, y)} at the top corner has eigenvalues "
            f"{vals}, not 0 and 1: the pair is not unitarily equivalent to a "
            f"canonical sum")

    merged = {}
    for q, pat in _joint_split(len(m[hi]), ((y, m[y] @ m[y].conj().T)
                                            for y in points), refuse):
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
    mats = [b @ b.conj().T - np.eye(len(b)) for b in w.values()]
    for axis, e in enumerate(steps):
        mats += [w[_add(y, e)] @ b @ w[y].conj().T - reassembled._blocks[axis][y]
                 for y, b in pair._blocks[axis].items()]
    if _max_opnorm([s for _, s in _stacks(mats)], 1e-8) > 1e-8:
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
    claims are made for shifts of supremum norm at most ``budget`` only.
    """

    base: WeylPair
    depth: int
    budget: int
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

    def apply_w(self, x, m) -> np.ndarray:
        """W_x @ m, as a row gather of the complex ``m``.

        W_x is a 0/1 partial permutation, so the gather has the values of
        the product; only the sign of a zero entry may differ.
        """
        rows, cols = self.shift_map(x)
        m = np.asarray(m, dtype=complex)
        out = np.zeros((self.dim,) + m.shape[1:], dtype=complex)
        out[rows] = m[cols]
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
        base=pair, depth=depth, budget=depth, window_ext=wext,
        components=comps, supports=supports, dilated=dilated, index=idx,
        embed_blocks=blocks,
    )


def dilation_checks(bundle: DilationBundle, tol: float):
    """The defects of a dilation, read on its blocks, as (name, value, tol).

    With E the embedding, V_e the base generators and W_x the dilated
    shifts:

    - ``embed-isometry`` (tol 1e-12): ||E* E - 1||, the worst fiber block;
    - ``dilation-extends-isometries``: max over e of ||W_e E - E V_e||.
      Its block from the fiber of y lands in the dilated block of y + e,
      so the blocks sit at distinct (row, column) points and the operator
      norm is their maximum;
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
    iso = _max_opnorm([s for _, s in _stacks(
        [b.conj().T @ b - np.eye(b.shape[1]) for b in blocks.values()])])
    diffs = []
    for axis, e in enumerate(base.window.generators()):
        w_blocks = dilated.graded_blocks(axis)
        v_blocks = base.graded_blocks(axis)
        for y, block in blocks.items():
            q = _add(y, e)
            if q not in dilated.offsets:
                continue  # W_e and V_e both send the fiber of y to zero
            diff = w_blocks[y] @ block
            if y in v_blocks:
                diff -= blocks[q] @ v_blocks[y]
            diffs.append(diff)
    extends = _max_opnorm([s for _, s in _stacks(diffs)])

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
    """A commuting projection family indexed by a budget box.

    Usually produced from a dilation bundle; hand-built families (for
    degenerate examples) only need the family and the box.
    """

    bundle: DilationBundle | None
    box: LatticeWindow
    efamily: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_bundle(cls, bundle: DilationBundle) -> "CovariantRep":
        box = budget_box(bundle)
        fam = {p: project_e(bundle, p) for p in box.points()}
        return cls(bundle, box, fam)

    def e(self, x) -> np.ndarray:
        xv = tuple(int(c) for c in x)
        if xv not in self.efamily:
            raise BudgetExceeded(f"{xv} outside the family box")
        return self.efamily[xv]


def integrate_family(rep: CovariantRep, f) -> np.ndarray:
    """Integrate a test function against the projection family.

    Returns weight * sum_x f(x) E_x; linear in f, and monotone differences
    of deltas give positive semidefinite results.
    """
    out = None
    for p, v in f.support:
        term = rep.box.weight * v * rep.e(p)
        out = term if out is None else out + term
    if out is None:
        dim = next(iter(rep.efamily.values())).shape[0]
        out = np.zeros((dim, dim), dtype=complex)
    return out


def joint_spectrum(rep: CovariantRep):
    """Simultaneous eigenvalue patterns of the commuting projection family.

    Splits eigenspaces along each family member in lexicographic order
    (``_joint_split``, eigenvalues within 1e-8 of 0 or 1).  Each pattern
    (the set of indices where the family acts as one) must be downward
    invariant inside the box; anything else signals numerical failure or a
    non-covariant family.  Returns (pattern set, eigenspace dimension) pairs.
    """
    pts = sorted(rep.box.points())

    def refuse(x, vals):
        return PatternNotYSet(f"family member at {x} is not a projection on a "
                              f"joint eigenspace (eigenvalues {vals})")

    branches = _joint_split(rep.e(pts[0]).shape[0],
                            ((x, rep.e(x)) for x in pts), refuse)
    out = []
    for q, pat in branches:
        try:
            pattern = PSet(rep.box, tuple(pat), SetKind.YSET)
        except (InvarianceViolation, EmptySetError) as exc:
            raise PatternNotYSet(f"pattern {pat} fails downward invariance: "
                                 f"{exc}") from exc
        out.append((pattern, q.shape[1]))
    out.sort(key=lambda t: t[0].points)
    return out


# ---------------------------------------------------------------------------
# extending the character unitaries to the dilation space


def extend_u(bundle: DilationBundle, theta,
             u_on_h: np.ndarray | None = None) -> np.ndarray:
    """Extend a base character unitary to the dilation space.

    On the block of y the extension acts by the base unitary pulled back
    through any budget shift that re-enters the component; all admissible
    routes must agree within ``ROUTE_TOL``, otherwise the input is not
    covariant and WellDefinednessViolation is raised.  The extension
    restricts to the base unitary on the embedded space exactly and
    intertwines the dilated shifts with the character phase inside the
    budget.
    """
    th = np.asarray(theta, dtype=float)
    if u_on_h is None:
        u_on_h = unitary_u(bundle.base, th)
    g = bundle.embed @ np.asarray(u_on_h, dtype=complex) @ bundle.embed.conj().T
    # the embedded unitary must stay block diagonal for routes to make sense
    stray = g.copy()
    out = np.zeros((bundle.dim, bundle.dim), dtype=complex)
    offsets = bundle.dilated.offsets
    box = list(itertools.product(range(bundle.budget + 1),
                                 repeat=bundle.base.window.dim))
    for ci, ((raw, k), supp) in enumerate(zip(bundle.components, bundle.supports)):
        members = set(raw.points)
        gblocks = {}
        for p in raw.points:
            r0 = offsets[p][0] + bundle.index[(ci, p)]
            gblocks[p] = g[r0:r0 + k, r0:r0 + k]
            stray[r0:r0 + k, r0:r0 + k] = 0.0
        for p in supp:
            routes = []
            for a in box:
                q = _add(p, a)
                if q in members:
                    phase = np.exp(-1j * float(th @ np.asarray(a, dtype=float)))
                    routes.append(phase * gblocks[q])
            if not routes:
                raise BudgetExceeded(
                    f"block {p} unreachable within budget {bundle.budget}")
            for other in routes[1:]:
                if np.linalg.norm(other - routes[0], 2) > ROUTE_TOL:
                    raise WellDefinednessViolation(
                        f"evaluation routes disagree at block {p}")
            r0 = offsets[p][0] + bundle.index[(ci, p)]
            out[r0:r0 + k, r0:r0 + k] = routes[0]
    if np.abs(stray).max(initial=0.0) > ROUTE_TOL:
        raise WellDefinednessViolation(
            "base unitary does not preserve the position grading")
    return out


def compress_to_base(rep: CovariantRep) -> WeylPair:
    """Compress the dilated shifts back onto the embedded base space.

    This inverts the dilation: the compressed pair is the base pair again,
    up to the (numerically exact) reassembly witness.
    """
    if rep.bundle is None:
        raise ValueError("compression needs a bundle-backed representation")
    b = rep.bundle
    window = b.base.window
    gens = []
    for e in window.generators():
        gens.append(b.embed.conj().T @ b.apply_w(e, b.embed))
    fibers = dict(b.base.fibers)
    return WeylPair(window, fibers, gens, label=f"compressed({b.base.label})")

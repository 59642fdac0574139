"""Minimal unitary dilation with a depth budget, and classification.

A pair with commuting range projections splits into canonical components
(one upward-invariant set with a constant fiber multiplicity per minimal
central projection of the generated algebra).  The minimal central
projections are the eigenprojections of one generic Hermitian element of
the centre that ``commutant.summarize`` returns.  For a represented pair
the centre and this split are solved on the free fibers of the graded
solve and lifted to full space, where each projection is checked against
the generators.

The minimal unitary dilation of such a pair is realised concretely: the
window is extended downward by the depth, each component support grows to
every point from which a budget shift re-enters the component, and the
dilated generators are the block shifts of the enlarged supports.  Inside
the declared budget every dilation identity holds exactly; outside it
nothing is claimed.  The reassembled sum of a decomposition and the dilated
sum are both ``pairs.canonical_sum``, and every W_x is the same
``pairs.shift_map`` on the dilated layout: ``DilationBundle.apply_w``
applies it as a row gather, ``DilationBundle.w`` writes it out dense.

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

from .commutant import (AlgebraSummary, RepGens, _restrict, opnorm_exceeds,
                        summarize, unitarily_equivalent)
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
from .pairs import (WeylPair, block_shift, canonical_sum, check_commuting_ranges,
                    shift_map, unitary_u)

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
    components: list[ComponentResult]
    witness: np.ndarray = field(repr=False)
    reassembled: WeylPair = field(repr=False)
    reassembled_index: dict = field(repr=False, default_factory=dict)


def _minimal_central_projections(rep: RepGens, summary: AlgebraSummary,
                                 seed=20240501):
    """Minimal central projections of the algebra generated by ``rep``.

    They are the eigenprojections of one generic Hermitian element of the
    centre (Murota, Kanno, Kojima and Kojima 2010): a generic element of a
    c-dimensional commutative *-algebra has exactly c eigenvalue clusters,
    so any other count raises FiberMismatch.  ``summary`` is the graded
    summary of a represented pair, so it carries the free-fiber coordinates:
    the element is split on its restriction to them (an injective
    *-homomorphism of the commutant keeps the spectrum) and each
    eigenprojection is lifted through its coefficients in the centre
    basis.  The projections are checked in full space to sum to one, to be
    idempotent and to commute with the generators, and on the free fibers
    to commute with the commutant.
    """
    rng = np.random.default_rng(seed)
    c = summary.center_dim
    coeff = rng.standard_normal(c) + 1j * rng.standard_normal(c)
    free = summary.free
    small = _restrict(summary.center_basis, free)
    z = np.tensordot(coeff, small, axes=1)
    vals, vecs = np.linalg.eigh(z + z.conj().T)
    spread = max(vals[-1] - vals[0], 1.0)
    cuts = np.nonzero(np.diff(vals) > 1e-6 * spread)[0] + 1
    if len(cuts) + 1 != c:
        raise FiberMismatch(
            f"generic central element has {len(cuts) + 1} eigenvalue "
            f"clusters for a centre of dimension {c}")
    projs = [v @ v.conj().T for v in np.split(vecs, cuts, axis=1)]
    coords = np.linalg.lstsq(small.reshape(c, -1).T,
                             np.stack(projs).reshape(c, -1).T, rcond=None)[0]
    projs = list(np.tensordot(coords.T, np.stack(summary.center_basis), axes=1))
    gens = list(rep.gens)
    gens += [g.conj().T for g in gens]
    ops = list(_restrict(summary.commutant_basis, free))
    ops += [m.conj().T for m in ops]
    bad = opnorm_exceeds(sum(projs) - np.eye(rep.dim), RANGE_TOL)
    for p in projs:
        rp = p[free[:, None], free]
        bad = bad or opnorm_exceeds(p @ p - p, RANGE_TOL) or any(
            opnorm_exceeds(p @ x - x @ p, 1e-8) for x in gens) or any(
            opnorm_exceeds(rp @ x - x @ rp, 1e-8) for x in ops)
    if bad:
        raise FiberMismatch("could not isolate minimal central projections")
    return projs


def decompose_full(pair: WeylPair, tol: float = 1e-8,
                   guard: int = 256) -> Decomposition:
    """Split a commuting-range position-graded pair into canonical parts.

    Steps: verify commuting ranges, compute the commutant and centre of the
    generated algebra, split along minimal central projections, read each
    factor block as (upward-invariant set, constant multiplicity), and
    verify that the direct sum of the canonical models is unitarily
    equivalent to the input.
    """
    worst = check_commuting_ranges(pair)
    if worst > RANGE_TOL:
        raise NonCommutingRanges(
            f"range projections fail to commute (max commutator {worst:.3e})")
    rep = RepGens.from_pair(pair)
    projs = _minimal_central_projections(rep, summarize(rep, tol, guard))

    comps = []
    for p in projs:
        support = []
        mult = None
        for pt, k in pair.fibers:
            s = pair.block_slice(pt)
            vals = np.linalg.eigvalsh(p[s, s])
            ones = vals > 0.5
            if np.abs(vals[ones] - 1.0).max(initial=0.0) > 1e-8 or \
               np.abs(vals[~ones]).max(initial=0.0) > 1e-8:
                raise FiberMismatch(
                    "central projection is not position-diagonal")
            r = int(ones.sum())
            if r:
                support.append(pt)
                if mult is None:
                    mult = r
                elif mult != r:
                    raise FiberMismatch(
                        f"fiber dimension jumps from {mult} to {r} inside one "
                        f"factor block")
        try:
            raw = PSet(pair.window, tuple(support), SetKind.PSPACE)
        except (InvarianceViolation, EmptySetError) as exc:
            raise FiberMismatch(
                f"factor-block support is not upward invariant: {exc}") from exc
        comps.append((raw, mult))

    comps.sort(key=lambda c: (c[0].points, c[1]))
    reassembled, reasm_idx = canonical_sum(
        pair.window, [(c[0].points, c[1]) for c in comps], "gradedsum")
    if all(np.abs(x - y).max() <= 1e-12
           for x, y in zip(pair.gens, reassembled.gens)):
        # the input already is the canonical sum in canonical layout
        ok, witness = True, np.eye(pair.dim, dtype=complex)
    else:
        ok, witness = unitarily_equivalent(RepGens.from_pair(pair),
                                           RepGens.from_pair(reassembled),
                                           tol, guard)
    if not ok:
        raise FiberMismatch(
            "reassembled canonical sum is not unitarily equivalent to the "
            "input; the pair is not a truncation of a covariant model")

    results = []
    for raw, mult in comps:
        t = _sub(raw.points[0], pair.window.lo)
        normalized, _ = translate_pset(raw, tuple(-c for c in t))
        results.append(ComponentResult(normalized, t, mult, raw))
    return Decomposition(results, witness, reassembled, reasm_idx)


def decompose(pair: WeylPair, tol: float = 1e-8,
              guard: int = 256) -> list[ComponentResult]:
    """Canonical components of a commuting-range pair (orbit normalised)."""
    return decompose_full(pair, tol, guard).components


# ---------------------------------------------------------------------------
# the dilation bundle


@dataclass(eq=False)
class DilationBundle:
    """Concrete minimal unitary dilation of a commuting-range pair.

    The dilation space is graded over the window extended downward by the
    depth; ``supports`` records each component's enlarged set.  ``embed``
    is the isometry carrying the base space onto the blocks of the original
    component supports.  All unitarity, covariance and exhaustion claims
    are made for shifts of supremum norm at most ``budget`` only.
    """

    base: WeylPair
    depth: int
    budget: int
    window_ext: LatticeWindow
    components: list  # (raw PSet in base window, multiplicity)
    supports: list    # point tuples in the extended window, aligned
    dilated: WeylPair = field(repr=False)
    index: dict = field(repr=False)
    embed: np.ndarray = field(repr=False)
    _maps: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.dilated.dim

    @cached_property
    def _block_table(self):
        """Every block (component, point) in coordinate order, as the
        point's offset from the extended window's corner and the component;
        the block of each coordinate; and each support's window points."""
        wext = self.window_ext
        blocks = sorted((self.index[(ci, p)], ci, p)
                        for ci, supp in enumerate(self.supports) for p in supp)
        member = np.zeros((len(self.supports), wext.cardinality), dtype=bool)
        for _, ci, p in blocks:
            member[ci, wext._table.index[p]] = True
        offsets = np.array([p for _, _, p in blocks], dtype=int) - wext.lo
        comp = np.array([ci for _, ci, _ in blocks], dtype=int)
        owner = np.repeat(np.arange(len(blocks)),
                          [self.components[ci][1] for _, ci, _ in blocks])
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
        """The :func:`pairs.shift_map` of W_x, kept per shift."""
        xv = self._check_shift(x)
        if xv not in self._maps:
            comps = [(supp, k) for supp, (_, k)
                     in zip(self.supports, self.components)]
            self._maps[xv] = shift_map(comps, self.index, xv)
        return self._maps[xv]

    def w(self, x) -> np.ndarray:
        """Dilated group element W_x as a dense clipped block shift."""
        return block_shift(self.dim, self.shift_map(x))

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
    box = list(itertools.product(range(depth + 1), repeat=wext.dim))
    members = set(raw.points)
    out = [p for p in wext.points()
           if any(_add(p, a) in members for a in box)]
    return tuple(out)


def minimal_dilation(pair: WeylPair, depth: int, tol: float = 1e-8,
                     guard: int = 256) -> DilationBundle:
    """Minimal unitary dilation of a commuting-range pair at a given depth.

    Raises NonCommutingRanges when the base pair fails the commuting-range
    probe.  Depth zero returns the degenerate bundle whose group elements
    exist for semigroup directions only.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    dec = decompose_full(pair, tol, guard)
    window = pair.window
    wext = LatticeWindow(tuple(l - depth for l in window.lo), window.hi,
                         window.weight)
    comps = [(c.raw, c.multiplicity) for c in dec.components]
    supports = [_extended_support(raw, wext, depth) for raw, _ in comps]
    dilated, idx = canonical_sum(
        wext, [(s, k) for s, (_, k) in zip(supports, comps)], "gradedsum")
    iota = np.zeros((dilated.dim, dec.reassembled.dim), dtype=complex)
    for ci, (raw, k) in enumerate(comps):
        for p in raw.points:
            r0 = idx[(ci, p)]
            c0 = dec.reassembled_index[(ci, p)]
            iota[r0:r0 + k, c0:c0 + k] = np.eye(k)
    embed = iota @ dec.witness
    return DilationBundle(
        base=pair, depth=depth, budget=depth, window_ext=wext,
        components=comps, supports=supports, dilated=dilated, index=idx,
        embed=embed,
    )


def e_diagonal(bundle: DilationBundle, x) -> np.ndarray:
    """Diagonal of E_x, the projection onto W_x(embedded base space).

    Computed from the model: the block of y belongs to the range exactly
    when y - x dominates a minimal element of the component, that is when
    y - x >= lo and min(y - x, hi) lies in the component's set.  One shift
    and one mask lookup on the bundle's table serve every block.
    """
    xv = tuple(int(c) for c in x)
    if xv and max(abs(c) for c in xv) > bundle.budget:
        raise BudgetExceeded(f"shift {xv} exceeds budget {bundle.budget}")
    _, comp, owner, _ = bundle._block_table
    points, member = bundle._range_table
    sides = bundle.base.window.sides
    z = points - np.asarray(xv, dtype=int)
    inside = np.all(z >= 0, axis=1)
    clipped = np.minimum(z, np.subtract(sides, 1))
    inside &= member[comp, np.ravel_multi_index(clipped.T, sides, mode="clip")]
    return inside[owner].astype(float)


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

    Recursively splits eigenspaces along each family member in lexicographic
    order, rounding eigenvalues at one half.  Each pattern (the set of
    indices where the family acts as one) must be downward invariant inside
    the box; anything else signals numerical failure or a non-covariant
    family.  Returns (pattern set, eigenspace dimension) pairs.
    """
    pts = sorted(rep.box.points())
    dim = rep.e(pts[0]).shape[0]
    branches = [(np.eye(dim, dtype=complex), [])]
    for x in pts:
        ex = rep.e(x)
        refined = []
        for q, pat in branches:
            m = q.conj().T @ ex @ q
            vals, vecs = np.linalg.eigh(m)
            if np.abs(vals - np.round(vals)).max(initial=0.0) > 1e-8:
                raise PatternNotYSet(
                    f"family member at {x} is not a projection on a joint "
                    f"eigenspace (eigenvalues {vals})")
            ones = vals > 0.5
            if ones.any():
                refined.append((q @ vecs[:, ones], pat + [x]))
            if (~ones).any():
                refined.append((q @ vecs[:, ~ones], pat))
        branches = refined
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
    box = list(itertools.product(range(bundle.budget + 1),
                                 repeat=bundle.base.window.dim))
    for ci, ((raw, k), supp) in enumerate(zip(bundle.components, bundle.supports)):
        members = set(raw.points)
        gblocks = {}
        for p in raw.points:
            r0 = bundle.index[(ci, p)]
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
            r0 = bundle.index[(ci, p)]
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

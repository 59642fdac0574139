"""Numerical commutants, intertwiners and unitary-equivalence decisions.

Everything reduces to one primitive: the joint nullspace of the maps
T -> T A_i - B_i T (with the adjoint maps always included, so the result
is adjoint closed).  Two solvers compute it.

Represented pairs take the graded solve, on their generator blocks.
Their generators include the position observable, so every solution is
block diagonal, T = sum T_y with T_y from the fiber of y in one pair to
the fiber of y in the other.  Where
a generator block B of the second pair from y to y + e_i is injective, the
relation T_{y+e_i} A = B T_y gives T_y = B^+ T_{y+e_i} A.  Walking the
points downward from the top corner of the window, every T_y is fixed by
the few "free" fibers that have no injective outgoing block - the matrix
form of the Morita equivalence behind the classification.  All block
relations are then imposed on the free entries alone, so the kernel SVD
has as many columns as the free fibers have entries, not n^2.

The same fibers carry the centre.  Restricting a commutant element to its
free-fiber blocks is an injective *-homomorphism, so ``summarize`` solves
the centre on the m x m restrictions (m the total size of the free fibers)
and lifts the solution through its coefficients.  ``dilation`` classifies
a pair without this module's solves: it reads the components off the range
projections at the top corner.

Unitary equivalence of two represented pairs on one window is read from
the fibers first: different fiber sizes decide it at once, before any
solve.  Every largest 2-norm here is read from ``pairs._max_opnorm``.

Every other generator list goes to ``sylvester_nullspace``: it seeds the
search with the exact kernel of a well-chosen Hermitian map (eigenvectors
with equal eigenvalues give a factored basis u v* of that kernel) and
refines the seed through the remaining maps with thin SVDs.  A map listed
more than once (a sampled field repeats the identity and the step
projections) adds no condition, so repeated pairs (A_i, B_i), compared by
bytes, are dropped before the seed is chosen.  Each map is stacked whole
on the seed, so a list whose stacked map would pass ``_DENSE_MAP_CAP``
entries is refused with ``DimensionGuard``.

Every kernel is cut by one rule (``_kernel``): a singular value is rank
when it exceeds 1e-8 (||A|| + ||B||) of the relation T A = B T imposed -
the largest generator blocks of the two pairs in the graded solve, each
refinement step's own map in ``sylvester_nullspace``, and ||g|| + ||g||
for a generic element g in the centre solve - never a system's own largest
singular value.  ``summarize`` checks that the basis is a *-algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CheckFailed, DimensionGuard, LabelMismatch
from .lattice import _add
from .pairs import _max_opnorm, _stacks, intertwining_blocks

#: Kernel cutoff per unit of relation norm; *-algebra and centre residual.
DEFAULT_TOL = 1e-8
#: Random draws over the intertwiner basis before equivalence is refused.
_DRAWS = 20
_SEED_CAP = 20000
_FULL_SEED_CAP = 2500
#: Entries up to which ``_stacked_map`` builds a stacked map and the graded
#: solve its basis (unknowns x dim B x dim A); above, they raise
#: DimensionGuard.
_DENSE_MAP_CAP = 4_000_000
_CENTER_SEED = 20240502
#: A generator block propagates the graded solve when sigma_min exceeds
#: this fraction of sigma_max.
_INJECTIVE_TOL = 1e-8


class RepGens:
    """A finite generator list; solves close it under adjoints implicitly.

    ``from_pair`` sets ``pair`` to the represented pair the list is read
    from; the solvers then use its blocks, and ``gens`` is written from
    them on its first read.
    """

    def __init__(self, dim: int, gens, labels: list[str] | None = None):
        self.dim = dim
        self.pair = None
        self._gens = [np.asarray(g, dtype=complex) for g in gens]
        for g in self._gens:
            if g.shape != (dim, dim):
                raise DimensionGuard(
                    f"generator shape {g.shape} does not match dim {dim}")
        self.labels = ([f"g{i}" for i in range(len(self._gens))]
                       if labels is None else labels)
        if len(self.labels) != len(self._gens):
            raise LabelMismatch("one label per generator required")

    @classmethod
    def from_pair(cls, pair) -> "RepGens":
        """Generators of the algebra of a represented pair.

        The character unitaries enter through the position observable (same
        commutant, one Hermitian generator), followed by the generators.
        """
        rep = cls(pair.dim, [], [])
        rep.labels = ["pos"] + [f"V{i}" for i in range(pair.window.dim)]
        rep.pair, rep._gens = pair, None
        return rep

    @property
    def gens(self) -> list:
        if self._gens is None:
            self._gens = [self.pair.position_observable(), *self.pair.gens]
        return self._gens


@dataclass(eq=False)
class AlgebraSummary:
    """Orthonormal bases of the commutant and of its centre."""

    commutant_basis: list = field(repr=False)
    center_basis: list = field(repr=False)

    def __post_init__(self):
        self.commutant_dim = len(self.commutant_basis)
        self.center_dim = len(self.center_basis)
        self.is_factor = self.center_dim == 1
        self.is_irreducible = self.commutant_dim == 1

    def to_json(self) -> dict:
        return {key: getattr(self, key) for key in (
            "commutant_dim", "center_dim", "is_factor", "is_irreducible")}


def _adjoint_closed_maps(a_list, b_list):
    """The pairs (A, B) of the maps and their adjoints, each distinct pair
    once (compared by bytes) in the order first listed."""
    pairs = list(zip(a_list, b_list))
    if not pairs:
        return []
    # a pair needs its adjoint unless both A and B are Hermitian
    skew = np.zeros(len(pairs), dtype=bool)
    for side in zip(*pairs):
        stack = np.stack(side)
        skew |= np.any(stack != stack.conj().transpose(0, 2, 1), axis=(1, 2))
    maps = {}
    for (a, b), adjoint in zip(pairs, skew):
        maps.setdefault((a.tobytes(), b.tobytes()), (a, b))
        if adjoint:
            a, b = a.conj().T, b.conj().T
            maps.setdefault((a.tobytes(), b.tobytes()), (a, b))
    return list(maps.values())


def _cluster_bins(values, ctol):
    order = np.sort(values)
    mids = 0.5 * (order[:-1] + order[1:])
    return np.concatenate([[order[0] - 1.0], mids[np.diff(order) > ctol],
                           [order[-1] + 1.0]])


def _hermitian_eigs(mats):
    """(eigenvalues, eigenvectors) of each Hermitian matrix, all of one size:
    a diagonal one is read off its diagonal, the rest take one stacked eigh."""
    out, full = [], []
    for h in mats:
        if not h.size or np.abs(h - np.diag(np.diag(h))).max() == 0.0:
            out.append((np.real(np.diag(h)), np.eye(h.shape[0], dtype=complex)))
        else:
            out.append(None)
            full.append(h)
    if full:
        solved = zip(*np.linalg.eigh(np.stack(full)))
        out = [pair if pair is not None else next(solved) for pair in out]
    return out


def _spectral_seed(maps, n_b, n_a, same_space):
    """Factored seed basis containing the joint kernel.

    Picks, over all Hermitian parts of the maps, the one whose equal
    eigenvalue pairing is smallest, and returns (lefts, rights) columns so
    that element j is lefts[:, j] rights[:, j]^*.
    """
    parts_a, parts_b = [], []
    for a, b in maps:
        for hermitise in (lambda m: 0.5 * (m + m.conj().T),
                          lambda m: (m - m.conj().T) / 2j):
            ha = hermitise(a)
            if np.abs(ha).max() == 0.0:
                continue
            parts_a.append(ha)
            if not same_space:
                parts_b.append(hermitise(b))
    eigs_a = _hermitian_eigs(parts_a)
    eigs_b = eigs_a if same_space else _hermitian_eigs(parts_b)
    best = None
    for (va, ua), (vb, ub) in zip(eigs_a, eigs_b):
        spread = max(va.max() - va.min(), vb.max() - vb.min(), 1.0)
        edges = _cluster_bins(np.concatenate([va, vb]), 1e-8 * spread)
        ia = np.digitize(va, edges)
        ib = np.digitize(vb, edges)
        score = int(np.bincount(ia, minlength=edges.size + 1)
                    @ np.bincount(ib, minlength=edges.size + 1))
        if best is None or score < best[0]:
            best = (score, ua, ub, ia, ib)
    if best is None or best[0] > _SEED_CAP:
        if n_a * n_b > _FULL_SEED_CAP:
            raise DimensionGuard(
                "no tractable spectral seed for this generator list")
        lefts = np.repeat(np.eye(n_b, dtype=complex), n_a, axis=1)
        rights = np.tile(np.eye(n_a, dtype=complex), (1, n_b))
        return lefts, rights
    _, ua, ub, ia, ib = best
    cols_l, cols_r = [], []
    for t in np.unique(np.concatenate([ia, ib])):
        bi = np.nonzero(ib == t)[0]
        ai = np.nonzero(ia == t)[0]
        for p in bi:
            for q in ai:
                cols_l.append(p)
                cols_r.append(q)
    lefts = ub[:, cols_l]
    rights = ua[:, cols_r]
    return lefts, rights


def _stacked_map(lefts, w, z, rights, n_a):
    """Stacked matrix of T -> T A - B T on the factored basis.

    Column j is vec(u_j w_j^* - z_j v_j^*).  A map of more than
    ``_DENSE_MAP_CAP`` entries raises :class:`DimensionGuard`: a represented
    pair takes the graded solve, which never builds it.
    """
    r = lefts.shape[1]
    n_b = lefts.shape[0]
    if n_b * n_a * r > _DENSE_MAP_CAP:
        raise DimensionGuard(
            f"the stacked map of this generator list has {n_b * n_a * r} "
            f"entries, over {_DENSE_MAP_CAP}; pass the pair file instead of "
            f"its generators, so that the graded solve runs")
    full = (lefts[:, None, :] * w.conj()[None, :, :]
            - z[:, None, :] * rights.conj()[None, :, :])
    return full.reshape(n_b * n_a, r)


def _kernel(a, cutoff: float, rsvd: bool = True):
    """Right singular vectors of ``a`` with singular value at most ``cutoff``,
    or the identity when none exceeds it.

    With ``rsvd``, a tall ``a`` is reduced to the r x r triangular factor of
    its QR decomposition first (Chan's R-SVD): R has the singular values and
    right singular vectors of ``a``, so the cutoff decides the same kernel.
    That pays on the large graded and centre systems; the small refinement
    steps of ``sylvester_nullspace`` are decomposed whole, which is faster.
    """
    m, r = a.shape
    if rsvd and m > r > 0:
        a = np.linalg.qr(a, mode="r")
    rank = 0
    if a.size:
        _, s, vh = np.linalg.svd(a, full_matrices=(a.shape[0] < r))
        rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T if rank else np.eye(r, dtype=complex)


def sylvester_nullspace(a_list, b_list):
    """Orthonormal basis of {T : T A_i = B_i T and T A_i* = B_i* T}.

    Returns matrices of shape (dim B, dim A), orthonormal in the Frobenius
    inner product.  The step of map i cuts at 1e-8 (||A_i|| + ||B_i||).
    """
    a_list = [np.asarray(a, dtype=complex) for a in a_list]
    b_list = [np.asarray(b, dtype=complex) for b in b_list]
    n_a = a_list[0].shape[0] if a_list else 0
    n_b = b_list[0].shape[0] if b_list else 0
    same = all(a is b for a, b in zip(a_list, b_list)) and len(a_list) == len(b_list)
    maps = _adjoint_closed_maps(a_list, b_list)
    lefts, rights = _spectral_seed(maps, n_b, n_a, same)
    cutoffs = []
    if maps:
        norms_a = np.linalg.norm(np.stack([a for a, _ in maps]), 2, axis=(1, 2))
        norms_b = norms_a if same else np.linalg.norm(
            np.stack([b for _, b in maps]), 2, axis=(1, 2))
        cutoffs = DEFAULT_TOL * (norms_a + norms_b)
    coeff = None  # None stands for the identity on the seed space
    for (a, b), cutoff in zip(maps, cutoffs):
        if coeff is not None and coeff.shape[1] == 0:
            break
        w = a.conj().T @ rights
        z = b @ lefts
        stacked = _stacked_map(lefts, w, z, rights, n_a)
        kern = _kernel(stacked if coeff is None else stacked @ coeff, cutoff,
                       rsvd=False)
        coeff = kern if coeff is None else coeff @ kern
    if coeff is None:
        coeff = np.eye(lefts.shape[1], dtype=complex)
    basis = []
    for j in range(coeff.shape[1]):
        basis.append((lefts * coeff[:, j]) @ rights.conj().T)
    return basis


def _padded(blocks):
    """The blocks as one stack, zero-padded to a common shape: that appends
    zero singular values and leaves each block's singular triplets in place."""
    stack = np.zeros((len(blocks), max(b.shape[0] for b in blocks),
                      max(b.shape[1] for b in blocks)), dtype=complex)
    for i, b in enumerate(blocks):
        stack[i, :b.shape[0], :b.shape[1]] = b
    return stack


def _injective_pinvs(blocks: dict):
    """Pseudo-inverse of every injective block (None for the others), and
    the largest block 2-norm, from one stacked SVD of the padded blocks.

    A block is injective when it has full column rank with sigma_min >
    ``_INJECTIVE_TOL`` sigma_max.
    """
    out = dict.fromkeys(blocks)
    if not blocks:
        return out, 0.0
    u, s, vh = np.linalg.svd(_padded(list(blocks.values())), full_matrices=False)
    for i, (key, blk) in enumerate(blocks.items()):
        m, n = blk.shape
        sk = s[i, :n]
        if m >= n and sk[0] > 0.0 and sk[-1] > _INJECTIVE_TOL * sk[0]:
            out[key] = (vh[i, :n, :n].conj().T / sk) @ u[i, :m, :n].conj().T
    return out, float(s[:, 0].max())


def _graded_nullspace(pair_a, pair_b):
    """Orthonormal basis of the intertwiners of two represented pairs.

    Solves T V_i = W_i T and T V_i* = W_i* T for the generators V_i of
    ``pair_a`` and W_i of ``pair_b``, with T block diagonal (T maps the
    fiber of y in ``pair_a`` to the fiber of y in ``pair_b``): the same
    space ``sylvester_nullspace`` finds for the lists of ``RepGens.from_pair``.
    Points are walked in reverse lexicographic order; T_y = B^+ T_{y+e_i} A
    through the first axis whose ``pair_b`` block B is injective, and the
    entries of every other T_y are the unknowns.  Both relations of every
    block of every axis are then imposed on the unknowns, cut at 1e-8 times
    the largest block 2-norm of ``pair_a`` plus that of ``pair_b``.  Over
    ``_DENSE_MAP_CAP`` unknowns x dim B x dim A, DimensionGuard is raised.

    Returns the basis and the sorted free points, or None when the pairs
    live on different windows.
    """
    if pair_a is None or pair_b is None or pair_a.window != pair_b.window:
        return None
    steps = pair_a.window.generators()
    blocks_a, blocks_b = [[pair.graded_blocks(axis) for axis in range(len(steps))]
                          for pair in (pair_a, pair_b)]
    ka, kb = dict(pair_a.fibers), dict(pair_b.fibers)
    shared = sorted(ka.keys() & kb.keys(), reverse=True)
    flat_a, flat_b = [{(axis, y): blk for axis, found in enumerate(blocks)
                       for y, blk in found.items()}
                      for blocks in (blocks_a, blocks_b)]
    pinvs, norm_b = _injective_pinvs(flat_b)
    norm_a = norm_b if pair_b is pair_a else _max_opnorm(
        [s for _, s in _stacks(list(flat_a.values()))])
    route, free, n_free = {}, {}, 0
    for y in shared:
        axis = next((i for i in range(len(steps))
                     if pinvs.get((i, y)) is not None), None)
        if axis is None:
            free[y] = n_free
            n_free += kb[y] * ka[y]
        else:
            route[y] = axis
    if n_free == 0:
        return [], []
    if n_free * pair_b.dim * pair_a.dim > _DENSE_MAP_CAP:
        raise DimensionGuard(
            f"the graded solve has {n_free} unknowns for {pair_b.dim} x "
            f"{pair_a.dim} intertwiners, over {_DENSE_MAP_CAP} entries")

    def block(blocks, sizes, axis, y):
        q = _add(y, steps[axis])
        found = blocks[axis].get(y)
        if found is None:
            return np.zeros((sizes.get(q, 0), sizes.get(y, 0)), dtype=complex)
        return found

    # param[y][:, j] is T_y for the j-th unit vector of unknowns; a stack
    # kept as (rows, unknowns, columns) is multiplied from either side by
    # one matrix product
    param = {}

    def t(y):
        if y in param:
            return param[y]
        return np.zeros((kb.get(y, 0), n_free, ka.get(y, 0)), dtype=complex)

    def left(b, stack):
        rows, _, cols = stack.shape
        return (b @ stack.reshape(rows, n_free * cols)).reshape(
            b.shape[0], n_free, cols)

    def right(stack, a):
        rows, _, cols = stack.shape
        return (stack.reshape(rows * n_free, cols) @ a).reshape(
            rows, n_free, a.shape[1])

    def flat(stack):
        """The stack as one row of entries per unknown."""
        rows, _, cols = stack.shape
        return stack.transpose(1, 0, 2).reshape(n_free, rows * cols)

    for y in shared:
        size = kb[y] * ka[y]
        if y in free:
            unit = np.zeros((n_free, size), dtype=complex)
            unit[free[y]:free[y] + size] = np.eye(size)
            param[y] = np.ascontiguousarray(
                unit.reshape(n_free, kb[y], ka[y]).transpose(1, 0, 2))
        else:
            axis = route[y]
            param[y] = left(pinvs[(axis, y)],
                            right(t(_add(y, steps[axis])),
                                  block(blocks_a, ka, axis, y)))
    rows = [np.zeros((n_free, 0), dtype=complex)]
    for y in sorted(ka.keys() | kb.keys()):
        for axis, e in enumerate(steps):
            q = _add(y, e)
            if q not in ka and q not in kb:
                continue
            a = block(blocks_a, ka, axis, y)
            b = block(blocks_b, kb, axis, y)
            rows.append(flat(right(t(q), a) - left(b, t(y))))
            rows.append(flat(right(t(y), a.conj().T) - left(b.conj().T, t(q))))
    kern = _kernel(np.hstack(rows).T, DEFAULT_TOL * (norm_a + norm_b))
    if kern.shape[1] == 0:
        return [], sorted(free)
    # orthonormalise in the Frobenius norm over the block entries alone
    entries = np.hstack([flat(param[y]) for y in shared]).T
    ortho, _ = np.linalg.qr(entries @ kern)
    out = np.zeros((kern.shape[1], pair_b.dim, pair_a.dim), dtype=complex)
    start = 0
    for y in shared:
        size = kb[y] * ka[y]
        out[:, pair_b.block_slice(y), pair_a.block_slice(y)] = \
            ortho[start:start + size].T.reshape(-1, kb[y], ka[y])
        start += size
    return list(out), sorted(free)


def _commutant(rep: RepGens):
    """Commutant basis and the coordinates of its free fibers.

    The coordinates are None unless the graded solve found the basis.
    """
    solved = _graded_nullspace(rep.pair, rep.pair)
    if solved is not None:
        basis, free = solved
        coords = np.arange(rep.dim)
        return basis, np.concatenate(
            [coords[rep.pair.block_slice(y)] for y in free] + [coords[:0]])
    if not rep.gens:
        eye = np.eye(rep.dim, dtype=complex)
        return [np.outer(eye[:, i], eye[:, j].conj())
                for i in range(rep.dim) for j in range(rep.dim)], None
    return sylvester_nullspace(rep.gens, rep.gens), None


def commutant_basis(rep: RepGens):
    """Orthonormal basis of the commutant of a *-closed generator list.

    Lists read from a represented pair take the graded solve; all others
    the dense solver.
    """
    return _commutant(rep)[0]


def check_central(elements, cbasis):
    """Raise CheckFailed unless every element commutes with every C_i
    within ``DEFAULT_TOL``.

    Each element is checked against the stack of the C_i at once, and the
    largest commutator norm is read from ``pairs._max_opnorm``.
    """
    stack = np.asarray(cbasis)
    for z in elements:
        worst = _max_opnorm([z @ stack - stack @ z], DEFAULT_TOL)
        if worst > DEFAULT_TOL:
            raise CheckFailed(
                "centre element fails to commute with the commutant "
                f"(commutator {worst:.2e})")


def _restrict(elements, free):
    """The blocks of n x n ``elements`` on the coordinates ``free``.

    With ``free`` None the elements are returned whole, as one stack.
    """
    if free is None:
        return np.stack(elements)
    return np.stack([e[free[:, None], free] for e in elements])


def _check_star_algebra(small, products):
    """Raise CheckFailed unless every adjoint in ``small`` and every matrix
    of ``products`` is within ``DEFAULT_TOL`` of the span of ``small``."""
    span = np.linalg.qr(small.reshape(len(small), -1).T)[0]
    test = np.concatenate([small.conj().transpose(0, 2, 1), *products])
    test = test.reshape(len(test), -1).T
    worst = np.linalg.norm(test - span @ (span.conj().T @ test), axis=0).max()
    if worst > DEFAULT_TOL:
        raise CheckFailed(
            "the commutant basis is not a *-algebra: an adjoint or product "
            f"lies {worst:.2e} from its span")


def center_basis(cbasis, free=None):
    """Orthonormal basis of the centre of the commutant spanned by ``cbasis``.

    The centre is solved in commutant coordinates: Z = sum x_j C_j must
    commute with two generic commutant elements G and their adjoints, which
    generate the commutant.  The kernel of that (4 n^2) x c system, cut at
    1e-8 (2 ||G||), gives x; every solution is then checked against every
    C_i, so a draw that fails to generate raises CheckFailed instead of
    returning a larger centre.  First, every C_j* and C_j G / ||G|| must lie
    within 1e-8 of the span (for generic G that closes it under products),
    or the basis, read near a kernel cutoff, is no *-algebra: CheckFailed.

    ``free`` (from the graded solve) names coordinates whose blocks fix
    every commutant element.  Restricting to them is then an injective
    *-homomorphism of the commutant, so everything runs on the m x m
    restrictions and the solution x is lifted onto the full basis.
    """
    c = len(cbasis)
    if c <= 1:
        return list(cbasis)
    small = _restrict(cbasis, free)
    rng = np.random.default_rng(_CENTER_SEED)
    draws = np.stack([np.tensordot(coeff, small, axes=1) for coeff in
                      rng.standard_normal((2, c)) + 1j * rng.standard_normal((2, c))])
    scale = _max_opnorm([draws])
    _check_star_algebra(small, small @ draws[:, None] / scale)
    blocks = [(small @ x - x @ small).reshape(c, -1).T
              for g in draws for x in (g, g.conj().T)]
    kern = _kernel(np.vstack(blocks), DEFAULT_TOL * 2 * scale)
    check_central(np.tensordot(kern.T, small, axes=1), small)
    return list(np.tensordot(kern.T, np.stack(cbasis), axes=1))


def summarize(rep: RepGens) -> AlgebraSummary:
    """Commutant and centre of the algebra generated by ``rep``.

    The centre of the generated von Neumann algebra equals the centre of its
    commutant, so it is solved inside the commutant basis by
    ``center_basis``, which checks first that the basis is a *-algebra.
    Dimensions and the factor and irreducibility flags are read off them.
    """
    cbasis, free = _commutant(rep)
    return AlgebraSummary(cbasis, center_basis(cbasis, free))


def _check_lists(ra: RepGens, rb: RepGens):
    if ra.labels != rb.labels:
        raise LabelMismatch(f"generator labels differ: {ra.labels} vs {rb.labels}")


def intertwiners(ra: RepGens, rb: RepGens):
    """Basis of {T : T X_a = X_b T pairwise}, generator lists label-aligned.

    Two lists read from pairs on one window take the graded solve.
    """
    _check_lists(ra, rb)
    solved = _graded_nullspace(ra.pair, rb.pair)
    if solved is not None:
        return solved[0]
    return sylvester_nullspace(ra.gens, rb.gens)


def _polar_blocks(blocks):
    """Polar factors of square matrices, one stacked SVD per size.

    Returns the factors in the order given, and the smallest and the
    largest singular value over all of the matrices.
    """
    factors = [None] * len(blocks)
    lo, hi = np.inf, 0.0
    for group, stack in _stacks(blocks):
        u, s, vh = np.linalg.svd(stack)
        lo, hi = min(lo, float(s[:, -1].min())), max(hi, float(s[:, 0].max()))
        for i, polar in zip(group, u @ vh):
            factors[i] = polar
    return factors, lo, hi


def unitarily_equivalent(ra: RepGens, rb: RepGens, seed: int = 20240405):
    """Decide unitary equivalence; on success return a unitary witness.

    Up to ``_DRAWS`` random coefficient draws over the intertwiner basis
    find an invertible element whenever one exists (the invertibles form a
    dense open set of the span).  Its polar unitary W is returned when
    ``pairs.intertwining_blocks`` puts every W_y* W_y - 1 and every block
    of W X_a - X_b W within 1e-8, absolute.

    Lists read from pairs on one window are inequivalent when the fiber
    sizes differ, since the position observables then have different
    spectra; that is decided before any solve.  Otherwise every intertwiner
    of such lists is block diagonal over the fibers, and so is its polar
    factor: it is taken fiber by fiber, with one stacked SVD per fiber
    size, and checked on the pairs' generator blocks.  Any other list is
    one block.  The drawn element counts as invertible when its smallest
    singular value over all blocks is at least 1e-6 times the largest.
    """
    if ra.dim != rb.dim:
        return False, None
    pa, pb = ra.pair, rb.pair
    one_window = pa is not None and pb is not None and pa.window == pb.window
    if one_window and pa.fibers != pb.fibers:
        _check_lists(ra, rb)
        return False, None
    basis = intertwiners(ra, rb)
    if not basis:
        return False, None
    if one_window:
        steps = pa.window.generators()
        cuts = {y: pa.block_slice(y) for y in pa.points}
        blocks = [[p.graded_blocks(i) for i in range(len(steps))] for p in (pa, pb)]
    else:
        cuts, steps = {(): slice(0, ra.dim)}, [()] * len(ra.gens)
        blocks = [[{(): g} for g in r.gens] for r in (ra, rb)]
    basis = np.stack(basis)
    rng = np.random.default_rng(seed)
    for _ in range(_DRAWS):
        coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        t = np.tensordot(coeff, basis, axes=1)
        factors, lo, hi = _polar_blocks([t[c, c] for c in cuts.values()])
        if hi <= 0 or lo < 1e-6 * hi:
            continue
        witness = np.zeros_like(t)
        for c, polar in zip(cuts.values(), factors):
            witness[c, c] = polar
        trace = np.trace(witness)
        if abs(trace) > 1e-8:  # fix the free global phase deterministically
            witness = witness * (trace.conjugate() / abs(trace))
        iso, res = intertwining_blocks(
            {y: witness[c, c] for y, c in cuts.items()}, steps, *blocks)
        worst = _max_opnorm(iso + res, 1e-8)
        if worst <= 1e-8:
            return True, witness
        raise CheckFailed(
            f"invertible intertwiner found but conjugation residual {worst:.2e}")
    return False, None


def subspace_gap(basis_a, basis_b) -> float:
    """Operator-norm distance ||P_a - P_b||_2 between two orthonormal spans.

    Spans of different dimension are at distance 1.  Otherwise the distance
    is the sine of the largest principal angle, the norm of V_b - V_a (V_a*
    V_b): the part of one basis outside the other span, formed from the
    c x c overlap of the bases.  Reading the sines from that residual keeps
    full precision near zero, where the cosines (the singular values of the
    overlap) lose half the digits.
    """
    if len(basis_a) != len(basis_b):
        return 1.0
    if not basis_a:
        return 0.0
    va = np.stack([b.ravel() for b in basis_a], axis=1)
    vb = np.stack([b.ravel() for b in basis_b], axis=1)
    return float(np.linalg.norm(vb - va @ (va.conj().T @ vb), 2))

"""Numerical commutants, intertwiners and unitary-equivalence decisions.

Everything reduces to one primitive: the joint nullspace of the maps
T -> T A_i - B_i T (with the adjoint maps always included, so the result
is adjoint closed).  Two solvers compute it.

Represented pairs take the graded solve.  Their generators include the
position observable, so every solution is block diagonal, T = sum T_y with
T_y from the fiber of y in one pair to the fiber of y in the other.  Where
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
and lifts the solution through its coefficients; ``AlgebraSummary.free``
hands the coordinates on to the central projections of ``dilation``.

Unitary equivalence of two represented pairs on one window is read from
the fibers first: different fiber sizes decide it at once, before any
solve.

Every other generator list goes to ``sylvester_nullspace``: it seeds the
search with the exact kernel of a well-chosen Hermitian map (eigenvectors
with equal eigenvalues give a factored basis u v* of that kernel) and
refines the seed through the remaining maps with thin SVDs.  A map listed
more than once (a sampled field repeats the identity and the step
projections) adds no condition, so repeated pairs (A_i, B_i), compared by
bytes, are dropped before the seed is chosen.

Kernel detection uses a relative singular-value cutoff (default 1e-8),
which cleanly separates true kernels from roundoff at the dimensions the
guard admits.  ``sylvester_nullspace`` measures it against one scale for
all of its refinement steps, max_i ||A_i|| + ||B_i||, which bounds every
map it restricts to the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CheckFailed, DimensionGuard, LabelMismatch
from .lattice import _add

DEFAULT_TOL = 1e-8
DEFAULT_GUARD = 256
_SEED_CAP = 20000
_FULL_SEED_CAP = 2500
#: Entries up to which ``_stacked_map`` materialises the stacked map whole.
_DENSE_MAP_CAP = 4_000_000
_CENTER_SEED = 20240502
#: A generator block propagates the graded solve when sigma_min exceeds
#: this fraction of sigma_max.
_INJECTIVE_TOL = 1e-8


@dataclass(eq=False)
class RepGens:
    """A finite generator list; solves close it under adjoints implicitly.

    ``pair`` is set by ``from_pair`` to the represented pair the list was
    read from; the solvers then use its grading.
    """

    dim: int
    gens: list
    labels: list[str] | None = None
    pair: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.gens = [np.asarray(g, dtype=complex) for g in self.gens]
        for g in self.gens:
            if g.shape != (self.dim, self.dim):
                raise DimensionGuard(
                    f"generator shape {g.shape} does not match dim {self.dim}")
        if self.labels is None:
            self.labels = [f"g{i}" for i in range(len(self.gens))]
        if len(self.labels) != len(self.gens):
            raise LabelMismatch("one label per generator required")

    @classmethod
    def from_pair(cls, pair) -> "RepGens":
        """Generators of the algebra of a represented pair.

        The character unitaries enter through the position observable (same
        commutant, one Hermitian generator), followed by the generators.
        """
        gens = [pair.position_observable(), *pair.gens]
        labels = ["pos"] + [f"V{i}" for i in range(pair.window.dim)]
        rep = cls(pair.dim, gens, labels)
        rep.pair = pair
        return rep


@dataclass(eq=False)
class AlgebraSummary:
    """Orthonormal bases of the commutant and of its centre.

    ``free`` holds the coordinates of the free fibers when the graded solve
    found the commutant (its elements are fixed by their blocks there), and
    None when the dense solver did.
    """

    commutant_basis: list = field(repr=False)
    center_basis: list = field(repr=False)
    free: np.ndarray | None = field(default=None, repr=False)

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
    """Pruned stacked matrix of T -> T A - B T on the factored basis.

    Column j is vec(u_j w_j^* - z_j v_j^*).  For small problems the full
    vectorised matrix is materialised directly; otherwise only rows that
    can be nonzero are assembled, which keeps position-graded problems
    sparse.
    """
    r = lefts.shape[1]
    n_b = lefts.shape[0]
    if n_b * n_a * r <= _DENSE_MAP_CAP:
        full = (lefts[:, None, :] * w.conj()[None, :, :]
                - z[:, None, :] * rights.conj()[None, :, :])
        return full.reshape(n_b * n_a, r)
    rows_all, cols_all, vals_all = [], [], []
    for j in range(r):
        u = lefts[:, j]
        v = rights[:, j]
        wj = w[:, j]
        zj = z[:, j]
        su = np.nonzero(u)[0]
        sw = np.nonzero(wj)[0]
        sz = np.nonzero(zj)[0]
        sv = np.nonzero(v)[0]
        if su.size and sw.size:
            rr = (su[:, None] * n_a + sw[None, :]).ravel()
            vv = (u[su, None] * wj[sw][None, :].conj()).ravel()
            rows_all.append(rr)
            cols_all.append(np.full(rr.size, j))
            vals_all.append(vv)
        if sz.size and sv.size:
            rr = (sz[:, None] * n_a + sv[None, :]).ravel()
            vv = (-zj[sz, None] * v[sv][None, :].conj()).ravel()
            rows_all.append(rr)
            cols_all.append(np.full(rr.size, j))
            vals_all.append(vv)
    if not rows_all:
        return np.zeros((0, r), dtype=complex)
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    vals = np.concatenate(vals_all)
    uniq, inv = np.unique(rows, return_inverse=True)
    flat = cols.astype(np.int64) * uniq.size + inv
    size = uniq.size * r
    acc = np.bincount(flat, weights=vals.real, minlength=size) \
        + 1j * np.bincount(flat, weights=vals.imag, minlength=size)
    return acc.reshape(r, uniq.size).T


def _kernel_cols(a, tol):
    m, r = a.shape
    if m == 0 or r == 0:
        return np.eye(r, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=(m < r))
    if s.size == 0 or s[0] <= 1e-12:
        return np.eye(r, dtype=complex)
    rank = int(np.sum(s > tol * s[0]))
    return vh[rank:].conj().T


def _kernel_below(a, cutoff):
    """Right singular vectors of ``a`` with singular value at most ``cutoff``."""
    m, r = a.shape
    if m == 0 or r == 0:
        return np.eye(r, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=(m < r))
    return vh[int(np.sum(s > cutoff)):].conj().T


def sylvester_nullspace(a_list, b_list, tol: float = DEFAULT_TOL):
    """Orthonormal basis of {T : T A_i = B_i T and T A_i* = B_i* T}.

    Returns matrices of shape (dim B, dim A), orthonormal in the Frobenius
    inner product.
    """
    a_list = [np.asarray(a, dtype=complex) for a in a_list]
    b_list = [np.asarray(b, dtype=complex) for b in b_list]
    n_a = a_list[0].shape[0] if a_list else 0
    n_b = b_list[0].shape[0] if b_list else 0
    same = all(a is b for a, b in zip(a_list, b_list)) and len(a_list) == len(b_list)
    maps = _adjoint_closed_maps(a_list, b_list)
    lefts, rights = _spectral_seed(maps, n_b, n_a, same)
    # one cutoff for every step: ||T A - B T||_F <= (||A|| + ||B||) ||T||_F
    # bounds each map on the Frobenius-orthonormal seed, whereas the largest
    # singular value of a map restricted to the near-kernel of the steps
    # before it can be roundoff, and true solutions would fall below it
    cutoff = 0.0
    if maps:
        norms_a = np.linalg.norm(np.stack([a for a, _ in maps]), 2, axis=(1, 2))
        norms_b = norms_a if same else np.linalg.norm(
            np.stack([b for _, b in maps]), 2, axis=(1, 2))
        cutoff = tol * float(np.max(norms_a + norms_b))
    coeff = None  # None stands for the identity on the seed space
    for a, b in maps:
        if coeff is not None and coeff.shape[1] == 0:
            break
        w = a.conj().T @ rights
        z = b @ lefts
        stacked = _stacked_map(lefts, w, z, rights, n_a)
        kern = _kernel_below(stacked if coeff is None else stacked @ coeff, cutoff)
        coeff = kern if coeff is None else coeff @ kern
    if coeff is None:
        coeff = np.eye(lefts.shape[1], dtype=complex)
    basis = []
    for j in range(coeff.shape[1]):
        basis.append((lefts * coeff[:, j]) @ rights.conj().T)
    return basis


def _injective_pinvs(blocks: dict) -> dict:
    """Pseudo-inverse of every injective block, None for the others.

    A block is injective when it has full column rank with sigma_min >
    ``_INJECTIVE_TOL`` sigma_max.  One stacked SVD serves every block: each
    is padded with zero rows and columns to a common shape, which appends
    zero singular values and leaves its own singular triplets in place.
    """
    out = dict.fromkeys(blocks)
    tall = [key for key, blk in blocks.items() if blk.shape[0] >= blk.shape[1]]
    if not tall:
        return out
    rows = max(blocks[key].shape[0] for key in tall)
    cols = max(blocks[key].shape[1] for key in tall)
    stack = np.zeros((len(tall), rows, cols), dtype=complex)
    for i, key in enumerate(tall):
        m, n = blocks[key].shape
        stack[i, :m, :n] = blocks[key]
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    for i, key in enumerate(tall):
        m, n = blocks[key].shape
        sk = s[i, :n]
        if sk[0] > 0.0 and sk[-1] > _INJECTIVE_TOL * sk[0]:
            out[key] = (vh[i, :n, :n].conj().T / sk) @ u[i, :m, :n].conj().T
    return out


def _graded_nullspace(pair_a, pair_b, tol: float = DEFAULT_TOL):
    """Orthonormal basis of the intertwiners of two represented pairs.

    Solves T V_i = W_i T and T V_i* = W_i* T for the generators V_i of
    ``pair_a`` and W_i of ``pair_b``, with T block diagonal (T maps the
    fiber of y in ``pair_a`` to the fiber of y in ``pair_b``): the same
    space ``sylvester_nullspace`` finds for the lists of ``RepGens.from_pair``.
    Points are walked in reverse lexicographic order; T_y = B^+ T_{y+e_i} A
    through the first axis whose ``pair_b`` block B is injective, and the
    entries of every other T_y are the unknowns.  Both relations of every
    block of every axis are then imposed on the unknowns, and the kernel is
    taken by ``_kernel_cols`` at ``tol``.

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
    pinvs = _injective_pinvs({(axis, y): found[y]
                              for axis, found in enumerate(blocks_b)
                              for y in shared if y in found})
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

    def block(blocks, sizes, axis, y):
        q = _add(y, steps[axis])
        found = blocks[axis].get(y)
        if found is None:
            return np.zeros((sizes.get(q, 0), sizes.get(y, 0)), dtype=complex)
        return found

    # param[y][j] is T_y for the j-th unit vector of unknowns
    param = {}

    def t(y):
        if y in param:
            return param[y]
        return np.zeros((n_free, kb.get(y, 0), ka.get(y, 0)), dtype=complex)

    for y in shared:
        size = kb[y] * ka[y]
        if y in free:
            unit = np.zeros((n_free, size), dtype=complex)
            unit[free[y]:free[y] + size] = np.eye(size)
            param[y] = unit.reshape(n_free, kb[y], ka[y])
        else:
            axis = route[y]
            param[y] = pinvs[(axis, y)] @ t(_add(y, steps[axis])) \
                @ block(blocks_a, ka, axis, y)
    rows = [np.zeros((n_free, 0), dtype=complex)]
    for y in sorted(ka.keys() | kb.keys()):
        for axis, e in enumerate(steps):
            q = _add(y, e)
            if q not in ka and q not in kb:
                continue
            a = block(blocks_a, ka, axis, y)
            b = block(blocks_b, kb, axis, y)
            rows.append((t(q) @ a - b @ t(y)).reshape(n_free, -1))
            rows.append((t(y) @ a.conj().T - b.conj().T @ t(q))
                        .reshape(n_free, -1))
    kern = _kernel_cols(np.hstack(rows).T, tol)
    if kern.shape[1] == 0:
        return [], sorted(free)
    # orthonormalise in the Frobenius norm over the block entries alone
    entries = np.hstack([param[y].reshape(n_free, -1) for y in shared]).T
    ortho, _ = np.linalg.qr(entries @ kern)
    out = np.zeros((kern.shape[1], pair_b.dim, pair_a.dim), dtype=complex)
    start = 0
    for y in shared:
        size = kb[y] * ka[y]
        out[:, pair_b.block_slice(y), pair_a.block_slice(y)] = \
            ortho[start:start + size].T.reshape(-1, kb[y], ka[y])
        start += size
    return list(out), sorted(free)


def residual(basis, a_list, b_list) -> float:
    """Largest relative intertwining residual of a basis, for verification."""
    worst = 0.0
    for t in basis:
        for a, b in zip(a_list, b_list):
            scale = 1.0 + np.linalg.norm(a, 2)
            worst = max(worst, np.linalg.norm(t @ a - b @ t, 2) / scale)
    return float(worst)


def _commutant(rep: RepGens, tol: float, guard: int):
    """Commutant basis and the coordinates of its free fibers.

    The coordinates are None unless the graded solve found the basis.
    """
    if rep.dim > guard:
        raise DimensionGuard(f"dimension {rep.dim} exceeds guard {guard}")
    if not rep.gens:
        eye = np.eye(rep.dim, dtype=complex)
        return [np.outer(eye[:, i], eye[:, j].conj())
                for i in range(rep.dim) for j in range(rep.dim)], None
    solved = _graded_nullspace(rep.pair, rep.pair, tol)
    if solved is None:
        return sylvester_nullspace(rep.gens, rep.gens, tol), None
    basis, free = solved
    coords = np.arange(rep.dim)
    return basis, np.concatenate(
        [coords[rep.pair.block_slice(y)] for y in free] + [coords[:0]])


def commutant_basis(rep: RepGens, tol: float = DEFAULT_TOL,
                    guard: int = DEFAULT_GUARD):
    """Orthonormal basis of the commutant of a *-closed generator list.

    Lists read from a represented pair take the graded solve; all others
    the dense solver.
    """
    return _commutant(rep, tol, guard)[0]


def opnorm_exceeds(x, tol: float) -> bool:
    """Whether ||x||_2 > tol; the SVD runs only when ||x||_F > tol."""
    return bool(np.linalg.norm(x) > tol and np.linalg.norm(x, 2) > tol)


def check_central(elements, cbasis, tol: float = DEFAULT_TOL):
    """Raise CheckFailed unless every element commutes with every C_i."""
    for z in elements:
        for m in cbasis:
            comm = z @ m - m @ z
            if opnorm_exceeds(comm, tol):
                raise CheckFailed(
                    "centre element fails to commute with the commutant "
                    f"(commutator {np.linalg.norm(comm, 2):.2e})")


def _restrict(elements, free):
    """The blocks of n x n ``elements`` on the coordinates ``free``.

    With ``free`` None the elements are returned whole, as one stack.
    """
    stack = np.stack(elements)
    return stack if free is None else stack[:, free[:, None], free]


def center_basis(cbasis, tol: float = DEFAULT_TOL, free=None):
    """Orthonormal basis of the centre of the commutant spanned by ``cbasis``.

    The centre is solved in commutant coordinates: Z = sum x_j C_j must
    commute with two generic commutant elements G and their adjoints, which
    generate the commutant.  The kernel of that (4 n^2) x c system gives x;
    every solution is then checked against every C_i, so a draw that fails
    to generate raises CheckFailed instead of returning a larger centre.

    ``free`` (from the graded solve) names coordinates whose blocks fix
    every commutant element.  Restricting to them is then an injective
    *-homomorphism of the commutant, so the system and the check run on the
    m x m restrictions and the solution x is lifted onto the full basis.
    """
    c = len(cbasis)
    if c <= 1:
        return list(cbasis)
    small = _restrict(cbasis, free)
    rng = np.random.default_rng(_CENTER_SEED)
    blocks = []
    for coeff in rng.standard_normal((2, c)) + 1j * rng.standard_normal((2, c)):
        g = np.tensordot(coeff, small, axes=1)
        for x in (g, g.conj().T):
            blocks.append((small @ x - x @ small).reshape(c, -1).T)
    kern = _kernel_cols(np.vstack(blocks), tol)
    check_central(np.tensordot(kern.T, small, axes=1), small, tol)
    return list(np.tensordot(kern.T, np.stack(cbasis), axes=1))


def summarize(rep: RepGens, tol: float = DEFAULT_TOL,
              guard: int = DEFAULT_GUARD) -> AlgebraSummary:
    """Commutant and centre of the algebra generated by ``rep``.

    The centre of the generated von Neumann algebra equals the centre of its
    commutant, so it is solved inside the commutant basis by
    ``center_basis``.  Dimensions and the factor and irreducibility flags
    are read off the two bases.
    """
    cbasis, free = _commutant(rep, tol, guard)
    return AlgebraSummary(cbasis, center_basis(cbasis, tol, free), free)


def _check_lists(ra: RepGens, rb: RepGens, guard: int):
    if ra.labels != rb.labels:
        raise LabelMismatch(f"generator labels differ: {ra.labels} vs {rb.labels}")
    if max(ra.dim, rb.dim) > guard:
        raise DimensionGuard(f"dimension exceeds guard {guard}")


def intertwiners(ra: RepGens, rb: RepGens, tol: float = DEFAULT_TOL,
                 guard: int = DEFAULT_GUARD):
    """Basis of {T : T X_a = X_b T pairwise}, generator lists label-aligned.

    Two lists read from pairs on one window take the graded solve.
    """
    _check_lists(ra, rb, guard)
    solved = _graded_nullspace(ra.pair, rb.pair, tol)
    if solved is not None:
        return solved[0]
    return sylvester_nullspace(ra.gens, rb.gens, tol)


def unitarily_equivalent(ra: RepGens, rb: RepGens, tol: float = DEFAULT_TOL,
                         guard: int = DEFAULT_GUARD, draws: int = 20,
                         seed: int = 20240405):
    """Decide unitary equivalence; on success return a unitary witness.

    Random coefficient draws over the intertwiner basis find an invertible
    element whenever one exists (the invertibles form a dense open set of
    the span); its polar unitary is returned after a conjugation check at
    residual 1e-8, read from the Frobenius norm first.

    Lists read from pairs on one window are inequivalent when the fiber
    sizes differ, since the position observables then have different
    spectra; that is decided before any solve.
    """
    if ra.dim != rb.dim:
        return False, None
    pa, pb = ra.pair, rb.pair
    one_window = pa is not None and pb is not None and pa.window == pb.window
    if one_window and pa.fibers != pb.fibers:
        _check_lists(ra, rb, guard)
        return False, None
    basis = intertwiners(ra, rb, tol, guard)
    if not basis:
        return False, None
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        t = sum(c * b for c, b in zip(coeff, basis))
        u, s, vh = np.linalg.svd(t)
        if s[0] <= 0 or s[-1] < 1e-6 * s[0]:
            continue
        witness = u @ vh
        trace = np.trace(witness)
        if abs(trace) > 1e-8:  # fix the free global phase deterministically
            witness = witness * (trace.conjugate() / abs(trace))
        worst = 0.0
        for xa, xb in zip(ra.gens, rb.gens):
            res = witness @ xa @ witness.conj().T - xb
            # ||res||_2 <= ||res||_F and the scale is at least 1
            if np.linalg.norm(res) > 1e-8:
                worst = max(worst, np.linalg.norm(res, 2)
                            / (1.0 + np.linalg.norm(xb, 2)))
        if worst <= 1e-8:
            return True, witness
        raise CheckFailed(
            f"invertible intertwiner found but conjugation residual {worst:.2e}")
    return False, None


def span_distance(basis, m) -> float:
    """Frobenius distance of a matrix from the span of an orthonormal basis."""
    acc = np.zeros_like(np.asarray(m, dtype=complex))
    for b in basis:
        acc += np.vdot(b, m) * b
    return float(np.linalg.norm(acc - m))


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

import itertools

import numpy as np
import pytest

from weylpair import (LatticeWindow, SetKind, WeylPair, intertwiners,
                      isometry_v, validate_pset)
from weylpair.errors import CheckFailed, MarginTooSmall
from weylpair.serialize import matrix_to_json, window_to_json


@pytest.fixture
def chain8():
    return LatticeWindow((0,), (7,))


@pytest.fixture
def square4():
    return LatticeWindow((0, 0), (3, 3))


def tail(window, a):
    """The 1-d tail {a..hi} as a validated upward set."""
    return validate_pset([(y,) for y in range(a, window.hi[0] + 1)], window,
                         SetKind.PSPACE)


def upset_from(window, seeds):
    """Upward closure of seed points inside the window."""
    pts = [p for p in window.points()
           if any(all(s <= c for s, c in zip(seed, p)) for seed in seeds)]
    return validate_pset(pts, window, SetKind.PSPACE)


def brute_force_upsets(window):
    """Oracle: filter the full powerset for upward invariance."""
    pts = list(window.points())
    gens = window.generators()
    out = []
    for size in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, size):
            members = set(sub)
            good = True
            for p in sub:
                for e in gens:
                    q = tuple(a + b for a, b in zip(p, e))
                    if q in window and q not in members:
                        good = False
                        break
                if not good:
                    break
            if good:
                out.append(tuple(sorted(sub)))
    return sorted(out)


def opnorm(m):
    return float(np.linalg.norm(m, 2))


def span_distance(basis, m) -> float:
    """Frobenius distance of a matrix from the span of an orthonormal basis."""
    acc = np.zeros_like(np.asarray(m, dtype=complex))
    for b in basis:
        acc += np.vdot(b, m) * b
    return float(np.linalg.norm(acc - m))


def position_projection(pair, p):
    """Coordinate projection onto the fiber block of a point."""
    out = np.zeros((pair.dim, pair.dim), dtype=complex)
    p = tuple(int(c) for c in p)
    if p in pair.offsets:
        s = pair.block_slice(p)
        out[s, s] = np.eye(s.stop - s.start)
    return out


def recover_position_projections(window, samples) -> dict:
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


def dense_pair_doc(pair):
    """The pair's document in the dense form, every generator entry listed,
    as an old or hand-written pair file holds it."""
    return {"window": window_to_json(pair.window),
            "fibers": [[list(p), k] for p, k in pair.fibers],
            "generators": [matrix_to_json(g) for g in pair.gens],
            "label": pair.label}


def scale_block(pair, axis, y, eps):
    """The pair with the first row of its block of ``axis`` at ``y`` scaled
    by 1 - eps: diag(1 - eps, 1, ..., 1) B."""
    blocks = [pair.graded_blocks(i) for i in range(pair.window.dim)]
    rows = blocks[axis][y].shape[0]
    blocks[axis][y] = np.diag([1.0 - eps] + [1.0] * (rows - 1)) @ blocks[axis][y]
    return WeylPair(pair.window, dict(pair.fibers), blocks)


def fiber_mixing_unitary(pair, rng):
    """Block-diagonal unitary with one random unitary per position block.

    Conjugating by it scrambles the fiber bases but keeps the grading.
    """
    q = np.zeros((pair.dim, pair.dim), dtype=complex)
    for p, _ in pair.fibers:
        s = pair.block_slice(p)
        k = s.stop - s.start
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q[s, s], _ = np.linalg.qr(g)
    return q


def decomposition_witness(pair, dec):
    """The dense block-diagonal witness of ``decompose_full``, written from
    its ``bases``: the block of y stacks the components' rows there, in
    component order."""
    rows = {}
    for (_, y), b in dec.bases.items():
        rows.setdefault(y, []).append(b)
    out = np.zeros((pair.dim, pair.dim), dtype=complex)
    for y, bs in rows.items():
        out[pair.block_slice(y), pair.block_slice(y)] = np.vstack(bs)
    return out


def safe_indices(pair, safe):
    """Coordinate indices of the blocks of the pair's safe points."""
    return np.array([i for s in map(pair.block_slice, pair.safe_points(safe))
                     for i in range(s.start, s.stop)], dtype=int)


def dense_weyl_defect(pair, theta, a, safe):
    """Oracle: one angle vector, dense V_a and one SVD of the whole defect.

    The norm of U V_a - exp(i theta.a) V_a U compressed to the safe blocks,
    computed from the full matrices with no use of the grading.
    """
    avec = tuple(int(c) for c in a)
    if any(c > safe.margin for c in avec):
        raise MarginTooSmall(f"shift {avec} exceeds safe margin {safe.margin}")
    th = np.asarray(theta, dtype=float)
    u = pair.position_phases(th)
    v = isometry_v(pair, avec)
    phase = np.exp(1j * float(th @ np.asarray(avec)))
    diff = u[:, None] * v - phase * (v * u[None, :])
    idx = safe_indices(pair, safe)
    if idx.size == 0:
        return 0.0
    return opnorm(diff[np.ix_(idx, idx)])


def dense_grid_defect(pair, thetas, shifts, safe):
    """Oracle maximum over every angle vector and shift, one SVD each."""
    return max(dense_weyl_defect(pair, theta, a, safe)
               for theta in thetas for a in shifts)


def dense_isometry_defect(pair, a, safe):
    """Oracle: ||V_a* V_a - 1|| compressed to the safe blocks, from the
    dense V_a and one SVD."""
    avec = tuple(int(c) for c in a)
    if any(c > safe.margin for c in avec):
        raise MarginTooSmall(f"shift {avec} exceeds safe margin {safe.margin}")
    v = isometry_v(pair, avec)
    m = v.conj().T @ v - np.eye(pair.dim)
    idx = safe_indices(pair, safe)
    if idx.size == 0:
        return 0.0
    return opnorm(m[np.ix_(idx, idx)])


def range_projection(pair, a):
    """Oracle: the range projection V_a V_a* from the dense V_a."""
    v = isometry_v(pair, a)
    e = v @ v.conj().T
    return 0.5 * (e + e.conj().T)


def dense_range_commutator(pair, probe):
    """Oracle: one SVD of every dense range-projection commutator."""
    projs = [range_projection(pair, a) for a in probe]
    return max((opnorm(p @ q - q @ p)
                for p, q in itertools.combinations(projs, 2)), default=0.0)


def dense_subspace_gap(basis_a, basis_b):
    """Oracle: ||P_a - P_b||_2 from the two n^2 x n^2 projectors."""
    if not basis_a and not basis_b:
        return 0.0
    dim = basis_a[0].size if basis_a else basis_b[0].size
    va = np.stack([b.ravel() for b in basis_a], axis=1) if basis_a else \
        np.zeros((dim, 0), dtype=complex)
    vb = np.stack([b.ravel() for b in basis_b], axis=1) if basis_b else \
        np.zeros((dim, 0), dtype=complex)
    return opnorm(va @ va.conj().T - vb @ vb.conj().T)


def equivalence_by_draws(ra, rb, draws=20, seed=20240405):
    """Oracle: the intertwiner solve and up to 20 random draws over its
    basis, each tested by an SVD of the whole n x n draw, with no use of
    fiber sizes or fiber blocks; the witness is the polar unitary of the
    first invertible draw, its global phase fixed by the trace."""
    if ra.dim != rb.dim:
        return False, None
    basis = intertwiners(ra, rb)
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
        if abs(trace) > 1e-8:
            witness = witness * (trace.conjugate() / abs(trace))
        worst = max(opnorm(witness @ xa @ witness.conj().T - xb)
                    / (1.0 + opnorm(xb)) for xa, xb in zip(ra.gens, rb.gens))
        if worst <= 1e-8:
            return True, witness
        raise CheckFailed(f"conjugation residual {worst:.2e}")
    return False, None


def dense_dilation_checks(bundle):
    """Oracle: the ``dilate`` checks by the dense formulas of the acceptance
    helper ``_dilation_defects``, as {name: value}.

    Dense W_x, V_e and E_x, one SVD of all pulled-back copies side by side,
    an eigvalsh per ordered pair of the budget box, and covariance
    W_e E_x W_e* = E_{x+e} compressed to the range of W_e.
    """
    from weylpair.dilation import budget_box, project_e

    pair = bundle.base
    emb = bundle.embed
    steps = pair.window.generators()
    out = {"embed-isometry": opnorm(emb.conj().T @ emb - np.eye(pair.dim)),
           "dilation-extends-isometries": max(
               opnorm(bundle.w(e) @ emb - emb @ isometry_v(pair, e))
               for e in steps)}
    cols = [bundle.w(tuple(-c for c in a)) @ emb
            for a in itertools.product(range(bundle.depth + 1),
                                       repeat=pair.window.dim)]
    u, sv, _ = np.linalg.svd(np.hstack(cols), full_matrices=False)
    span = u[:, sv > 1e-10]
    out["exhaustion-defect"] = opnorm(np.eye(bundle.dim)
                                      - span @ span.conj().T)
    fam = {x: project_e(bundle, x) for x in budget_box(bundle).points()}
    monotone = covariant = 0.0
    for x, ex in fam.items():
        for y, ey in fam.items():
            if all(a <= b for a, b in zip(x, y)):
                monotone = max(monotone,
                               -np.linalg.eigvalsh(ex - ey).min())
        for e in steps:
            y = tuple(a + b for a, b in zip(x, e))
            idx = bundle.safe_indices([tuple(-c for c in e)])
            if y in fam and idx.size:
                we = bundle.w(e)
                diff = we @ ex @ we.conj().T - fam[y]
                covariant = max(covariant, opnorm(diff[np.ix_(idx, idx)]))
    out["family-monotone"] = monotone
    out["family-covariant"] = covariant
    return out


def _sum_coordinates(parts):
    """Oracle layout of a direct sum: the coordinates of each summand's
    fiber at each point, blocks in point order and summands in list order
    inside a block."""
    fibers = {}
    for items in parts:
        for p, k in items:
            fibers[p] = fibers.get(p, 0) + k
    cursor, start = {}, 0
    for p in sorted(fibers):
        cursor[p], start = start, start + fibers[p]
    coords = {}
    for si, items in enumerate(parts):
        for p, k in items:
            coords[(si, p)] = np.arange(cursor[p], cursor[p] + k)
            cursor[p] += k
    return start, coords


def block_shift_generators(window, comps):
    """Oracle: the dense 0/1 generators of a canonical sum, one per
    (points, multiplicity), each coordinate of (summand, y) sent to the
    same coordinate of (summand, y + e_i) when both points lie in the
    summand's set, written into a zeroed matrix."""
    dim, coords = _sum_coordinates([[(p, k) for p in pts] for pts, k in comps])
    gens = []
    for e in window.generators():
        g = np.zeros((dim, dim), dtype=complex)
        for ci, (pts, _) in enumerate(comps):
            for p in pts:
                q = tuple(a + b for a, b in zip(p, e))
                if q in pts:
                    g[coords[(ci, q)], coords[(ci, p)]] = 1.0
        gens.append(g)
    return gens


def direct_sum_generators(pairs):
    """Oracle: the dense generators of a direct sum, each summand's whole
    generator written at its coordinates into a zeroed matrix."""
    dim, coords = _sum_coordinates([p.fibers for p in pairs])
    inj = [np.concatenate([coords[(si, y)] for y, _ in p.fibers])
           for si, p in enumerate(pairs)]
    gens = []
    for axis in range(pairs[0].window.dim):
        g = np.zeros((dim, dim), dtype=complex)
        for p, idx in zip(pairs, inj):
            g[np.ix_(idx, idx)] = p.gens[axis]
        gens.append(g)
    return gens


def placed_generators(pair):
    """Oracle: the dense generators holding the pair's graded blocks at the
    coordinates of their fibers, zero elsewhere."""
    _, coords = _sum_coordinates([pair.fibers])
    gens = []
    for axis, e in enumerate(pair.window.generators()):
        g = np.zeros((pair.dim, pair.dim), dtype=complex)
        for y, b in pair.graded_blocks(axis).items():
            q = tuple(a + c for a, c in zip(y, e))
            g[np.ix_(coords[(0, q)], coords[(0, y)])] = b
        gens.append(g)
    return gens


def extended_support_by_box(raw, wext, depth):
    """Oracle: the points of the extended window from which some shift of
    the depth box lands in the set, one shift at a time."""
    box = list(itertools.product(range(depth + 1), repeat=wext.dim))
    members = set(raw.points)
    return tuple(p for p in wext.points()
                 if any(tuple(a + b for a, b in zip(p, s)) in members
                        for s in box))

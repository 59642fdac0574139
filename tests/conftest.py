import itertools

import numpy as np
import pytest

from weylpair import LatticeWindow, SetKind, isometry_v, validate_pset
from weylpair.errors import MarginTooSmall


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
    idx = pair.safe_indices(safe)
    if idx.size == 0:
        return 0.0
    return opnorm(diff[np.ix_(idx, idx)])


def dense_grid_defect(pair, thetas, shifts, safe):
    """Oracle maximum over every angle vector and shift, one SVD each."""
    return max(dense_weyl_defect(pair, theta, a, safe)
               for theta in thetas for a in shifts)

"""Property-based checks of the classification claims.

A direct sum of canonical pairs over distinct sets S with multiplicities
m_S, conjugated by a unitary that acts inside each fiber block, must be
classified by its drawn data: the commutant has dimension sum m_S^2, the
centre one dimension per set, and ``decompose`` returns every (S, m_S) with
a witness residual <= 1e-8.

The graded ``weyl_defect``, given the whole dual grid as one stack, must
match the dense per-angle oracle within 1e-13 at every shift.

The graded commutant and intertwiner solve must span the same space as the
dense ``sylvester_nullspace`` on the same generator lists.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpair import (
    EvaluationPoint,
    GridSpec,
    LatticeWindow,
    RepGens,
    SafeRegion,
    WeylPair,
    build_pspace_pair,
    build_r2_pair,
    commutant_basis,
    direct_sum,
    dual_grid,
    enumerate_pspaces,
    intertwiners,
    random_family,
    subspace_gap,
    summarize,
    sylvester_nullspace,
    weyl_defect,
)
from weylpair.dilation import decompose_full

from conftest import dense_weyl_defect, fiber_mixing_unitary, opnorm, upset_from

POOLS = [enumerate_pspaces(LatticeWindow((0,), (7,))),
         enumerate_pspaces(LatticeWindow((0, 0), (2, 2)))]


@st.composite
def mixed_sums(draw):
    pool = POOLS[draw(st.integers(0, len(POOLS) - 1))]
    drawn = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(1, 3)),
                          min_size=1, max_size=4, unique_by=lambda t: t[0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    pair = direct_sum([build_pspace_pair(pool[i], k) for i, k in drawn])
    q = fiber_mixing_unitary(pair, np.random.default_rng(seed))
    mixed = WeylPair(pair.window, dict(pair.fibers),
                     [q @ g @ q.conj().T for g in pair.gens])
    return mixed, {pool[i].points: k for i, k in drawn}


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(mixed_sums())
def test_mixed_direct_sum_is_classified_by_its_data(case):
    pair, expected = case
    s = summarize(RepGens.from_pair(pair))
    assert s.commutant_dim == sum(m * m for m in expected.values())
    assert s.center_dim == len(expected)

    dec = decompose_full(pair)
    assert {c.raw.points: c.multiplicity for c in dec.components} == expected
    ra = RepGens.from_pair(pair)
    rb = RepGens.from_pair(dec.reassembled)
    assert max(opnorm(dec.witness @ x @ dec.witness.conj().T - y)
               for x, y in zip(ra.gens, rb.gens)) <= 1e-8


DEFECT_POOLS = [enumerate_pspaces(LatticeWindow((0,), (7,))),
                enumerate_pspaces(LatticeWindow((0, 0), (3, 3))),
                enumerate_pspaces(LatticeWindow((0, 0, 0), (2, 2, 2)))]


def half_scaled_chain_pair(start, point):
    """Canonical 8-chain tail whose generator block out of ``point`` is halved."""
    pair = build_pspace_pair(DEFECT_POOLS[0][start], 1)
    g = pair.gens[0].copy()
    g[:, pair.block_slice((point,))] *= 0.5
    return WeylPair(pair.window, dict(pair.fibers), [g])


@st.composite
def graded_pairs(draw):
    kind = draw(st.sampled_from(["canonical", "mixed", "half-scaled"]))
    margin = draw(st.integers(1, 2))
    if kind == "half-scaled":
        start = draw(st.integers(0, 5))
        point = draw(st.integers(start, 7))
        return half_scaled_chain_pair(start, point), margin
    pool = DEFECT_POOLS[draw(st.integers(0, len(DEFECT_POOLS) - 1))]
    count = 1 if kind == "canonical" else draw(st.integers(2, 3))
    pair = direct_sum([build_pspace_pair(pool[draw(st.integers(0, len(pool) - 1))],
                                         draw(st.integers(1, 2)))
                       for _ in range(count)])
    if kind == "mixed":
        seed = draw(st.integers(0, 2 ** 32 - 1))
        q = fiber_mixing_unitary(pair, np.random.default_rng(seed))
        pair = WeylPair(pair.window, dict(pair.fibers),
                        [q @ g @ q.conj().T for g in pair.gens])
    return pair, margin


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(graded_pairs())
def test_graded_defect_matches_dense_oracle(case):
    pair, margin = case
    safe = SafeRegion(margin)
    grid = dual_grid(pair.window)
    thetas = np.array(grid)
    for a in itertools.product(range(margin + 1), repeat=pair.window.dim):
        dense = max(dense_weyl_defect(pair, theta, a, safe) for theta in grid)
        assert abs(weyl_defect(pair, thetas, a, safe) - dense) <= 1e-13


#: Largest canonical sum the solver comparison builds; the dense oracle
#: grows quickly with the dimension.
SOLVE_DIM_CAP = 40


def fiber_mixed(pair, seed):
    q = fiber_mixing_unitary(pair, np.random.default_rng(seed))
    return WeylPair(pair.window, dict(pair.fibers),
                    [q @ g @ q.conj().T for g in pair.gens])


def rank_deficient_pair(window, point):
    """Canonical k = 2 pair on the full window whose every block out of
    ``point`` drops the second fiber vector: no outgoing block is injective,
    so ``point`` is a free fiber although it is not the top corner."""
    pair = build_pspace_pair(upset_from(window, [window.lo]), 2)
    col = pair.block_slice(point).start + 1
    gens = [g.copy() for g in pair.gens]
    for g in gens:
        g[:, col] = 0.0
    return WeylPair(window, dict(pair.fibers), gens)


@st.composite
def solver_pairs(draw):
    """A graded pair and a partner on its window: a fiber-mixed twin or an
    independent draw of the same kind."""
    kind = draw(st.sampled_from(["sum", "quarterplane", "deficient"]))
    if kind == "deficient":
        window = draw(st.sampled_from([LatticeWindow((0,), (7,)),
                                       LatticeWindow((0, 0), (3, 3))]))
        interior = [p for p in window.points() if p != window.hi]
        pair = rank_deficient_pair(window, draw(st.sampled_from(interior)))
        return pair, fiber_mixed(pair, draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "quarterplane":
        kappa = draw(st.integers(2, 4))
        parts = draw(st.integers(2, min(kappa, 3)))

        def draw_pair():
            fam = random_family(kappa, parts, parts,
                                seed=draw(st.integers(0, 10 ** 6)))
            return build_r2_pair(fam, EvaluationPoint.default(),
                                 GridSpec(1, parts + 1.0))
    else:
        pool = DEFECT_POOLS[draw(st.integers(0, len(DEFECT_POOLS) - 1))]

        def draw_pair():
            parts = []
            for _ in range(draw(st.integers(1, 3))):
                part = build_pspace_pair(
                    pool[draw(st.integers(0, len(pool) - 1))],
                    draw(st.integers(1, 2)))
                if parts and sum(p.dim for p in parts) + part.dim > SOLVE_DIM_CAP:
                    break
                parts.append(part)
            return direct_sum(parts)
    pair = draw_pair()
    if draw(st.booleans()):
        return pair, fiber_mixed(pair, draw(st.integers(0, 2 ** 32 - 1)))
    return pair, draw_pair()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(solver_pairs())
def test_graded_solve_matches_dense_oracle(case):
    pair, partner = case
    ra, rb = RepGens.from_pair(pair), RepGens.from_pair(partner)
    for got, want in ((commutant_basis(ra), sylvester_nullspace(ra.gens, ra.gens)),
                      (intertwiners(ra, rb), sylvester_nullspace(ra.gens, rb.gens))):
        assert len(got) == len(want)
        assert subspace_gap(got, want) <= 1e-8

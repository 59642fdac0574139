"""Property-based checks of the classification claims.

A direct sum of canonical pairs over distinct sets S with multiplicities
m_S, conjugated by a unitary that acts inside each fiber block, must be
classified by its drawn data: the commutant has dimension sum m_S^2, the
centre one dimension per set, and ``decompose`` returns every (S, m_S) with
a witness residual <= 1e-8.

The graded ``weyl_defect``, given the whole dual grid as one stack, must
match the dense per-angle oracle within 1e-13 at every shift.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpair import (
    LatticeWindow,
    RepGens,
    SafeRegion,
    WeylPair,
    build_pspace_pair,
    direct_sum,
    dual_grid,
    enumerate_pspaces,
    summarize,
    weyl_defect,
)
from weylpair.dilation import decompose_full

from conftest import dense_weyl_defect, fiber_mixing_unitary, opnorm

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

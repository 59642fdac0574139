"""Property-based checks of the classification claims.

A direct sum of canonical pairs over distinct sets S with multiplicities
m_S, conjugated by a unitary that acts inside each fiber block, must be
classified by its drawn data: the commutant has dimension sum m_S^2, the
centre one dimension per set, and ``decompose`` returns every (S, m_S) with
a witness residual <= 1e-8.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpair import (
    LatticeWindow,
    RepGens,
    WeylPair,
    build_pspace_pair,
    direct_sum,
    enumerate_pspaces,
    summarize,
)
from weylpair.dilation import decompose_full

from conftest import fiber_mixing_unitary, opnorm

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

"""Property-based checks of the classification claims.

A direct sum of canonical pairs over distinct sets S with multiplicities
m_S, conjugated by a unitary that acts inside each fiber block, must be
classified by its drawn data: the commutant has dimension sum m_S^2, the
centre one dimension per set, and ``decompose`` returns every (S, m_S) with
a witness residual <= 1e-8.

The graded ``weyl_defect``, given the whole dual grid as one stack, must
match the dense per-angle oracle within 1e-13 at every shift, and so must
the block forms of ``isometry_defect`` and ``check_commuting_ranges`` match
the dense V_a formulas; on canonical sums they are exactly 0.0.  A stray
remainder drawn outside the graded blocks makes the generators refused,
the largest stray entry named.

The graded commutant and intertwiner solve must span the same space as the
dense ``sylvester_nullspace`` on the same generator lists.  With one block
row scaled by 1 - eps near the kernel cutoff, both read the classification
wherever ``decompose_full`` finds one, and otherwise agree or raise a named
error.

The dilation checks read on the per-point blocks of a bundle must give the
values of the dense formulas within 1e-12, on working bundles and on broken
ones.

A graded pair's file, read back, gives its generators bit for bit, but for
zeros outside the blocks, which may lose their sign.

On drawn windows, ``enumerate_pspaces`` lists valid, distinct, upward closed
sets, exactly the powerset oracle's in its order on windows of dimension 1
to 4, and C(m+n, n) - 1 of them on an m x n rectangle; ``reflect_pset`` is an
involution that swaps kinds and turns a translation by x into one by -x;
and a translation that clips no point is undone by the opposite one.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    check_commuting_ranges,
    commutant_basis,
    direct_sum,
    dual_grid,
    enumerate_pspaces,
    intertwiners,
    isometry_defect,
    random_family,
    reflect_pset,
    subspace_gap,
    summarize,
    unitarily_equivalent,
    sylvester_nullspace,
    translate_pset,
    weyl_defect,
)
from weylpair.cli import main
from weylpair.errors import (EmptySetError, FiberMismatch,
                             PairInvariantViolation, WeylPairError)
from weylpair.lattice import PSet, SetKind
from weylpair.serialize import document_to_json, pair_from_json, pair_to_json
from weylpair import commutant, dilation
from weylpair.dilation import decompose_full

from conftest import (brute_force_upsets, dense_dilation_checks,
                      dense_isometry_defect, dense_range_commutator,
                      dense_weyl_defect,
                      equivalence_by_draws, fiber_mixing_unitary, opnorm,
                      scale_block, tail, upset_from)

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


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(mixed_sums())
def test_depth_zero_embedding_is_the_decomposition_witness(case):
    # both are written from the same routed bases, and at depth zero the
    # dilated layout is the reassembled one
    pair, _ = case
    witness = decompose_full(pair).witness
    assert np.array_equal(dilation.minimal_dilation(pair, 0).embed, witness)


@st.composite
def scaled_sums(draw):
    """A mixed sum with the first row of one generator block scaled by
    1 - eps, eps from 1e-12 to 1e-7."""
    pair, _ = draw(mixed_sums())
    sites = [(axis, y) for axis in range(pair.window.dim)
             for y in sorted(pair.graded_blocks(axis))]
    if not sites:
        return pair
    axis, y = draw(st.sampled_from(sites))
    return scale_block(pair, axis, y, 10.0 ** draw(st.floats(-12.0, -7.0)))


def _summary(rep):
    """(commutant dim, centre dim), or the type of the error raised."""
    try:
        s = summarize(rep)
        return s.commutant_dim, s.center_dim
    except WeylPairError as exc:
        return type(exc)


_CHAIN2 = build_pspace_pair(tail(LatticeWindow((0,), (7,)), 0), 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(scaled_sums())
@example(scale_block(_CHAIN2, 0, (3,), 1e-12))
@example(scale_block(_CHAIN2, 0, (3,), 5e-9))
@example(scale_block(_CHAIN2, 0, (3,), 1e-8))
@example(scale_block(_CHAIN2, 0, (3,), 5e-8))
def test_near_cutoff_pairs_are_classified_or_refused_by_name(pair):
    # where decompose classifies the pair, the graded and the dense solver
    # read (sum m^2, number of components); elsewhere they agree, or one of
    # them raises a named error instead of reading an impossible algebra
    rep = RepGens.from_pair(pair)
    graded, dense = (_summary(r) for r in
                     (rep, RepGens(rep.dim, rep.gens, rep.labels)))
    try:
        comps = decompose_full(pair).components
    except WeylPairError:
        assert graded == dense or isinstance(graded, type) \
            or isinstance(dense, type)
    else:
        want = (sum(c.multiplicity ** 2 for c in comps), len(comps))
        assert graded == dense == want


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


#: An optional stray remainder: its Frobenius norm per generator, 1e-12 to
#: 1e-2, and the seed that places it.
strays = st.none() | st.tuples(st.floats(-12.0, -2.0).map(lambda x: 10.0 ** x),
                                st.integers(0, 2 ** 32 - 1))


def outside_blocks(pair, axis):
    """Mask of the entries of generator ``axis`` outside its graded blocks."""
    outside = np.ones((pair.dim, pair.dim), dtype=bool)
    for y in pair.graded_blocks(axis):
        z = tuple(c + (i == axis) for i, c in enumerate(y))
        outside[pair.block_slice(z), pair.block_slice(y)] = False
    return outside


def assert_stray_refused(pair, stray):
    """For a drawn ``stray``, give every generator of the pair one to three
    entries of that Frobenius norm outside its graded blocks: the pair is
    refused, naming axis 0 and its largest stray entry."""
    if stray is None:
        return
    size, seed = stray
    rng = np.random.default_rng(seed)
    gens = []
    for axis, g in enumerate(pair.gens):
        rows, cols = np.nonzero(outside_blocks(pair, axis))
        pick = rng.choice(rows.size, size=min(rows.size, rng.integers(1, 4)),
                          replace=False)
        r = np.zeros(g.shape, dtype=complex)
        r[rows[pick], cols[pick]] = (rng.standard_normal(pick.size)
                                     + 1j * rng.standard_normal(pick.size))
        gens.append(g + size * r / np.linalg.norm(r))
    largest = float(np.abs(gens[0] - pair.gens[0]).max())
    with pytest.raises(PairInvariantViolation,
                       match=rf"generator 0 has an entry outside its graded "
                             rf"blocks \(largest stray entry {largest:.3e}\)"):
        WeylPair(pair.window, dict(pair.fibers), gens)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(graded_pairs(), strays)
def test_graded_defect_matches_dense_oracle(case, stray):
    pair, margin = case
    assert_stray_refused(pair, stray)
    safe = SafeRegion(margin)
    grid = dual_grid(pair.window)
    thetas = np.array(grid)
    shifts = list(itertools.product(range(margin + 1), repeat=pair.window.dim))
    for a in shifts:
        dense = max(dense_weyl_defect(pair, theta, a, safe) for theta in grid)
        assert abs(weyl_defect(pair, thetas, a, safe) - dense) <= 1e-13


@st.composite
def checked_pairs(draw):
    """A graded pair, a margin and whether it is a canonical sum.

    Three-dimensional sums are checked at margin 1 only: the dense oracle
    takes one SVD per pair of probe shifts."""
    kind = draw(st.sampled_from(["canonical", "mixed", "quarterplane"]))
    if kind == "quarterplane":
        kappa = draw(st.integers(2, 4))
        parts = draw(st.integers(2, min(kappa, 3)))
        fam = random_family(kappa, parts, parts, seed=draw(st.integers(0, 10 ** 6)))
        pair = build_r2_pair(fam, EvaluationPoint.default(), GridSpec(1, parts + 1.0))
        return pair, draw(st.integers(1, 2)), False
    pool = DEFECT_POOLS[draw(st.integers(0, len(DEFECT_POOLS) - 1))]
    pair = direct_sum([build_pspace_pair(pool[draw(st.integers(0, len(pool) - 1))],
                                         draw(st.integers(1, 2)))
                       for _ in range(draw(st.integers(1, 3)))])
    margin = 1 if pair.window.dim == 3 else draw(st.integers(1, 2))
    if kind == "mixed":
        pair = fiber_mixed(pair, draw(st.integers(0, 2 ** 32 - 1)))
    return pair, margin, kind == "canonical"


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(checked_pairs(), strays)
def test_block_checks_match_dense_oracles(case, stray):
    pair, margin, canonical = case
    assert_stray_refused(pair, stray)
    safe = SafeRegion(margin)
    shifts = list(itertools.product(range(margin + 1), repeat=pair.window.dim))
    probe = [a for a in shifts if any(a)]
    iso = [isometry_defect(pair, a, safe) for a in shifts]
    ranges = check_commuting_ranges(pair, probe)
    if canonical:
        assert iso == [0.0] * len(shifts) and ranges == 0.0
    for a, value in zip(shifts, iso):
        assert abs(value - dense_isometry_defect(pair, a, safe)) <= 1e-13
    assert abs(ranges - dense_range_commutator(pair, probe)) <= 1e-13


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


@st.composite
def classified_pairs(draw):
    """A fiber-mixed sum on the line or the plane window, or a pair with a
    rank-deficient point; a block-unitary twin; the free points of both."""
    kind = draw(st.sampled_from(["line", "plane", "deficient"]))
    if kind == "deficient":
        window = draw(st.sampled_from([LatticeWindow((0,), (7,)),
                                       LatticeWindow((0, 0), (3, 3))]))
        interior = [p for p in window.points() if p != window.hi]
        point = draw(st.sampled_from(interior))
        pair, free = rank_deficient_pair(window, point), [point, window.hi]
    else:
        pool = POOLS[0 if kind == "line" else 1]
        parts = []
        for _ in range(draw(st.integers(1, 3))):
            part = build_pspace_pair(pool[draw(st.integers(0, len(pool) - 1))],
                                     draw(st.integers(1, 3)))
            if parts and sum(p.dim for p in parts) + part.dim > SOLVE_DIM_CAP:
                break
            parts.append(part)
        pair = fiber_mixed(direct_sum(parts), draw(st.integers(0, 2 ** 32 - 1)))
        free = [pair.window.hi]
    return pair, fiber_mixed(pair, draw(st.integers(0, 2 ** 32 - 1))), free


def _components(pair):
    """Orbit-normalised components, or the type of the error raised."""
    try:
        return [(c.pspace.points, c.translation, c.multiplicity)
                for c in decompose_full(pair).components]
    except WeylPairError as exc:
        return type(exc)


_DEFICIENT = rank_deficient_pair(LatticeWindow((0, 0), (3, 3)), (1, 2))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(classified_pairs())
@example((_DEFICIENT, fiber_mixed(_DEFICIENT, 11), [(1, 2), (3, 3)]))
def test_free_fiber_classification_matches_dense_path(case):
    *pairs, free = case
    for pair in pairs:
        rep = RepGens.from_pair(pair)
        graded = summarize(rep)
        coords = np.arange(pair.dim)
        assert list(commutant._commutant(rep)[1]) == [
            i for pt in free for i in coords[pair.block_slice(pt)]]
        dense = summarize(RepGens(rep.dim, rep.gens, rep.labels))
        assert graded.center_dim == dense.center_dim
        # each component is a factor with an m x m commutant
        comps = _components(pair)
        if isinstance(comps, list):
            for s in (graded, dense):
                assert len(comps) == s.center_dim
                assert sum(m * m for *_, m in comps) == s.commutant_dim
    assert _components(pairs[0]) == _components(pairs[1])


def test_a_rank_deficient_point_is_refused_by_its_fibers(tmp_path, capsys):
    # every block out of (3,) drops a fiber vector, so V_{7-y} reaches the
    # top corner with rank 1 from y <= 3: the split finds the components
    # [0, 7] and [4, 7] at multiplicity 1, whose sum has fiber 1 at (3,)
    pair = rank_deficient_pair(LatticeWindow((0,), (7,)), (3,))
    with pytest.raises(FiberMismatch, match="reassembled fibers differ"):
        decompose_full(pair)
    scenario = tmp_path / "deficient.json"
    scenario.write_text(json.dumps({"command": "decompose",
                                    "pair": pair_to_json(pair)}))
    code = main(["decompose", "--scenario", str(scenario),
                 "--out", str(tmp_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["kind"] == "FiberMismatch"


def _sum_of(window, data):
    return direct_sum([build_pspace_pair(
        PSet(window, tuple(sorted(pts)), SetKind.PSPACE), k) for pts, k in data])


def _minimal_points(pts):
    return [p for p in pts
            if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts)]


#: Pairs of sets of the plane pool where neither holds the other.
CROSSING = [(s, t) for s, t in itertools.combinations(POOLS[1], 2)
            if not set(s.points) <= set(t.points)
            and not set(t.points) <= set(s.points)]


@st.composite
def equivalence_cases(draw):
    """A fiber-mixed sum and a fiber-mixed partner of its dimension: its
    block-unitary twin; the sum with a minimal point of one set moved into
    a singleton at the top corner (other fibers); or, on the plane, a sum of
    two crossing sets S, T and the whole window at one multiplicity, with
    S and T regrouped as S | T and S & T (the same fibers, no invertible
    intertwiner)."""
    kind = draw(st.sampled_from(["twin", "moved", "regrouped"]))
    pool = POOLS[1 if kind == "regrouped" else draw(st.integers(0, 1))]
    window = pool[0].window
    drawn = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(1, 2)),
                          min_size=1, max_size=3, unique_by=lambda t: t[0]))
    data = [(pool[i].points, k) for i, k in drawn]
    movable = [j for j, (pts, _) in enumerate(data) if len(pts) > 1]
    if kind == "moved" and movable:
        j = draw(st.sampled_from(movable))
        pts, k = data[j]
        drop = draw(st.sampled_from(_minimal_points(pts)))
        other = data[:j] + data[j + 1:] + [
            (tuple(p for p in pts if p != drop), k), ((window.hi,), k)]
    elif kind == "regrouped":
        s, t = (ps.points for ps in draw(st.sampled_from(CROSSING)))
        k = data[0][1]
        # the whole window as a third set gives nonzero intertwiners
        data = [(s, k), (t, k), (tuple(window.points()), k)] + data[1:2]
        meet = set(s) & set(t)
        other = [(set(s) | set(t), k)] + [(meet, k)] * bool(meet) + data[2:]
    else:
        other = None
    pair = fiber_mixed(_sum_of(window, data), draw(st.integers(0, 2 ** 32 - 1)))
    partner = pair if other is None else _sum_of(window, other)
    return pair, fiber_mixed(partner, draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(equivalence_cases())
def test_equivalence_matches_the_full_draw_loop(case):
    pair, partner = case
    ra, rb = RepGens.from_pair(pair), RepGens.from_pair(partner)
    ok, witness = unitarily_equivalent(ra, rb)
    want_ok, want_witness = equivalence_by_draws(ra, rb)
    assert ok == want_ok
    if ok:
        # the same draw, its polar factor taken fiber by fiber: the dense
        # one to roundoff, and exactly zero off the fiber blocks
        assert opnorm(witness - want_witness) <= 1e-10
        inside = np.zeros(witness.shape, dtype=bool)
        for y in pair.points:
            inside[pair.block_slice(y), pair.block_slice(y)] = True
        assert np.all(witness[~inside] == 0)
    else:
        assert witness is None and want_witness is None


def signed_zeros_outside(pair):
    """The pair with every entry outside its graded blocks written -0.0."""
    gens = []
    for axis, g in enumerate(pair.gens):
        g = g.copy()
        g[outside_blocks(pair, axis)] = complex(-0.0, -0.0)
        gens.append(g)
    return WeylPair(pair.window, dict(pair.fibers), gens, label=pair.label)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(graded_pairs().map(lambda case: case[0]),
                 checked_pairs().map(lambda case: case[0]),
                 solver_pairs().map(lambda case: case[1])),
       st.booleans())
def test_pair_files_give_the_generators_bit_for_bit(pair, signed):
    """The pair file of a graded pair holds its blocks; read back, every
    generator entry has its bits, but for zeros outside the blocks, which
    may lose their sign."""
    if signed:
        pair = signed_zeros_outside(pair)
    doc = pair_to_json(pair, matrix=np.asarray)
    assert "blocks" in doc and "generators" not in doc
    back = pair_from_json(json.loads(document_to_json(doc)))
    assert (back.window, back.fibers, back.label) \
        == (pair.window, pair.fibers, pair.label)
    for axis, (g, h) in enumerate(zip(pair.gens, back.gens)):
        outside = outside_blocks(pair, axis)
        assert not g[outside].any()
        want = g.copy()
        want[outside] = 0.0
        assert h.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the lattice: enumeration and the translation / reflection dualities

# sides per dimension that keep an enumeration to at most 70 sets
MAX_SIDE = {1: 8, 2: 4, 3: 2}


@st.composite
def windows(draw, dim=None):
    d = dim or draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    sides = [draw(st.integers(1, MAX_SIDE[d])) for _ in range(d)]
    return LatticeWindow(lo, tuple(a + s - 1 for a, s in zip(lo, sides)))


@st.composite
def oracle_windows(draw):
    """Windows of dimension 1 to 4, at any offset, with at most 12 points."""
    d = draw(st.integers(1, 4))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    sides, room = [], 12
    for _ in range(d):
        sides.append(draw(st.integers(1, min(room, 8))))
        room //= sides[-1]
    return LatticeWindow(lo, tuple(a + s - 1 for a, s in zip(lo, sides)))


@st.composite
def invariant_sets(draw):
    """An enumerated upward set, or its reflection (a downward set)."""
    psets = enumerate_pspaces(draw(windows()))
    ps = psets[draw(st.integers(0, len(psets) - 1))]
    return reflect_pset(ps) if draw(st.booleans()) else ps


def _upward_closed(points, window):
    members = set(points)
    return all(q not in window or q in members
               for p in points for e in window.generators()
               for q in [tuple(a + b for a, b in zip(p, e))])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(windows())
def test_enumerated_sets_are_valid_distinct_upward_closed(w):
    psets = enumerate_pspaces(w)
    assert len({ps.points for ps in psets}) == len(psets)
    for ps in psets:
        assert isinstance(ps, PSet) and ps.kind is SetKind.PSPACE
        assert ps.window == w and len(ps.points) > 0
        assert len(set(ps.points)) == len(ps.points)
        assert all(p in w for p in ps.points)
        assert _upward_closed(ps.points, w)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(oracle_windows())
def test_enumeration_matches_powerset_oracle(w):
    psets = enumerate_pspaces(w)
    assert [ps.points for ps in psets] == brute_force_upsets(w)
    for ps in psets:
        rebuilt = PSet(w, ps.points, SetKind.PSPACE)
        assert (ps.indices, ps._mask) == (rebuilt.indices, rebuilt._mask)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(windows(dim=2))
def test_rectangle_count_is_binomial(w):
    m, n = w.sides
    assert len(enumerate_pspaces(w)) == math.comb(m + n, n) - 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(invariant_sets())
def test_reflection_is_an_involution_swapping_kinds(ps):
    r = reflect_pset(ps)
    assert r.kind is not ps.kind
    assert reflect_pset(r) == ps


def _translate(ps, x):
    try:
        return translate_pset(ps, x)
    except EmptySetError:
        return None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(invariant_sets(), st.data())
def test_reflection_negates_translation(ps, data):
    x = tuple(data.draw(st.integers(-s, s)) for s in ps.window.sides)
    moved = _translate(ps, x)
    mirrored = _translate(reflect_pset(ps), tuple(-c for c in x))
    assert (moved is None) == (mirrored is None)
    if moved is not None:
        assert reflect_pset(moved[0]) == mirrored[0]
        assert moved[1] == mirrored[1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(invariant_sets(), st.data())
def test_unclipped_translation_is_undone_by_its_opposite(ps, data):
    # an upward set holds the top corner, so only a step down can clip
    # nothing, and none does while it stays within the set's distance from
    # the window floor (the other way round for a downward set)
    sign = -1 if ps.kind is SetKind.PSPACE else 1
    slack = [min(p[i] for p in ps.points) - ps.window.lo[i] if sign < 0
             else ps.window.hi[i] - max(p[i] for p in ps.points)
             for i in range(ps.window.dim)]
    x = tuple(sign * data.draw(st.integers(0, s)) for s in slack)
    moved, clip = translate_pset(ps, x)
    assert clip == 0
    back, _ = translate_pset(moved, tuple(-c for c in x))
    assert back == ps


@st.composite
def dilated_sums(draw):
    """A fiber-mixed sum on the line or the plane window and a depth."""
    pool = POOLS[draw(st.integers(0, len(POOLS) - 1))]
    drawn = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(1, 2)),
                          min_size=1, max_size=3, unique_by=lambda t: t[0]))
    pair = direct_sum([build_pspace_pair(pool[i], k) for i, k in drawn])
    return (fiber_mixed(pair, draw(st.integers(0, 2 ** 32 - 1))),
            draw(st.integers(0, 2)))


def _assert_checks_match_dense(bundle):
    got = {name: value for name, value, _ in
           dilation.dilation_checks(bundle, 1e-10)}
    want = dense_dilation_checks(bundle)
    assert got.keys() == want.keys()
    for name, value in got.items():
        assert abs(value - want[name]) <= 1e-12, (name, value, want[name])
    return got


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(dilated_sums())
def test_dilation_checks_match_the_dense_formulas(case):
    pair, depth = case
    bundle = dilation.minimal_dilation(pair, depth)
    got = _assert_checks_match_dense(bundle)
    assert got["embed-isometry"] <= 1e-12
    assert max(got.values()) <= 1e-10

    # negative controls: the embedding with its top fiber block zeroed (no
    # other copy reaches the top corner) ...
    top = pair.window.hi
    blocks = dict(bundle.embed_blocks)
    blocks[top] = np.zeros_like(blocks[top])
    broken = _assert_checks_match_dense(
        dataclasses.replace(bundle, embed_blocks=blocks))
    assert abs(broken["embed-isometry"] - 1.0) <= 1e-12
    assert abs(broken["exhaustion-defect"] - 1.0) <= 1e-12

    # ... and a base generator block scaled by 3/2, which the dilated shift
    # no longer extends
    found = [(axis, y) for axis in range(pair.window.dim)
             for y in pair.graded_blocks(axis)]
    if found:
        axis, source = found[0]
        gens = [g.copy() for g in pair.gens]
        cut = (pair.block_slice(_step(source, axis)), pair.block_slice(source))
        gens[axis][cut] *= 1.5
        bent = WeylPair(pair.window, dict(pair.fibers), gens)
        broken = _assert_checks_match_dense(
            dataclasses.replace(bundle, base=bent))
        assert broken["dilation-extends-isometries"] > 0.4


def _step(point, axis):
    return tuple(c + (i == axis) for i, c in enumerate(point))

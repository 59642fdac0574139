import itertools
import json

import numpy as np
import pytest

from weylpair import (
    BudgetExceeded,
    CovariantRep,
    DepthZeroDegenerate,
    FiberMismatch,
    LatticeWindow,
    NonCommutingRanges,
    PatternNotYSet,
    RepGens,
    SetKind,
    TestFunction,
    WeylPair,
    build_pspace_pair,
    check_commuting_ranges,
    commutant_basis,
    compress_to_base,
    decompose,
    direct_sum,
    extend_u,
    integrate_family,
    isometry_v,
    joint_spectrum,
    minimal_dilation,
    project_e,
    translate_pset,
    unitarily_equivalent,
    unitary_u,
    validate_pset,
)
from weylpair import commutant, dilation
from weylpair.cli import main
from weylpair.dilation import decompose_full, e_diagonal
from weylpair.lattice import _extremal_points, _leq, _sub
from weylpair.serialize import pair_to_json

from conftest import (decomposition_witness, fiber_mixing_unitary, opnorm,
                      scale_block, span_distance, tail, upset_from)


@pytest.fixture
def bundle8(chain8):
    return minimal_dilation(build_pspace_pair(tail(chain8, 0), 1), 4)


def diagonal_patterns(rep):
    """Oracle for the joint spectrum: read diagonal 0/1 family directly."""
    pts = sorted(rep.box.points())
    dim = rep.e(pts[0]).shape[0]
    pats = {}
    for i in range(dim):
        pat = tuple(x for x in pts if rep.e(x)[i, i].real > 0.5)
        pats[pat] = pats.get(pat, 0) + 1
    return sorted(pats.items())


def test_dilation_dimension_and_shift(bundle8):
    # depth 4 below a full chain of 8: twelve coordinates, one component
    assert bundle8.dim == 12
    assert len(bundle8.components) == 1
    w1 = bundle8.w((1,))
    # bilateral-shift truncation: lower subdiagonal ones
    assert np.abs(w1).sum() == pytest.approx(11.0)
    assert opnorm(w1[1:, :-1] - np.eye(11)) < 1e-14


def test_dilation_axioms(bundle8, chain8):
    pair = bundle8.base
    emb = bundle8.embed
    # (1) embedding is an isometry
    assert opnorm(emb.conj().T @ emb - np.eye(pair.dim)) < 1e-12
    # (2) group element unitary inside the budget-declared subspace
    for x in [(1,), (-1,), (2,), (-3,)]:
        wx = bundle8.w(x)
        idx = bundle8.safe_indices([x])
        sub = (wx.conj().T @ wx)[np.ix_(idx, idx)]
        assert opnorm(sub - np.eye(len(idx))) < 1e-12
    # (3) dilation extends the semigroup through the embedding
    for a in [(1,), (2,), (4,)]:
        assert opnorm(bundle8.w(a) @ emb - emb @ isometry_v(pair, a)) < 1e-12
    # (4) the pulled-back copies exhaust the dilation space
    cols = [bundle8.w((-a,)) @ emb for a in range(5)]
    stack = np.hstack(cols)
    u, sv, _ = np.linalg.svd(stack, full_matrices=False)
    span = u[:, sv > 1e-10]
    assert opnorm(np.eye(bundle8.dim) - span @ span.conj().T) < 1e-12


def test_group_law_within_budget(bundle8):
    for x, y in [((1,), (1,)), ((-1,), (2,)), ((-2,), (-1,))]:
        xy = tuple(a + b for a, b in zip(x, y))
        idx = bundle8.safe_indices([y, xy])
        lhs = bundle8.w(x) @ bundle8.w(y)
        rhs = bundle8.w(xy)
        assert opnorm((lhs - rhs)[:, idx]) < 1e-12


def _safe_indices_oracle(bundle, shifts):
    """Per point: keep a block when every shift stays in its support."""
    keep = []
    for ci, ((_, k), supp) in enumerate(zip(bundle.components, bundle.supports)):
        members = set(supp)
        for p in supp:
            if all(tuple(a + b for a, b in zip(p, s)) in members for s in shifts):
                base = bundle.dilated.offsets[p][0] + bundle.index[(ci, p)]
                keep.extend(range(base, base + k))
    return np.array(sorted(keep), dtype=int)


def test_safe_indices_match_the_per_point_predicate(chain8, square4):
    # the bundles of acceptance criterion 05, and a multiplicity-2 sum
    cases = [
        (build_pspace_pair(tail(chain8, 0), 1), 4),
        (build_pspace_pair(tail(chain8, 2), 2), 4),
        (direct_sum([build_pspace_pair(tail(chain8, 0), 1),
                     build_pspace_pair(tail(chain8, 3), 1)]), 4),
        (build_pspace_pair(upset_from(square4, [(0, 0)]), 1), 2),
        (build_pspace_pair(upset_from(square4, [(1, 0), (0, 2)]), 1), 2),
        (direct_sum([build_pspace_pair(upset_from(square4, [(1, 1)]), 2),
                     build_pspace_pair(upset_from(square4, [(2, 0)]), 1)]), 1),
    ]
    for pair, depth in cases:
        bundle = minimal_dilation(pair, depth)
        r = depth + 1
        box = list(itertools.product(range(-r, r + 1), repeat=pair.window.dim))
        for shifts in ([[]] + [[x] for x in box]
                       + [[x, y] for x in box[::3] for y in box[::4]]):
            got = bundle.safe_indices(shifts)
            want = _safe_indices_oracle(bundle, shifts)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def _e_diagonal_oracle(bundle, x):
    """Per point: the block of y is in the range of E_x when y - x dominates
    a minimal element of its component."""
    out = np.zeros(bundle.dim)
    for ci, ((raw, k), supp) in enumerate(zip(bundle.components,
                                              bundle.supports)):
        minimals = _extremal_points(raw)
        for p in supp:
            if any(_leq(m, _sub(p, x)) for m in minimals):
                r0 = bundle.dilated.offsets[p][0] + bundle.index[(ci, p)]
                out[r0:r0 + k] = 1.0
    return out


def _bundle_cases(chain8, square4):
    """Bundles on the line and the plane at depths 0 to 3, with single
    components, multiplicities and multi-component sums."""
    pairs = [
        build_pspace_pair(tail(chain8, 0), 1),
        build_pspace_pair(tail(chain8, 5), 2),
        direct_sum([build_pspace_pair(tail(chain8, 1), 1),
                    build_pspace_pair(tail(chain8, 4), 2),
                    build_pspace_pair(tail(chain8, 7), 1)]),
        build_pspace_pair(upset_from(square4, [(1, 0), (0, 2)]), 1),
        direct_sum([build_pspace_pair(upset_from(square4, [(1, 1)]), 2),
                    build_pspace_pair(upset_from(square4, [(2, 0), (0, 3)]), 1),
                    build_pspace_pair(upset_from(square4, [(3, 3)]), 1)]),
    ]
    return [minimal_dilation(pair, depth) for pair in pairs
            for depth in range(4)]


def test_e_diagonal_matches_the_per_point_loop(chain8, square4):
    for bundle in _bundle_cases(chain8, square4):
        r = bundle.budget
        d = bundle.base.window.dim
        for x in itertools.product(range(-r, r + 1), repeat=d):
            got = e_diagonal(bundle, x)
            want = _e_diagonal_oracle(bundle, x)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for x in [(r + 1,) * d, (0,) * (d - 1) + (-r - 1,)]:
            with pytest.raises(BudgetExceeded):
                e_diagonal(bundle, x)


def test_w_refuses_backward_shifts_past_the_budget(chain8, square4):
    for bundle in _bundle_cases(chain8, square4):
        r = bundle.budget
        d = bundle.base.window.dim
        # forward shifts are not budgeted
        assert bundle.w((r + 1,) * d).shape == (bundle.dim, bundle.dim)
        if bundle.depth == 0:
            with pytest.raises(DepthZeroDegenerate):
                bundle.w((-1,) + (0,) * (d - 1))
        else:
            with pytest.raises(BudgetExceeded):
                bundle.w((-r - 1,) * d)


def test_depth_zero_degenerate(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    b0 = minimal_dilation(pair, 0)
    assert b0.dim == pair.dim
    assert opnorm(b0.w((1,)) - pair.gens[0]) < 1e-12
    with pytest.raises(DepthZeroDegenerate):
        b0.w((-1,))


def test_noncommuting_base_rejected():
    from weylpair import EvaluationPoint, GridSpec, build_r2_pair, demo_family

    pair = build_r2_pair(demo_family(6), EvaluationPoint.default(),
                         GridSpec(2, 2.5))
    with pytest.raises(NonCommutingRanges):
        minimal_dilation(pair, 1)


@pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")
def test_a_non_finite_range_commutator_is_refused_as_noncommuting_ranges():
    # every block scaled to 1e160: V_(1,1) composes them to 1e320, which
    # overflows, so the range commutators read NaN
    w = LatticeWindow((0, 0), (1, 1))
    pair = build_pspace_pair(validate_pset(list(w.points()), w, SetKind.PSPACE), 1)
    big = WeylPair(w, dict(pair.fibers), [1e160 * g for g in pair.gens])
    assert np.isnan(check_commuting_ranges(big))
    with pytest.raises(NonCommutingRanges, match="nan"):
        decompose_full(big)


def test_project_e_at_origin(bundle8):
    e0 = project_e(bundle8, (0,))
    emb = bundle8.embed
    assert opnorm(e0 - emb @ emb.conj().T) < 1e-12


def test_project_e_negative_shift(bundle8):
    # twelve dilation coordinates sit at positions -4..7; the projection for
    # shift -2 covers exactly the coordinates at positions >= -2
    e = project_e(bundle8, (-2,))
    assert np.trace(e).real == pytest.approx(10.0)
    diag = np.diag(e).real
    positions = sorted(bundle8.supports[0])
    covered = [p[0] for p, d in zip(positions, diag) if d > 0.5]
    assert covered == list(range(-2, 8))


def test_project_e_semigroup_matches_range_projection(bundle8):
    pair = bundle8.base
    emb = bundle8.embed
    for a in [(1,), (3,)]:
        va = isometry_v(pair, a)
        lhs = project_e(bundle8, a)
        rhs = emb @ (va @ va.conj().T) @ emb.conj().T
        assert opnorm(lhs - rhs) < 1e-12


def test_project_e_budget(bundle8):
    with pytest.raises(BudgetExceeded):
        project_e(bundle8, (5,))


def test_family_observations(bundle8):
    rep = CovariantRep.from_bundle(bundle8)
    pts = sorted(rep.box.points())
    for x in pts:
        ex = rep.e(x)
        assert opnorm(ex @ ex - ex) < 1e-12
        assert opnorm(ex - ex.conj().T) < 1e-12
        for y in pts:
            ey = rep.e(y)
            assert opnorm(ex @ ey - ey @ ex) < 1e-12
            if all(a <= b for a, b in zip(x, y)):
                assert np.linalg.eigvalsh(ex - ey).min() > -1e-12
    # covariance: W_x E_y W_x* = E_{x+y} on blocks that survive the shift
    for x in [(1,), (-1,), (2,)]:
        wx = bundle8.w(x)
        for y in [(0,), (1,), (-2,)]:
            xy = tuple(a + b for a, b in zip(x, y))
            if max(abs(c) for c in xy) > bundle8.budget:
                continue
            idx = bundle8.safe_indices([tuple(-c for c in x)])
            diff = wx @ rep.e(y) @ wx.conj().T - rep.e(xy)
            assert opnorm(diff[np.ix_(idx, idx)]) < 1e-12


def test_integrate_family_delta_and_linearity(bundle8):
    rep = CovariantRep.from_bundle(bundle8)
    box = rep.box
    f = TestFunction.delta(box, (0,))
    assert opnorm(integrate_family(rep, f) - rep.e((0,))) < 1e-13
    g = TestFunction.delta(box, (-2,), 0.5 - 0.25j)
    lhs = integrate_family(rep, f + g)
    rhs = integrate_family(rep, f) + integrate_family(rep, g)
    assert opnorm(lhs - rhs) < 1e-13
    # monotone difference of deltas is positive semidefinite
    diff = TestFunction.delta(box, (-1,)) + TestFunction.delta(box, (2,), -1.0)
    assert np.linalg.eigvalsh(integrate_family(rep, diff)).min() > -1e-12


def test_integrate_family_outside_budget(bundle8):
    rep = CovariantRep.from_bundle(bundle8)
    wide = LatticeWindow((-8,), (8,))
    with pytest.raises(BudgetExceeded):
        integrate_family(rep, TestFunction.delta(wide, (7,)))


def test_joint_spectrum_matches_diagonal_oracle(bundle8):
    rep = CovariantRep.from_bundle(bundle8)
    got = [(p.points, d) for p, d in joint_spectrum(rep)]
    assert got == diagonal_patterns(rep)
    dims = sorted(d for _, d in got)
    assert dims == [1] * 8 + [4]
    for p, _ in joint_spectrum(rep):
        assert p.kind is SetKind.YSET


def test_joint_spectrum_multiplicity_scales(chain8):
    b = minimal_dilation(build_pspace_pair(tail(chain8, 0), 2), 3)
    spec = joint_spectrum(CovariantRep.from_bundle(b))
    assert all(d % 2 == 0 for _, d in spec)
    assert spec == [(p, d) for p, d in diagonal_oracle_pairs(b)]


def diagonal_oracle_pairs(bundle):
    rep = CovariantRep.from_bundle(bundle)
    pats = diagonal_patterns(rep)
    from weylpair import PSet

    return [(PSet(rep.box, pts, SetKind.YSET), d) for pts, d in pats]


def test_joint_spectrum_single_orbit_for_factorial_input(chain8):
    b = minimal_dilation(build_pspace_pair(tail(chain8, 2), 1), 3)
    spec = joint_spectrum(CovariantRep.from_bundle(b))
    base = spec[0][0]
    for other, _ in spec[1:]:
        t = tuple(b - a for a, b in zip(base.points[-1], other.points[-1]))
        moved, _ = translate_pset(base, t)
        assert moved.points == other.points


def test_joint_spectrum_rejects_bad_family(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    # a coordinate that E_0 covers but E_-1 does not: its pattern is not
    # downward invariant
    bundle = minimal_dilation(pair, 4)
    i = int(np.flatnonzero(e_diagonal(bundle, (0,)))[0])
    bundle._diagonals[(-1,)][i] = 0.0
    with pytest.raises(PatternNotYSet, match="downward invariance"):
        joint_spectrum(CovariantRep.from_bundle(bundle))
    # a coordinate that no E_x covers: its pattern is empty
    bundle = minimal_dilation(pair, 4)
    for diag in bundle._diagonals.values():
        diag[0] = 0.0
    with pytest.raises(PatternNotYSet):
        joint_spectrum(CovariantRep.from_bundle(bundle))


def test_extend_u_trivial_character(bundle8):
    ext = extend_u(bundle8, (0.0,))
    assert opnorm(ext - np.eye(bundle8.dim)) < 1e-12


def test_extend_u_conditions(bundle8):
    pair = bundle8.base
    emb = bundle8.embed
    rep = CovariantRep.from_bundle(bundle8)
    for theta in [(0.7,), (np.pi / 2,)]:
        ext = extend_u(bundle8, theta)
        assert opnorm(ext @ ext.conj().T - np.eye(bundle8.dim)) < 1e-12
        # (C1) restriction to the embedded base space is the base unitary
        assert opnorm(ext @ emb - emb @ unitary_u(pair, theta)) < 1e-12
        # (C2) character commutation with the dilated shifts
        for x in [(1,), (-1,), (3,)]:
            idx = bundle8.safe_indices([x])
            phase = np.exp(1j * theta[0] * x[0])
            diff = ext @ bundle8.w(x) - phase * bundle8.w(x) @ ext
            assert opnorm(diff[:, idx]) < 1e-12
        # commutes with the whole projection family
        for x in rep.box.points():
            ex = rep.e(x)
            assert opnorm(ext @ ex - ex @ ext) < 1e-12


def test_extend_u_group_law(bundle8):
    t1, t2 = (0.9,), (2.2,)
    lhs = extend_u(bundle8, t1) @ extend_u(bundle8, t2)
    rhs = extend_u(bundle8, (t1[0] + t2[0],))
    assert opnorm(lhs - rhs) < 1e-12


def test_extend_u_on_direct_sum_bundle(chain8):
    pair = direct_sum([build_pspace_pair(tail(chain8, 0), 1),
                       build_pspace_pair(tail(chain8, 2), 2)])
    bundle = minimal_dilation(pair, 3)
    rep = CovariantRep.from_bundle(bundle)
    theta = (1.3,)
    ext = extend_u(bundle, theta)
    emb = bundle.embed
    assert opnorm(ext @ ext.conj().T - np.eye(bundle.dim)) < 1e-10
    assert opnorm(ext @ emb - emb @ unitary_u(pair, theta)) < 1e-10
    for x in rep.box.points():
        ex = rep.e(x)
        assert opnorm(ext @ ex - ex @ ext) < 1e-10


def test_compress_inverts_dilation(chain8, square4):
    summed = direct_sum([build_pspace_pair(tail(chain8, 0), 2),
                         build_pspace_pair(tail(chain8, 3), 1)])
    q = fiber_mixing_unitary(summed, np.random.default_rng(11))
    for pair in [build_pspace_pair(tail(chain8, 0), 1),
                 direct_sum([build_pspace_pair(tail(chain8, 0), 1),
                             build_pspace_pair(tail(chain8, 3), 2)]),
                 # a witness that is not a coordinate map
                 WeylPair(summed.window, dict(summed.fibers),
                          [q @ g @ q.conj().T for g in summed.gens]),
                 direct_sum([build_pspace_pair(upset_from(square4, [(1, 1)]), 2),
                             build_pspace_pair(upset_from(square4, [(2, 0)]), 1)])]:
        bundle = minimal_dilation(pair, 3)
        back = compress_to_base(CovariantRep.from_bundle(bundle))
        # the base pair's own blocks come back, not just an equivalent pair
        assert back.fibers == pair.fibers
        for axis in range(pair.window.dim):
            got, want = back.graded_blocks(axis), pair.graded_blocks(axis)
            assert got.keys() == want.keys()
            assert max(opnorm(got[y] - want[y]) for y in want) < 1e-12
        ok, _ = unitarily_equivalent(RepGens.from_pair(pair),
                                     RepGens.from_pair(back))
        assert ok


def test_redilation_reproduces_bundle(chain8):
    pair = build_pspace_pair(tail(chain8, 2), 1)
    bundle = minimal_dilation(pair, 3)
    back = compress_to_base(CovariantRep.from_bundle(bundle))
    bundle2 = minimal_dilation(back, 3)
    assert bundle2.supports == bundle.supports
    ok, _ = unitarily_equivalent(RepGens.from_pair(bundle.dilated),
                                 RepGens.from_pair(bundle2.dilated))
    assert ok


def test_decompose_canonical_is_fixed_point(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 2)
    comps = decompose(pair)
    assert len(comps) == 1
    assert comps[0].multiplicity == 2
    assert comps[0].raw.points == tail(chain8, 0).points
    assert comps[0].translation == (0,)


def test_decompose_two_components(chain8):
    a = build_pspace_pair(tail(chain8, 0), 1)
    b = build_pspace_pair(tail(chain8, 1), 1)
    comps = decompose(direct_sum([a, b]))
    assert [(c.raw.points[0], c.multiplicity) for c in comps] == \
        [((0,), 1), ((1,), 1)]
    assert [c.translation for c in comps] == [(0,), (1,)]
    # orbit normalisation sends every chain tail to the full chain
    for c in comps:
        assert c.pspace.points == tail(chain8, 0).points


def test_decompose_merges_equal_supports(chain8):
    a = build_pspace_pair(tail(chain8, 2), 1)
    comps = decompose(direct_sum([a, a, a]))
    assert len(comps) == 1 and comps[0].multiplicity == 3


def test_decompose_2d_mixed(square4):
    a = upset_from(square4, [(1, 1)])
    b = upset_from(square4, [(0, 2), (2, 0)])
    pair = direct_sum([build_pspace_pair(a, 2), build_pspace_pair(b, 1)])
    comps = decompose(pair)
    got = sorted((c.raw.points, c.multiplicity) for c in comps)
    assert got == sorted([(a.points, 2), (b.points, 1)])


def test_decompose_survives_fiber_mixing(chain8):
    # conjugating by a block-diagonal unitary scrambles the fiber bases but
    # preserves the grading; the components must come back unchanged
    pair = direct_sum([build_pspace_pair(tail(chain8, 0), 2),
                       build_pspace_pair(tail(chain8, 2), 1)])
    q = fiber_mixing_unitary(pair, np.random.default_rng(23))
    mixed = WeylPair(pair.window, dict(pair.fibers),
                     [q @ g @ q.conj().T for g in pair.gens])
    comps = decompose(mixed)
    assert sorted((c.raw.points[0], c.multiplicity) for c in comps) == \
        [((0,), 2), ((2,), 1)]


def test_decompose_witness_residual(chain8):
    pair = direct_sum([build_pspace_pair(tail(chain8, 0), 2),
                       build_pspace_pair(tail(chain8, 4), 1)])
    dec = decompose_full(pair)
    wit = decomposition_witness(pair, dec)
    ra = RepGens.from_pair(pair)
    rb = RepGens.from_pair(dec.reassembled)
    for x, y in zip(ra.gens, rb.gens):
        assert opnorm(wit @ x @ wit.conj().T - y) < 1e-8


def test_decompose_rejects_broken_fibers():
    w = LatticeWindow((0,), (1,))
    dead = WeylPair(w, {(0,): 1, (1,): 1},
                    [np.zeros((2, 2), dtype=complex)])
    with pytest.raises(FiberMismatch):
        decompose(dead)


def test_decompose_rejects_nonisometric_component():
    w = LatticeWindow((0,), (1,))
    g = np.zeros((2, 2), dtype=complex)
    g[1, 0] = 0.5
    pair = WeylPair(w, {(0,): 1, (1,): 1}, [g])
    with pytest.raises(FiberMismatch):
        decompose(pair)


def test_decompose_refuses_a_pair_with_no_fiber_at_the_top_corner(
        tmp_path, capsys):
    # the fibers at 0 and 1 of [0, 2] form one factor whose support misses
    # the top corner 2, so it is not upward invariant
    pair = WeylPair(LatticeWindow((0,), (2,)), {(0,): 1, (1,): 1},
                    [{(0,): np.eye(1)}])
    for build in (decompose, decompose_full, lambda p: minimal_dilation(p, 1)):
        with pytest.raises(FiberMismatch, match="not upward invariant"):
            build(pair)
    scenario = tmp_path / "top.json"
    scenario.write_text(json.dumps({"command": "decompose",
                                    "pair": pair_to_json(pair)}))
    code = main(["decompose", "--scenario", str(scenario),
                 "--out", str(tmp_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["kind"] == "FiberMismatch"


def test_decompose_refuses_a_similar_pair_that_is_not_unitarily_equivalent():
    # scalar blocks on the 2x2 square: a(0,0) b(1,0) = b(0,0) a(0,1) = 1, so
    # the generators commute and the pair is similar to the canonical pair
    # of the square, but not unitarily equivalent to it: routed down from
    # (1, 1), V_(0, 1) reaches the top corner from (1, 0) as 1/2, whose
    # range projection 1/4 is not 0 or 1
    square = LatticeWindow((0, 0), (1, 1))
    pair = WeylPair(square, {p: 1 for p in square.points()},
                    [{(0, 0): [[2.0]], (0, 1): [[1.0]]},
                     {(0, 0): [[1.0]], (1, 0): [[0.5]]}])
    with pytest.raises(FiberMismatch, match="not unitarily equivalent"):
        decompose(pair)


def test_decompose_checks_the_blocks_off_the_routing(monkeypatch):
    # unit scalar blocks whose products around the square differ in sign:
    # past the range probe, every routed W_y is unitary (the routes take
    # a(0,0), a(0,1) and b(1,0)), and only the block b(0,0) refuses it
    square = LatticeWindow((0, 0), (1, 1))
    pair = WeylPair(square, {p: 1 for p in square.points()},
                    [{(0, 0): [[1.0]], (0, 1): [[1.0]]},
                     {(0, 0): [[1.0]], (1, 0): [[-1.0]]}])
    monkeypatch.setattr(dilation, "check_commuting_ranges", lambda pair: 0.0)
    with pytest.raises(FiberMismatch, match="not unitarily equivalent"):
        decompose(pair)


def test_decompose_and_dilate_make_no_intertwiner_solve(chain8, square4,
                                                        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no commutant or intertwiner solve expected")

    for name in ("unitarily_equivalent", "intertwiners", "_graded_nullspace",
                 "sylvester_nullspace"):
        monkeypatch.setattr(commutant, name, refuse)
    for pair in [build_pspace_pair(tail(chain8, 0), 2),
                 direct_sum([build_pspace_pair(upset_from(square4, [(1, 1)]), 2),
                             build_pspace_pair(upset_from(square4, [(0, 2)]), 1)])]:
        q = fiber_mixing_unitary(pair, np.random.default_rng(5))
        mixed = WeylPair(pair.window, dict(pair.fibers),
                         [q @ g @ q.conj().T for g in pair.gens])
        dec = decompose_full(mixed)
        assert len(dec.bases) == sum(len(c.raw.points) for c in dec.components)
        bundle = minimal_dilation(mixed, 2)
        assert opnorm(bundle.embed.conj().T @ bundle.embed
                      - np.eye(pair.dim)) < 1e-12


def _scaled_chain(chain8, eps):
    """The canonical k = 2 pair of the 8-chain with its block at (3,)
    scaled by diag(1 - eps, 1)."""
    return scale_block(build_pspace_pair(tail(chain8, 0), 2), 0, (3,), eps)


def test_decompose_decides_a_chain_near_the_rounding_rule(chain8):
    # the range of V_{7-y} at the top corner, for y <= 3, has eigenvalues
    # (1 - eps)^2 and 1: one eigenspace within 1e-8 of 1, a refusal past it
    comps = decompose(_scaled_chain(chain8, 5e-10))
    assert [(c.raw.points, c.multiplicity) for c in comps] == \
        [(tail(chain8, 0).points, 2)]
    with pytest.raises(FiberMismatch, match="not unitarily equivalent"):
        decompose(_scaled_chain(chain8, 5e-8))


def test_restriction_isomorphism_dims(chain8):
    for pair in [build_pspace_pair(tail(chain8, 0), 2),
                 direct_sum([build_pspace_pair(tail(chain8, 0), 1),
                             build_pspace_pair(tail(chain8, 2), 1)])]:
        bundle = minimal_dilation(pair, 3)
        base_comm = commutant_basis(RepGens.from_pair(pair))
        kside = RepGens(
            bundle.dim,
            [bundle.dilated.position_observable()] + list(bundle.dilated.gens)
            + [project_e(bundle, (0,) * pair.window.dim)],
            labels=["pos", "W0", "E0"])
        k_comm = commutant_basis(kside)
        assert len(k_comm) == len(base_comm)
        emb = bundle.embed
        for t in k_comm:
            restricted = emb.conj().T @ t @ emb
            assert span_distance(base_comm, restricted) < 1e-8

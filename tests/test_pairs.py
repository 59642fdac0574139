import itertools

import numpy as np
import pytest

import weylpair.pairs as pr

from weylpair import (
    EvaluationPoint,
    GridSpec,
    LatticeWindow,
    MarginTooSmall,
    NonCommutingGenerators,
    PairInvariantViolation,
    PSet,
    SafeRegion,
    SetKind,
    WeylPair,
    WindowMismatch,
    build_pspace_pair,
    build_r2_pair,
    canonical_defect_sweep,
    check_commuting_ranges,
    demo_family,
    direct_sum,
    dual_grid,
    enumerate_pspaces,
    isometry_defect,
    isometry_v,
    unitary_u,
    validate_pset,
    weyl_defect,
)
from weylpair.pairs import canonical_sum, default_probe
from weylpair.serialize import pair_from_json, pair_to_json

from conftest import (dense_grid_defect, dense_isometry_defect,
                      dense_range_commutator, dense_weyl_defect,
                      fiber_mixing_unitary, opnorm, position_projection,
                      range_projection, recover_position_projections,
                      scale_block, tail, upset_from)


def full_pair(k=1):
    w = LatticeWindow((0,), (7,))
    return build_pspace_pair(tail(w, 0), k)


def test_canonical_shift_matrix(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    expected = np.zeros((8, 8), dtype=complex)
    for y in range(7):
        expected[y + 1, y] = 1.0
    assert np.allclose(pair.gens[0], expected)


def test_semigroup_unit(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    assert np.allclose(isometry_v(pair, (0,)), np.eye(8))


def test_2d_generators_commute(square4):
    a = validate_pset(list(square4.points()), square4, SetKind.PSPACE)
    pair = build_pspace_pair(a, 2)
    v10, v01 = pair.gens
    assert opnorm(v10 @ v01 - v01 @ v10) < 1e-14
    assert np.allclose(isometry_v(pair, (1, 1)), v10 @ v01)
    # doubly commuting: each generator also commutes with the other adjoint
    assert opnorm(v10 @ v01.conj().T - v01.conj().T @ v10) < 1e-14
    assert opnorm(v01 @ v10.conj().T - v10.conj().T @ v01) < 1e-14


def test_safe_region_margin_guard(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    with pytest.raises(MarginTooSmall):
        pair.safe_points(SafeRegion(9))
    with pytest.raises(MarginTooSmall):
        SafeRegion(-1)


def test_unitary_at_zero_and_pi():
    w = LatticeWindow((0,), (3,))
    pair = build_pspace_pair(tail(w, 0), 1)
    assert np.allclose(unitary_u(pair, (0.0,)), np.eye(4))
    assert np.allclose(np.diag(unitary_u(pair, (np.pi,))), [1, -1, 1, -1])


def test_unitary_group_law(chain8):
    pair = build_pspace_pair(tail(chain8, 2), 1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        lhs = unitary_u(pair, (t1,)) @ unitary_u(pair, (t2,))
        rhs = unitary_u(pair, ((t1 + t2) % (2 * np.pi),))
        assert opnorm(lhs - rhs) < 1e-12


def test_shift_by_two_kills_far_edge(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    v2 = isometry_v(pair, (2,))
    assert opnorm(v2[:, :6] - np.eye(8)[:, 2:]) < 1e-14
    assert np.abs(v2[:, 6:]).max() == 0.0


def test_noncommuting_generators_detected(square4):
    a = validate_pset(list(square4.points()), square4, SetKind.PSPACE)
    pair = build_pspace_pair(a, 1)
    rng = np.random.default_rng(0)
    g1 = pair.gens[1].copy()
    mask = np.abs(g1) > 0
    g1[mask] *= np.exp(1j * rng.uniform(0, 2, int(mask.sum())))
    bad = WeylPair(square4, dict(pair.fibers), [pair.gens[0], g1])
    with pytest.raises(NonCommutingGenerators):
        isometry_v(bad, (1, 1))
    # the block checks compare the two orders per block
    with pytest.raises(NonCommutingGenerators):
        isometry_defect(bad, (1, 1), SafeRegion(1))
    with pytest.raises(NonCommutingGenerators):
        check_commuting_ranges(bad)


def test_shift_blocks_are_the_blocks_of_the_dense_shift(square4):
    sets = [upset_from(square4, [(1, 0), (0, 2)]), upset_from(square4, [(2, 2)])]
    pair, _ = canonical_sum(square4, [(ps.points, k) for ps, k in zip(sets, (2, 1))],
                            "sum")
    cube = LatticeWindow((0, 0, 0), (2, 2, 2))
    sets = [upset_from(cube, [(1, 0, 0), (0, 1, 1)]), upset_from(cube, [(0, 0, 0)])]
    solid, _ = canonical_sum(cube, [(ps.points, k) for ps, k in zip(sets, (1, 2))],
                             "solid")
    rng = np.random.default_rng(8)
    cases = [(pair, True), (solid, True)]
    # fiber-mixed copies: their blocks are not 0/1
    for p in (pair, solid):
        q = fiber_mixing_unitary(p, rng)
        cases.append((WeylPair(p.window, dict(p.fibers),
                               [q @ g @ q.conj().T for g in p.gens]), False))
    for p, exact in cases:
        for a in itertools.product(range(3), repeat=p.window.dim):
            dense = np.zeros((p.dim, p.dim), dtype=complex)
            for y, b in p.shift_blocks(a).items():
                dense[p.block_slice(tuple(c + d for c, d in zip(y, a))),
                      p.block_slice(y)] = b
            if exact:
                assert np.array_equal(dense, isometry_v(p, a))
            else:
                assert opnorm(dense - isometry_v(p, a)) <= 1e-12


@pytest.mark.parametrize("first", [(2, 1), (1, 1), (1, 2), (2, 2)])
def test_one_generator_commutator_decides_every_multi_axis_shift(square4, first):
    pair = build_pspace_pair(PSet(square4, tuple(square4.points()),
                                  SetKind.PSPACE), 1)
    # the 1 x 1 block of axis 0 at (1, 1) scaled by 1 - eps: the commutator
    # of the generators reads eps at (0, 1) and at (1, 1)
    bad = scale_block(pair, 0, (1, 1), 2e-10)
    bad.shift_blocks((2, 0))  # a shift along one axis needs no check
    with pytest.raises(NonCommutingGenerators, match="generators 0 and 1"):
        bad.shift_blocks(first)
    with pytest.raises(NonCommutingGenerators):
        weyl_defect(bad, np.zeros(2), first, SafeRegion(2))
    good = scale_block(pair, 0, (1, 1), 1e-11)
    assert good.shift_blocks(first)
    assert weyl_defect(good, np.array(dual_grid(square4)), first,
                       SafeRegion(2)) <= 1e-10


def test_stray_entry_pairs_are_refused(chain8, square4):
    chain = build_pspace_pair(tail(chain8, 1), 2)
    plane = build_pspace_pair(upset_from(square4, [(1, 0), (0, 2)]), 1)
    # a stray entry from the first fiber into the last one, of any size,
    # on either axis; the largest is named
    for pair, entry, axis in [(chain, 1e-3, 0), (plane, 1e-11, 0),
                              (plane, 5e-324, 1)]:
        gens = [g.copy() for g in pair.gens]
        gens[axis][pair.dim - 1, 0] = entry
        gens[axis][pair.dim - 1, 1] = entry / 2
        with pytest.raises(PairInvariantViolation,
                           match=rf"generator {axis} has an entry outside its "
                                 rf"graded blocks \(largest stray entry "
                                 rf"{entry:.3e}\)"):
            WeylPair(pair.window, dict(pair.fibers), gens)
        # a signed zero there is a zero
        gens[axis][pair.dim - 1, :2] = complex(-0.0, -0.0)
        zeroed = WeylPair(pair.window, dict(pair.fibers), gens)
        assert check_commuting_ranges(zeroed) == check_commuting_ranges(pair)
    # a non-finite entry is refused first, wherever it lies
    gens = [g.copy() for g in chain.gens]
    gens[0][chain.dim - 1, 0] = 1.0
    gens[0][0, 0] = np.inf
    with pytest.raises(PairInvariantViolation, match="generator 0 has a non-finite"):
        WeylPair(chain.window, dict(chain.fibers), gens)


def test_generators_are_read_only_copies(chain8):
    g = np.array(build_pspace_pair(tail(chain8, 0), 1).gens[0])
    pair = WeylPair(chain8, {p: 1 for p in tail(chain8, 0).points}, [g])
    assert g.flags.writeable and pair.gens[0] is not g
    with pytest.raises(ValueError):
        pair.gens[0][1, 0] = 2.0


def test_weyl_defect_canonical(chain8):
    pair = build_pspace_pair(tail(chain8, 2), 1)
    safe = SafeRegion(3)
    for theta in dual_grid(chain8):
        for a in [(0,), (1,), (2,), (3,)]:
            assert weyl_defect(pair, theta, a, safe) < 1e-12


def test_weyl_defect_zero_angle_exact(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    assert weyl_defect(pair, (0.0,), (2,), SafeRegion(2)) == 0.0


def test_weyl_defect_corrupted(chain8):
    # an off-grade leak inside the safe region would break the relation
    # (defect 0.5 at theta = pi/2); the pair is refused instead
    pair = build_pspace_pair(tail(chain8, 0), 1)
    g = pair.gens[0].copy()
    g[3, 0] = 0.5
    with pytest.raises(PairInvariantViolation,
                       match=r"largest stray entry 5\.000e-01"):
        WeylPair(chain8, {p: 1 for p in tail(chain8, 0).points}, [g])
    # the dense relation on the leaky generator does fail
    u = np.diag(np.exp(1j * np.pi / 2 * np.arange(8)))
    assert opnorm(u @ g - np.exp(1j * np.pi / 2) * g @ u) > 0.1


def test_weyl_defect_stack_matches_single_angle(chain8):
    # a graded pair with blocks of different sizes: the defect is roundoff
    mixed = direct_sum([full_pair(1), build_pspace_pair(tail(chain8, 3), 2)])
    q = fiber_mixing_unitary(mixed, np.random.default_rng(0))
    mixed = WeylPair(chain8, dict(mixed.fibers), [q @ mixed.gens[0] @ q.conj().T])
    safe = SafeRegion(3)
    for pair in (full_pair(2), mixed):
        for theta in dual_grid(chain8):
            for a in [(0,), (1,), (3,)]:
                assert (weyl_defect(pair, theta, a, safe)
                        == weyl_defect(pair, theta[None, :], a, safe))
        stack = np.array(dual_grid(chain8))
        assert weyl_defect(pair, stack, (1,), safe) == max(
            weyl_defect(pair, theta, (1,), safe) for theta in stack)


def test_weyl_defect_stack_detects_noncommuting_generators(square4):
    a = validate_pset(list(square4.points()), square4, SetKind.PSPACE)
    pair = build_pspace_pair(a, 1)
    g1 = pair.gens[1].copy()
    mask = np.abs(g1) > 0  # distinct phases per entry break commutation
    g1[mask] *= 1j ** np.arange(int(mask.sum()))
    bad = WeylPair(square4, dict(pair.fibers), [pair.gens[0], g1])
    with pytest.raises(NonCommutingGenerators):
        weyl_defect(bad, np.array(dual_grid(square4)), (1, 1), SafeRegion(1))


def test_weyl_defect_margin_guard(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    with pytest.raises(MarginTooSmall):
        weyl_defect(pair, (0.3,), (3,), SafeRegion(2))


def test_sweep_matches_dense_defect():
    w = LatticeWindow((0, 0), (3, 3))
    rng = np.random.default_rng(17)
    psets = enumerate_pspaces(w)
    margin = 2
    safe = SafeRegion(margin)
    for _ in range(4):
        a = psets[rng.integers(len(psets))]
        k = int(rng.integers(1, 3))
        pair = build_pspace_pair(a, k)
        dense = dense_grid_defect(
            pair, dual_grid(w),
            list(itertools.product(range(margin + 1), repeat=2)), safe)
        sweep = canonical_defect_sweep(a, k, margin)
        assert abs(dense - sweep) < 1e-13


def test_sweep_matches_dense_defect_chain(chain8):
    margin = 2
    safe = SafeRegion(margin)
    for start in range(8):
        a = tail(chain8, start)
        for k in (1, 2):
            pair = build_pspace_pair(a, k)
            dense = dense_grid_defect(pair, dual_grid(chain8),
                                      [(s,) for s in range(margin + 1)], safe)
            sweep = canonical_defect_sweep(a, k, margin)
            assert abs(dense - sweep) < 1e-13
            if start + margin > 7:  # no block of the tail is safe
                assert sweep == 0.0


def test_sweep_rejects_non_canonical_input(chain8):
    y = validate_pset([(0,), (1,)], chain8, SetKind.YSET)
    with pytest.raises(PairInvariantViolation):
        canonical_defect_sweep(y, 1, 2)
    with pytest.raises(PairInvariantViolation):
        canonical_defect_sweep(tail(chain8, 0), 0, 2)


def test_isometry_on_safe_region(chain8):
    pair = build_pspace_pair(tail(chain8, 2), 2)
    for a in [(1,), (2,), (3,)]:
        assert isometry_defect(pair, a, SafeRegion(3)) < 1e-13


def test_range_projection_basics(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    assert np.allclose(range_projection(pair, (0,)), np.eye(8))
    e3 = range_projection(pair, (3,))
    assert np.allclose(np.diag(e3), [0, 0, 0, 1, 1, 1, 1, 1])
    assert opnorm(e3 - np.diag(np.diag(e3))) < 1e-14  # diagonal in blocks
    assert opnorm(e3 @ e3 - e3) < 1e-12


def test_range_projections_decreasing(chain8):
    pair = build_pspace_pair(tail(chain8, 1), 2)
    for a, b in [((1,), (2,)), ((0,), (3,))]:
        diff = range_projection(pair, a) - range_projection(pair, b)
        assert np.linalg.eigvalsh(diff).min() > -1e-12


def test_commuting_ranges_canonical(square4):
    a = upset_from(square4, [(1, 0), (0, 2)])
    pair = build_pspace_pair(a, 1)
    probe = [p for p in itertools.product(range(3), repeat=2) if any(p)]
    assert check_commuting_ranges(pair, probe) < 1e-12


def test_commuting_ranges_chain_always(chain8):
    for start in (0, 3):
        pair = build_pspace_pair(tail(chain8, start), 2)
        assert check_commuting_ranges(pair) < 1e-12


def test_commuting_ranges_match_all_svd_loop(chain8, square4):
    box = LatticeWindow((0, 0, 0), (2, 2, 2))
    canonical = [build_pspace_pair(tail(chain8, 1), 2),
                 build_pspace_pair(upset_from(square4, [(1, 0), (0, 2)]), 1),
                 build_pspace_pair(upset_from(box, [(1, 0, 0), (0, 1, 1)]), 2)]
    for pair in canonical:
        probe = [p for p in itertools.product(range(3), repeat=pair.window.dim)
                 if any(p)]
        assert check_commuting_ranges(pair, probe) == 0.0
        assert dense_range_commutator(pair, probe) == 0.0
    quarter = build_r2_pair(demo_family(6), EvaluationPoint.default(),
                            GridSpec(1, 7.0))
    probe = [(1, 0), (0, 1), (2, 0), (0, 2)]
    witness = check_commuting_ranges(quarter, probe)
    assert witness > 0.1
    # the blocks of V_(2,0) are composed apart from the dense product, so
    # the two norms agree to roundoff, not bit for bit
    assert abs(witness - dense_range_commutator(quarter, probe)) <= 1e-13


def test_graded_shift_property(chain8):
    pair = build_pspace_pair(tail(chain8, 1), 2)
    for a in [(1,), (2,)]:
        v = isometry_v(pair, a)
        for y, _ in pair.fibers:
            py = position_projection(pair, y)
            target = tuple(c + d for c, d in zip(y, a))
            pya = position_projection(pair, target)
            assert opnorm(pya @ v @ py - v @ py) < 1e-13


def test_direct_sum_identity(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    s = direct_sum([pair])
    assert s.dim == pair.dim
    assert np.allclose(s.gens[0], pair.gens[0])


def test_direct_sum_fibers_add(chain8):
    a = build_pspace_pair(tail(chain8, 0), 1)
    b = build_pspace_pair(tail(chain8, 2), 2)
    s = direct_sum([a, b])
    fib = dict(s.fibers)
    assert fib[(0,)] == 1 and fib[(2,)] == 3 and s.dim == a.dim + b.dim


def test_canonical_sum_is_the_direct_sum_of_canonical_pairs(square4):
    sets = [upset_from(square4, [(0, 0)]), upset_from(square4, [(1, 2)]),
            upset_from(square4, [(2, 0), (0, 3)])]
    comps = [(ps.points, k) for ps, k in zip(sets, (1, 3, 2))]
    got, index = canonical_sum(square4, comps, "sum")
    want = direct_sum([build_pspace_pair(ps, k) for ps, k in zip(sets, (1, 3, 2))])
    assert got.fibers == want.fibers and got.offsets == want.offsets
    assert all(np.array_equal(a, b) for a, b in zip(got.gens, want.gens))
    # the block of (3, 3) holds the three summands in list order
    assert [index[(ci, (3, 3))] for ci in range(3)] == [0, 1, 4]


def test_direct_sum_window_mismatch(chain8):
    a = build_pspace_pair(tail(chain8, 0), 1)
    w2 = LatticeWindow((0,), (5,))
    b = build_pspace_pair(tail(w2, 0), 1)
    with pytest.raises(WindowMismatch):
        direct_sum([a, b])


def test_grading_validation_catches_leak(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    g = pair.gens[0].copy()
    g[0, 5] = 1.0
    with pytest.raises(PairInvariantViolation):
        WeylPair(chain8, {p: 1 for p in tail(chain8, 0).points}, [g])


def test_position_recovery_from_dual_samples(chain8):
    pair = build_pspace_pair(tail(chain8, 2), 2)
    samples = [(theta, unitary_u(pair, theta)) for theta in dual_grid(chain8)]
    recovered = recover_position_projections(chain8, samples)
    for y in chain8.points():
        assert opnorm(recovered[y] - position_projection(pair, y)) < 1e-12


def test_pair_json_roundtrip(chain8):
    pair = build_pspace_pair(tail(chain8, 3), 2)
    back = pair_from_json(pair_to_json(pair))
    assert back.dim == pair.dim
    assert back.fibers == pair.fibers
    assert np.allclose(back.gens[0], pair.gens[0])


@pytest.fixture
def no_svd_of_nonfinite(monkeypatch):
    """Fails a test whose code takes a 2-norm of a non-finite matrix."""
    norm = np.linalg.norm

    def spy(x, ord=None, *args, **kwargs):
        if ord == 2:
            assert np.isfinite(x).all(), "SVD of a non-finite matrix"
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)


@pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")
def test_an_overflowing_shift_reads_nan_in_every_pair_check(
        tmp_path, no_svd_of_nonfinite):
    # the chain tail {1..6} of [0, 6] with k = 2, every block scaled to
    # 1e200: the blocks are finite, V_2 composes them to 1e400, which is inf
    w = LatticeWindow((0,), (6,))
    pair = build_pspace_pair(tail(w, 1), 2)
    big = WeylPair(w, dict(pair.fibers), [1e200 * pair.gens[0]])
    thetas = np.array(dual_grid(w))
    safe = SafeRegion(2)
    # the shift by 0 never meets the overflow, the shift by 1 only squared
    assert isometry_defect(big, (0,), safe) == 0.0
    assert weyl_defect(big, thetas, (0,), safe) == 0.0
    assert np.isfinite(weyl_defect(big, thetas, (1,), safe))
    assert np.isnan(weyl_defect(big, thetas, (2,), safe))
    assert np.isnan(weyl_defect(big, thetas[0], (2,), safe))
    assert np.isnan(isometry_defect(big, (2,), safe))
    assert np.isnan(check_commuting_ranges(big))
    # and each row of pair-check fails
    from weylpair.cli import _cmd_pair_check

    _, checks, _ = _cmd_pair_check({"pair": pair_to_json(big), "margin": 2},
                                   str(tmp_path), 0, 1e-10)
    # a non-finite value is written as JSON null
    assert [c["value"] for c in checks.items] == [None] * 3
    assert not any(c["pass"] for c in checks.items)
    assert checks.first_failure() == "weak-weyl-defect"


def test_a_nan_defect_fails_its_check():
    from weylpair.cli import _Checks

    checks = _Checks()
    checks.add("finite", 0.0, 1e-10)
    checks.add("nan", float("nan"), 1e-10)
    checks.add("nan-larger-ok", float("nan"), 0.1, larger_ok=True)
    assert [c["pass"] for c in checks.items] == [True, False, False]
    assert checks.first_failure() == "nan"


def test_intertwining_blocks_are_the_blocks_of_the_dense_relation():
    """Oracle: T V_e - W_e T and T* T - 1 written dense.  Each is a partial
    block permutation of its blocks, so its norm is their largest; as a
    generator list, T is one block and the residuals are the dense ones."""
    w = LatticeWindow((0, 0), (3, 3))
    pair = direct_sum([build_pspace_pair(upset_from(w, [(0, 2), (2, 0)]), 2),
                       build_pspace_pair(upset_from(w, [(1, 1)]), 1)])
    rng = np.random.default_rng(7)
    q = fiber_mixing_unitary(pair, rng)
    twin = WeylPair(w, dict(pair.fibers), [q @ g @ q.conj().T for g in pair.gens])
    for t in (q, q + 1e-3 * fiber_mixing_unitary(pair, rng)):
        dense_res = max(opnorm(t @ a - b @ t) for a, b in zip(pair.gens, twin.gens))
        dense_iso = opnorm(t.conj().T @ t - np.eye(pair.dim))
        blocks = {y: t[pair.block_slice(y), pair.block_slice(y)]
                  for y in pair.points}
        iso, res = pr.intertwining_blocks(
            blocks, w.generators(), *[[p.graded_blocks(axis) for axis in range(2)]
                                      for p in (pair, twin)])
        flat = pr.intertwining_blocks({(): t}, [(), ()],
                                      [{(): a} for a in pair.gens],
                                      [{(): b} for b in twin.gens])
        for got in (iso, flat[0]):
            assert pr._max_opnorm(got) == pytest.approx(dense_iso, abs=1e-14)
        for got in (res, flat[1]):
            assert pr._max_opnorm(got) == pytest.approx(dense_res, abs=1e-14)
    assert dense_res > 1e-4

import itertools

import numpy as np
import pytest

import weylpair.freeproduct as fp
from weylpair import (
    BoundaryCoincidence,
    EvaluationPoint,
    GridSpec,
    GridTooSmall,
    IndexBeyondFamily,
    MonotonicityBroken,
    PairInvariantViolation,
    ProjectionFamily,
    RepGens,
    SafeRegion,
    build_r2_pair,
    cell_projection,
    check_commuting_ranges,
    check_increasing,
    commutant_basis,
    commutant_transfer_check,
    demo_family,
    minimality_defect,
    plateau,
    random_family,
    spec_support,
    step_projection,
    weyl_defect,
)
from weylpair.freeproduct import (
    ambient_field_projection,
    ambient_shift,
    coordinate_family,
    proof_region_points,
)

from conftest import opnorm


EV = EvaluationPoint.default()


def test_family_validation_rejects_overlap():
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(PairInvariantViolation):
        ProjectionFamily([p, q], [])
    with pytest.raises(PairInvariantViolation):
        ProjectionFamily([np.diag([0.5, 0.0]).astype(complex)], [])


def test_step_projection_cases():
    fam = demo_family(6)
    assert np.abs(step_projection(fam, 0, 0)).max() == 0.0
    assert np.allclose(step_projection(fam, 2, 0),
                       fam.plist[0] + fam.plist[1])
    assert np.allclose(step_projection(fam, 0, 3),
                       fam.qlist[0] + fam.qlist[1] + fam.qlist[2])
    assert np.allclose(step_projection(fam, 3, 4), np.eye(6))
    assert np.abs(step_projection(fam, -1, 0)).max() == 0.0
    assert np.abs(step_projection(fam, 2, -3)).max() == 0.0


def test_step_projection_monotone():
    fam = demo_family(6)
    idx = [(0, 0), (1, 0), (3, 0), (0, 2), (1, 1), (2, 3)]
    for (m, n) in idx:
        for (p, q) in [(1, 0), (0, 1), (2, 2)]:
            lo = step_projection(fam, m, n)
            hi = step_projection(fam, m + p, n + q)
            assert np.linalg.eigvalsh(hi - lo).min() > -1e-12


def test_step_projection_truncation_guard():
    fam = demo_family(4)
    with pytest.raises(IndexBeyondFamily):
        step_projection(fam, 5, 0)
    with pytest.raises(IndexBeyondFamily):
        step_projection(fam, 0, 5)


def test_cell_projection_examples():
    fam = demo_family(6)
    assert np.abs(cell_projection(fam, EV, 0.5, 0.5)).max() == 0.0
    assert np.allclose(cell_projection(fam, EV, 0.9, 0.2), fam.plist[0])
    assert np.allclose(cell_projection(fam, EV, 1.3, 2.7), np.eye(6))
    assert np.abs(cell_projection(fam, EV, -0.5, 1.0)).max() == 0.0


def test_cell_projection_is_projection_valued():
    fam = random_family(6, 4, 5, seed=2)
    for s in np.arange(0.0, 3.0, 0.3):
        for t in np.arange(0.0, 3.0, 0.3):
            e = cell_projection(fam, EV, s, t)
            assert opnorm(e @ e - e) < 1e-12
            assert opnorm(e - e.conj().T) < 1e-12


def test_boundary_coincidence_detected():
    fam = demo_family(4)
    ev = EvaluationPoint(0.4, 0.6, 0.3, 0.4, (0.5, 0.35))
    grid = GridSpec(2, 2.0)  # half-integer grid boundaries hit p = 0.5
    with pytest.raises(BoundaryCoincidence):
        check_increasing(fam, ev, grid)


def test_check_increasing_honest_family():
    fam = demo_family(6)
    grid = GridSpec(10, 4.0)
    assert check_increasing(fam, EV, grid) <= 1e-12


def test_check_increasing_detects_corruption():
    # disjoint coordinate sequences make the violation a full negated
    # projection direction
    fam = coordinate_family(6, [[0], [1], [2]], [[3], [4], [5]])
    grid = GridSpec(10, 3.0)

    def corrupted(m, n):
        if (m, n) == (0, 0):
            return fam.plist[0]
        return step_projection(fam, m, n)

    violation = check_increasing(fam, EV, grid, f_lookup=corrupted)
    assert violation >= 1.0 - 1e-12


def test_plateau_contains_proof_region():
    fam = demo_family(6)
    grid = GridSpec(10, 4.0)
    for (m, n) in [(0, 0), (1, 0), (2, 2)]:
        plat = set(plateau(fam, EV, m, n, grid))
        region = proof_region_points(EV, m, n, grid)
        assert region and set(region) <= plat


def test_plateau_unit_cell_full_when_all_branches_agree():
    fam = demo_family(6)
    grid = GridSpec(10, 4.0)
    plat = plateau(fam, EV, 2, 1, grid)
    assert len(plat) == 100  # every grid point of the cell


def test_plateau_fraction_bound():
    fam = demo_family(6)
    grid = GridSpec(10, 4.0)
    bound = (1 - EV.b) * (1 - EV.d) - 2 * grid.step
    for m in range(3):
        for n in range(3):
            frac = len(plateau(fam, EV, m, n, grid)) / 100.0
            assert frac >= bound


def test_plateau_contains_sample_point():
    fam = demo_family(6)
    grid = GridSpec(2, 1.0)
    assert (0.5, 0.5) in plateau(fam, EV, 0, 0, grid)


def test_build_pair_fiber_ranks():
    fam = demo_family(6)
    grid = GridSpec(1, 4.0)
    pair = build_r2_pair(fam, EV, grid)
    fib = dict(pair.fibers)
    assert (0, 0) not in fib            # zero projection there
    assert fib[(1, 0)] == 1 and fib[(2, 0)] == 2
    assert fib[(1, 1)] == 6
    assert pair.window.weight == pytest.approx(1.0)


def test_build_pair_weak_weyl_defect():
    fam = demo_family(6)
    grid = GridSpec(2, 2.5)
    pair = build_r2_pair(fam, EV, grid)
    safe = SafeRegion(1)
    worst = 0.0
    for theta in [np.array([0.4, 1.3]), np.array([2.0, 0.1])]:
        for a in itertools.product(range(2), repeat=2):
            worst = max(worst, weyl_defect(pair, theta, a, safe))
    assert worst < 1e-10


def test_build_pair_noncommuting_ranges():
    fam = demo_family(6)
    grid = GridSpec(1, 7.0)
    pair = build_r2_pair(fam, EV, grid)
    assert check_commuting_ranges(pair, [(1, 0), (0, 1), (2, 0), (0, 2)]) > 0.1


def test_build_pair_degenerate_family_gives_plain_shifts():
    kappa = 3
    zero = np.zeros((kappa, kappa), dtype=complex)
    fam = ProjectionFamily([zero, zero], [zero, zero])
    grid = GridSpec(1, 3.0)
    pair = build_r2_pair(fam, EV, grid)
    fib = dict(pair.fibers)
    assert set(fib) == {(i, j) for i in range(1, 3) for j in range(1, 3)}
    assert all(k == kappa for k in fib.values())
    v = pair.gens[0]
    blk = v[pair.block_slice((2, 1)), pair.block_slice((1, 1))]
    assert opnorm(blk - np.eye(kappa)) < 1e-12


def test_build_pair_rejects_broken_monotonicity(monkeypatch):
    fam = coordinate_family(4, [[0], [1]], [[2], [3]])
    grid = GridSpec(2, 2.0)
    original = fp.step_projection

    def corrupted(family, m, n):
        if (m, n) == (0, 0):
            return family.plist[0]
        return original(family, m, n)

    monkeypatch.setattr(fp, "step_projection", corrupted)
    with pytest.raises(MonotonicityBroken):
        build_r2_pair(fam, EV, grid)


def test_compression_identity_on_ambient_space():
    fam = demo_family(5)
    grid = GridSpec(2, 2.5)
    etilde = ambient_field_projection(fam, EV, grid)
    for steps in [(1, 0), (0, 1), (2, 1)]:
        w = ambient_shift(grid, steps, fam.kappa)
        diff = etilde @ w @ etilde - w @ etilde
        assert opnorm(diff) < 1e-10


def test_minimality_defect_zero():
    fam = demo_family(5)
    grid = GridSpec(2, 2.5)
    assert minimality_defect(fam, EV, grid, margin_steps=2) < 1e-10


def test_commutant_transfer_generic_families():
    grid = GridSpec(2, 7.0)
    for seed in (1, 2, 3):
        fam = random_family(6, 6, 6, seed=seed)
        dim_e, dim_f, equal = commutant_transfer_check(fam, EV, grid)
        assert equal and dim_e == dim_f


def test_commutant_transfer_demo_family_scalars():
    grid = GridSpec(2, 7.0)
    dim_e, dim_f, equal = commutant_transfer_check(demo_family(6), EV, grid)
    assert (dim_e, dim_f, equal) == (1, 1, True)


def test_commutant_transfer_coordinate_family():
    fam = coordinate_family(4, [[0], [1], [2], [3]], [[0], [1], [2], [3]])
    grid = GridSpec(2, 5.0)
    dim_e, dim_f, equal = commutant_transfer_check(fam, EV, grid)
    assert equal and dim_e == dim_f == 4


def test_commutant_transfer_single_shared_projection():
    p = np.diag([1.0, 0.0]).astype(complex)
    fam = ProjectionFamily([p], [p])
    dim_e, dim_f, equal = commutant_transfer_check(fam, EV, GridSpec(2, 2.0))
    assert equal and dim_e == dim_f == 2


def test_commutant_transfer_grid_guard():
    fam = demo_family(6)
    with pytest.raises(GridTooSmall):
        commutant_transfer_check(fam, EV, GridSpec(2, 3.0))


def test_build_pair_rejects_grid_past_the_family():
    fam = coordinate_family(4, [[0], [1], [2], [3]], [[0], [1], [2], [3]])
    assert build_r2_pair(fam, EV, GridSpec(1, 5.0)).dim == 84
    with pytest.raises(IndexBeyondFamily,
                       match=r"below 4\.65, an extent of at most 5\.0 at "
                             r"denominator 1"):
        build_r2_pair(fam, EV, GridSpec(1, 7.0))
    # the second sequence bounds the second axis
    short = coordinate_family(4, [[0], [1], [2], [3]], [[0, 1], [2, 3]])
    with pytest.raises(IndexBeyondFamily, match="2 second-row projections"):
        build_r2_pair(short, EV, GridSpec(1, 5.0))
    # every entry point that evaluates the family checks the grid first
    for build in (lambda g: plateau(fam, EV, 0, 0, g),
                  lambda g: ambient_field_projection(fam, EV, g)):
        with pytest.raises(IndexBeyondFamily,
                           match=r"admit grid values below 4\.65"):
            build(GridSpec(1, 7.0))
    # past the family only inside the open quadrant: nothing to reject
    assert len(spec_support(fam, EV, GridSpec(2, 7.0, offset=1.0))) == 144


def test_spec_support_family_independent():
    grid = GridSpec(2, 3.5)
    ev = EV
    s1 = spec_support(demo_family(6, seed=11), ev, grid)
    s2 = spec_support(demo_family(6, seed=97), ev, grid)
    s3 = spec_support(random_family(6, 6, 6, seed=5), ev, grid)
    assert s1 == s2 == s3


def test_spec_support_all_zero_family():
    kappa = 2
    zero = np.zeros((kappa, kappa), dtype=complex)
    fam = ProjectionFamily([zero], [zero])
    grid = GridSpec(2, 2.0)
    support = set(spec_support(fam, EV, grid))
    expected = set()
    for s in grid.values():
        for t in grid.values():
            sel = fp._select_index(EV, float(s), float(t))
            if sel[0] >= 1 and sel[1] >= 1:
                expected.add((float(s), float(t)))
    assert support == expected


def test_pair_commutant_is_trivial_for_demo_family():
    fam = demo_family(6)
    grid = GridSpec(1, 7.0)
    pair = build_r2_pair(fam, EV, grid)
    basis = commutant_basis(RepGens.from_pair(pair), guard=300)
    assert len(basis) == 1

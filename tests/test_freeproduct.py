import collections
import itertools
import json

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
from weylpair.cli import export_heatmap, main
from weylpair.freeproduct import (PLATEAU_TOL, PROJ_TOL, coordinate_family,
                                  plateau_fraction, sample_field)
from weylpair.serialize import matrix_to_json

from conftest import opnorm


EV = EvaluationPoint.default()


def proof_region_points(ev, m, n, grid):
    """Grid points of the open region (m, m+1-b) x (n, n+1-d).

    Every point here lands in the lower-left cell with the rectangle fully
    inside, so the field is pinned to the step projection of (m, n); the
    region has area (1-b)(1-d) and witnesses that each plateau carries
    positive measure.
    """
    return [(float(s), float(t)) for s in grid.values() for t in grid.values()
            if m < s < m + 1 - ev.b and n < t < n + 1 - ev.d]


def ambient_field_projection(family, ev, grid):
    """Block-diagonal field projection on the ambient grid space."""
    sample = sample_field(family, ev, grid)
    kappa, ids = family.kappa, sample.ids
    out = np.zeros((ids.size * kappa, ids.size * kappa), dtype=complex)
    for o, k in enumerate(ids.ravel()):
        out[o * kappa:(o + 1) * kappa, o * kappa:(o + 1) * kappa] = \
            sample.mats[k]
    return out


def ambient_shift(grid, steps, kappa):
    """Truncated grid shift on the ambient space, identity on coefficients."""
    n = len(grid.values())
    out = np.zeros((n * n * kappa, n * n * kappa), dtype=complex)
    for i in range(n):
        for j in range(n):
            ti, tj = i + steps[0], j + steps[1]
            if 0 <= ti < n and 0 <= tj < n:
                r0 = (ti * n + tj) * kappa
                c0 = (i * n + j) * kappa
                out[r0:r0 + kappa, c0:c0 + kappa] = np.eye(kappa)
    return out


def test_family_validation_rejects_overlap():
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(PairInvariantViolation):
        ProjectionFamily([p, q], [])
    with pytest.raises(PairInvariantViolation):
        ProjectionFamily([np.diag([0.5, 0.0]).astype(complex)], [])


def _per_member_verdict(plist, qlist):
    """Oracle: the member-by-member scan, one 2-norm per check."""
    for seq in (plist, qlist):
        for i, p in enumerate(seq):
            if opnorm(p - p.conj().T) > PROJ_TOL or opnorm(p @ p - p) > PROJ_TOL:
                return f"family member {i} is not a projection"
            for j in range(i):
                if opnorm(seq[i] @ seq[j]) > PROJ_TOL:
                    return f"family members {j},{i} are not orthogonal"
    return None


def _perturbed(p, u, w, kind, size):
    """``p`` with a defect of 2-norm ``size`` of one kind; u is a unit vector
    in its range, w a unit vector in the range of another member."""
    if kind == "hermitian":  # skew part 2 eps (u w* - w u*), squares to O(eps^2)
        return p + 0.5 * size * (np.outer(u, w.conj()) - np.outer(w, u.conj()))
    if kind == "idempotent":  # eigenvalue 1 + eps on u, Hermitian
        return p + size * np.outer(u, u.conj())
    # orthogonal: u turned towards w, still a Hermitian projection
    v = np.sqrt(1.0 - size ** 2) * u + size * w
    return p - np.outer(u, u.conj()) + np.outer(v, v.conj())


def _sliced_family(seed):
    rng = np.random.default_rng(seed)
    bases = []
    for _ in range(2):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        bases.append(np.linalg.qr(g)[0])
    groups = [[[0, 1], [2], [3, 4], [5]], [[0], [1, 2], [3], [4, 5]]]
    return bases, [[u[:, g] @ u[:, g].conj().T for g in gs]
                   for u, gs in zip(bases, groups)]


@pytest.mark.parametrize("kind", ["hermitian", "idempotent", "orthogonal"])
def test_family_validation_matches_the_per_member_scan(kind):
    # member 2 of one sequence gets a defect just below or just above
    # PROJ_TOL, towards member 0: basis column 3 lies in the range of
    # member 2 of either sequence, column 0 in that of member 0
    want = {"orthogonal": "family members 0,2 are not orthogonal"}.get(
        kind, "family member 2 is not a projection")
    for seed in range(3):
        bases, seqs = _sliced_family(seed)
        for s in (0, 1):
            for factor in (0.95, 1.05):
                lists = [list(seq) for seq in seqs]
                lists[s][2] = _perturbed(lists[s][2], bases[s][:, 3],
                                         bases[s][:, 0], kind,
                                         factor * PROJ_TOL)
                verdict = _per_member_verdict(*lists)
                assert verdict == (None if factor < 1 else want)
                if verdict is None:
                    ProjectionFamily(*lists)
                else:
                    with pytest.raises(PairInvariantViolation) as err:
                        ProjectionFamily(*lists)
                    assert str(err.value) == verdict
    # several defects: the scan meets the earliest first
    bases, seqs = _sliced_family(0)
    lists = [list(seq) for seq in seqs]
    lists[0][2] = _perturbed(lists[0][2], bases[0][:, 3], bases[0][:, 0],
                             kind, 2 * PROJ_TOL)
    lists[0][3] = _perturbed(lists[0][3], bases[0][:, 5], bases[0][:, 0],
                             "idempotent", 2 * PROJ_TOL)
    lists[1][1] = _perturbed(lists[1][1], bases[1][:, 1], bases[1][:, 0],
                             kind, 2 * PROJ_TOL)
    for plist, qlist in [lists, lists[::-1], (lists[0][::-1], lists[1])]:
        verdict = _per_member_verdict(plist, qlist)
        with pytest.raises(PairInvariantViolation) as err:
            ProjectionFamily(plist, qlist)
        assert verdict is not None and str(err.value) == verdict


def test_grid_values_keep_every_point_below_the_extent():
    def points(*args, **kwargs):
        return GridSpec(*args, **kwargs).values().tolist()

    assert points(1, 4.5) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert points(1, 5.5) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert points(2, 3.25)[-1] == 3.0 and len(points(2, 3.25)) == 7
    assert points(10, 4.04)[-1] == 4.0 and len(points(10, 4.04)) == 41
    assert points(1, 0.3) == [0.0]
    # a whole multiple of the step stays out, even when roundoff puts the
    # number of steps just above or below a whole number
    assert len(points(10, 4.0)) == 40 and len(points(1, 4.0)) == 4
    assert len(points(10, 0.3)) == 3  # 0.3 * 10 = 3.0000000000000004
    assert len(points(10, 1.0, offset=0.7)) == 3  # 0.3 * 10 again
    assert len(points(4, 3.0, offset=0.25)) == 11
    for denom in range(1, 13):
        for whole in range(1, 9):
            assert len(points(denom, whole / denom)) == whole


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
        check_increasing(sample_field(fam, ev, grid))


def test_check_increasing_honest_family():
    fam = demo_family(6)
    grid = GridSpec(10, 4.0)
    assert check_increasing(sample_field(fam, EV, grid)) <= 1e-12


def test_check_increasing_detects_corruption(monkeypatch):
    # disjoint coordinate sequences make the violation a full negated
    # projection direction
    fam = coordinate_family(6, [[0], [1], [2]], [[3], [4], [5]])
    grid = GridSpec(10, 3.0)
    original = fp.step_projection

    def corrupted(family, m, n):
        if (m, n) == (0, 0):
            return family.plist[0]
        return original(family, m, n)

    monkeypatch.setattr(fp, "step_projection", corrupted)
    violation = check_increasing(sample_field(fam, EV, grid))
    assert violation >= 1.0 - 1e-12


def test_plateau_contains_proof_region():
    fam = demo_family(6)
    grid = GridSpec(10, 4.0)
    for (m, n) in [(0, 0), (1, 0), (2, 2)]:
        plat = set(plateau(sample_field(fam, EV, grid), m, n))
        region = proof_region_points(EV, m, n, grid)
        assert region and set(region) <= plat


def test_plateau_unit_cell_full_when_all_branches_agree():
    fam = demo_family(6)
    grid = GridSpec(10, 4.0)
    plat = plateau(sample_field(fam, EV, grid), 2, 1)
    assert len(plat) == 100  # every grid point of the cell


def test_plateau_fraction_bound():
    fam = demo_family(6)
    grid = GridSpec(10, 4.0)
    bound = (1 - EV.b) * (1 - EV.d) - 2 * grid.step
    sample = sample_field(fam, EV, grid)
    for m in range(3):
        for n in range(3):
            assert plateau_fraction(sample, m, n) >= bound


def test_plateau_fraction_counts_the_grid_points_of_the_cell():
    """Oracle: the grid points of the cell counted one by one; a partial
    cell at the grid's edge and a cell outside the grid included."""
    fam = demo_family(6)
    for grid in (GridSpec(10, 4.0), GridSpec(3, 2.5), GridSpec(4, 1.75, 0.5)):
        sample = sample_field(fam, EV, grid)
        vals = sample.vals
        for m, n in itertools.product(range(4), repeat=2):
            total = sum(1 for s in vals if m <= s < m + 1) * \
                sum(1 for t in vals if n <= t < n + 1)
            want = len(plateau(sample, m, n)) / total if total else 0.0
            assert plateau_fraction(sample, m, n) == want
    assert plateau_fraction(sample, 3, 3) == 0.0


def test_plateau_contains_sample_point():
    fam = demo_family(6)
    grid = GridSpec(2, 1.0)
    assert (0.5, 0.5) in plateau(sample_field(fam, EV, grid), 0, 0)


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
    for build in (lambda g: sample_field(fam, EV, g),
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
    basis = commutant_basis(RepGens.from_pair(pair))
    assert len(basis) == 1


# ---------------------------------------------------------------------------
# the sampled field against the per-point definition


def _zero_family(kappa=2, parts=3):
    zero = np.zeros((kappa, kappa), dtype=complex)
    return ProjectionFamily([zero] * parts, [zero] * parts)


# every family has three projections per sequence, as the 3.0-extent grids
# index them; the coordinate sequences are disjoint, so corrupting (0, 0)
# breaks monotonicity by a full projection direction
SAMPLED_FAMILIES = {
    "demo": lambda: demo_family(6),
    "random": lambda: random_family(5, 3, 3, seed=4),
    "coordinate": lambda: coordinate_family(6, [[0], [1], [2]], [[3], [4], [5]]),
    "zero": _zero_family,
}
SAMPLED_GRIDS = [GridSpec(1, 3.0), GridSpec(2, 3.0), GridSpec(5, 3.0),
                 GridSpec(10, 3.0), GridSpec(4, 3.0, offset=0.25)]
# p != q, so the two axes pick differently on the finer grids
SKEW = EvaluationPoint(0.2, 0.4, 0.3, 0.6, (0.27, 0.55))


def _per_point_field(fam, grid, ev=EV):
    vals = grid.values()
    return vals, [[cell_projection(fam, ev, s, t) for t in vals]
                  for s in vals]


def _per_point_violation(vals, field):
    pts = [(i, j) for i in range(len(vals)) for j in range(len(vals))]
    worst = 0.0
    for (i, j), (k, l) in itertools.product(pts, repeat=2):
        if i <= k and j <= l:
            diff = field[k][l] - field[i][j]
            lam = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))[0]
            worst = max(worst, -float(lam))
    return worst


@pytest.mark.parametrize("grid", SAMPLED_GRIDS,
                         ids=lambda g: f"{g.denominator}-{g.offset}")
@pytest.mark.parametrize("name", sorted(SAMPLED_FAMILIES))
def test_sample_matches_the_per_point_field(name, grid, tmp_path, capsys):
    fam = SAMPLED_FAMILIES[name]()
    vals, field = _per_point_field(fam, grid, ev=SKEW)
    n = len(vals)
    sample = sample_field(fam, SKEW, grid)
    svals, ids, sels, mats = sample.vals, sample.ids, sample.sels, sample.mats
    assert np.array_equal(svals, vals) and ids.shape == (n, n)
    assert sels == sorted(set(sels))
    for i, j in itertools.product(range(n), repeat=2):
        assert sels[ids[i, j]] == fp._select_index(SKEW, vals[i], vals[j])
        assert np.array_equal(mats[ids[i, j]], field[i][j])
    points = [(float(vals[i]), float(vals[j]), field[i][j])
              for i, j in itertools.product(range(n), repeat=2)]
    for m, n_ in itertools.product(range(4), repeat=2):
        target = step_projection(fam, m, n_)
        want = [(s, t) for s, t, e in points
                if m <= s < m + 1 and n_ <= t < n_ + 1
                and np.abs(e - target).max() <= PLATEAU_TOL]
        assert plateau(sample, m, n_) == want
    assert spec_support(fam, SKEW, grid) == [(s, t) for s, t, e in points
                                             if np.abs(e).max() > 0]
    k = fam.kappa
    ambient = ambient_field_projection(fam, SKEW, grid)
    for o, (_, _, e) in enumerate(points):
        assert np.array_equal(ambient[o * k:(o + 1) * k, o * k:(o + 1) * k], e)
    assert np.count_nonzero(ambient) == sum(np.count_nonzero(e)
                                            for _, _, e in points)
    # the CLI heatmap is the per-point trace, byte for byte
    scenario = tmp_path / "increasing.json"
    scenario.write_text(json.dumps({
        "sub": "increasing", "heatmap": "cli.csv",
        "ev": {"a": SKEW.a, "b": SKEW.b, "c": SKEW.c, "d": SKEW.d,
               "p0": list(SKEW.p0)},
        "family": {"P": [matrix_to_json(p) for p in fam.plist],
                   "Q": [matrix_to_json(q) for q in fam.qlist]},
        "grid": {"denominator": grid.denominator, "extent": grid.extent,
                 "offset": grid.offset}}))
    assert main(["counterexample", "--scenario", str(scenario),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    oracle = export_heatmap([(s, t, float(np.trace(e).real))
                             for s, t, e in points], str(tmp_path / "oracle.csv"))
    assert (tmp_path / "cli.csv").read_bytes() == open(oracle, "rb").read()


@pytest.mark.parametrize("name", sorted(SAMPLED_FAMILIES))
def test_check_increasing_matches_the_per_point_pairs(name, monkeypatch):
    fam = SAMPLED_FAMILIES[name]()
    original = fp.step_projection

    def corrupted(family, m, n):
        if (m, n) == (0, 0):
            return family.plist[0]
        return original(family, m, n)

    def sampled(grid):
        return check_increasing(sample_field(fam, EV, grid))

    for grid in SAMPLED_GRIDS:
        assert sampled(grid) <= 1e-12
    # the honest field, then the field with step projection (0, 0) corrupted
    for patch in (original, corrupted):
        monkeypatch.setattr(fp, "step_projection", patch)
        for grid in SAMPLED_GRIDS[:2]:
            want = _per_point_violation(*_per_point_field(fam, grid))
            assert sampled(grid) == want
    if name == "coordinate":
        for grid in SAMPLED_GRIDS:
            assert sampled(grid) >= 1.0 - 1e-12


def test_each_consumer_evaluates_each_selection_once(monkeypatch):
    fam = demo_family(6)
    grid = GridSpec(10, 4.0)
    small = GridSpec(2, 2.5)
    calls = collections.Counter()
    original = fp.step_projection

    def counted(family, m, n):
        calls[(m, n)] += 1
        return original(family, m, n)

    monkeypatch.setattr(fp, "step_projection", counted)
    consumers = {
        "check_increasing":
            lambda: check_increasing(sample_field(fam, EV, grid)),
        "plateau": lambda: plateau(sample_field(fam, EV, grid), 1, 0),
        "plateau outside the grid":
            lambda: plateau(sample_field(fam, EV, grid), 5, 5),
        "build_r2_pair": lambda: build_r2_pair(fam, EV, GridSpec(1, 4.0)),
        "spec_support": lambda: spec_support(fam, EV, grid),
        "commutant_transfer_check":
            lambda: commutant_transfer_check(fam, EV, GridSpec(2, 7.0)),
        "ambient_field_projection":
            lambda: ambient_field_projection(fam, EV, small),
        "minimality_defect": lambda: minimality_defect(fam, EV, small, 2),
    }
    for name, consumer in consumers.items():
        calls.clear()
        consumer()
        assert calls and max(calls.values()) == 1, (name, calls.most_common(1))


@pytest.mark.parametrize("sub", ["increasing", "plateau"])
def test_cli_counterexample_samples_the_field_once(sub, tmp_path, monkeypatch,
                                                   capsys):
    calls = collections.Counter()
    original = fp.step_projection

    def counted(family, m, n):
        calls[(m, n)] += 1
        return original(family, m, n)

    monkeypatch.setattr(fp, "step_projection", counted)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"sub": sub, "heatmap": "h.csv"}))
    assert main(["counterexample", "--scenario", str(scenario),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls and max(calls.values()) == 1, calls.most_common(1)

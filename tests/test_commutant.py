import numpy as np
import pytest

import weylpair.commutant as commutant
from weylpair import (
    CheckFailed,
    DimensionGuard,
    EvaluationPoint,
    GridSpec,
    LabelMismatch,
    LatticeWindow,
    PSet,
    RepGens,
    SetKind,
    WeylPair,
    build_pspace_pair,
    build_r2_pair,
    commutant_basis,
    decompose,
    demo_family,
    direct_sum,
    intertwiners,
    subspace_gap,
    summarize,
    sylvester_nullspace,
    translate_pset,
    unitarily_equivalent,
)
from weylpair.commutant import check_central, residual, span_distance

from conftest import (dense_subspace_gap, fiber_mixing_unitary, opnorm, tail,
                      upset_from)


def kron_nullspace_dim(gens, tol=1e-8):
    """Oracle: dense vectorised stacking, independent of the seeded solver."""
    n = gens[0].shape[0]
    eye = np.eye(n)
    blocks = []
    for x in list(gens) + [g.conj().T for g in gens]:
        blocks.append(np.kron(eye, x.T) - np.kron(x, eye))
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    if s[0] <= 1e-12:
        return n * n
    return n * n - int(np.sum(s > tol * s[0]))


def test_identity_generators_have_full_commutant():
    rep = RepGens(3, [np.eye(3, dtype=complex)])
    assert len(commutant_basis(rep)) == 9


def test_matrix_units_are_irreducible():
    units = [np.zeros((3, 3), dtype=complex) for _ in range(9)]
    for k, (i, j) in enumerate([(a, b) for a in range(3) for b in range(3)]):
        units[k][i, j] = 1.0
    rep = RepGens(3, units)
    assert len(commutant_basis(rep)) == 1


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 4)])
def test_canonical_pair_commutant_vs_kron_oracle(k, expected):
    w = LatticeWindow((0,), (5,))
    pair = build_pspace_pair(tail(w, 0), k)
    rep = RepGens.from_pair(pair)
    basis = commutant_basis(rep)
    assert len(basis) == expected
    assert kron_nullspace_dim(rep.gens) == expected
    assert residual(basis, rep.gens, rep.gens) < 1e-10


def test_dual_sample_generators_agree_with_position(chain8):
    pair = build_pspace_pair(tail(chain8, 2), 2)
    via_pos = commutant_basis(RepGens.from_pair(pair))
    via_grid = commutant_basis(RepGens.from_pair(pair, dual_samples=True))
    assert len(via_pos) == len(via_grid)
    assert subspace_gap(via_pos, via_grid) < 1e-8


def test_commutant_is_adjoint_closed_and_an_algebra(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 2)
    basis = commutant_basis(RepGens.from_pair(pair))
    for b in basis:
        assert span_distance(basis, b.conj().T) < 1e-8
        for c in basis:
            assert span_distance(basis, b @ c) < 1e-8


def test_double_commutant_contains_generators():
    w = LatticeWindow((0,), (3,))
    pair = build_pspace_pair(tail(w, 0), 1)
    rep = RepGens.from_pair(pair)
    cbasis = commutant_basis(rep)
    bicom = sylvester_nullspace(cbasis, cbasis)
    for g in rep.gens + [np.eye(pair.dim, dtype=complex)]:
        assert span_distance(bicom, g) < 1e-8


def test_summarize_canonical_factor(chain8):
    for k in (1, 2, 3):
        pair = build_pspace_pair(tail(chain8, 0), k)
        s = summarize(RepGens.from_pair(pair))
        assert s.commutant_dim == k * k
        assert s.is_factor
        assert s.is_irreducible == (k == 1)
        assert s.center_dim == 1


def test_summarize_reducible_center(chain8):
    a = build_pspace_pair(tail(chain8, 0), 1)
    b = build_pspace_pair(tail(chain8, 2), 1)
    s = summarize(RepGens.from_pair(direct_sum([a, b])))
    assert s.commutant_dim == 2
    assert s.center_dim == 2
    assert not s.is_factor
    assert not s.is_irreducible


def test_summarize_center_equals_commutant_cap_bicommutant(square4):
    w = LatticeWindow((0,), (4,))
    mixed = direct_sum([build_pspace_pair(tail(w, 0), 2),
                        build_pspace_pair(tail(w, 3), 3)])
    q = fiber_mixing_unitary(mixed, np.random.default_rng(7))
    # every input has two components, so a two-dimensional centre
    reps = [
        RepGens.from_pair(direct_sum([build_pspace_pair(tail(w, 0), 1),
                                      build_pspace_pair(tail(w, 2), 2)])),
        RepGens.from_pair(mixed),
        RepGens.from_pair(direct_sum([
            build_pspace_pair(upset_from(square4, [(2, 2)]), 2),
            build_pspace_pair(upset_from(square4, [(1, 3), (3, 1)]), 1)])),
        RepGens(mixed.dim, [q @ g @ q.conj().T
                            for g in RepGens.from_pair(mixed).gens]),
    ]
    for rep in reps:
        s = summarize(rep)
        cbasis = s.commutant_basis
        bicom = sylvester_nullspace(cbasis, cbasis)
        # reference centre: the commutant of the generators and the commutant
        center_alt = sylvester_nullspace(rep.gens + cbasis, rep.gens + cbasis)
        for z in center_alt:
            assert span_distance(cbasis, z) < 1e-8
            assert span_distance(bicom, z) < 1e-8
        assert s.center_dim == len(center_alt) == 2
        assert subspace_gap(s.center_basis, center_alt) <= 1e-8


def test_center_check_rejects_non_central_element():
    w = LatticeWindow((0,), (4,))
    s = summarize(RepGens.from_pair(build_pspace_pair(tail(w, 1), 2)))
    check_central(s.center_basis, s.commutant_basis)
    # the first fiber coordinate of every block: in the commutant, not central
    off = np.kron(np.eye(4), np.diag([1.0, 0.0]))
    assert span_distance(s.commutant_basis, off) < 1e-8
    with pytest.raises(CheckFailed):
        check_central([off], s.commutant_basis)


def test_intertwiners_contain_identity(chain8):
    pair = build_pspace_pair(tail(chain8, 1), 1)
    rep = RepGens.from_pair(pair)
    basis = intertwiners(rep, rep)
    assert span_distance(basis, np.eye(pair.dim, dtype=complex)) < 1e-8


def test_intertwiners_position_only_vs_full(chain8):
    a = tail(chain8, 0)
    b, _ = translate_pset(a, (1,))
    pa = build_pspace_pair(a, 1)
    pb = build_pspace_pair(b, 1)
    pos_only_a = RepGens(pa.dim, [pa.position_observable()], ["pos"])
    pos_only_b = RepGens(pb.dim, [pb.position_observable()], ["pos"])
    assert len(intertwiners(pos_only_a, pos_only_b)) == 7
    assert len(intertwiners(RepGens.from_pair(pa), RepGens.from_pair(pb))) == 0


def test_intertwiners_multiplicity_two(chain8):
    a = build_pspace_pair(tail(chain8, 0), 1)
    sum2 = direct_sum([a, a])
    k2 = build_pspace_pair(tail(chain8, 0), 2)
    basis = intertwiners(RepGens.from_pair(sum2), RepGens.from_pair(k2))
    assert len(basis) == 4
    ok, _ = unitarily_equivalent(RepGens.from_pair(sum2),
                                 RepGens.from_pair(k2))
    assert ok


def test_label_mismatch():
    rep1 = RepGens(2, [np.eye(2)], ["a"])
    rep2 = RepGens(2, [np.eye(2)], ["b"])
    with pytest.raises(LabelMismatch):
        intertwiners(rep1, rep2)


def test_dimension_guard():
    rep = RepGens(3, [np.eye(3)])
    with pytest.raises(DimensionGuard):
        commutant_basis(rep, guard=2)


def test_unitarily_equivalent_self(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 2)
    rep = RepGens.from_pair(pair)
    ok, witness = unitarily_equivalent(rep, rep)
    assert ok
    assert opnorm(witness @ witness.conj().T - np.eye(pair.dim)) < 1e-10


def test_unitarily_equivalent_distinguishes_sets(chain8):
    pa = build_pspace_pair(tail(chain8, 0), 1)
    pb = build_pspace_pair(tail(chain8, 1), 1)
    ok, witness = unitarily_equivalent(RepGens.from_pair(pa),
                                       RepGens.from_pair(pb))
    assert not ok and witness is None


def test_unitarily_equivalent_dim_mismatch(chain8):
    w6 = LatticeWindow((0,), (5,))
    pa = build_pspace_pair(tail(chain8, 0), 1)
    pb = build_pspace_pair(tail(w6, 0), 1)
    ok, _ = unitarily_equivalent(RepGens.from_pair(pa), RepGens.from_pair(pb))
    assert not ok


def test_nonzero_intertwiners_without_invertible_element():
    # equal dimensions and a two-dimensional intertwiner space, but every
    # element annihilates one summand, so no witness exists
    w = LatticeWindow((0, 0), (2, 2))
    a = PSet(w, tuple((x, y) for x in (1, 2) for y in (0, 1, 2)),
             SetKind.PSPACE)
    b = PSet(w, tuple((x, y) for x in (0, 1, 2) for y in (1, 2)),
             SetKind.PSPACE)
    two_a = direct_sum([build_pspace_pair(a, 1), build_pspace_pair(a, 1)])
    mixed = direct_sum([build_pspace_pair(a, 1), build_pspace_pair(b, 1)])
    basis = intertwiners(RepGens.from_pair(mixed), RepGens.from_pair(two_a))
    assert len(basis) == 2
    ok, witness = unitarily_equivalent(RepGens.from_pair(mixed),
                                       RepGens.from_pair(two_a))
    assert not ok and witness is None


def test_random_conjugate_recovered(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    gens = [pair.position_observable()] + list(pair.gens)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q, _ = np.linalg.qr(g)
    conj = [q @ x @ q.conj().T for x in gens]
    ok, witness = unitarily_equivalent(RepGens(8, gens, ["pos", "V0"]),
                                       RepGens(8, conj, ["pos", "V0"]))
    assert ok
    for x, y in zip(gens, conj):
        assert opnorm(witness @ x @ witness.conj().T - y) < 1e-8


def test_schur_consistency(chain8):
    # between irreducibles, equivalence means a one-dimensional intertwiner
    # space spanned by a multiple of a unitary
    pa = build_pspace_pair(tail(chain8, 2), 1)
    ra = RepGens.from_pair(pa)
    basis = intertwiners(ra, ra)
    assert len(basis) == 1
    t = basis[0]
    s = np.linalg.svd(t, compute_uv=False)
    assert (s.max() - s.min()) < 1e-10  # scalar multiple of a unitary


def test_subspace_gap_matches_projector_oracle(chain8):
    pair = direct_sum([build_pspace_pair(tail(chain8, 0), 2),
                       build_pspace_pair(tail(chain8, 5), 1)])
    basis = commutant_basis(RepGens.from_pair(pair))
    rng = np.random.default_rng(11)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u, _ = np.linalg.qr(g)
    rotated = list(np.tensordot(u, np.stack(basis), axes=1))
    tilted = [basis[0] * np.cos(0.3) + basis[1] * np.sin(0.3)] + basis[2:] \
        + [basis[1] * np.cos(0.3) - basis[0] * np.sin(0.3)]
    unit = np.zeros_like(basis[0])
    unit[0, -1] = 1.0  # off the blocks: orthogonal to the commutant
    cases = [(basis, rotated), (basis, tilted), (basis[:4], basis[1:]),
             (basis, basis[:3]), (basis[:2], [basis[0], unit]), ([], []),
             ([], basis[:1]), (basis, [])]
    expected = [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0]
    for (a, b), want in zip(cases, expected):
        gap = subspace_gap(a, b)
        assert abs(gap - dense_subspace_gap(a, b)) <= 1e-12
        assert abs(gap - want) <= 1e-12
    # a tilt by an angle t inside the first two elements: the gap is sin t
    half = [basis[0] * np.cos(0.3) + basis[2] * np.sin(0.3)] + basis[1:2]
    assert abs(subspace_gap(basis[:2], half) - np.sin(0.3)) <= 1e-12
    assert abs(subspace_gap(basis[:2], half)
               - dense_subspace_gap(basis[:2], half)) <= 1e-12


def test_graded_inputs_never_reach_the_dense_solver(monkeypatch, chain8, square4):
    def refuse(*args, **kwargs):
        raise AssertionError("dense solver called on a graded input")

    monkeypatch.setattr(commutant, "sylvester_nullspace", refuse)
    pair = direct_sum([build_pspace_pair(tail(chain8, 0), 2),
                       build_pspace_pair(tail(chain8, 3), 1)])
    q = fiber_mixing_unitary(pair, np.random.default_rng(5))
    twin = WeylPair(chain8, dict(pair.fibers),
                    [q @ g @ q.conj().T for g in pair.gens])
    ra, rb = RepGens.from_pair(pair), RepGens.from_pair(twin)
    s = summarize(ra)
    assert (s.commutant_dim, s.center_dim) == (5, 2)
    assert len(commutant_basis(RepGens.from_pair(pair, dual_samples=True))) == 5
    assert len(intertwiners(ra, rb)) == 5
    ok, witness = unitarily_equivalent(ra, rb)
    assert ok
    assert opnorm(witness @ ra.gens[1] @ witness.conj().T - rb.gens[1]) < 1e-8
    assert [(c.translation, c.multiplicity) for c in decompose(twin)] == \
        [((0,), 2), ((3,), 1)]
    square = build_pspace_pair(upset_from(square4, [(1, 0), (0, 2)]), 2)
    assert summarize(RepGens.from_pair(square)).commutant_dim == 4
    quarter = build_r2_pair(demo_family(4), EvaluationPoint.default(),
                            GridSpec(1, 5.0))
    assert len(commutant_basis(RepGens.from_pair(quarter))) == 1


def test_dense_solver_serves_every_other_input(monkeypatch, chain8):
    calls = []
    dense = commutant.sylvester_nullspace

    def spy(*args, **kwargs):
        calls.append(args)
        return dense(*args, **kwargs)

    monkeypatch.setattr(commutant, "sylvester_nullspace", spy)
    clean = build_pspace_pair(tail(chain8, 1), 2)
    graded = commutant_basis(RepGens.from_pair(clean))
    assert len(graded) == 4 and not calls

    # an entry outside the graded blocks, below the grading tolerance
    single = build_pspace_pair(tail(chain8, 1), 1)
    g = single.gens[0].copy()
    g[0, -1] = 1e-11
    stray = WeylPair(chain8, dict(single.fibers), [g], validate=False)
    got = commutant_basis(RepGens.from_pair(stray))
    assert len(calls) == 1
    want = commutant_basis(RepGens.from_pair(single))
    assert len(got) == len(want) == 1 and subspace_gap(got, want) <= 1e-8

    # the same blocks on a wider window: same positions, different windows
    wide = WeylPair(LatticeWindow((0,), (9,)), dict(clean.fibers), clean.gens)
    got = intertwiners(RepGens.from_pair(clean), RepGens.from_pair(wide))
    assert len(calls) == 2
    assert len(got) == 4 and subspace_gap(got, graded) <= 1e-8

    # a generator list with no pair
    rep = RepGens.from_pair(clean)
    got = commutant_basis(RepGens(rep.dim, rep.gens, rep.labels))
    assert len(calls) == 3
    assert len(got) == 4 and subspace_gap(got, graded) <= 1e-8

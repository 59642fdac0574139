import numpy as np
import pytest

import weylpair.commutant as commutant
import weylpair.dilation as dilation
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
    dual_grid,
    intertwiners,
    subspace_gap,
    summarize,
    sylvester_nullspace,
    translate_pset,
    unitarily_equivalent,
    unitary_u,
)
from weylpair.commutant import check_central, residual, span_distance

from conftest import (dense_subspace_gap, equivalence_by_draws,
                      fiber_mixing_unitary, opnorm, tail, upset_from)


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
    # every character on the finite dual grid listed explicitly, then the
    # generators: a list with no pair, which the dense solver takes
    pair = build_pspace_pair(tail(chain8, 2), 2)
    grid = [unitary_u(pair, theta) for theta in dual_grid(chain8)]
    samples = RepGens(pair.dim, grid + list(pair.gens))
    assert samples.pair is None
    via_pos = commutant_basis(RepGens.from_pair(pair))
    via_grid = commutant_basis(samples)
    assert len(via_pos) == len(via_grid) == 4
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


def test_equal_fibers_without_invertible_intertwiner():
    # a + b + e and (a | b) + (a & b) + e have the same fiber at every point
    # and a one-dimensional intertwiner space, but no invertible element:
    # every draw of the loop is singular
    w = LatticeWindow((0, 0), (2, 2))
    pts = list(w.points())
    a = [p for p in pts if p[0] >= 1]
    b = [p for p in pts if p[1] >= 1]

    def canon(points):
        return build_pspace_pair(PSet(w, tuple(points), SetKind.PSPACE), 1)

    split = direct_sum([canon(a), canon(b), canon(pts)])
    merged = direct_sum([canon(set(a) | set(b)), canon(set(a) & set(b)),
                         canon(pts)])
    assert split.dim == merged.dim == 21 and split.fibers == merged.fibers
    ra, rb = RepGens.from_pair(split), RepGens.from_pair(merged)
    assert len(intertwiners(ra, rb)) == 1
    ok, witness = unitarily_equivalent(ra, rb)
    assert not ok and witness is None
    assert equivalence_by_draws(ra, rb) == (False, None)


def test_different_fibers_are_inequivalent_before_any_solve(monkeypatch,
                                                            chain8):
    def refuse(*args, **kwargs):
        raise AssertionError("intertwiners solved for different fibers")

    pa = direct_sum([build_pspace_pair(tail(chain8, 0), 1),
                     build_pspace_pair(tail(chain8, 4), 1)])
    pb = direct_sum([build_pspace_pair(tail(chain8, 2), 1),
                     build_pspace_pair(tail(chain8, 2), 1)])
    assert pa.dim == pb.dim and pa.fibers != pb.fibers
    ra, rb = RepGens.from_pair(pa), RepGens.from_pair(pb)
    assert equivalence_by_draws(ra, rb) == (False, None)
    monkeypatch.setattr(commutant, "_graded_nullspace", refuse)
    monkeypatch.setattr(commutant, "sylvester_nullspace", refuse)
    assert unitarily_equivalent(ra, rb) == (False, None)
    # the label and guard checks still come first
    with pytest.raises(DimensionGuard):
        unitarily_equivalent(ra, rb, guard=pa.dim - 1)
    relabelled = RepGens.from_pair(pa)
    relabelled.labels = ["pos", "W0"]
    with pytest.raises(LabelMismatch):
        unitarily_equivalent(relabelled, rb)


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


def test_graded_inputs_solve_the_centre_on_the_free_fibers(monkeypatch, chain8):
    seen = []
    restrict = commutant._restrict

    def spy(elements, free):
        seen.append(None if free is None else list(free))
        return restrict(elements, free)

    monkeypatch.setattr(commutant, "_restrict", spy)
    monkeypatch.setattr(dilation, "_restrict", spy)
    pair = direct_sum([build_pspace_pair(tail(chain8, 0), 2),
                       build_pspace_pair(tail(chain8, 3), 1)])
    q = fiber_mixing_unitary(pair, np.random.default_rng(5))
    twin = WeylPair(chain8, dict(pair.fibers),
                    [q @ g @ q.conj().T for g in pair.gens])
    top = list(range(pair.dim)[pair.block_slice((7,))])
    assert summarize(RepGens.from_pair(twin)).center_dim == 2
    assert [(c.translation, c.multiplicity) for c in decompose(twin)] == \
        [((0,), 2), ((3,), 1)]
    # centre solve, central element, commutant check: all on the top fiber
    assert seen == [top] * 4

    # a generator list with no pair solves the centre in full space
    seen.clear()
    rep = RepGens.from_pair(twin)
    s = summarize(RepGens(rep.dim, rep.gens, rep.labels))
    assert s.free is None and s.center_dim == 2
    assert seen == [None]


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

    # the lists of a pair with one entry of 1e-11 outside its graded blocks
    # (no pair: one is refused); for k > 1 the kernel cutoff must not follow
    # the map restricted to the near-kernel of the V step, or the V* step
    # drops every solution
    for k in (1, 2, 3):
        canonical = build_pspace_pair(tail(chain8, 1), k)
        g = canonical.gens[0].copy()
        g[0, -1] = 1e-11
        got = commutant_basis(
            RepGens(canonical.dim, [canonical.position_observable(), g]))
        assert len(calls) == k
        want = commutant_basis(RepGens.from_pair(canonical))
        assert len(got) == len(want) == k * k
        assert subspace_gap(got, want) <= 1e-8

    # the same blocks on a wider window: same positions, different windows
    wide = WeylPair(LatticeWindow((0,), (9,)), dict(clean.fibers), clean.gens)
    got = intertwiners(RepGens.from_pair(clean), RepGens.from_pair(wide))
    assert len(calls) == 4
    assert len(got) == 4 and subspace_gap(got, graded) <= 1e-8

    # a generator list with no pair
    rep = RepGens.from_pair(clean)
    got = commutant_basis(RepGens(rep.dim, rep.gens, rep.labels))
    assert len(calls) == 5
    assert len(got) == 4 and subspace_gap(got, graded) <= 1e-8


# ---------------------------------------------------------------------------
# branches of the dense solver that no represented pair reaches


def _sparse_factors(rng, n_b, n_a, r):
    """Factor columns with most entries zero, as graded problems give them."""
    def draw(rows):
        m = rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))
        return m * (rng.random((rows, r)) < 0.4)
    return draw(n_b), draw(n_a), draw(n_b), draw(n_a)


def test_sparse_stacked_map_matches_the_dense_broadcast(monkeypatch):
    rng = np.random.default_rng(5)
    for n_b, n_a, r in [(4, 3, 7), (5, 5, 12), (2, 6, 3)]:
        lefts, w, z, rights = _sparse_factors(rng, n_b, n_a, r)
        dense = commutant._stacked_map(lefts, w, z, rights, n_a)
        assert dense.shape == (n_b * n_a, r)
        # rows (p, q) that some column can reach: u_p w_q* or z_p v_q*
        reach = (np.abs(lefts) @ np.abs(w).T + np.abs(z) @ np.abs(rights).T) > 0
        rows = np.flatnonzero(reach)
        monkeypatch.setattr(commutant, "_DENSE_MAP_CAP", 0)
        sparse = commutant._stacked_map(lefts, w, z, rights, n_a)
        monkeypatch.undo()
        np.testing.assert_allclose(sparse, dense[rows], rtol=0, atol=1e-15)
        assert not np.any(np.delete(dense, rows, axis=0))
    zero = np.zeros((3, 4), dtype=complex)
    monkeypatch.setattr(commutant, "_DENSE_MAP_CAP", 0)
    assert commutant._stacked_map(zero, zero, zero, zero, 3).shape == (0, 4)


def test_sparse_stacked_map_gives_the_same_solutions(monkeypatch, chain8):
    pair = build_pspace_pair(upset_from(chain8, [(2,)]), 2)
    rep = RepGens.from_pair(pair)
    u = fiber_mixing_unitary(pair, np.random.default_rng(3))
    other = [u @ g @ u.conj().T for g in rep.gens]
    want = [sylvester_nullspace(rep.gens, rep.gens),
            sylvester_nullspace(rep.gens, other)]
    monkeypatch.setattr(commutant, "_DENSE_MAP_CAP", 0)
    got = [sylvester_nullspace(rep.gens, rep.gens),
           sylvester_nullspace(rep.gens, other)]
    for g, w in zip(got, want):
        assert len(g) == len(w) == 4
        assert subspace_gap(g, w) <= 1e-12


def test_identity_seed_when_no_map_has_a_spectrum():
    # every Hermitian part of A vanishes: the seed is the whole space
    basis = sylvester_nullspace([np.zeros((3, 3))], [np.zeros((2, 2))])
    assert len(basis) == 6
    flat = np.stack([b.ravel() for b in basis])
    assert np.allclose(flat @ flat.conj().T, np.eye(6), atol=1e-14)
    # B alone constrains: T 0 = B T and T 0 = B* T leave ker B for columns
    b = np.diag([1.0, 2.0, 0.0])
    basis = sylvester_nullspace([np.zeros((2, 2))], [b])
    assert len(basis) == 2
    for t in basis:
        assert np.abs(t[:2]).max() == 0.0
    # past _FULL_SEED_CAP the identity seed is refused by name
    n = int(np.sqrt(commutant._FULL_SEED_CAP)) + 1
    with pytest.raises(DimensionGuard):
        sylvester_nullspace([np.zeros((n, n))], [np.zeros((n, n))])
    # so is a spectral seed past _SEED_CAP (one eigenvalue of multiplicity n)
    n = int(np.sqrt(commutant._SEED_CAP)) + 1
    with pytest.raises(DimensionGuard):
        sylvester_nullspace([np.eye(n)], [np.eye(n)])


#: Indices of ``_distinct_generators`` in a list that repeats some of them.
REPEATS = [0, 1, 2, 3, 4, 5, 5, 0, 4, 5, 2]


def _distinct_generators():
    """Coordinate projections, a non-Hermitian matrix unit and the identity."""
    eye = np.eye(4, dtype=complex)
    proj = [np.diag(d).astype(complex)
            for d in ([1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1])]
    return proj + [np.outer(eye[0], eye[1]), eye]


def test_repeated_generators_leave_the_nullspace_unchanged():
    distinct = _distinct_generators()
    repeated = [distinct[i].copy() for i in REPEATS]
    # commutant: diagonal, with equal entries 0 and 1 (the matrix unit)
    want = sylvester_nullspace(distinct, distinct)
    got = sylvester_nullspace(repeated, repeated)
    assert len(got) == len(want) == 3
    assert subspace_gap(got, want) <= 1e-12
    # intertwiners to a unitary conjugate, repeated at the same places
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
    conj = [u @ g @ u.conj().T for g in distinct]
    got = sylvester_nullspace(repeated, [conj[i].copy() for i in REPEATS])
    assert len(got) == 3
    assert subspace_gap(got, sylvester_nullspace(distinct, conj)) <= 1e-12
    assert subspace_gap(got, [u @ t for t in want]) <= 1e-8

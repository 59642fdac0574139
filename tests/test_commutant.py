import json

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
    ListKindMismatch,
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
from weylpair.cli import main
from weylpair.commutant import check_central
from weylpair.pairs import intertwining_blocks
from weylpair.serialize import matrix_to_json, pair_to_json

from conftest import (dense_rep, dense_subspace_gap, equivalence_by_draws,
                      fiber_mixing_unitary, opnorm, position_diagonal,
                      scale_block, span_distance, tail, upset_from)


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
    gens = dense_rep(pair).gens
    assert kron_nullspace_dim(gens) == expected
    assert max(opnorm(t @ g - g @ t) / (1.0 + opnorm(g))
               for t in basis for g in gens) < 1e-10


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
    for g in dense_rep(pair).gens + [np.eye(pair.dim, dtype=complex)]:
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
                            for g in dense_rep(mixed).gens]),
    ]
    for rep in reps:
        gens = rep.gens if rep.pair is None else dense_rep(rep.pair).gens
        s = summarize(rep)
        cbasis = s.commutant_basis
        bicom = sylvester_nullspace(cbasis, cbasis)
        # reference centre: the commutant of the generators and the commutant
        center_alt = sylvester_nullspace(gens + cbasis, gens + cbasis)
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
    pos_only_a = RepGens(pa.dim, [position_diagonal(pa)], ["pos"])
    pos_only_b = RepGens(pb.dim, [position_diagonal(pb)], ["pos"])
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


def test_dimension_guard(monkeypatch, chain8):
    # the canonical k = 2 chain: 4 unknowns (the top fiber) for 16 x 16
    # intertwiners; a solve over the cap is refused by name
    rep = RepGens.from_pair(build_pspace_pair(tail(chain8, 0), 2))
    monkeypatch.setattr(commutant, "_DENSE_MAP_CAP", 4 * 16 * 16 - 1)
    with pytest.raises(DimensionGuard, match="graded solve has 4 unknowns"):
        commutant_basis(rep)
    with pytest.raises(DimensionGuard, match="graded solve"):
        unitarily_equivalent(rep, rep)
    monkeypatch.setattr(commutant, "_DENSE_MAP_CAP", 4 * 16 * 16)
    assert len(commutant_basis(rep)) == 4


def test_a_pair_file_of_many_free_fibers_is_refused(tmp_path, capsys):
    # 160 fibers of size 1 and no blocks: every fiber is free, so the basis
    # would hold 160 elements of 160 x 160 (past the cap of 4e6 entries);
    # both commands refuse it by name before building it
    n = 160
    doc = {"window": {"dim": 1, "lo": [0], "hi": [n - 1]},
           "fibers": [[[p], 1] for p in range(n)], "blocks": [[]]}
    for command, scenario in [("commutant", {"pair": doc}),
                              ("equiv", {"pair_a": doc, "pair_b": doc})]:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(dict(scenario, command=command)))
        code = main([command, "--scenario", str(path), "--out", str(tmp_path)])
        refused = json.loads(capsys.readouterr().out)
        assert code == 1 and refused["kind"] == "DimensionGuard"
        assert "160 unknowns" in refused["error"]


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
    # the label check still comes first
    relabelled = RepGens.from_pair(pa)
    relabelled.labels = ["pos", "W0"]
    with pytest.raises(LabelMismatch):
        unitarily_equivalent(relabelled, rb)


def test_random_conjugate_recovered(chain8):
    pair = build_pspace_pair(tail(chain8, 0), 1)
    gens = dense_rep(pair).gens
    rng = np.random.default_rng(3)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q, _ = np.linalg.qr(g)
    conj = [q @ x @ q.conj().T for x in gens]
    ok, witness = unitarily_equivalent(RepGens(8, gens, ["pos", "V0"]),
                                       RepGens(8, conj, ["pos", "V0"]))
    assert ok
    for x, y in zip(gens, conj):
        assert opnorm(witness @ x @ witness.conj().T - y) < 1e-8


def test_a_non_intertwining_unitary_is_refused_by_the_block_check(
        chain8, monkeypatch):
    """The refusal branch, reached with a faked intertwiner basis whose
    elements are invertible but intertwine nothing: pairs on one window
    are checked per fiber block, a generator list as one block."""
    checked = []
    shared = commutant.intertwining_blocks

    def spy(t, *args):
        checked.append(sorted(t))
        return shared(t, *args)

    monkeypatch.setattr(commutant, "intertwining_blocks", spy)
    pa = build_pspace_pair(tail(chain8, 0), 1)
    pb = scale_block(pa, 0, (3,), 0.5)
    monkeypatch.setattr(commutant, "intertwiners",
                        lambda ra, rb: [np.eye(8, dtype=complex)])
    with pytest.raises(CheckFailed, match="conjugation residual 5.00e-01"):
        unitarily_equivalent(RepGens.from_pair(pa), RepGens.from_pair(pb))
    assert checked == [list(pa.points)]

    gens = dense_rep(pa).gens
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 8)))
    monkeypatch.setattr(commutant, "intertwiners", lambda ra, rb: [q])
    with pytest.raises(CheckFailed, match="conjugation residual"):
        unitarily_equivalent(RepGens(8, gens), RepGens(8, gens))
    assert checked[1:] == [[()]]


def test_the_empty_generator_list_has_the_full_matrix_algebra_as_commutant():
    empty = RepGens(3, [])
    s = summarize(empty)
    assert (s.commutant_dim, s.center_dim) == (9, 1)
    assert s.is_factor and not s.is_irreducible
    # intertwiners and equivalence take the same solve
    assert len(intertwiners(empty, empty)) == 9
    ok, witness = unitarily_equivalent(empty, empty)
    assert ok and opnorm(witness.conj().T @ witness - np.eye(3)) < 1e-12
    wide = intertwiners(RepGens(2, []), empty)
    assert len(wide) == 6 and {t.shape for t in wide} == {(3, 2)}


def _chain(lo, hi, points):
    """The canonical pair of the chain set ``points`` on the window lo..hi."""
    window = LatticeWindow((lo,), (hi,))
    return build_pspace_pair(
        PSet(window, tuple((p,) for p in points), SetKind.PSPACE), 1)


def test_pairs_on_different_windows_take_the_graded_solve(monkeypatch):
    """Points are absolute: the full chains of 0..3 and 1..4 differ in
    U_theta by exp(i theta), and the points 1..4 on the windows 1..4 and
    0..4 are one operator pair.  Neither the dense solver nor a dense
    generator is read, and a pair list with a plain list is refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense solver or dense generator read")

    shifted = [_chain(0, 3, range(4)), _chain(1, 4, range(1, 5))]
    pa, pb = _chain(1, 4, range(1, 5)), _chain(0, 4, range(1, 5))
    plain = RepGens(pa.dim, [np.eye(pa.dim)] * 2, ["pos", "V0"])
    monkeypatch.setattr(commutant, "sylvester_nullspace", refuse)
    monkeypatch.setattr(WeylPair, "gens", property(refuse))

    ra, rb = (RepGens.from_pair(p) for p in shifted)
    assert intertwiners(ra, rb) == []
    assert unitarily_equivalent(ra, rb) == (False, None)
    ra, rb = RepGens.from_pair(pa), RepGens.from_pair(pb)
    assert len(intertwiners(ra, rb)) == 1
    ok, witness = unitarily_equivalent(ra, rb)
    assert ok
    blocks = {y: witness[pb.block_slice(y), pa.block_slice(y)] for y in pa.points}
    iso, res = intertwining_blocks(blocks, pa.window.generators(),
                                   [pa.graded_blocks(0)], [pb.graded_blocks(0)])
    assert max(opnorm(m) for s in iso + res for m in s) <= 1e-12
    for call in (intertwiners, unitarily_equivalent):
        for lists in [(ra, plain), (plain, rb)]:
            with pytest.raises(ListKindMismatch, match="read from a pair"):
                call(*lists)


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
    assert opnorm(witness @ pair.gens[0] @ witness.conj().T - twin.gens[0]) < 1e-8
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
    pair = direct_sum([build_pspace_pair(tail(chain8, 0), 2),
                       build_pspace_pair(tail(chain8, 3), 1)])
    q = fiber_mixing_unitary(pair, np.random.default_rng(5))
    twin = WeylPair(chain8, dict(pair.fibers),
                    [q @ g @ q.conj().T for g in pair.gens])
    top = list(range(pair.dim)[pair.block_slice((7,))])
    assert summarize(RepGens.from_pair(twin)).center_dim == 2
    assert [(c.translation, c.multiplicity) for c in decompose(twin)] == \
        [((0,), 2), ((3,), 1)]
    # the *-algebra check and the centre share one restriction to the top
    # fiber; decompose restricts nothing
    assert seen == [top]

    # a generator list with no pair solves the centre in full space
    seen.clear()
    s = summarize(dense_rep(twin))
    assert s.center_dim == 2
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
            RepGens(canonical.dim, [position_diagonal(canonical), g]))
        assert len(calls) == k
        want = commutant_basis(RepGens.from_pair(canonical))
        assert len(got) == len(want) == k * k
        assert subspace_gap(got, want) <= 1e-8

    # the same blocks on a wider window: the graded solve, as on one window
    wide = WeylPair(LatticeWindow((0,), (9,)), dict(clean.fibers), clean.gens)
    got = intertwiners(RepGens.from_pair(clean), RepGens.from_pair(wide))
    assert len(calls) == 3
    assert len(got) == 4 and subspace_gap(got, graded) <= 1e-8

    # a generator list with no pair
    got = commutant_basis(dense_rep(clean))
    assert len(calls) == 4
    assert len(got) == 4 and subspace_gap(got, graded) <= 1e-8


def test_both_solvers_read_a_scaled_chain_as_decompose_does(chain8):
    # the canonical k = 2 chain with its block at (3,) scaled by
    # diag(1 - 5e-10, 1) decomposes as one component of multiplicity 2; a
    # graded cutoff relative to the system's own largest singular value (of
    # the size of eps) read commutant 2 and centre 2 here
    pair = scale_block(build_pspace_pair(tail(chain8, 0), 2), 0, (3,), 5e-10)
    assert [c.multiplicity for c in decompose(pair)] == [2]
    rep = RepGens.from_pair(pair)
    for r in (rep, dense_rep(pair)):
        s = summarize(r)
        assert (s.commutant_dim, s.center_dim) == (4, 1)


# ---------------------------------------------------------------------------
# branches of the dense solver that no represented pair reaches


def test_a_gens_list_over_the_map_cap_is_refused(tmp_path, capsys,
                                                 monkeypatch, chain8):
    """Past ``_DENSE_MAP_CAP`` a ``--gens`` solve is refused by name, and
    the report says to pass the pair file; that file takes the graded
    solve, which builds no stacked map."""
    pair = build_pspace_pair(upset_from(chain8, [(2,)]), 2)
    gens = [matrix_to_json(g) for g in dense_rep(pair).gens]
    # the graded solve has 4 unknowns for 12 x 12 intertwiners (576); the
    # dense seed has 24 elements, so a stacked map has 12 x 12 x 24 (3456)
    monkeypatch.setattr(commutant, "_DENSE_MAP_CAP", 1000)
    reports = []
    for name, doc in [("gens", {"gens": gens}),
                      ("pair", {"pair": pair_to_json(pair)})]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(doc, command="commutant")))
        code = main(["commutant", "--scenario", str(path),
                     "--out", str(tmp_path)])
        reports.append((code, json.loads(capsys.readouterr().out)))
    (code, refused), (ok, solved) = reports
    assert code == 1 and refused["kind"] == "DimensionGuard"
    assert "pass the pair file" in refused["error"]
    assert ok == 0 and solved["data"]["commutant_dim"] == 4


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


@pytest.mark.parametrize("m, r", [(40, 9), (120, 12), (564, 49)])
def test_qr_first_kernel_decides_like_the_plain_svd_near_the_cutoff(m, r):
    # tall inputs take the QR factor first; with s_0 = 3, one singular value
    # sits at 3e-7 (kept) and one at 3e-9 (dropped), either side of the
    # absolute cutoff 3e-8
    rng = np.random.default_rng(m)
    s = 3.0 * np.geomspace(1.0, 1e-3, r)
    s[-3:] = [3e-7, 3e-9, 0.0]
    u, _ = np.linalg.qr(rng.standard_normal((m, r))
                        + 1j * rng.standard_normal((m, r)))
    v, _ = np.linalg.qr(rng.standard_normal((r, r))
                        + 1j * rng.standard_normal((r, r)))
    a = (u * s) @ v.conj().T
    _, sv, vh = np.linalg.svd(a, full_matrices=False)
    plain = vh[int(np.sum(sv > 3e-8)):].conj().T
    got = commutant._kernel(a, 3e-8)
    assert got.shape == plain.shape == (r, 2)
    assert subspace_gap(list(got.T), list(plain.T)) <= 1e-10
    # no singular value above the cutoff: the identity, not a rotated basis
    assert np.array_equal(commutant._kernel(a, 4.0), np.eye(r))

"""LAPACK call counts of the stacked kappa x kappa checks, of the pair
checks, of the equivalence decision, of the dilate command and of the
covariant layer of a dilation.

Each test spies on ``numpy.linalg`` (or on a solver or W_x builder) and
counts calls, so a check that falls back to one call per matrix, or to a
solve it can skip, fails here whatever the machine's speed.
"""

import collections
import itertools
import json

import numpy as np
import pytest

import weylpair.commutant as commutant
import weylpair.dilation as dilation
import weylpair.pairs as pairs
from weylpair import (EvaluationPoint, GridSpec, LatticeWindow, PSet,
                      ProjectionFamily, RepGens, SafeRegion, SetKind,
                      TestFunction, WeylPair, build_pspace_pair,
                      check_commuting_ranges, check_increasing, demo_family,
                      direct_sum, dual_grid, isometry_defect, random_family,
                      summarize, sylvester_nullspace, unitarily_equivalent,
                      weyl_defect)
from weylpair.cli import run_scenario
from weylpair.freeproduct import sample_field
from weylpair.serialize import pair_to_json

from conftest import fiber_mixing_unitary


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to the spied numpy.linalg entry points, by name."""
    counts = collections.Counter()
    for name in ("eigvalsh", "eigh", "norm", "svd"):
        original = getattr(np.linalg, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return counts


def test_check_increasing_takes_one_eigvalsh_per_sample(calls):
    ev = EvaluationPoint.default()
    for fam in (demo_family(6), random_family(5, 4, 4, seed=2)):
        for grid in (GridSpec(1, 4.0), GridSpec(10, 4.0), GridSpec(2, 3.5)):
            sample = sample_field(fam, ev, grid)
            calls.clear()
            assert check_increasing(sample) <= 1e-12
            assert calls["eigvalsh"] == 1 and calls["eigh"] == 0
            assert len(sample.sels) > 1


def test_family_validation_takes_a_fixed_number_of_norms(calls):
    counts = []
    for parts in (1, 3, 6):
        fam = random_family(6, parts, parts, seed=parts)
        calls.clear()
        ProjectionFamily(fam.plist, fam.qlist)
        counts.append(calls["norm"])
    assert counts == [1, 1, 1]


def test_repeated_generators_take_no_more_kernel_svds(calls):
    fam = random_family(6, 3, 3, seed=4)
    eye = np.eye(6, dtype=complex)
    distinct = fam.plist + fam.qlist + [eye]
    repeated = distinct + [eye.copy(), fam.plist[0].copy(), eye.copy(),
                           fam.qlist[1].copy()]
    counts = []
    for gens in (distinct, repeated):
        calls.clear()
        sylvester_nullspace(gens, gens)
        counts.append(calls["svd"])
        # the seed's candidate spectra: one stacked eigh for the space
        assert calls["eigh"] == 1
    assert 0 < counts[1] <= counts[0]


@pytest.fixture
def full_svds(monkeypatch):
    """Shapes of the matrices that numpy.linalg.svd factors with singular
    vectors, one entry per call."""
    shapes = []
    original = np.linalg.svd

    def spy(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def _tail_sum(window, parts):
    return direct_sum([build_pspace_pair(
        PSet(window, tuple(p for p in window.points() if p[0] >= start),
             SetKind.PSPACE), k) for start, k in parts])


def test_different_fibers_take_no_svd_and_no_solve(calls, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("graded solve for pairs of different fibers")

    monkeypatch.setattr(commutant, "_graded_nullspace", refuse)
    w = LatticeWindow((0,), (7,))
    pa = _tail_sum(w, [(0, 1), (4, 1)])
    pb = _tail_sum(w, [(2, 2)])
    ok, witness = unitarily_equivalent(RepGens.from_pair(pa),
                                       RepGens.from_pair(pb))
    assert not ok and witness is None
    assert calls["svd"] == 0


def test_equivalent_graded_pair_takes_a_blockwise_polar(full_svds,
                                                       monkeypatch):
    w = LatticeWindow((0, 0), (3, 3))
    pair = _tail_sum(w, [(0, 1), (2, 2)])
    q = fiber_mixing_unitary(pair, np.random.default_rng(4))
    twin = WeylPair(w, dict(pair.fibers), [q @ g @ q.conj().T for g in pair.gens])

    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix read on the graded path")

    # from here on, no dense generator or position observable may be read
    monkeypatch.setattr(WeylPair, "gens", property(refuse))
    monkeypatch.setattr(WeylPair, "position_observable", refuse)
    summary = summarize(RepGens.from_pair(pair))
    assert (summary.commutant_dim, summary.center_dim) == (5, 2)
    ok, witness = unitarily_equivalent(RepGens.from_pair(pair),
                                       RepGens.from_pair(twin))
    assert ok
    n = pair.dim
    assert (n, n) not in full_svds
    # the polar factor: one stacked SVD per fiber size
    sizes = collections.Counter(k for _, k in pair.fibers)
    assert {(count, k, k) for k, count in sizes.items()} <= set(full_svds)
    inside = np.zeros((n, n), dtype=bool)
    for y in pair.points:
        inside[pair.block_slice(y), pair.block_slice(y)] = True
    assert np.all(witness[~inside] == 0)
    assert np.linalg.norm(witness.conj().T @ witness - np.eye(n), 2) <= 1e-12


@pytest.fixture
def factored(monkeypatch):
    """Shapes of the matrices that numpy.linalg factors (SVD, QR, eigh,
    eigvalsh, and the SVD behind the 2-norm) while ``factored[0]`` is set,
    after the first entry."""
    record = [False]

    def spy(original, spectral_norm=False):
        def call(a, *args, **kwargs):
            if record[0] and (not spectral_norm or args[:1] == (2,)
                              or kwargs.get("ord") == 2):
                record.append(np.shape(a))
            return original(a, *args, **kwargs)
        return call

    for name in ("svd", "qr", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "norm", spy(np.linalg.norm, True))
    return record


def test_dilate_applies_w_without_dense_matrices(tmp_path, monkeypatch,
                                                 factored):
    def refuse(*args, **kwargs):
        raise AssertionError("dense W_x built by the dilate command")

    bundles = []
    build = dilation.minimal_dilation

    def built(*args, **kwargs):
        bundles.append(build(*args, **kwargs))
        factored[0] = True  # the checks and the writer follow
        return bundles[-1]

    monkeypatch.setattr(dilation.DilationBundle, "w", refuse)
    monkeypatch.setattr(dilation, "minimal_dilation", built)
    w = LatticeWindow((0, 0), (3, 3))
    depth = 2
    scenario = tmp_path / "d.json"
    scenario.write_text(json.dumps({
        "command": "dilate", "depth": depth,
        "pair": pair_to_json(_tail_sum(w, [(0, 1), (2, 2)]))}))
    report, code = run_scenario("dilate", str(scenario), str(tmp_path))
    assert code == 0 and report["ok"]
    # nothing after the dilation is factored beyond the padded per-point
    # stack of the exhaustion check: (dilated fiber) x (columns landing)
    bundle = bundles[0]
    rows = max(k for _, k in bundle.dilated.fibers)
    cols = (depth + 1) ** w.dim * max(k for _, k in bundle.base.fibers)
    assert max(rows, cols) < bundle.dim
    shapes = factored[1:]
    assert shapes and all(max(shape[-2:]) <= max(rows, cols)
                          for shape in shapes)


def test_the_covariant_layer_takes_no_linear_algebra(calls):
    # the joint spectrum, integration, character extension and compression
    # read the bundle's diagonal table and blocks
    for w, parts in [(LatticeWindow((0,), (7,)), [(0, 2), (3, 1)]),
                     (LatticeWindow((0, 0), (3, 3)), [(0, 1), (2, 2)])]:
        bundle = dilation.minimal_dilation(_tail_sum(w, parts), 2)
        rep = dilation.CovariantRep.from_bundle(bundle)
        calls.clear()
        spectrum = dilation.joint_spectrum(rep)
        f = (TestFunction.delta(rep.box, (0,) * w.dim)
             + TestFunction.delta(rep.box, (1,) * w.dim, -0.5))
        dilation.integrate_family(rep, f)
        dilation.extend_u(bundle, np.full(w.dim, 0.7))
        dilation.compress_to_base(rep)
        assert sum(d for _, d in spectrum) == bundle.dim
        assert not calls, dict(calls)


def _pair_checks(pair, margin):
    """The three checks of ``pair-check``: every shift up to the margin,
    the whole dual grid as one stack, the default range probe."""
    safe = SafeRegion(margin)
    shifts = list(itertools.product(range(margin + 1), repeat=pair.window.dim))
    thetas = np.array(dual_grid(pair.window))
    return ([weyl_defect(pair, thetas, a, safe) for a in shifts],
            [isometry_defect(pair, a, safe) for a in shifts],
            check_commuting_ranges(pair))


def test_pair_checks_take_no_dense_product_and_no_extra_norm(calls, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense V_a built by a pair check")

    monkeypatch.setattr(pairs, "isometry_v", refuse)
    w = LatticeWindow((0, 0), (3, 3))
    pair = build_pspace_pair(PSet(w, tuple(w.points()), SetKind.PSPACE), 2)
    calls.clear()
    _pair_checks(pair, 2)
    assert pair.dim == 32
    # one stacked norm per defect with a safe block (4), per isometry
    # defect (9) and for the ranges, and one for the generators' commutator
    assert calls["norm"] == 15 and calls["svd"] == 0

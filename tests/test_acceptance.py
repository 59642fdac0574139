"""Acceptance suite: one check per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live) and asserts the criterion at its declared tolerance.  Tolerances are
fixed here, not configurable.
"""

import itertools
import json
import time
from collections import Counter

import numpy as np
import pytest

from weylpair import (
    CovariantRep,
    EvaluationPoint,
    GridSpec,
    LatticeWindow,
    PSet,
    RepGens,
    SetKind,
    build_pspace_pair,
    build_r2_pair,
    canonical_defect_sweep,
    check_commuting_ranges,
    check_increasing,
    commutant_basis,
    commutant_transfer_check,
    decompose,
    demo_family,
    direct_sum,
    dual_grid,
    enumerate_pspaces,
    extend_u,
    isometry_v,
    minimal_dilation,
    random_family,
    spec_support,
    summarize,
    translate_pset,
    unitarily_equivalent,
    unitary_u,
)
from weylpair.dilation import compress_to_base, decompose_full
from weylpair.freeproduct import (coordinate_family, plateau_fraction,
                                  sample_field)

from conftest import decomposition_witness, dense_rep, opnorm, tail, upset_from


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_weak_weyl_relation():
    t0 = time.perf_counter()
    margin = 4
    worst = 0.0
    for lo, hi in [((0,), (15,)), ((0, 0), (7, 7))]:
        window = LatticeWindow(lo, hi)
        for pspace in enumerate_pspaces(window):
            for k in (1, 2):
                worst = max(worst, canonical_defect_sweep(pspace, k, margin))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 30.0
    report(1, "weak-weyl-defect-all-canonical-pairs", ok,
           f"max defect {worst:.3e} tol 1e-10, elapsed {elapsed:.1f}s cap 30s")


def test_criterion_02_factorial_and_irreducible():
    window = LatticeWindow((0,), (7,))
    dims = {}
    ok = True
    for k in (1, 2, 3):
        s = summarize(RepGens.from_pair(build_pspace_pair(tail(window, 0), k)))
        dims[k] = s.commutant_dim
        ok = ok and s.is_factor and (s.is_irreducible == (k == 1))
    ok = ok and dims == {1: 1, 2: 4, 3: 9}
    report(2, "factorial-with-commutant-dims-1-4-9", ok,
           f"dims {dims}, kernel cutoff 1e-8")


def test_criterion_03_equivalence_classification():
    window = LatticeWindow((0,), (5,))
    reps = []
    for pspace in enumerate_pspaces(window):
        for k in (1, 2):
            reps.append(((pspace.points, k),
                         RepGens.from_pair(build_pspace_pair(pspace, k))))
    wrong = 0
    for (ida, ra), (idb, rb) in itertools.product(reps, reps):
        got, _ = unitarily_equivalent(ra, rb)
        if got != (ida == idb):
            wrong += 1
    report(3, "equivalence-iff-same-set-and-multiplicity", wrong == 0,
           f"{len(reps) ** 2} ordered pairs, {wrong} misclassified")


def test_criterion_04_decompose_round_trip():
    pools = {
        1: enumerate_pspaces(LatticeWindow((0,), (5,))),
        2: enumerate_pspaces(LatticeWindow((0, 0), (2, 2))),
    }
    rng = np.random.default_rng(20240404)
    failures = []
    worst_residual = 0.0
    for trial in range(20):
        d = 1 + trial % 2
        pool = pools[d]
        ncomp = int(rng.integers(1, 5))
        drawn = [(pool[rng.integers(len(pool))], int(rng.integers(1, 4)))
                 for _ in range(ncomp)]
        pair = direct_sum([build_pspace_pair(a, k) for a, k in drawn])
        dec = decompose_full(pair)
        expected = Counter()
        for a, k in drawn:
            expected[a.points] += k
        got = Counter({c.raw.points: c.multiplicity for c in dec.components})
        if expected != got:
            failures.append(trial)
            continue
        # orbit-normalised comparison: apply the same normalisation to the
        # drawn supports and compare the full (set, translation, k) triples
        expected_norm = Counter()
        for pts, k in expected.items():
            t = tuple(c - l for c, l in zip(pts[0], pair.window.lo))
            moved, _ = translate_pset(
                PSet(pair.window, pts, SetKind.PSPACE), tuple(-c for c in t))
            expected_norm[(moved.points, t, k)] += 1
        got_norm = Counter({(c.pspace.points, c.translation, c.multiplicity): 1
                            for c in dec.components})
        if expected_norm != got_norm:
            failures.append(trial)
        wit = decomposition_witness(pair, dec)
        res = max(opnorm(wit @ x @ wit.conj().T - y) for x, y in zip(
            dense_rep(pair).gens, dense_rep(dec.reassembled).gens))
        worst_residual = max(worst_residual, res)
        if res > 1e-8:
            failures.append(trial)
    report(4, "decompose-recovers-random-direct-sums", not failures,
           f"20 seeded draws, failures {failures}, "
           f"worst witness residual {worst_residual:.3e} tol 1e-8")


def _dilation_defects(pair, depth):
    """Worst defect over dilation properties and family observations."""
    bundle = minimal_dilation(pair, depth)
    rep = CovariantRep.from_bundle(bundle)
    emb = bundle.embed
    d = pair.window.dim
    worst = opnorm(emb.conj().T @ emb - np.eye(pair.dim))
    # unitary group property inside the budget
    shifts = [x for x in itertools.product(range(-depth, depth + 1), repeat=d)
              if any(x)]
    for x in shifts:
        wx = bundle.w(x)
        idx = bundle.safe_indices([x])
        if idx.size:
            sub = (wx.conj().T @ wx)[np.ix_(idx, idx)]
            worst = max(worst, opnorm(sub - np.eye(idx.size)))
    # the dilation extends the semigroup
    for a in itertools.product(range(depth + 1), repeat=d):
        worst = max(worst,
                    opnorm(bundle.w(a) @ emb - emb @ isometry_v(pair, a)))
    # exhaustion of the dilation space by pulled-back copies
    cols = [bundle.w(tuple(-c for c in a)) @ emb
            for a in itertools.product(range(depth + 1), repeat=d)]
    u, sv, _ = np.linalg.svd(np.hstack(cols), full_matrices=False)
    span = u[:, sv > 1e-10]
    worst = max(worst, opnorm(np.eye(bundle.dim) - span @ span.conj().T))
    # family observations: covariance, monotone, commuting
    pts = sorted(rep.box.points())
    for x in pts:
        ex = rep.e(x)
        for y in pts:
            ey = rep.e(y)
            worst = max(worst, opnorm(ex @ ey - ey @ ex))
            if all(a <= b for a, b in zip(x, y)):
                worst = max(worst, max(0.0, -np.linalg.eigvalsh(ex - ey).min()))
            xy = tuple(a + b for a, b in zip(x, y))
            if max(abs(c) for c in xy) <= bundle.depth:
                idx = bundle.safe_indices([tuple(-c for c in x)])
                if idx.size:
                    wx = bundle.w(x)
                    diff = wx @ ey @ wx.conj().T - rep.e(xy)
                    worst = max(worst, opnorm(diff[np.ix_(idx, idx)]))
    return bundle, rep, worst


def _round_trip_ok(pair, rep):
    back = compress_to_base(rep)
    ok, _ = unitarily_equivalent(RepGens.from_pair(pair),
                                 RepGens.from_pair(back))
    return ok


def test_criterion_05_dilation_axioms():
    w1 = LatticeWindow((0,), (7,))
    w2 = LatticeWindow((0, 0), (3, 3))
    cases = [
        (build_pspace_pair(tail(w1, 0), 1), 4),
        (build_pspace_pair(tail(w1, 2), 2), 4),
        (direct_sum([build_pspace_pair(tail(w1, 0), 1),
                     build_pspace_pair(tail(w1, 3), 1)]), 4),
        (build_pspace_pair(upset_from(w2, [(0, 0)]), 1), 2),
        (build_pspace_pair(upset_from(w2, [(1, 0), (0, 2)]), 1), 2),
    ]
    worst = 0.0
    round_trips = True
    for pair, depth in cases:
        _, rep, defect = _dilation_defects(pair, depth)
        worst = max(worst, defect)
        round_trips = round_trips and _round_trip_ok(pair, rep)
    ok = worst <= 1e-10 and round_trips
    report(5, "dilation-axioms-and-round-trip", ok,
           f"max defect {worst:.3e} tol 1e-10, round trips {round_trips}")


def test_criterion_06_character_extension():
    w1 = LatticeWindow((0,), (7,))
    w2 = LatticeWindow((0, 0), (3, 3))
    cases = [
        (build_pspace_pair(tail(w1, 2), 1), 4),
        (build_pspace_pair(upset_from(w2, [(0, 0)]), 1), 2),
    ]
    worst_c1 = 0.0
    worst = 0.0
    for pair, depth in cases:
        bundle = minimal_dilation(pair, depth)
        rep = CovariantRep.from_bundle(bundle)
        d = pair.window.dim
        emb = bundle.embed
        thetas = dual_grid(pair.window)[:6] + [np.full(d, 0.9)]
        exts = [extend_u(bundle, th) for th in thetas]
        for th, ext in zip(thetas, exts):
            worst_c1 = max(worst_c1,
                           opnorm(ext @ emb - emb @ unitary_u(pair, th)))
            for x in itertools.product(range(-depth, depth + 1), repeat=d):
                idx = bundle.safe_indices([x])
                if not idx.size:
                    continue
                phase = np.exp(1j * float(np.asarray(th) @ np.asarray(x)))
                diff = ext @ bundle.w(x) - phase * bundle.w(x) @ ext
                worst = max(worst, opnorm(diff[:, idx]))
            for x in rep.box.points():
                ex = rep.e(x)
                worst = max(worst, opnorm(ext @ ex - ex @ ext))
        for (t1, e1), (t2, e2) in itertools.combinations(
                list(zip(thetas, exts))[:4], 2):
            combined = extend_u(bundle, np.asarray(t1) + np.asarray(t2))
            worst = max(worst, opnorm(e1 @ e2 - combined))
    ok = worst_c1 <= 1e-12 and worst <= 1e-10
    report(6, "character-extension-conditions", ok,
           f"restriction defect {worst_c1:.3e} tol 1e-12, "
           f"budget defects {worst:.3e} tol 1e-10")


def test_criterion_07_field_monotone():
    t0 = time.perf_counter()
    ev = EvaluationPoint.default()
    grid = GridSpec(10, 4.0)
    rng = np.random.default_rng(20240707)
    worst = 0.0
    for trial in range(5):
        parts = int(rng.integers(4, 7))
        fam = random_family(6, parts, parts, seed=int(rng.integers(1, 10 ** 6)))
        worst = max(worst, check_increasing(sample_field(fam, ev, grid)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed <= 60.0
    report(7, "projection-field-increasing", ok,
           f"max violation {worst:.3e} tol 1e-12, elapsed {elapsed:.1f}s cap 60s")


def test_criterion_08_plateau_fractions():
    ev = EvaluationPoint.default()  # b = d = 0.4
    grid = GridSpec(10, 4.0)
    fam = demo_family(6)
    bound = 0.36 - 2 * grid.step
    worst_frac = 1.0
    sample = sample_field(fam, ev, grid)
    for m in range(3):
        for n in range(3):
            worst_frac = min(worst_frac, plateau_fraction(sample, m, n))
    ok = worst_frac >= bound
    report(8, "plateau-fraction-per-unit-cell", ok,
           f"min fraction {worst_frac:.3f} >= bound {bound:.3f}")


def test_criterion_09_commutant_transfer():
    ev = EvaluationPoint.default()
    grid = GridSpec(2, 7.0)
    all_equal = True
    for seed in (1, 2, 3, 4, 5):
        fam = random_family(6, 6, 6, seed=seed)
        dim_e, dim_f, equal = commutant_transfer_check(fam, ev, grid)
        all_equal = all_equal and equal
    demo = demo_family(6)
    dim_e, dim_f, equal = commutant_transfer_check(demo, ev, grid)
    pair = build_r2_pair(demo, ev, GridSpec(1, 7.0))
    pair_comm = len(commutant_basis(RepGens.from_pair(pair)))
    # families with a non-trivial commutant: the pair commutant is the
    # family commutant, one matrix block per atom of the joint partition
    coord = []
    for fam, pair_grid, atoms in [
            (coordinate_family(4, [[0], [1], [2], [3]], [[0], [1], [2], [3]]),
             GridSpec(1, 5.0), 4),
            (coordinate_family(6, [[0, 1], [2, 3], [4, 5]],
                               [[0], [1, 2, 3], [4, 5]]),
             GridSpec(1, 4.0), 1 + 1 + 4 + 4)]:
        fam_comm = len(commutant_basis(RepGens(fam.kappa,
                                               fam.plist + fam.qlist)))
        coord_pair = build_r2_pair(fam, ev, pair_grid)
        coord.append((len(commutant_basis(RepGens.from_pair(coord_pair))),
                      fam_comm, atoms))
    ok = all_equal and (dim_e, dim_f, equal) == (1, 1, True) and pair_comm == 1 \
        and all(p == f == a for p, f, a in coord)
    report(9, "commutant-transfer-and-irreducibility", ok,
           f"5 seeded families equal {all_equal}, demo dims ({dim_e},{dim_f}), "
           f"pair commutant dim {pair_comm}, coordinate families "
           f"(pair, family) {[(p, f) for p, f, _ in coord]}")


def test_criterion_10_noncommuting_witness():
    ev = EvaluationPoint.default()
    pair = build_r2_pair(demo_family(6), ev, GridSpec(1, 7.0))
    worst = check_commuting_ranges(pair, [(1, 0), (0, 1), (2, 0), (0, 2)])
    ok = worst >= 0.1
    report(10, "noncommuting-range-witness", ok,
           f"max commutator {worst:.3f} >= 0.1")


def test_criterion_11_support_rigidity():
    ev = EvaluationPoint.default()
    grid = GridSpec(1, 7.0)
    fam_a = demo_family(6, seed=20240601)
    fam_b = demo_family(6, seed=99)
    sup_a = json.dumps(spec_support(fam_a, ev, grid)).encode()
    sup_b = json.dumps(spec_support(fam_b, ev, grid)).encode()
    pair_a = build_r2_pair(fam_a, ev, grid)
    pair_b = build_r2_pair(fam_b, ev, grid)
    equivalent, _ = unitarily_equivalent(RepGens.from_pair(pair_a),
                                         RepGens.from_pair(pair_b))
    ok = sup_a == sup_b and not equivalent
    report(11, "spectral-support-rigidity", ok,
           f"supports byte-identical {sup_a == sup_b}, "
           f"pairs equivalent {equivalent} (expected False)")

import gc
import json
import tracemalloc

import numpy as np
import pytest

import weylpair.lattice as lat
from weylpair import (
    BudgetExceeded,
    EmptySetError,
    InvarianceViolation,
    LatticeWindow,
    SetKind,
    TestFunction,
    complement_pset,
    enumerate_pspaces,
    indicator_integral,
    reflect_pset,
    translate_pset,
    validate_pset,
)
from weylpair.serialize import pset_from_json, pset_to_json

from conftest import brute_force_upsets, tail, upset_from
from test_serialize import WINDOWS


def test_window_basics(chain8):
    assert chain8.dim == 1
    assert chain8.cardinality == 8
    assert (3,) in chain8 and (8,) not in chain8
    assert chain8.index((5,)) == 5
    w = LatticeWindow((-1, 2), (1, 4))
    assert w.cardinality == 9
    assert list(w.points())[0] == (-1, 2)
    assert w.index((-1, 2)) == 0 and w.index((1, 4)) == 8


def test_window_rejects_bad_bounds():
    with pytest.raises(ValueError):
        LatticeWindow((2,), (1,))
    with pytest.raises(ValueError):
        LatticeWindow((0,), (3,), weight=0.0)


def test_validate_full_chain_is_pspace(chain8):
    ps = validate_pset([(y,) for y in range(8)], chain8, SetKind.PSPACE)
    assert len(ps) == 8


def test_validate_reports_first_violation(chain8):
    with pytest.raises(InvarianceViolation) as err:
        validate_pset([(0,), (2,), (3,), (4,), (5,), (6,), (7,)], chain8,
                      SetKind.PSPACE)
    assert err.value.point == (0,)
    assert err.value.direction == (1,)


def test_validate_empty(chain8):
    with pytest.raises(EmptySetError):
        validate_pset([], chain8, SetKind.PSPACE)


def test_validate_2d_upset(square4):
    ps = upset_from(square4, [(1, 0), (0, 2)])
    # 12 points above (1,0), 8 above (0,2), 6 in common
    assert len(ps) == 14
    # brute-force invariance scan
    members = set(ps.points)
    for p in ps.points:
        for e in square4.generators():
            q = tuple(a + b for a, b in zip(p, e))
            if q in square4:
                assert q in members


def test_yset_validation(chain8):
    validate_pset([(0,), (1,), (2,)], chain8, SetKind.YSET)
    with pytest.raises(InvarianceViolation):
        validate_pset([(1,), (2,)], chain8, SetKind.YSET)


def test_validate_reports_first_yset_violation(square4):
    # An upward set is not downward closed; the scan runs in sorted point
    # order, so (0,2), missing (0,1) below it, is named before (2,0) or (2,1).
    pts = list(upset_from(square4, [(0, 2), (2, 0)]).points)[::-1]
    with pytest.raises(InvarianceViolation) as err:
        validate_pset(pts, square4, SetKind.YSET)
    assert err.value.point == (0, 2)
    assert err.value.direction == (0, -1)


def test_membership(square4):
    ps = upset_from(square4, [(1, 2)])
    members = set(ps.points)
    for p in square4.points():
        assert (p in ps) == (p in members)
        assert (list(p) in ps) == (p in members)
    assert (4, 3) not in ps and (1, 2, 0) not in ps


def test_enumerate_chain_gives_tails(chain8):
    psets = enumerate_pspaces(chain8)
    assert len(psets) == 8
    expected = sorted(tuple((y,) for y in range(a, 8)) for a in range(8))
    assert [p.points for p in psets] == expected


def test_enumerate_2x2_and_singleton():
    assert len(enumerate_pspaces(LatticeWindow((0, 0), (1, 1)))) == 5
    single = enumerate_pspaces(LatticeWindow((0,), (0,)))
    assert len(single) == 1 and single[0].points == ((0,),)


@pytest.mark.parametrize("lo,hi", [((0, 0), (2, 2)), ((0, 0, 0), (1, 1, 1)),
                                   ((-3, 2), (-2, 4)), ((0, -1, 0), (2, -1, 1)),
                                   ((0, 0, 0, 0), (1, 1, 1, 1))])
def test_enumerate_matches_powerset_oracle(lo, hi):
    w = LatticeWindow(lo, hi)
    psets = enumerate_pspaces(w)
    assert [p.points for p in psets] == brute_force_upsets(w)
    for ps in psets:
        rebuilt = lat.PSet(w, ps.points, SetKind.PSPACE)
        assert (ps.indices, ps._mask) == (rebuilt.indices, rebuilt._mask)


def test_enumerate_budget(monkeypatch):
    monkeypatch.setattr(lat, "ENUMERATION_BUDGET", 4)
    with pytest.raises(BudgetExceeded):
        enumerate_pspaces(LatticeWindow((0,), (7,)))


@pytest.mark.parametrize("lo,hi", [((0,), (0,)), ((-2,), (4,)),
                                   ((0, 0), (3, 2)), ((0, 0, 0), (1, 2, 1))])
def test_enumerate_budget_boundary(monkeypatch, lo, hi):
    w = LatticeWindow(lo, hi)
    count = len(enumerate_pspaces(w))
    monkeypatch.setattr(lat, "ENUMERATION_BUDGET", count)
    assert len(enumerate_pspaces(w)) == count
    monkeypatch.setattr(lat, "ENUMERATION_BUDGET", count - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_pspaces(w)


def test_enumerate_budget_fires_before_building(monkeypatch):
    # the 2x10x10 window has 5,924,217,936 upward sets (MacMahon's box
    # formula); its 10x10 slices alone have 184,756.  A budget below that
    # must raise from the counts, before the chains are held: the chains
    # up to 2**16 sets took about 50 MB of traced memory
    monkeypatch.setattr(lat, "ENUMERATION_BUDGET", 2 ** 16)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            enumerate_pspaces(LatticeWindow((0, 0, 0), (1, 9, 9)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    monkeypatch.undo()
    assert len(enumerate_pspaces(LatticeWindow((0, 0), (7, 7)))) == 12869
    assert len(enumerate_pspaces(LatticeWindow((0, 0, 0), (2, 2, 2)))) == 979


def test_enumeration_runs_the_shared_closure_test(monkeypatch):
    monkeypatch.setattr(lat, "_closed", lambda table, mask, kind: False)
    with pytest.raises(InvarianceViolation):
        enumerate_pspaces(LatticeWindow((0, 0), (2, 2)))
    with pytest.raises(InvarianceViolation):
        validate_pset([(0, 0)], LatticeWindow((0, 0), (0, 0)), SetKind.PSPACE)


@pytest.mark.parametrize("lo,hi", WINDOWS)
def test_enumerated_sets_are_the_validated_sets(lo, hi):
    w = LatticeWindow(lo, hi)
    for ps in enumerate_pspaces(w):
        ref = validate_pset(ps.points, w, SetKind.PSPACE)
        assert ps == ref and hash(ps) == hash(ref)
        assert (ps.indices, ps._mask) == (ref.indices, ref._mask)
        assert type(ps.points) is tuple and type(ps.indices) is tuple


def test_enumeration_restores_the_collector(monkeypatch):
    w = LatticeWindow((0, 0), (2, 2))
    assert gc.isenabled()
    assert len(enumerate_pspaces(w)) == 19
    assert gc.isenabled()
    with monkeypatch.context() as m:
        m.setattr(lat, "ENUMERATION_BUDGET", 4)
        with pytest.raises(BudgetExceeded):
            enumerate_pspaces(w)
    assert gc.isenabled()
    # a caller that paused the collector keeps it paused
    gc.disable()
    try:
        assert len(enumerate_pspaces(w)) == 19
        assert not gc.isenabled()
        monkeypatch.setattr(lat, "ENUMERATION_BUDGET", 4)
        with pytest.raises(BudgetExceeded):
            enumerate_pspaces(w)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_enumerate_closed_under_lattice_ops():
    w = LatticeWindow((0, 0), (2, 2))
    psets = enumerate_pspaces(w)
    all_points = {p.points for p in psets}
    for a in psets:
        for b in psets:
            meet = tuple(sorted(set(a.points) & set(b.points)))
            join = tuple(sorted(set(a.points) | set(b.points)))
            if meet:
                assert meet in all_points
            assert join in all_points


def test_translate_identity(chain8):
    a = tail(chain8, 2)
    b, clip = translate_pset(a, (0,))
    assert b.points == a.points and clip == 0


def test_translate_clip_count(chain8):
    a = tail(chain8, 2)
    b, clip = translate_pset(a, (3,))
    assert b.points == tuple((y,) for y in range(5, 8))
    assert clip == 3


def test_translate_2d_upset(square4):
    a = upset_from(square4, [(1, 1)])
    b, clip = translate_pset(a, (1, 0))
    assert b.points == upset_from(square4, [(2, 1)]).points
    assert clip == 3  # the x=3 column of the original up-set leaves the window


def test_translate_refills_from_extension(chain8):
    # shifting a truncated tail down re-truncates its infinite extension
    a = tail(chain8, 5)
    b, clip = translate_pset(a, (-5,))
    assert b.points == tuple((y,) for y in range(8))
    assert clip == 0


def test_translate_off_window(chain8):
    a = tail(chain8, 5)
    with pytest.raises(EmptySetError):
        translate_pset(a, (10,))


def test_translate_yset(chain8):
    y = validate_pset([(0,), (1,), (2,)], chain8, SetKind.YSET)
    b, clip = translate_pset(y, (2,))
    assert b.points == tuple((c,) for c in range(5))
    assert clip == 0


def test_indicator_integral_delta(chain8):
    a = tail(chain8, 0)
    f = TestFunction.delta(chain8, (0,))
    assert indicator_integral(f, a) == pytest.approx(1.0)


def test_indicator_integral_uniform(chain8):
    f = TestFunction.uniform(chain8, [(0,), (1,), (2,)], 1.0 / 3.0)
    a = tail(chain8, 1)
    assert indicator_integral(f, a) == pytest.approx(2.0 / 3.0)


def test_indicator_integral_weight():
    w = LatticeWindow((0,), (3,), weight=0.25)
    a = validate_pset([(y,) for y in range(4)], w, SetKind.PSPACE)
    f = TestFunction.uniform(w, [(0,), (1,)], 1.0)
    assert indicator_integral(f, a) == pytest.approx(0.5)


def test_delta_separates_neighbouring_tails(chain8):
    f = TestFunction.delta(chain8, (0,))
    assert indicator_integral(f, tail(chain8, 0)) == pytest.approx(1.0)
    assert indicator_integral(f, tail(chain8, 1)) == pytest.approx(0.0)


def test_deltas_separate_all_pairs():
    w = LatticeWindow((0,), (5,))
    psets = enumerate_pspaces(w)
    for i, a in enumerate(psets):
        for b in psets[i + 1:]:
            sep = any(
                indicator_integral(TestFunction.delta(w, x), a)
                != indicator_integral(TestFunction.delta(w, x), b)
                for x in w.points())
            assert sep


def test_indicator_integral_linear_and_monotone(chain8):
    rng = np.random.default_rng(11)
    a, b = tail(chain8, 3), tail(chain8, 1)
    for _ in range(20):
        vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f = TestFunction(chain8, tuple(((y,), vals[y]) for y in range(8)))
        g = TestFunction(chain8, tuple(((y,), vals[7 - y]) for y in range(8)))
        lhs = indicator_integral(f + g, a)
        rhs = indicator_integral(f, a) + indicator_integral(g, a)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        pos = TestFunction(chain8, tuple(((y,), abs(vals[y])) for y in range(8)))
        assert indicator_integral(pos, a).real <= \
            indicator_integral(pos, b).real + 1e-12


def test_reflection_duality():
    w = LatticeWindow((0, 0), (2, 2))
    for ps in enumerate_pspaces(w):
        r = reflect_pset(ps)
        assert r.kind is SetKind.YSET
        assert len(r) == len(ps)
        assert reflect_pset(r).points == ps.points


def test_complement_duality():
    w = LatticeWindow((0, 0), (2, 2))
    for ps in enumerate_pspaces(w):
        if len(ps) == w.cardinality:
            continue
        c = complement_pset(ps)
        assert c.kind is SetKind.YSET


def test_origin_membership(chain8):
    assert tail(chain8, 0).contains_origin()
    assert not tail(chain8, 1).contains_origin()


def test_pset_json_roundtrip(square4):
    ps = upset_from(square4, [(2, 1)])
    doc = pset_to_json(ps)
    assert doc["kind"] == "pspace"
    assert doc["points"] == sorted(doc["points"])
    back = pset_from_json(json.loads(json.dumps(doc)))
    assert back.points == ps.points and back.window == ps.window

"""Pairs built from their generator blocks.

Every builder hands its blocks to ``WeylPair``, and the dense generators
are a view written from them on first use.  On canonical sums, direct sums
and quarter-plane pairs that view equals, bit for bit, a dense oracle
placement, and the pair rebuilt from the view has the same blocks.  Block
input is refused for a NaN, a point without a fiber, a wrong shape and a
wrong axis count, as is a fiber point outside the window; a source point
left out is a zero block.  Building, reading and checking a graded pair
file never writes the dense view.  The dilation's extended supports follow
the upward-closure rule.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpair import (EvaluationPoint, GridSpec, LatticeWindow, WeylPair,
                      build_pspace_pair, build_r2_pair, direct_sum,
                      enumerate_pspaces, random_family)
from weylpair.cli import main
from weylpair.dilation import _extended_support
from weylpair.errors import PairInvariantViolation
from weylpair.pairs import canonical_sum
from weylpair.serialize import pair_from_json, pair_to_json, pset_to_json

from conftest import (block_shift_generators, direct_sum_generators,
                      extended_support_by_box, fiber_mixing_unitary,
                      placed_generators, upset_from)

POOLS = [enumerate_pspaces(LatticeWindow((0,), (7,))),
         enumerate_pspaces(LatticeWindow((0, 0), (2, 2))),
         enumerate_pspaces(LatticeWindow((0, 0, 0), (1, 1, 1)))]
SQUARE = LatticeWindow((0, 0), (2, 2))


def fiber_mixed(pair, seed):
    q = fiber_mixing_unitary(pair, np.random.default_rng(seed))
    return WeylPair(pair.window, dict(pair.fibers),
                    [q @ g @ q.conj().T for g in pair.gens])


@st.composite
def built_pairs(draw):
    """A pair from one of the builders and its oracle dense generators: a
    canonical sum, a direct sum (its first summand fiber-mixed or not) or a
    small quarter-plane pair."""
    kind = draw(st.sampled_from(["canonical", "direct", "quarterplane"]))
    if kind == "quarterplane":
        kappa = draw(st.integers(2, 3))
        parts = draw(st.integers(2, kappa))
        fam = random_family(kappa, parts, parts,
                            seed=draw(st.integers(0, 10 ** 6)))
        pair = build_r2_pair(fam, EvaluationPoint.default(),
                             GridSpec(1, parts + 1.0))
        return pair, placed_generators(pair)
    pool = POOLS[draw(st.integers(0, len(POOLS) - 1))]
    drawn = [(pool[draw(st.integers(0, len(pool) - 1))],
              draw(st.integers(1, 3)))
             for _ in range(draw(st.integers(1, 3)))]
    if kind == "canonical":
        comps = [(ps.points, k) for ps, k in drawn]
        pair, _ = canonical_sum(pool[0].window, comps, "sum")
        return pair, block_shift_generators(pool[0].window, comps)
    parts = [build_pspace_pair(ps, k) for ps, k in drawn]
    if draw(st.booleans()):
        parts[0] = fiber_mixed(parts[0], draw(st.integers(0, 2 ** 32 - 1)))
    return direct_sum(parts), direct_sum_generators(parts)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(built_pairs())
def test_the_dense_view_is_the_oracle_placement_of_the_blocks(case):
    pair, want = case
    assert len(pair.gens) == len(want)
    for g, w in zip(pair.gens, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert not g.flags.writeable
    again = WeylPair(pair.window, dict(pair.fibers), pair.gens)
    for axis in range(pair.window.dim):
        blocks, back = pair.graded_blocks(axis), again.graded_blocks(axis)
        assert list(blocks) == list(back)
        assert all(blocks[y].tobytes() == back[y].tobytes() for y in blocks)


def test_block_input_is_refused_as_dense_input_is():
    # the set holds (1, 0), (2, 0), (0, 2) and every point above them
    pair = build_pspace_pair(upset_from(SQUARE, [(1, 0), (0, 2)]), 2)
    blocks = [pair.graded_blocks(axis) for axis in range(2)]

    def build(gens):
        return WeylPair(pair.window, dict(pair.fibers), gens)

    nan = {y: b.copy() for y, b in blocks[1].items()}
    nan[(1, 0)][0, 0] = np.nan
    last = {y: b.copy() for y, b in blocks[1].items()}
    last[max(last)][-1, -1] = np.nan
    cases = [
        ([blocks[0], nan], "generator 1 has a non-finite entry"),
        ([blocks[0], last], "generator 1 has a non-finite entry"),
        ([{**blocks[0], (2, 2): np.eye(2)}, blocks[1]],
         r"generator 0: block point \(3, 2\) carries no fiber"),
        ([blocks[0], {**blocks[1], (0, 1): np.eye(2)}],
         r"generator 1: block point \(0, 1\) carries no fiber"),
        ([{**blocks[0], (1, 0): np.eye(2)[:, :1]}, blocks[1]],
         r"generator 0: block of \(1, 0\) has shape \(2, 1\), not \(2, 2\)"),
        (blocks[:1], "one generator matrix per axis required"),
        (blocks + [{}], "one generator matrix per axis required"),
    ]
    for gens, message in cases:
        with pytest.raises(PairInvariantViolation, match=message):
            build(gens)
    # a fiber point outside the window on one coordinate only
    for point in [(1, 3), (-1, 1)]:
        with pytest.raises(PairInvariantViolation,
                           match=re.escape(f"fiber point {point} outside")):
            WeylPair(pair.window, {**dict(pair.fibers), point: 1}, blocks)

    # a source point left out is a zero block, and the file still lists it
    gone = {y: b for y, b in blocks[1].items() if y != (1, 0)}
    zeroed = build([blocks[0], gone])
    assert np.array_equal(zeroed.graded_blocks(1)[(1, 0)], np.zeros((2, 2)))
    doc = pair_to_json(zeroed)
    assert [tuple(p) for p, _ in doc["blocks"][1]] == sorted(blocks[1])
    assert [[1, 0], [[[0.0, 0.0]] * 2] * 2] in doc["blocks"][1]
    # blocks are kept as read-only copies
    given_block = np.eye(2, dtype=complex)
    kept = build([{**blocks[0], (1, 0): given_block}, blocks[1]])
    assert kept.graded_blocks(0)[(1, 0)] is not given_block
    assert not kept.graded_blocks(0)[(1, 0)].flags.writeable
    assert given_block.flags.writeable


def test_graded_files_are_built_read_and_checked_without_the_dense_view(
        tmp_path, capsys, monkeypatch):
    w = LatticeWindow((0, 0), (3, 3))
    mixed = fiber_mixed(direct_sum([
        build_pspace_pair(upset_from(w, [(1, 0)]), 1),
        build_pspace_pair(upset_from(w, [(0, 1), (2, 0)]), 2)]), 4)
    doc = json.loads(json.dumps(pair_to_json(mixed)))

    def refuse(self):
        raise AssertionError("the dense generators were written")

    monkeypatch.setattr(WeylPair, "gens", property(refuse))
    read = pair_from_json(doc)
    assert read.fibers == mixed.fibers
    for command, scenario in [
            ("pair-build", {"pspace": pset_to_json(upset_from(w, [(1, 1)])),
                            "k": 2, "file": "built.json"}),
            ("pair-check", {"pair": str(tmp_path / "out" / "built.json")}),
            ("pair-check", {"pair": doc, "margin": 1})]:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(scenario, command=command)))
        code = main([command, "--scenario", str(path),
                     "--out", str(tmp_path / "out")])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"], report


def test_extended_supports_follow_the_upward_closure_rule():
    """min(p + depth, hi) lies in the set exactly when some shift of the
    depth box takes p into it, on every upward set of four windows at
    depths 0 to 3."""
    windows = [LatticeWindow((0,), (6,)), LatticeWindow((0, 0), (3, 3)),
               LatticeWindow((1, -1), (4, 2)),
               LatticeWindow((0, 0, 0), (2, 2, 1))]
    cases = 0
    for window in windows:
        for raw in enumerate_pspaces(window):
            for depth in range(4):
                wext = LatticeWindow(tuple(c - depth for c in window.lo),
                                     window.hi)
                assert _extended_support(raw, wext, depth) \
                    == extended_support_by_box(raw, wext, depth)
                cases += 1
    assert cases == 1276

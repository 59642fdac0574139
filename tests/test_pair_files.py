"""Pair files in their two forms.

A graded pair is written as its generator blocks (``blocks``), any other
pair as dense ``generators``; ``pair_from_json`` reads both.  A malformed
graded document is a ``ScenarioParseError`` naming what is wrong, a NaN
inside a block the ``PairInvariantViolation`` of a dense file.  An old
dense file and its graded rewrite give the same CLI reports, byte for byte.
"""

import json

import numpy as np
import pytest

from weylpair import (LatticeWindow, WeylPair, build_pspace_pair, direct_sum)
from weylpair.cli import main
from weylpair.errors import PairInvariantViolation, ScenarioParseError
from weylpair.pairs import GRADING_TOL
from weylpair.serialize import document_to_json, pair_from_json, pair_to_json

from conftest import dense_pair_doc, fiber_mixing_unitary, upset_from

SQUARE = LatticeWindow((0, 0), (2, 2))


def mixed_sum(seed=0):
    """A fiber-mixed sum on the 3x3 square, fibers of sizes 1 to 3."""
    pair = direct_sum([build_pspace_pair(upset_from(SQUARE, [(1, 0)]), 1),
                       build_pspace_pair(upset_from(SQUARE, [(0, 1), (1, 0)]), 2)])
    q = fiber_mixing_unitary(pair, np.random.default_rng(seed))
    return WeylPair(pair.window, dict(pair.fibers),
                    [q @ g @ q.conj().T for g in pair.gens], label="mixed")


def signed_zeros(pair):
    """The pair with every zero entry, in a block or not, written -0.0."""
    gens = []
    for g in pair.gens:
        g = g.copy()
        g[g == 0] = complex(-0.0, -0.0)
        gens.append(g)
    return WeylPair(pair.window, dict(pair.fibers), gens, label=pair.label)


def bits(m):
    return np.ascontiguousarray(m).view(np.int64)


def test_graded_pairs_are_written_as_every_block():
    pair = build_pspace_pair(upset_from(SQUARE, [(1, 0), (0, 2)]), 2)
    gens = [g.copy() for g in pair.gens]
    gens[1][pair.block_slice((1, 1)), pair.block_slice((1, 0))] = 0.0
    pair = WeylPair(pair.window, dict(pair.fibers), gens)
    doc = pair_to_json(pair)
    assert sorted(doc) == ["blocks", "fibers", "label", "window"]
    for axis, listed in enumerate(doc["blocks"]):
        blocks = pair.graded_blocks(axis)[0]
        assert [tuple(p) for p, _ in listed] == sorted(blocks)
        for p, block in listed:
            want = blocks[tuple(p)]
            assert [[complex(*z) for z in row] for row in block] \
                == want.tolist()
    # the zeroed block is listed
    assert [[1, 0], [[[0.0, 0.0]] * 2] * 2] in doc["blocks"][1]
    back = pair_from_json(json.loads(document_to_json(
        pair_to_json(pair, matrix=np.asarray))))
    assert all(np.array_equal(bits(a), bits(b))
               for a, b in zip(back.gens, pair.gens))


def _graded_doc():
    return pair_to_json(mixed_sum())


def _no_fiber_source(doc):
    # (0, 0) lies outside both summands' sets
    doc["blocks"][0].append([[0, 0], [[[1.0, 0.0]]]])


def _no_fiber_target(doc):
    # (2, 2) + e_0 lies outside the window
    doc["blocks"][0].append([[2, 2], [[[1.0, 0.0]] * 3] * 3])


def _wrong_shape(doc):
    p, block = doc["blocks"][1][0]
    doc["blocks"][1][0] = [p, [row[:-1] for row in block]]


def _repeated_source(doc):
    doc["blocks"][0].append(doc["blocks"][0][0])


def _too_few_axes(doc):
    doc["blocks"].pop()


def _too_many_axes(doc):
    doc["blocks"].append([])


def _both_forms(doc):
    doc["generators"] = dense_pair_doc(mixed_sum())["generators"]


def _neither_form(doc):
    del doc["blocks"]


CORRUPTIONS = [
    (_no_fiber_source, r"block point \(0, 0\) carries no fiber"),
    (_no_fiber_target, r"block point \(3, 2\) carries no fiber"),
    (_wrong_shape, r"block of \(0, 1\) has shape \(2, 1\), not \(2, 2\)"),
    (_repeated_source, r"repeated block source point \(0, 1\)"),
    (_too_few_axes, "blocks for 1 axes in a 2-d window"),
    (_too_many_axes, "blocks for 3 axes in a 2-d window"),
    (_both_forms, "exactly one of 'blocks' and 'generators'"),
    (_neither_form, "exactly one of 'blocks' and 'generators'"),
]


@pytest.mark.parametrize("corrupt, message", CORRUPTIONS,
                         ids=[f.__name__.strip("_") for f, _ in CORRUPTIONS])
def test_a_malformed_graded_document_is_a_parse_error(corrupt, message):
    doc = _graded_doc()
    pair_from_json(doc)
    corrupt(doc)
    with pytest.raises(ScenarioParseError, match=message):
        pair_from_json(doc)


def test_a_nan_inside_a_block_is_an_invariant_violation():
    doc = _graded_doc()
    doc["blocks"][0][0][1][0][0] = [float("nan"), 0.0]
    doc = json.loads(json.dumps(doc))
    with pytest.raises(PairInvariantViolation, match="non-finite"):
        pair_from_json(doc)


def _stdout(capsys, tmp_path, command, doc):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(dict(doc, command=command)))
    code = main([command, "--scenario", str(path), "--out",
                 str(tmp_path / "out")])
    return code, capsys.readouterr().out


def test_an_old_dense_file_reads_as_its_graded_rewrite(tmp_path, capsys):
    """Zeros outside the blocks lose their sign in the graded form; the
    reports do not show it."""
    pair, twin = signed_zeros(mixed_sum(0)), signed_zeros(mixed_sum(1))
    files = {}
    for name, p in (("pair", pair), ("twin", twin)):
        dense = dense_pair_doc(p)
        graded = pair_to_json(pair_from_json(dense))
        assert "blocks" in graded and "generators" not in graded
        for form, doc in (("dense", dense), ("graded", graded)):
            path = tmp_path / f"{name}_{form}.json"
            path.write_text(document_to_json(doc))
            files[name, form] = str(path)
    scenarios = {
        "pair-check": lambda form: {"pair": files["pair", form], "margin": 1},
        "commutant": lambda form: {"pair": files["pair", form]},
        "decompose": lambda form: {"pair": files["pair", form]},
        "equiv": lambda form: {"pair_a": files["pair", form],
                               "pair_b": files["twin", form]},
        "dilate": lambda form: {"pair": files["pair", form], "depth": 2},
    }
    witness = tmp_path / "out" / "witness.json"
    for command, scenario in scenarios.items():
        reports, witnesses = [], []
        for form in ("dense", "graded"):
            reports.append(_stdout(capsys, tmp_path, command, scenario(form)))
            witnesses.append(witness.read_bytes() if witness.exists() else None)
        assert reports[0] == reports[1]
        assert reports[0][0] == 0, reports[0][1]
        if command == "equiv":
            # the twin is a fiber-mixed copy of the pair: equivalent
            assert json.loads(reports[0][1])["data"]["equivalent"] is True
            assert witnesses[0] == witnesses[1]


def test_a_leaky_pair_is_written_dense(tmp_path, capsys):
    pair = build_pspace_pair(upset_from(SQUARE, [(0, 0)]), 1)
    gens = [g.copy() for g in pair.gens]
    # from the fiber of (0, 0) into that of (2, 2): outside every block
    gens[0][pair.block_slice((2, 2)), pair.block_slice((0, 0))] = GRADING_TOL / 2
    leaky = WeylPair(pair.window, dict(pair.fibers), gens)
    assert not leaky.graded
    doc = pair_to_json(leaky)
    assert doc == dense_pair_doc(leaky)
    path = tmp_path / "leaky.json"
    path.write_text(document_to_json(pair_to_json(leaky, matrix=np.asarray)))
    back = pair_from_json(json.loads(path.read_text()))
    assert all(np.array_equal(bits(a), bits(b))
               for a, b in zip(back.gens, leaky.gens))
    from_file = _stdout(capsys, tmp_path, "pair-check",
                        {"pair": str(path), "margin": 1})
    inline = _stdout(capsys, tmp_path, "pair-check",
                     {"pair": dense_pair_doc(leaky), "margin": 1})
    assert from_file == inline
    # the stray entry is read: the graded pair's checks read 0.0
    values = [c["value"] for c in json.loads(from_file[1])["checks"]]
    assert min(values) > 0.0
    # a NaN outside the blocks has no graded form either
    gens[0][pair.block_slice((2, 2)), pair.block_slice((0, 0))] = np.nan
    nan_pair = WeylPair(pair.window, dict(pair.fibers), gens, validate=False)
    assert "generators" in pair_to_json(nan_pair)

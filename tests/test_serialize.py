"""The report writer against ``json.dumps(doc, sort_keys=True, indent=1)``.

``document_to_json`` must give the standard library's bytes for every
document: the pspace-enum reports of the windows the suite and the benchmark
enumerate, pair and bundle files, a decompose report, and generated nested
documents that hold point sets and matrices among floats, escaped strings
and empty containers.  The oracle expands point sets and arrays into their
``pset_to_json`` and ``matrix_to_json`` documents and hands the result to
``json``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpair import (LatticeWindow, build_pspace_pair, direct_sum,
                      enumerate_pspaces, minimal_dilation, reflect_pset)
from weylpair import serialize
from weylpair.cli import run_scenario
from weylpair.serialize import (bundle_to_json, document_to_json,
                                matrix_to_json, pair_to_json, pset_to_json)
from weylpair.lattice import PSet

from conftest import tail, upset_from


def oracle(doc) -> str:
    def expand(v):
        if isinstance(v, PSet):
            return pset_to_json(v)
        if isinstance(v, np.ndarray):
            return matrix_to_json(v)
        if isinstance(v, dict):
            return {k: expand(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [expand(x) for x in v]
        return v
    return json.dumps(expand(doc), sort_keys=True, indent=1)


def write_scenario(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


# every window a test or a benchmark workload enumerates, an offset window
# and a weighted one
WINDOWS = [
    ((0,), (0,)), ((0,), (2,)), ((0,), (5,)), ((0,), (7,)), ((0,), (15,)),
    ((0, 0), (1, 1)), ((0, 0), (2, 2)), ((0, 0), (3, 3)), ((0, 0), (7, 7)),
    ((0, 0, 0), (1, 1, 1)), ((0, 0, 0), (2, 2, 2)), ((1, -2), (4, 3)),
]


@pytest.mark.parametrize("window", [{"lo": list(lo), "hi": list(hi)}
                                    for lo, hi in WINDOWS]
                         + [{"lo": [1, -2], "hi": [3, 1], "weight": 0.25}])
def test_pspace_enum_report_is_the_json_text(tmp_path, window):
    sc = write_scenario(tmp_path, {"command": "pspace-enum", "window": window})
    report, code = run_scenario("pspace-enum", sc, out=str(tmp_path))
    assert code == 0
    assert document_to_json(report) == oracle(report)


def test_pair_and_bundle_files_are_the_json_text(tmp_path):
    w = LatticeWindow((0, 0), (3, 3), weight=0.5)
    ps = upset_from(w, [(1, 2), (2, 0)])
    pair = build_pspace_pair(ps, 2)
    assert document_to_json(pair_to_json(pair, matrix=np.asarray)) \
        == json.dumps(pair_to_json(pair), sort_keys=True, indent=1)
    bundle = minimal_dilation(pair, 2)
    assert document_to_json(bundle_to_json(bundle)) \
        == oracle(bundle_to_json(bundle))
    # the files the CLI writes are json's canonical text of what they hold
    sc = write_scenario(tmp_path, {"command": "pair-build", "k": 2,
                                   "pspace": pset_to_json(ps)})
    report, code = run_scenario("pair-build", sc, out=str(tmp_path))
    text = open(report["data"]["file"]).read()
    assert code == 0 and text == json.dumps(pair_to_json(pair), sort_keys=True,
                                            indent=1)
    sc = write_scenario(tmp_path, {"command": "dilate", "depth": 2,
                                   "pair": report["data"]["file"]})
    report, code = run_scenario("dilate", sc, out=str(tmp_path))
    text = open(report["data"]["file"]).read()
    assert code == 0
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1)


def test_decompose_report_is_the_json_text(tmp_path):
    w = LatticeWindow((0,), (7,))
    pair = direct_sum([build_pspace_pair(tail(w, 2), 2),
                       build_pspace_pair(tail(w, 5), 1)])
    sc = write_scenario(tmp_path, {"command": "decompose",
                                   "pair": pair_to_json(pair)})
    report, code = run_scenario("decompose", sc, out=str(tmp_path))
    assert code == 0 and len(report["data"]["components"]) == 2
    assert document_to_json(report) == oracle(report)


def test_matrix_floats_read_as_json_writes_them():
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, 0.1,
               float("nan"), float("inf"), float("-inf")]
    m = np.array(special, dtype=complex).reshape(3, 3)
    m.imag = np.array(special[::-1]).reshape(3, 3)
    for doc in (m, [m, {"a": m}], np.zeros((0, 0)), np.zeros((2, 0)),
                {"e": np.ones((1, 1)), "f": [], "g": {}}):
        assert document_to_json(doc) == oracle(doc)


def test_sets_of_one_box_keep_their_kind_and_weight():
    sets = enumerate_pspaces(LatticeWindow((0, 0), (1, 2)))
    weighted = enumerate_pspaces(LatticeWindow((0, 0), (1, 2), weight=0.5))
    doc = {"a": sets, "b": [reflect_pset(ps) for ps in sets], "c": weighted}
    assert document_to_json(doc) == oracle(doc)
    # equal weights of another type are written as json writes them
    doc = [enumerate_pspaces(LatticeWindow((0,), (1,), weight=w))
           for w in (2, 2.0, 1, 1.0, True)]
    text = document_to_json(doc)
    assert text == oracle(doc)
    assert '"weight": 2\n' in text and '"weight": 2.0\n' in text


def test_a_string_equal_to_the_placeholder_is_refused():
    ps = enumerate_pspaces(LatticeWindow((0,), (1,)))[0]
    hole = serialize._HOLE
    assert document_to_json({"s": hole}) == oracle({"s": hole})
    for doc in ({"s": hole, "p": ps}, {hole: ps}):
        with pytest.raises(ValueError, match="placeholder"):
            document_to_json(doc)
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        document_to_json({"p": ps, "n": np.int64(1)})


POOL = [ps for lo, hi in [((0,), (3,)), ((1, -2), (2, 0))]
        for ps in enumerate_pspaces(LatticeWindow(lo, hi))]
POOL += [reflect_pset(ps) for ps in POOL[:3]]
POOL += enumerate_pspaces(LatticeWindow((0,), (2,), weight=0.75))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    parts = st.lists(st.floats(), min_size=rows * cols, max_size=rows * cols)
    m = np.empty((rows, cols), dtype=complex)
    m.real = np.reshape(draw(parts), (rows, cols))
    m.imag = np.reshape(draw(parts), (rows, cols))
    return m


LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
          | matrices() | st.sampled_from(POOL))
DOCUMENTS = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(DOCUMENTS)
def test_generated_documents_are_the_json_text(doc):
    assert document_to_json(doc) == oracle(doc)

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
    doc = bundle_to_json(bundle)
    assert document_to_json(doc) == oracle(doc)
    # graded pairs, the dilated one and its base, are written as blocks
    for part in (doc, doc["base"]):
        assert "blocks" in part and "generators" not in part
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
    assert json.loads(text)["base"] == pair_to_json(pair)


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


# lists of point sets: a list of one window (the same object) and one kind
# is written as one held value, every other list set by set

CHAIN = enumerate_pspaces(LatticeWindow((0,), (3,)))
SQUARE = enumerate_pspaces(LatticeWindow((0, 0), (2, 2)))
OFFSET = enumerate_pspaces(LatticeWindow((1, -2), (3, 0)))
WEIGHTED = enumerate_pspaces(LatticeWindow((1, -2), (2, 0), weight=0.25))


def test_empty_and_one_set_lists():
    for doc in ([], [CHAIN[0]], [SQUARE[-1]], {"a": [], "b": [CHAIN[2]]},
                [[], [OFFSET[0]], []]):
        assert document_to_json(doc) == oracle(doc)


def test_a_list_across_two_windows():
    for doc in (CHAIN + SQUARE, SQUARE[:3] + CHAIN[:1] + SQUARE[3:5],
                [CHAIN[1], OFFSET[4], CHAIN[0]]):
        assert document_to_json(doc) == oracle(doc)
    # equal windows, distinct objects: written as json writes each weight
    same = [enumerate_pspaces(LatticeWindow((0,), (1,), weight=w))[0]
            for w in (2, 2.0)]
    assert same[0].window == same[1].window
    assert document_to_json(same) == oracle(same)


def test_pspace_and_yset_sets_in_one_list():
    ysets = [reflect_pset(ps) for ps in SQUARE]
    for doc in (SQUARE + ysets, ysets, [ysets[0], SQUARE[0], ysets[1]]):
        assert document_to_json(doc) == oracle(doc)


def test_weighted_and_offset_windows():
    for doc in (WEIGHTED, OFFSET, {"w": WEIGHTED, "o": OFFSET},
                [reflect_pset(ps) for ps in WEIGHTED]):
        assert document_to_json(doc) == oracle(doc)


def test_set_lists_nested_and_beside_other_values():
    doc = [[CHAIN], [[SQUARE, 1.5]], {"x": [OFFSET, "s", -3, None]}]
    assert document_to_json(doc) == oracle(doc)
    doc = {"count": len(SQUARE), "label": "a\n\"b\"", "psets": SQUARE,
           "also": [0.1, SQUARE[:2], True, "z", CHAIN[3:]]}
    assert document_to_json(doc) == oracle(doc)
    # tuples are json lists, and the caller's document is left as it was
    doc = {"t": tuple(CHAIN), "l": [tuple(SQUARE)]}
    before = repr(doc)
    assert document_to_json(doc) == oracle(doc)
    assert repr(doc) == before and type(doc["t"]) is tuple


def test_a_document_holding_itself_is_refused():
    doc = {"psets": SQUARE}
    doc["self"] = [doc]
    with pytest.raises(ValueError, match="Circular reference"):
        document_to_json(doc)


SETS = CHAIN + SQUARE + OFFSET + WEIGHTED
SETS += [reflect_pset(ps) for ps in SETS[::5]]


@st.composite
def nested_set_lists(draw):
    """A random sublist of enumerated sets, nested at random depth."""
    picks = draw(st.lists(st.integers(0, len(SETS) - 1), max_size=12))
    one_window = draw(st.booleans())
    doc = [SETS[i] for i in picks]
    if one_window and doc:
        doc = [ps for ps in doc if ps.window is doc[0].window
               and ps.kind is doc[0].kind]
    for _ in range(draw(st.integers(0, 4))):
        doc = draw(st.sampled_from([[doc], {"k": doc}, [1, doc, "x"],
                                    {"a": 0.5, "b": doc, "c": [doc]}]))
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(nested_set_lists())
def test_generated_set_lists_are_the_json_text(doc):
    assert document_to_json(doc) == oracle(doc)

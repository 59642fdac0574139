"""The comparison of ``tools/same_outputs.py`` on synthetic digests: no
workload runs here."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "same_outputs", os.path.join(ROOT, "tools", "same_outputs.py"))
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)
compare = same_outputs.compare


def digest(op="dilate d.json", code=0, stdout="a", **files):
    return {"op": op, "code": code, "stdout": stdout, "files": files}


def test_identical_rounds_compare_equal():
    round_ = [digest(), digest("equiv e.json", 1, "b", **{"w.json": "1"})]
    assert compare(round_, [dict(d) for d in round_]) == []


def test_each_difference_is_named_by_operation():
    a = [digest(**{"x.json": "1", "y.json": "2"}), digest("equiv e.json"),
         digest("decompose c.json"), digest("pair-check p.json")]
    b = [digest(**{"x.json": "1", "y.json": "3", "z.json": "4"}),
         digest("equiv e.json", stdout="changed"),
         digest("decompose c.json", code="raised ValueError: no"),
         digest("pair-build p.json")]
    assert compare(a, b) == [
        "#0 dilate d.json: file y.json, file z.json",
        "#1 equiv e.json: stdout",
        "#2 decompose c.json: exit code 0 against raised ValueError: no",
        "#3 pair-check p.json: operation pair-build p.json",
    ]
    # a file that went missing counts as well
    assert compare(b[:1], a[:1]) == [
        "#0 dilate d.json: file y.json, file z.json"]


def test_rounds_of_different_lengths_differ():
    a = [digest(), digest("equiv e.json")]
    assert compare(a, a[:1]) == ["2 operations against 1"]

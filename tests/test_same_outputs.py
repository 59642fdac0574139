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


def digest(op="dilate d.json", code=0, stdout="a", checks=(), **files):
    return {"op": op, "code": code, "stdout": stdout, "checks": list(checks),
            "files": files}


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


def test_changed_check_values_are_listed_with_stdout():
    old = [["embed-isometry", 1.09e-15], ["family-monotone", 0.0]]
    new = [["embed-isometry", 3.5e-16], ["family-monotone", 0.0]]
    a = [digest(stdout="a", checks=old), digest("decompose c.json", checks=[])]
    b = [digest(stdout="b", checks=new),
         digest("decompose c.json", stdout="b", checks=[])]
    assert compare(a, b) == [
        "#0 dilate d.json: stdout (embed-isometry 1.09e-15 → 3.5e-16)",
        "#1 decompose c.json: stdout",
    ]
    # equal stdout lists no checks; a check on one side only is not listed
    assert compare(a, [dict(a[0], checks=new), a[1]]) == []
    assert compare([digest()], [digest(stdout="b", checks=new)]) == [
        "#0 dilate d.json: stdout"]


def test_checks_are_read_from_a_printed_report():
    report = ('{"checks": [{"name": "x", "pass": true, "tol": 1e-08, '
              '"value": 2.5e-16}, {"name": "y", "value": null}], "ok": true}')
    assert same_outputs._checks(report) == [["x", 2.5e-16], ["y", None]]
    assert same_outputs._checks('{"error": "no", "kind": "parse"}') == []
    assert same_outputs._checks("not json") == []
    assert same_outputs._checks("") == []

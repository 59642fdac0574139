"""The summary of paired benchmark runs (``tools/bench_pairs.py``), on
synthetic run results: no benchmark runs here."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarize, traced_summary = bench_pairs.summarize, bench_pairs.traced_summary


def result(wall, rss, correct=True, failed=0, attempted=100):
    return {"correct": correct, "failed": failed, "attempted": attempted,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "rate": {"value": rss, "unit": "1/s"}}}


def test_summary_of_paired_runs():
    walls = [(1.0, 0.8), (1.2, 0.9), (0.9, 0.95), (1.1, 1.05)]
    pairs = [{"parent": {"w": result(p, 10.0), "v": result(1.0, 1.0)},
              "change": {"w": result(c, 9.0 + i, attempted=120),
                         "v": result(1.0, 1.0, correct=i != 2, failed=i)}}
             for i, (p, c) in enumerate(walls)]
    out = summarize(pairs, {"wall_s": "lower", "rate": "higher"})
    assert list(out) == ["w", "v"]
    wall = out["w"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"] == {"median": 1.05, "q1": 0.975, "q3": 1.125,
                              "runs": [1.0, 1.2, 0.9, 1.1]}
    assert wall["change"]["median"] == 0.925
    assert wall["change"]["runs"] == [0.8, 0.9, 0.95, 1.05]
    # the change is lower in three of four pairs, 11.9 % lower in the median
    assert wall["change_better_pairs"] == 3
    assert wall["median_change_pct"] == pytest.approx(-11.9)
    # a metric where higher is better: 9, 10, 11, 12 against 10 each
    rate = out["w"]["rate"]
    assert rate["change_better_pairs"] == 2 and rate["median_change_pct"] == 5.0
    # ties win nothing
    assert out["v"]["wall_s"]["change_better_pairs"] == 0
    assert out["v"]["wall_s"]["median_change_pct"] == 0.0
    assert out["w"]["correct"] and not out["v"]["correct"]
    assert out["w"]["attempted"] == {"parent": 400, "change": 480}
    assert out["v"]["failed"] == {"parent": 0, "change": 6}


def test_a_metric_missing_from_better_is_lower_better():
    pairs = [{"parent": {"w": result(2.0, 1.0)},
              "change": {"w": result(1.0, 2.0)}}]
    out = summarize(pairs)
    assert out["w"]["wall_s"]["change_better_pairs"] == 1
    assert out["w"]["rate"]["change_better_pairs"] == 0
    assert out["w"]["wall_s"]["parent"]["q1"] == 2.0


def test_traced_summary_pairs_each_metric():
    parent = {"w": {"metrics": {"b_s": {"value": 0.123456}, "a": {"value": 3.0}}}}
    change = {"w": {"metrics": {"b_s": {"value": 0.1}, "a": {"value": 3.0}}}}
    assert traced_summary(parent, change) == {
        "w": {"a": {"parent": 3.0, "change": 3.0},
              "b_s": {"parent": 0.1235, "change": 0.1}}}

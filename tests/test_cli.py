import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import weylpair
import weylpair.commutant as commutant
import weylpair.dilation as dilation
import weylpair.lattice as lattice
import weylpair.serialize as serialize
from weylpair import (EvaluationPoint, GridSpec, LatticeWindow, SetKind,
                      WeylPair, build_pspace_pair, build_r2_pair, demo_family,
                      direct_sum, validate_pset)
from weylpair.cli import export_heatmap, main, run_scenario
from weylpair.serialize import matrix_to_json, pair_to_json, pset_to_json

from conftest import (dense_pair_doc, dense_rep, fiber_mixing_unitary, tail,
                      upset_from)


def write_scenario(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_pspace_enum(tmp_path, capsys):
    sc = write_scenario(tmp_path, "s.json", {
        "command": "pspace-enum", "window": {"lo": [0], "hi": [7]}})
    code, out = run(capsys, ["pspace-enum", "--scenario", sc,
                             "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["data"]["count"] == 8


def test_pspace_enum_frees_its_sets_with_the_collector_paused(
        tmp_path, capsys, monkeypatch):
    """The collector stays paused until the report is written and freed:
    no collector pass runs while the sets live, and they are freed by
    reference counting."""
    sc = write_scenario(tmp_path, "s.json", {
        "command": "pspace-enum", "window": {"lo": [0, 0], "hi": [5, 5]}})
    first, enabled = [], []
    enumerate_pspaces = lattice.enumerate_pspaces
    write = serialize.document_to_json

    def spy_enumerate(window):
        sets = enumerate_pspaces(window)
        first.append(weakref.ref(sets[0]))
        return sets

    def spy_write(doc):
        enabled.append(gc.isenabled())
        return write(doc)

    monkeypatch.setattr(lattice, "enumerate_pspaces", spy_enumerate)
    monkeypatch.setattr(serialize, "document_to_json", spy_write)
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(bool(first) and first[0]() is not None)

    gc.collect()
    gc.callbacks.append(record)
    try:
        code, out = run(capsys, ["pspace-enum", "--scenario", sc,
                                 "--out", str(tmp_path)])
        assert gc.isenabled()
        assert first[0]() is None
    finally:
        gc.callbacks.remove(record)
    assert code == 0 and json.loads(out)["data"]["count"] == 923
    assert enabled == [False] and True not in passes
    # a caller that paused the collector keeps it paused
    gc.disable()
    try:
        run(capsys, ["pspace-enum", "--scenario", sc, "--out", str(tmp_path)])
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_pair_build_and_check(tmp_path, capsys):
    w = LatticeWindow((0,), (7,))
    sc = write_scenario(tmp_path, "b.json", {
        "command": "pair-build",
        "pspace": pset_to_json(tail(w, 2)), "k": 2})
    code, out = run(capsys, ["pair-build", "--scenario", sc,
                             "--out", str(tmp_path)])
    assert code == 0
    pair_file = json.loads(out)["data"]["file"]
    assert os.path.exists(pair_file)

    sc2 = write_scenario(tmp_path, "c.json", {
        "command": "pair-check", "pair": pair_file, "margin": 2})
    code2, out2 = run(capsys, ["pair-check", "--scenario", sc2,
                               "--out", str(tmp_path)])
    assert code2 == 0
    report = json.loads(out2)
    assert report["ok"]
    assert {c["name"] for c in report["checks"]} == {
        "weak-weyl-defect", "isometry-on-safe-region",
        "commuting-range-projections"}


def test_pair_check_failure_names_invariant(tmp_path, capsys):
    w = LatticeWindow((0,), (7,))
    pair = build_pspace_pair(tail(w, 0), 1)
    sc = write_scenario(tmp_path, "f.json", {
        "command": "pair-check", "pair": pair_to_json(pair),
        "margin": 2, "tol": 1e-30})
    code, out = run(capsys, ["pair-check", "--scenario", sc,
                             "--out", str(tmp_path)])
    assert code == 1
    report = json.loads(out)
    assert not report["ok"]
    assert report["first_failure"] == "weak-weyl-defect"


def test_dilate_reads_the_family_it_builds(tmp_path, capsys, monkeypatch):
    w = LatticeWindow((0,), (7,))
    sc = write_scenario(tmp_path, "d.json", {
        "command": "dilate", "depth": 3,
        "pair": pair_to_json(build_pspace_pair(tail(w, 1), 1))})
    built = dilation.e_diagonal
    # E_{-x} in place of E_x: the family increases along the window
    monkeypatch.setattr(dilation, "e_diagonal",
                        lambda bundle, x: built(bundle, tuple(-c for c in x)))
    code, out = run(capsys, ["dilate", "--scenario", sc, "--out", str(tmp_path)])
    report = json.loads(out)
    checks = {c["name"]: c["value"] for c in report["checks"]}
    assert code == 1 and report["first_failure"] == "family-monotone"
    assert checks["family-monotone"] == 1.0
    assert checks["family-covariant"] == 1.0


def _dense_covariance_defect(bundle):
    """max |W_e E_x W_e* - P E_{x+e} P| over steps e = +-e_i and x, x + e in
    the budget box, with P = W_e W_e* the range of the clipped shift."""
    box = set(dilation.budget_box(bundle).points())
    worst = 0.0
    for e in bundle.base.window.generators():
        for step in (e, tuple(-c for c in e)):
            w = bundle.w(step)
            rng = w @ w.conj().T
            for x in box:
                y = tuple(a + b for a, b in zip(x, step))
                if y in box:
                    diff = (w @ dilation.project_e(bundle, x) @ w.conj().T
                            - rng @ dilation.project_e(bundle, y) @ rng)
                    worst = max(worst, float(np.abs(diff).max()))
    return worst


@pytest.mark.parametrize("reverse", [False, True])
def test_family_covariant_matches_dense_covariance(tmp_path, capsys,
                                                   monkeypatch, reverse):
    w1 = LatticeWindow((0,), (7,))
    w2 = LatticeWindow((0, 0), (3, 3))
    pairs = [build_pspace_pair(tail(w1, 1), 1),
             direct_sum([build_pspace_pair(tail(w1, 0), 1),
                         build_pspace_pair(tail(w1, 3), 2)]),
             build_pspace_pair(upset_from(w2, [(1, 0), (0, 2)]), 2)]
    if reverse:
        built = dilation.e_diagonal
        monkeypatch.setattr(dilation, "e_diagonal", lambda bundle, x:
                            built(bundle, tuple(-c for c in x)))
    for k, pair in enumerate(pairs):
        sc = write_scenario(tmp_path, f"d{k}.json", {
            "command": "dilate", "depth": 2, "pair": pair_to_json(pair)})
        code, out = run(capsys, ["dilate", "--scenario", sc,
                                 "--out", str(tmp_path)])
        checks = {c["name"]: c["value"] for c in json.loads(out)["checks"]}
        dense = _dense_covariance_defect(dilation.minimal_dilation(pair, 2))
        assert checks["family-covariant"] == dense == (1.0 if reverse else 0.0)


def test_dilate_decompose_commutant_equiv(tmp_path, capsys):
    w = LatticeWindow((0,), (7,))
    pair_doc = pair_to_json(build_pspace_pair(tail(w, 1), 1))
    sc = write_scenario(tmp_path, "d.json", {
        "command": "dilate", "pair": pair_doc, "depth": 3})
    code, out = run(capsys, ["dilate", "--scenario", sc, "--out", str(tmp_path)])
    assert code == 0 and json.loads(out)["ok"]

    sc = write_scenario(tmp_path, "dec.json", {
        "command": "decompose", "pair": pair_doc})
    code, out = run(capsys, ["decompose", "--scenario", sc,
                             "--out", str(tmp_path)])
    comps = json.loads(out)["data"]["components"]
    assert code == 0 and len(comps) == 1
    assert comps[0]["multiplicity"] == 1 and comps[0]["translation"] == [1]

    sc = write_scenario(tmp_path, "com.json", {
        "command": "commutant", "pair": pair_doc})
    code, out = run(capsys, ["commutant", "--scenario", sc,
                             "--out", str(tmp_path)])
    data = json.loads(out)["data"]
    assert code == 0
    assert data == {"commutant_dim": 1, "center_dim": 1,
                    "is_factor": True, "is_irreducible": True}

    sc = write_scenario(tmp_path, "eq.json", {
        "command": "equiv", "pair_a": pair_doc, "pair_b": pair_doc})
    code, out = run(capsys, ["equiv", "--scenario", sc, "--out", str(tmp_path)])
    report = json.loads(out)
    assert code == 0 and report["data"]["equivalent"]
    assert any(a.endswith("witness.json") for a in report["artifacts"])


def test_counterexample_subcommands(tmp_path, capsys):
    base = {"family": {"kind": "demo", "kappa": 4},
            "grid": {"denominator": 5, "extent": 3.0}}
    sc = write_scenario(tmp_path, "inc.json",
                        dict(base, command="counterexample", sub="increasing"))
    code, out = run(capsys, ["counterexample", "--scenario", sc,
                             "--out", str(tmp_path)])
    assert code == 0 and json.loads(out)["ok"]
    assert os.path.exists(tmp_path / "field_rank.csv")

    sc = write_scenario(tmp_path, "pl.json",
                        dict(base, command="counterexample", sub="plateau",
                             mmax=1, nmax=1))
    code, out = run(capsys, ["counterexample", "--scenario", sc,
                             "--out", str(tmp_path)])
    assert code == 0 and json.loads(out)["ok"]

    sc = write_scenario(tmp_path, "pair.json",
                        dict(base, command="counterexample", sub="pair",
                             grid={"denominator": 1, "extent": 4.0}))
    code, out = run(capsys, ["counterexample", "--scenario", sc,
                             "--out", str(tmp_path)])
    report = json.loads(out)
    assert code == 0 and report["data"]["max_range_commutator"] > 0.1

    sc = write_scenario(tmp_path, "tr.json",
                        dict(base, command="counterexample", sub="transfer",
                             grid={"denominator": 2, "extent": 5.0}))
    code, out = run(capsys, ["counterexample", "--scenario", sc,
                             "--out", str(tmp_path)])
    report = json.loads(out)
    assert code == 0 and report["data"]["equal"]

    # with no grid, transfer samples every step projection of the family
    sc = write_scenario(tmp_path, "tr_default.json", {
        "command": "counterexample", "sub": "transfer",
        "family": {"kind": "demo", "kappa": 6}})
    code, out = run(capsys, ["counterexample", "--scenario", sc,
                             "--out", str(tmp_path)])
    report = json.loads(out)
    assert code == 0
    assert (report["data"]["sampled_commutant_dim"],
            report["data"]["family_commutant_dim"],
            report["data"]["equal"]) == (1, 1, True)

    # a grid past the family is rejected with the largest extent it admits
    sc = write_scenario(tmp_path, "tr_over.json", {
        "command": "counterexample", "sub": "transfer",
        "family": {"kind": "demo", "kappa": 6},
        "grid": {"denominator": 2, "extent": 8.0}})
    code, out = run(capsys, ["counterexample", "--scenario", sc,
                             "--out", str(tmp_path)])
    report = json.loads(out)
    assert code == 1 and report["kind"] == "IndexBeyondFamily"
    assert "index 7 beyond the 6" in report["error"]
    assert "extent of at most 7.0 at denominator 2" in report["error"]

    sc = write_scenario(tmp_path, "sp.json",
                        dict(base, command="counterexample", sub="spec"))
    code, out = run(capsys, ["counterexample", "--scenario", sc,
                             "--out", str(tmp_path)])
    assert code == 0
    assert os.path.exists(tmp_path / "spec_support.csv")


def _nan_scenario(case):
    """A scenario whose input holds a NaN: inside a graded block of a pair,
    at a stray position of a pair, or in a family member."""
    if case == "family":
        zero = [[0.0, 0.0], [0.0, 0.0]]
        return "counterexample", {
            "sub": "increasing",
            "family": {"P": [[[[1.0, 0.0], [0.0, 0.0]], zero]],
                       "Q": [[[[float("nan"), 0.0], [0.0, 0.0]], zero]]},
            "grid": {"denominator": 1, "extent": 2.0}}
    w = LatticeWindow((0,), (3,))
    # the dense form: a stray entry has no place in the graded one
    doc = dense_pair_doc(build_pspace_pair(tail(w, 1), 2))
    # rows 0-1 hold the fiber of 1, rows 2-3 that of 2: entry (2, 0) lies in
    # the block from 1 to 2, entry (0, 4) maps the fiber of 3 down to 1
    row, col = (2, 0) if case == "block" else (0, 4)
    doc["generators"][0][row][col] = [float("nan"), 0.0]
    return ("pair-check" if case == "block" else "dilate"), {"pair": doc}


@pytest.mark.parametrize("case", ["block", "stray", "family"])
def test_non_finite_input_gives_a_json_error_report(tmp_path, capsys, case):
    command, doc = _nan_scenario(case)
    sc = write_scenario(tmp_path, f"{case}.json", dict(doc, command=command))
    code, out = run(capsys, [command, "--scenario", sc, "--out", str(tmp_path)])
    report = json.loads(out)
    assert code == 1
    assert report["kind"] == "PairInvariantViolation"
    assert "finite" in report["error"]


def test_overflowing_pair_check_writes_null_values(tmp_path):
    # every block of the chain tail {1..6} with k = 2 scaled to 1e200: the
    # checks overflow to non-finite values, which fail, print as JSON null
    # and warn nowhere
    w = LatticeWindow((0,), (6,))
    pair = build_pspace_pair(tail(w, 1), 2)
    huge = WeylPair(w, dict(pair.fibers), [g * 1e200 for g in pair.gens])
    sc = write_scenario(tmp_path, "huge.json",
                        {"command": "pair-check", "pair": pair_to_json(huge)})
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylpair.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "weylpair.cli", "pair-check", "--scenario", sc,
         "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)

    def refuse(constant):
        raise ValueError(f"bare {constant} in the report")

    report = json.loads(proc.stdout, parse_constant=refuse)
    assert proc.returncode == 1 and proc.stderr == ""
    assert report["first_failure"] == "weak-weyl-defect"
    assert [(c["value"], c["pass"]) for c in report["checks"]] == \
        [(None, False)] * 3


def test_report_determinism(tmp_path, capsys):
    sc = write_scenario(tmp_path, "s.json", {
        "command": "counterexample", "sub": "spec", "seed": 7,
        "family": {"kind": "random", "kappa": 4, "parts_p": 3, "parts_q": 3},
        "grid": {"denominator": 2, "extent": 2.0}})
    _, out1 = run(capsys, ["counterexample", "--scenario", sc,
                           "--out", str(tmp_path)])
    csv1 = (tmp_path / "spec_support.csv").read_bytes()
    _, out2 = run(capsys, ["counterexample", "--scenario", sc,
                           "--out", str(tmp_path)])
    csv2 = (tmp_path / "spec_support.csv").read_bytes()
    assert out1 == out2
    assert csv1 == csv2


def test_parse_errors(tmp_path, capsys):
    code, out = run(capsys, ["pspace-enum", "--scenario",
                             str(tmp_path / "missing.json")])
    assert code == 2 and json.loads(out)["kind"] == "parse"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, ["pspace-enum", "--scenario", str(bad)])
    assert code == 2

    sc = write_scenario(tmp_path, "wrong.json", {
        "command": "decompose", "window": {"lo": [0], "hi": [3]}})
    code, out = run(capsys, ["pspace-enum", "--scenario", sc])
    assert code == 2

    # referenced pair and family files go through the scenario's loader
    missing = str(tmp_path / "absent.json")
    undecodable = tmp_path / "utf16.json"
    undecodable.write_bytes(b"\xff\xfe\x00")
    folder = tmp_path / "folder"
    folder.mkdir()
    pair = pair_to_json(build_pspace_pair(tail(LatticeWindow((0,), (3,)), 0), 1))
    for command, key in [("pair-check", "pair"), ("equiv", "pair_a"),
                         ("equiv", "pair_b"), ("counterexample", "family")]:
        for path, says in [(str(bad), "not valid JSON"),
                           (missing, "does not exist"),
                           (str(undecodable), "cannot be read"),
                           (str(folder), "cannot be read")]:
            fields = {"pair_a": pair, "pair_b": pair, key: path}
            sc = write_scenario(tmp_path, "ref.json",
                                dict(fields, command=command))
            code, out = run(capsys, [command, "--scenario", sc,
                                     "--out", str(tmp_path)])
            report = json.loads(out)
            assert code == 2 and report["kind"] == "parse", (key, out)
            assert path in report["error"] and says in report["error"]

    # malformed fields: each is named in a parse report, never a traceback
    window = {"lo": [0], "hi": [3]}
    cases = [
        ("counterexample", {"sub": "plateau", "family": 5}, "family"),
        ("pspace-enum", {"window": window, "seed": "x"}, "seed"),
        ("pspace-enum", {"window": window, "tol": "x"}, "tol"),
        ("commutant", {"gens": []}, "gens"),
        ("counterexample", {"sub": "pair", "probe": [[1]]}, "probe"),
        ("counterexample", {"sub": "pair", "probe": [[1, -1]]}, "probe"),
        ("counterexample", {"sub": "plateau", "mmax": [2]}, "mmax"),
        # a negative bound checks no cell, so it is refused, not passed
        ("counterexample", {"sub": "plateau", "mmax": -1}, "mmax"),
        ("counterexample", {"sub": "plateau", "nmax": -3}, "nmax"),
        ("counterexample", {"family": {"kind": "demo", "kappa": "six"}},
         "kappa"),
        ("counterexample", {"family": {"kind": "demo", "kappa": -2}}, "kappa"),
        # a basis of 3 vectors cannot be sliced into 5 parts
        ("counterexample", {"family": {"kind": "random", "kappa": 3,
                                       "parts_p": 5}}, "parts_p"),
        ("dilate", {"pair": pair, "depth": -1}, "depth"),
    ]
    for i, (command, fields, name) in enumerate(cases):
        sc = write_scenario(tmp_path, f"field_{i}.json",
                            dict(fields, command=command))
        code, out = run(capsys, [command, "--scenario", sc,
                                 "--out", str(tmp_path)])
        report = json.loads(out)
        assert code == 2 and report["kind"] == "parse", (fields, out)
        assert f"'{name}'" in report["error"], (fields, out)


def test_export_heatmap(tmp_path):
    rows = [(s, t, float(s + t)) for s in range(4) for t in range(4)]
    path = export_heatmap(rows, str(tmp_path / "h.csv"))
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "s,t,value"
    assert len(lines) == 17
    empty = export_heatmap([], str(tmp_path / "e.csv"))
    assert Path(empty).read_text() == "s,t,value\n"


def test_export_heatmap_bytes_match_the_per_row_writer(tmp_path):
    def per_row(rows, path):
        """Oracle: one formatted write per row."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("s,t,value\n")
            for s, t, value in rows:
                fh.write(f"{s:.17g},{t:.17g},{value:.17g}\n")
        return path

    special = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e-300,
               5e-324, 0.1, 1 / 3, 2.5, 1e300, 3.0, -7.0, 2.0 ** 53, 1e16]
    rows = [(s, t, v) for s in special[:4] for t in (0.0, -0.0, 0.35)
            for v in special]
    rows += [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (1, 2, 3)]
    got = export_heatmap(rows, str(tmp_path / "got.csv"))
    want = per_row(rows, str(tmp_path / "want.csv"))
    assert Path(got).read_bytes() == Path(want).read_bytes()
    assert b"-0," in Path(got).read_bytes()


def test_run_scenario_seed_override(tmp_path):
    sc = write_scenario(tmp_path, "s.json", {
        "command": "pspace-enum", "window": {"lo": [0], "hi": [2]},
        "seed": 3})
    report, code = run_scenario("pspace-enum", sc, out=str(tmp_path), seed=9)
    assert code == 0 and report["seed"] == 9


def test_equiv_reads_positions_on_any_window(tmp_path, capsys):
    # the full chains of 0..3 and 1..4 differ in U_theta; the points 1..4
    # on the windows 1..4 and 0..4 are one operator pair
    def chain(lo, hi, first):
        window = LatticeWindow((lo,), (hi,))
        pair = build_pspace_pair(tail(window, first), 1)
        path = tmp_path / f"chain_{lo}_{hi}_{first}.json"
        path.write_text(json.dumps(pair_to_json(pair)))
        return str(path)

    for (a, b), want in [((chain(0, 3, 0), chain(1, 4, 1)), False),
                         ((chain(1, 4, 1), chain(0, 4, 1)), True)]:
        sc = write_scenario(tmp_path, "equiv.json",
                            {"command": "equiv", "pair_a": a, "pair_b": b})
        code, out = run(capsys, ["equiv", "--scenario", sc,
                                 "--out", str(tmp_path)])
        assert code == 0 and json.loads(out)["data"]["equivalent"] is want


def test_commutant_of_a_generator_list_takes_the_dense_solver(
        tmp_path, capsys, monkeypatch):
    calls = []
    dense = commutant.sylvester_nullspace

    def spy(*args, **kwargs):
        calls.append(args)
        return dense(*args, **kwargs)

    monkeypatch.setattr(commutant, "sylvester_nullspace", spy)
    w = LatticeWindow((0,), (7,))
    pair = direct_sum([build_pspace_pair(tail(w, 0), 2),
                       build_pspace_pair(tail(w, 3), 1)])
    gens = dense_rep(pair).gens
    reports = []
    for name, doc in [("pair", {"pair": pair_to_json(pair)}),
                      ("gens", {"gens": [matrix_to_json(g) for g in gens]})]:
        sc = write_scenario(tmp_path, f"{name}.json",
                            dict(doc, command="commutant"))
        code, out = run(capsys, ["commutant", "--scenario", sc,
                                 "--out", str(tmp_path)])
        assert code == 0
        reports.append(json.loads(out)["data"])
        assert len(calls) == (name == "gens")
    assert reports[0] == reports[1] == {"commutant_dim": 5, "center_dim": 2,
                                        "is_factor": False,
                                        "is_irreducible": False}


def test_reports_do_not_depend_on_thread_count(tmp_path):
    # BLAS thread pools may reorder floating-point sums; the reports and the
    # files they write must not show it
    w = LatticeWindow((0,), (7,))
    pair = direct_sum([build_pspace_pair(tail(w, 0), 2),
                       build_pspace_pair(tail(w, 3), 1)])
    q = fiber_mixing_unitary(pair, np.random.default_rng(11))
    twin = WeylPair(w, dict(pair.fibers), [q @ g @ q.conj().T for g in pair.gens])
    square = LatticeWindow((0, 0), (7, 7))
    full = validate_pset(list(square.points()), square, SetKind.PSPACE)

    def quarter(seed):
        pair = build_r2_pair(demo_family(6, seed=seed),
                             EvaluationPoint.default(), GridSpec(1, 5.0))
        assert pair.dim == 116
        return pair

    scenarios = {
        "commutant": {"pair": pair_to_json(pair)},
        "decompose": {"pair": pair_to_json(pair)},
        # a fiber-mixed twin: the dilation of a drawn witness
        "dilate": {"pair": pair_to_json(twin), "depth": 2},
        # dim 128: the whole dual grid against every shift up to the margin
        "pair-check": {"pair": pair_to_json(build_pspace_pair(full, 2)),
                       "margin": 2},
        # two inequivalent quarter-plane pairs of dim 116
        "equiv": {"pair_a": pair_to_json(quarter(20240601)),
                  "pair_b": pair_to_json(quarter(99))},
        # an equivalent pair, which writes its witness
        "equiv-twin": {"pair_a": pair_to_json(pair),
                       "pair_b": pair_to_json(twin)},
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylpair.__file__)))
    for name, doc in scenarios.items():
        command = name.split("-twin")[0]
        sc = write_scenario(tmp_path, f"{name}.json",
                            dict(doc, command=command))
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, WEYLPAIR_THREADS=threads, PYTHONPATH=src)
            # WEYLPAIR_THREADS only fills these in when they are unset
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                env.pop(var, None)
            proc = subprocess.run(
                [sys.executable, "-m", "weylpair.cli", command, "--scenario",
                 sc, "--out", str(tmp_path)],
                env=env, capture_output=True, text=True, check=True)
            # each run writes its artifacts over the last one's
            reports.append((proc.stdout, [
                Path(path).read_bytes()
                for path in json.loads(proc.stdout)["artifacts"]]))
        assert json.loads(reports[0][0])["ok"]
        assert reports[0] == reports[1]
    assert len(reports[0][1]) == 1  # the twin's witness.json

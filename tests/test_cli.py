import json
import os
import subprocess
import sys

import weylpair
import weylpair.commutant as commutant
from weylpair import (EvaluationPoint, GridSpec, LatticeWindow, RepGens,
                      SetKind, build_pspace_pair, build_r2_pair, demo_family,
                      direct_sum, validate_pset)
from weylpair.cli import export_heatmap, main, run_scenario
from weylpair.serialize import matrix_to_json, pair_to_json, pset_to_json

from conftest import tail


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


def test_export_heatmap(tmp_path):
    rows = [(s, t, float(s + t)) for s in range(4) for t in range(4)]
    path = export_heatmap(rows, str(tmp_path / "h.csv"))
    lines = open(path).read().splitlines()
    assert lines[0] == "s,t,value"
    assert len(lines) == 17
    empty = export_heatmap([], str(tmp_path / "e.csv"))
    assert open(empty).read() == "s,t,value\n"


def test_run_scenario_seed_override(tmp_path):
    sc = write_scenario(tmp_path, "s.json", {
        "command": "pspace-enum", "window": {"lo": [0], "hi": [2]},
        "seed": 3})
    report, code = run_scenario("pspace-enum", sc, out=str(tmp_path), seed=9)
    assert code == 0 and report["seed"] == 9


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
    gens = RepGens.from_pair(pair).gens
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
    # BLAS thread pools may reorder floating-point sums; the reports must
    # not show it
    w = LatticeWindow((0,), (7,))
    pair = direct_sum([build_pspace_pair(tail(w, 0), 2),
                       build_pspace_pair(tail(w, 3), 1)])
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
        # dim 128: the whole dual grid against every shift up to the margin
        "pair-check": {"pair": pair_to_json(build_pspace_pair(full, 2)),
                       "margin": 2},
        # two inequivalent quarter-plane pairs of dim 116
        "equiv": {"pair_a": pair_to_json(quarter(20240601)),
                  "pair_b": pair_to_json(quarter(99))},
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylpair.__file__)))
    for command, doc in scenarios.items():
        sc = write_scenario(tmp_path, f"{command}.json",
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
            reports.append(proc.stdout)
        assert json.loads(reports[0])["ok"]
        assert reports[0] == reports[1]

"""Batch command-line surface.

One scenario file drives one run:

    weylpair <command> --scenario file.json [--out dir] [--seed n] [--tol x]

Commands: pspace-enum, pair-build, pair-check, dilate, decompose,
commutant, equiv, counterexample (with sub one of increasing, plateau,
pair, transfer, spec).  The report is printed as JSON on standard output
with sorted keys, so identical scenario and seed give byte-identical
output; artifacts (pair files, heatmaps, witnesses) go to the output
directory.  The exit code is 0 exactly when every declared check passes;
the first failing check is named in the report.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys

import numpy as np

from . import dilation as dila
from . import freeproduct as fp
from . import lattice as lat
from . import pairs as pr
from . import serialize as ser
from .commutant import RepGens, summarize, unitarily_equivalent
from .errors import CheckFailed, ScenarioParseError, WeylPairError

DEFAULT_TOL = 1e-10


def export_heatmap(rows, path: str) -> str:
    """Write (s, t, value) rows as CSV with 17 significant digits."""
    table = tuple(itertools.chain.from_iterable(rows))
    text = "%.17g,%.17g,%.17g\n" * (len(table) // 3) % table
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("s,t,value\n" + text)
    return path


def _load_json(path: str, name: str):
    """The JSON document of the ``name`` file at ``path``; a missing file,
    one that cannot be read as UTF-8 text (a directory, say) or one that is
    not valid JSON raises ScenarioParseError."""
    if not os.path.exists(path):
        raise ScenarioParseError(f"{name} file {path} does not exist")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{name} file {path} is not valid JSON: "
                                 f"{exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"{name} file {path} cannot be read: "
                                 f"{exc}") from exc


def _load_scenario(path: str) -> dict:
    doc = _load_json(path, "scenario")
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    return doc


def _resolve_pair(doc, key):
    """Pair documents may be inline or a path to a pair file."""
    if key not in doc:
        raise ScenarioParseError(f"scenario lacks required field '{key}'")
    val = doc[key]
    if isinstance(val, str):
        val = _load_json(val, "referenced pair")
    return ser.pair_from_json(val)


def _number(doc, key, default, kind=int):
    """``doc[key]``, or ``default``, as ``kind``; else ScenarioParseError."""
    val = doc.get(key, default)
    try:
        return kind(val)
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(
            f"field '{key}' must be a number, not {val!r}") from exc


def _count(doc, key, default, most=math.inf):
    """``doc[key]``, or ``default``, as an int from 0 to ``most``; else
    ScenarioParseError."""
    val = _number(doc, key, default)
    if val < 0:
        raise ScenarioParseError(f"field '{key}' must be nonnegative, not {val}")
    if val > most:
        raise ScenarioParseError(f"field '{key}' must be at most {most}, not {val}")
    return val


def _resolve_family(doc, seed):
    fam_doc = doc.get("family", {"kind": "demo"})
    if isinstance(fam_doc, str):
        return ser.family_from_json(_load_json(fam_doc, "referenced family"))
    if not isinstance(fam_doc, dict):
        raise ScenarioParseError(
            "field 'family' must be a family object or a family file")
    if "P" in fam_doc:
        return ser.family_from_json(fam_doc)
    kind = fam_doc.get("kind", "demo")
    kappa = _count(fam_doc, "kappa", 6)
    if kind == "demo":
        return fp.demo_family(kappa, seed=_number(fam_doc, "seed", seed))
    if kind == "random":
        # a basis of kappa vectors is sliced into at most kappa parts
        return fp.random_family(kappa, _count(fam_doc, "parts_p", kappa, kappa),
                                _count(fam_doc, "parts_q", kappa, kappa),
                                seed=_number(fam_doc, "seed", seed))
    raise ScenarioParseError(f"unknown family kind {kind!r}")


class _Checks:
    """Named checks of a report; a non-finite value is written as null and
    fails its check."""

    def __init__(self):
        self.items = []

    def add(self, name: str, value: float, tol: float, larger_ok=False):
        value = float(value)
        finite = math.isfinite(value)
        ok = finite and (value >= tol if larger_ok else value <= tol)
        self.items.append({"name": name, "value": value if finite else None,
                           "tol": float(tol), "pass": bool(ok)})

    def first_failure(self):
        for item in self.items:
            if not item["pass"]:
                return item["name"]
        return None


def _write_document(path: str, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ser.document_to_json(doc))


def _window_from(doc) -> lat.LatticeWindow:
    if "window" not in doc:
        raise ScenarioParseError("scenario lacks required field 'window'")
    return ser.window_from_json(doc["window"])


# ---------------------------------------------------------------------------
# command handlers: each returns (data, checks, artifacts)


def _cmd_pspace_enum(doc, out, seed, tol):
    window = _window_from(doc)
    psets = lat.enumerate_pspaces(window)
    data = {"count": len(psets), "psets": psets}
    return data, _Checks(), []


def _cmd_pair_build(doc, out, seed, tol):
    if "pspace" not in doc:
        raise ScenarioParseError("scenario lacks required field 'pspace'")
    ps = ser.pset_from_json(doc["pspace"])
    k = _number(doc, "k", 1)
    pair = pr.build_pspace_pair(ps, k)
    path = os.path.join(out, doc.get("file", "pair.json"))
    _write_document(path, ser.pair_to_json(pair, matrix=np.asarray))
    data = {"dim": pair.dim, "label": pair.label, "file": path}
    return data, _Checks(), [path]


def _max_defect(pair, thetas, safe):
    """Largest weak-Weyl defect over the angles and every shift up to the
    margin; np.max keeps a NaN defect, where max() may drop it."""
    shifts = itertools.product(range(safe.margin + 1), repeat=pair.window.dim)
    return np.max([pr.weyl_defect(pair, thetas, a, safe) for a in shifts])


def _cmd_pair_check(doc, out, seed, tol):
    pair = _resolve_pair(doc, "pair")
    margin = _number(doc, "margin", 2)
    safe = pr.SafeRegion(margin)
    checks = _Checks()
    shifts = list(itertools.product(range(margin + 1), repeat=pair.window.dim))
    thetas = np.array(pr.dual_grid(pair.window))
    # huge entries overflow into a non-finite value, which fails its check
    with np.errstate(over="ignore", invalid="ignore"):
        checks.add("weak-weyl-defect", _max_defect(pair, thetas, safe), tol)
        checks.add("isometry-on-safe-region",
                   np.max([pr.isometry_defect(pair, a, safe) for a in shifts]),
                   tol)
        checks.add("commuting-range-projections",
                   pr.check_commuting_ranges(pair), tol)
    return {"dim": pair.dim, "label": pair.label}, checks, []


def _cmd_dilate(doc, out, seed, tol):
    pair = _resolve_pair(doc, "pair")
    depth = _count(doc, "depth", 2)
    bundle = dila.minimal_dilation(pair, depth)
    checks = _Checks()
    for name, value, bound in dila.dilation_checks(bundle, tol):
        checks.add(name, value, bound)
    path = os.path.join(out, doc.get("file", "bundle.json"))
    _write_document(path, ser.bundle_to_json(bundle))
    data = {"dim": bundle.dim, "depth": depth, "budget": bundle.depth,
            "file": path}
    return data, checks, [path]


def _cmd_decompose(doc, out, seed, tol):
    pair = _resolve_pair(doc, "pair")
    comps = dila.decompose(pair)
    data = {"components": [c.to_json() for c in comps]}
    return data, _Checks(), []


def _cmd_commutant(doc, out, seed, tol):
    if "gens" in doc:
        if not isinstance(doc["gens"], list) or not doc["gens"]:
            raise ScenarioParseError(
                "field 'gens' must be a nonempty list of matrices")
        gens = [ser.matrix_from_json(g) for g in doc["gens"]]
        rep = RepGens(gens[0].shape[0], gens)
    else:
        pair = _resolve_pair(doc, "pair")
        rep = RepGens.from_pair(pair)
    summary = summarize(rep)
    return summary.to_json(), _Checks(), []


def _cmd_equiv(doc, out, seed, tol):
    pa = _resolve_pair(doc, "pair_a")
    pb = _resolve_pair(doc, "pair_b")
    ok, witness = unitarily_equivalent(RepGens.from_pair(pa),
                                       RepGens.from_pair(pb), seed=seed)
    artifacts = []
    if ok:
        path = os.path.join(out, "witness.json")
        # json.dumps takes the C encoder; json.dump never does
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(ser.matrix_to_json(witness), sort_keys=True))
        artifacts.append(path)
    return {"equivalent": bool(ok)}, _Checks(), artifacts


def _cmd_counterexample(doc, out, seed, tol):
    sub = doc.get("sub", "increasing")
    family = _resolve_family(doc, seed)
    ev = ser.evaluation_from_json(doc["ev"]) if "ev" in doc \
        else fp.EvaluationPoint.default()
    if "grid" in doc:
        grid = ser.grid_from_json(doc["grid"])
    elif sub == "pair":
        # represented pairs grow with the grid; default to integer steps there
        grid = fp.GridSpec(1, 4.0)
    elif sub == "transfer":
        # the commutant transfer needs every step projection sampled
        grid = fp.GridSpec(2, max(family.np_count, family.nq_count) + 1)
    else:
        grid = fp.GridSpec(10, 4.0)
    checks = _Checks()
    artifacts = []
    data = {"sub": sub, "kappa": family.kappa}
    if sub == "increasing":
        sample = fp.sample_field(family, ev, grid)
        violation = fp.check_increasing(sample)
        checks.add("field-increasing", violation, 1e-12)
        vals = sample.vals.tolist()
        ranks = [float(np.trace(e).real) for e in sample.mats]
        rows = [(vals[i], vals[j], ranks[k])
                for i, row in enumerate(sample.ids.tolist())
                for j, k in enumerate(row)]
        path = os.path.join(out, doc.get("heatmap", "field_rank.csv"))
        export_heatmap(rows, path)
        artifacts.append(path)
    elif sub == "plateau":
        # a negative bound would check no cell
        mmax, nmax = _count(doc, "mmax", 2), _count(doc, "nmax", 2)
        bound = (1 - ev.b) * (1 - ev.d) - 2 * grid.step
        fractions = {}
        sample = fp.sample_field(family, ev, grid)
        for m in range(mmax + 1):
            for n in range(nmax + 1):
                frac = fractions[f"{m},{n}"] = fp.plateau_fraction(sample, m, n)
                checks.add(f"plateau-fraction-{m}-{n}", frac, bound,
                           larger_ok=True)
        data["fractions"] = fractions
    elif sub == "pair":
        pair = fp.build_r2_pair(family, ev, grid)
        data["dim"] = pair.dim
        probe = doc.get("probe", [[1, 0], [0, 1], [2, 0], [0, 2]])
        if not isinstance(probe, list) or not all(
                isinstance(a, list) and len(a) == pair.window.dim
                and all(isinstance(c, int) and c >= 0 for c in a)
                for a in probe):
            raise ScenarioParseError(
                "field 'probe' must list shifts of two nonnegative integers")
        witness = pr.check_commuting_ranges(pair, [tuple(a) for a in probe])
        data["max_range_commutator"] = float(witness)
        if doc.get("expect_noncommuting", True):
            checks.add("noncommuting-witness", witness, 0.1, larger_ok=True)
        margin = _number(doc, "margin", 1)
        safe = pr.SafeRegion(margin)
        thetas = np.array([[0.3, 0.7], [1.1, 0.2]])
        checks.add("weak-weyl-defect", _max_defect(pair, thetas, safe), tol)
    elif sub == "transfer":
        dim_e, dim_f, equal = fp.commutant_transfer_check(family, ev, grid)
        data.update({"sampled_commutant_dim": dim_e,
                     "family_commutant_dim": dim_f, "equal": bool(equal)})
        checks.add("commutant-transfer", 0.0 if equal else 1.0, 0.5)
    elif sub == "spec":
        support = fp.spec_support(family, ev, grid)
        path = os.path.join(out, doc.get("file", "spec_support.csv"))
        export_heatmap([(s, t, 1.0) for s, t in support], path)
        artifacts.append(path)
        data["support_size"] = len(support)
    else:
        raise ScenarioParseError(f"unknown counterexample sub-command {sub!r}")
    return data, checks, artifacts


_COMMANDS = {
    "pspace-enum": _cmd_pspace_enum,
    "pair-build": _cmd_pair_build,
    "pair-check": _cmd_pair_check,
    "dilate": _cmd_dilate,
    "decompose": _cmd_decompose,
    "commutant": _cmd_commutant,
    "equiv": _cmd_equiv,
    "counterexample": _cmd_counterexample,
}


def run_scenario(command: str, scenario_path: str, out: str = ".",
                 seed: int | None = None, tol: float | None = None) -> tuple[dict, int]:
    """Execute one scenario; returns (report, exit code).  The report is a
    :func:`serialize.document_to_json` document: it may hold point sets."""
    doc = _load_scenario(scenario_path)
    declared = doc.get("command")
    if declared is not None and declared != command:
        raise ScenarioParseError(
            f"scenario declares command {declared!r} but {command!r} was invoked")
    if command not in _COMMANDS:
        raise ScenarioParseError(f"unknown command {command!r}")
    seed = _number(doc, "seed", 0) if seed is None else int(seed)
    tol = _number(doc, "tol", DEFAULT_TOL, float) if tol is None else float(tol)
    if not tol > 0:
        raise ScenarioParseError("tolerance must be positive")
    os.makedirs(out, exist_ok=True)
    data, checks, artifacts = _COMMANDS[command](doc, out, seed, tol)
    failure = checks.first_failure()
    report = {
        "command": command,
        "seed": seed,
        "tol": tol,
        "ok": failure is None,
        "checks": checks.items,
        "data": data,
        "artifacts": sorted(artifacts),
    }
    if failure is not None:
        report["first_failure"] = failure
    return report, (0 if failure is None else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weylpair",
        description="batch checks for weak Weyl pairs on finite windows")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    # pspace-enum builds tens of thousands of objects without cycles that
    # live until its report is written: a collector pass over them frees
    # nothing, so the collector stays paused until they are freed
    paused = args.command == "pspace-enum" and gc.isenabled()
    if paused:
        gc.disable()
    try:
        return _run(args)
    finally:
        if paused:
            gc.enable()


def _run(args) -> int:
    """Run one parsed command line and print its report; returns the exit
    code.  The report is freed when this returns."""
    try:
        report, code = run_scenario(args.command, args.scenario, args.out,
                                    args.seed, args.tol)
    except ScenarioParseError as exc:
        print(json.dumps({"error": str(exc), "kind": "parse"}, sort_keys=True))
        return 2
    except CheckFailed as exc:
        print(json.dumps({"error": str(exc), "kind": "check"}, sort_keys=True))
        return 1
    except WeylPairError as exc:
        print(json.dumps({"error": str(exc),
                          "kind": type(exc).__name__}, sort_keys=True))
        return 1
    print(ser.document_to_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())

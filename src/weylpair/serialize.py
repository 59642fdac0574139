"""JSON wire formats.

Matrices travel as row-major nested arrays of [re, im] pairs.  Point sets,
pairs, bundles and projection families each have a fixed document layout so
that reports are reproducible byte for byte under a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ScenarioParseError
from .lattice import LatticeWindow, PSet, SetKind


def matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def matrix_from_json(doc) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in doc],
                        dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"malformed matrix document: {exc}") from exc


def window_to_json(w: LatticeWindow) -> dict:
    doc = {"dim": w.dim, "lo": list(w.lo), "hi": list(w.hi)}
    if w.weight != 1.0:
        doc["weight"] = w.weight
    return doc


def window_from_json(doc) -> LatticeWindow:
    try:
        w = LatticeWindow(tuple(doc["lo"]), tuple(doc["hi"]),
                          float(doc.get("weight", 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"malformed window document: {exc}") from exc
    if "dim" in doc and int(doc["dim"]) != w.dim:
        raise ScenarioParseError("window dim field disagrees with lo/hi")
    return w


def pset_to_json(ps: PSet) -> dict:
    doc = window_to_json(ps.window)
    doc["kind"] = ps.kind.value
    doc["points"] = [list(p) for p in ps.points]
    return doc


def pset_from_json(doc) -> PSet:
    w = window_from_json(doc)
    try:
        kind = SetKind(doc["kind"])
        pts = tuple(tuple(int(c) for c in p) for p in doc["points"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"malformed point-set document: {exc}") from exc
    return PSet(w, pts, kind)


def pair_to_json(pair) -> dict:
    return {
        "window": window_to_json(pair.window),
        "fibers": [[list(p), k] for p, k in pair.fibers],
        "generators": [matrix_to_json(g) for g in pair.gens],
        "label": pair.label,
    }


def pair_from_json(doc):
    from .pairs import WeylPair

    try:
        w = window_from_json(doc["window"])
        fibers = {tuple(int(c) for c in p): int(k) for p, k in doc["fibers"]}
        gens = [matrix_from_json(g) for g in doc["generators"]]
        label = str(doc.get("label", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"malformed pair document: {exc}") from exc
    return WeylPair(w, fibers, gens, label=label)


def bundle_to_json(bundle) -> dict:
    doc = pair_to_json(bundle.dilated)
    doc["depth"] = bundle.depth
    doc["budget"] = bundle.budget
    doc["base"] = pair_to_json(bundle.base)
    return doc


def family_from_json(doc):
    from .freeproduct import ProjectionFamily

    try:
        plist = [matrix_from_json(p) for p in doc["P"]]
        qlist = [matrix_from_json(q) for q in doc["Q"]]
    except (KeyError, TypeError) as exc:
        raise ScenarioParseError(f"malformed family document: {exc}") from exc
    fam = ProjectionFamily(plist, qlist)
    if "kappa" in doc and int(doc["kappa"]) != fam.kappa:
        raise ScenarioParseError("family kappa field disagrees with matrices")
    return fam


def evaluation_from_json(doc):
    from .freeproduct import EvaluationPoint

    try:
        return EvaluationPoint(float(doc["a"]), float(doc["b"]),
                               float(doc["c"]), float(doc["d"]),
                               (float(doc["p0"][0]), float(doc["p0"][1])))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ScenarioParseError(f"malformed evaluation document: {exc}") from exc


def grid_from_json(doc):
    from .freeproduct import GridSpec

    try:
        return GridSpec(int(doc["denominator"]), float(doc["extent"]),
                        float(doc.get("offset", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"malformed grid document: {exc}") from exc

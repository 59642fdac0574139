"""JSON wire formats.

Matrices travel as row-major nested arrays of [re, im] pairs.  Point sets,
pairs, bundles and projection families each have a fixed document layout so
that reports are reproducible byte for byte under a fixed seed.  A pair is
written as its generator blocks (:func:`pair_to_json`); a document with
dense generators is read as well.

Every report and artifact file is written by :func:`document_to_json`, which
emits the bytes of ``json.dumps(doc, sort_keys=True, indent=1)``.  The
standard library falls back to its pure-Python encoder whenever ``indent``
is set, so the writer renders the bulk of a document itself: point sets, and
whole lists of them, from per-window text of each point, matrices from a
per-shape template filled with the float texts.  The rest of the document is
left to ``json``.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ScenarioParseError
from .lattice import LatticeWindow, PSet, SetKind, _add, _gather


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


def pair_to_json(pair, matrix=matrix_to_json) -> dict:
    """The pair document; ``matrix`` writes each matrix.  With
    ``matrix=np.asarray`` the matrices stay arrays, for
    :func:`document_to_json`.

    The generators are written as ``blocks``: per axis, ``[source point,
    block]`` for every block of :meth:`WeylPair.graded_blocks`, zero blocks
    included, in point order; a pair has no other nonzero entry.
    """
    return {
        "window": window_to_json(pair.window),
        "fibers": [[list(p), k] for p, k in pair.fibers],
        "label": pair.label,
        "blocks": [[[list(p), matrix(b)] for p, b in
                    sorted(pair.graded_blocks(axis).items())]
                   for axis in range(pair.window.dim)],
    }


def pair_from_json(doc):
    """The pair of a document in either form: graded ``blocks`` or dense
    ``generators``.  A graded document is read as its blocks, and the pair
    writes its dense generators only when they are asked for; dense
    generators are accepted only when exactly graded, as :class:`WeylPair`
    accepts any."""
    from .pairs import WeylPair

    try:
        w = window_from_json(doc["window"])
        fibers = {tuple(int(c) for c in p): int(k) for p, k in doc["fibers"]}
        label = str(doc.get("label", ""))
        if ("blocks" in doc) == ("generators" in doc):
            raise ScenarioParseError(
                "pair document needs exactly one of 'blocks' and 'generators'")
        if "blocks" in doc:
            gens = _read_blocks(w, fibers, doc["blocks"])
        else:
            gens = [matrix_from_json(g) for g in doc["generators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"malformed pair document: {exc}") from exc
    return WeylPair(w, fibers, gens, label=label)


def _read_blocks(window: LatticeWindow, fibers: dict, blocks) -> list:
    """Per axis, the blocks of a graded pair document by source point."""
    if len(blocks) != window.dim:
        raise ScenarioParseError(f"pair document has blocks for {len(blocks)} "
                                 f"axes in a {window.dim}-d window")
    gens = []
    for axis, (e, listed) in enumerate(zip(window.generators(), blocks)):
        found = {}
        for p, block in listed:
            p = tuple(int(c) for c in p)
            q = _add(p, e)
            for end in (p, q):
                if fibers.get(end, 0) <= 0:
                    raise ScenarioParseError(
                        f"axis {axis}: block point {end} carries no fiber")
            if p in found:
                raise ScenarioParseError(
                    f"axis {axis}: repeated block source point {p}")
            found[p] = matrix_from_json(block)
            if found[p].shape != (fibers[q], fibers[p]):
                raise ScenarioParseError(
                    f"axis {axis}: block of {p} has shape {found[p].shape}, "
                    f"not {(fibers[q], fibers[p])}")
        gens.append(found)
    return gens


def bundle_to_json(bundle) -> dict:
    """The bundle document, its matrices kept as arrays for
    :func:`document_to_json`."""
    doc = pair_to_json(bundle.dilated, np.asarray)
    doc["depth"] = bundle.depth
    doc["budget"] = bundle.budget
    doc["base"] = pair_to_json(bundle.base, np.asarray)
    return doc


# ---------------------------------------------------------------------------
# the writer


#: What ``json`` writes in place of a held value, to be replaced.
_HOLE = "\x00weylpair.serialize.hole\x00"
_HOLE_TEXT = json.dumps(_HOLE)


class _SetList:
    """A nonempty list of point sets of one window and one kind, held by
    the writer as one value."""

    __slots__ = ("sets",)

    def __init__(self, sets):
        self.sets = sets


def document_to_json(doc) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=1)``, where ``doc``
    may also hold ``PSet`` values, written as their :func:`pset_to_json`
    documents, and 2-d arrays, written as their :func:`matrix_to_json`
    lists.

    ``json`` writes the document in one pass and puts a placeholder string
    where it meets a held value: a point set, an array, or a whole list of
    point sets of one window and one kind; each placeholder is then
    replaced by that value's text at the indent of its line.  A document
    that holds none costs a walk over its containers more than
    ``json.dumps`` does."""
    held = []

    def hold(obj):
        if not isinstance(obj, (PSet, np.ndarray, _SetList)):
            raise TypeError(f"Object of type {type(obj).__name__} "
                            f"is not JSON serializable")
        held.append(obj)
        return _HOLE

    text = json.dumps(_hold_set_lists(doc, set()), sort_keys=True, indent=1,
                      default=hold)
    if not held:
        return text
    pieces = text.split(_HOLE_TEXT)
    if len(pieces) != len(held) + 1:
        raise ValueError("a string of the document is the writer's placeholder")
    templates = {}
    out = [pieces[0]]
    for obj, before, after in zip(held, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        level = len(line) - len(line.lstrip(" "))
        if type(obj) is _SetList:
            out += _set_list_pieces(obj.sets, level, templates)
        elif isinstance(obj, PSet):
            out.append(_pset_text(obj, level, templates))
        else:
            out.append(_matrix_text(obj, level, templates))
        out.append(after)
    # json's encoder functions form a reference cycle that holds ``hold``
    # and through it ``held``: emptied, the held values are freed with the
    # document, not by the next collector pass
    held.clear()
    return "".join(out)


_CONTAINERS = (dict, list, tuple)


def _hold_set_lists(v, seen: set):
    """``v`` with each nonempty list of point sets of one window (the same
    object) and one kind replaced by a :class:`_SetList`.  A container is
    copied only when something inside it is replaced, so ``v`` is never
    changed; a container met again inside itself is left for ``json`` to
    report."""
    if isinstance(v, dict):
        items = v.items()
    elif isinstance(v, _CONTAINERS):
        if v and type(v[0]) is PSet:
            w, kind = v[0].window, v[0].kind
            if all(type(ps) is PSet and ps.window is w and ps.kind is kind
                   for ps in v):
                return _SetList(v)
        items = enumerate(v)
    else:
        return v
    if id(v) in seen:
        return v
    seen.add(id(v))
    copy = None
    for k, x in items:
        if not isinstance(x, _CONTAINERS):
            continue  # a scalar holds nothing; skipping it halves the calls
        y = _hold_set_lists(x, seen)
        if y is not x:
            if copy is None:
                copy = dict(v) if isinstance(v, dict) else list(v)
            copy[k] = y
    seen.discard(id(v))
    return v if copy is None else copy


def _dumps(doc, level: int) -> str:
    """``json`` text of ``doc`` nested ``level`` deep: strings carry no raw
    newline, so every newline starts a line to indent."""
    text = json.dumps(doc, sort_keys=True, indent=1)
    return text.replace("\n", "\n" + " " * level) if level else text


def _pset_template(ps: PSet, level: int, templates: dict):
    """(head, point texts, tail) of a point set's document: the text of
    each of its window's points, made once per window document, kind and
    level."""
    w = ps.window
    key = (w.lo, w.hi, repr(w.weight), ps.kind, level)
    if key not in templates:
        doc = pset_to_json(ps)
        doc["points"] = None
        head, tail = _dumps(doc, level).split('"points": null')
        pad = "\n" + " " * (level + 2)
        points = [pad + _dumps(list(p), level + 2) for p in w.points()]
        templates[key] = (head + '"points": [', points,
                          "\n" + " " * (level + 1) + "]" + tail)
    return templates[key]


def _pset_text(ps: PSet, level: int, templates: dict) -> str:
    """A lone point set's document, its points gathered from the template."""
    head, points, tail = _pset_template(ps, level, templates)
    return head + ",".join(_gather(points, ps.indices)) + tail


def _set_list_pieces(sets, level: int, templates: dict) -> list[str]:
    """The text of a :class:`_SetList` as pieces of the writer's output:
    each set's points gathered from one template, with the text between
    two sets (a tail, a comma, a head) shared."""
    head, points, tail = _pset_template(sets[0], level + 1, templates)
    pad = "\n" + " " * (level + 1)
    pieces = [tail + "," + pad + head] * (2 * len(sets) - 1)
    pieces[::2] = [",".join(_gather(points, ps.indices)) for ps in sets]
    return ["[" + pad + head, *pieces, tail + "\n" + " " * level + "]"]


#: ``json``'s text of the non-finite floats, keyed by their ``repr``.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _matrix_text(m: np.ndarray, level: int, templates: dict) -> str:
    """A matrix's [re, im] lists: one template per shape and level, with a
    slot for each float's ``repr``, made once per distinct bit pattern."""
    a = np.ascontiguousarray(m, dtype=complex)
    rows, cols = a.shape
    key = (rows, cols, level)
    if key not in templates:
        pad = ["\n" + " " * (level + i) for i in range(4)]
        entry = pad[2] + "[" + pad[3] + "%s," + pad[3] + "%s" + pad[2] + "]"
        row = "[" + ",".join([entry] * cols) + pad[1] + "]" if cols else "[]"
        templates[key] = ("[" + ",".join([pad[1] + row] * rows) + pad[0] + "]"
                          if rows else "[]")
    # keyed by bits, not value: -0.0 keeps its sign and every nan its text
    bits, inverse = np.unique(a.view(np.int64).ravel(), return_inverse=True)
    texts = [_NONFINITE.get(t, t)
             for t in map(float.__repr__, bits.view(float).tolist())]
    return templates[key] % tuple(map(texts.__getitem__, inverse.tolist()))


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

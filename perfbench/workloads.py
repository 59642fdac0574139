"""The three workloads: seeded scenario files, the operations that run them,
and the checks each operation's output must pass.

Every operation is one ``weylpair`` CLI invocation.  ``build`` writes all
inputs into the output directory and returns the operation list of one
round; the benchmark repeats that list, unchanged, in every round.  Expected
values are derived here, apart from the program (closed-form counts, the
classifying data drawn for each sum, Kronecker-product commutants of the
families), or are properties the method must have.  A check raises
``WrongOutput``.

Library functions are used only where no CLI command covers a step:
building direct sums of canonical pairs and quarter-plane pairs, and writing
them as pair files.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from weylpair import freeproduct as fp
from weylpair import pairs as pr
from weylpair import serialize as ser
from weylpair.lattice import LatticeWindow, PSet, SetKind

DEFECT_TOL = 1e-10


class WrongOutput(Exception):
    """An operation's report or artifact disagrees with the expected output."""


@dataclass
class Op:
    command: str
    scenario: str
    expect_code: int
    check: Callable[[dict], None]


def _expect(cond: bool, msg: str):
    if not cond:
        raise WrongOutput(msg)


def _check_value(report: dict, name: str) -> float:
    for item in report["checks"]:
        if item["name"] == name:
            return item["value"]
    raise WrongOutput(f"report lacks check {name!r}")


def _all_checks_within_tol(report: dict):
    for item in report["checks"]:
        _expect(item["value"] <= item["tol"],
                f"check {item['name']} = {item['value']} above {item['tol']}")


class _Writer:
    """Writes scenario files and collects the operations of one round."""

    def __init__(self, out: str, seed: int):
        self.out = out
        self.seed = seed
        self.ops: list[Op] = []

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def op(self, command: str, name: str, doc: dict, check, expect_code=0):
        doc = dict(doc, command=command, seed=self.seed)
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        self.ops.append(Op(command, path, expect_code, check))

    def pair_file(self, name: str, pair) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ser.pair_to_json(pair), fh, sort_keys=True)
        return path


# ---------------------------------------------------------------------------
# lattice helpers, written apart from weylpair.lattice


def _window_points(lo, hi):
    return list(itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]))


def _up(p, axis):
    return p[:axis] + (p[axis] + 1,) + p[axis + 1:]


def _is_upward_closed(points: set, lo, hi) -> bool:
    for p in points:
        for axis in range(len(lo)):
            q = _up(p, axis)
            if q[axis] <= hi[axis] and q not in points:
                return False
    return True


def _random_upset(lo, hi, size: int, rng) -> tuple:
    """Random upward-closed set of exactly ``size`` points.

    Grows the set one point at a time; a point may join once all of its
    in-window successors are members, so every intermediate set is closed.
    """
    chosen: set = set()
    pts = _window_points(lo, hi)
    while len(chosen) < size:
        ready = [p for p in pts if p not in chosen and all(
            _up(p, a)[a] > hi[a] or _up(p, a) in chosen for a in range(len(lo)))]
        chosen.add(ready[rng.integers(len(ready))])
    return tuple(sorted(chosen))


def _pset_doc(lo, hi, points) -> dict:
    return {"dim": len(lo), "lo": list(lo), "hi": list(hi), "kind": "pspace",
            "points": [list(p) for p in sorted(points)]}


def _minimal_points(points: set, lo):
    return [p for p in points
            if not any(p[a] > lo[a] and _down(p, a) in points
                       for a in range(len(lo)))]


def _down(p, axis):
    return p[:axis] + (p[axis] - 1,) + p[axis + 1:]


def _macmahon(a: int, b: int, c: int) -> int:
    """Number of plane partitions in an a x b x c box."""
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                num *= i + j + k - 1
                den *= i + j + k - 2
    return num // den


# ---------------------------------------------------------------------------
# canonical-check

CHAIN = ((0,), (15,))
SQUARE = ((0, 0), (7, 7))
BOX = ((0, 0, 0), (2, 2, 2))
# (window, |S|, k) for each sampled canonical pair.  Sizes are fixed and
# close, so that a round costs the same for every seed and the margin-1 and
# margin-2 checks each form a tight cluster of latencies around the median
# and the 90th percentile; the sets themselves are drawn.
CANONICAL_SLOTS = (
    [(CHAIN, None, 1), (CHAIN, None, 2)]
    + [(SQUARE, s, k) for s, k in [(10, 1), (12, 1), (10, 2), (12, 2)] * 2]
    + [(BOX, s, k) for s, k in [(6, 1), (8, 1), (6, 2), (8, 2)] * 2])


def _enum_check(lo, hi, count):
    def check(report):
        data = report["data"]
        _expect(data["count"] == count, f"count {data['count']} != {count}")
        _expect(len(data["psets"]) == count, "listed sets differ from count")
        seen = set()
        for doc in data["psets"]:
            _expect(doc["lo"] == list(lo) and doc["hi"] == list(hi)
                    and doc["kind"] == "pspace", "set on the wrong window")
            pts = {tuple(p) for p in doc["points"]}
            _expect(len(pts) == len(doc["points"]) > 0, "empty or repeated points")
            _expect(all(all(a <= c <= b for a, c, b in zip(lo, p, hi))
                        for p in pts), "point outside the window")
            _expect(_is_upward_closed(pts, lo, hi), "set not upward closed")
            key = frozenset(pts)
            _expect(key not in seen, "set listed twice")
            seen.add(key)
    return check


def _build_check(dim, path):
    def check(report):
        _expect(report["data"]["dim"] == dim,
                f"dim {report['data']['dim']} != {dim}")
        _expect(report["data"]["file"] == path and os.path.exists(path),
                "pair file missing")
    return check


def _pair_check_check(report):
    names = {item["name"] for item in report["checks"]}
    _expect(names == {"weak-weyl-defect", "isometry-on-safe-region",
                      "commuting-range-projections"}, f"checks {names}")
    _all_checks_within_tol(report)


def _negative_control_check(report):
    _expect(report.get("first_failure") == "isometry-on-safe-region",
            f"first failure {report.get('first_failure')}")
    iso = _check_value(report, "isometry-on-safe-region")
    _expect(abs(iso - 0.75) <= 1e-12, f"isometry defect {iso} != 0.75")
    weyl = _check_value(report, "weak-weyl-defect")
    _expect(weyl <= DEFECT_TOL, f"weak-Weyl defect {weyl}")


def _chain_pair_doc(lo: int, hi: int, first: int, scaled: int) -> dict:
    """Canonical chain pair on {first..hi}, k = 1, with the block from
    ``scaled`` to ``scaled + 1`` scaled by 1/2 (still graded)."""
    pts = list(range(first, hi + 1))
    n = len(pts)
    gen = [[[0.0, 0.0] for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        gen[i + 1][i] = [0.5 if pts[i] == scaled else 1.0, 0.0]
    return {"window": {"dim": 1, "lo": [lo], "hi": [hi]},
            "fibers": [[[y], 1] for y in pts], "generators": [gen],
            "label": "scaled-chain"}


def canonical_check(w: _Writer, rng):
    for lo, hi, count in [
            (*CHAIN, CHAIN[1][0] - CHAIN[0][0] + 1),
            (*SQUARE, math.comb(16, 8) - 1),
            (*BOX, _macmahon(3, 3, 3) - 1)]:
        w.op("pspace-enum", f"enum_{len(lo)}d.json",
             {"window": {"lo": list(lo), "hi": list(hi)}},
             _enum_check(lo, hi, count))
    for i, ((lo, hi), size, k) in enumerate(CANONICAL_SLOTS):
        if size is None:
            size = int(rng.integers(6, 17))
        pts = _random_upset(lo, hi, size, rng)
        pair_path = w.path(f"pair_{i}.json")
        w.op("pair-build", f"build_{i}.json",
             {"pspace": _pset_doc(lo, hi, pts), "k": k,
              "file": f"pair_{i}.json"},
             _build_check(k * size, pair_path))
        for margin in (1, 2):
            w.op("pair-check", f"check_{i}_m{margin}.json",
                 {"pair": pair_path, "margin": margin}, _pair_check_check)
    first = int(rng.integers(0, 8))
    scaled = int(rng.integers(first, CHAIN[1][0]))
    doc = _chain_pair_doc(CHAIN[0][0], CHAIN[1][0], first, scaled)
    bad_path = w.path("scaled_chain_pair.json")
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    w.op("pair-check", "negative_control.json",
         {"pair": bad_path, "margin": 1}, _negative_control_check,
         expect_code=1)


# ---------------------------------------------------------------------------
# classify-dilate

LINE = ((0,), (11,))
PLANE = ((0, 0), (3, 3))
DEPTH = 2
# (window, [(|S|, multiplicity), ...]) per direct sum.  On the line a size
# fixes the set, so equal sizes repeat a set and its multiplicities add up.
SUM_TEMPLATES = [
    (LINE, [(6, 1)]),
    (LINE, [(4, 2), (9, 1)]),
    (LINE, [(5, 1), (5, 2), (10, 3)]),
    (LINE, [(3, 1), (6, 2), (8, 1), (11, 3)]),
    (PLANE, [(7, 2)]),
    (PLANE, [(5, 1), (9, 2)]),
    (PLANE, [(4, 1), (8, 1), (11, 2)]),
    (PLANE, [(2, 3), (4, 1), (6, 1), (8, 1)]),
]


def _sum_pair(lo, hi, comps):
    window = LatticeWindow(lo, hi)
    return pr.direct_sum([
        pr.build_pspace_pair(PSet(window, pts, SetKind.PSPACE), m)
        for pts, m in comps])


def _classifying_data(comps) -> dict:
    data: dict = {}
    for pts, m in comps:
        data[pts] = data.get(pts, 0) + m
    return data


def _normalized(pts, lo, hi):
    """Orbit normal form reported by decompose: the set moved so that its
    first point sits on the window corner, re-truncated to the window."""
    shift = tuple(a - b for a, b in zip(pts[0], lo))
    anchors = [tuple(c - s for c, s in zip(p, shift))
               for p in _minimal_points(set(pts), lo)]
    keep = [q for q in _window_points(lo, hi)
            if any(all(a <= c for a, c in zip(anc, q)) for anc in anchors)]
    return sorted(list(q) for q in keep), list(shift)


def _extended_support(pts, lo, hi, depth):
    members = set(pts)
    box = list(itertools.product(range(depth + 1), repeat=len(lo)))
    ext_lo = tuple(a - depth for a in lo)
    return [p for p in _window_points(ext_lo, hi)
            if any(tuple(c + d for c, d in zip(p, a)) in members for a in box)]


def _block_unitary(pair, rng):
    """Unitary acting inside each fiber block of the pair."""
    u = np.zeros((pair.dim, pair.dim), dtype=complex)
    for p, k in pair.fibers:
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q, r = np.linalg.qr(g)
        s = pair.block_slice(p)
        u[s, s] = q * (np.diag(r) / np.abs(np.diag(r)))
    return u


def _other_comps(comps, lo):
    """Data different from ``comps`` with the same total dimension: one
    minimal point moves from the largest set into a new singleton set."""
    big = max(range(len(comps)), key=lambda i: len(comps[i][0]))
    pts, m = comps[big]
    drop = min(_minimal_points(set(pts), lo))
    top = tuple(max(p[a] for p in pts) for a in range(len(lo)))
    smaller = tuple(p for p in pts if p != drop)
    return comps[:big] + [(smaller, m)] + comps[big + 1:] + [((top,), m)]


def _decompose_check(lo, hi, data):
    want = sorted([*_normalized(pts, lo, hi), m] for pts, m in data.items())

    def check(report):
        got = sorted([c["pspace"]["points"], c["translation"], c["multiplicity"]]
                     for c in report["data"]["components"])
        _expect(got == want, f"components {got} != {want}")
    return check


def _commutant_check(cdim, center=None):
    """Commutant dimension, and with ``center`` the whole summary."""
    def check(report):
        data = report["data"]
        if center is None:
            _expect(data["commutant_dim"] == cdim,
                    f"commutant dim {data['commutant_dim']} != {cdim}")
            return
        want = {"commutant_dim": cdim, "center_dim": center,
                "is_factor": center == 1, "is_irreducible": cdim == 1}
        _expect(data == want, f"{data} != {want}")
    return check


def _dilate_check(dim):
    def check(report):
        _all_checks_within_tol(report)
        _expect(report["data"]["dim"] == dim, f"dim {report['data']['dim']} != {dim}")
    return check


def _equiv_check(expected, gens_a=None, gens_b=None, witness_path=None):
    def check(report):
        _expect(report["data"]["equivalent"] is expected,
                f"equivalent {report['data']['equivalent']} != {expected}")
        if not expected:
            return
        with open(witness_path, encoding="utf-8") as fh:
            wit = np.array([[complex(*z) for z in row] for row in json.load(fh)])
        eye = np.eye(len(wit))
        _expect(np.abs(wit.conj().T @ wit - eye).max() <= 1e-8, "witness not unitary")
        for a, b in zip(gens_a, gens_b):
            _expect(np.abs(wit @ a @ wit.conj().T - b).max() <= 1e-8,
                    "witness does not conjugate the generators")
    return check


def classify_dilate(w: _Writer, rng):
    for i, ((lo, hi), template) in enumerate(SUM_TEMPLATES):
        comps = [(_random_upset(lo, hi, size, rng), m) for size, m in template]
        data = _classifying_data(comps)
        pair = _sum_pair(lo, hi, comps)
        path = w.pair_file(f"sum_{i}.json", pair)
        u = _block_unitary(pair, rng)
        twin = pr.WeylPair(pair.window, dict(pair.fibers),
                           [u @ g @ u.conj().T for g in pair.gens], label="twin")
        twin_path = w.pair_file(f"twin_{i}.json", twin)
        other = _other_comps(comps, lo)
        other_path = w.pair_file(f"other_{i}.json", _sum_pair(lo, hi, other))
        dilated_dim = sum(m * len(_extended_support(pts, lo, hi, DEPTH))
                          for pts, m in data.items())
        w.op("decompose", f"decompose_{i}.json", {"pair": path},
             _decompose_check(lo, hi, data))
        w.op("commutant", f"commutant_{i}.json", {"pair": path},
             _commutant_check(sum(m * m for m in data.values()), len(data)))
        w.op("dilate", f"dilate_{i}.json",
             {"pair": path, "depth": DEPTH, "file": f"bundle_{i}.json"},
             _dilate_check(dilated_dim))
        # position observable first, then the generators, as RepGens lists them
        pos = [np.diag(np.repeat([pair.window.index(p) for p, _ in pair.fibers],
                                 [k for _, k in pair.fibers])).astype(complex)]
        w.op("equiv", f"equiv_twin_{i}.json",
             {"pair_a": path, "pair_b": twin_path},
             _equiv_check(True, pos + list(pair.gens), pos + list(twin.gens),
                          w.path("witness.json")))
        w.op("equiv", f"equiv_other_{i}.json",
             {"pair_a": path, "pair_b": other_path},
             _equiv_check(_classifying_data(other) == data))


# ---------------------------------------------------------------------------
# quarterplane

KAPPA = 6
# parts of each seeded random family (both sequences); the demo family comes
# first.  Four parts is the least that the 4.0-extent grids index.
RANDOM_PARTS = [6, 6, 5, 4, 6, 5]
FIELD_GRID = {"denominator": 10, "extent": 4.0}
PAIR_GRID = {"denominator": 1, "extent": 4.0}
# Quarter-plane pairs of the first three families (all rank-one, so each of
# dim 116 on this grid) feed two large commutant solves and three equiv
# decisions; the five make up the top 12% of a round's latencies.
BIG_PAIR_GRID = fp.GridSpec(1, 5.0)
BIG_PAIRS = 3


def _haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_projections(rng, parts):
    u = _haar(rng, KAPPA)
    cuts = sorted(rng.choice(np.arange(1, KAPPA), size=parts - 1, replace=False))
    return [u[:, g] @ u[:, g].conj().T for g in np.split(np.arange(KAPPA), cuts)]


def _matrix_doc(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _commutant_dim(mats) -> int:
    """Dimension of {X : X M = M X for all M}, from the Kronecker form."""
    n = mats[0].shape[0]
    eye = np.eye(n)
    stack = np.vstack([np.kron(m, eye) - np.kron(eye, m.T) for m in mats])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s <= 1e-8 * s[0]))


def _grid_values(grid):
    count = int(round(grid["extent"] * grid["denominator"]))
    return [i / grid["denominator"] for i in range(count)]


def _increasing_check(path):
    def check(report):
        _expect(_check_value(report, "field-increasing") <= 1e-12,
                "field not increasing")
        _expect(report["artifacts"] == [path] and os.path.exists(path),
                "heatmap missing")
    return check


def _plateau_check(ev, mmax, nmax):
    bound = (1 - ev["b"]) * (1 - ev["d"]) - 2.0 / FIELD_GRID["denominator"]

    def check(report):
        fractions = report["data"]["fractions"]
        _expect(len(fractions) == (mmax + 1) * (nmax + 1), "plateau count")
        for key, frac in fractions.items():
            _expect(frac >= bound, f"plateau {key} fraction {frac} < {bound}")
    return check


def _spec_check(path, ev, spec_bytes):
    p, q = ev["p0"]
    vals = _grid_values(FIELD_GRID)
    want = {(round(s, 9), round(t, 9)) for s in vals for t in vals
            if not (s < 1 - p and t < 1 - q)}

    def check(report):
        with open(path, "rb") as fh:
            raw = fh.read()
        rows = list(csv.reader(raw.decode().splitlines()))[1:]
        got = {(round(float(s), 9), round(float(t), 9)) for s, t, _ in rows}
        _expect(got == want and len(rows) == len(want), "spec support differs")
        _expect(report["data"]["support_size"] == len(want), "support size")
        # every family writes the same bytes
        _expect(spec_bytes.setdefault("first", raw) == raw,
                "spec support differs between families")
    return check


def _pair_sub_check(report):
    _expect(report["data"]["max_range_commutator"] >= 0.1, "ranges commute")
    _expect(_check_value(report, "weak-weyl-defect") <= DEFECT_TOL,
            "weak-Weyl defect")


def _transfer_check(family_dim):
    def check(report):
        data = report["data"]
        _expect(data["equal"] and data["sampled_commutant_dim"]
                == data["family_commutant_dim"] == family_dim,
                f"transfer {data} against family commutant dim {family_dim}")
    return check


def quarterplane(w: _Writer, rng):
    p0 = [round(0.31 + 0.08 * float(rng.random()), 4) for _ in range(2)]
    ev = {"a": 0.3, "b": 0.4, "c": 0.3, "d": 0.4, "p0": p0}
    demo = fp.demo_family(KAPPA)
    families = [("demo", {"kind": "demo", "kappa": KAPPA},
                 demo.plist, demo.qlist)]
    for j, parts in enumerate(RANDOM_PARTS):
        plist = _random_projections(rng, parts)
        qlist = _random_projections(rng, parts)
        families.append((f"random{j}", {
            "kappa": KAPPA, "P": [_matrix_doc(m) for m in plist],
            "Q": [_matrix_doc(m) for m in qlist]}, plist, qlist))
    spec_bytes: dict = {}
    for name, fam, plist, qlist in families:
        fam_dim = _commutant_dim(plist + qlist)
        base = {"family": fam, "ev": ev}
        heat = w.path(f"field_rank_{name}.csv")
        w.op("counterexample", f"increasing_{name}.json",
             dict(base, sub="increasing", grid=FIELD_GRID,
                  heatmap=f"field_rank_{name}.csv"), _increasing_check(heat))
        w.op("counterexample", f"plateau_{name}.json",
             dict(base, sub="plateau", grid=FIELD_GRID, mmax=2, nmax=2),
             _plateau_check(ev, 2, 2))
        spec = w.path(f"spec_{name}.csv")
        w.op("counterexample", f"spec_{name}.json",
             dict(base, sub="spec", grid=FIELD_GRID, file=f"spec_{name}.csv"),
             _spec_check(spec, ev, spec_bytes))
        w.op("counterexample", f"pair_{name}.json",
             dict(base, sub="pair", grid=PAIR_GRID), _pair_sub_check)
        # the grid must reach every index of the family, and no further
        w.op("counterexample", f"transfer_{name}.json",
             dict(base, sub="transfer",
                  grid={"denominator": 2, "extent": float(len(plist) + 1)}),
             _transfer_check(fam_dim))
    evp = fp.EvaluationPoint(ev["a"], ev["b"], ev["c"], ev["d"], tuple(p0))
    big = []
    for name, _, plist, qlist in families[:BIG_PAIRS]:
        pair = fp.build_r2_pair(fp.ProjectionFamily(plist, qlist), evp,
                                BIG_PAIR_GRID)
        big.append((name, w.pair_file(f"quarterplane_{name}.json", pair),
                    plist, qlist))
    for name, path, plist, qlist in big[:2]:
        w.op("commutant", f"commutant_{name}.json", {"pair": path},
             _commutant_check(_commutant_dim(plist + qlist)))
    # tr(P_i Q_j) is a unitary invariant of a family, so a difference proves
    # two families, and the pairs they carry, inequivalent
    overlap = lambda ps, qs: np.array([[np.trace(p @ q).real for q in qs]
                                       for p in ps])
    for a, b in itertools.combinations(big, 2):
        _expect(np.abs(overlap(*a[2:]) - overlap(*b[2:])).max() > 1e-6,
                f"families {a[0]} and {b[0]} are equivalent")
        w.op("equiv", f"equiv_{a[0]}_{b[0]}.json",
             {"pair_a": a[1], "pair_b": b[1]}, _equiv_check(False))


WORKLOADS = {
    "canonical-check": canonical_check,
    "classify-dilate": classify_dilate,
    "quarterplane": quarterplane,
}


def build(name: str, seed: int, out: str) -> list[Op]:
    """Write the inputs of one workload and return its round of operations."""
    os.makedirs(out, exist_ok=True)
    w = _Writer(out, seed)
    tag = list(WORKLOADS).index(name)
    WORKLOADS[name](w, np.random.default_rng([tag, seed % (1 << 63)]))
    return w.ops

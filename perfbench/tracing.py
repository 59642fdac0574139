"""Spans and counts at the layer boundaries of weylpair, recorded from outside.

``Tracer.install`` wraps the public functions listed in ``_TARGETS`` and the
``numpy.linalg`` entry points, and patches each wrapper in wherever a
``weylpair`` module has bound the original name, so ``from .commutant import
summarize`` in ``cli`` is traced as well.  Nothing in the program changes:
a wrapper only records a span (name, start, end, parent) when the tracer is
active and otherwise calls straight through.

Spans stay in memory; ``round_metrics`` turns the spans of one round into
per-layer metrics and ``write_spans`` writes a round out when the run ends.
A span's self time is its duration minus the durations of its direct
children.  A layer's total time counts only its outermost spans, so a
``pair_from_json`` that calls ``matrix_from_json`` is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, span key).  An attribute "Class.method" is patched on
# the class.  Keys map to metrics in ``round_metrics``.
_TARGETS = [
    ("weylpair.lattice", "enumerate_pspaces", "lattice.enumerate"),
    ("weylpair.lattice", "PSet.__post_init__", "lattice.pset"),
    ("weylpair.pairs", "build_pspace_pair", "pairs.build"),
    ("weylpair.pairs", "direct_sum", "pairs.build"),
    ("weylpair.pairs", "WeylPair._check_grading", "pairs.build"),
    ("weylpair.pairs", "weyl_defect", "pairs.defect"),
    ("weylpair.pairs", "isometry_defect", "pairs.defect"),
    ("weylpair.pairs", "isometry_v", "pairs.isometry_v"),
    ("weylpair.pairs", "check_commuting_ranges", "pairs.ranges"),
    ("weylpair.commutant", "sylvester_nullspace", "commutant.nullspace"),
    ("weylpair.commutant", "summarize", "commutant.summarize"),
    ("weylpair.commutant", "unitarily_equivalent", "commutant.equiv"),
    ("weylpair.dilation", "decompose_full", "dilation.decompose"),
    ("weylpair.dilation", "minimal_dilation", "dilation.dilate"),
    ("weylpair.dilation", "CovariantRep.from_bundle", "dilation.family"),
    ("weylpair.dilation", "project_e", "dilation.family"),
    ("weylpair.dilation", "DilationBundle.w", "dilation.w"),
    ("weylpair.freeproduct", "check_increasing", "freeproduct.increasing"),
    ("weylpair.freeproduct", "build_r2_pair", "freeproduct.field"),
    ("weylpair.freeproduct", "commutant_transfer_check", "freeproduct.transfer"),
    ("weylpair.freeproduct", "spec_support", "freeproduct.support"),
    ("weylpair.freeproduct", "plateau", "freeproduct.support"),
    ("weylpair.cli", "export_heatmap", "serialize.write"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigh"),
]
_SERIALIZE = "weylpair.serialize"

#: CLI commands; each gets a ``cli.<command>_s`` metric.
COMMANDS = ["pspace-enum", "pair-build", "pair-check", "dilate", "decompose",
            "commutant", "equiv", "counterexample"]

# metric name -> (span key, what is measured): "total" sums the outermost
# spans of the key, "self" sums self times, "calls" counts spans.
_METRICS = {
    "lattice.enumerate_s": ("lattice.enumerate", "total"),
    "lattice.pset_s": ("lattice.pset", "total"),
    "lattice.psets": ("lattice.pset", "calls"),
    "pairs.build_s": ("pairs.build", "total"),
    "pairs.defect_s": ("pairs.defect", "total"),
    "pairs.defect_calls": ("pairs.defect", "calls"),
    "pairs.isometry_v_calls": ("pairs.isometry_v", "calls"),
    "pairs.ranges_s": ("pairs.ranges", "total"),
    "commutant.nullspace_s": ("commutant.nullspace", "total"),
    "commutant.nullspace_calls": ("commutant.nullspace", "calls"),
    "commutant.summarize_s": ("commutant.summarize", "total"),
    "commutant.equiv_s": ("commutant.equiv", "total"),
    "dilation.decompose_s": ("dilation.decompose", "self"),
    "dilation.dilate_s": ("dilation.dilate", "self"),
    "dilation.family_s": ("dilation.family", "total"),
    "dilation.w_calls": ("dilation.w", "calls"),
    "freeproduct.increasing_s": ("freeproduct.increasing", "total"),
    "freeproduct.field_s": ("freeproduct.field", "self"),
    "freeproduct.transfer_s": ("freeproduct.transfer", "total"),
    "freeproduct.support_s": ("freeproduct.support", "total"),
    "serialize.write_s": ("serialize.write", "total"),
    "serialize.read_s": ("serialize.read", "total"),
    "cli.self_s": ("cli", "self"),
    "linalg.svd_calls": ("linalg.svd", "calls"),
    "linalg.svd_s": ("linalg.svd", "total"),
    "linalg.norm2_calls": ("linalg.norm2", "calls"),
    "linalg.eigh_calls": ("linalg.eigh", "calls"),
}
for _cmd in COMMANDS:
    _METRICS[f"cli.{_cmd}_s"] = (f"cli.{_cmd}", "total")

#: Counted by the tracer beside the spans: sets enumerate_pspaces returned.
SETS_METRIC = "lattice.sets"


class Tracer:
    """Flat in-memory span store with one open-span stack."""

    def __init__(self):
        self.active = False
        self._keys: list[str] = []
        self._key_id: dict[str, int] = {}
        self.reset()

    def reset(self):
        self.key = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.sets = 0
        self._stack: list[int] = []
        self._depth = [0] * len(self._keys)

    def _kid(self, key: str) -> int:
        kid = self._key_id.get(key)
        if kid is None:
            kid = self._key_id[key] = len(self._keys)
            self._keys.append(key)
            self._depth.append(0)
        return kid

    def _call(self, kid, fn, args, kwargs):
        i = len(self.start)
        self.key.append(kid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._depth[kid] == 0)
        self.end.append(0.0)
        self._stack.append(i)
        self._depth[kid] += 1
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._depth[kid] -= 1
            self._stack.pop()

    def _wrap(self, fn, key: str):
        kid = self._kid(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            out = self._call(kid, fn, args, kwargs)
            if key == "lattice.enumerate":
                self.sets += len(out)
            return out

        return traced

    def _wrap_norm(self, norm):
        kid = self._kid("linalg.norm2")

        @functools.wraps(norm)
        def traced(x, ord=None, *args, **kwargs):
            if not self.active or ord != 2:
                return norm(x, ord, *args, **kwargs)
            return self._call(kid, norm, (x, ord) + args, kwargs)

        return traced

    def _wrap_main(self, main):
        kids = {cmd: self._kid(f"cli.{cmd}") for cmd in COMMANDS}

        @functools.wraps(main)
        def traced(argv=None):
            if not self.active:
                return main(argv)
            return self._call(kids[argv[0]], main, (argv,), {})

        return traced

    def _patch(self, original, wrapper):
        """Replace ``original`` wherever a weylpair module or numpy.linalg binds it."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "weylpair"
                                      or name.startswith("weylpair.")
                                      or name == "numpy.linalg")]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every traced entry point for the rest of the process; the
        program must already be imported."""
        import numpy.linalg

        for modname, attr, key in _TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, key))
                else:
                    wrapped = self._wrap(raw, key)
                setattr(cls, meth, wrapped)
            else:
                original = getattr(mod, attr)
                self._patch(original, self._wrap(original, key))
        ser = sys.modules[_SERIALIZE]
        for attr, fn in list(vars(ser).items()):
            if callable(fn) and attr.endswith("_to_json"):
                self._patch(fn, self._wrap(fn, "serialize.write"))
            elif callable(fn) and attr.endswith("_from_json"):
                self._patch(fn, self._wrap(fn, "serialize.read"))
        norm = numpy.linalg.norm
        self._patch(norm, self._wrap_norm(norm))
        main = sys.modules["weylpair.cli"].main
        self._patch(main, self._wrap_main(main))

    def round_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        nkeys = len(self._keys)
        total = [0.0] * nkeys
        self_t = [0.0] * nkeys
        calls = [0] * nkeys
        for i in range(n):
            k = self.key[i]
            dur = self.end[i] - self.start[i]
            calls[k] += 1
            self_t[k] += dur - child[i]
            if self.outer[i]:
                total[k] += dur
        by_key = {key: (total[k], self_t[k], calls[k])
                  for key, k in self._key_id.items()}
        cli_self = sum(self_t[k] for key, k in self._key_id.items()
                       if key.startswith("cli."))
        out = {SETS_METRIC: float(self.sets)}
        for metric, (key, what) in _METRICS.items():
            if key == "cli":
                out[metric] = cli_self
                continue
            t, s, c = by_key.get(key, (0.0, 0.0, 0))
            out[metric] = {"total": t, "self": s, "calls": float(c)}[what]
        return out

    def write_spans(self, path: str):
        """Write the recorded spans as JSON lines, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "parent": self.parent[i],
                    "name": self._keys[self.key[i]],
                    "start_s": round(self.start[i] - t0, 9),
                    "end_s": round(self.end[i] - t0, 9)}) + "\n")

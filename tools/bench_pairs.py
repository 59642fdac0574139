"""Paired benchmark runs of two git revisions, recorded as a BENCH file.

    python3 tools/bench_pairs.py PARENT CHANGE --tag NAME [--pairs 10]
        [--seed 0] [--seconds 20] [--workload W ...] [--section workloads]
        [--traced] [--what TEXT]

Runs ``python3 perfbench/run.py`` for PARENT and CHANGE in alternating
pairs: odd pairs run the parent first, even pairs the change first.  Every
run starts from a fresh ``git archive`` of its revision's committed files in
a temporary directory, so no output or cache of an earlier run is read.
With ``--traced`` one traced run (``--trace 1``) per side follows the pairs.

The summary goes to ``BENCH_<NAME>.json`` at the repository root, under
``--section``: per workload and metric, each side's runs with their median
and inclusive quartiles, the pairs the change won and the change of the
median in percent.  An existing file of the same two revisions keeps its
other sections, so a holdout seed can be added as a section of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = ["python3", "perfbench/run.py"]
SIDES = ("parent", "change")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_once(rev: str, seed: int, seconds: float, workloads, trace: int) -> dict:
    """One run of the benchmark on a fresh archive of ``rev``:
    {workload: the result object ``perfbench/run.py`` printed}."""
    work = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", work], input=archive, check=True)
        results = {}
        for name in workloads or [None]:
            cmd = COMMAND + ["--seed", str(seed), "--seconds", str(seconds),
                             "--trace", str(trace)]
            if name is not None:
                cmd += ["--workload", name]
            proc = subprocess.run(cmd, cwd=work, text=True,
                                  stdout=subprocess.PIPE)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                sys.exit(f"bench_pairs: {' '.join(cmd)} failed on {rev}")
            if name is not None:
                results[name] = json.loads(lines[-1])
            else:
                for line in lines:
                    doc = json.loads(line)
                    results[doc.pop("workload")] = doc
        return results
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _stats(runs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(r, 4) for r in runs]}


def summarize(pairs: list[dict], better: dict | None = None) -> dict:
    """The summary of paired runs.

    ``pairs`` holds one {"parent": results, "change": results} per pair,
    where results maps each workload to the object ``perfbench/run.py``
    printed for it.  ``better`` maps a metric to "lower" or "higher" (lower
    when missing).  Per workload: for every metric, both sides' runs with
    median and inclusive quartiles, ``change_better_pairs`` (pairs where the
    change is strictly better) and ``median_change_pct``; ``correct`` (every
    run of both sides), and ``failed`` and ``attempted`` summed per side.
    """
    better = better or {}
    out = {}
    for name in pairs[0]["parent"]:
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        entry = {}
        for metric, first in sides["parent"][0]["metrics"].items():
            runs = {side: [r["metrics"][metric]["value"] for r in sides[side]]
                    for side in SIDES}
            sign = -1 if better.get(metric, "lower") == "higher" else 1
            won = sum(sign * c < sign * p
                      for p, c in zip(runs["parent"], runs["change"]))
            base, new = (statistics.median(runs[side]) for side in SIDES)
            entry[metric] = {
                "unit": first["unit"],
                **{side: _stats(runs[side]) for side in SIDES},
                "change_better_pairs": won,
                "median_change_pct": round(100 * (new / base - 1), 1) if base else None}
        entry["correct"] = all(r["correct"] for side in SIDES
                               for r in sides[side])
        for key in ("failed", "attempted"):
            entry[key] = {side: sum(r[key] for r in sides[side])
                          for side in SIDES}
        out[name] = entry
    return out


def traced_summary(parent: dict, change: dict) -> dict:
    """Per workload and per-layer metric: the traced value of each side."""
    return {name: {metric: {"parent": round(parent[name]["metrics"][metric]["value"], 4),
                            "change": round(change[name]["metrics"][metric]["value"], 4)}
                   for metric in sorted(parent[name]["metrics"])}
            for name in parent}


def machine() -> dict:
    import numpy

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_thread_cap": f"WEYLPAIR_THREADS={run.THREADS} (set by "
                               "perfbench/run.py, which drops "
                               "OMP/OPENBLAS/MKL_NUM_THREADS)"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--tag", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--section", default="workloads")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    revs = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.parent, args.change))}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(revs[side], args.seed, args.seconds,
                               args.workload, 0) for side in order}
        pairs.append(pair)
        print(f"bench_pairs: pair {i + 1}/{args.pairs} done", file=sys.stderr)
    section = {"settings": {"seed": args.seed, "seconds": args.seconds,
                            "pairs": args.pairs, "trace": 0},
               **summarize(pairs, better)}
    if args.traced:
        traced = {side: run_once(revs[side], args.seed, args.seconds,
                                 args.workload, 1) for side in SIDES}
        section["traced"] = traced_summary(traced["parent"], traced["change"])

    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    doc = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if (doc.get("parent"), doc.get("change")) != (revs["parent"], revs["change"]):
            sys.exit(f"bench_pairs: {path} records other revisions")
    doc.update({
        "what": args.what or doc.get("what", ""),
        "command": " ".join(COMMAND),
        "parent": revs["parent"], "change": revs["change"],
        "machine": machine(),
        "method": "alternating pairs of full runs, odd pairs parent first, "
                  "even pairs change first; each run from a fresh git archive "
                  "of its revision (tools/bench_pairs.py). Medians and "
                  "inclusive quartiles are over each side's runs; "
                  "change_better_pairs counts pairs where the change reads "
                  "better. Each section records its settings; traced holds "
                  "one --trace 1 run per side after the pairs.",
        args.section: section,
    })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

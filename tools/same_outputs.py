"""Compare what two git revisions print and write, operation by operation.

    python3 tools/same_outputs.py REV_A REV_B --seed N [--seed M]
        [--workload W ...] [--out DIR]

For each revision, a fresh ``git archive`` of its committed files runs one
round of every benchmark workload (``perfbench/workloads.py``) in-process
through ``weylpair.cli.main``, with the benchmark's thread cap.  After each
operation it records a digest: the SHA-256 of stdout, the exit code (or the
exception raised), the name and value of every check of the printed JSON
report, and the SHA-256 of every file under the output directory.  Where
stdout differs, each check whose value changed is listed as old → new.
Both revisions write into the same output directory, emptied before each
run, because scenario files name pair files by absolute path.

It also runs every ``demos/`` script of each revision once and compares
their exit codes and the SHA-256 of their stdout: the covariant layer of a
dilation (``CovariantRep``, ``joint_spectrum``, ``extend_u``,
``compress_to_base``) runs in no workload, and only the demos print it.

Exits 0 when every digest agrees and 1 after listing the operations and
demos that differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["canonical-check", "classify-dilate", "quarterplane"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(out: str) -> dict:
    """SHA-256 of every file under ``out``, by path relative to it."""
    found = {}
    for top, _, names in os.walk(out):
        for name in names:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = _sha(fh.read())
    return dict(sorted(found.items()))


def _checks(stdout: str) -> list:
    """[name, value] of every check of a printed JSON report, in report
    order; none when stdout is not such a report."""
    try:
        checks = json.loads(stdout).get("checks", [])
    except ValueError:
        return []
    return [[c["name"], c["value"]] for c in checks]


def digest_round(tree: str, workload: str, seed: int, out: str) -> list[dict]:
    """One round of ``workload`` from the sources under ``tree``, writing
    into ``out``: one digest per operation."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    from weylpair import cli
    from workloads import build

    digests = []
    for op in build(workload, seed, out):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main([op.command, "--scenario", op.scenario,
                                 "--out", out])
        except Exception as err:  # recorded, as the benchmark counts it
            code = f"raised {type(err).__name__}: {err}"
        digests.append({"op": f"{op.command} {os.path.basename(op.scenario)}",
                        "code": code,
                        "stdout": _sha(buf.getvalue().encode()),
                        "checks": _checks(buf.getvalue()),
                        "files": _files(out)})
    return digests


@contextlib.contextmanager
def _checkout(rev: str):
    """A fresh archive of ``rev`` in a temporary directory, and the
    environment that runs it with the benchmark's thread cap."""
    tree = tempfile.mkdtemp(prefix="same_outputs_")
    try:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        env = dict(os.environ, WEYLPAIR_THREADS="1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env.pop(var, None)
        yield tree, env
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def run_revision(rev: str, workload: str, seed: int, out: str) -> list[dict]:
    """The digests of one round of ``workload`` on a fresh archive of
    ``rev``, run in its own interpreter."""
    with _checkout(rev) as (tree, env):
        shutil.rmtree(out, ignore_errors=True)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--digest", tree,
                 "--workload", workload, "--seed", str(seed), "--out", out],
                cwd=tree, env=env, check=True, stdout=subprocess.PIPE,
                text=True)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return json.loads(proc.stdout)


def run_demos(rev: str) -> dict:
    """The exit code and the SHA-256 of stdout of every ``demos/`` script
    of a fresh archive of ``rev``, by script name."""
    with _checkout(rev) as (tree, env):
        env["PYTHONPATH"] = os.path.join(tree, "src")
        demos = os.path.join(tree, "demos")
        found = {}
        for name in sorted(os.listdir(demos)):
            if name.endswith(".py"):
                proc = subprocess.run([sys.executable, os.path.join(demos, name)],
                                      cwd=tree, env=env, stdout=subprocess.PIPE)
                found[name] = [proc.returncode, _sha(proc.stdout)]
        return found


def compare(a: list[dict], b: list[dict]) -> list[str]:
    """What differs between two rounds of digests, one line per operation:
    the exit code, stdout with each check value changed, and each file
    changed, added or missing."""
    lines = []
    if len(a) != len(b):
        lines.append(f"{len(a)} operations against {len(b)}")
    for i, (x, y) in enumerate(zip(a, b)):
        what = []
        if x["op"] != y["op"]:
            what.append(f"operation {y['op']}")
        if x["code"] != y["code"]:
            what.append(f"exit code {x['code']} against {y['code']}")
        if x["stdout"] != y["stdout"]:
            old = dict(x["checks"])
            changed = [f"{name} {old[name]!r} → {value!r}"
                       for name, value in y["checks"]
                       if name in old and old[name] != value]
            what.append("stdout" + (f" ({', '.join(changed)})" if changed else ""))
        names = sorted(x["files"].keys() | y["files"].keys())
        what += [f"file {name}" for name in names
                 if x["files"].get(name) != y["files"].get(name)]
        if what:
            lines.append(f"#{i} {x['op']}: " + ", ".join(what))
    return lines


def compare_demos(a: dict, b: dict) -> list[str]:
    """What differs between the demo runs of two revisions, one line per
    script: a script of one revision only, the exit code or stdout."""
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"{name}: in one revision only")
        elif a[name][0] != b[name][0]:
            lines.append(f"{name}: exit code {a[name][0]} against {b[name][0]}")
        elif a[name][1] != b[name][1]:
            lines.append(f"{name}: stdout")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revs", nargs="*", metavar="REV")
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", default=os.path.join(tempfile.gettempdir(),
                                                      "weylpair_same_outputs"))
    parser.add_argument("--digest", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digest:
        json.dump(digest_round(args.digest, args.workload[0], args.seed[0],
                               args.out), sys.stdout)
        return 0
    if len(args.revs) != 2:
        parser.error("two revisions are needed")
    differ = False

    def report(what: str, lines: list[str]):
        nonlocal differ
        differ = differ or bool(lines)
        print(f"{what}, {'identical' if not lines else f'{len(lines)} differ'}")
        for line in lines:
            print(f"  {line}")

    for seed in args.seed:
        for workload in args.workload or WORKLOADS:
            a, b = (run_revision(rev, workload, seed, args.out)
                    for rev in args.revs)
            report(f"seed {seed} {workload}: {len(b)} operations", compare(a, b))
    a, b = (run_demos(rev) for rev in args.revs)
    report(f"demos: {len(b)} scripts", compare_demos(a, b))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the weylpair command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]   # every workload

Run from the repository root; weylpair is imported from ``src/``.  A
workload writes seeded scenario files (``workloads.py``), then repeats one
round of CLI invocations (each run in-process through ``weylpair.cli.main``,
stdout captured) until ``--seconds`` of operations have been timed.  Round 1
checks every report and artifact; later rounds must reproduce round 1's
reports byte for byte.  Set-up time is the median over several fresh
interpreters.  With ``--trace 1`` round 1 runs untraced and later rounds
record spans at the layer boundaries (``tracing.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
traced).  Without ``--workload`` each workload runs in its own process, one
at a time, and prints its own line.  Outputs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ["canonical-check", "classify-dilate", "quarterplane"]
#: BLAS threads for every workload (WEYLPAIR_THREADS).
THREADS = "1"
#: Fresh interpreters timed for setup_s, one before the first round, one
#: after each round and the rest after the last; the median is reported.
#: Spreading them over the run keeps a short burst of load on the machine
#: from moving every sample at once.
SETUP_SAMPLES = 5
#: Rounds per run at least: a traced run needs an untraced reference round
#: and traced rounds, and 3 rounds give every workload >= 100 operations.
MIN_ROUNDS = 3


def _invoke(cli, op, out):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([op.command, "--scenario", op.scenario, "--out", out])
    return code, buf.getvalue()


def _setup(name, seed, out):
    """Import weylpair, write the inputs, run the first operation untimed."""
    import weylpair

    if os.path.dirname(os.path.abspath(weylpair.__file__)) != os.path.join(SRC, "weylpair"):
        sys.exit(f"perfbench: weylpair imported from {weylpair.__file__}, not src/")
    from weylpair import cli
    from workloads import build

    ops = build(name, seed, out)
    _invoke(cli, ops[0], out)
    return ops


def _time_setup(name, seed):
    """Seconds from starting a fresh interpreter to inputs ready."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit(f"perfbench: set-up of {name} failed:\n{proc.stderr}")
    return time.perf_counter() - t0


def _judge(op, code, text, exc, ref):
    """None if the operation did what its input calls for, else (wrong, why):
    ``wrong`` marks a wrong output, as against a raise or a wrong exit code.
    ``ref`` is the operation's round-1 (report, verdict), None in round 1; a
    later round repeats round 1's verdict when it repeats its report."""
    from workloads import WrongOutput

    if exc is not None:
        return False, f"raised {type(exc).__name__}: {exc}"
    if code != op.expect_code:
        return False, f"exit code {code}, expected {op.expect_code}: {text[:300]}"
    if ref is not None:
        return ref[1] if text == ref[0] else (True, "report differs from round 1")
    try:
        op.check(json.loads(text))
    except (WrongOutput, KeyError, TypeError, ValueError) as err:
        return True, f"{type(err).__name__}: {err}"
    return None


def _round_s(latencies, n):
    """One round of ``n`` operations, as the sum of each operation's median
    latency over the rounds: a burst of load on the machine during one
    round moves single latencies, not this figure."""
    return sum(statistics.median(latencies[i::n]) for i in range(n))


def _output_bytes(text):
    report = json.loads(text)
    return len(text) + sum(os.path.getsize(a) for a in report.get("artifacts", []))


def measure(name, seed, seconds, trace):
    """Run one workload; returns the result object printed as the last line."""
    setup = [] if trace else [_time_setup(name, seed)]
    out = os.path.join(OUT, name, "run")
    ops = _setup(name, seed, out)
    from weylpair import cli
    from tracing import Tracer

    n = len(ops)
    tracer = Tracer() if trace else None
    refs, latencies, layers = [], [], []
    failed = 0
    wrong = False
    output_bytes = 0
    rounds = 0
    while rounds < MIN_ROUNDS or sum(latencies) < seconds:
        traced = trace and rounds > 0
        if traced:
            if rounds == 1:
                tracer.install()
            tracer.reset()
        for i, op in enumerate(ops):
            exc = code = None
            text = ""
            if traced:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                code, text = _invoke(cli, op, out)
            except Exception as err:  # an operation that raises is counted as failed
                exc = err
            latencies.append(time.perf_counter() - t0)
            if traced:
                tracer.active = False
            verdict = _judge(op, code, text, exc, refs[i] if rounds else None)
            if verdict is not None:
                failed += 1
                wrong = wrong or verdict[0]
                if not rounds or verdict is not refs[i][1]:
                    print(f"perfbench: {op.command} {os.path.basename(op.scenario)}: "
                          f"{verdict[1]}", file=sys.stderr)
            if not rounds:
                refs.append((text, verdict))
                if code is not None:
                    output_bytes += _output_bytes(text)
        rounds += 1
        if traced:
            layers.append(tracer.round_metrics())
        if not trace and len(setup) < SETUP_SAMPLES:
            setup.append(_time_setup(name, seed))

    if trace:
        tracer.write_spans(os.path.join(OUT, name, "spans.jsonl"))
        metrics = {k: {"value": statistics.median(r[k] for r in layers),
                       "unit": "s" if k.endswith("_s") else "count"}
                   for k in layers[0]}
        metrics["serialize.output_mb"] = {"value": output_bytes / 1e6, "unit": "MB"}
        metrics["traced.wall_s"] = {"value": _round_s(latencies[n:], n), "unit": "s"}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        while len(setup) < SETUP_SAMPLES:
            setup.append(_time_setup(name, seed))
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": _round_s(latencies, n), "unit": "s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_ms_p90": {"value": 1e3 * statistics.quantiles(latencies, n=10)[8],
                          "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    return {"correct": not wrong, "attempted": len(latencies), "failed": failed,
            "metrics": metrics}


def _run_all(args):
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            code = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weylpair", "__init__.py")):
        sys.exit(f"perfbench: no weylpair sources under {SRC}")
    # WEYLPAIR_THREADS must decide the BLAS pools, so drop inherited caps
    os.environ["WEYLPAIR_THREADS"] = THREADS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    if args.workload is None:
        return _run_all(args)
    if args.setup_only:
        _setup(args.workload, args.seed, os.path.join(OUT, args.workload, "setup"))
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

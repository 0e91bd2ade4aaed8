"""One workload process: set up, run timed passes, check every output.

    python3 bench/child.py --workload W --seed N --seconds T --trace 0|1 --t0 T0 [--setup-only]

`--t0` is the parent's `time.monotonic()` just before it started this
process; set-up time runs from there to the start of the first timed pass,
so it covers interpreter start, `import nlbvp`, document generation and the
warm-up command.  The last line of standard output is one JSON record.

With `--trace 0` every pass is untraced.  With `--trace 1` the first half of
the window runs untraced passes and the second half traced ones; the
difference of their median pass times is the tracing overhead.

Times are scaled to a nominal machine speed.  On a shared 2-vCPU 2.1 GHz
Xeon host the same pass took anywhere from 1x to 1.5x its fastest time, and
the slow share drifted over minutes, moving run medians by up to 40% within
20 minutes; scaling halved the run-to-run spread of the medians there.  A
fixed calibration loop (`calibrate`, no `nlbvp` code) is timed right before
and after every pass and after set-up; each wall time is multiplied by
REFERENCE_S / (calibration time), i.e. reported as it would read on a
machine that runs the loop in REFERENCE_S.  Raw wall times stay in the
record (`wall_s`, `setup_wall_s`).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, "work")
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_S = 0.2  # seconds: about the median calibrate() time on one 2.1 GHz Xeon vCPU
sys.path.insert(0, SRC)


class NotInCheckout(Exception):
    """`nlbvp` could not be imported from this checkout's `src/`."""


def import_nlbvp():
    """Import `nlbvp.cli` from this checkout's sources, never from elsewhere."""
    try:
        import nlbvp.cli
    except ImportError as exc:
        raise NotInCheckout(f"cannot import nlbvp from {SRC}: {exc}") from exc
    origin = os.path.dirname(os.path.abspath(nlbvp.__file__))
    if origin != os.path.join(SRC, "nlbvp"):
        raise NotInCheckout(f"nlbvp was imported from {origin}, not from {SRC}")
    return nlbvp.cli


def run_op(cli, argv):
    """Run one command; returns (exit code, seconds, captured stderr)."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, time.perf_counter() - start, err.getvalue()


def check_op(op, code, stderr):
    """None when the operation succeeded; otherwise (kind, message)."""
    if code != 0:
        return "exit", f"exit code {code}, expected 0: {stderr.strip()[-300:]}"
    try:
        op.check(op.out)
    except workloads.CheckFailed as exc:
        return "check", str(exc)
    except Exception as exc:  # an unreadable output is a failed check too
        return "check", f"{type(exc).__name__}: {exc}"
    return None


def calibrate():
    """Seconds taken by a fixed mix of dict updates and small numpy ops, the
    kinds of work `nlbvp` spends its time on."""
    start = time.perf_counter()
    counts = {}
    for i in range(800000):
        key = i % 1021  # few keys: the loop must not raise the peak RSS
        counts[key] = counts.get(key, 0.0) + 1.0
    x = np.arange(3000.0)
    for _ in range(10000):
        x = x * 0.5 + 1.0
    return time.perf_counter() - start


def run_pass(cli, ops, tracer=None):
    """One timed pass over the operations, then their checks (untimed)."""
    before = calibrate()
    results = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    if tracer is None:
        for op in ops:
            results.append(run_op(cli, op.argv))
    else:
        with tracing.instrument(tracer):
            for op in ops:
                first_form = len(tracer.forms)
                results.append(run_op(cli, op.argv))
                op.forms = tracer.forms[first_form:]
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    ref = (before + calibrate()) / 2.0
    scaled = wall * REFERENCE_S / ref
    outcomes = []
    for op, (code, seconds, stderr) in zip(ops, results):
        failure = check_op(op, code, stderr)
        outcomes.append({"op": op.name, "exit": code, "seconds": seconds, "failure": failure})
    ok_nodes = sum(op.nodes for op, o in zip(ops, outcomes) if o["failure"] is None)
    return {
        "pass_s": scaled,
        "nodes_per_s": ok_nodes / scaled,
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_s": ref,
        "ops": outcomes,
    }


def run_record():
    """Environment facts every run records."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "NLBVP_BENCH_THREADS_unset": "NLBVP_BENCH_THREADS" not in os.environ,
    }


def scaled_setup(t0):
    """Set-up time up to now, raw and scaled by a calibration taken right after."""
    wall = time.monotonic() - t0
    return {"setup_s": wall * REFERENCE_S / calibrate(), "setup_wall_s": wall}


def measure(args, cli, ops):
    passes, traced, tracers = [], [], []
    setup = scaled_setup(args.t0)
    start = time.monotonic()
    untraced_until = start + (args.seconds / 2.0 if args.trace else args.seconds)
    while not passes or time.monotonic() < untraced_until:
        passes.append(run_pass(cli, ops))
    while args.trace and (not traced or time.monotonic() < start + args.seconds):
        tracer = tracing.Tracer()
        traced.append(run_pass(cli, ops, tracer))
        tracers.append(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    everything = passes + traced
    record = {
        "workload": args.workload,
        "seed": args.seed,
        **setup,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "attempted": sum(len(p["ops"]) for p in everything),
        "failed": sum(o["failure"] is not None for p in everything for o in p["ops"]),
        "correct": all(o["failure"] is None or o["failure"][0] != "check" for p in everything for o in p["ops"]),
        "op_sizes": [{"op": op.name, "nodes": op.nodes, "seeded": op.seeded, "forms": op.forms} for op in ops],
        "environment": run_record(),
    }
    if args.trace:
        layers = [t.metrics() for t in tracers]
        counts = {k: layers[0][k] for k in tracing.COUNTERS}
        record["traced"] = traced
        record["counts_repeat"] = all({k: m[k] for k in tracing.COUNTERS} == counts for m in layers)
        record["layers"] = {
            k: (statistics.median(m[k] for m in layers) if k in tracing.TIME_METRICS else counts[k])
            for k in layers[0]
        }
        record["spans"] = [t.spans for t in tracers]
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        cli = import_nlbvp()
    except NotInCheckout as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        ops = workloads.operations(args.workload, workdir, args.seed)
        code, _, stderr = run_op(cli, workloads.warmup_argv(args.workload, workdir))
        if code != 0:
            sys.stderr.write(f"error: warm-up command failed: {stderr}\n")
            return 1
        if args.setup_only:
            record = scaled_setup(args.t0)
        else:
            record = measure(args, cli, ops)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

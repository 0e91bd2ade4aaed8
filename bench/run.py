"""nlbvp benchmark: three CLI workloads, end-to-end metrics or a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; `nlbvp` is imported from its `src/`.
Workloads (see workloads.py and BENCHMARK.json):

    cube3d_bench       nlbvp bench --d 3 --h 1/8,1/16
    square2d_diagnose  nlbvp diagnose, 2-D stencil documents, h = 1/16..1/48
    quadrature_solve   nlbvp solve, Neumann + regularized quadrature documents

Each workload runs in its own process (child.py), closed loop, one pass
after another over the workload's operations for the given seconds.  Times
are scaled to a nominal machine speed by a calibration loop timed around
every pass (see child.py); unscaled values are printed alongside.  With
`--trace 0` the last output line reports the end-to-end metrics; set-up is
repeated in SETUP_PROBES extra processes and reported as the median.  With
`--trace 1` it reports the per-layer metrics of the traced passes and the
tracing overhead.  Human-readable lines come first; a run record with every
pass, the operations' sizes and (traced) the spans is written to bench/out/.

An operation fails when it exits with an unexpected code or its output fails
its check; `failed` counts both.  `correct` is false only when an output
fails its check, that is, when a command that reported success was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from child import BENCH_DIR, BLAS_THREAD_ENV, ROOT
from workloads import WORKLOADS

OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0  # the whole run, children included


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("NLBVP_BENCH_THREADS", None)  # the bench command stays single-threaded
    for name in BLAS_THREAD_ENV:
        env[name] = "1"
    return env


def run_child(args, deadline, setup_only):
    command = [
        sys.executable,
        os.path.join(BENCH_DIR, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        command + ["--t0", repr(t0)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("workload process ran past the time limit")
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(record, setups):
    passes = record["passes"]
    failed_ratio = record["failed"] / record["attempted"]
    n = len(passes)
    setup_wall = statistics.median(s["setup_wall_s"] for s in setups)
    wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "setup_s": (
            statistics.median(s["setup_s"] for s in setups),
            "s",
            f"median of {len(setups)} set-ups; unscaled {setup_wall:.4g} s",
        ),
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s", f"median of {n} passes; unscaled {wall:.4g} s"),
        "nodes_per_s": (statistics.median(p["nodes_per_s"] for p in passes), "1/s", f"median of {n} passes"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
        # the success share: a metric must never read 0, and the failed
        # share does on two workloads (it is printed alongside)
        "ops_ok_ratio": (1.0 - failed_ratio, "ratio", f"{record['attempted']} operations"),
    }, failed_ratio


def layers(record):
    untraced = statistics.median(p["pass_s"] for p in record["passes"])
    traced = statistics.median(p["pass_s"] for p in record["traced"])
    out = {
        name: (value, "s" if name.endswith("_s") else "count")
        for name, value in record["layers"].items()
    }
    out["trace.pass_untraced_s"] = (untraced, "s")
    out["trace.pass_traced_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "nlbvp", "__init__.py")):
        sys.stderr.write(f"error: no nlbvp sources under {ROOT}/src; run from a checkout\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_child(args, deadline, setup_only=True))
        record = run_child(args, deadline, setup_only=False)
    except (ChildFailed, json.JSONDecodeError, IndexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    setups.append({k: record[k] for k in ("setup_s", "setup_wall_s")})
    record["setup_samples"] = setups
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(record, handle)

    print(f"workload {args.workload}  seed {args.seed}  environment {json.dumps(record['environment'])}")
    for entry in record["op_sizes"]:
        print(f"  op {entry['op']}: nodes {entry['nodes']}, seeded {entry['seeded']}, forms (n, nnz) {entry['forms']}")
    everything = record["passes"] + record.get("traced", [])
    failures = {(o["op"], *o["failure"]) for p in everything for o in p["ops"] if o["failure"]}
    for op, kind, message in sorted(failures):
        print(f"  failed {op} ({kind}): {message}")
    if args.trace:
        metrics = layers(record)
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:28s} {value:14.6g} {unit}")
        print(f"  counters repeat across traced passes: {record['counts_repeat']}")
    else:
        table, failed_ratio = end_to_end(record, setups)
        for metric, (value, unit, samples) in table.items():
            print(f"  {metric:16s} {value:14.6g} {unit:6s} ({samples})")
        print(f"  {'ops_failed_ratio':16s} {failed_ratio:14.6g} {'ratio':6s} ({record['attempted']} operations)")
        metrics = {metric: (value, unit) for metric, (value, unit, _) in table.items()}
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One operation runs per fresh child process (``child.py``); this process
spawns them back to back while the next one is expected to end no later
than half an operation past ``--seconds`` (at least ``MIN_OPS``), so a
run lasts ``--seconds`` on average, then spawns set-up-only children
until there are ``SETUP_SAMPLES`` set-up timings.  It imports nothing
from the package itself.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, each the median over its samples:

``run_s``        wall seconds of the timed call
``setup_s``      spawn of a fresh interpreter to the end of set-up
``peak_rss_mb``  peak resident memory of the child plus its largest child

With ``--trace 1`` untraced and traced operations alternate, and the
JSON carries the per-layer metrics (medians over traced operations) plus
three medians over the untraced ones: ``trace.overhead_ratio``, traced
over untraced ``run_s``; ``service.resume_s``, the service workload's
resume pass (0 on the engine workloads, which have none); and
``runtime.cpu_s``, CPU seconds of the child and its reaped children over
the timed call.
``--all`` runs every workload untraced and prints one table.

Exits non-zero, printing no result, when an operation cannot even start
(for instance without ``src/`` beside this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKROOT = ROOT / ".perfbench_work"

WORKLOADS = (
    "cannon_oneport_p4096",
    "3d_all_multiport_p4096",
    "3dd_regionmap_p32768",
    "service_regionmap_jobs",
)
#: untraced operations per run, at the least
MIN_OPS = 2
#: set-up timings per run (operations count, probes make up the rest)
SETUP_SAMPLES = 5
#: a child still running after this many seconds is killed
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """An operation could not run at all; the benchmark has no result."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # One BLAS thread: the two service workers already fill a 2-CPU host.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, mode, trace, workdir) -> tuple[float, dict | None]:
    """Run one child; returns (set-up seconds, its JSON record or None)."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    setup_s = None
    lines = []
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - started
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or setup_s is None:
        raise BenchError(f"{workload} {mode} child exited with code {code}")
    record = json.loads(lines[-1]) if mode == "op" else None
    return setup_s, record


def declared_metrics(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(workload, seed, seconds, trace) -> dict:
    """All children of one run, and the aggregated result object."""
    workdir = WORKROOT / str(os.getpid())
    setups, plain, traced, walls = [], [], [], []
    started = time.perf_counter()
    try:
        # Start another operation while it is expected to end no later
        # than half an operation past the budget, so a run lasts
        # ``seconds`` on average whatever the host's speed, and holds as
        # many operations as fit.  Untraced runs take at least MIN_OPS
        # operations: host speed swings from one operation to the next,
        # and a median of one sample (the 3dd cell takes most of the
        # budget) carries it whole.  With tracing, at least one operation
        # of each kind.
        while (
            len(plain) < (1 if trace else MIN_OPS)
            or (trace and not traced)
            or time.perf_counter() - started + statistics.median(walls) / 2
            <= seconds
        ):
            tracing = trace and len(traced) < len(plain)
            op_started = time.perf_counter()
            setup_s, record = spawn(
                workload, seed, "op", int(tracing), workdir
            )
            walls.append(time.perf_counter() - op_started)
            setups.append(setup_s)
            (traced if tracing else plain).append(record)
        if not trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(workload, seed, "probe", 0, workdir)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKROOT.rmdir()
        except OSError:
            pass
    records = plain + traced
    for record in records:
        for problem in record["problems"]:
            print(f"{workload}: FAILED CHECK: {problem}", file=sys.stderr)

    def med(key, rows):
        return statistics.median(r[key] for r in rows)

    resumes = [r["resume_s"] for r in plain if "resume_s" in r]
    if trace:
        # median_low: an observed value, so counts stay whole numbers
        values = {
            name: statistics.median_low(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_ratio"] = med("run_s", traced) / med(
            "run_s", plain
        )
        values["service.resume_s"] = (
            statistics.median(resumes) if resumes else 0.0
        )
        values["runtime.cpu_s"] = med("cpu_s", plain)
        declared = declared_metrics("per_layer")
    else:
        values = {
            "run_s": med("run_s", plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": med("peak_rss_mb", plain),
        }
        declared = declared_metrics("end_to_end")
    if set(values) != set(declared):
        raise BenchError(
            f"measured {sorted(values)} but BENCHMARK.json declares "
            f"{sorted(declared)}"
        )
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    summary = {
        "ops": len(plain),
        "traced_ops": len(traced),
        "setup_samples": len(setups),
        "failed_ratio": failed / attempted,
    }
    if resumes:
        summary["resume_s"] = statistics.median(resumes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "summary": summary,
    }


def _print_table(workload, result) -> None:
    summary = result["summary"]
    print(f"== {workload}: {summary['ops']} untraced ops, "
          f"{summary['traced_ops']} traced ops, "
          f"{summary['setup_samples']} set-up samples, "
          f"failed_ratio {summary['failed_ratio']:.3f} "
          f"({result['failed']}/{result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"   {name:42s} {metric['value']:14.6g} {metric['unit']}")
    if "resume_s" in summary:
        print(f"   {'resume_s (median)':42s} {summary['resume_s']:14.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    # Terminated from outside: unwind, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if args.all:
            results = {}
            for workload in WORKLOADS:
                results[workload] = measure(
                    workload, args.seed, args.seconds, bool(args.trace)
                )
                _print_table(workload, results[workload])
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_table(args.workload, result)
    del result["summary"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

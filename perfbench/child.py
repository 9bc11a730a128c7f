"""One benchmark operation in a fresh interpreter (spawned by ``run.py``).

A fresh process per operation makes every timed call what a user's run
is: cold interpreter, nothing cached from an earlier call, no drift from
repeats inside one process.  It also makes each operation a set-up
sample: ``run.py`` times from spawning this process to the ``READY``
line printed after set-up.

Protocol on standard output: ``READY`` once set-up is done, then (in
``op`` mode) one JSON line with the measurements.  Everything else goes
to standard error.

    python3 perfbench/child.py --workload NAME --seed N --mode op|probe \
        --trace 0|1 --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import resource
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_repro():
    """Import ``repro`` from this checkout's ``src/``, and only from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    where = pathlib.Path(repro.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"perfbench: imported repro from {where}, not {SRC}")
    return repro


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_op(workload, seed, workdir, *, trace=False, ready=lambda: None):
    """Set up ``workload``, time one call, check it; returns the record.

    With ``trace`` the layer wrappers are installed before set-up (so
    ``SweepService.__init__`` is seen) and the per-layer metrics cover
    set-up, the timed call and the resume pass.  An exception in the
    timed call or the check counts every operation of the call as failed.
    """
    from tracer import Tracer

    tracer = Tracer(workload.algorithms) if trace else None
    with tracer or contextlib.nullcontext():
        try:
            return _measure(workload, seed, workdir, tracer, ready)
        finally:
            workload.close()


def _measure(workload, seed, workdir, tracer, ready) -> dict:
    workload.setup(seed, workdir)
    ready()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    record = {}
    try:
        out = workload.timed()
        record["run_s"] = time.perf_counter() - started
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        record["cpu_s"] = (_cpu(self1) - _cpu(self0)) + (
            _cpu(kids1) - _cpu(kids0)
        )
        out = workload.after(out)
        attempted, failed, problems = workload.check(out)
    except Exception:  # noqa: BLE001 - a raising operation is a failure
        record.setdefault("run_s", time.perf_counter() - started)
        record.setdefault("cpu_s", 0.0)
        attempted = failed = workload.ops_per_call
        problems = [traceback.format_exc()]
    record.update(attempted=attempted, failed=failed, problems=problems)
    if hasattr(workload, "resume_s"):
        record["resume_s"] = workload.resume_s
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    record["peak_rss_mb"] = peak_kb / 1024.0
    if tracer is not None:
        record["layers"] = tracer.layers(
            direct_s=getattr(workload, "direct_s", 0.0),
            counters=getattr(getattr(workload, "service", None),
                             "counters", None),
        )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("op", "probe"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    import_repro()
    import workloads

    workload = workloads.build(args.workload)

    def ready():
        print("READY", flush=True)

    if args.mode == "probe":
        try:
            workload.setup(args.seed, args.workdir)
            ready()
        finally:
            workload.close()
        return 0
    record = run_op(
        workload, args.seed, args.workdir, trace=bool(args.trace), ready=ready
    )
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

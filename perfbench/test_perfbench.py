"""The benchmark's own tests: failures are counted, wrappers are undone.

    python3 -m pytest perfbench -q

Each test drives ``child.run_op`` (what one benchmark child process does)
on a machine small enough to simulate in well under a second.
"""

from __future__ import annotations

import pytest

from child import import_repro, run_op

import_repro()

from repro.sim import PortModel  # noqa: E402
from tracer import Tracer, _targets  # noqa: E402
from workloads import (  # noqa: E402
    AlgorithmWorkload,
    RegionMapCellWorkload,
    ServiceWorkload,
)

#: a 4x4 lattice keeps each analytic region-map job a few milliseconds
SMALL_JOBS = (
    {"port": "one-port", "t_s": 150.0, "t_w": 3.0, "backend": "scalar",
     "log2_n_min": 2, "log2_n_max": 3, "log2_p_min": 2, "log2_p_max": 3},
    {"port": "multi-port", "t_s": 5.0, "t_w": 3.0, "backend": "scalar",
     "log2_n_min": 2, "log2_n_max": 3, "log2_p_min": 2, "log2_p_max": 3},
)


def event_path_reference(key, n, p, port):
    """The reference a tiny workload is checked against, recorded the way
    ``record_reference.py`` does: pure event path, zero matrices."""
    import numpy as np

    from repro.algorithms import get_algorithm
    from repro.sim import MachineConfig

    Z = np.zeros((n, n))
    config = MachineConfig.create(p, t_s=150.0, t_w=3.0, t_c=0.5,
                                  port_model=port)
    result = get_algorithm(key).run(Z, Z, config, superstep=False).result
    return {
        "digest": result.trace_digest(),
        "messages": result.total_messages(),
        "makespan": result.total_time,
    }


def tiny_cannon(reference):
    return AlgorithmWorkload(
        "cannon", 16, 16, PortModel.ONE_PORT, 0.5, reference
    )


def test_correct_reference_passes(tmp_path):
    ref = event_path_reference("cannon", 16, 16, PortModel.ONE_PORT)
    record = run_op(tiny_cannon(ref), 7, tmp_path)
    assert (record["attempted"], record["failed"]) == (1, 0)
    assert record["problems"] == []
    assert record["run_s"] > 0 and record["peak_rss_mb"] > 0


def test_wrong_reference_digest_counts_as_failed(tmp_path):
    ref = event_path_reference("cannon", 16, 16, PortModel.ONE_PORT)
    ref["digest"] = "0" * 64
    record = run_op(tiny_cannon(ref), 7, tmp_path)
    assert (record["attempted"], record["failed"]) == (1, 1)
    assert any("digest" in problem for problem in record["problems"])


def test_raising_operation_counts_as_failed(tmp_path):
    workload = tiny_cannon({"digest": "", "messages": 0, "makespan": 0.0})

    def boom():
        raise RuntimeError("simulated crash")

    workload.timed = boom
    record = run_op(workload, 7, tmp_path)
    assert (record["attempted"], record["failed"]) == (1, 1)
    assert "simulated crash" in record["problems"][0]


def test_service_jobs_match_direct_digests(tmp_path):
    record = run_op(ServiceWorkload(SMALL_JOBS), 3, tmp_path)
    assert (record["attempted"], record["failed"]) == (2, 0)
    assert record["resume_s"] > 0


def test_shed_service_submission_counts_as_failed(tmp_path):
    # One token, no refill: the first submission is admitted, the second
    # is shed.
    workload = ServiceWorkload(
        SMALL_JOBS,
        service_options={"tenant_rate": 0.0, "tenant_burst": 1.0},
    )
    record = run_op(workload, 3, tmp_path)
    assert (record["attempted"], record["failed"]) == (2, 1)
    assert any("ServiceOverloadError" in p for p in record["problems"])


def test_raising_service_submission_counts_as_failed(tmp_path):
    bad = dict(SMALL_JOBS[0], backend="no-such-backend")
    record = run_op(ServiceWorkload((SMALL_JOBS[0], bad)), 3, tmp_path)
    assert (record["attempted"], record["failed"]) == (2, 1)
    assert any("ServiceError" in p for p in record["problems"])


def _current(algorithms):
    return [
        (owner, attr, vars(owner).get(attr))
        for owner, attr, _key in _targets(algorithms)
    ]


def test_traced_run_restores_every_wrapped_function(tmp_path):
    import repro.sim.engine

    algorithms = ("cannon",)
    before = _current(algorithms)
    engine_run = repro.sim.engine.Engine.run
    ref = event_path_reference("cannon", 16, 16, PortModel.ONE_PORT)
    record = run_op(tiny_cannon(ref), 7, tmp_path, trace=True)
    assert record["failed"] == 0
    layers = record["layers"]
    assert layers["sim.engine.messages"] == ref["messages"]
    assert layers["sim.ports.reserve_hop_calls"] > 0
    assert layers["sim.superstep.shift_calls"] >= 1
    assert repro.sim.engine.Engine.run is engine_run
    assert _current(algorithms) == before


def test_tracer_restores_after_an_exception():
    before = _current(("3dd",))
    with pytest.raises(RuntimeError):
        with Tracer(("3dd",)):
            assert _current(("3dd",)) != before
            raise RuntimeError("inside the traced region")
    assert _current(("3dd",)) == before


def test_region_map_cell_capture_is_undone(tmp_path):
    import numpy as np

    import repro.sim.engine
    from repro.algorithms import get_algorithm
    from repro.sim import MachineConfig

    engine_run = repro.sim.engine.Engine.run
    Z = np.zeros((8, 8))
    config = MachineConfig.create(8, t_s=150.0, t_w=3.0, t_c=0.0)
    result = get_algorithm("3dd").run(
        Z, Z, config, superstep=False, timing_only=True
    ).result
    ref = {
        "digest": result.trace_digest(),
        "messages": result.total_messages(),
        "makespan": result.total_time,
        "winner": "3dd",
    }
    workload = RegionMapCellWorkload("3dd", 3, 3, PortModel.ONE_PORT, ref)
    record = run_op(workload, 1, tmp_path, trace=True)
    assert (record["attempted"], record["failed"]) == (1, 0)
    assert record["layers"]["analysis.regions.harness_s"] > 0
    assert repro.sim.engine.Engine.run is engine_run


def test_reference_covers_every_engine_workload():
    from run import WORKLOADS
    from workloads import build

    for name in WORKLOADS:
        reference = getattr(build(name), "reference", None)
        if name != "service_regionmap_jobs":
            assert {"digest", "messages", "makespan"} <= set(reference)


def test_benchmark_json_declares_every_traced_metric():
    import json

    from run import ROOT

    declared = {
        m["name"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    measured = set(Tracer().layers()) | {
        "trace.overhead_ratio", "service.resume_s", "runtime.cpu_s",
    }
    assert declared == measured

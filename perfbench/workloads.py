"""The benchmark's four workloads: seeded set-up, one timed call, output check.

Each workload object has the same life cycle, driven by :mod:`child`:

``setup(seed, workdir)``
    Everything a user pays before the first timed call: seeded input
    generation, ``MachineConfig``, and for the service workload opening a
    fresh ``SweepService``.  (Imports happen before it, in the process.)
``timed()``
    The timed operation: one simulation, one region-map cell, or one cold
    service pass.  Returns whatever :meth:`check` needs.
``after(out)``
    Second phase, after the timed call and outside it: the service
    workload times its resume pass here (``resume_s``) and returns both
    passes' outcomes.  The engine workloads return ``out`` unchanged.
``check(out)``
    Compares the output with a reference, outside the timed interval.
    Returns ``(attempted, failed, problems)``.  A wrong answer is a failed
    operation, never an exception.
``close()``
    Releases files and the service lock.

Every workload shares ``t_s = 150`` and ``t_w = 3``.  The reference
digests, message counts and makespans live in ``reference.json`` and were
recorded from the pure event path (``superstep=False``) by
``record_reference.py``; the fast path is what gets timed and checked.
"""

from __future__ import annotations

import json
import pathlib
import random
import time

import numpy as np

from repro.algorithms import get_algorithm
from repro.analysis import regions
from repro.errors import ReproError
from repro.sim import MachineConfig, PortModel

T_S = 150.0
T_W = 3.0

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def engine_problems(result, ref: dict) -> list[str]:
    """Mismatches between an untraced ``RunResult`` and its reference."""
    problems = []
    if result.trace_digest() != ref["digest"]:
        problems.append("trace digest differs from the event-path reference")
    if result.total_messages() != ref["messages"]:
        problems.append(
            f"messages {result.total_messages()} != {ref['messages']}"
        )
    if result.total_time != ref["makespan"]:
        problems.append(f"makespan {result.total_time!r} != {ref['makespan']!r}")
    return problems


class Workload:
    """Defaults for the life cycle above."""

    #: algorithm keys whose ``distribute_inputs``/``collect_output`` the
    #: traced run wraps
    algorithms: tuple[str, ...] = ()
    #: operations one timed call attempts (the unit of ``failed``)
    ops_per_call = 1

    def setup(self, seed: int, workdir: pathlib.Path) -> None:
        pass

    def after(self, out):
        return out

    def close(self) -> None:
        pass


class AlgorithmWorkload(Workload):
    """One full simulation with real matrices, checked against ``A @ B``."""

    def __init__(self, key, n, p, port, t_c, reference):
        self.key = key
        self.n = n
        self.p = p
        self.port = port
        self.t_c = t_c
        self.reference = reference
        self.algorithms = (key,)

    def setup(self, seed: int, workdir: pathlib.Path) -> None:
        rng = np.random.default_rng(seed)
        self.A = rng.standard_normal((self.n, self.n))
        self.B = rng.standard_normal((self.n, self.n))
        self.config = MachineConfig.create(
            self.p, t_s=T_S, t_w=T_W, t_c=self.t_c, port_model=self.port
        )
        self.algo = get_algorithm(self.key)

    def timed(self):
        return self.algo.run(self.A, self.B, self.config)

    def check(self, run) -> tuple[int, int, list[str]]:
        problems = engine_problems(run.result, self.reference)
        if not np.allclose(run.C, self.A @ self.B):
            problems.append("C is not allclose to A @ B")
        return 1, int(bool(problems)), problems


class RegionMapCellWorkload(Workload):
    """One simulation-backed ``region_map`` cell (timing-only engine runs).

    ``region_map`` builds its own zero matrices, so the seed changes no
    input here; the lattice cell is the input.  The ``RunResult`` behind
    the cell is captured from ``Engine.run`` (one extra Python call per
    cell) so its digest can be checked too.
    """

    def __init__(self, key, log2_n, log2_p, port, reference):
        self.key = key
        self.log2_n = log2_n
        self.log2_p = log2_p
        self.port = port
        self.reference = reference
        self.algorithms = (key,)
        self.captured: list = []

    def timed(self):
        from repro.sim.engine import Engine

        original = Engine.__dict__["run"]
        captured = self.captured

        def run(engine, program):
            result = original(engine, program)
            captured.append(result)
            return result

        Engine.run = run
        try:
            return regions.region_map(
                self.port, T_S, T_W, backend="sim", algorithms=(self.key,),
                log2_n_min=self.log2_n, log2_n_max=self.log2_n,
                log2_p_min=self.log2_p, log2_p_max=self.log2_p,
            )
        finally:
            Engine.run = original

    def check(self, rm) -> tuple[int, int, list[str]]:
        ref = self.reference
        problems = []
        if rm.winners != [[ref["winner"]]]:
            problems.append(f"winners {rm.winners} != [[{ref['winner']!r}]]")
        if float(rm.times[0, 0]) != ref["makespan"]:
            problems.append(
                f"cell time {float(rm.times[0, 0])!r} != {ref['makespan']!r}"
            )
        if len(self.captured) != 1:
            problems.append(f"{len(self.captured)} engine runs, expected 1")
        else:
            problems.extend(engine_problems(self.captured[0], ref))
        self.captured.clear()
        return 1, int(bool(problems)), problems


#: the Figure 13/14 lattice (``region_map`` defaults), analytic backend
FIGURE_JOBS = tuple(
    {"port": port, "t_s": t_s, "t_w": T_W, "backend": "scalar"}
    for port in ("one-port", "multi-port")
    for t_s in (150.0, 5.0)
)


class ServiceWorkload(Workload):
    """Region-map jobs through a fresh ``SweepService``: cold, then resume.

    The seed fixes the order the jobs are submitted in.  ``timed`` is the
    cold pass, from the first submit to the last report; ``after`` strips
    the ``job_done`` facts from the journal and times a resume pass that
    re-finalizes every job from journal and cache.  Each job counts as one
    operation; a job fails when it is shed, raises, or its cold or resumed
    digest differs from the direct one-shot ``evaluate_chunk`` +
    ``finalize`` digest.
    """

    workers = 2
    chunk_size = 1

    def __init__(self, jobs=FIGURE_JOBS, service_options=None):
        self.jobs = [dict(job) for job in jobs]
        self.service_options = dict(service_options or {})
        self.ops_per_call = len(self.jobs)
        #: wall seconds of the in-process direct evaluation, set by check()
        self.direct_s = 0.0

    def _open(self):
        from repro.service import SweepService

        return SweepService(
            self.state_dir, workers=self.workers, chunk_size=self.chunk_size,
            **self.service_options,
        )

    def setup(self, seed: int, workdir: pathlib.Path) -> None:
        self.order = list(range(len(self.jobs)))
        random.Random(seed).shuffle(self.order)
        self.state_dir = workdir / "state"
        self.service = self._open()

    def timed(self):
        """Cold pass: ``{job index: report digest or error string}``."""
        outcome: dict[int, str] = {}
        ids: dict[str, int] = {}
        for i in self.order:
            try:
                job_id, _ = self.service.submit("region_map", self.jobs[i])
            except ReproError as exc:
                outcome[i] = f"error: {type(exc).__name__}: {exc}"
            else:
                ids[job_id] = i
        try:
            reports = self.service.run_pending()
        except ReproError as exc:
            reports = []
            for i in ids.values():
                outcome[i] = f"error: {type(exc).__name__}: {exc}"
        for report in reports:
            outcome[ids[report["job"]]] = report["digest"]
        self.ids = ids
        return outcome

    def after(self, cold):
        """Resume pass over the cold state; returns ``(cold, resumed)``,
        each ``{job index: digest}``."""
        self.service.close()
        for segment in sorted((self.state_dir / "wal").glob("wal-*.jsonl")):
            lines = segment.read_text().splitlines(keepends=True)
            kept = [ln for ln in lines if json.loads(ln).get("t") != "job_done"]
            segment.write_text("".join(kept))
        outcome: dict[int, str] = {}
        started = time.perf_counter()
        try:
            self.service = self._open()
            reports = self.service.run_pending()
        except ReproError as exc:
            reports = []
            for i in self.ids.values():
                outcome[i] = f"error: {type(exc).__name__}: {exc}"
        self.resume_s = time.perf_counter() - started
        for report in reports:
            outcome[self.ids[report["job"]]] = report["digest"]
        return cold, outcome

    def direct_digest(self, params: dict) -> str:
        """One job's digest from in-process ``evaluate_chunk`` calls, chunk
        by chunk as the service leases them, plus ``finalize``; adds the
        evaluation time to ``direct_s``."""
        from repro.analysis.parallel import plan_chunks
        from repro.service.jobs import (
            build_cells, evaluate_chunk, finalize, make_spec,
        )

        spec = make_spec("region_map", params)
        cells = build_cells(spec)
        started = time.perf_counter()
        records = []
        for start, stop in plan_chunks(len(cells), self.workers,
                                       self.chunk_size):
            records.extend(
                evaluate_chunk(spec.kind, spec.params, cells[start:stop])
            )
        self.direct_s += time.perf_counter() - started
        return finalize(spec, records)["digest"]

    def check(self, outcomes) -> tuple[int, int, list[str]]:
        cold, resumed = outcomes
        self.direct_s = 0.0
        problems = []
        for i, params in enumerate(self.jobs):
            try:
                want = self.direct_digest(params)
            except ReproError as exc:
                problems.append(f"job {i}: direct evaluation raised {exc!r}")
                continue
            job_problems = []
            got = cold.get(i, "error: no report")
            if got != want:
                job_problems.append(f"cold {got} != direct {want}")
            again = resumed.get(i, "error: no resumed report")
            if again != got:
                job_problems.append(f"resume {again} != cold {got}")
            if job_problems:
                problems.append(f"job {i}: " + "; ".join(job_problems))
        return len(self.jobs), len(problems), problems

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()


def build(name: str) -> Workload:
    """The named workload, wired to its reference entry."""
    ref = load_reference()
    if name == "cannon_oneport_p4096":
        return AlgorithmWorkload(
            "cannon", 128, 4096, PortModel.ONE_PORT, 0.5, ref[name]
        )
    if name == "3d_all_multiport_p4096":
        return AlgorithmWorkload(
            "3d_all", 256, 4096, PortModel.MULTI_PORT, 0.5, ref[name]
        )
    if name == "3dd_regionmap_p32768":
        return RegionMapCellWorkload(
            "3dd", 9, 15, PortModel.ONE_PORT, ref[name]
        )
    if name == "service_regionmap_jobs":
        return ServiceWorkload()
    raise KeyError(name)


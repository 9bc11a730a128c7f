"""Supervised worker pool: chunk leases, deadlines, retries, quarantine.

The supervisor turns *"a pool of processes that dies with its weakest
member"* into *"a pool that outlives any of them"*.  It owns real
worker processes and leases grid chunks to them one at a time:

* each lease carries a **deadline** (``chunk_deadline_s``); a worker
  that neither finishes nor dies by then is declared hung, SIGKILLed,
  and replaced — the discrete-event engine's timeout discipline applied
  to the host;
* a worker that **dies** mid-lease (crash, OOM kill, injected
  ``kill-worker``) is detected by process liveness, its chunk is
  re-leased, and a fresh worker replaces it;
* re-leases, backoff and quarantine follow the shared
  :class:`~repro.service.ladder.LeaseLadder` — the same ladder the
  multi-host pool climbs — so a poisoned cell degrades the report, it
  never hangs the sweep.

Determinism: chunk payloads are pure functions of ``(kind, params,
cells)``, and the supervisor merges them by chunk index, so the result
list — and any digest over it — is bit-identical whether a run was
undisturbed or survived any number of kills and stalls.  Only the
robustness events (retries, expiries) differ, and the counters built
from them are deliberately kept out of every digest.

The supervisor is deliberately journal-agnostic: it reports lease /
retry / quarantine events and chunk completions through callbacks, and
the service layer decides what to persist.  That keeps this module
testable with plain lists and keeps WAL policy in one place.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ServiceError
from repro.service.chaos import ChaosPolicy, worker_chaos_hook
from repro.service.jobs import evaluate_chunk
from repro.service.ladder import ChunkOutcome, LeaseLadder, seeded_backoff

__all__ = ["Supervisor", "ChunkOutcome", "seeded_backoff"]

#: how often the supervisor polls results / liveness / deadlines
_POLL_S = 0.02


def _worker_main(worker_id, task_q, result_q, chaos):
    """Worker process loop: lease -> (chaos hook) -> evaluate -> report.

    Results travel as pickled bytes so the parent controls the protocol
    version (digests over payload bytes stay comparable).  A ``None``
    task is the shutdown sentinel.
    """
    while True:
        task = task_q.get()
        if task is None:
            return
        chunk_id, attempt, kind, params, cells = task
        worker_chaos_hook(chaos, chunk_id, attempt)
        try:
            records = evaluate_chunk(kind, params, cells)
            result_q.put(("done", worker_id, chunk_id, attempt,
                          pickle.dumps(records, protocol=4)))
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            result_q.put(("error", worker_id, chunk_id, attempt,
                          f"{type(exc).__name__}: {exc}"))


@dataclass
class _Worker:
    proc: Any
    task_q: Any
    busy: tuple[int, int] | None = None  # (chunk_id, attempt)
    lease_deadline: float = 0.0


def _mp_context():
    """Fork where available (fast, Linux CI), spawn elsewhere."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return mp.get_context()


class Supervisor:
    """Run one job's chunks to completion over a supervised worker pool.

    Parameters
    ----------
    workers:
        Pool size.  Replacement workers keep the pool at this size for
        as long as work remains.
    chunk_deadline_s:
        Lease duration: a chunk not completed this many (wall-clock)
        seconds after assignment is considered hung.
    max_attempts / backoff_base_s:
        The shared :class:`~repro.service.ladder.LeaseLadder` policy:
        per-chunk attempt budget before quarantine, and the base of the
        seeded exponential re-lease delay.
    chaos:
        Optional :class:`~repro.service.chaos.ChaosPolicy` handed to
        every worker (and consulted nowhere else — the supervisor must
        not "know" when an injection is coming).
    on_event:
        Callback for lease/retry/quarantine facts (journal hook).
    on_chunk_done:
        Callback ``(chunk_id, records)`` fired exactly once per
        completed chunk, in completion order.  Exceptions propagate
        (the ``crash-service`` injection rides on this).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        chunk_deadline_s: float = 30.0,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        chaos: ChaosPolicy | None = None,
        on_event: Callable[[dict], None] | None = None,
        on_chunk_done: Callable[[int, list], None] | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if chunk_deadline_s <= 0:
            raise ServiceError(
                f"chunk_deadline_s must be > 0, got {chunk_deadline_s}"
            )
        self.ladder = LeaseLadder(
            max_attempts=max_attempts, backoff_base_s=backoff_base_s,
            on_event=on_event, on_chunk_done=on_chunk_done,
            should_stop=should_stop,
        )
        self.workers = int(workers)
        self.chunk_deadline_s = float(chunk_deadline_s)
        self.chaos = chaos
        # Lease time is injected (same discipline as admission.py): tests
        # drive deadlines and backoffs from a virtual clock instead of
        # racing the wall clock.  Worker liveness and pool teardown stay
        # on real time — they guard host resources, not lease policy.
        self._clock = clock or time.monotonic
        self._sleep = sleep or time.sleep
        self._ctx = _mp_context()
        self._next_worker_id = 0

    @property
    def drained(self) -> bool:
        return self.ladder.drained

    # -- pool plumbing ------------------------------------------------------

    def _spawn_worker(self, result_q) -> _Worker:
        wid = self._next_worker_id
        self._next_worker_id += 1
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_q, result_q, self.chaos),
            daemon=True,
            name=f"repro-sweep-worker-{wid}",
        )
        proc.start()
        return _Worker(proc=proc, task_q=task_q)

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Hard-stop a worker and release its queue resources."""
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=5.0)
        worker.task_q.cancel_join_thread()
        worker.task_q.close()

    # -- main loop ----------------------------------------------------------

    def run(
        self,
        kind: str,
        params: dict,
        cells: list,
        plan: list[tuple[int, int]],
        *,
        skip_chunks: set[int] | None = None,
        initial_attempts: dict[int, int] | None = None,
    ) -> dict[int, ChunkOutcome]:
        """Execute every chunk of ``plan`` not in ``skip_chunks``.

        Returns ``{chunk_id: ChunkOutcome}`` for the chunks this run
        executed; see :meth:`LeaseLadder.start
        <repro.service.ladder.LeaseLadder.start>` for the resume
        arguments.
        """
        ladder = self.ladder
        todo = ladder.start(len(plan), skip_chunks, initial_attempts)
        if not todo:
            return ladder.outcomes

        result_q = self._ctx.Queue()
        pool: list[_Worker] = [
            self._spawn_worker(result_q)
            for _ in range(min(self.workers, todo))
        ]
        inflight: dict[int, _Worker] = {}  # chunk -> worker holding lease

        try:
            while ladder.running():
                now = self._clock()
                self._assign(pool, inflight, cells, plan, kind, params, now)
                self._drain_results(result_q, inflight, now)
                self._police_leases(pool, inflight, result_q, now)
                if ladder.unfinished():
                    self._sleep(_POLL_S)
        finally:
            for worker in pool:
                if worker.busy is None and worker.proc.is_alive():
                    worker.task_q.put(None)
            deadline = time.monotonic() + 2.0
            for worker in pool:
                worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            for worker in pool:
                self._reap(worker)
            result_q.cancel_join_thread()
            result_q.close()
        return ladder.outcomes

    # -- loop phases --------------------------------------------------------

    def _assign(self, pool, inflight, cells, plan, kind, params, now):
        """Lease ready pending chunks to idle workers (deterministic order)."""
        ready = iter(self.ladder.ready(now))
        for worker in pool:
            if worker.busy is not None or not worker.proc.is_alive():
                continue
            item = next(ready, None)
            if item is None:
                return
            self.ladder.take(item)
            start, stop = plan[item.chunk]
            worker.busy = (item.chunk, item.attempt)
            worker.lease_deadline = now + self.chunk_deadline_s
            inflight[item.chunk] = worker
            self.ladder.on_event({
                "t": "lease", "chunk": item.chunk,
                "attempt": item.attempt, "cells": [start, stop],
            })
            worker.task_q.put(
                (item.chunk, item.attempt, kind, params, cells[start:stop])
            )

    def _drain_results(self, result_q, inflight, now):
        """Absorb every queued worker report."""
        while True:
            try:
                msg = result_q.get_nowait()
            except queue_mod.Empty:
                return
            status, wid, chunk_id, attempt, payload = msg
            worker = inflight.get(chunk_id)
            if worker is None or worker.busy != (chunk_id, attempt):
                # Late report from a lease we already revoked (e.g. a
                # stalled worker finishing just before the SIGKILL
                # landed).  Payloads are pure, so dropping is safe.
                continue
            worker.busy = None
            del inflight[chunk_id]
            if status == "done":
                self.ladder.complete(chunk_id, attempt, pickle.loads(payload))
            else:  # evaluation raised inside the worker
                self.ladder.fail(
                    chunk_id, attempt, reason="error", detail=payload,
                    now=now,
                )

    def _police_leases(self, pool, inflight, result_q, now):
        """Detect dead and hung workers; re-lease or quarantine their chunks."""
        for idx, worker in enumerate(pool):
            if worker.busy is None:
                if not worker.proc.is_alive() and (
                        self.ladder.pending or inflight):
                    # An idle worker died (shouldn't happen, but a pool
                    # that shrinks silently is a pool that deadlocks).
                    self._reap(worker)
                    pool[idx] = self._spawn_worker(result_q)
                continue
            chunk_id, attempt = worker.busy
            died = not worker.proc.is_alive()
            if not died and now < worker.lease_deadline:
                continue
            if died:
                reason = "worker-died"
                detail = f"exit code {worker.proc.exitcode}"
            else:
                reason = "lease-expired"
                detail = (
                    f"no result within {self.chunk_deadline_s:g}s "
                    f"(attempt {attempt})"
                )
            self._reap(worker)
            del inflight[chunk_id]
            pool[idx] = self._spawn_worker(result_q)
            self.ladder.fail(
                chunk_id, attempt, reason=reason, detail=detail, now=now,
            )

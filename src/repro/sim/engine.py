"""The discrete-event engine driving SPMD generator programs.

Design
------
Each rank's program is a Python generator.  The engine keeps a global event
heap ordered by ``(time, sequence)``; sequence numbers make ties — and
therefore FIFO resource reservation and the whole simulation — fully
deterministic.  When a task is runnable the engine steps its generator,
interpreting the yielded :mod:`~repro.sim.ops` objects, until the task
blocks (on handles, an elapse, a barrier, or sub-tasks) or finishes.

A *task* is either a rank's main program (task id = the rank number) or a
sub-generator spawned with ``ctx.parallel`` (task id = ``(rank, k)``).
Sub-tasks share their rank's node, so their transfers contend for the same
ports and links: on a one-port machine "parallel" communication phases
serialize automatically; on a multi-port machine they genuinely overlap.

Message transport is store-and-forward over the e-cube route.  Every hop of
an ``m``-word message takes ``t_s + t_w·m`` and holds, for its duration, the
hop's directional channel plus (one-port model) the endpoints' send/recv
engagements — see :class:`~repro.sim.ports.ContentionTracker`.  A blocking
send returns when the *first* hop completes (the sender's port is free);
delivery happens when the last hop completes.  Receives are eagerly
buffered: a message may arrive before its receive is posted.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Generator

import numpy as np

from repro.errors import (
    DeadlockError,
    LinkFailedError,
    LivelockError,
    SimulationError,
)
from repro.sim.faults import FaultState
from repro.sim.machine import MachineConfig, RoutingMode
from repro.sim.message import (
    CORRUPT_VERDICT,
    Message,
    MessageTable,
    message_crc,
)
from repro.sim.calendar import CalendarQueue
from repro.sim.ops import (
    COLLECTIVE_FALLBACK,
    SHIFT_FALLBACK,
    TIMED_OUT,
    BarrierOp,
    CollectivePhaseOp,
    ElapseOp,
    Handle,
    ParallelOp,
    RecvOp,
    SendOp,
    ShiftPhaseOp,
    WaitOp,
)
from repro.sim.ports import ContentionTracker
from repro.sim.superstep import (
    engine_supports_superstep,
    try_advance_collective,
    try_advance_superstep,
)
from repro.sim.process import ANY_SOURCE, ANY_TAG, ProcessContext
from repro.sim.tracing import NetworkStats, RankStats, RunResult, TraceRecord
from repro.topology.routing import RouteCache

__all__ = ["Engine", "run_spmd"]

ProgramFactory = Callable[[ProcessContext], Generator]

Task = Any  # int (main program of a rank) or tuple (rank, k) for sub-tasks

# Event kinds, interned as small ints: events are (time, seq, kind, payload)
# tuples and the sequence number already breaks every tie, so the kind is
# never compared — integers keep the tuples small and the dispatch cheap.
_RESUME = 0
_HOP_READY = 1
_HOP_DONE = 2
_RECV_TIMEOUT = 3
_NODE_FAIL = 4


def task_rank(task: Task) -> int:
    return task[0] if isinstance(task, tuple) else task


def _copy_payload(data: Any) -> Any:
    """Deep-copy array payloads so senders can reuse their buffers."""
    if isinstance(data, np.ndarray):
        return data.copy()
    if isinstance(data, list):
        return [_copy_payload(item) for item in data]
    if isinstance(data, tuple):
        return tuple(_copy_payload(item) for item in data)
    if isinstance(data, dict):
        return {k: _copy_payload(v) for k, v in data.items()}
    return data


class _Waiter:
    """A blocked task: which handles it needs and how to build the resume value."""

    __slots__ = ("handles", "mode")

    def __init__(self, handles: list[Handle], mode: str):
        self.handles = handles
        self.mode = mode  # "wait" | "recv" | "send"

    def ready(self) -> bool:
        return all(h.done for h in self.handles)

    def resume_value(self) -> Any:
        if self.mode == "wait":
            return [h.value for h in self.handles]
        if self.mode == "recv":
            return self.handles[0].value
        return None  # blocking send

    def describe(self) -> str:
        kinds = ", ".join(
            f"{h.detail or h.kind}#{h.handle_id}"
            for h in self.handles
            if not h.done
        )
        return f"waiting on {kinds or 'nothing?'}"


class _ParallelWait:
    """A parent task waiting for its spawned sub-tasks."""

    __slots__ = ("remaining", "values", "latest")

    def __init__(self, children: list[Task]):
        self.remaining = set(children)
        self.values: dict[Task, Any] = {}
        self.latest = 0.0


class _Transfer:
    """One in-flight message and its (possibly rerouted) hop list.

    ``dropped`` flips when a fault-plan roll loses the message (or a
    fail-stopped node swallows it): downstream hops stop and delivery
    never happens, but the sender-side handle still completes normally —
    the loss is silent, exactly like a real dropped packet.
    """

    __slots__ = ("msg", "hops", "dropped")

    def __init__(self, msg: Message, hops: list[tuple[int, int]]):
        self.msg = msg
        self.hops = hops
        self.dropped = False


class Engine:
    """One simulation run over a fixed machine configuration.

    Parameters
    ----------
    config:
        The machine (topology, costs, port model, optional fault plan).
    trace:
        Record per-interval :class:`TraceRecord` activity.
    max_events:
        Watchdog: abort with :class:`~repro.errors.LivelockError` after
        this many engine events (``None`` = unbounded).  Converts infinite
        retransmission/ping-pong loops into a diagnosable error.
    max_virtual_time:
        Watchdog: abort once the event clock passes this virtual time.
    superstep:
        Allow the closed-form superstep fast path (see
        :mod:`repro.sim.superstep`).  On by default; it self-disables
        whenever faults, scenarios, tracing or a ``max_virtual_time``
        watchdog require per-hop events, and produces bit-identical
        results when it does engage.  ``False`` forces the pure event
        path (the conformance suite's reference runs).
    timing_only:
        Skip local matrix products: ``ctx.local_matmul`` charges the same
        flops/time but returns a zero-cost broadcast view instead of the
        real product.  Simulated times, stats and digests are unchanged
        (they depend only on shapes and sizes); per-rank results are
        meaningless.  This is what lets simulation-backed region maps
        reach p = 2^15 and beyond.
    event_queue:
        ``"heap"`` (default) or ``"calendar"`` — the
        :class:`~repro.sim.calendar.CalendarQueue` bucketed backend for
        the residual event regions.  Both produce identical event order.
    """

    def __init__(
        self,
        config: MachineConfig,
        *,
        trace: bool = False,
        max_events: int | None = None,
        max_virtual_time: float | None = None,
        superstep: bool = True,
        timing_only: bool = False,
        event_queue: str = "heap",
    ):
        self.config = config
        self.tracker = ContentionTracker(config)
        self.routes = RouteCache(config.cube)
        self.trace_enabled = trace
        # Hot-path caches: plain floats/bools beat attribute chains in the
        # per-hop inner loops (see _start_hop/_finish_hop).
        self._t_s = config.params.t_s
        self._t_w = config.params.t_w
        self._cut_through = config.routing is RoutingMode.CUT_THROUGH
        self._store_forward = config.routing is RoutingMode.STORE_AND_FORWARD
        self.trace: list[TraceRecord] = []
        self.faults: FaultState | None = (
            FaultState(config.faults) if config.faults is not None else None
        )
        # A uniform (or absent) scenario is normalized to None so every
        # scenario check below reduces to one `is None` test and the
        # healthy fast paths — and their golden traces — stay untouched.
        scen = config.scenario
        self.scenario = (
            None if scen is None or scen.is_uniform else scen
        )
        self._adaptive = (
            self.scenario is not None and self.scenario.adaptive_routing
        )
        if max_events is not None and max_events <= 0:
            raise SimulationError(f"max_events must be positive, got {max_events}")
        if max_virtual_time is not None and max_virtual_time <= 0:
            raise SimulationError(
                f"max_virtual_time must be positive, got {max_virtual_time}"
            )
        self.max_events = max_events
        self.max_virtual_time = max_virtual_time
        if event_queue not in ("heap", "calendar"):
            raise SimulationError(
                f"unknown event_queue backend {event_queue!r}"
            )
        self._calendar: CalendarQueue | None = (
            CalendarQueue() if event_queue == "calendar" else None
        )
        self.superstep_enabled = superstep
        self.timing_only = timing_only
        # Parked shift-phase tasks: task -> (ShiftPhaseOp, park time).
        # Resolved in closed form (or released with SHIFT_FALLBACK) once
        # the event queues drain; see _resolve_superstep.  The hazard maps
        # name the resources a parked phase will reserve, with the virtual
        # time of the phase's own first reservation (park time + first
        # multiply): a foreign hop reserving one of them *after* that
        # threshold would invert the event path's FIFO reservation order,
        # so _start_hop releases the parked set (at their earlier park
        # times) before reserving.  Foreign reservations at or before the
        # threshold land ahead of every phase reservation on both paths,
        # so they simply fold into the closed form's seeds.
        self._parked: dict[Task, tuple[ShiftPhaseOp, float]] = {}
        # Parked collective phases: task -> (CollectivePhaseOp, park time).
        # Same protocol with COLLECTIVE_FALLBACK; see _resolve_collective.
        self._parked_coll: dict[Task, tuple[CollectivePhaseOp, float]] = {}
        self._hazard_nodes: dict[int, float] = {}
        self._hazard_channels: dict[tuple[int, int], float] = {}
        self._one_port = config.port_model.name == "ONE_PORT"
        self._superstep_ok = engine_supports_superstep(self)

        n = config.num_nodes
        self.stats: dict[int, RankStats] = {r: RankStats(r) for r in range(n)}
        self.results: dict[int, Any] = {}
        self.done: set[int] = set()
        self.failed: set[int] = set()
        self._messages_dropped = 0
        self._hops_rerouted = 0
        self._retransmissions = 0
        self._corruption_events = 0
        self._integrity_rejects = 0
        self._events_processed = 0
        self._msg_seq = itertools.count()
        # struct-of-arrays envelope store: one row per message, in
        # creation order (rows mirror _msg_seq ids)
        self._messages = MessageTable(max(1024, 4 * n))

        self._task_time: dict[Task, float] = {r: 0.0 for r in range(n)}
        self._gens: dict[Task, Generator] = {}
        self._blocked: dict[Task, _Waiter] = {}
        self._parallel: dict[Task, _ParallelWait] = {}
        self._parent_of: dict[Task, tuple[Task, int]] = {}  # child -> (parent, slot)
        self._child_seq = itertools.count(1)
        self._active_task: Task | None = None

        self._mailbox: dict[int, list[tuple[float, Message]]] = {r: [] for r in range(n)}
        self._pending_recvs: dict[int, list[tuple[int, int, Handle]]] = {
            r: [] for r in range(n)
        }
        self._barrier_waiting: dict[int, float] = {}
        self._phase_marks: dict[int, list[tuple[str, float]]] = {r: [] for r in range(n)}

        self._events: list[tuple[float, int, int, tuple]] = []
        # Same-time fast lane: events scheduled *at* the clock's current
        # time bypass the heap (see _schedule for the ordering argument).
        self._ready: deque[tuple[float, int, int, tuple]] = deque()
        self._now = 0.0
        self._seq = itertools.count()
        self._ran = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, program: ProgramFactory) -> RunResult:
        """Execute ``program`` on every rank and return the result.

        Automatic cyclic garbage collection is paused for the call and
        restored to its entry state on exit, also when the run raises.
        The run's objects stay reachable until it ends, so collector
        passes during it only walk live objects; a finished run holds no
        reference cycles, so reference counting frees it.
        """
        if self._ran:
            raise SimulationError("an Engine can only run once; build a new one")
        self._ran = True
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run(program)
        finally:
            if gc_enabled:
                gc.enable()

    def _run(self, program: ProgramFactory) -> RunResult:
        # Fail-stop events go on the heap first so a failure at time t wins
        # the tie against any same-time resume of that rank.
        if self.faults is not None:
            for nf in self.faults.plan.node_failures:
                if 0 <= nf.node < self.config.num_nodes:
                    self._schedule(nf.time, _NODE_FAIL, (nf.node,))
        for rank in range(self.config.num_nodes):
            ctx = ProcessContext(rank, self)
            gen = program(ctx)
            if not hasattr(gen, "send"):
                raise SimulationError(
                    "program must be a generator function (did you forget yield?)"
                )
            self._gens[rank] = gen
            self._schedule(0.0, _RESUME, (rank, None))

        while True:
            self._drain_events()
            if self._parked and self._parked_coll:
                # Transitional mixed parking (shift and collective phases
                # co-resident): no combined closed form — release everyone
                # onto the event path.
                self._release_all_parked()
                continue
            if self._parked:
                # Every pending event is consumed and one or more ranks
                # sit parked on a ShiftPhaseOp: advance the phase in
                # closed form, or release everyone onto the event path.
                self._resolve_superstep()
                continue
            if self._parked_coll:
                self._resolve_collective()
                continue
            break

        unfinished = [
            r for r in range(self.config.num_nodes)
            if r not in self.done and r not in self.failed
        ]
        if unfinished:
            blocked: dict[int, list[str]] = {}
            for task, waiter in self._blocked.items():
                blocked.setdefault(task_rank(task), []).append(
                    f"task {task}: {waiter.describe()}"
                )
            for task, pw in self._parallel.items():
                blocked.setdefault(task_rank(task), []).append(
                    f"task {task}: waiting on sub-tasks "
                    f"{sorted(map(str, pw.remaining))}"
                )
            for rank, t in self._barrier_waiting.items():
                blocked.setdefault(rank, []).append(
                    f"waiting at barrier since t={t}"
                )
            for rank in unfinished:
                if rank not in blocked:
                    blocked[rank] = ["not scheduled (engine bug?)"]
            raise DeadlockError(blocked, failed_ranks=tuple(sorted(self.failed)))

        total = max(
            (self.stats[r].finish_time for r in range(self.config.num_nodes)),
            default=0.0,
        )
        return RunResult(
            total_time=total,
            results=dict(self.results),
            stats=dict(self.stats),
            phase_times=self._aggregate_phases(),
            trace=list(self.trace),
            network=NetworkStats(
                channels_used=len(self.tracker.channel_utilization(1.0)),
                total_channel_busy=self.tracker.total_channel_busy(),
                max_channel_busy=self.tracker.max_channel_busy(),
                messages_dropped=self._messages_dropped,
                hops_rerouted=self._hops_rerouted,
                retransmissions=self._retransmissions,
                corruption_events=self._corruption_events,
                integrity_rejects=self._integrity_rejects,
            ),
            failed_ranks=tuple(sorted(self.failed)),
        )

    def _drain_events(self) -> None:
        """Process events until both queues are empty (the classic loop)."""
        ready = self._ready
        max_events = self.max_events
        max_virtual_time = self.max_virtual_time
        cal = self._calendar
        events = self._events
        heappop = heapq.heappop
        while True:
            # The fast lane holds same-time events in FIFO (= sequence)
            # order; the full (time, seq) comparison picks exactly the
            # event heappop (or calendar pop) would have.
            if cal is None:
                if not (events or ready):
                    return
                if ready and (not events or ready[0] < events[0]):
                    time, _, kind, payload = ready.popleft()
                else:
                    time, _, kind, payload = heappop(events)
            else:
                if not (cal or ready):
                    return
                if ready and (not cal or ready[0] < cal.min_item()):
                    time, _, kind, payload = ready.popleft()
                else:
                    time, _, kind, payload = cal.pop()
            self._now = time
            self._events_processed += 1
            if max_events is not None and self._events_processed > max_events:
                raise LivelockError(
                    "max_events", self._events_processed, time,
                    self._progress_snapshot(),
                )
            if max_virtual_time is not None and time > max_virtual_time:
                raise LivelockError(
                    "max_virtual_time", self._events_processed, time,
                    self._progress_snapshot(),
                )
            if kind == _RESUME:
                task, value = payload
                self._step(task, time, value)
            elif kind == _HOP_READY:
                (transfer, hop_index, handle) = payload
                self._start_hop(transfer, hop_index, handle, time)
            elif kind == _HOP_DONE:
                (transfer, hop_index, handle) = payload
                self._finish_hop(transfer, hop_index, handle, time)
            elif kind == _RECV_TIMEOUT:
                (rank, handle) = payload
                self._expire_recv(rank, handle, time)
            elif kind == _NODE_FAIL:
                (node,) = payload
                self._fail_node(node, time)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")

    def _resolve_superstep(self) -> None:
        """Advance the parked shift phase in closed form, or release it.

        Called only with drained event queues.  On success each parked
        task is resumed (by an ordinary _RESUME event) at its phase-exit
        time with its final ``(A, B, C)`` blocks; on any incompatibility
        every task re-enters the event path via SHIFT_FALLBACK at the
        time it parked — the phase then runs message by message, exactly
        as if the fast path did not exist.
        """
        outcome = try_advance_superstep(self, self._parked)
        if outcome is not None:
            self._parked = {}
            self._hazard_nodes.clear()
            self._hazard_channels.clear()
            for task, (finish, blocks) in outcome.items():
                self._schedule(finish, _RESUME, (task, blocks))
            return
        parked = self._parked
        if parked:
            # Structural laggards: ranks with more rounds remaining than
            # the parked frontier, or with deliveries waiting in their
            # mailbox.  Releasing only them (one catch-up round through
            # the event path each) lets the frontier stay parked: a
            # frontier rank only completed its round because every
            # laggard neighbour had already sent to it, so catch-up
            # traffic cannot touch a frontier rank's resources — and any
            # exception still trips the hazard maps or the mailbox check
            # at the next resolve.  Blocked mid-round ranks unblock from
            # the laggards' sends and park alongside the frontier.
            min_steps = min(op.steps for (op, _at) in parked.values())
            sel = [
                task for task, (op, _at) in parked.items()
                if op.steps > min_steps or self._mailbox[task_rank(task)]
            ]
            if sel and len(sel) < len(parked):
                for task in sel:
                    op, at = parked.pop(task)
                    rank = task_rank(task)
                    self._hazard_channels.pop((rank, op.a_to), None)
                    self._hazard_channels.pop((rank, op.b_to), None)
                    self._hazard_nodes.pop(rank, None)
                    self._schedule(at, _RESUME, (task, SHIFT_FALLBACK))
                return
        self._release_parked()

    def _release_parked(self) -> None:
        """Release every parked task onto the event path, each resumed
        with SHIFT_FALLBACK at the virtual time it parked."""
        parked = self._parked
        self._parked = {}
        self._hazard_nodes.clear()
        self._hazard_channels.clear()
        for task, (_op, at) in parked.items():
            self._schedule(at, _RESUME, (task, SHIFT_FALLBACK))

    def _resolve_collective(self) -> None:
        """Advance the parked collective phase(s) in closed form, or release.

        Called only with drained event queues and no shift-phase parks.
        On success each parked task resumes at its phase-exit time with
        the collective's return value(s); on any incompatibility every
        task re-enters the event path via COLLECTIVE_FALLBACK at the time
        it parked and the schedule runs message by message.
        """
        outcome = try_advance_collective(self, self._parked_coll)
        if outcome is not None:
            self._parked_coll = {}
            self._hazard_nodes.clear()
            self._hazard_channels.clear()
            for task, (finish, value) in outcome.items():
                self._schedule(finish, _RESUME, (task, value))
            return
        self._release_all_parked()

    def _release_all_parked(self) -> None:
        """Release both parked sets (shift and collective) onto the event
        path at their park times."""
        parked_coll = self._parked_coll
        self._parked_coll = {}
        self._release_parked()
        for task, (_op, at) in parked_coll.items():
            self._schedule(at, _RESUME, (task, COLLECTIVE_FALLBACK))

    def note_retransmission(self) -> None:
        """Count one reliable-layer retransmission in the run's stats."""
        self._retransmissions += 1

    def mark_phase(self, rank: int, name: str) -> None:
        when = self.time_of(rank)
        self._phase_marks[rank].append((name, when))

    def time_of(self, rank: int) -> float:
        """Current virtual time as seen by the caller (active task aware)."""
        task = self._active_task
        if task is not None and task_rank(task) == rank:
            return self._task_time[task]
        return self._task_time[rank]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _schedule(self, time: float, kind: int, payload: tuple) -> None:
        """Enqueue an event, batching same-time events past the heap.

        Events landing exactly at the clock's current time go to the FIFO
        fast lane instead of the heap.  This preserves the heap's order:
        every event already *in* the heap at the current time carries a
        smaller sequence number than any new same-time arrival (sequence
        numbers are globally increasing, and heap entries at this time
        were necessarily pushed earlier), and the fast lane itself is FIFO
        by construction — so same-time events still fire in sequence
        order, and the main loop's ``ready[0] < events[0]`` comparison
        restores the global (time, seq) order across the two queues.  The
        guard on ``ready[0][0]`` keeps the lane homogeneous in time even
        if the clock ever revisits an earlier instant (barrier releases
        can schedule into the past of the *event* clock).
        """
        ready = self._ready
        if time == self._now and (not ready or ready[0][0] == time):
            ready.append((time, next(self._seq), kind, payload))
        elif self._calendar is None:
            heapq.heappush(self._events, (time, next(self._seq), kind, payload))
        else:
            self._calendar.push((time, next(self._seq), kind, payload))

    def _step(
        self, task: Task, time: float, value: Any, throw: BaseException | None = None
    ) -> None:
        """Advance a task's generator from ``time``, feeding ``value`` in.

        ``throw`` delivers a failed child's exception into the generator
        instead of a value (see :meth:`_fail_subtask`).
        """
        if task_rank(task) in self.failed or task not in self._gens:
            return  # fail-stopped (or halted) rank: no further progress
        self._task_time[task] = max(self._task_time.get(task, 0.0), time)
        gen = self._gens[task]
        rank = task_rank(task)
        prev_active = self._active_task
        self._active_task = task
        try:
            while True:
                try:
                    if throw is not None:
                        pending, throw = throw, None
                        op = gen.throw(pending)
                    else:
                        op = gen.send(value)
                except StopIteration as stop:
                    self._task_finished(task, stop.value)
                    return
                except Exception as exc:
                    if isinstance(task, tuple) and task in self._parent_of:
                        # A sub-task failed: cancel its siblings and throw
                        # the exception into the parent, where the program
                        # can catch it (e.g. CommTimeoutError handling).
                        self._fail_subtask(task, exc)
                        return
                    # Annotate program failures with the failing task so a
                    # bug on one of hundreds of ranks is findable.
                    exc.args = (
                        f"[rank {rank}, task {task}, t={self._task_time[task]:g}] "
                        + (str(exc.args[0]) if exc.args else ""),
                    ) + tuple(exc.args[1:])
                    raise
                value = None
                now = self._task_time[task]

                # Exact-class dispatch: ops are final (never subclassed), and
                # `__class__ is` beats isinstance() on this hottest of loops.
                cls = op.__class__
                if cls is SendOp:
                    handle = self._issue_send(task, op, now)
                    if op.blocking:
                        if handle.done:
                            value = None
                            continue
                        self._blocked[task] = _Waiter([handle], "send")
                        return
                    value = handle
                    continue

                if cls is RecvOp:
                    handle = self._issue_recv(task, op, now)
                    if op.blocking:
                        if handle.done:
                            value = handle.value
                            continue
                        self._blocked[task] = _Waiter([handle], "recv")
                        return
                    value = handle
                    continue

                if cls is WaitOp:
                    waiter = _Waiter(op.handles, "wait")
                    if waiter.ready():
                        value = waiter.resume_value()
                        continue
                    self._blocked[task] = waiter
                    return

                if cls is ElapseOp:
                    self.stats[rank].flops += op.flops
                    self.stats[rank].compute_time += op.duration
                    if op.duration > 0:
                        if self.trace_enabled:
                            self.trace.append(
                                TraceRecord(
                                    "compute", now, now + op.duration, rank,
                                    {"flops": op.flops},
                                )
                            )
                        self._schedule(now + op.duration, _RESUME, (task, None))
                        return
                    continue

                if cls is ParallelOp:
                    children = []
                    for slot, sub in enumerate(op.generators):
                        if not hasattr(sub, "send"):
                            raise SimulationError(
                                "ctx.parallel expects generators (call the "
                                "generator functions when passing them)"
                            )
                        child: Task = (rank, next(self._child_seq))
                        self._gens[child] = sub
                        self._task_time[child] = now
                        self._parent_of[child] = (task, slot)
                        children.append(child)
                    if not children:
                        value = []
                        continue
                    self._parallel[task] = _ParallelWait(children)
                    for child in children:
                        self._schedule(now, _RESUME, (child, None))
                    return

                if cls is ShiftPhaseOp:
                    if not self._superstep_ok:
                        # This run needs per-hop events (faults, scenario,
                        # tracing, watchdog, or superstep=False): answer
                        # immediately so the program runs the equivalent
                        # loop inline — zero extra events, identical trace.
                        value = SHIFT_FALLBACK
                        continue
                    self._parked[task] = (op, now)
                    if op.steps > 1:
                        # Resources this phase will reserve, with the time
                        # of its first reservation (after the step-0
                        # multiply); a foreign hop reserving one later
                        # than that forces release (see _start_hop).
                        ar, ac = op.a_block.shape
                        thr = now + self.config.params.flops_time(
                            2.0 * ar * ac * op.b_block.shape[1]
                        )
                        self._hazard_channels[(rank, op.a_to)] = thr
                        self._hazard_channels[(rank, op.b_to)] = thr
                        if self._one_port:
                            self._hazard_nodes[rank] = thr
                    return

                if cls is CollectivePhaseOp:
                    if (
                        not self._superstep_ok
                        or isinstance(task, tuple)
                        or (self._one_port and len(op.specs) > 1)
                    ):
                        # Ineligible runs, ctx.parallel sub-tasks (whose
                        # fused parent already declared the pair), and
                        # fused pairs on one-port machines (the two
                        # schedules interleave through a single port
                        # engagement, which only the event path models):
                        # answer immediately — the schedule runs its
                        # ordinary rounds; zero extra events, identical
                        # trace.
                        value = COLLECTIVE_FALLBACK
                        continue
                    self._parked_coll[task] = (op, now)
                    # Unlike a shift phase (whose first reservation comes
                    # after the step-0 multiply), a collective's first
                    # sends can start at the park time itself, so the
                    # hazard threshold sits just *below* the park time:
                    # the strict `>` in _start_hop then forces a release
                    # even for a same-time foreign hop, whose reservation
                    # order against the phase's would otherwise be
                    # ambiguous.
                    thr = math.nextafter(now, -math.inf)
                    hz_ch = self._hazard_channels
                    for spec in op.specs:
                        node = spec.members[spec.rank]
                        for dim in spec.free_dims:
                            key = (node, node ^ (1 << dim))
                            cur = hz_ch.get(key)
                            hz_ch[key] = thr if cur is None else min(cur, thr)
                    if self._one_port:
                        cur = self._hazard_nodes.get(rank)
                        self._hazard_nodes[rank] = (
                            thr if cur is None else min(cur, thr)
                        )
                    return

                if cls is BarrierOp:
                    if isinstance(task, tuple):
                        raise SimulationError(
                            "barrier may only be called from a rank's main program"
                        )
                    self._barrier_waiting[rank] = now
                    self._maybe_release_barrier()
                    return

                raise SimulationError(
                    f"task {task} yielded unsupported object {op!r}; programs "
                    "must yield via ProcessContext helpers"
                )
        finally:
            self._active_task = prev_active

    def _task_finished(self, task: Task, value: Any) -> None:
        finish = self._task_time[task]
        del self._gens[task]
        if isinstance(task, tuple):
            parent, slot = self._parent_of.pop(task)
            pw = self._parallel[parent]
            pw.remaining.discard(task)
            pw.values[slot] = value
            pw.latest = max(pw.latest, finish)
            if not pw.remaining:
                del self._parallel[parent]
                values = [pw.values[i] for i in range(len(pw.values))]
                resume_at = max(self._task_time[parent], pw.latest)
                self._schedule(resume_at, _RESUME, (parent, values))
            return
        self.results[task] = value
        self.done.add(task)
        self.stats[task].finish_time = finish
        # A rank finishing shrinks the barrier quorum; re-check waiters.
        self._maybe_release_barrier()

    def _maybe_release_barrier(self) -> None:
        """Release the barrier once every still-active rank has arrived.

        Finished and fail-stopped ranks are excluded from the quorum, so a
        node failure cannot hang everyone else at a barrier forever.
        """
        if not self._barrier_waiting:
            return
        n_active = self.config.num_nodes - len(self.done) - len(self.failed)
        if len(self._barrier_waiting) >= n_active:
            release = max(self._barrier_waiting.values())
            for r in self._barrier_waiting:
                self._schedule(release, _RESUME, (r, None))
            self._barrier_waiting = {}

    def _fail_subtask(self, child: Task, exc: BaseException) -> None:
        """A ``ctx.parallel`` child raised: cancel its siblings and rethrow
        the exception inside the parent generator."""
        parent, _slot = self._parent_of.pop(child)
        self._cancel_task(child)
        pw = self._parallel.pop(parent, None)
        if pw is not None:
            pw.remaining.discard(child)
            for sibling in list(pw.remaining):
                self._cancel_task(sibling)
        at = max(
            self._task_time.get(parent, 0.0), self._task_time.get(child, 0.0)
        )
        self._step(parent, at, None, throw=exc)

    def _cancel_task(self, task: Task) -> None:
        """Abandon a task (and, recursively, its children) without a result."""
        gen = self._gens.pop(task, None)
        if gen is not None:
            try:
                gen.close()
            except Exception:  # pragma: no cover - close() misbehaving
                pass
        self._blocked.pop(task, None)
        self._parent_of.pop(task, None)
        pw = self._parallel.pop(task, None)
        if pw is not None:
            for sub in list(pw.remaining):
                self._cancel_task(sub)
        rank = task_rank(task)
        self._pending_recvs[rank] = [
            entry for entry in self._pending_recvs[rank] if entry[2].task != task
        ]

    # -- faults ----------------------------------------------------------

    def _fail_node(self, node: int, time: float) -> None:
        """Fail-stop ``node``: halt all of its tasks, free its state."""
        if node in self.failed or node in self.done:
            return
        self.failed.add(node)
        self.stats[node].finish_time = time
        if self.trace_enabled:
            self.trace.append(
                TraceRecord("node_fail", time, time, node, {})
            )
        for task in [t for t in self._gens if task_rank(t) == node]:
            self._gens[task].close()
            del self._gens[task]
        for task in [t for t in self._blocked if task_rank(t) == node]:
            del self._blocked[task]
        for task in [t for t in self._parallel if task_rank(t) == node]:
            del self._parallel[task]
        for child in [c for c in self._parent_of if task_rank(c) == node]:
            del self._parent_of[child]
        self._pending_recvs[node] = []
        self._barrier_waiting.pop(node, None)
        self._maybe_release_barrier()

    def _lose_message(
        self, transfer: "_Transfer", node: int, start: float, end: float,
        reason: str,
    ) -> None:
        """Mark ``transfer`` lost; it will never be delivered or forwarded."""
        transfer.dropped = True
        self._messages_dropped += 1
        if self.trace_enabled:
            msg = transfer.msg
            self.trace.append(
                TraceRecord(
                    "drop", start, end, node,
                    {"msg": msg.msg_id, "src": msg.src, "dst": msg.dst,
                     "reason": reason},
                )
            )

    def _maybe_corrupt(
        self, transfer: "_Transfer", u: int, v: int, start: float, end: float
    ) -> None:
        """Roll the plan's link corruptions for this hop and, when one
        fires, bit-flip a private copy of the payload (the sender's buffer
        and any shared references stay intact; downstream hops and the
        final delivery carry the perturbed copy)."""
        fs = self.faults
        events = fs.roll_corruptions(u, v, start)
        if not events:
            return
        msg = transfer.msg
        data = _copy_payload(msg.data)
        flipped = 0
        for lc in events:
            flipped += fs.corrupt_payload(data, lc.model, lc.flips)
        if not flipped:
            return  # no float64 words to perturb (control message)
        msg.data = data
        self._corruption_events += 1
        if self.trace_enabled:
            self.trace.append(
                TraceRecord(
                    "corrupt", start, end, u,
                    {"msg": msg.msg_id, "src": msg.src, "dst": msg.dst,
                     "words": flipped, "where": "link"},
                )
            )

    def apply_node_corruption(self, rank: int, out: np.ndarray) -> None:
        """Apply a due :class:`~repro.sim.faults.NodeCorruption` to a
        local-compute output block (called by ``ctx.local_matmul``)."""
        fs = self.faults
        if fs is None or not fs.plan.node_corruptions:
            return
        now = self.time_of(rank)
        nc = fs.take_node_corruption(rank, now)
        if nc is None:
            return
        flipped = fs.corrupt_payload(out, nc.model, nc.flips)
        if not flipped:
            return
        self._corruption_events += 1
        if self.trace_enabled:
            self.trace.append(
                TraceRecord(
                    "corrupt", now, now, rank,
                    {"words": flipped, "where": "compute"},
                )
            )

    def _progress_snapshot(self) -> dict[int, str]:
        """Per-rank progress descriptions for livelock diagnostics."""
        snap: dict[int, str] = {}
        for rank in range(self.config.num_nodes):
            if rank in self.done:
                continue
            if rank in self.failed:
                snap[rank] = (
                    f"fail-stopped at t={self.stats[rank].finish_time:g}"
                )
                continue
            parts = []
            for task, waiter in self._blocked.items():
                if task_rank(task) == rank:
                    parts.append(f"task {task}: {waiter.describe()}")
            for task, pw in self._parallel.items():
                if task_rank(task) == rank:
                    parts.append(
                        f"task {task}: waiting on sub-tasks "
                        f"{sorted(map(str, pw.remaining))}"
                    )
            if rank in self._barrier_waiting:
                parts.append(
                    f"at barrier since t={self._barrier_waiting[rank]:g}"
                )
            latest = max(
                (t for tk, t in self._task_time.items() if task_rank(tk) == rank),
                default=0.0,
            )
            state = "; ".join(parts) if parts else "runnable"
            snap[rank] = f"t={latest:g}, {state}"
        return snap

    # -- scenario costing --------------------------------------------------

    def _link_weight(self, time: float):
        """Per-link routing weight at ``time``: the degraded one-word hop
        cost ``ts_factor·t_s + tw_factor·t_w`` under the active scenario.

        Constant within one scenario epoch, which is what lets
        :meth:`~repro.topology.routing.RouteCache.cheapest` memoize the
        resulting routes per epoch key.
        """
        scen = self.scenario
        t_s, t_w = self._t_s, self._t_w

        def weight(a: int, b: int) -> float:
            ts_f, tw_f = scen.factors(a, b, time)
            return ts_f * t_s + tw_f * t_w

        return weight

    # -- sends -----------------------------------------------------------

    def _issue_send(self, task: Task, op: SendOp, now: float) -> Handle:
        rank = task_rank(task)
        handle = Handle("send", task, detail=f"send dst={op.dst} tag={op.tag}")
        data = _copy_payload(op.data) if self.config.copy_on_send else op.data
        msg = Message(
            src=rank, dst=op.dst, tag=op.tag, data=data, nwords=op.nwords,
            send_time=now, msg_id=next(self._msg_seq), ack_tag=op.ack_tag,
            crc=op.crc, table=self._messages,
        )
        st = self.stats[rank]
        st.messages_sent += 1
        st.words_sent += op.nwords

        if op.dst == rank:
            handle.complete(now)
            self._deliver(msg, now)
            return handle

        self._inject(msg, handle, now)
        return handle

    def _inject(self, msg: Message, handle: Handle, now: float) -> None:
        """Route ``msg`` and schedule its first hop (fault-aware)."""
        fs = self.faults
        if fs is None:
            if self._adaptive:
                # Heterogeneous costs: route around expensive links.  The
                # weight function is constant within a scenario epoch, so
                # the cheapest route is memoized per (src, dst, epoch).
                hops: list | tuple = self.routes.cheapest(
                    msg.src, msg.dst, self._link_weight(now),
                    self.scenario.epoch(now),
                )
            else:
                # Healthy machine: routes never change, so every transfer
                # on the same (src, dst) pair shares one immutable cached
                # hop tuple.
                hops = self.routes.healthy(msg.src, msg.dst)
        elif fs.node_failed(msg.dst, now):
            # Destination already fail-stopped: the message is lost in the
            # void but the send itself costs the sender nothing extra.
            if not handle.done:
                handle.complete(now)
            self._lose_message(_Transfer(msg, []), msg.src, now, now, "dest-failed")
            return
        else:
            def alive(a: int, b: int) -> bool:
                return not fs.link_dead(a, b, now)

            if self._adaptive and fs.plan.reroute:
                # Degraded-aware detouring: prefer cheap healthy links.
                # The route depends on both piecewise-constant layers, so
                # the cache key pairs their epochs — either kind of window
                # edge invalidates it.
                cached = self.routes.cheapest(
                    msg.src, msg.dst, self._link_weight(now),
                    (fs.route_epoch(now), self.scenario.epoch(now)), alive,
                )
            else:
                cached = self.routes.healthy(msg.src, msg.dst)
                # Strict mode keeps the native route; _start_hop raises
                # LinkFailedError when the message reaches the dead link.
                if fs.plan.reroute and not all(alive(u, v) for u, v in cached):
                    cached = self.routes.detour(
                        msg.src, msg.dst, alive, fs.route_epoch(now)
                    )
                    self._hops_rerouted += 1
                    if self.trace_enabled:
                        self.trace.append(
                            TraceRecord(
                                "reroute", now, now, msg.src,
                                {"msg": msg.msg_id, "dead": None,
                                 "via": cached[0][1] if cached else msg.dst,
                                 "src": msg.src, "dst": msg.dst},
                            )
                        )
            # Fault mode may splice a detour tail in-place mid-flight
            # (_start_hop), so each transfer needs its own mutable copy.
            hops = list(cached)
        self._schedule(now, _HOP_READY, (_Transfer(msg, hops), 0, handle))

    def _start_hop(
        self, transfer: _Transfer, hop_index: int, handle: Handle, time: float
    ) -> None:
        if transfer.dropped:  # pragma: no cover - defensive (CT pipelining)
            return
        msg, hops = transfer.msg, transfer.hops
        u, v = hops[hop_index]
        if self._parked or self._parked_coll:
            thr = self._hazard_channels.get((u, v))
            if thr is None:
                thr = self._hazard_nodes.get(u)
            if thr is not None and time > thr:
                # A foreign hop (e.g. a straggler's multi-hop skew
                # traffic) is about to reserve a resource a parked phase
                # would already be using by now.  The event path would
                # have ordered the parked ranks' reservations first, so
                # reserving here would invert the FIFO order: release the
                # parked ranks onto the event path at their park times,
                # then retry this hop after their reservations have gone
                # in first.
                self._release_all_parked()
                self._schedule(time, _HOP_READY, (transfer, hop_index, handle))
                return
        fs = self.faults
        tw_factor = 1.0
        if fs is not None:
            if fs.node_failed(u, time):
                # The node holding the message died: the message dies too.
                self._lose_message(transfer, u, time, time, "node-failed")
                if hop_index == 0 and not handle.done:
                    handle.complete(time)
                    self._notify(handle.task)
                return
            if fs.node_failed(msg.dst, time):
                self._lose_message(transfer, u, time, time, "dest-failed")
                if hop_index == 0 and not handle.done:
                    handle.complete(time)
                    self._notify(handle.task)
                return
            if fs.link_dead(u, v, time):
                if not fs.plan.reroute:
                    raise LinkFailedError(u, v, time)
                # Detour: recompute the surviving route from here (cached
                # per fault epoch — the dead-link set is constant within
                # one).  Raises UnreachableError when the surviving graph
                # disconnects.
                if self._adaptive:
                    tail = self.routes.cheapest(
                        u, msg.dst, self._link_weight(time),
                        (fs.route_epoch(time), self.scenario.epoch(time)),
                        lambda a, b: not fs.link_dead(a, b, time),
                    )
                else:
                    tail = self.routes.detour(
                        u, msg.dst,
                        lambda a, b: not fs.link_dead(a, b, time),
                        fs.route_epoch(time),
                    )
                dead = (u, v)
                hops[hop_index:] = tail
                u, v = hops[hop_index]
                self._hops_rerouted += 1
                if self.trace_enabled:
                    self.trace.append(
                        TraceRecord(
                            "reroute", time, time, dead[0],
                            {"msg": msg.msg_id, "dead": dead, "via": v,
                             "src": msg.src, "dst": msg.dst},
                        )
                    )
            tw_factor = fs.degradation(u, v, time)
        scen = self.scenario
        if scen is None:
            header_ts = self._t_s
            if tw_factor == 1.0:
                duration = self._t_s + self._t_w * msg.nwords
            else:
                duration = self.config.params.hop_time(msg.nwords, tw_factor)
            ts_f = tw_f = 1.0
        else:
            # Scenario factors compose multiplicatively with the fault
            # plan's degradation: independent slowdown sources stack.
            ts_f, tw_f = scen.factors(u, v, time)
            header_ts = ts_f * self._t_s
            duration = header_ts + self._t_w * tw_f * tw_factor * msg.nwords
        start = self.tracker.reserve_hop(u, v, time, duration)
        if self.trace_enabled:
            info = {"to": v, "msg": msg.msg_id, "words": msg.nwords,
                    "src": msg.src, "dst": msg.dst}
            if tw_factor != 1.0:
                info["degraded"] = tw_factor
            if ts_f != 1.0 or tw_f != 1.0:
                info["slow"] = (ts_f, tw_f)
            self.trace.append(
                TraceRecord("hop", start, start + duration, u, info)
            )
        if fs is not None and fs.roll_drop(u, v, start):
            self._lose_message(transfer, v, start, start + duration, "drop")
        elif fs is not None and fs.plan.corruptions:
            self._maybe_corrupt(transfer, u, v, start, start + duration)
        if (
            self._cut_through
            and hop_index < len(hops) - 1
            and not transfer.dropped
        ):
            # Virtual cut-through: the next link sees the header one
            # (possibly degraded) start-up time after this hop starts
            # transmitting; the payload streams behind it.
            self._schedule(
                start + header_ts,
                _HOP_READY,
                (transfer, hop_index + 1, handle),
            )
        self._schedule(start + duration, _HOP_DONE, (transfer, hop_index, handle))

    def _finish_hop(
        self, transfer: _Transfer, hop_index: int, handle: Handle, time: float
    ) -> None:
        msg, hops = transfer.msg, transfer.hops
        if (
            hop_index == len(hops) - 1
            and not transfer.dropped
            and msg.dst in self._parked_coll
        ):
            # A message that was already in flight when its destination
            # parked on a collective is about to land in the parked rank's
            # mailbox.  The collective resolver refuses on any queued
            # delivery, and the ensuing release would resume the rank at
            # its (earlier) park time, where its next recv would find this
            # *future* delivery already queued and continue on a stale
            # clock.  Same remedy as the reservation hazards in
            # _start_hop: release every parked rank onto the event path
            # first (their resumes sort before this time), then redo the
            # delivery.  Shift parks are exempt: _resolve_superstep
            # handles their mailbox traffic with selective laggard
            # catch-up rounds.
            self._release_all_parked()
            self._schedule(time, _HOP_DONE, (transfer, hop_index, handle))
            return
        if hop_index == 0 and not handle.done:
            handle.complete(time)
            self._notify(handle.task)
        if transfer.dropped:
            return
        if hop_index == len(hops) - 1:
            self._deliver(msg, time)
        elif self._store_forward:
            self._schedule(time, _HOP_READY, (transfer, hop_index + 1, handle))

    # -- receives ----------------------------------------------------------

    def _issue_recv(self, task: Task, op: RecvOp, now: float) -> Handle:
        rank = task_rank(task)
        src_s = "ANY" if op.src == -1 else op.src
        tag_s = "ANY" if op.tag == -1 else op.tag
        handle = Handle("recv", task, detail=f"recv src={src_s} tag={tag_s}")
        box = self._mailbox[rank]
        src_f, tag_f = op.src, op.tag
        for i, (arrival, msg) in enumerate(box):
            # _matches, inlined: this runs for every queued message.
            if (src_f == ANY_SOURCE or src_f == msg.src) and (
                tag_f == ANY_TAG or tag_f == msg.tag
            ):
                box.pop(i)
                self._count_receive(rank, msg)
                handle.complete(max(now, arrival), msg.data)
                return handle
        self._pending_recvs[rank].append((op.src, op.tag, handle))
        if op.timeout is not None:
            self._schedule(now + op.timeout, _RECV_TIMEOUT, (rank, handle))
        return handle

    def _expire_recv(self, rank: int, handle: Handle, time: float) -> None:
        if handle.done:  # the message made it in time
            return
        pending = self._pending_recvs.get(rank, [])
        for i, (_src, _tag, h) in enumerate(pending):
            if h is handle:
                pending.pop(i)
                break
        handle.complete(time, TIMED_OUT)
        self._notify(handle.task)

    @staticmethod
    def _matches(src_filter: int, tag_filter: int, msg: Message) -> bool:
        return (src_filter == ANY_SOURCE or src_filter == msg.src) and (
            tag_filter == ANY_TAG or tag_filter == msg.tag
        )

    def _count_receive(self, rank: int, msg: Message) -> None:
        st = self.stats[rank]
        st.messages_received += 1
        st.words_received += msg.nwords

    def _deliver(self, msg: Message, time: float) -> None:
        fs = self.faults
        if msg.dst in self.failed or (
            fs is not None and fs.node_failed(msg.dst, time)
        ):
            # The destination fail-stopped while the message was on its
            # final hop: nobody is home to consume or acknowledge it.  The
            # sender's timeout/retransmission path observes the silence.
            self._lose_message(_Transfer(msg, []), msg.dst, time, time, "dest-failed")
            return
        if msg.crc is not None and msg.src != msg.dst:
            # End-to-end integrity: the destination node re-computes the
            # canonical checksum the sender attached.  A mismatch means the
            # payload was perturbed in flight — the copy is discarded
            # (never delivered to the application) and a NACK rides back
            # on the ack channel so the sender retransmits immediately
            # instead of waiting out its ack timeout.
            actual = message_crc(msg.src, msg.dst, msg.tag, msg.nwords, msg.data)
            if actual != msg.crc:
                self._integrity_rejects += 1
                if self.trace_enabled:
                    self.trace.append(
                        TraceRecord(
                            "nack", time, time, msg.dst,
                            {"msg": msg.msg_id, "src": msg.src, "tag": msg.tag},
                        )
                    )
                if msg.ack_tag is not None:
                    nack = Message(
                        src=msg.dst, dst=msg.src, tag=msg.ack_tag,
                        data=CORRUPT_VERDICT, nwords=0, send_time=time,
                        msg_id=next(self._msg_seq), table=self._messages,
                    )
                    self.stats[msg.dst].messages_sent += 1
                    nack_handle = Handle("send", msg.dst)
                    nack_handle.complete(time)
                    self._inject(nack, nack_handle, time)
                return
        if msg.ack_tag is not None and msg.src != msg.dst:
            # Delivery acknowledgement: the receiving *node* confirms
            # arrival immediately (hardware-style reliable delivery), so a
            # retransmitted duplicate re-triggers an ack even when the
            # application never posts another matching receive.  The ack
            # itself rides the network — it contends, can be dropped, and
            # then the sender's retransmission tries again.
            ack = Message(
                src=msg.dst, dst=msg.src, tag=msg.ack_tag, data=None,
                nwords=0, send_time=time, msg_id=next(self._msg_seq),
                table=self._messages,
            )
            self.stats[msg.dst].messages_sent += 1
            ack_handle = Handle("send", msg.dst)
            ack_handle.complete(time)  # no task waits on the NIC's send
            self._inject(ack, ack_handle, time)
        pending = self._pending_recvs[msg.dst]
        msg_src, msg_tag = msg.src, msg.tag
        for i, (src_f, tag_f, handle) in enumerate(pending):
            # _matches, inlined: runs once per delivery over all waiters.
            if (src_f == ANY_SOURCE or src_f == msg_src) and (
                tag_f == ANY_TAG or tag_f == msg_tag
            ):
                pending.pop(i)
                self._count_receive(msg.dst, msg)
                handle.complete(time, msg.data)
                self._notify(handle.task)
                return
        self._mailbox[msg.dst].append((time, msg))

    # -- wake-ups ----------------------------------------------------------

    def _notify(self, task: Task) -> None:
        """A handle owned by ``task`` completed; resume the task if unblocked."""
        waiter = self._blocked.get(task)
        if waiter is None or not waiter.ready():
            return
        del self._blocked[task]
        resume_at = max(
            self._task_time[task],
            max(h.completion_time for h in waiter.handles),
        )
        self._schedule(resume_at, _RESUME, (task, waiter.resume_value()))

    # -- phases --------------------------------------------------------------

    def _aggregate_phases(self) -> dict[str, tuple[float, float]]:
        out: dict[str, tuple[float, float]] = {}
        for rank, marks in self._phase_marks.items():
            finish = self.stats[rank].finish_time
            for i, (name, start) in enumerate(marks):
                end = marks[i + 1][1] if i + 1 < len(marks) else finish
                if name in out:
                    lo, hi = out[name]
                    out[name] = (min(lo, start), max(hi, end))
                else:
                    out[name] = (start, end)
        return out


def run_spmd(
    config: MachineConfig,
    program: ProgramFactory,
    *,
    trace: bool = False,
    max_events: int | None = None,
    max_virtual_time: float | None = None,
    superstep: bool = True,
    timing_only: bool = False,
    event_queue: str = "heap",
) -> RunResult:
    """Run the SPMD ``program`` (one generator per rank) on ``config``.

    ``max_events`` / ``max_virtual_time`` are watchdog caps: exceeding
    either raises :class:`~repro.errors.LivelockError` with a per-rank
    progress snapshot instead of spinning forever.  ``superstep``,
    ``timing_only`` and ``event_queue`` select the engine's fast paths —
    see :class:`Engine` for their (bit-identical) semantics.
    """
    return Engine(
        config, trace=trace, max_events=max_events,
        max_virtual_time=max_virtual_time, superstep=superstep,
        timing_only=timing_only, event_queue=event_queue,
    ).run(program)

"""Per-layer timing by wrapping each layer's public functions from outside.

Nothing under ``src/`` changes: :class:`Tracer` replaces a fixed list of
functions with timing wrappers on entry and puts the originals back on
exit.  A wrapper adds two clock reads and one Python call to every call it
sees, so the traced run is slower than the untraced one; the benchmark
reports that ratio as ``trace.overhead_ratio`` and takes every end-to-end
metric from untraced runs only.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from collections import defaultdict

_MISSING = object()


def _targets(algorithms):
    """``(owner, attribute, key)`` for every wrapped function."""
    import repro.sim.engine as engine
    from repro.algorithms import get_algorithm
    from repro.analysis import regions
    from repro.analysis.cache import ResultCache
    from repro.service.journal import Journal
    from repro.service.service import SweepService
    from repro.service.supervisor import Supervisor
    from repro.sim.ports import ContentionTracker
    from repro.sim.process import ProcessContext

    targets = [
        (engine.Engine, "__init__", "engine.init"),
        (engine.Engine, "run", "engine.run"),
        # The closed forms as the engine module binds them: the engine
        # calls them through its own globals.
        (engine, "try_advance_superstep", "shift"),
        (engine, "try_advance_collective", "collective"),
        (ContentionTracker, "reserve_hop", "reserve_hop"),
        (ProcessContext, "local_matmul", "local_matmul"),
        (regions, "region_map", "region_map"),
        (Journal, "append", "journal.append"),
        (Journal, "replay", "journal.replay"),
        (ResultCache, "get", "cache.get"),
        (ResultCache, "put", "cache.put"),
        (Supervisor, "run", "supervisor.run"),
        (SweepService, "__init__", "service.open"),
    ]
    for key in algorithms:
        cls = type(get_algorithm(key))
        targets.append((cls, "distribute_inputs", "algorithms.distribute"))
        targets.append((cls, "collect_output", "algorithms.collect"))
    return targets


class Tracer:
    """Context manager: wraps the layer functions, restores them on exit.

    ``calls[key]`` and ``seconds[key]`` accumulate per wrapped function
    while the tracer is active; :meth:`layers` turns them into the
    benchmark's per-layer metrics.
    """

    def __init__(self, algorithms=()):
        self.algorithms = tuple(algorithms)
        self._saved: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.accepted: dict[str, int] = defaultdict(int)
        self.messages = 0
        self.cache_hits = 0
        self.chunk_latency_s: list[float] = []
        self._leased_at: dict[tuple, float] = {}
        self.gc_passes = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key, fn):
        clock = time.perf_counter
        calls, seconds = self.calls, self.seconds
        after = {
            "engine.run": self._after_engine_run,
            "shift": self._after_closed_form,
            "collective": self._after_closed_form,
            "cache.get": self._after_cache_get,
            "journal.append": self._after_journal_append,
        }.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - started
                calls[key] += 1
            if after is not None:
                after(key, started, args, out)
            return out

        return wrapper

    def _after_engine_run(self, key, started, args, result):
        self.messages += result.total_messages()

    def _after_closed_form(self, key, started, args, outcome):
        if outcome is not None:
            self.accepted[key] += 1

    def _after_cache_get(self, key, started, args, payload):
        if payload is not None:
            self.cache_hits += 1

    def _after_journal_append(self, key, started, args, seq):
        body = args[1]
        kind = body.get("t")
        if kind == "lease":
            self._leased_at[(body.get("job"), body["chunk"])] = started
        elif kind == "done":
            leased = self._leased_at.pop((body.get("job"), body["chunk"]), None)
            if leased is not None:
                self.chunk_latency_s.append(started - leased)

    def _on_gc(self, phase, info):
        if phase == "start":
            self.gc_passes += 1

    def __enter__(self) -> "Tracer":
        # Only attributes are swapped; an attribute the owner inherited
        # (rather than defined) is deleted again on exit, not pinned.
        for owner, attr, key in _targets(self.algorithms):
            own = vars(owner).get(attr, _MISSING)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, self._wrap(key, original))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- metrics ----------------------------------------------------------

    def layers(self, *, direct_s: float = 0.0, counters=None) -> dict:
        """Per-layer metrics over everything traced so far.

        ``direct_s`` is the in-process evaluation time of the chunks the
        supervisor ran (service workload), the work part of its wall time;
        ``counters`` is ``SweepService.counters`` when there is a service.
        """
        counters = counters or {}
        s, c, acc = self.seconds, self.calls, self.accepted
        event_self = s["engine.run"] - s["shift"] - s["collective"]
        latencies = sorted(self.chunk_latency_s)
        if len(latencies) >= 2:
            deciles = statistics.quantiles(latencies, n=10)
            p50, p90 = statistics.median(latencies), deciles[8]
        else:
            p50 = p90 = latencies[0] if latencies else 0.0
        harness = 0.0
        if c["region_map"]:
            harness = s["region_map"] - s["engine.init"] - s["engine.run"]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "sim.engine.init_s": s["engine.init"],
            "sim.engine.run_s": s["engine.run"],
            "sim.engine.event_self_s": event_self,
            "sim.engine.messages": self.messages,
            "sim.engine.us_per_msg": ratio(event_self * 1e6, self.messages),
            "sim.ports.reserve_hop_calls": c["reserve_hop"],
            "sim.ports.reserve_hop_s": s["reserve_hop"],
            "sim.superstep.shift_calls": c["shift"],
            "sim.superstep.shift_accepted": acc["shift"],
            "sim.superstep.shift_accept_ratio": ratio(acc["shift"], c["shift"]),
            "sim.superstep.shift_s": s["shift"],
            "sim.superstep.collective_calls": c["collective"],
            "sim.superstep.collective_accepted": acc["collective"],
            "sim.superstep.collective_accept_ratio": ratio(
                acc["collective"], c["collective"]
            ),
            "sim.superstep.collective_s": s["collective"],
            "sim.process.local_matmul_calls": c["local_matmul"],
            "sim.process.local_matmul_s": s["local_matmul"],
            "algorithms.distribute_s": s["algorithms.distribute"],
            "algorithms.collect_s": s["algorithms.collect"],
            "analysis.regions.harness_s": harness,
            "analysis.cache.put_calls": c["cache.put"],
            "analysis.cache.put_s": s["cache.put"],
            "analysis.cache.get_calls": c["cache.get"],
            "analysis.cache.get_s": s["cache.get"],
            "analysis.cache.hit_ratio": ratio(self.cache_hits, c["cache.get"]),
            "service.journal.append_calls": c["journal.append"],
            "service.journal.append_s": s["journal.append"],
            "service.journal.replay_s": s["journal.replay"],
            "service.supervisor.run_s": s["supervisor.run"],
            "service.supervisor.idle_s": (
                s["supervisor.run"] - direct_s if c["supervisor.run"] else 0.0
            ),
            "service.supervisor.leases": counters.get("leases", 0),
            "service.supervisor.retries": counters.get("retries", 0),
            "service.chunk_latency_p50_ms": p50 * 1e3,
            "service.chunk_latency_p90_ms": p90 * 1e3,
            "service.open_s": ratio(s["service.open"], c["service.open"]),
            "runtime.gc_passes": self.gc_passes,
        }

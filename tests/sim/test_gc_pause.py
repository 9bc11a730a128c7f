"""The cyclic collector is paused for ``Engine.run``, and runs are cycle-free.

``Engine.run`` disables automatic cyclic garbage collection for the call
and restores the caller's setting on every exit.  The pause is only safe
because a completed run leaves no reference cycles behind: dropping its
result frees everything by reference counting, so repeated runs (region
maps, sweeps) do not pile up garbage while the collector is off.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS
from repro.errors import DeadlockError, LivelockError
from repro.sim import MachineConfig, PortModel, run_spmd

CFG = MachineConfig.create(4, t_s=10.0, t_w=1.0)


@pytest.fixture
def collector():
    """Yield the gc module; restore the collector's state afterwards."""
    was_enabled = gc.isenabled()
    try:
        yield gc
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_entry_state_is_restored(self, collector, enabled):
        if enabled:
            collector.enable()
        else:
            collector.disable()
        seen = []

        def prog(ctx):
            seen.append(gc.isenabled())
            yield from ctx.exchange(ctx.rank ^ 1, np.ones(2))
            return ctx.rank

        res = run_spmd(CFG, prog)
        assert res.results == {0: 0, 1: 1, 2: 2, 3: 3}
        assert seen == [False] * 4
        assert collector.isenabled() is enabled

    def test_restored_after_deadlock(self, collector):
        collector.enable()
        seen = []

        def prog(ctx):
            seen.append(gc.isenabled())
            if ctx.rank == 0:
                yield from ctx.recv(1, tag=7)  # nobody sends
            return None

        with pytest.raises(DeadlockError):
            run_spmd(CFG, prog)
        assert seen == [False] * 4
        assert collector.isenabled()

    def test_restored_after_livelock(self, collector):
        collector.enable()
        seen = []

        def prog(ctx):
            seen.append(gc.isenabled())
            peer = ctx.rank ^ 1
            if ctx.rank == 0:
                yield from ctx.send(peer, np.ones(1))
            if ctx.rank in (0, 1):
                while True:
                    yield from ctx.recv(peer)
                    yield from ctx.send(peer, np.ones(1))
            return None

        with pytest.raises(LivelockError) as exc:
            run_spmd(CFG, prog, max_events=500)
        assert exc.value.reason == "max_events"
        assert seen == [False] * 4
        assert collector.isenabled()


def _case(algo):
    """Largest p <= 64 (and its smallest n) the algorithm accepts."""
    for p in (64, 32, 16, 8, 4):
        for n in (8, 16, 32):
            if algo.applicable(n, p):
                return n, p
    raise AssertionError(f"{algo.key}: no applicable case with p <= 64")


CASES = [
    (key, *_case(algo), port, superstep)
    for key, algo in ALGORITHMS.items()
    for port in PortModel
    for superstep in (True, False)
] + [
    # p = 512 multi-port outgrows the tracker's initial 4096 column slots.
    ("3d_all_rect", 32, 512, PortModel.MULTI_PORT, True),
]


@pytest.mark.parametrize(
    "key, n, p, port, superstep",
    CASES,
    ids=[
        f"{key}-n{n}-p{p}-{port.name.lower()}-{'fast' if ss else 'event'}"
        for key, n, p, port, ss in CASES
    ],
)
def test_completed_run_leaves_no_cyclic_garbage(collector, key, n, p, port, superstep):
    rng = np.random.default_rng(p)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    cfg = MachineConfig.create(p, t_s=10.0, t_w=1.0, port_model=port)
    collector.collect()
    collector.disable()
    ALGORITHMS[key].run(A, B, cfg, superstep=superstep)
    assert collector.collect() == 0

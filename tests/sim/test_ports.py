"""Tests for port/link contention under both port models."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import MachineConfig, PortModel, run_spmd
from repro.sim.machine import MachineParams
from repro.sim.ports import ContentionTracker, Resource, ResourceSet


def cfg(port, p=8):
    return MachineConfig.create(p, t_s=10.0, t_w=1.0, port_model=port)


class TestResource:
    def test_fifo_reservation(self):
        r = Resource("x")
        s1 = r.earliest_start(0.0)
        r.hold(s1, 5.0)
        assert r.earliest_start(0.0) == 5.0
        assert r.busy_time == 5.0
        assert r.reservations == 1

    def test_double_booking_rejected(self):
        r = Resource("x")
        r.hold(0.0, 10.0)
        with pytest.raises(SimulationError):
            r.hold(5.0, 1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Resource("x").hold(0.0, -1.0)

    def test_joint_reservation_takes_max(self):
        a, b = Resource("a"), Resource("b")
        a.hold(0.0, 7.0)
        start = ResourceSet.reserve([a, b], ready=2.0, duration=3.0)
        assert start == 7.0
        assert b.next_free == 10.0


class TestTracker:
    def test_non_neighbor_hop_rejected(self):
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        with pytest.raises(SimulationError):
            tracker.hop_resources(0, 3)

    def test_one_port_has_send_engagement(self):
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        assert len(tracker.hop_resources(0, 1)) == 2  # channel + send port

    def test_multi_port_channel_only(self):
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        assert len(tracker.hop_resources(0, 1)) == 1

    def test_channel_utilization(self):
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        tracker.reserve_hop(0, 1, 0.0, 10.0)
        util = tracker.channel_utilization(20.0)
        assert util[(0, 1)] == pytest.approx(0.5)
        assert tracker.max_channel_busy() == 10.0
        assert tracker.total_channel_busy() == 10.0


class TestAggregationEdgeCases:
    """Channel free-time/busy-time aggregation over the SoA columns."""

    def test_non_dyadic_durations_aggregate_exactly(self):
        """Sums over non-dyadic durations must match the sequential
        sorted-key fold bit-for-bit (float addition is order-sensitive)."""
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        durations = {(0, 1): 10.0 / 3.0, (1, 0): 0.7, (0, 2): 0.1}
        for (u, v), d in durations.items():
            tracker.reserve_hop(u, v, 0.0, d)
        expected = 0.0
        for key in sorted(durations):
            expected += durations[key]
        assert tracker.total_channel_busy() == expected
        assert tracker.max_channel_busy() == 10.0 / 3.0
        util = tracker.channel_utilization(1.0)
        assert util[(1, 0)] == 0.7

    def test_simultaneous_reservations_at_equal_timestamps(self):
        """Distinct channels reserved at the same instant all start then;
        a back-to-back reservation starting exactly at the free time is
        FIFO, not a double-booking."""
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        starts = [tracker.reserve_hop(0, 1 << d, 5.0, 2.0) for d in range(3)]
        assert starts == [5.0, 5.0, 5.0]
        # exactly at the free boundary: allowed, extends the same channel
        assert tracker.reserve_hop(0, 1, 7.0, 1.0) == 7.0
        res = tracker._channel_resource(0, 1)
        assert res.next_free == 8.0
        assert res.busy_time == 3.0
        assert res.reservations == 2

    def test_equal_busy_ties_in_max(self):
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        tracker.reserve_hop(0, 1, 0.0, 4.0)
        tracker.reserve_hop(2, 3, 1.0, 4.0)
        assert tracker.max_channel_busy() == 4.0

    def test_zero_horizon_and_empty_tracker(self):
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        assert tracker.total_channel_busy() == 0.0
        assert tracker.max_channel_busy() == 0.0
        assert tracker.channel_utilization(0.0) == {}
        tracker.reserve_hop(0, 1, 0.0, 1.0)
        assert tracker.channel_utilization(0.0) == {(0, 1): 0.0}

    def test_views_stay_valid_across_column_growth(self):
        """Resource views hold (store, index), so growing the backing
        columns must not detach or stale them."""
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        res = tracker._channel_resource(0, 1)
        res.hold(0.0, 3.0)
        cap = len(tracker._free)
        while tracker._n < cap + 2:  # force at least one _grow()
            tracker._alloc()
        assert res.next_free == 3.0
        assert res.busy_time == 3.0
        assert tracker._channel_resource(0, 1) is res  # cached view
        res.hold(3.0, 1.0)
        assert tracker.total_channel_busy() == 4.0

    def test_tracker_is_freed_without_the_cyclic_collector(self):
        """Views point at the shared column store, not at the tracker, so
        dropping a used tracker frees it by reference counting alone."""
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        tracker.reserve_hop(0, 1, 0.0, 2.0)
        view = tracker._channel[(0, 1)]
        cap = len(tracker._free)
        while tracker._n < cap + 2:  # force a _grow()
            tracker._alloc()
        ref = weakref.ref(tracker)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del tracker
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
        assert view.busy_time == 2.0  # the view keeps the store alive

    def test_one_port_send_port_aggregation_excluded_from_channels(self):
        """Send-port slots share the columns but never leak into channel
        statistics."""
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        tracker.reserve_hop(0, 1, 0.0, 6.0)  # holds channel AND send port
        assert tracker.total_channel_busy() == 6.0
        assert set(tracker.channel_utilization(6.0)) == {(0, 1)}


class TestOnePortSerialization:
    def test_two_sends_serialize(self):
        def prog(ctx):
            if ctx.rank == 0:
                h1 = yield from ctx.isend(1, np.ones(5))
                h2 = yield from ctx.isend(2, np.ones(5))
                yield from ctx.waitall([h1, h2])
                return ctx.now
            if ctx.rank in (1, 2):
                yield from ctx.recv(0)
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.ONE_PORT), prog)
        assert res.results[0] == pytest.approx(30.0)

    def test_send_and_recv_concurrent(self):
        """Full duplex: simultaneous send and receive on one-port."""

        def prog(ctx):
            if ctx.rank in (0, 1):
                got = yield from ctx.exchange(1 - ctx.rank, np.ones(5))
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.ONE_PORT), prog)
        assert res.results[0] == pytest.approx(15.0)

    def test_forwarding_contends_with_own_sends(self):
        """A node forwarding a multi-hop message delays its own sends."""

        def prog(ctx):
            # 0 sends to 3 via 1 (e-cube: 0 -> 1 -> 3); node 1 also sends to 5.
            if ctx.rank == 0:
                yield from ctx.send(3, np.ones(5))
            elif ctx.rank == 1:
                yield from ctx.elapse(16.0)  # let the forward start first
                yield from ctx.send(5, np.ones(5))
                return ctx.now
            elif ctx.rank == 3:
                yield from ctx.recv(0)
            elif ctx.rank == 5:
                yield from ctx.recv(1)
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.ONE_PORT), prog)
        # forward occupies node 1's port [15, 30]; its own send [30, 45]
        assert res.results[5] == pytest.approx(45.0)


class TestMultiPortConcurrency:
    def test_all_links_usable(self):
        def prog(ctx):
            if ctx.rank == 0:
                handles = []
                for d in range(3):
                    handles.append((yield from ctx.isend(1 << d, np.ones(5))))
                yield from ctx.waitall(handles)
                return ctx.now
            if ctx.rank in (1, 2, 4):
                yield from ctx.recv(0)
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.MULTI_PORT), prog)
        assert res.results[0] == pytest.approx(15.0)
        assert res.results[4] == pytest.approx(15.0)

    def test_same_link_still_serializes(self):
        def prog(ctx):
            if ctx.rank == 0:
                h1 = yield from ctx.isend(1, np.ones(5), tag=1)
                h2 = yield from ctx.isend(1, np.ones(5), tag=2)
                yield from ctx.waitall([h1, h2])
                return ctx.now
            if ctx.rank == 1:
                yield from ctx.recv(0, tag=1)
                yield from ctx.recv(0, tag=2)
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.MULTI_PORT), prog)
        assert res.results[1] == pytest.approx(30.0)

    def test_opposite_directions_concurrent(self):
        def prog(ctx):
            if ctx.rank in (0, 1):
                got = yield from ctx.exchange(1 - ctx.rank, np.ones(5))
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.MULTI_PORT), prog)
        assert res.results[0] == pytest.approx(15.0)


class TestMachineParams:
    def test_hop_time(self):
        params = MachineParams(t_s=100, t_w=2)
        assert params.hop_time(50) == 200.0
        assert params.hop_time(0) == 100.0

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            MachineParams(t_s=-1)
        with pytest.raises(SimulationError):
            MachineParams(t_w=-1)
        with pytest.raises(SimulationError):
            MachineParams(t_c=-0.5)

    def test_negative_message_rejected(self):
        with pytest.raises(SimulationError):
            MachineParams().hop_time(-1)

    def test_config_helpers(self):
        c = MachineConfig.create(16, t_s=1, t_w=2, port_model=PortModel.ONE_PORT)
        assert c.num_nodes == 16
        assert c.dimension == 4
        c2 = c.with_port_model(PortModel.MULTI_PORT)
        assert c2.port_model is PortModel.MULTI_PORT
        assert c2.cube is c.cube
        c3 = c.with_params(MachineParams(t_s=9))
        assert c3.params.t_s == 9

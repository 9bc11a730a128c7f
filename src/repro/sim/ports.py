"""FIFO communication resources: node ports and directional links.

Each resource is a single-server queue tracked only by its *next-free time*;
requests arriving (in event order) at time ``t`` start at
``max(t, next_free)``.  A hop needs several resources at once (the sender's
port, the channel, the receiver's port); :class:`ResourceSet` reserves them
jointly: the start time is the max of all next-free times and the request
time, and every resource is then held until ``start + duration``.

Because the engine processes events in non-decreasing time order with a
deterministic tie-break, reservations are FIFO and runs are reproducible.

State is stored struct-of-arrays: the tracker owns one store of
preallocated NumPy columns (next-free time, cumulative busy time,
reservation count) indexed by a dense resource id, and :class:`Resource`
is a thin view over one slot of that store.
The hot path (:meth:`ContentionTracker.reserve_hop`) works directly on the
columns through a per-hop id cache; the closed-form superstep planners
read and write whole phases of channel state through the same columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.machine import MachineConfig, PortModel

__all__ = ["Resource", "ResourceSet", "ContentionTracker"]


class _Cells:
    """Struct-of-arrays column store: next-free time, busy time, count.

    A standalone :class:`Resource` owns a one-slot store; a
    :class:`ContentionTracker` and every view it hands out share one
    growable store.  Views point at the store, never at the tracker, so a
    finished run's tracker is freed by reference counting alone.
    """

    __slots__ = ("_free", "_busy", "_nres")

    def __init__(self, cap: int = 1) -> None:
        self._free = np.zeros(cap)
        self._busy = np.zeros(cap)
        self._nres = np.zeros(cap, dtype=np.int64)

    def _grow(self) -> None:
        """Double the capacity; slot ids are unchanged."""
        for attr in self.__slots__:
            old = getattr(self, attr)
            new = np.zeros(2 * len(old), dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, attr, new)


class Resource:
    """A single-server FIFO resource: a view over one struct-of-arrays slot.

    Constructed standalone (``Resource("x")``) it owns a private one-slot
    store; the :class:`ContentionTracker` hands out views into its shared
    columns instead.  Either way the API is the plain scalar triple
    ``next_free`` / ``busy_time`` / ``reservations``.
    """

    __slots__ = ("name", "_store", "_i")

    def __init__(
        self,
        name: str,
        next_free: float = 0.0,
        busy_time: float = 0.0,
        reservations: int = 0,
        *,
        _store=None,
        _index: int = 0,
    ):
        self.name = name
        if _store is None:
            _store = _Cells()
            _index = 0
            _store._free[0] = next_free
            _store._busy[0] = busy_time
            _store._nres[0] = reservations
        self._store = _store
        self._i = _index

    @property
    def next_free(self) -> float:
        """Earliest time a new reservation may start."""
        return float(self._store._free[self._i])

    @next_free.setter
    def next_free(self, value: float) -> None:
        self._store._free[self._i] = value

    @property
    def busy_time(self) -> float:
        """Cumulative reserved duration."""
        return float(self._store._busy[self._i])

    @busy_time.setter
    def busy_time(self, value: float) -> None:
        self._store._busy[self._i] = value

    @property
    def reservations(self) -> int:
        """Number of reservations taken so far."""
        return int(self._store._nres[self._i])

    @reservations.setter
    def reservations(self, value: int) -> None:
        self._store._nres[self._i] = value

    def earliest_start(self, ready: float) -> float:
        """Start time of a request arriving at ``ready``."""
        free = self._store._free[self._i]
        return ready if ready >= free else float(free)

    def hold(self, start: float, duration: float) -> None:
        """Reserve ``[start, start + duration)``; FIFO order is enforced."""
        if duration < 0:
            raise SimulationError(f"negative hold duration on {self.name}")
        store, i = self._store, self._i
        if start + 1e-12 < store._free[i]:
            raise SimulationError(
                f"resource {self.name} double-booked: start {start} < free "
                f"{float(store._free[i])}"
            )
        store._free[i] = start + duration
        store._busy[i] += duration
        store._nres[i] += 1

    def __repr__(self) -> str:
        return (
            f"Resource({self.name!r}, next_free={self.next_free}, "
            f"busy_time={self.busy_time}, reservations={self.reservations})"
        )


class _ChannelViews:
    """Lazy mapping ``(u, v) -> Resource`` over the tracker's channel slots.

    Channel state is id-first (see :class:`ContentionTracker`); views are
    materialized only when someone actually asks for the object API, and
    cached so repeated lookups return the same view.
    """

    __slots__ = ("_ids", "_cells", "_views")

    def __init__(self, ids: dict[tuple[int, int], int], cells: _Cells):
        self._ids = ids
        self._cells = cells
        self._views: dict[tuple[int, int], Resource] = {}

    def _view(self, key: tuple[int, int], index: int) -> Resource:
        res = self._views.get(key)
        if res is None:
            u, v = key
            res = Resource(
                f"channel[{u}->{v}]", _store=self._cells, _index=index
            )
            self._views[key] = res
        return res

    def get(self, key, default=None):
        index = self._ids.get(key)
        if index is None:
            return default
        return self._view(key, index)

    def __getitem__(self, key):
        return self._view(key, self._ids[key])

    def __contains__(self, key):
        return key in self._ids

    def __iter__(self):
        return iter(self._ids)

    def __len__(self):
        return len(self._ids)

    def keys(self):
        return self._ids.keys()

    def values(self):
        return (self[k] for k in self._ids)

    def items(self):
        return ((k, self[k]) for k in self._ids)


class ResourceSet:
    """Joint reservation over several resources."""

    @staticmethod
    def reserve(resources: list[Resource], ready: float, duration: float) -> float:
        """Reserve all ``resources`` for ``duration`` starting no earlier than
        ``ready``; returns the start time."""
        start = ready
        for r in resources:
            start = r.earliest_start(start)
        for r in resources:
            r.hold(start, duration)
        return start


class ContentionTracker:
    """Owns every port/link resource of a simulated machine.

    One-port machines have a per-node ``send`` engagement resource: a node
    injects (or forwards) at most one transfer at a time.  The receive side
    of a transfer is assumed concurrently engaged — the node is full duplex,
    sending one message while receiving one.  Serializing only the sender
    side avoids convoy artefacts (a sender idling its port while waiting for
    a busy receiver) and reproduces the paper's lockstep accounting, where
    every one-port schedule has each node receive at most as many messages
    per step as it sends.

    Multi-port machines are constrained per directional channel only: every
    (link, direction) carries one transfer at a time, and a node may drive
    all its links at once.  Channels are tracked in both models so link
    utilization statistics are always available.

    All resource state lives in three preallocated columns (``_free``,
    ``_busy``, ``_nres``) of one :class:`_Cells` store, indexed by a dense
    id; capacity doubles on demand up to the machine's ``p·(d + 1)``
    resource ceiling.  Slots never move, so ids cached in
    :class:`Resource` views and the per-hop id cache stay valid across
    growth.  The views share the store rather than the tracker, which
    keeps the tracker out of reference cycles.
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        one_port = config.port_model is PortModel.ONE_PORT
        p = config.num_nodes
        cap = max(1, (p if one_port else 0) + min(p * config.dimension, 4096))
        self._cells = _Cells(cap)
        self._n = 0
        self._send_port: dict[int, Resource] = {}
        # id-first channel bookkeeping: the dict maps a directional link to
        # its column slot; Resource views are materialized lazily through
        # the _channel facade (stats, superstep seeding by object).
        self._channel_ids: dict[tuple[int, int], int] = {}
        self._channel = _ChannelViews(self._channel_ids, self._cells)
        # hop -> resource-view list, validated once then reused for every
        # message crossing the same directional link; _hop_ids carries the
        # same hops as raw column ids for the reserve_hop fast path.
        self._hop_cache: dict[tuple[int, int], list[Resource]] = {}
        self._hop_ids: dict[tuple[int, int], tuple[int, ...]] = {}
        if one_port:
            for node in config.cube.nodes():
                self._send_port[node] = Resource(
                    f"send_port[{node}]", _store=self._cells,
                    _index=self._alloc(),
                )

    # Column accessors for the superstep planners' vectorized reads and
    # writes; re-read after any allocation, which may swap the arrays.
    @property
    def _free(self) -> np.ndarray:
        return self._cells._free

    @property
    def _busy(self) -> np.ndarray:
        return self._cells._busy

    @property
    def _nres(self) -> np.ndarray:
        return self._cells._nres

    def _alloc(self) -> int:
        """Claim one zeroed column slot; returns its id."""
        i = self._n
        if i == len(self._cells._free):
            self._cells._grow()
        self._n = i + 1
        return i

    def _channel_slot(self, u: int, v: int) -> int:
        """Column id of channel ``u -> v``, allocating the slot on first use."""
        key = (u, v)
        i = self._channel_ids.get(key)
        if i is None:
            i = self._alloc()
            self._channel_ids[key] = i
        return i

    def _channel_resource(self, u: int, v: int) -> Resource:
        return self._channel._view((u, v), self._channel_slot(u, v))

    def hop_resources(self, u: int, v: int) -> list[Resource]:
        """Resources a hop ``u -> v`` must hold for its duration (cached)."""
        key = (u, v)
        resources = self._hop_cache.get(key)
        if resources is None:
            if not self.config.cube.are_neighbors(u, v):
                raise SimulationError(f"hop {u}->{v} is not a hypercube link")
            resources = [self._channel_resource(u, v)]
            if self.config.port_model is PortModel.ONE_PORT:
                resources.append(self._send_port[u])
            self._hop_cache[key] = resources
            self._hop_ids[key] = tuple(r._i for r in resources)
        return resources

    def reserve_hop(self, u: int, v: int, ready: float, duration: float) -> float:
        """Reserve the hop ``u -> v``; returns its start time.

        Semantically ``ResourceSet.reserve(hop_resources(u, v), ...)``, but
        run directly over the struct-of-arrays columns through the cached
        id tuple — this runs once per hop of every message, making it the
        hottest contention-tracking path.
        """
        ids = self._hop_ids.get((u, v))
        if ids is None:
            self.hop_resources(u, v)
            ids = self._hop_ids[(u, v)]
        if duration < 0:
            raise SimulationError(f"negative hold duration on hop {u}->{v}")
        cells = self._cells
        free = cells._free
        start = ready
        for i in ids:
            f = free[i]
            if f > start:
                start = f
        start = float(start)
        end = start + duration
        busy = cells._busy
        nres = cells._nres
        for i in ids:
            free[i] = end
            busy[i] += duration
            nres[i] += 1
        return start

    # -- statistics ----------------------------------------------------

    def channel_utilization(self, horizon: float) -> dict[tuple[int, int], float]:
        """Fraction of ``[0, horizon]`` each used directional channel was busy."""
        if horizon <= 0:
            return {k: 0.0 for k in self._channel_ids}
        busy = self._busy
        return {
            k: float(busy[i]) / horizon for k, i in self._channel_ids.items()
        }

    def max_channel_busy(self) -> float:
        """Longest cumulative busy time over all channels (a lower bound on
        any schedule's completion time)."""
        ids = self._channel_ids
        if not ids:
            return 0.0
        cols = np.fromiter(ids.values(), dtype=np.intp, count=len(ids))
        return float(self._busy[cols].max())

    def total_channel_busy(self) -> float:
        # Summed sequentially in channel-key order, not creation order: the
        # closed-form superstep path may create a phase's channels in rank
        # order while the event path creates them in reservation order, and
        # float addition is order-sensitive.  A fixed order keeps the metric
        # well-defined (and bit-identical) across both.
        ids = self._channel_ids
        busy = self._busy
        return float(sum(busy[ids[k]] for k in sorted(ids)))

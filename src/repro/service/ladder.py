"""The chunk lease ladder both executors share.

A job's chunks climb one ladder whichever tier runs them: pending ->
leased -> done, or -> failed -> backed off -> pending again (one rung
higher) -> ... -> quarantined once ``max_attempts`` is spent.
:class:`LeaseLadder` owns that policy; the transports own only how a
lease reaches a worker and how its result comes back:

* :class:`~repro.service.supervisor.Supervisor` — local worker
  processes (spawn, reap, per-lease deadlines, a result queue);
* :class:`~repro.service.hostpool.HostPool` — shared-filesystem host
  agents (heartbeats, epoch fence, span grants, local fallback).

Each transport keeps its own loop order, so the journal sees the same
event sequence it always has.  The ladder is journal-agnostic: retry
and quarantine facts leave through ``on_event`` and completions through
``on_chunk_done``; the service decides what to persist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.errors import ServiceError

__all__ = ["LeaseLadder", "ChunkOutcome", "seeded_backoff"]

#: the backoff generator's seed; one value, so retry schedules replay
BACKOFF_SEED = 0


def seeded_backoff(seed: int, chunk: int, attempt: int, base_s: float) -> float:
    """Re-lease delay: ``base * 2**(attempt-1) * u``, ``u`` uniform in
    [0.5, 1.5) from a generator seeded by ``(seed, chunk, attempt)``.

    A pure function of its arguments — the whole retry schedule is
    replayable from the journal, so a daemon that crashes mid-backoff
    resumes the *same* schedule (pinned by
    ``tests/service/test_supervisor.py``).
    """
    rng = random.Random(seed * 1_000_003 + chunk * 8191 + attempt)
    return base_s * (2 ** (attempt - 1)) * (0.5 + rng.random())


@dataclass
class ChunkOutcome:
    """Terminal state of one chunk: its records, or quarantine."""

    chunk: int
    records: list | None
    attempts: int
    quarantined: bool = False
    last_error: str | None = None


@dataclass
class PendingChunk:
    chunk: int
    attempt: int
    not_before: float = 0.0


class LeaseLadder:
    """Attempts, seeded backoff, quarantine, outcomes and drain for one
    executor.

    ``start`` seeds a run; the transport then loops ``while
    ladder.running()``, leasing from :meth:`ready` (after :meth:`take`)
    and reporting back through :meth:`complete` or :meth:`fail`.
    """

    def __init__(
        self,
        *,
        max_attempts: int,
        backoff_base_s: float,
        on_event: Callable[[dict], None] | None = None,
        on_chunk_done: Callable[[int, list], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ):
        if max_attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = int(max_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self.on_event = on_event or (lambda record: None)
        self.on_chunk_done = on_chunk_done or (lambda chunk, records: None)
        # Drain hook: when it turns true the run loop stops leasing,
        # abandons in-flight work (idempotent — it just re-runs later),
        # and returns the outcomes gathered so far.
        self._should_stop = should_stop or (lambda: False)
        self.drained = False
        self.pending: list[PendingChunk] = []
        self.outcomes: dict[int, ChunkOutcome] = {}
        self._todo = 0

    def start(
        self,
        n_chunks: int,
        skip_chunks: set[int] | None,
        initial_attempts: dict[int, int] | None,
    ) -> int:
        """Seed a run over every chunk not in ``skip_chunks``; returns
        how many chunks it will execute.

        ``skip_chunks`` is the resume path: chunks the journal already
        records as complete are never leased.  ``initial_attempts`` maps
        chunks to the attempt number their next lease carries (journaled
        ``retry`` records replay here), so the seeded backoff schedule
        continues across a daemon restart instead of starting over.
        """
        skip = skip_chunks or set()
        attempts = initial_attempts or {}
        self.pending = [
            PendingChunk(chunk=i, attempt=attempts.get(i, 1))
            for i in range(n_chunks) if i not in skip
        ]
        self.outcomes = {}
        self.drained = False
        self._todo = len(self.pending)
        return self._todo

    def unfinished(self) -> bool:
        """Whether some chunk of this run has no outcome yet."""
        return len(self.outcomes) < self._todo

    def running(self) -> bool:
        """Whether the loop should go round again: work remains and no
        drain was requested.  Abandoned leases are handed back by
        construction — the journal has no ``done`` for them, so the next
        run re-leases exactly these chunks."""
        if not self.unfinished():
            return False
        if self._should_stop():
            self.drained = True
            return False
        return True

    def ready(self, now: float) -> list[PendingChunk]:
        """Pending chunks whose backoff has elapsed, earliest-due first
        (chunk id breaks ties)."""
        return sorted(
            (c for c in self.pending if c.not_before <= now),
            key=lambda c: (c.not_before, c.chunk),
        )

    def take(self, item: PendingChunk) -> None:
        """Move ``item`` from pending to leased."""
        self.pending.remove(item)

    def complete(self, chunk: int, attempt: int, records: list) -> None:
        """Record a finished lease and fire ``on_chunk_done``."""
        self.outcomes[chunk] = ChunkOutcome(
            chunk=chunk, records=records, attempts=attempt,
        )
        self.on_chunk_done(chunk, records)

    def fail(self, chunk: int, attempt: int, *, reason: str, detail: str,
             now: float, consume_attempt: bool = True) -> None:
        """Retry a failed lease after seeded backoff, or quarantine it
        once ``max_attempts`` is spent.

        The delay is keyed on the *failed* attempt.  A host death
        (``consume_attempt=False``) never spends the chunk's budget — the
        chunk is innocent — but still backs off, so a flapping host
        cannot hot-loop a chunk.
        """
        if consume_attempt and attempt >= self.max_attempts:
            self.outcomes[chunk] = ChunkOutcome(
                chunk=chunk, records=None, attempts=attempt,
                quarantined=True, last_error=f"{reason}: {detail}",
            )
            self.on_event({
                "t": "quarantine", "chunk": chunk, "attempts": attempt,
                "reason": reason, "detail": detail,
            })
            return
        delay = seeded_backoff(
            BACKOFF_SEED, chunk, attempt, self.backoff_base_s
        )
        next_attempt = attempt + 1 if consume_attempt else attempt
        self.on_event({
            "t": "retry", "chunk": chunk, "attempt": next_attempt,
            "reason": reason, "detail": detail,
            "backoff_s": round(delay, 4),
        })
        self.pending.append(PendingChunk(
            chunk=chunk, attempt=next_attempt, not_before=now + delay,
        ))

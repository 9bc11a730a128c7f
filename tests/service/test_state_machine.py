"""The service is one state machine: live state is the journal's fold.

Every live state change is ``_record(rec)`` — journal the fact, then
``apply`` it — and replay folds ``apply`` over the decoded journal.  These
tests snapshot the live ``jobs()`` payload after every journaled record,
then fold the decoded journal's first ``k`` records into a fresh service
and demand the same snapshot for every ``k``.  That catches a state
change made outside the reducer, a record appended without one, and any
field that does not survive the journal's JSON round trip.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.service import InjectedServiceCrash, SweepService, parse_injections
from repro.service.journal import Journal

SWEEP = {
    "algorithms": ["cannon"],
    "variable": "n",
    "values": [64, 128, 256, 512],
    "p": 64,
}


def _payload(svc: SweepService) -> dict:
    """``jobs()`` minus what is not journal state, plus each job's
    attempt counters."""
    body = svc.jobs()
    for key in ("state_dir", "warnings", "hosts"):
        del body[key]
    for summary in body["jobs"]:
        del summary["partial"]  # a file under results/, not journal state
        summary["attempts"] = dict(svc.jobs_by_id[summary["id"]].attempts)
    return body


@pytest.fixture
def live_snapshots(monkeypatch):
    """The live payload after each journaled record, in journal order."""
    snapshots: list[dict] = []
    recording: list[dict] = []
    append, record = Journal.append, SweepService._record

    def guarded_append(self, body, *args, **kwargs):
        assert recording, f"journaled outside the reducer: {body}"
        return append(self, body, *args, **kwargs)

    def snapshotting_record(self, rec):
        recording.append(rec)
        try:
            record(self, rec)
        finally:
            recording.pop()
        snapshots.append(_payload(self))

    monkeypatch.setattr(Journal, "append", guarded_append)
    monkeypatch.setattr(SweepService, "_record", snapshotting_record)
    return snapshots


def _assert_prefix_folds_match(state_dir, fold_dir, snapshots) -> set:
    """Check every prefix fold; returns the record types seen."""
    with SweepService(state_dir, read_only=True) as svc:
        records, warnings = svc.journal.replay()
    assert not warnings
    assert len(records) == len(snapshots)
    with SweepService(fold_dir, read_only=True) as fold:
        for k, rec in enumerate(records):
            fold.apply(rec)
            assert _payload(fold) == snapshots[k], (
                f"fold of the first {k + 1} records differs from the live "
                f"state after record {rec}"
            )
    return {rec["t"] for rec in records}


def test_poison_crash_resume_folds_to_live_state(tmp_path, live_snapshots):
    state = tmp_path / "svc"
    opts = dict(workers=1, chunk_size=1, backoff_base_s=0.01)
    with SweepService(
        state, inject=parse_injections(["poison-chunk:0", "crash-service:1"]),
        **opts,
    ) as svc:
        svc.submit("sweep", SWEEP)
        with pytest.raises(InjectedServiceCrash):
            svc.run_pending()
    with SweepService(
        state, inject=parse_injections(["poison-chunk:0"]), **opts,
    ) as svc:
        svc.run_pending()
        (job,) = svc.jobs_by_id.values()
    assert job.status == "degraded" and job.quarantined == {0}
    kinds = _assert_prefix_folds_match(
        state, tmp_path / "fold", live_snapshots
    )
    assert {"submit", "sched", "plan", "lease", "retry", "done",
            "quarantine", "job_done"} <= kinds


def test_host_revocation_folds_to_live_state(tmp_path, live_snapshots):
    state = tmp_path / "svc"
    # A host that heartbeats once and dies: the pool leases to it,
    # revokes it once the heartbeat is stale, and finishes the revoked
    # chunks through the local fallback.
    hdir = state / "hosts" / "h9"
    hdir.mkdir(parents=True)
    with SweepService(
        state, workers=2, chunk_size=1, stale_after_s=0.5,
        backoff_base_s=0.01,
    ) as svc:
        svc.submit("sweep", SWEEP)
        (hdir / "heartbeat.json").write_text(json.dumps({
            "host": "h9", "pid": 0, "ts": time.time(), "done": 0,
        }))
        (report,) = svc.run_pending()
        counters = svc.counters
    assert report["quarantined_chunks"] == []
    assert counters["host_leases"] >= 1 and counters["host_revocations"] >= 1
    kinds = _assert_prefix_folds_match(
        state, tmp_path / "fold", live_snapshots
    )
    assert {"hlease", "hrevoke", "retry", "hlocal", "done"} <= kinds

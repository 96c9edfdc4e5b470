"""Crash recovery: snapshot-then-log replay.

Replay order is the durability contract in reverse:

1. read ``MANIFEST.json`` for the snapshot watermark LSN;
2. load the three snapshot files at that watermark (torn final lines
   tolerated, same semantics as the WAL tail);
3. scan WAL segments in sequence order and apply every frame whose LSN
   is greater than the watermark, stopping at the first torn frame or
   LSN discontinuity (everything after a tear is unreachable);
4. run the retention sweep, so observations that expired while the
   process was down are purged *before* the first query is served.

Replayed erase records physically drop the subject's earlier
observations from the rebuilt state -- recovery never resurrects
forgotten data, no matter where the crash landed.

The :class:`RecoveryReport` is deliberately path- and id-free: every
field is a count, an LSN, or a segment *name*, so two same-seed
crash+recover runs render byte-identical reports (the recover
scenario's pinned runs are golden files).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.enforcement.audit import AuditLog, AuditRecord
from repro.errors import StorageError
from repro.sensors.base import Observation
from repro.storage import records
from repro.storage.snapshot import read_jsonl, read_manifest, snapshot_paths
from repro.storage.wal import list_segments, scan_segment
from repro.tippers.datastore import Datastore


@dataclass
class RecoveryReport:
    """What one recovery pass did, in deterministic terms."""

    snapshot_lsn: int = 0
    last_lsn: int = 0
    frames_replayed: int = 0
    records_replayed: Dict[str, int] = field(default_factory=dict)
    segments_scanned: int = 0
    torn: bool = False
    torn_segment: str = ""
    torn_reason: str = ""
    snapshot_torn_tails: int = 0
    erasures_applied: int = 0
    erased_observations: int = 0
    observations_restored: int = 0
    audit_restored: int = 0
    preferences_restored: int = 0
    retention_purged: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "last_lsn": self.last_lsn,
            "frames_replayed": self.frames_replayed,
            "records_replayed": dict(self.records_replayed),
            "segments_scanned": self.segments_scanned,
            "torn": self.torn,
            "torn_segment": self.torn_segment,
            "torn_reason": self.torn_reason,
            "snapshot_torn_tails": self.snapshot_torn_tails,
            "erasures_applied": self.erasures_applied,
            "erased_observations": self.erased_observations,
            "observations_restored": self.observations_restored,
            "audit_restored": self.audit_restored,
            "preferences_restored": self.preferences_restored,
            "retention_purged": self.retention_purged,
        }

    def lines(self) -> List[str]:
        """A stable text rendering; byte-identical across same-seed runs."""
        by_type = ", ".join(
            "%s=%d" % (record_type, count)
            for record_type, count in sorted(self.records_replayed.items())
        )
        torn = "none"
        if self.torn:
            torn = "%s (%s)" % (self.torn_segment, self.torn_reason)
        return [
            "recovery: snapshot_lsn=%d last_lsn=%d frames_replayed=%d"
            % (self.snapshot_lsn, self.last_lsn, self.frames_replayed),
            "segments_scanned=%d torn=%s snapshot_torn_tails=%d"
            % (self.segments_scanned, torn, self.snapshot_torn_tails),
            "records: %s" % (by_type or "none"),
            "erasures_applied=%d erased_observations=%d"
            % (self.erasures_applied, self.erased_observations),
            "restored: observations=%d audit=%d preferences=%d"
            % (
                self.observations_restored,
                self.audit_restored,
                self.preferences_restored,
            ),
            "retention_purged=%d" % self.retention_purged,
        ]

    def to_text(self) -> str:
        return "".join(line + "\n" for line in self.lines())


@dataclass
class RecoveredState:
    """The rebuilt in-memory state plus its report."""

    datastore: Datastore
    audit: AuditLog
    preferences: List[Dict[str, Any]]
    report: RecoveryReport
    #: The newest compiled enforcement table logged before the crash
    #: (advisory: adopt via ``import_table``, which skips shards whose
    #: version stamps no longer match the live store), or ``None``.
    compiled_table: Optional[Dict[str, Any]] = None
    #: Cross-shard migration journal: ``migration_id`` -> the latest
    #: journaled phase record.  A rebalance coordinator consults this to
    #: resume (dest journal shows ``committed``) or re-run (journal
    #: stuck at ``copy``) an in-flight migration after a shard crash.
    migrations: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def is_storage_directory(directory: str) -> bool:
    """Whether ``directory`` looks like a storage-engine directory."""
    if not os.path.isdir(directory):
        return False
    if os.path.exists(os.path.join(directory, "MANIFEST.json")):
        return True
    return bool(list_segments(directory))


def replay_directory(
    directory: str,
    into_datastore: Optional[Datastore] = None,
    into_audit: Optional[AuditLog] = None,
) -> RecoveredState:
    """Snapshot-then-log replay (no retention sweep; see :func:`recover`).

    ``into_datastore`` / ``into_audit`` may be durable instances; the
    replay uses base-class applies throughout, so nothing is re-logged.
    """
    report = RecoveryReport()
    datastore = into_datastore if into_datastore is not None else Datastore()
    audit = into_audit if into_audit is not None else AuditLog()
    preferences: "Dict[tuple, Dict[str, Any]]" = {}
    extras: Dict[str, Any] = {}

    def torn_tail(_message: str) -> None:
        report.snapshot_torn_tails += 1

    manifest = read_manifest(directory)
    report.snapshot_lsn = manifest.snapshot_lsn
    report.last_lsn = manifest.snapshot_lsn
    paths = snapshot_paths(directory, manifest.snapshot_lsn)
    if os.path.exists(paths["obs"]):
        for observation in read_jsonl(paths["obs"], "obs", torn_tail):
            # Base-class call: loading into a durable datastore must
            # not write-ahead-log what is already durable.
            Datastore.insert(datastore, observation)
    if os.path.exists(paths["audit"]):
        for record in read_jsonl(paths["audit"], "audit", torn_tail):
            AuditLog.append(audit, record)
    if os.path.exists(paths["prefs"]):
        for data in read_jsonl(paths["prefs"], "prefs", torn_tail):
            key = (data.get("user_id"), data.get("preference_id"))
            preferences[key] = data

    expected_lsn = manifest.snapshot_lsn + 1
    for path in list_segments(directory):
        if report.torn:
            break
        scan = scan_segment(path)
        report.segments_scanned += 1
        for frame in scan.frames:
            if frame.lsn < expected_lsn:
                continue  # already folded into the snapshot
            if frame.lsn > expected_lsn:
                report.torn = True
                report.torn_segment = scan.name
                report.torn_reason = "lsn-gap"
                break
            _apply_frame(
                frame.payload, datastore, audit, preferences, extras, report
            )
            report.frames_replayed += 1
            report.last_lsn = frame.lsn
            expected_lsn += 1
        if scan.torn and not report.torn:
            report.torn = True
            report.torn_segment = scan.name
            report.torn_reason = scan.reason

    report.observations_restored = datastore.count()
    report.audit_restored = len(audit)
    report.preferences_restored = len(preferences)
    ordered = [preferences[key] for key in sorted(preferences, key=str)]
    return RecoveredState(
        datastore=datastore,
        audit=audit,
        preferences=ordered,
        report=report,
        compiled_table=extras.get("compiled_table"),
        migrations=extras.get("migrations", {}),
    )


def _apply_frame(
    payload: bytes,
    datastore: Datastore,
    audit: AuditLog,
    preferences: "Dict[tuple, Dict[str, Any]]",
    extras: Dict[str, Any],
    report: RecoveryReport,
) -> None:
    record_type, data = records.decode_record(payload)
    report.records_replayed[record_type] = (
        report.records_replayed.get(record_type, 0) + 1
    )
    if record_type == records.OBS:
        datastore._apply_insert(Observation.from_dict(data))
    elif record_type == records.ERASE:
        subject_id = data.get("subject_id")
        if not isinstance(subject_id, str):
            raise StorageError("erase record without subject_id")
        report.erasures_applied += 1
        report.erased_observations += datastore._apply_forget(subject_id)
        for key in [k for k in preferences if k[0] == subject_id]:
            del preferences[key]
        # An erasure replayed after a migration copy also strips the
        # journaled snapshot: a resumed migration must never restore
        # (resurrect) observations the subject asked to be forgotten.
        for entry in extras.get("migrations", {}).values():
            snapshot = entry.get("snapshot")
            if entry.get("user_id") == subject_id and isinstance(snapshot, dict):
                snapshot["observations"] = []
                entry["snapshot_erased"] = True
    elif record_type == records.AUDIT:
        AuditLog.append(audit, AuditRecord.from_dict(data))
    elif record_type == records.PREF:
        key = (data.get("user_id"), data.get("preference_id"))
        preferences[key] = data
    elif record_type == records.PREF_WITHDRAW_ALL:
        user_id = data.get("user_id")
        for key in [k for k in preferences if k[0] == user_id]:
            del preferences[key]
    elif record_type == records.TABLE:
        # Advisory cache artifact: latest wins, adoption (and version
        # validation) happens in import_table after the rule store is
        # rebuilt.
        extras["compiled_table"] = data
    elif record_type == records.MIGRATION:
        migration_id = data.get("migration_id")
        if not isinstance(migration_id, str) or not migration_id:
            raise StorageError("migration record without migration_id")
        # Latest phase per migration id wins: replay order is log order,
        # so the surviving entry is the furthest phase the shard durably
        # reached before the crash.
        extras.setdefault("migrations", {})[migration_id] = dict(data)


def recover(
    directory: str,
    into_datastore: Optional[Datastore] = None,
    into_audit: Optional[AuditLog] = None,
    retention_by_type: Optional[Dict[str, float]] = None,
    now: Optional[float] = None,
) -> RecoveredState:
    """Full recovery: replay, then sweep retention before serving reads.

    The sweep is part of recovery, not an afterthought: observations
    whose retention expired while the process was down must be gone
    before the first query runs against the recovered state.
    """
    if not is_storage_directory(directory):
        raise StorageError("%r is not a storage directory" % directory)
    state = replay_directory(
        directory, into_datastore=into_datastore, into_audit=into_audit
    )
    if retention_by_type and now is not None:
        state.report.retention_purged = state.datastore.sweep(
            now, retention_by_type
        )
    return state

"""Snapshot + compaction: folding sealed WAL segments away.

A snapshot is the materialized state at a *watermark* LSN, stored as
three JSON-lines files named by that LSN, plus ``MANIFEST.json``
pointing at it::

    {"format": 1, "snapshot_lsn": 1042}

Compaction replays the current snapshot plus every sealed segment into
fresh in-memory state, writes the new snapshot files atomically, moves
the manifest forward, and only then deletes what was folded.  A crash
at any point leaves either the old manifest (old snapshot + segments
intact: nothing lost) or the new manifest (new snapshot complete:
leftover files are garbage, collected by the next compaction).

Erasure interaction -- the DSAR guarantee: an ``erase`` record in the
log makes the replay *physically drop* every earlier observation of
that subject, so after compaction the erased data exists nowhere on
disk: not in the snapshot (it was folded out) and not in the segments
(they were deleted).  Recovery can therefore never resurrect it.

Retention interaction: when given the building's retention map and the
current time, compaction sweeps expired observations out of the new
snapshot as well.

All three snapshot files share one codec: :func:`write_jsonl` writes
one compact JSON object per line to a temp file and renames it into
place; :func:`read_jsonl` streams the lines back through each record
type's ``from_dict``.  A crash while a line was being written can leave
a partial *final* record: the reader skips it, reports it through the
optional ``on_torn_tail`` callback and counts it in the
``persistence_torn_tail_total`` metric -- the WAL's torn-tail semantics
(see :mod:`repro.storage.wal`).  A malformed line *followed by* further
data is real corruption, not a tear, and raises
:class:`~repro.errors.StorageError` naming the line.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.core.enforcement.audit import AuditRecord
from repro.errors import StorageError
from repro.obs.metrics import get_registry
from repro.sensors.base import Observation

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = 1

OBS_SNAPSHOT_PATTERN = "snapshot-%016d.obs.jsonl"
AUDIT_SNAPSHOT_PATTERN = "snapshot-%016d.audit.jsonl"
PREFS_SNAPSHOT_PATTERN = "snapshot-%016d.prefs.jsonl"

#: Called with a human-readable message when :func:`read_jsonl` skips a
#: torn final record instead of raising.
TornTailCallback = Callable[[str], None]


@dataclass(frozen=True)
class Manifest:
    """The durable watermark: state at ``snapshot_lsn`` is snapshotted."""

    snapshot_lsn: int = 0
    format: int = MANIFEST_FORMAT

    def to_dict(self) -> Dict[str, Any]:
        return {"format": self.format, "snapshot_lsn": self.snapshot_lsn}


def manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


def read_manifest(directory: str) -> Manifest:
    """The directory's manifest; a missing file means a fresh store."""
    path = manifest_path(directory)
    if not os.path.exists(path):
        return Manifest()
    try:
        with open(path) as handle:
            data = json.load(handle)
        manifest = Manifest(
            snapshot_lsn=int(data["snapshot_lsn"]), format=int(data["format"])
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise StorageError("corrupt manifest %s: %s" % (path, exc)) from None
    if manifest.format != MANIFEST_FORMAT:
        raise StorageError(
            "unsupported storage format %d in %s" % (manifest.format, path)
        )
    if manifest.snapshot_lsn < 0:
        raise StorageError("negative snapshot_lsn in %s" % path)
    return manifest


def write_manifest(directory: str, manifest: Manifest) -> None:
    """Atomically persist ``manifest`` (temp file + rename)."""
    path = manifest_path(directory)
    temp_path = path + ".tmp"
    with open(temp_path, "w") as handle:
        json.dump(manifest.to_dict(), handle, sort_keys=True)
        handle.write("\n")
    os.replace(temp_path, path)


def snapshot_paths(directory: str, snapshot_lsn: int) -> Dict[str, str]:
    """The three snapshot file paths for a watermark LSN."""
    return {
        "obs": os.path.join(directory, OBS_SNAPSHOT_PATTERN % snapshot_lsn),
        "audit": os.path.join(directory, AUDIT_SNAPSHOT_PATTERN % snapshot_lsn),
        "prefs": os.path.join(directory, PREFS_SNAPSHOT_PATTERN % snapshot_lsn),
    }


def write_jsonl(
    path: str, records: Iterable[Dict[str, Any]], sort_keys: bool = False
) -> int:
    """Write one compact JSON object per line, atomically; returns count.

    The lines go to a temp file that is then renamed over ``path``, so
    a crash mid-write never corrupts an existing snapshot.
    """
    temp_path = path + ".tmp"
    count = 0
    with open(temp_path, "w") as handle:
        for data in records:
            handle.write(
                json.dumps(
                    data, separators=(",", ":"), sort_keys=sort_keys, allow_nan=False
                )
            )
            handle.write("\n")
            count += 1
    os.replace(temp_path, path)
    return count


#: Snapshot kind (the :func:`snapshot_paths` key) -> the record name
#: used in error messages.
_RECORD_NAMES = {"obs": "observation", "audit": "audit", "prefs": "preference"}


def _decode_line(text: str, kind: str) -> Any:
    """One snapshot line as its record: observation, audit, or pref dict."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StorageError(
            "malformed %s line: %s" % (_RECORD_NAMES[kind], exc)
        ) from None
    if not isinstance(data, dict):
        raise StorageError("malformed %s line: not an object" % _RECORD_NAMES[kind])
    if kind == "obs":
        return Observation.from_dict(data)
    if kind == "audit":
        return AuditRecord.from_dict(data)
    return data


_TORN_TAIL = "torn final record skipped (line %d of %s): %s"
_TORN_TAIL_LINE = re.compile(r"torn final record skipped \(line (\d+) of ")


def _report_torn_tail(
    path: str, line_no: int, error: StorageError,
    on_torn_tail: Optional[TornTailCallback],
) -> None:
    get_registry().counter("persistence_torn_tail_total").inc()
    if on_torn_tail is not None:
        on_torn_tail(_TORN_TAIL % (line_no, path, error))


def torn_tail_line(message: str) -> int:
    """The torn line's number in a message passed to ``on_torn_tail``."""
    match = _TORN_TAIL_LINE.match(message)
    if match is None:
        raise ValueError("not a torn-tail message: %r" % message)
    return int(match.group(1))


def read_jsonl(
    path: str, kind: str, on_torn_tail: Optional[TornTailCallback] = None
) -> Iterator[Any]:
    """Stream the records of one snapshot file of ``kind``.

    ``kind`` is ``"obs"`` (yields :class:`Observation`), ``"audit"``
    (:class:`AuditRecord`) or ``"prefs"`` (preference dicts).  A line
    that does not decode is held back: if it turns out to be the final
    record it is a torn tail (reported, not raised); if more data
    follows, the held error is raised with its line number.
    """
    held: Optional[StorageError] = None
    held_line = 0
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            if held is not None:
                raise StorageError("%s (line %d of %s)" % (held, held_line, path))
            try:
                record = _decode_line(text, kind)
            except StorageError as exc:
                held, held_line = exc, line_no
                continue
            yield record
    if held is not None:
        _report_torn_tail(path, held_line, held, on_torn_tail)


@dataclass
class CompactionReport:
    """What one compaction pass folded."""

    snapshot_lsn: int = 0
    segments_folded: int = 0
    frames_folded: int = 0
    observations_snapshotted: int = 0
    audit_snapshotted: int = 0
    preferences_snapshotted: int = 0
    erasures_folded: int = 0
    erased_observations_dropped: int = 0
    retention_purged: int = 0
    obsolete_files_removed: int = 0
    folded_segments: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "segments_folded": self.segments_folded,
            "frames_folded": self.frames_folded,
            "observations_snapshotted": self.observations_snapshotted,
            "audit_snapshotted": self.audit_snapshotted,
            "preferences_snapshotted": self.preferences_snapshotted,
            "erasures_folded": self.erasures_folded,
            "erased_observations_dropped": self.erased_observations_dropped,
            "retention_purged": self.retention_purged,
            "obsolete_files_removed": self.obsolete_files_removed,
            "folded_segments": list(self.folded_segments),
        }


def _collect_garbage(directory: str, keep_lsn: int, report: CompactionReport) -> None:
    """Delete snapshot files for watermarks other than ``keep_lsn``."""
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("snapshot-") and name.endswith(".jsonl")):
            continue
        try:
            lsn = int(name.split("-", 1)[1].split(".", 1)[0])
        except (ValueError, IndexError):
            continue
        if lsn != keep_lsn:
            os.remove(os.path.join(directory, name))
            report.obsolete_files_removed += 1


def compact_engine(
    engine: Any,
    retention_by_type: Optional[Dict[str, float]] = None,
    now: Optional[float] = None,
) -> CompactionReport:
    """Fold the engine's sealed segments into a fresh snapshot.

    ``engine`` is a :class:`~repro.storage.durable.StorageEngine`
    (duck-typed to avoid an import cycle).  The active segment is
    rotated first, so every frame written so far is folded and the
    post-compaction log starts empty.
    """
    from repro.storage.recovery import replay_directory

    directory = engine.directory
    engine.wal.rotate()
    state = replay_directory(directory)
    report = CompactionReport(
        frames_folded=state.report.frames_replayed,
        erasures_folded=state.report.erasures_applied,
        erased_observations_dropped=state.report.erased_observations,
    )
    if retention_by_type and now is not None:
        report.retention_purged = state.datastore.sweep(now, retention_by_type)

    new_lsn = max(state.report.last_lsn, state.report.snapshot_lsn)
    paths = snapshot_paths(directory, new_lsn)
    report.snapshot_lsn = new_lsn
    datastore = state.datastore
    report.observations_snapshotted = write_jsonl(paths["obs"], (
        observation.to_dict()
        for sensor_type in datastore.stream_names()
        for observation in datastore.query(sensor_type=sensor_type)
    ))
    report.audit_snapshotted = write_jsonl(
        paths["audit"], (record.to_dict() for record in state.audit)
    )
    report.preferences_snapshotted = write_jsonl(
        paths["prefs"], state.preferences, sort_keys=True
    )
    write_manifest(directory, Manifest(snapshot_lsn=new_lsn))

    # The watermark has moved: everything it folded is now garbage.
    for path in engine.wal.sealed_paths():
        report.folded_segments.append(os.path.basename(path))
        os.remove(path)
    report.segments_folded = len(report.folded_segments)
    _collect_garbage(directory, new_lsn, report)
    return report

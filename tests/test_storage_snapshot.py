"""Unit tests for manifests, snapshots, and compaction."""

import json
import os

import pytest

from repro.errors import StorageError
from repro.sensors.base import Observation
from repro.storage.durable import DurableAuditLog, DurableDatastore, StorageEngine
from repro.storage.snapshot import (
    Manifest,
    manifest_path,
    read_jsonl,
    read_manifest,
    snapshot_paths,
    write_jsonl,
    write_manifest,
)
from repro.storage.wal import list_segments


def obs(timestamp, subject=None, sensor_type="temperature"):
    return Observation.create(
        sensor_id="s1",
        sensor_type=sensor_type,
        timestamp=timestamp,
        space_id="r1",
        payload={"v": timestamp},
        subject_id=subject,
    )


class TestManifest:
    def test_missing_manifest_means_fresh_store(self, tmp_path):
        assert read_manifest(str(tmp_path)) == Manifest(snapshot_lsn=0)

    def test_round_trip(self, tmp_path):
        write_manifest(str(tmp_path), Manifest(snapshot_lsn=42))
        assert read_manifest(str(tmp_path)).snapshot_lsn == 42

    def test_corrupt_manifest_raises(self, tmp_path):
        with open(manifest_path(str(tmp_path)), "w") as handle:
            handle.write("not json")
        with pytest.raises(StorageError):
            read_manifest(str(tmp_path))

    def test_unsupported_format_raises(self, tmp_path):
        with open(manifest_path(str(tmp_path)), "w") as handle:
            json.dump({"format": 99, "snapshot_lsn": 1}, handle)
        with pytest.raises(StorageError):
            read_manifest(str(tmp_path))

    def test_write_is_atomic(self, tmp_path):
        write_manifest(str(tmp_path), Manifest(snapshot_lsn=1))
        assert not os.path.exists(manifest_path(str(tmp_path)) + ".tmp")


class TestPreferenceSnapshots:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "prefs.jsonl")
        prefs = [{"user_id": "mary", "preference_id": "p1", "effect": "deny"}]
        assert write_jsonl(path, prefs, sort_keys=True) == 1
        assert list(read_jsonl(path, "prefs")) == prefs

    def test_torn_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "prefs.jsonl")
        write_jsonl(path, [{"user_id": "mary", "preference_id": "p1"}], sort_keys=True)
        with open(path, "a") as handle:
            handle.write('{"user_id": "bo')
        assert len(list(read_jsonl(path, "prefs"))) == 1


class TestCompaction:
    def make_engine(self, tmp_path, segment_bytes=256):
        engine = StorageEngine(str(tmp_path), segment_bytes=segment_bytes)
        return engine, DurableDatastore(engine), DurableAuditLog(engine)

    def test_compaction_folds_sealed_segments(self, tmp_path):
        engine, datastore, _ = self.make_engine(tmp_path)
        for index in range(20):
            datastore.insert(obs(float(index)))
        report = engine.compact()
        assert report.segments_folded > 0
        assert report.observations_snapshotted == 20
        assert report.snapshot_lsn == 20
        assert read_manifest(str(tmp_path)).snapshot_lsn == 20
        # Only the fresh active segment remains.
        assert list_segments(str(tmp_path)) == [engine.wal.active_path]
        engine.close()

    def test_compaction_physically_drops_erased_data(self, tmp_path):
        engine, datastore, _ = self.make_engine(tmp_path)
        for index in range(10):
            datastore.insert(obs(float(index), subject="mary"))
        datastore.forget_subject("mary")
        report = engine.compact()
        assert report.erasures_folded == 1
        assert report.erased_observations_dropped == 10
        engine.close()
        # Grep the whole directory: no file may still contain the
        # erased subject's id.
        for name in os.listdir(str(tmp_path)):
            with open(os.path.join(str(tmp_path), name), "rb") as handle:
                assert b"mary" not in handle.read(), name

    def test_compaction_honors_retention(self, tmp_path):
        engine, datastore, _ = self.make_engine(tmp_path)
        datastore.insert(obs(10.0))
        datastore.insert(obs(1000.0))
        report = engine.compact(retention_by_type={"temperature": 100.0}, now=1050.0)
        assert report.retention_purged == 1
        assert report.observations_snapshotted == 1
        engine.close()

    def test_second_compaction_collects_old_snapshot(self, tmp_path):
        engine, datastore, _ = self.make_engine(tmp_path)
        datastore.insert(obs(1.0))
        first = engine.compact()
        datastore.insert(obs(2.0))
        second = engine.compact()
        assert second.snapshot_lsn > first.snapshot_lsn
        assert second.obsolete_files_removed >= 3
        old = snapshot_paths(str(tmp_path), first.snapshot_lsn)
        assert not any(os.path.exists(path) for path in old.values())
        engine.close()

    def test_compaction_is_idempotent_when_idle(self, tmp_path):
        engine, datastore, _ = self.make_engine(tmp_path)
        datastore.insert(obs(1.0))
        first = engine.compact()
        second = engine.compact()
        assert second.snapshot_lsn == first.snapshot_lsn
        assert second.frames_folded == 0
        engine.close()

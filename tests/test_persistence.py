"""Unit tests for the JSON-lines snapshot codec on observations and audit."""

import pytest

from repro.core.enforcement.audit import AuditLog, AuditRecord
from repro.core.language.vocabulary import GranularityLevel
from repro.core.policy.base import DecisionPhase, Effect
from repro.errors import StorageError
from repro.sensors.base import Observation
from repro.storage.snapshot import read_jsonl, write_jsonl
from repro.tippers.datastore import Datastore


def obs(timestamp, sensor_type="wifi_access_point", subject=None, granularity="precise"):
    return Observation.create(
        sensor_id="s1",
        sensor_type=sensor_type,
        timestamp=timestamp,
        space_id="r1",
        payload={"device_mac": "aa:bb", "rssi": -40.0, "nested": {"k": [1, 2]}},
        subject_id=subject,
    ).with_payload({"device_mac": "aa:bb", "rssi": -40.0, "nested": {"k": [1, 2]}}, granularity)


# Snapshot and restore a whole store or log through the shared codec,
# as compaction and recovery do.
def save_datastore(datastore, path):
    return write_jsonl(path, (o.to_dict() for o in datastore.query()))


def load_datastore(path, into=None, on_torn_tail=None):
    datastore = into if into is not None else Datastore()
    datastore.insert_many(read_jsonl(path, "obs", on_torn_tail))
    return datastore


def save_audit(log, path):
    return write_jsonl(path, (record.to_dict() for record in log))


def load_audit(path, on_torn_tail=None):
    log = AuditLog()
    for record in read_jsonl(path, "audit", on_torn_tail):
        log.append(record)
    return log


@pytest.fixture
def store():
    ds = Datastore()
    ds.insert(obs(1.0, subject="mary"))
    ds.insert(obs(2.0, sensor_type="motion_sensor"))
    ds.insert(obs(3.0, subject="bob", granularity="coarse"))
    return ds


class TestDatastoreSnapshots:
    def test_round_trip_exact(self, store, tmp_path):
        path = str(tmp_path / "snap.jsonl")
        count = save_datastore(store, path)
        assert count == 3
        restored = load_datastore(path)
        assert restored.count() == store.count()
        for sensor_type in store.stream_names():
            original = store.query(sensor_type=sensor_type)
            loaded = restored.query(sensor_type=sensor_type)
            assert [o.to_dict() for o in original] == [o.to_dict() for o in loaded]

    def test_subject_index_rebuilt(self, store, tmp_path):
        path = str(tmp_path / "snap.jsonl")
        save_datastore(store, path)
        restored = load_datastore(path)
        assert len(restored.query(subject_id="mary")) == 1
        assert len(restored.query(subject_id="bob")) == 1

    def test_load_into_existing(self, store, tmp_path):
        path = str(tmp_path / "snap.jsonl")
        save_datastore(store, path)
        target = Datastore()
        target.insert(obs(99.0))
        load_datastore(path, into=target)
        assert target.count() == 4

    def test_empty_snapshot(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        save_datastore(Datastore(), path)
        assert load_datastore(path).count() == 0

    def test_malformed_interior_line_reports_location(self, tmp_path, store):
        # A bad record *followed by* good data is corruption, not a
        # torn tail, and must still raise with its location.
        path = str(tmp_path / "bad.jsonl")
        save_datastore(store, path)
        with open(path) as handle:
            lines = handle.readlines()
        lines.insert(1, '{"observation_id": 1}\n')
        with open(path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(StorageError) as excinfo:
            load_datastore(path)
        assert "line 2" in str(excinfo.value)

    def test_torn_final_line_is_skipped_and_reported(self, tmp_path, store):
        path = str(tmp_path / "torn.jsonl")
        save_datastore(store, path)
        with open(path, "a") as handle:
            handle.write('{"observation_id": "trunc')  # crash mid-write
        messages = []
        restored = load_datastore(path, on_torn_tail=messages.append)
        assert restored.count() == store.count()
        assert len(messages) == 1
        assert "torn final record skipped" in messages[0]

    def test_torn_tail_increments_metric(self, tmp_path, store):
        from repro.obs.metrics import get_registry

        path = str(tmp_path / "torn.jsonl")
        save_datastore(store, path)
        with open(path, "a") as handle:
            handle.write("not json")
        before = get_registry().total("persistence_torn_tail_total")
        load_datastore(path)
        assert get_registry().total("persistence_torn_tail_total") == before + 1

    def test_no_tmp_file_left_behind(self, store, tmp_path):
        path = str(tmp_path / "snap.jsonl")
        save_datastore(store, path)
        assert not (tmp_path / "snap.jsonl.tmp").exists()


class TestAuditSnapshots:
    def make_log(self):
        log = AuditLog()
        for index in range(3):
            log.append(
                AuditRecord(
                    timestamp=float(index),
                    requester_id="svc",
                    phase=DecisionPhase.SHARING,
                    category="location",
                    subject_id="mary" if index % 2 == 0 else None,
                    space_id="r1",
                    effect=Effect.ALLOW if index else Effect.DENY,
                    granularity=GranularityLevel.COARSE,
                    reasons=("r%d" % index,),
                    notify_user=index == 2,
                )
            )
        return log

    def test_round_trip_exact(self, tmp_path):
        log = self.make_log()
        path = str(tmp_path / "audit.jsonl")
        assert save_audit(log, path) == 3
        restored = load_audit(path)
        assert list(restored) == list(log)

    def test_summary_survives(self, tmp_path):
        log = self.make_log()
        path = str(tmp_path / "audit.jsonl")
        save_audit(log, path)
        assert load_audit(path).summary() == log.summary()

    def test_malformed_interior_audit_line(self, tmp_path):
        log = self.make_log()
        path = str(tmp_path / "bad.jsonl")
        save_audit(log, path)
        with open(path) as handle:
            lines = handle.readlines()
        lines.insert(0, "not json\n")
        with open(path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(StorageError) as excinfo:
            load_audit(path)
        assert "line 1" in str(excinfo.value)

    def test_torn_final_audit_line_is_skipped(self, tmp_path):
        log = self.make_log()
        path = str(tmp_path / "audit.jsonl")
        save_audit(log, path)
        with open(path, "a") as handle:
            handle.write('{"timestamp": 9.0, "requester')
        messages = []
        restored = load_audit(path, on_torn_tail=messages.append)
        assert list(restored) == list(log)
        assert len(messages) == 1

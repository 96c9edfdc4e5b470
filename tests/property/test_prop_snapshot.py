"""Property tests for the snapshot codec shared by all three snapshot files.

- Every record type round-trips through its dict codec:
  ``from_dict(to_dict(x)) == x``.
- Cutting a snapshot's final line at any byte offset restores exactly
  the records before it and counts one torn tail (callback + metric).
- A corrupt line with data after it is corruption, not a tear: the
  reader raises :class:`StorageError` naming that line.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.enforcement.audit import AuditRecord
from repro.errors import StorageError
from repro.obs.metrics import get_registry
from repro.sensors.base import Observation
from repro.storage.snapshot import read_jsonl, write_jsonl
from tests.property.strategies import (
    SENSOR_TYPES,
    SPACES,
    USERS,
    effects,
    granularities,
    phases,
)

_floats = st.floats(-1e9, 1e9, allow_nan=False)
_optional_space = st.one_of(st.none(), st.sampled_from(SPACES))
_optional_user = st.one_of(st.none(), st.sampled_from(USERS))

observations = st.builds(
    Observation,
    observation_id=st.integers(1, 10**9),
    sensor_id=st.text(min_size=1, max_size=6),
    sensor_type=st.sampled_from(SENSOR_TYPES),
    timestamp=_floats,
    space_id=_optional_space,
    payload=st.dictionaries(
        st.text(max_size=4),
        st.one_of(st.integers(), _floats, st.text(max_size=5), st.booleans(), st.none()),
        max_size=3,
    ),
    subject_id=_optional_user,
    granularity=st.sampled_from(["precise", "coarse", "aggregate"]),
)

audit_records = st.builds(
    AuditRecord,
    timestamp=_floats,
    requester_id=st.text(min_size=1, max_size=6),
    phase=phases,
    category=st.text(min_size=1, max_size=8),
    subject_id=_optional_user,
    space_id=_optional_space,
    effect=effects,
    granularity=granularities,
    reasons=st.lists(st.text(max_size=8), max_size=3).map(tuple),
    notify_user=st.booleans(),
)

preference_dicts = st.fixed_dictionaries({
    "user_id": st.sampled_from(USERS),
    "preference_id": st.text(min_size=1, max_size=6),
    "effect": st.sampled_from(["allow", "deny"]),
})

#: kind -> (records strategy, record -> dict, write with sorted keys)
KINDS = {
    "obs": (observations, Observation.to_dict, False),
    "audit": (audit_records, AuditRecord.to_dict, False),
    "prefs": (preference_dicts, dict, True),
}

#: Lines no snapshot kind decodes; an object missing required fields
#: only fails the typed kinds, so it is not listed.
GARBAGE = ["not json", "[1, 2]", "42", '{"observation_id": "trunc']


def _write(directory, kind, items):
    _, to_dict, sort_keys = KINDS[kind]
    path = os.path.join(directory, "snapshot.%s.jsonl" % kind)
    write_jsonl(path, (to_dict(item) for item in items), sort_keys=sort_keys)
    return path


@settings(max_examples=150, deadline=None)
@given(observation=observations, record=audit_records)
def test_dict_codec_round_trip(observation, record):
    assert Observation.from_dict(observation.to_dict()) == observation
    assert AuditRecord.from_dict(record.to_dict()) == record


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_torn_final_line_restores_prefix(kind, data):
    items = data.draw(st.lists(KINDS[kind][0], min_size=1, max_size=6))
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, kind, items)
        with open(path, "rb") as handle:
            raw = handle.read()
        final_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        final_length = len(raw) - 1 - final_start
        cut = data.draw(st.integers(1, final_length - 1))
        with open(path, "wb") as handle:
            handle.write(raw[: final_start + cut])

        messages = []
        before = get_registry().total("persistence_torn_tail_total")
        restored = list(read_jsonl(path, kind, messages.append))
        assert restored == items[:-1]
        assert len(messages) == 1
        assert get_registry().total("persistence_torn_tail_total") == before + 1


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupt_interior_line_raises_with_location(kind, data):
    items = data.draw(st.lists(KINDS[kind][0], min_size=1, max_size=6))
    position = data.draw(st.integers(0, len(items) - 1))
    garbage = data.draw(st.sampled_from(GARBAGE))
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, kind, items)
        with open(path) as handle:
            lines = handle.readlines()
        lines.insert(position, garbage + "\n")
        with open(path, "w") as handle:
            handle.writelines(lines)

        with pytest.raises(StorageError) as excinfo:
            list(read_jsonl(path, kind))
        assert "(line %d of %s)" % (position + 1, path) in str(excinfo.value)

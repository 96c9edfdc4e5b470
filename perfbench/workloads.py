"""The three benchmark workloads, driven through the package's public API.

Every workload is a loop of fixed-size *rounds*.  A round builds a fresh
building (or campus) from a seed, runs a fixed amount of work, checks
the program's outputs, and tears everything down, so per-operation
samples and memory do not depend on how many rounds a run manages.
Round ``i`` draws its inputs from ``(seed, i % VARIANTS)``: repeats of
one variant must produce identical response digests, which is how a run
checks its own determinism.

The load is closed-loop with one client: every caller blocks on the
synchronous, in-process ``MessageBus.call`` and the admission queue
advances per call, so there is no arrival schedule to model.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.language.vocabulary import DataCategory, GranularityLevel
from repro.core.policy import catalog
from repro.core.policy.base import DecisionPhase, Effect
from repro.core.policy.preference import UserPreference
from repro.core.policy.serialization import preference_to_dict
from repro.errors import AdmissionShedError, NetworkError
from repro.federation import Campus, campus_erase_subject
from repro.federation.rebalance import RebalanceCoordinator
from repro.iota.assistant import IoTAssistant
from repro.net.admission import AdmissionController
from repro.net.bus import MessageBus
from repro.obs.metrics import MetricsRegistry
from repro.simulation.dbh import BUILDING_ID, make_dbh_tippers
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.mobility import BuildingWorld, CampusWorld
from repro.spatial.model import SpaceType
from repro.storage.durable import StorageEngine
from repro.users.profile import profile_to_dict

#: Distinct input sets per run; round ``i`` replays variant ``i % VARIANTS``.
VARIANTS = 3
NOON = 12 * 3600.0
TICK_SPACING_S = 120.0

# ingest: full DBH inventory (790 sensors), 20 inhabitants.  Retention
# and compaction run every 8 ticks; the last 8 stay in the WAL so the
# crash-restart replays a tail on top of the snapshot.
INGEST_POPULATION = 20
INGEST_TICKS = 16
INGEST_MAINTENANCE_EVERY = 8

# query: 20 inhabitants captured for 6 ticks (about 1.5k stored
# observations, 5k audit records), 400 registered users, 3000 queries.
QUERY_PRESENT = 20
QUERY_DIRECTORY = 400
QUERY_HISTORY_TICKS = 6
QUERY_COUNT = 3000
QUERY_ZIPF_S = 1.1
QUERY_LOCATE_SHARE = 0.85
QUERY_SERVICES = ("svc-concierge", "svc-occupancy", "svc-meeting", "svc-energy")

# campus: 4 buildings of 2 floors x 4 rooms, 32 occupants.
CAMPUS_BUILDINGS = ("bldg-a", "bldg-b", "bldg-c", "bldg-d")
CAMPUS_JOINING = "bldg-e"
CAMPUS_DRAINED = "bldg-a"
CAMPUS_POPULATION = 32
CAMPUS_SERVE_ROUNDS = 8
CAMPUS_UPDATES_PER_ROUND = 4
CAMPUS_DSAR_SUBJECTS = 3

#: Crash-restart recoveries per ingest or query round.
RECOVERIES = 3

#: What :func:`reference_s` takes at the host speed that every
#: normalised figure is expressed in: a typical reading on the 2-core
#: machine the benchmark was sized on.
REFERENCE_NOMINAL_S = 0.035

#: Failures that count against ``failed``; anything else is a crash.
OP_FAILURES = (AdmissionShedError, NetworkError)

#: Program counters of answers given in a degraded mode: fail-closed
#: policy-fetch denials, denials of a faulted store, brownout-coarsened
#: responses.  An operation during which one moves counts as failed.
DEGRADED_COUNTERS = (
    "enforcement_failclosed_total",
    "tippers_degraded_total",
    "brownout_responses_total",
)


class Violation(Exception):
    """A correctness check failed; the run must not report numbers."""


class DegradedProbe:
    """The sum of :data:`DEGRADED_COUNTERS` in the default registry.

    Cheap enough to read around every operation: the counter objects
    are looked up again only when the registry or its size changes.
    """

    def __init__(self) -> None:
        self._registry: Optional[MetricsRegistry] = None
        self._size = -1
        self._counters: List[Any] = []

    def __call__(self) -> float:
        registry = obs.get_registry()
        if registry is not self._registry or len(registry) != self._size:
            self._registry, self._size = registry, len(registry)
            self._counters = [c for name in DEGRADED_COUNTERS
                              for c in registry.counters(name)]
        return sum(counter.value for counter in self._counters)


class Recorder:
    """Per-operation samples, counts and checks for one run."""

    def __init__(self, scratch: str, on_op: Optional[Callable[[], None]] = None) -> None:
        self.scratch = scratch
        self.on_op = on_op
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.per_round: Dict[str, List[float]] = defaultdict(list)
        #: Seconds per operation, failed attempts included.
        self.spent: Counter = Counter()
        #: Seconds spent timing the host's speed between rounds.
        self.reference_time = 0.0
        self.attempted = 0
        self.failed = 0
        #: Whether the last timed operation completed (not failed).
        self.last_ok = True
        self.digests: Dict[int, str] = {}
        #: Named event counts printed beside the metrics.
        self.counts: Counter = Counter()
        self._degraded = DegradedProbe()

    def time(self, op: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one operation, recording its duration; None if it raised.

        An operation that raised one of :data:`OP_FAILURES`, or during
        which the program answered in a degraded mode, counts as failed
        and leaves no sample; a degraded answer is still returned.
        """
        self.attempted += 1
        if self.on_op is not None:
            self.on_op()
        degraded = self._degraded()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except OP_FAILURES:
            self.spent[op] += perf_counter() - start
            self.failed += 1
            self.last_ok = False
            return None
        elapsed = perf_counter() - start
        self.spent[op] += elapsed
        self.last_ok = self._degraded() == degraded
        if self.last_ok:
            self.samples[op].append(elapsed)
        else:
            self.failed += 1
            self.counts["degraded_" + op] += 1
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            raise Violation(message)

    def check_digest(self, variant: int, digest: "hashlib._Hash") -> None:
        """Repeats of one variant must answer identically."""
        value = digest.hexdigest()
        previous = self.digests.setdefault(variant, value)
        self.check(
            previous == value,
            "variant %d answered differently on a repeat (%s != %s)"
            % (variant, value[:12], previous[:12]),
        )


def reference_s() -> float:
    """Time a fixed piece of pure-Python work that calls no package code.

    A shared host changes speed by 20-40% every ten seconds or so.  This
    work is timed before and after every round, and the round's figures
    are scaled by ``REFERENCE_NOMINAL_S`` over the mean of the two
    readings.  A change to the program cannot move this work, so the
    scaled figures still move with the program.
    """
    start = perf_counter()
    for _ in range(2):
        counts: Dict[int, int] = {}
        for index in range(60000):
            counts[index % 997] = counts.get(index % 997, 0) + index
        sorted(str(index) for index in range(15000))
        json.loads(json.dumps([{"a": index, "b": str(index)} for index in range(3000)]))
    return perf_counter() - start


def variant_rng(seed: int, variant: int, purpose: str) -> random.Random:
    """A generator for one variant's inputs (str seeds hash stably)."""
    return random.Random("%d:%d:%s" % (seed, variant, purpose))


def _feed(digest: "hashlib._Hash", item: Any) -> None:
    digest.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
    digest.update(b"\n")


def _audit_total(tippers: Any) -> int:
    audit = tippers.audit
    return len(audit) + audit.dropped


def _seeded_preferences(
    rng: random.Random, user_id: str, phases: Tuple[DecisionPhase, ...], count: int,
    tag: str = "p",
) -> List[UserPreference]:
    """ALLOW/DENY preferences with granularity caps over common categories."""
    categories = (DataCategory.LOCATION, DataCategory.OCCUPANCY, DataCategory.PRESENCE)
    caps = (
        GranularityLevel.PRECISE,
        GranularityLevel.COARSE,
        GranularityLevel.BUILDING,
    )
    return [
        UserPreference(
            preference_id="%s-%s%d" % (user_id, tag, index),
            user_id=user_id,
            description="seeded benchmark preference",
            effect=Effect.DENY if rng.random() < 0.35 else Effect.ALLOW,
            categories=(rng.choice(categories),),
            phases=phases,
            granularity_cap=rng.choice(caps),
        )
        for index in range(count)
    ]


def _admission(rng: random.Random) -> AdmissionController:
    """Library-default admission, except that a principal's budget refills
    one call per admission step: the single closed-loop client can then
    never outrun it.  (IoTAs send no principal, so every assistant shares
    one budget; at the default half-call refill, bulk onboarding sheds
    their discovery sweeps.)"""
    return AdmissionController(seed=rng.randrange(2**31), principal_refill_per_step=1.0)


def _define_dbh_policies(tippers: Any) -> None:
    rooms = sorted(s.space_id for s in tippers.spatial.spaces_of_type(SpaceType.ROOM))
    tippers.define_policy(catalog.policy_1_comfort(rooms))
    tippers.define_policy(catalog.policy_2_emergency_location(BUILDING_ID))
    tippers.define_policy(catalog.policy_service_sharing(BUILDING_ID))


def _onboard_local(tippers: Any, profile: Any, preferences: Sequence[UserPreference]) -> None:
    """An occupant joining a single building: profile, then preferences."""
    tippers.add_user(profile)
    for preference in preferences:
        tippers.submit_preference(preference)


def _crash_restarts(rec: Recorder, directory: str, profiles: Sequence[Any], now: float,
                    stored: int, audited: int) -> None:
    """Restart a fresh DBH over the crashed directory and time its recovery.

    Recovery only reads the directory, so it is repeated RECOVERIES
    times for a steadier per-round total; each must restore exactly the
    pre-crash observations and audit trail.  The caller has dropped the
    crashed instance: a restarted process starts from an empty heap.
    """
    for _ in range(RECOVERIES):
        gc.collect()
        engine = StorageEngine(directory)
        tippers = make_dbh_tippers(enforce_capture=True, storage=engine)
        _define_dbh_policies(tippers)
        for profile in profiles:
            tippers.add_user(profile)
        rec.time("recover", tippers.recover, now)
        rec.check(tippers.datastore.count() == stored,
                  "recover restored %d observations, %d before the crash"
                  % (tippers.datastore.count(), stored))
        rec.check(len(tippers.audit) == audited,
                  "recover restored %d audit records, %d before the crash"
                  % (len(tippers.audit), audited))
        engine.close()


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def ingest_round(rec: Recorder, seed: int, variant: int, directory: str) -> None:
    rng = variant_rng(seed, variant, "ingest")
    digest = hashlib.sha256()
    setup_start = perf_counter()
    engine = StorageEngine(directory)
    tippers = make_dbh_tippers(enforce_capture=True, storage=engine)
    _define_dbh_policies(tippers)
    inhabitants = generate_inhabitants(
        tippers.spatial, INGEST_POPULATION, seed=rng.randrange(2**31)
    )
    world = BuildingWorld(tippers.spatial, inhabitants, seed=rng.randrange(2**31))
    preferences = {
        p.user_id: _seeded_preferences(
            rng, p.user_id, (DecisionPhase.CAPTURE, DecisionPhase.STORAGE), 2)
        for p in inhabitants
    }
    rec.per_round["setup"].append(perf_counter() - setup_start)

    phase_start = perf_counter()
    for person in inhabitants:
        rec.time("onboard", _onboard_local, tippers, person.profile, preferences[person.user_id])
    retention = tippers.policy_manager.retention_by_sensor_type()
    sampled = 0
    capture_s = 0.0
    now = NOON
    for tick in range(INGEST_TICKS):
        now = NOON + tick * TICK_SPACING_S
        world.step(now)
        stats = rec.time("tick", tippers.tick, now, world)
        rec.check(stats is not None, "capture tick %d failed" % tick)
        if rec.last_ok:
            capture_s += rec.samples["tick"][-1]
            sampled += stats.sampled
        _feed(digest, [stats.sampled, stats.stored, stats.dropped_capture,
                       stats.dropped_storage, stats.degraded])
        if (tick + 1) % INGEST_MAINTENANCE_EVERY == 0 and tick + 1 < INGEST_TICKS:
            purged = rec.time("retention", tippers.run_retention, now)
            report = rec.time("compact", engine.compact, retention, now)
            _feed(digest, [purged, report.observations_snapshotted])
    rec.per_round["throughput"].append(sampled / capture_s if capture_s else 0.0)

    stored = tippers.datastore.count()
    audited = len(tippers.audit)
    engine.close()
    del engine, tippers, world
    _crash_restarts(rec, directory, [p.profile for p in inhabitants], now, stored, audited)
    rec.per_round["round"].append(perf_counter() - phase_start)
    rec.check_digest(variant, digest)


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------
def _zipf_choices(rng: random.Random, items: Sequence[str], k: int) -> List[str]:
    ranked = list(items)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** QUERY_ZIPF_S for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=k)


def _query_inputs(rng: random.Random, user_ids: Sequence[str], rooms: Sequence[str],
                  now: float) -> List[Tuple[str, str, Dict[str, Any]]]:
    subjects = _zipf_choices(rng, user_ids, QUERY_COUNT)
    targets = _zipf_choices(rng, rooms, QUERY_COUNT)
    calls = []
    for index in range(QUERY_COUNT):
        service = QUERY_SERVICES[index % len(QUERY_SERVICES)]
        if rng.random() < QUERY_LOCATE_SHARE:
            payload = {
                "requester_id": service,
                "requester_kind": "building_service",
                "subject_id": subjects[index],
                "now": now,
                "granularity": rng.choice(("precise", "precise", "coarse")),
                "purpose": rng.choice(("providing_service",) * 4 + ("marketing",)),
            }
            calls.append((service, "locate_user", payload))
        else:
            calls.append((service, "room_occupancy", {
                "requester_id": service,
                "requester_kind": "building_service",
                "space_id": targets[index],
                "now": now,
            }))
    return calls


def _answer(method: str, response: Dict[str, Any]) -> List[Any]:
    """The decision-relevant part of a response (reasons excluded)."""
    if method == "locate_user":
        return [response["allowed"], response["location"]]
    return [response["allowed"], response["occupied"]]


def query_round(rec: Recorder, seed: int, variant: int, directory: str) -> None:
    rng = variant_rng(seed, variant, "query")
    digest = hashlib.sha256()
    setup_start = perf_counter()
    engine = StorageEngine(directory)
    tippers = make_dbh_tippers(enforce_capture=True, storage=engine)
    _define_dbh_policies(tippers)
    people = generate_inhabitants(tippers.spatial, QUERY_DIRECTORY, seed=rng.randrange(2**31))
    present = people[:QUERY_PRESENT]
    world = BuildingWorld(tippers.spatial, present, seed=rng.randrange(2**31))
    preferences = {
        p.user_id: _seeded_preferences(rng, p.user_id, (DecisionPhase.SHARING,), 2)
        for p in people
    }
    rooms = sorted(s.space_id for s in tippers.spatial.spaces_of_type(SpaceType.ROOM))
    setup_s = perf_counter() - setup_start

    phase_start = perf_counter()
    for person in people:
        rec.time("onboard", _onboard_local, tippers, person.profile, preferences[person.user_id])
    history_start = perf_counter()
    now = NOON
    for tick in range(QUERY_HISTORY_TICKS):
        now = NOON + tick * TICK_SPACING_S
        world.step(now)
        tippers.tick(now, world)
    now += 1.0
    bus = MessageBus(admission=_admission(rng))
    bus.register("tippers", tippers)
    calls = _query_inputs(rng, [p.user_id for p in people], rooms, now)
    setup_s += perf_counter() - history_start
    rec.per_round["setup"].append(setup_s)

    report = rec.time("compact", engine.compact,
                      tippers.policy_manager.retention_by_sensor_type(), now)
    _feed(digest, [report.observations_snapshotted, report.audit_snapshotted])

    audit = tippers.audit
    first_record = len(audit)
    answered = []
    completed = 0
    query_start = perf_counter()
    for service, method, payload in calls:
        before = _audit_total(tippers)
        response = rec.time("query", bus.call, "tippers", method, payload, principal=service)
        if response is None:
            continue
        completed += rec.last_ok
        rec.check(_audit_total(tippers) == before + 1,
                  "%s produced %d audit records, expected 1"
                  % (method, _audit_total(tippers) - before))
        answered.append(response["allowed"])
        rec.counts["allowed" if response["allowed"] else "denied"] += 1
        _feed(digest, _answer(method, response))
    rec.per_round["throughput"].append(completed / (perf_counter() - query_start))
    rec.check(audit.dropped == 0, "the audit log trimmed records mid-round")
    audited_allowed = [r.allowed for r in itertools.islice(iter(audit), first_record, None)]
    rec.check(audited_allowed == answered,
              "query answers disagree with their audit records")

    stored = tippers.datastore.count()
    audited = len(audit)
    engine.close()
    del engine, tippers, world, bus, audit
    _crash_restarts(rec, directory, [p.profile for p in people], now, stored, audited)
    rec.per_round["round"].append(perf_counter() - phase_start)
    rec.check_digest(variant, digest)


# ----------------------------------------------------------------------
# campus
# ----------------------------------------------------------------------
def _onboard_occupant(assistant: IoTAssistant, building_id: str, now: float,
                      preference: UserPreference) -> None:
    """An IoTA's first contact: discover, configure settings, submit."""
    assistant.discover(building_id, now)
    assistant.configure_building_settings(now)
    assistant.submit_preference(preference)


def campus_round(rec: Recorder, seed: int, variant: int, directory: str) -> None:
    rng = variant_rng(seed, variant, "campus")
    digest = hashlib.sha256()
    setup_start = perf_counter()
    controller = _admission(rng)
    campus = Campus(CAMPUS_BUILDINGS, seed=rng.randrange(2**31),
                    storage_root=directory, admission=controller)
    user_ids = ["campus-user-%04d" % index for index in range(1, CAMPUS_POPULATION + 1)]
    by_building: Dict[str, List[str]] = {b: [] for b in CAMPUS_BUILDINGS}
    for user_id in user_ids:
        by_building[campus.router.home_building(user_id)].append(user_id)
    inhabitants = {}
    worlds = {}
    people_seed = rng.randrange(2**31)
    for building_id in CAMPUS_BUILDINGS:
        residents = generate_inhabitants(
            campus.shard(building_id).spatial, len(by_building[building_id]),
            seed=people_seed, building_id=building_id, user_ids=by_building[building_id],
        )
        for person in residents:
            campus.add_resident(building_id, person.profile)
            inhabitants[person.user_id] = person
        worlds[building_id] = BuildingWorld(
            campus.shard(building_id).spatial, residents, seed=people_seed)
    roamers = sorted(u for u, p in inhabitants.items() if p.profile.has_iota)
    world = CampusWorld(worlds, home_of=dict(campus.home_of), inhabitants=inhabitants,
                        roamers=roamers, seed=rng.randrange(2**31))
    assistants = {}
    for user_id in roamers:
        shard = campus.shard(campus.home_of[user_id])
        assistants[user_id] = IoTAssistant(
            user_id, campus.bus, tippers_endpoint=shard.endpoint,
            registry_endpoints=[shard.registry_endpoint])
    rec.per_round["setup"].append(perf_counter() - setup_start)

    phase_start = perf_counter()
    done_before = sum(len(v) for v in rec.samples.values())
    for user_id in roamers:
        preference = _seeded_preferences(rng, user_id, (DecisionPhase.SHARING,), 1)[0]
        rec.time("onboard", _onboard_occupant, assistants[user_id],
                 campus.home_of[user_id], NOON, preference)

    now = NOON
    for serve in range(CAMPUS_SERVE_ROUNDS):
        now = NOON + (serve + 1) * 60.0
        for event in world.step(now):
            if event.user_id not in assistants:
                continue
            shard = campus.shard(event.to_building)
            result = rec.time(
                "handoff", assistants[event.user_id].roam_to, shard.endpoint,
                shard.registry_endpoint, profile_to_dict(campus.profile_of(event.user_id)),
                campus.home_of[event.user_id], event.to_building, now)
            if result is not None:
                _feed(digest, [event.user_id, event.to_building, result.preferences_pushed])
        for building_id in CAMPUS_BUILDINGS:
            rec.time("campus_tick", campus.shard(building_id).tippers.tick,
                     now, world.world(building_id))
        for user_id in user_ids:
            building_id = world.building_of(user_id)
            if worlds[building_id].location_of(user_id) is not None:
                campus.record_presence(user_id, building_id)
        order = list(user_ids)
        rng.shuffle(order)
        updaters = set(rng.sample(user_ids, CAMPUS_UPDATES_PER_ROUND))
        for user_id in order:
            home = campus.shard(campus.home_of[user_id]).tippers
            before = _audit_total(home)
            response = rec.time("campus_query", campus.router.call_home, user_id,
                                "locate_user", {
                                    "requester_id": "svc-campus-directory",
                                    "requester_kind": "building_service",
                                    "subject_id": user_id,
                                    "now": now,
                                })
            if response is not None:
                rec.check(_audit_total(home) == before + 1,
                          "campus locate_user produced %d audit records, expected 1"
                          % (_audit_total(home) - before))
                _feed(digest, [user_id] + _answer("locate_user", response))
                rec.counts["allowed" if response["allowed"] else "denied"] += 1
            if user_id in updaters:
                update = _seeded_preferences(rng, user_id, (DecisionPhase.SHARING,), 1,
                                             tag="u%d-" % serve)[0]
                rec.time("pref_update", campus.router.call_home, user_id,
                         "submit_preference", {"preference": preference_to_dict(update)})

    coordinator = RebalanceCoordinator(campus)
    for delta in (lambda: campus.add_building(CAMPUS_JOINING),
                  lambda: campus.drain_building(CAMPUS_DRAINED)):
        for migration in coordinator.plan_for_delta(delta()):
            outcome = rec.time("migrate", coordinator.migrate, migration)
            rec.check(outcome is not None and outcome.status == "completed",
                      "migration of %s did not complete" % migration.user_id)
            _feed(digest, [migration.user_id, migration.dest,
                           outcome.observations_moved, outcome.preferences_moved])
    campus.decommission_building(CAMPUS_DRAINED)

    live = campus.building_ids()
    for building_id in live:
        shard = campus.shard(building_id)
        rec.time("compact", shard.storage.compact,
                 shard.tippers.policy_manager.retention_by_sensor_type(), now)
    erased = rng.sample(user_ids, CAMPUS_DSAR_SUBJECTS)
    for subject in erased:
        receipt = rec.time("dsar", campus_erase_subject, campus, subject, now + 1.0,
                           withdraw_preferences=True, compact_storage=True)
        rec.check(receipt is not None, "campus DSAR for %s failed" % subject)
        # A former home (the user migrated away) no longer knows the
        # subject and answers the fan-out with an error; the survivor
        # check below is what proves the erasure complete.
        rec.counts["dsar_unreachable_shards"] += len(receipt.unreachable)
        _feed(digest, [subject, receipt.erased_observations])
    for building_id in live:
        stored = campus.shard(building_id).tippers.datastore.count()
        rec.time("recover", campus.recover_shard, building_id, now + 2.0)
        restored = campus.shard(building_id).tippers.datastore
        rec.check(restored.count() == stored,
                  "%s recovered %d observations, %d before the crash"
                  % (building_id, restored.count(), stored))
        for subject in erased:
            rec.check(not restored.query(subject_id=subject),
                      "observations of erased subject %s survived on %s"
                      % (subject, building_id))
    critical_shed = controller.ledger.shed_by_class.get("critical", 0)
    rec.check(critical_shed == 0, "%d CRITICAL calls were shed" % critical_shed)
    campus.close()
    elapsed = perf_counter() - phase_start
    rec.per_round["round"].append(elapsed)
    done = sum(len(v) for v in rec.samples.values()) - done_before
    rec.per_round["throughput"].append(done / elapsed)
    rec.check_digest(variant, digest)


WORKLOADS: Dict[str, Callable[[Recorder, int, int, str], None]] = {
    "ingest": ingest_round,
    "query": query_round,
    "campus": campus_round,
}


def run_rounds(workload: str, rec: Recorder, seed: int, seconds: float,
               min_rounds: int, first_round: int = 0,
               enough: Callable[[Recorder], bool] = lambda rec: True) -> int:
    """Run rounds until ``seconds`` have passed and ``enough(rec)`` holds.

    At least ``min_rounds`` rounds run whatever the clock says.  After
    each round, figures scaled to the nominal host speed (see
    :func:`reference_s`) are added to ``rec.per_round``: ``ref:setup``,
    ``ref:throughput``, and per operation ``total:<op>``,
    ``median:<op>`` and, with at least ten samples in the round,
    ``p90:<op>``.
    """
    round_fn = WORKLOADS[workload]
    deadline = perf_counter() + seconds
    index = first_round
    while (index - first_round < min_rounds or perf_counter() < deadline
           or not enough(rec)):
        # The previous round's garbage is collected here, not inside
        # whichever timed call of this round would trip the collector.
        gc.collect()
        directory = os.path.join(rec.scratch, "round-%04d" % index)
        os.makedirs(directory)
        before = {op: len(samples) for op, samples in rec.samples.items()}
        reference = reference_s()
        try:
            round_fn(rec, seed, index % VARIANTS, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        reference += reference_s()
        rec.reference_time += reference
        speed = 2.0 * REFERENCE_NOMINAL_S / reference
        rec.per_round["speed"].append(speed)
        rec.per_round["ref:setup"].append(rec.per_round["setup"][-1] * speed)
        rec.per_round["ref:throughput"].append(rec.per_round["throughput"][-1] / speed)
        for op, samples in list(rec.samples.items()):
            mine = [sample * speed for sample in samples[before.get(op, 0):]]
            rec.per_round["total:" + op].append(sum(mine))
            if mine:
                rec.per_round["median:" + op].append(statistics.median(mine))
            if len(mine) >= 10:
                rec.per_round["p90:" + op].append(statistics.quantiles(mine, n=10)[-1])
        index += 1
    return index - first_round


def fresh_registry() -> MetricsRegistry:
    """Point the program's default metrics registry at a new one."""
    registry = MetricsRegistry()
    obs.set_registry(registry)
    return registry

"""The rebalance scenario: elastic campus membership under faults.

A three-building campus runs its usual workload (capture ticks,
CRITICAL policy fetches, NORMAL locates routed through the federation
router, DEFERRABLE discovery sweeps), then the topology changes twice:

1. **Join**: a fourth building comes up and joins the hash ring.  The
   ring hands back a migration delta and a
   :class:`~repro.federation.rebalance.RebalanceCoordinator` migrates
   each displaced user with the two-phase, WAL-journaled protocol --
   under the ``ring-change`` fault plan, which partitions one
   migration's finalize acknowledgement away (the user stays mid-flight,
   served fail-closed through forwarding) and crashes the destination
   shard right after another migration's import committed (recovery must
   take the journal-proved finalize-only path).
2. **Drain**: the oldest building leaves the ring, its users migrate
   out cleanly, and the emptied shard is decommissioned for good --
   endpoints off the bus with breaker eviction, unknown-building calls
   afterwards rejected and counted.

While migrations are in flight the scenario keeps probing: every
forwarded decision must carry a ``migrating:<from>:<to>`` marker in
both the response and the audit record (counted for exact equality:
zero lost, zero duplicated), every probe at a dark destination must
fail rather than answer (fail-closed), and a campus DSAR lands on a
*mid-migration* subject -- after which no shard, journal entry, or
compacted segment may ever resurrect their observations.

The report carries only counts and booleans, so two same-seed runs
render byte-identical text (the pinned run is a golden file), and
:attr:`RebalanceReport.INVARIANTS` declares the acceptance invariants.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.policy import catalog
from repro.errors import (
    AdmissionShedError,
    FederationError,
    NetworkError,
    SimulatedCrash,
)
from repro.faults import FaultInjector, build_plan
from repro.federation import Campus, RebalanceCoordinator
from repro.net.bus import RpcError
from repro.net.resilience import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.simulation.kernel import (
    BUS_ACCOUNTING,
    CampusReport,
    Invariant,
    has_marker,
    home_assistants,
    locate_request,
    open_campus,
    pairs,
    partition_population,
    storage_root,
    workload_call,
)
from repro.simulation.mobility import BuildingWorld

DEFAULT_BUILDINGS = ("bldg-a", "bldg-b", "bldg-c")
DEFAULT_NEW_BUILDING = "bldg-d"

#: The marker prefix every forwarded mid-migration decision carries.
MIGRATING_MARKER_PREFIX = "migrating:"


@dataclass
class RebalanceReport(CampusReport):
    """Everything one rebalance run produced, rendered deterministically."""

    new_building: str = ""
    drained_building: str = ""
    final_residents_by_building: Dict[str, int] = field(default_factory=dict)
    ring_version: int = 1
    # Migration waves
    wave1_planned: int = 0
    wave2_planned: int = 0
    migration_stats: Dict[str, int] = field(default_factory=dict)
    pending_remaining: int = 0
    observations_moved: int = 0
    preferences_moved: int = 0
    # Journal-guided resumption after the crash
    journal_entries: int = 0
    # Mid-migration forwarding
    forwarded_responses: int = 0
    marked_responses: int = 0
    unmarked_responses: int = 0
    marked_audit: int = 0
    # Fail-closed probes at the dark destination
    failclosed_probes: int = 0
    failclosed_denied: int = 0
    failclosed_allows: int = 0
    # Mid-migration DSAR
    dsar_mid_flight: bool = False
    # Decommissioning
    decommissioned: List[str] = field(default_factory=list)
    unknown_probes: int = 0
    unknown_rejections: int = 0
    breaker_entries_left: int = 0
    # Assistant re-homing
    rehomed_assistants: int = 0
    rehome_pushed: int = 0
    rehome_pending: int = 0
    # End-of-run physical sweep of the migration journals
    journal_snapshots_with_subject: int = 0

    TITLE = "rebalance run"
    INVARIANTS = (
        BUS_ACCOUNTING,
        Invariant(
            "critical_never_shed_or_failed",
            lambda r: not (r.critical.shed or r.critical.failed),
            lambda r: "CRITICAL calls shed or failed (shed=%d failed=%d)"
            % (r.critical.shed, r.critical.failed),
        ),
        Invariant(
            "ring_version",
            lambda r: r.ring_version == 3,
            lambda r: "ring version %d after one join and one drain; "
            "expected 3" % r.ring_version,
        ),
        Invariant(
            "join_wave_size",
            lambda r: r.wave1_planned >= 3,
            lambda r: "join wave planned %d migration(s); the ring-change "
            "windows need at least 3" % r.wave1_planned,
        ),
        Invariant(
            "cutover_partition_once",
            lambda r: r.fault_counts.get("cutover_partition", 0) == 1,
            lambda r: "cutover_partition fired %d time(s); expected exactly 1"
            % r.fault_counts.get("cutover_partition", 0),
        ),
        Invariant(
            "crash_mid_migration_once",
            lambda r: r.fault_counts.get("crash_mid_migration", 0) == 1,
            lambda r: "crash_mid_migration fired %d time(s); expected exactly 1"
            % r.fault_counts.get("crash_mid_migration", 0),
        ),
        Invariant(
            "crash_recovered",
            lambda r: r.crashed and r.recovered,
            lambda r: "crash/recovery did not complete (crashed=%s "
            "recovered=%s)" % (r.crashed, r.recovered),
        ),
        Invariant(
            "journal_entries",
            lambda r: r.journal_entries >= 2,
            lambda r: "recovered migration journal held %d entr(ies); expected "
            "the partitioned and crashed migrations both journaled"
            % r.journal_entries,
        ),
        Invariant(
            "migrations_converged",
            lambda r: r.converged() == r.migration_stats.get("planned", 0)
            and not r.pending_remaining,
            lambda r: "migrations did not converge: planned=%d converged=%d "
            "pending=%d" % (r.migration_stats.get("planned", 0), r.converged(),
                            r.pending_remaining),
        ),
        Invariant(
            "forwarded_responses",
            lambda r: r.forwarded_responses != 0,
            lambda r: "no forwarded mid-migration decisions served",
        ),
        Invariant(
            "forwarded_marked",
            lambda r: not r.unmarked_responses,
            lambda r: "%d forwarded decision(s) lacked the migrating: marker"
            % r.unmarked_responses,
        ),
        Invariant(
            "forwarded_audited",
            lambda r: r.marked_responses == r.marked_audit,
            lambda r: "decision ledger: %d marked responses but %d marked "
            "audit records (lost or duplicated decisions)"
            % (r.marked_responses, r.marked_audit),
        ),
        Invariant(
            "failclosed_probes",
            lambda r: r.failclosed_probes != 0,
            lambda r: "no fail-closed probes ran at the dark shard",
        ),
        Invariant(
            "failclosed",
            lambda r: not r.failclosed_allows,
            lambda r: "%d probe(s) were answered while the destination was "
            "dark (fail-open)" % r.failclosed_allows,
        ),
        Invariant(
            "dsar_mid_flight",
            lambda r: r.dsar_mid_flight,
            lambda r: "the DSAR subject was not mid-migration",
        ),
        Invariant(
            "dsar_erased",
            lambda r: r.dsar_erased != 0,
            lambda r: "DSAR erasure removed no observations",
        ),
        Invariant(
            "dsar_fanout",
            lambda r: len(r.dsar_buildings) >= 2,
            lambda r: "DSAR fan-out reached %d building(s); a mid-migration "
            "subject spans at least 2" % len(r.dsar_buildings),
        ),
        Invariant(
            "no_resurrection",
            lambda r: not (r.resurrected or r.journal_snapshots_with_subject),
            lambda r: "post-DSAR resurrection: %d observation(s), %d journal "
            "snapshot(s) still hold the subject"
            % (r.resurrected, r.journal_snapshots_with_subject),
        ),
        Invariant(
            "decommissioned",
            lambda r: r.decommissioned == [r.drained_building],
            lambda r: "decommissioned=[%s]; expected [%s]"
            % (", ".join(r.decommissioned), r.drained_building),
        ),
        Invariant(
            "unknown_rejected",
            lambda r: r.unknown_rejections >= r.unknown_probes,
            lambda r: "unknown-building rejections (%d) below probes (%d)"
            % (r.unknown_rejections, r.unknown_probes),
        ),
        Invariant(
            "breakers_evicted",
            lambda r: not r.breaker_entries_left,
            lambda r: "%d breaker entr(ies) survived decommissioning"
            % r.breaker_entries_left,
        ),
        Invariant(
            "assistants_rehomed",
            lambda r: r.rehomed_assistants != 0,
            lambda r: "no assistants were re-homed after the moves",
        ),
    )

    def converged(self) -> int:
        stats = self.migration_stats
        return stats.get("completed", 0) + stats.get("already_finalized", 0)

    def body(self) -> Dict[str, Any]:
        return {
            "buildings": list(self.buildings),
            "new_building": self.new_building,
            "drained_building": self.drained_building,
            "residents_by_building": dict(self.residents_by_building),
            "final_residents_by_building": dict(
                self.final_residents_by_building
            ),
            "ring_version": self.ring_version,
            "waves": {
                "wave1_planned": self.wave1_planned,
                "wave2_planned": self.wave2_planned,
                "stats": dict(self.migration_stats),
                "pending_remaining": self.pending_remaining,
                "observations_moved": self.observations_moved,
                "preferences_moved": self.preferences_moved,
            },
            "crash": self.crash_dict(journal_entries=self.journal_entries),
            "forwarding": {
                "responses": self.forwarded_responses,
                "marked": self.marked_responses,
                "unmarked": self.unmarked_responses,
                "marked_audit_records": self.marked_audit,
            },
            "fail_closed": {
                "probes": self.failclosed_probes,
                "denied": self.failclosed_denied,
                "allows": self.failclosed_allows,
            },
            "dsar": self.dsar_dict(mid_flight=self.dsar_mid_flight),
            "decommission": {
                "decommissioned": list(self.decommissioned),
                "unknown_probes": self.unknown_probes,
                "unknown_rejections": self.unknown_rejections,
                "breaker_entries_left": self.breaker_entries_left,
            },
            "rehome": {
                "assistants": self.rehomed_assistants,
                "pushed": self.rehome_pushed,
                "pending": self.rehome_pending,
            },
            "classes": self.classes_dict(),
            "ledger": self.ledger_dict(),
            "stored_by_building": dict(self.stored_by_building),
            "bus": self.bus_dict(shed=self.bus_shed),
            "sweep": self.sweep_dict(
                journal_snapshots_with_subject=self.journal_snapshots_with_subject
            ),
        }

    def body_lines(self) -> List[str]:
        stats = self.migration_stats
        return (
            [
                "topology: joined=%s drained=%s ring_version=%d"
                % (self.new_building, self.drained_building, self.ring_version),
                "residents before: " + pairs(self.residents_by_building),
                "residents after:  " + pairs(self.final_residents_by_building),
                "waves: wave1=%d wave2=%d pending_left=%d"
                % (self.wave1_planned, self.wave2_planned,
                   self.pending_remaining),
                "migrations: "
                + ", ".join("%s=%d" % (key, stats[key]) for key in sorted(stats)),
                "moved: observations=%d preferences=%d"
                % (self.observations_moved, self.preferences_moved),
            ]
            + self.crash_lines(
                "step=%d recovered=%s journal_entries=%d"
                % (self.crash_step, self.recovered, self.journal_entries)
            )
            + [
                "forwarding: responses=%d marked=%d unmarked=%d marked_audit=%d"
                % (self.forwarded_responses, self.marked_responses,
                   self.unmarked_responses, self.marked_audit),
                "fail-closed: probes=%d denied=%d allows=%d"
                % (self.failclosed_probes, self.failclosed_denied,
                   self.failclosed_allows),
            ]
            + self.dsar_lines("mid_flight=%s " % self.dsar_mid_flight)
            + [
                "decommission: gone=[%s] unknown_probes=%d rejections=%d "
                "breaker_entries_left=%d"
                % (", ".join(self.decommissioned), self.unknown_probes,
                   self.unknown_rejections, self.breaker_entries_left),
                "rehome: assistants=%d pushed=%d pending=%d"
                % (self.rehomed_assistants, self.rehome_pushed,
                   self.rehome_pending),
            ]
            + self.class_lines(shed_rate=False)
            + [
                self.ledger_line(),
                self.stored_line(),
                self.bus_line("shed=%d" % self.bus_shed),
                self.sweep_line(
                    " journal_snapshots=%d" % self.journal_snapshots_with_subject
                ),
            ]
        )


class _Run:
    """Mutable state one rebalance run threads through its helpers."""

    def __init__(
        self,
        campus: Campus,
        report: RebalanceReport,
        coordinator: RebalanceCoordinator,
        retry_policy: RetryPolicy,
        injector: FaultInjector,
        worlds: Dict[str, BuildingWorld],
        building_of: Dict[str, str],
        now: float,
    ) -> None:
        self.campus = campus
        self.report = report
        self.coordinator = coordinator
        self.retry_policy = retry_policy
        self.injector = injector
        self.worlds = worlds
        #: user -> the building they are *physically* in (people do not
        #: move in this scenario; their data does).
        self.building_of = building_of
        self.now = now
        self.erase_now = -1.0
        #: user -> IoTAssistant; populated by ``_run`` before tick 0.
        self.assistants: Dict[str, Any] = {}

    def locate_home(self, user_id: str) -> Dict[str, Any]:
        """A locate routed to ``user_id``'s home through the router."""
        return self.campus.router.call_home(
            user_id,
            "locate_user",
            locate_request(user_id, self.now),
            principal="svc-occupancy",
        )

    def locate(self, user_id: str) -> Optional[Dict[str, Any]]:
        """One NORMAL locate routed through the federation router.

        A mid-migration subject's call is forwarded to the new home with
        the ``migrating:`` marker; the response's reasons are checked so
        an unmarked forwarded decision is caught, not silently passed.
        """
        report = self.report
        migration = self.campus.router.migration_of(user_id)
        response = report.normal.attempt(
            lambda: self.locate_home(user_id),
            failures=(NetworkError, FederationError),
        )
        if response is None:
            return None
        if migration is not None:
            report.forwarded_responses += 1
            if has_marker(response["reasons"], MIGRATING_MARKER_PREFIX):
                report.marked_responses += 1
            else:
                report.unmarked_responses += 1
        return response

    def tick(self) -> None:
        """One deterministic workload tick; advances simulated time."""
        campus = self.campus
        report = self.report
        now = self.now
        live = {shard.building_id: shard for shard in campus.shards()}
        for building_id in sorted(self.worlds):
            self.worlds[building_id].step(now)
        for building_id in sorted(self.worlds):
            shard = live.get(building_id)
            if shard is None or shard.down:
                continue
            shard.tippers.tick(now, self.worlds[building_id])
        for user_id in sorted(self.building_of):
            building_id = self.building_of[user_id]
            shard = live.get(building_id)
            if shard is None or shard.down:
                continue
            if self.worlds[building_id].location_of(user_id) is not None:
                campus.record_presence(user_id, building_id)
        for building_id in sorted(live):
            if live[building_id].down:
                continue
            workload_call(
                campus.bus, report.critical, live[building_id].endpoint,
                "get_policy_document", {}, "svc-policy-sync",
                self.retry_policy,
            )
        for user_id in sorted(campus.home_of):
            self.locate(user_id)
        for user_id in sorted(self.assistants):
            home = campus.home_of[user_id]
            shard = live.get(home)
            if shard is None:
                continue
            workload_call(
                campus.bus, report.deferrable, shard.registry_endpoint,
                "discover", {"space_id": home}, "iota-%s" % user_id,
                self.retry_policy,
            )
        self.now += 60.0

    def dark_probes(self) -> None:
        """Probe every mid-migration principal while the destination is
        dark: any answer at all is a fail-open leak."""
        report = self.report
        for user_id in self.campus.router.migrating_principals():
            report.failclosed_probes += 1
            try:
                self.locate_home(user_id)
            except (RpcError, NetworkError, AdmissionShedError):
                report.failclosed_denied += 1
                continue
            report.failclosed_allows += 1


def run_rebalance_scenario(
    plan_name: str = "ring-change",
    seed: int = 23,
    population: int = 24,
    ticks: int = 12,
    buildings: Sequence[str] = DEFAULT_BUILDINGS,
    new_building: str = DEFAULT_NEW_BUILDING,
    directory: Optional[str] = None,
    segment_bytes: int = 8 * 1024,
    metrics: Optional[MetricsRegistry] = None,
) -> RebalanceReport:
    """Run the elastic-membership scenario under ``plan_name``.

    When ``directory`` is omitted a temporary storage root is created
    and removed afterwards; pass one to keep each shard's WAL directory
    for inspection.  ``metrics`` (optional) receives the run's
    instrumentation -- the bench harness reads decision latency and WAL
    bytes from it.
    """
    buildings = sorted(buildings)
    report = RebalanceReport(
        plan=plan_name,
        seed=seed,
        population=population,
        ticks=ticks,
        buildings=list(buildings),
        new_building=new_building,
        drained_building=buildings[0],
    )
    with storage_root(directory, "repro-rebalance-") as root:
        _run(report, plan_name, seed, population, ticks, list(buildings),
             new_building, root, segment_bytes, metrics)
    return report


def _run(
    report: RebalanceReport,
    plan_name: str,
    seed: int,
    population: int,
    ticks: int,
    buildings: List[str],
    new_building: str,
    directory: str,
    segment_bytes: int,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    if metrics is None:
        metrics = MetricsRegistry()
    campus, controller = open_campus(
        buildings, seed, directory, segment_bytes, metrics
    )
    residents = partition_population(campus, population, seed)
    report.residents_by_building = {
        b: len(people) for b, people in residents.items()
    }
    worlds = {
        b: BuildingWorld(campus.shard(b).spatial, residents[b], seed=seed)
        for b in buildings
    }
    building_of = {
        person.user_id: b
        for b, people in residents.items()
        for person in people
    }
    retry_policy = RetryPolicy(seed=seed)
    assistants = home_assistants(campus, metrics, retry_policy)

    coordinator = RebalanceCoordinator(campus, retry_policy=retry_policy)
    plan = build_plan(plan_name, seed)
    # Only the migration plane is installed, so the injector's logical
    # steps count migration-step consults exactly -- that is what makes
    # the ring-change plan's windows scale-independent.
    injector = FaultInjector(plan)
    injector.install_rebalancer(coordinator)

    noon = 12 * 3600.0
    run = _Run(campus, report, coordinator, retry_policy, injector,
               worlds, building_of, noon)
    run.assistants = assistants

    try:
        _phases(run, ticks, new_building)
    finally:
        injector.uninstall()
        report.fault_counts = injector.trace.counts()
        campus.close()

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    report.ring_version = campus.router.ring_version
    report.migration_stats = dict(coordinator.stats)
    report.pending_remaining = len(coordinator.pending())
    report.final_residents_by_building = {
        shard.building_id: len(shard.residents)
        for shard in campus.shards()
    }
    for shard in campus.shards():
        report.stored_by_building[shard.building_id] = (
            shard.tippers.datastore.count()
        )
        report.marked_audit += sum(
            1
            for record in shard.tippers.audit
            if has_marker(record.reasons, MIGRATING_MARKER_PREFIX)
        )
    if campus.bus.breakers is not None:
        states = campus.bus.breakers.states()
        report.breaker_entries_left = sum(
            1
            for target in states
            if target.endswith("-" + report.drained_building)
            or target == "tippers-%s" % report.drained_building
            or target == "irr-%s" % report.drained_building
        )
    report.unknown_rejections = int(
        metrics.total("federation_unknown_building_total")
    )
    report.record_planes(campus.bus, controller, metrics)

    # ------------------------------------------------------------------
    # Physical-absence sweep: every storage directory on disk (the
    # decommissioned building's included) is re-opened with the
    # standalone recovery reader; neither the datastore nor any
    # journaled migration snapshot may still hold the erased subject.
    # ------------------------------------------------------------------
    if report.dsar_subject and run.erase_now >= 0:
        end_now = run.now
        for name in sorted(os.listdir(directory)):
            shard_dir = os.path.join(directory, name)
            if not os.path.isdir(shard_dir):
                continue
            state = report.sweep(shard_dir, end_now, run.erase_now)
            for entry in state.migrations.values():
                snapshot = entry.get("snapshot")
                if (
                    entry.get("user_id") == report.dsar_subject
                    and isinstance(snapshot, dict)
                    and snapshot.get("observations")
                ):
                    report.journal_snapshots_with_subject += 1

    report.check()


def _phases(run: _Run, ticks: int, new_building: str) -> None:
    """The scripted phases: warm-up, join wave, DSAR, drain, final."""
    campus = run.campus
    report = run.report
    warm_ticks = max(2, ticks // 3)
    final_ticks = max(2, ticks - warm_ticks - 4)

    # Phase 0: explicit preferences for migrations to carry.  Office
    # holders hide their office occupancy after-hours -- active policy
    # state that must survive the move byte-for-byte, without
    # suppressing the noon-time capture this scenario runs on.
    for user_id in sorted(run.assistants):
        profile = campus.profile_of(user_id)
        if profile.office_id is None:
            continue
        try:
            run.assistants[user_id].submit_preference(
                catalog.preference_1_office_after_hours(
                    user_id, profile.office_id
                )
            )
        except (RpcError, NetworkError):
            pass

    # Phase 1: warm-up.
    for _ in range(warm_ticks):
        run.tick()

    # Phase 2: the join wave, under partition and crash.
    delta = campus.add_building(new_building)
    migrations = run.coordinator.plan_for_delta(delta)
    report.wave1_planned = len(migrations)
    _drive_wave(run, migrations)

    # Phase 3: one mid-campus interlude tick on the enlarged ring.
    run.tick()

    # Phase 4: the drain wave (fault windows are long closed), then
    # decommissioning and the counted unknown-building rejection.
    drained = report.drained_building
    delta2 = campus.drain_building(drained)
    migrations2 = run.coordinator.plan_for_delta(delta2)
    report.wave2_planned = len(migrations2)
    _drive_wave(run, migrations2)
    campus.decommission_building(drained)
    report.decommissioned = list(campus.decommissioned)
    for _ in range(2):
        report.unknown_probes += 1
        try:
            campus.router.call_building(
                drained, "get_policy_document", {}, principal="svc-policy-sync"
            )
        except FederationError:
            pass

    # Phase 5: re-home the assistants of every migrated user.
    for user_id in sorted(run.assistants):
        shard = campus.shard(campus.home_of[user_id])
        assistant = run.assistants[user_id]
        if assistant.tippers_endpoint == shard.endpoint:
            continue
        try:
            pushed = assistant.rehome(
                shard.endpoint, shard.registry_endpoint
            )
        except (RpcError, NetworkError):
            continue
        report.rehomed_assistants += 1
        report.rehome_pushed += pushed["preferences_pushed"]
        report.rehome_pending += pushed["preferences_pending"]

    # Phase 6: the rebalanced campus keeps serving.
    for _ in range(final_ticks):
        run.tick()


def _drive_wave(run: _Run, migrations: List[Any]) -> None:
    """Drive one wave of migrations through faults to convergence."""
    campus = run.campus
    report = run.report
    coordinator = run.coordinator
    for migration in migrations:
        try:
            outcome = coordinator.migrate(migration)
        except SimulatedCrash:
            _handle_crash(run)
            continue
        _absorb(report, outcome)
    # Partitioned (acknowledgement-lost) migrations retry after a tick
    # of mid-flight traffic -- which is exactly when the forwarding
    # markers are exercised.
    rounds = 0
    while coordinator.pending() and rounds < 4:
        run.tick()
        for outcome in coordinator.retry_pending():
            _absorb(report, outcome)
        rounds += 1


def _handle_crash(run: _Run) -> None:
    """The crash choreography: dark probes, recovery, DSAR, resume."""
    campus = run.campus
    report = run.report
    coordinator = run.coordinator
    victim = coordinator.crashed_building
    assert victim is not None
    report.crashed = True
    report.crash_building = victim
    report.crash_step = run.injector.step - 1
    campus.mark_down(victim)
    # Fail-closed: while the destination is dark, every mid-migration
    # principal's forwarded call must fail, never answer.
    run.dark_probes()
    run.tick()
    run.dark_probes()
    # Recovery: the shard rebuilds from its WAL; its replayed migration
    # journal says how far each migration durably got.
    report.recovery = campus.recover_shard(victim, run.now)
    report.recovered = True
    journal = campus.shard(victim).tippers.recovered_migrations
    report.journal_entries = len(journal)
    # One live mid-flight tick: pending users are still marked, both
    # shards are up -- forwarded decisions flow, each carrying a marker.
    run.tick()
    # The DSAR lands on a *mid-migration* subject, then the coordinator
    # resumes from the journal; a resumed import may never re-create
    # what the erasure just removed.
    _run_dsar(run)
    for outcome in coordinator.resume_with_journal(journal):
        _absorb(report, outcome)


def _run_dsar(run: _Run) -> None:
    """The campus DSAR cycle against a mid-migration subject."""
    campus = run.campus
    report = run.report
    pending = run.coordinator.pending()
    if pending:
        subject = pending[0][0].user_id
    else:
        migrating = campus.router.migrating_principals()
        subject = migrating[0] if migrating else sorted(campus.home_of)[0]
    report.dsar_mid_flight = campus.router.migration_of(subject) is not None
    run.erase_now = report.run_dsar(campus, subject, run.now)


def _absorb(report: RebalanceReport, outcome: Any) -> None:
    if outcome is None:
        return
    report.observations_moved += outcome.observations_moved
    report.preferences_moved += outcome.preferences_moved

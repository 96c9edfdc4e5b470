"""The federation scenario: a sharded campus under storm conditions.

A campus of independently-WAL'd TIPPERS shards (one per building, see
:mod:`repro.federation`) runs capture ticks and a mixed-priority bus
workload while inhabitants roam between buildings and the
``campus-storm`` fault plan injects overload bursts, a stalled access
point, and a mid-append crash that takes one shard down hard:

- **Roaming**: every boundary crossing the world emits triggers an IoTA
  handoff -- the assistant re-discovers the visited building's IRR,
  registers its user as a roaming principal (CRITICAL; never shed), and
  re-pushes the preferences the visited shard has not yet acknowledged.
  Every enforcement decision a visited shard makes about a roamer must
  carry a ``roaming:<home>`` marker in both the response and the audit
  record.
- **Crash + recovery**: the crashed shard goes dark (routed calls fail,
  nothing queues), then recovers from its own WAL -- the user directory
  re-seeded from campus metadata, observations/audit/preferences
  replayed -- and rejoins the bus; roamers present in the building are
  handed off again.
- **Campus DSAR**: mid-run, one well-travelled subject exercises the
  cross-shard data-subject pipeline -- an access report fanned out to
  every building that ever observed them, then an erasure with
  per-shard WAL-durable compaction.  At scenario end every shard's
  directory is re-opened with the *standalone* recovery reader and
  swept: no observation of the erased subject from before the erasure
  may exist anywhere on the campus.

The report carries only counts and booleans, so two runs with the same
seed render byte-identical text (the pinned run is a golden file), and
:attr:`FederateReport.INVARIANTS` declares the acceptance invariants.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.core.policy import catalog
from repro.errors import NetworkError, SimulatedCrash
from repro.faults import FaultInjector, build_plan
from repro.federation import Campus
from repro.net.bus import RpcError
from repro.net.resilience import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.simulation.inhabitants import Inhabitant
from repro.simulation.kernel import (
    BUS_ACCOUNTING,
    CRITICAL_NEVER_SHED,
    DEFERRABLE_SHED,
    CampusReport,
    ClassOutcome,
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
from repro.simulation.mobility import BuildingWorld, CampusWorld
from repro.users.profile import profile_to_dict

DEFAULT_BUILDINGS = ("bldg-a", "bldg-b", "bldg-c", "bldg-d")

#: The marker prefix every visited-shard decision about a roamer
#: carries (see RequestManager._roaming_notes).
ROAMING_MARKER_PREFIX = "roaming:"


@dataclass
class FederateReport(CampusReport):
    """Everything one campus run produced, rendered deterministically."""

    roamers: int = 0
    # Roaming handoffs
    handoffs: int = 0
    returns: int = 0
    reentries: int = 0
    handoff_failures: int = 0
    preferences_repushed: int = 0
    preferences_pending: int = 0
    critical_dark: int = 0
    # Roaming markers
    visited_shard_responses: int = 0
    roaming_marked_responses: int = 0
    roaming_marked_audit: int = 0
    # Crash + recovery
    crash_tick: int = -1
    rehandoffs: int = 0

    TITLE = "federate run"
    INVARIANTS = (
        BUS_ACCOUNTING,
        CRITICAL_NEVER_SHED,
        Invariant(
            "critical_completed_outside_dark_window",
            lambda r: r.critical.completed == r.critical.attempted - r.critical_dark,
            lambda r: "CRITICAL calls failed outside the dark-shard window: "
            "completed=%d attempted=%d dark=%d"
            % (r.critical.completed, r.critical.attempted, r.critical_dark),
        ),
        DEFERRABLE_SHED,
        Invariant(
            "handoffs",
            lambda r: r.handoffs != 0,
            lambda r: "no roaming handoffs occurred",
        ),
        Invariant(
            "visited_responses",
            lambda r: r.visited_shard_responses != 0,
            lambda r: "no visited-shard decisions were served",
        ),
        Invariant(
            "roaming_marked",
            lambda r: r.roaming_marked_responses == r.visited_shard_responses,
            lambda r: "roaming markers: %d of %d visited-shard responses marked"
            % (r.roaming_marked_responses, r.visited_shard_responses),
        ),
        Invariant(
            "roaming_audited",
            lambda r: r.roaming_marked_audit >= r.roaming_marked_responses,
            lambda r: "audit trail: %d marked records for %d marked responses"
            % (r.roaming_marked_audit, r.roaming_marked_responses),
        ),
        Invariant(
            "crashed",
            lambda r: r.crashed,
            lambda r: "the storm never crashed a shard",
        ),
        Invariant(
            "recovered",
            lambda r: not r.crashed or r.recovered,
            lambda r: "shard %s never recovered" % r.crash_building,
        ),
        Invariant(
            "dsar_fanout",
            lambda r: len(r.dsar_buildings) >= 2,
            lambda r: "DSAR fan-out reached %d building(s); expected >= 2"
            % len(r.dsar_buildings),
        ),
        Invariant(
            "dsar_erased",
            lambda r: r.dsar_erased != 0,
            lambda r: "DSAR erasure removed no observations",
        ),
        Invariant(
            "dsar_compacted",
            lambda r: r.dsar_compacted == r.dsar_buildings,
            lambda r: "DSAR compaction: compacted=[%s] but fan-out=[%s]"
            % (", ".join(r.dsar_compacted), ", ".join(r.dsar_buildings)),
        ),
        Invariant(
            "no_resurrection",
            lambda r: not r.resurrected,
            lambda r: "physical sweep found %d observation(s) of the erased "
            "subject" % r.resurrected,
        ),
    )

    def body(self) -> Dict[str, Any]:
        return {
            "buildings": list(self.buildings),
            "residents_by_building": dict(self.residents_by_building),
            "roamers": self.roamers,
            "roaming": {
                "handoffs": self.handoffs,
                "returns": self.returns,
                "reentries": self.reentries,
                "failures": self.handoff_failures,
                "preferences_repushed": self.preferences_repushed,
                "preferences_pending": self.preferences_pending,
                "visited_shard_responses": self.visited_shard_responses,
                "marked_responses": self.roaming_marked_responses,
                "marked_audit_records": self.roaming_marked_audit,
            },
            "classes": self.classes_dict(),
            "critical_dark": self.critical_dark,
            "crash": self.crash_dict(tick=self.crash_tick, rehandoffs=self.rehandoffs),
            "dsar": self.dsar_dict(),
            "sweep": self.sweep_dict(),
            "ledger": self.ledger_dict(
                shed_by_class=dict(self.ledger_shed_by_class),
                brownouts=self.ledger_brownouts,
            ),
            "quarantine": {
                "events": self.quarantine_events,
                "readmissions": self.quarantine_readmissions,
            },
            "stored_by_building": dict(self.stored_by_building),
            "bus": self.bus_dict(shed=self.bus_shed),
        }

    def body_lines(self) -> List[str]:
        return (
            [
                "residents: " + pairs(self.residents_by_building),
                "roaming: roamers=%d handoffs=%d returns=%d reentries=%d "
                "failures=%d" % (self.roamers, self.handoffs, self.returns,
                                 self.reentries, self.handoff_failures),
                "preferences: repushed=%d pending=%d"
                % (self.preferences_repushed, self.preferences_pending),
                "markers: visited_responses=%d marked_responses=%d "
                "marked_audit=%d"
                % (self.visited_shard_responses, self.roaming_marked_responses,
                   self.roaming_marked_audit),
            ]
            + self.class_lines(critical_note=" dark=%d" % self.critical_dark)
            + self.crash_lines(
                "tick=%d recovered=%s rehandoffs=%d"
                % (self.crash_tick, self.recovered, self.rehandoffs)
            )
            + self.dsar_lines()
            + [
                self.sweep_line(),
                self.ledger_line(" brownouts=%d" % self.ledger_brownouts),
                self.quarantine_line(),
                self.stored_line(),
                self.bus_line("shed=%d" % self.bus_shed),
            ]
        )


class _Run:
    """Mutable state one federate run threads through its helpers."""

    def __init__(self, campus: Campus, report: FederateReport,
                 retry_policy: RetryPolicy, injector: FaultInjector) -> None:
        self.campus = campus
        self.report = report
        self.retry_policy = retry_policy
        self.injector = injector
        self.current_tick = -1
        self.erase_now = -1.0
        self.pref_submitters: Set[str] = set()

    def call(
        self,
        outcome: ClassOutcome,
        building_id: str,
        method: str,
        payload: Dict[str, Any],
        principal: str,
        registry: bool = False,
    ) -> Optional[Dict[str, Any]]:
        """One accounted workload call routed to ``building_id``.

        Returns None when the call was shed, failed, or took the target
        shard down (a crash mid-call marks the shard dark and counts as
        a failure -- the caller got no answer).
        """
        shard = self.campus.shard(building_id)
        target = shard.registry_endpoint if registry else shard.endpoint
        dark = shard.down

        def failed(error: Exception) -> None:
            crash = isinstance(error, SimulatedCrash)
            if crash:
                self._record_crash(building_id)
            # A crash call itself opens the dark window.
            if outcome is self.report.critical and (dark or crash):
                self.report.critical_dark += 1

        return workload_call(
            self.campus.bus, outcome, target, method, payload, principal,
            self.retry_policy,
            failures=(NetworkError, SimulatedCrash),
            on_failure=failed,
        )

    def _record_crash(self, building_id: str) -> None:
        if not self.report.crashed:
            self.report.crashed = True
            self.report.crash_building = building_id
            self.report.crash_tick = self.current_tick
            self.report.crash_step = self.injector.step - 1
        self.campus.mark_down(building_id)


def run_federate_scenario(
    plan_name: str = "campus-storm",
    seed: int = 17,
    population: int = 12,
    ticks: int = 16,
    buildings: Sequence[str] = DEFAULT_BUILDINGS,
    directory: Optional[str] = None,
    segment_bytes: int = 8 * 1024,
    metrics: Optional[MetricsRegistry] = None,
) -> FederateReport:
    """Run the sharded-campus scenario under ``plan_name`` and report.

    When ``directory`` is omitted a temporary storage root is created
    and removed afterwards; pass one to keep each shard's WAL directory
    for inspection.  ``metrics`` (optional) receives the run's
    instrumentation -- the bench harness reads decision latency and WAL
    bytes from it.
    """
    report = FederateReport(
        plan=plan_name,
        seed=seed,
        population=population,
        ticks=ticks,
        buildings=sorted(buildings),
    )
    with storage_root(directory, "repro-federate-") as root:
        _run(report, plan_name, seed, population, ticks, sorted(buildings),
             root, segment_bytes, metrics)
    return report


def _run(
    report: FederateReport,
    plan_name: str,
    seed: int,
    population: int,
    ticks: int,
    buildings: List[str],
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
    inhabitants: Dict[str, Inhabitant] = {
        person.user_id: person
        for people in residents.values()
        for person in people
    }
    worlds: Dict[str, BuildingWorld] = {
        b: BuildingWorld(campus.shard(b).spatial, residents[b], seed=seed)
        for b in buildings
    }
    retry_policy = RetryPolicy(seed=seed)
    assistants = home_assistants(campus, metrics, retry_policy)
    roamer_ids = sorted(assistants)
    report.roamers = len(roamer_ids)
    world = CampusWorld(
        worlds,
        home_of=dict(campus.home_of),
        inhabitants=inhabitants,
        roamers=roamer_ids,
        seed=seed,
    )

    crash_building = buildings[0]
    stall_building = buildings[1 % len(buildings)]
    plan = build_plan(plan_name, seed)
    injector = FaultInjector(plan)
    injector.install_bus(campus.bus)
    injector.install_admission(controller)
    injector.install_storage_engine(campus.shard(crash_building).storage)
    injector.install_sensor_manager(
        campus.shard(stall_building).tippers.sensor_manager
    )
    run = _Run(campus, report, retry_policy, injector)
    run.pref_submitters = set(roamer_ids[:3])

    noon = 12 * 3600.0
    try:
        _run_ticks(run, world, assistants, noon, ticks)
    finally:
        injector.uninstall()
        report.fault_counts = injector.trace.counts()
        campus.close()
    end_now = noon + ticks * 60.0

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    for building_id in buildings:
        shard = campus.shard(building_id)
        report.stored_by_building[building_id] = shard.tippers.datastore.count()
        report.roaming_marked_audit += sum(
            1
            for record in shard.tippers.audit
            if has_marker(record.reasons, ROAMING_MARKER_PREFIX)
        )
    report.record_planes(campus.bus, controller, metrics)

    # ------------------------------------------------------------------
    # Physical-absence sweep: open every shard's directory with the
    # standalone recovery reader and look for the erased subject.
    # ------------------------------------------------------------------
    if report.dsar_subject and run.erase_now >= 0:
        for building_id in buildings:
            report.sweep(
                os.path.join(directory, building_id), end_now, run.erase_now
            )

    report.check()


def _run_ticks(
    run: "_Run",
    world: CampusWorld,
    assistants: Dict[str, Any],
    noon: float,
    ticks: int,
) -> None:
    campus = run.campus
    report = run.report
    buildings = list(campus.building_ids())
    dsar_tick = max(1, (3 * ticks) // 4)
    for tick in range(ticks):
        run.current_tick = tick
        now = noon + tick * 60.0

        # Recover the dark shard after one full tick of darkness, then
        # hand off every roamer still inside the building again.
        if (report.crashed and not report.recovered
                and tick >= report.crash_tick + 2):
            report.recovery = campus.recover_shard(report.crash_building, now)
            report.recovered = True
            for user_id in sorted(assistants):
                if world.building_of(user_id) != report.crash_building:
                    continue
                if campus.home_of[user_id] == report.crash_building:
                    continue
                if _handoff(run, assistants[user_id], user_id,
                            report.crash_building, now) is not None:
                    report.rehandoffs += 1

        events = world.step(now)

        # Pre-roam preference submissions: a few assistants record an
        # explicit no-location preference at their home shard, so later
        # handoffs have something to re-push.
        if tick == 0:
            for user_id in sorted(run.pref_submitters):
                try:
                    assistants[user_id].submit_preference(
                        catalog.preference_2_no_location(user_id)
                    )
                except (RpcError, NetworkError):
                    pass

        # Boundary crossings -> IoTA handoffs.
        for event in events:
            if event.user_id not in assistants:
                continue
            result = _handoff(run, assistants[event.user_id], event.user_id,
                              event.to_building, now)
            if result is None:
                continue
            if event.kind == "roam":
                report.handoffs += 1
            else:
                report.returns += 1
            if result.re_entry:
                report.reentries += 1
            report.preferences_repushed += result.preferences_pushed
            report.preferences_pending += result.preferences_pending

        # Capture tick on every live shard; a mid-append crash takes
        # the shard down dark.
        for building_id in buildings:
            shard = campus.shard(building_id)
            if shard.down:
                continue
            try:
                shard.tippers.tick(now, world.world(building_id))
            except SimulatedCrash:
                run._record_crash(building_id)

        # The presence ledger: which live shards observed whom.
        for user_id in sorted(campus.home_of):
            building_id = world.building_of(user_id)
            if campus.shard(building_id).down:
                continue
            if world.world(building_id).location_of(user_id) is not None:
                campus.record_presence(user_id, building_id)

        # CRITICAL: the enforcement pipeline keeps fetching policy.
        for building_id in buildings:
            run.call(
                report.critical, building_id, "get_policy_document", {},
                "svc-policy-sync",
            )

        # DEFERRABLE: discovery sweeps against each visited registry.
        for user_id in sorted(assistants):
            building_id = world.building_of(user_id)
            run.call(
                report.deferrable, building_id, "discover",
                {"space_id": building_id},
                "iota-%s" % user_id, registry=True,
            )

        # NORMAL: locate each inhabitant at the building they are in;
        # a visited shard's answer must carry the roaming marker.
        for user_id in sorted(campus.home_of):
            building_id = world.building_of(user_id)
            visited = building_id != campus.home_of[user_id]
            dark = campus.shard(building_id).down
            response = run.call(
                report.normal, building_id, "locate_user",
                locate_request(user_id, now),
                "svc-occupancy",
            )
            if response is None or dark:
                continue
            if visited:
                report.visited_shard_responses += 1
                if has_marker(response["reasons"], ROAMING_MARKER_PREFIX):
                    report.roaming_marked_responses += 1

        # The campus DSAR: report, then erase with per-shard compaction.
        if tick == dsar_tick:
            _run_dsar(run, now)


def _handoff(run: "_Run", assistant: Any, user_id: str,
             building_id: str, now: float) -> Optional[Any]:
    """One IoTA handoff to ``building_id``; None when it failed."""
    campus = run.campus
    shard = campus.shard(building_id)
    try:
        return assistant.roam_to(
            shard.endpoint,
            shard.registry_endpoint,
            profile_to_dict(campus.profile_of(user_id)),
            campus.home_of[user_id],
            building_id,
            now,
        )
    except SimulatedCrash:
        run._record_crash(building_id)
        run.report.handoff_failures += 1
        return None
    except (RpcError, NetworkError):
        run.report.handoff_failures += 1
        return None


def _run_dsar(run: "_Run", now: float) -> None:
    """The campus-wide DSAR cycle for one well-travelled subject."""
    campus = run.campus
    report = run.report
    # The most interesting subject: someone whose observations span at
    # least two shards.  No-location preference holders are skipped --
    # their capture was suppressed, so an erasure would be a no-op.
    candidates = [
        user_id
        for user_id in sorted(campus.home_of)
        if user_id not in run.pref_submitters
    ]
    subject = ""
    for user_id in candidates:
        if len(campus.buildings_observing(user_id)) >= 2:
            subject = user_id
            break
    if not subject:
        subject = candidates[0]
    run.erase_now = report.run_dsar(campus, subject, now)

"""The scenario kernel: one report base and declarative invariants.

The byte-reproducible fault scenarios (``chaos``, ``recover``,
``overload``, ``federate``, ``rebalance``) share their scaffolding here:

- **Reports.**  :class:`ScenarioReport` owns the header, the ``faults
  fired`` line, the ``VIOLATION:``/``result:`` tail and the canonical
  ``to_dict``; :class:`BusReport`, :class:`WorkloadReport` and
  :class:`CampusReport` add the bus, priority-class/admission-ledger and
  campus crash/DSAR/sweep sections.  A scenario report only renders its
  own lines and picks the order of the shared sections.
- **Invariants.**  Each report class declares ``INVARIANTS``, a tuple of
  :class:`Invariant` ``(name, holds, detail)`` triples; :func:`evaluate`
  walks it, so the whole acceptance set is data a program (or a test)
  can enumerate.
- **Setup.**  The single-building testbed (:func:`compact_building`,
  :func:`serve_building`) and the sharded campus (:func:`open_campus`,
  :func:`partition_population`, :func:`home_assistants`).

The registry that names the scenarios for ``python -m repro scenario``
lives with the CLI in :mod:`repro.__main__`, so building the command
line does not import the simulation.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.policy import catalog
from repro.errors import AdmissionShedError, NetworkError
from repro.federation import Campus, campus_access_report, campus_erase_subject
from repro.iota.assistant import IoTAssistant
from repro.irr.registry import IoTResourceRegistry
from repro.net.admission import AdmissionController, Priority
from repro.net.bus import MessageBus
from repro.net.resilience import BreakerBoard, Deadline, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.simulation.inhabitants import Inhabitant, generate_inhabitants
from repro.spatial.model import SpaceType, build_simple_building
from repro.storage.recovery import RecoveredState, RecoveryReport, recover
from repro.tippers.bms import TIPPERS

TIPPERS_ENDPOINT = "tippers"
REGISTRY_ENDPOINT = "irr-1"


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
class Invariant(NamedTuple):
    """An acceptance invariant: a name, a predicate over the report, and
    the violation message to record when the predicate is false."""

    name: str
    holds: Callable[[Any], bool]
    detail: Callable[[Any], str]


def evaluate(report: Any, invariants: Sequence[Invariant]) -> List[str]:
    """The details of every invariant ``report`` violates, in order."""
    return [
        invariant.detail(report)
        for invariant in invariants
        if not invariant.holds(report)
    ]


def pairs(mapping: Dict[str, int]) -> str:
    return ", ".join("%s=%d" % item for item in sorted(mapping.items()))


def locate_request(
    subject_id: str, now: float, requester_id: str = "svc-occupancy"
) -> Dict[str, Any]:
    """A building service's ``locate_user`` payload."""
    return {
        "requester_id": requester_id,
        "requester_kind": "building_service",
        "subject_id": subject_id,
        "now": now,
    }


@contextmanager
def storage_root(directory: Optional[str], prefix: str) -> Iterator[str]:
    """``directory``, or a temporary one that is removed afterwards."""
    if directory is not None:
        yield directory
        return
    scratch = tempfile.mkdtemp(prefix=prefix)
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# Report base
# ----------------------------------------------------------------------
@dataclass
class ScenarioReport:
    """Everything every scenario reports, rendered deterministically."""

    plan: str
    seed: int
    population: int
    ticks: int
    fault_counts: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    #: The header line's leading words, e.g. ``"chaos run"``.
    TITLE: ClassVar[str] = "scenario"
    #: The acceptance invariants :meth:`check` evaluates, in report order.
    #: A report that declares none renders no ``result:`` tail.
    INVARIANTS: ClassVar[Tuple[Invariant, ...]] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self) -> None:
        """Evaluate :attr:`INVARIANTS` into :attr:`violations`."""
        self.violations = evaluate(self, self.INVARIANTS)

    def header_note(self) -> str:
        """Scenario-specific text appended to the header line."""
        return ""

    def body(self) -> Dict[str, Any]:
        """The scenario-specific keys of :meth:`to_dict`."""
        return {}

    def body_lines(self) -> List[str]:
        """The scenario's lines between the header and ``faults fired``."""
        return []

    def footer_lines(self) -> List[str]:
        """The scenario's lines after ``faults fired``."""
        return []

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "plan": self.plan,
            "seed": self.seed,
            "population": self.population,
            "ticks": self.ticks,
            "fault_counts": dict(self.fault_counts),
        }
        data.update(self.body())
        if self.INVARIANTS:
            data["violations"] = list(self.violations)
            data["ok"] = self.ok
        return data

    def summary_lines(self) -> List[str]:
        lines = [
            "%s: plan=%s seed=%d population=%d ticks=%d%s"
            % (self.TITLE, self.plan, self.seed, self.population, self.ticks,
               self.header_note())
        ]
        lines.extend(self.body_lines())
        lines.append("faults fired: %s" % (pairs(self.fault_counts) or "none"))
        lines.extend(self.footer_lines())
        if self.INVARIANTS:
            lines.extend("VIOLATION: %s" % violation for violation in self.violations)
            lines.append("result: %s" % ("OK" if self.ok else "FAILED"))
        return lines

    @property
    def report_text(self) -> str:
        return "".join(line + "\n" for line in self.summary_lines())


@dataclass
class BusReport(ScenarioReport):
    """A scenario whose traffic crosses the message bus."""

    bus_attempts: int = 0
    bus_logical_calls: int = 0
    bus_retries: int = 0
    bus_shed: int = 0

    def record_bus(self, bus: MessageBus) -> None:
        stats = bus.stats
        self.bus_attempts = stats.calls
        self.bus_logical_calls = stats.logical_calls
        self.bus_retries = stats.retries
        self.bus_shed = stats.shed

    def bus_dict(self, **extra: int) -> Dict[str, int]:
        return dict(
            attempts=self.bus_attempts,
            logical_calls=self.bus_logical_calls,
            retries=self.bus_retries,
            **extra,
        )

    def bus_line(self, note: str) -> str:
        return "bus: attempts=%d logical=%d retries=%d %s" % (
            self.bus_attempts, self.bus_logical_calls, self.bus_retries, note,
        )


BUS_ACCOUNTING = Invariant(
    "bus_accounting",
    lambda r: r.bus_attempts == r.bus_logical_calls + r.bus_retries,
    lambda r: "bus accounting: attempts (%d) != logical (%d) + retries (%d)"
    % (r.bus_attempts, r.bus_logical_calls, r.bus_retries),
)


# ----------------------------------------------------------------------
# The single-building testbed
# ----------------------------------------------------------------------
def compact_building(
    building_id: str,
    owner_name: str,
    population: int,
    seed: int,
    metrics: MetricsRegistry,
    **options: Any,
) -> Tuple[TIPPERS, List[Inhabitant]]:
    """A 2-floor x 6-room building with an access point and a motion
    sensor per room, the catalog's sharing, emergency and comfort
    policies, and a seeded population.

    Enforcement uses TIPPERS' default compiled tables, which consult
    the (faultable) policy-fetch plane on every decision, warm rows
    included; ``options`` go to :class:`TIPPERS`.
    """
    spatial = build_simple_building(building_id, floors=2, rooms_per_floor=6)
    tippers = TIPPERS(
        spatial,
        building_id,
        owner_name=owner_name,
        enforce_capture=True,
        metrics=metrics,
        **options,
    )
    rooms = sorted(s.space_id for s in spatial.spaces_of_type(SpaceType.ROOM))
    for index, room in enumerate(rooms):
        tippers.deploy_sensor("wifi_access_point", "ap-%02d" % (index + 1), room)
        tippers.deploy_sensor("motion_sensor", "motion-%02d" % (index + 1), room)
    tippers.define_policy(catalog.policy_service_sharing(building_id))
    tippers.define_policy(catalog.policy_2_emergency_location(building_id))
    tippers.define_policy(catalog.policy_1_comfort(rooms))
    inhabitants = generate_inhabitants(spatial, population, seed=seed)
    for inhabitant in inhabitants:
        tippers.add_user(inhabitant.profile)
    return tippers, inhabitants


def serve_building(
    tippers: TIPPERS,
    metrics: MetricsRegistry,
    admission: Optional[AdmissionController] = None,
) -> MessageBus:
    """A bus serving ``tippers`` and an IRR advertising its policies."""
    bus = MessageBus(
        metrics=metrics, tracer=Tracer(), breakers=BreakerBoard(),
        admission=admission,
    )
    bus.register(TIPPERS_ENDPOINT, tippers)
    registry = IoTResourceRegistry(REGISTRY_ENDPOINT, tippers.spatial)
    bus.register(REGISTRY_ENDPOINT, registry)
    registry.publish_resource(
        "%s-building-policies" % tippers.building_id,
        tippers.building_id,
        tippers.policy_manager.compile_policy_document(),
        settings=tippers.policy_manager.settings_space.to_document(),
    )
    return bus


# ----------------------------------------------------------------------
# Priority-class workloads behind the admission controller
# ----------------------------------------------------------------------
@dataclass
class ClassOutcome:
    """What happened to one priority class's calls."""

    attempted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
        }

    def attempt(
        self,
        call: Callable[[], Any],
        failures: Tuple[type, ...] = (NetworkError,),
        on_failure: Optional[Callable[[Exception], None]] = None,
    ) -> Optional[Any]:
        """One accounted call; None when it was shed or failed.

        ``on_failure`` sees every error in ``failures`` after it was
        counted; anything else propagates.
        """
        self.attempted += 1
        try:
            response = call()
        except AdmissionShedError:
            self.shed += 1
            return None
        except failures as error:
            self.failed += 1
            if on_failure is not None:
                on_failure(error)
            return None
        self.completed += 1
        return response


def workload_call(
    bus: MessageBus,
    outcome: ClassOutcome,
    target: str,
    method: str,
    payload: Dict[str, Any],
    principal: str,
    retry_policy: RetryPolicy,
    **options: Any,
) -> Optional[Dict[str, Any]]:
    """One accounted bus call with a 10 s deadline; None when it was shed
    or failed (``options`` go to :meth:`ClassOutcome.attempt`)."""
    return outcome.attempt(
        lambda: bus.call(
            target,
            method,
            payload,
            retry_policy=retry_policy,
            deadline=Deadline(10.0),
            principal=principal,
        ),
        **options,
    )


@dataclass
class WorkloadReport(BusReport):
    """CRITICAL/NORMAL/DEFERRABLE traffic through admission control."""

    critical: ClassOutcome = field(default_factory=ClassOutcome)
    normal: ClassOutcome = field(default_factory=ClassOutcome)
    deferrable: ClassOutcome = field(default_factory=ClassOutcome)
    ledger_checked: int = 0
    ledger_admitted: int = 0
    ledger_shed: int = 0
    ledger_shed_by_class: Dict[str, int] = field(default_factory=dict)
    ledger_brownouts: int = 0
    quarantine_events: int = 0
    quarantine_readmissions: int = 0

    def record_planes(
        self,
        bus: MessageBus,
        controller: Optional[AdmissionController],
        metrics: MetricsRegistry,
    ) -> None:
        """Copy the bus, admission-ledger and quarantine counters."""
        self.record_bus(bus)
        self.quarantine_events = int(metrics.total("quarantine_events_total"))
        self.quarantine_readmissions = int(
            metrics.total("quarantine_readmissions_total")
        )
        if controller is None:
            return
        ledger = controller.ledger
        self.ledger_checked = ledger.checked
        self.ledger_admitted = ledger.admitted
        self.ledger_shed = ledger.shed
        self.ledger_shed_by_class = dict(sorted(ledger.shed_by_class.items()))
        self.ledger_brownouts = ledger.brownouts

    def classes_dict(self) -> Dict[str, Any]:
        return {
            "critical": self.critical.to_dict(),
            "normal": self.normal.to_dict(),
            "deferrable": self.deferrable.to_dict(),
        }

    def class_lines(self, critical_note: str = "", shed_rate: bool = True) -> List[str]:
        lines = [
            "%-11s attempted=%d completed=%d shed=%d failed=%d"
            % (label, outcome.attempted, outcome.completed, outcome.shed,
               outcome.failed)
            for label, outcome in (
                ("critical:", self.critical),
                ("normal:", self.normal),
                ("deferrable:", self.deferrable),
            )
        ]
        lines[0] += critical_note
        if shed_rate:
            lines[2] += " (shed_rate=%.3f)" % self.deferrable.shed_rate
        return lines

    def ledger_dict(self, **extra: Any) -> Dict[str, Any]:
        return dict(
            checked=self.ledger_checked,
            admitted=self.ledger_admitted,
            shed=self.ledger_shed,
            **extra,
        )

    def ledger_line(self, note: str = "") -> str:
        return "admission ledger: checked=%d admitted=%d shed=%d%s" % (
            self.ledger_checked, self.ledger_admitted, self.ledger_shed, note,
        )

    def quarantine_line(self, note: str = "") -> str:
        return "quarantine: events=%d readmissions=%d%s" % (
            self.quarantine_events, self.quarantine_readmissions, note,
        )


CRITICAL_NEVER_SHED = Invariant(
    "critical_never_shed",
    lambda r: not (
        r.ledger_shed_by_class.get(Priority.CRITICAL.value, 0) or r.critical.shed
    ),
    lambda r: "CRITICAL calls were shed (ledger=%d observed=%d)"
    % (r.ledger_shed_by_class.get(Priority.CRITICAL.value, 0), r.critical.shed),
)

DEFERRABLE_SHED = Invariant(
    "deferrable_shed",
    lambda r: r.deferrable.shed != 0,
    lambda r: "DEFERRABLE shed rate is 0 under overload",
)

LEDGER_BALANCED = Invariant(
    "ledger_balanced",
    lambda r: r.ledger_checked == r.ledger_admitted + r.ledger_shed,
    lambda r: "admission ledger: checked (%d) != admitted (%d) + shed (%d)"
    % (r.ledger_checked, r.ledger_admitted, r.ledger_shed),
)


# ----------------------------------------------------------------------
# The sharded campus: setup, crash/recovery, DSAR and the sweep
# ----------------------------------------------------------------------
@dataclass
class CampusReport(WorkloadReport):
    """A campus run: shard residents, a crash, a campus DSAR and a sweep."""

    buildings: List[str] = field(default_factory=list)
    residents_by_building: Dict[str, int] = field(default_factory=dict)
    stored_by_building: Dict[str, int] = field(default_factory=dict)
    crashed: bool = False
    crash_building: str = ""
    crash_step: int = -1
    recovered: bool = False
    recovery: Optional[RecoveryReport] = None
    dsar_subject: str = ""
    dsar_buildings: List[str] = field(default_factory=list)
    dsar_observations: int = 0
    dsar_decisions: int = 0
    dsar_erased: int = 0
    dsar_withdrawn: int = 0
    dsar_compacted: List[str] = field(default_factory=list)
    dsar_unreachable: List[str] = field(default_factory=list)
    swept_shards: int = 0
    resurrected: int = 0

    def header_note(self) -> str:
        return " buildings=%d" % len(self.buildings)

    def run_dsar(self, campus: Campus, subject: str, now: float) -> float:
        """Access report at ``now``, then erasure; returns the erase time."""
        erase_now = now + 0.5
        self.dsar_subject = subject
        access = campus_access_report(campus, subject, now)
        self.dsar_buildings = list(access.buildings)
        self.dsar_observations = access.observations_total
        self.dsar_decisions = access.decisions_total
        self.dsar_unreachable = list(access.unreachable)
        receipt = campus_erase_subject(
            campus, subject, erase_now,
            withdraw_preferences=True, compact_storage=True,
        )
        self.dsar_erased = receipt.erased_observations
        self.dsar_withdrawn = receipt.withdrawn_preferences
        self.dsar_compacted = list(receipt.compacted_buildings)
        for building in receipt.unreachable:
            if building not in self.dsar_unreachable:
                self.dsar_unreachable.append(building)
        return erase_now

    def sweep(self, shard_dir: str, end_now: float, erase_now: float) -> RecoveredState:
        """Re-open one shard directory with the standalone recovery reader
        and count observations of the erased subject from before the
        erasure."""
        state = recover(shard_dir, now=end_now)
        self.swept_shards += 1
        self.resurrected += sum(
            1
            for obs in state.datastore.query(subject_id=self.dsar_subject)
            if obs.timestamp <= erase_now
        )
        return state

    def crash_dict(self, **extra: Any) -> Dict[str, Any]:
        return dict(
            crashed=self.crashed,
            building=self.crash_building,
            step=self.crash_step,
            recovered=self.recovered,
            recovery=None if self.recovery is None else self.recovery.to_dict(),
            **extra,
        )

    def crash_lines(self, note: str) -> List[str]:
        lines = [
            "crash: crashed=%s building=%s %s"
            % (self.crashed, self.crash_building or "none", note)
        ]
        if self.recovery is not None:
            lines.extend(self.recovery.lines())
        return lines

    def dsar_dict(self, **extra: Any) -> Dict[str, Any]:
        return dict(
            subject=self.dsar_subject,
            buildings=list(self.dsar_buildings),
            observations=self.dsar_observations,
            decisions=self.dsar_decisions,
            erased=self.dsar_erased,
            withdrawn=self.dsar_withdrawn,
            compacted=list(self.dsar_compacted),
            unreachable=list(self.dsar_unreachable),
            **extra,
        )

    def dsar_lines(self, note: str = "") -> List[str]:
        return [
            "dsar: subject=%s %sbuildings=[%s] observations=%d decisions=%d"
            % (self.dsar_subject or "none", note,
               ", ".join(self.dsar_buildings), self.dsar_observations,
               self.dsar_decisions),
            "dsar erase: erased=%d withdrawn=%d compacted=[%s] unreachable=[%s]"
            % (self.dsar_erased, self.dsar_withdrawn,
               ", ".join(self.dsar_compacted),
               ", ".join(self.dsar_unreachable)),
        ]

    def sweep_dict(self, **extra: int) -> Dict[str, int]:
        return dict(shards=self.swept_shards, resurrected=self.resurrected, **extra)

    def sweep_line(self, note: str = "") -> str:
        return "sweep: shards=%d resurrected=%d%s" % (
            self.swept_shards, self.resurrected, note,
        )

    def stored_line(self) -> str:
        return "stored: " + pairs(self.stored_by_building)


def has_marker(reasons: Sequence[str], prefix: str) -> bool:
    """Whether any decision reason carries the ``prefix`` marker."""
    return any(reason.startswith(prefix) for reason in reasons)


def open_campus(
    buildings: Sequence[str],
    seed: int,
    directory: str,
    segment_bytes: int,
    metrics: MetricsRegistry,
) -> Tuple[Campus, AdmissionController]:
    """A storage-backed campus behind one shared admission controller."""
    # The campus spreads traffic across 2 endpoints per building, and
    # every queue drains one quantum per *global* admission check -- so
    # per-queue drain must be far below the single-building template's
    # 1.0 or no queue ever accumulates backlog.
    controller = AdmissionController(
        seed=seed,
        queue_capacity=8,
        high_watermark=0.5,
        shed_watermark=0.8,
        drain_per_step=0.25,
        principal_capacity=16.0,
        principal_refill_per_step=1.0,
        metrics=metrics,
    )
    campus = Campus(
        buildings,
        seed=seed,
        storage_root=directory,
        segment_bytes=segment_bytes,
        metrics=metrics,
        admission=controller,
    )
    return campus, controller


def partition_population(
    campus: Campus, population: int, seed: int
) -> Dict[str, List[Inhabitant]]:
    """Ring-partition a campus-global population into shard residents."""
    user_ids = ["campus-user-%04d" % index for index in range(1, population + 1)]
    by_building: Dict[str, List[str]] = {b: [] for b in campus.building_ids()}
    for user_id in user_ids:
        by_building[campus.router.home_building(user_id)].append(user_id)
    residents: Dict[str, List[Inhabitant]] = {}
    for building_id in sorted(by_building):
        ids = by_building[building_id]
        shard = campus.shard(building_id)
        residents[building_id] = generate_inhabitants(
            shard.spatial,
            len(ids),
            seed=seed,
            building_id=building_id,
            user_ids=ids,
        )
        for inhabitant in residents[building_id]:
            campus.add_resident(building_id, inhabitant.profile)
    return residents


def home_assistants(
    campus: Campus, metrics: MetricsRegistry, retry_policy: RetryPolicy
) -> Dict[str, IoTAssistant]:
    """An IoT Assistant at its home shard for every IoTA-carrying user."""
    assistants: Dict[str, IoTAssistant] = {}
    for user_id in sorted(campus.home_of):
        if not campus.profile_of(user_id).has_iota:
            continue
        shard = campus.shard(campus.home_of[user_id])
        assistants[user_id] = IoTAssistant(
            user_id,
            campus.bus,
            tippers_endpoint=shard.endpoint,
            registry_endpoints=[shard.registry_endpoint],
            metrics=metrics,
            retry_policy=retry_policy,
        )
    return assistants

"""The overload scenario: the pipeline under admission-controlled load.

A compact building runs capture ticks and a mixed bus workload -- the
three admission priority classes side by side -- while a fault plan
(normally ``rush-hour``) injects phantom arrival bursts into the
admission controller's topic queues and stalls one access point:

- CRITICAL: a policy fetch every tick, a mid-run preference submission,
  and a mid-run DSAR report + erasure.  These must **all** complete (or
  fail closed with an audited DENY); zero may be shed.
- NORMAL: one location query per inhabitant per tick.  Between the
  watermarks these are admitted *browned out* -- served at coarser
  granularity with an explicit degradation marker in the audit record.
- DEFERRABLE: IRR discovery sweeps.  These shed first; under the
  rush-hour plan their shed rate must be > 0.

The report carries only counts and booleans, so two runs with the same
seed and plan render byte-identical text (the pinned runs are golden
files), and :attr:`OverloadReport.INVARIANTS` declares the acceptance
invariants -- the run exits non-zero if overload protection ever sheds
a CRITICAL call or serves an unmarked degraded response.

Everything is locally scoped (own metrics registry, own bus, own
controller) so overload runs never leak state into the process-global
registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.policy import catalog
from repro.core.policy.serialization import preference_to_dict
from repro.faults import FaultInjector, build_plan
from repro.net.admission import AdmissionController
from repro.net.resilience import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.simulation.kernel import (
    BUS_ACCOUNTING,
    CRITICAL_NEVER_SHED,
    DEFERRABLE_SHED,
    LEDGER_BALANCED,
    REGISTRY_ENDPOINT,
    TIPPERS_ENDPOINT,
    Invariant,
    WorkloadReport,
    compact_building,
    locate_request,
    serve_building,
    workload_call,
)
from repro.simulation.mobility import BuildingWorld
from repro.tippers.sensor_manager import SensorHealthSupervisor

BUILDING_ID = "overload"

#: The degradation marker every browned-out decision carries (see
#: RequestManager.locate_user); the scenario greps responses and audit
#: records for it.
BROWNOUT_MARKER = "brownout degraded response"


def _with_admission(invariant: Invariant) -> Invariant:
    """``invariant``, checked only when the admission controller ran."""
    return invariant._replace(
        holds=lambda r: not r.admission_enabled or invariant.holds(r)
    )


@dataclass
class OverloadReport(WorkloadReport):
    """Everything one overload run produced, rendered deterministically."""

    admission_enabled: bool = True
    browned_out_responses: int = 0
    brownout_marked_responses: int = 0
    brownout_marked_audit: int = 0
    injected_arrivals: int = 0
    quarantine_final: List[str] = field(default_factory=list)
    stored: int = 0
    stalled_samples: int = 0
    gated_samples: int = 0
    final_loads: Dict[str, str] = field(default_factory=dict)
    trace_text: str = ""

    TITLE = "overload run"
    INVARIANTS = (BUS_ACCOUNTING,) + tuple(
        _with_admission(invariant)
        for invariant in (
            CRITICAL_NEVER_SHED,
            Invariant(
                "critical_completed",
                lambda r: r.critical.completed == r.critical.attempted,
                lambda r: "CRITICAL calls failed: %d of %d did not complete"
                % (r.critical.attempted - r.critical.completed,
                   r.critical.attempted),
            ),
            DEFERRABLE_SHED,
            LEDGER_BALANCED,
            Invariant(
                "bus_shed_matches_ledger",
                lambda r: r.bus_shed == r.ledger_shed,
                lambda r: "bus shed counter (%d) disagrees with admission "
                "ledger (%d)" % (r.bus_shed, r.ledger_shed),
            ),
            Invariant(
                "brownouts_marked",
                lambda r: r.brownout_marked_responses == r.ledger_brownouts,
                lambda r: "brownout markers: %d marked responses for %d "
                "browned-out admissions"
                % (r.brownout_marked_responses, r.ledger_brownouts),
            ),
            Invariant(
                "brownouts_audited",
                lambda r: r.brownout_marked_audit >= r.brownout_marked_responses,
                lambda r: "audit trail: %d marked records for %d marked "
                "responses"
                % (r.brownout_marked_audit, r.brownout_marked_responses),
            ),
        )
    )

    def header_note(self) -> str:
        return " admission=%s" % ("on" if self.admission_enabled else "off")

    def body(self) -> Dict[str, Any]:
        return {
            "admission_enabled": self.admission_enabled,
            "classes": self.classes_dict(),
            "brownout": {
                "responses": self.browned_out_responses,
                "marked_responses": self.brownout_marked_responses,
                "marked_audit_records": self.brownout_marked_audit,
            },
            "ledger": self.ledger_dict(
                shed_by_class=dict(self.ledger_shed_by_class),
                brownouts=self.ledger_brownouts,
                injected_arrivals=self.injected_arrivals,
            ),
            "quarantine": {
                "events": self.quarantine_events,
                "readmissions": self.quarantine_readmissions,
                "final": list(self.quarantine_final),
            },
            "capture": {
                "stored": self.stored,
                "stalled_samples": self.stalled_samples,
                "gated_samples": self.gated_samples,
            },
            "bus": self.bus_dict(shed=self.bus_shed),
            "final_loads": dict(self.final_loads),
        }

    def body_lines(self) -> List[str]:
        lines = self.class_lines() + [
            "brownout: responses=%d marked_responses=%d marked_audit=%d"
            % (self.browned_out_responses, self.brownout_marked_responses,
               self.brownout_marked_audit),
            self.ledger_line(
                " brownouts=%d injected_arrivals=%d"
                % (self.ledger_brownouts, self.injected_arrivals)
            ),
            self.quarantine_line(" final=[%s]" % ", ".join(self.quarantine_final)),
            "capture: stored=%d stalled_samples=%d gated_samples=%d"
            % (self.stored, self.stalled_samples, self.gated_samples),
            self.bus_line("shed=%d" % self.bus_shed),
        ]
        if self.final_loads:
            lines.append(
                "final load levels: "
                + ", ".join(
                    "%s=%s" % (target, level)
                    for target, level in sorted(self.final_loads.items())
                )
            )
        return lines


def run_overload_scenario(
    plan_name: str = "rush-hour",
    seed: int = 11,
    population: int = 8,
    ticks: int = 12,
    admission: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> OverloadReport:
    """Run the mixed-class workload under ``plan_name`` and report.

    ``admission=False`` runs the identical workload with no admission
    controller on the bus -- the ablation the overload benchmark uses to
    show what the protection buys.  ``metrics`` lets a caller (the bench
    trajectory) keep the run's registry for latency export; by default
    the run stays locally scoped and leaks nothing.
    """
    report = OverloadReport(
        plan=plan_name,
        seed=seed,
        population=population,
        ticks=ticks,
        admission_enabled=admission,
    )
    metrics = metrics if metrics is not None else MetricsRegistry()
    supervisor = SensorHealthSupervisor(
        miss_threshold=3, probe_rate=0.5, seed=seed, metrics=metrics
    )
    tippers, inhabitants = compact_building(
        BUILDING_ID, "Overload Labs", population, seed, metrics,
        health_supervisor=supervisor,
    )
    world = BuildingWorld(tippers.spatial, inhabitants, seed=seed)

    controller: Optional[AdmissionController] = None
    if admission:
        controller = AdmissionController(
            seed=seed,
            queue_capacity=32,
            high_watermark=0.5,
            shed_watermark=0.8,
            drain_per_step=1.0,
            principal_capacity=16.0,
            principal_refill_per_step=1.0,
            metrics=metrics,
        )
    bus = serve_building(tippers, metrics, admission=controller)

    plan = build_plan(plan_name, seed)
    injector = FaultInjector(plan)
    injector.install_bus(bus)
    injector.install_datastore(tippers.datastore)
    injector.install_sensor_manager(tippers.sensor_manager)
    if controller is not None:
        injector.install_admission(controller)

    retry_policy = RetryPolicy(seed=seed)
    noon = 8 * 3600.0  # the morning rush
    erase_tick = max(1, ticks // 2)
    for tick in range(ticks):
        now = noon + tick * 60.0
        world.step(now)
        tippers.tick(now, world)

        # CRITICAL: the enforcement pipeline keeps fetching policy.
        workload_call(
            bus, report.critical, TIPPERS_ENDPOINT, "get_policy_document",
            {}, "iota-%s" % inhabitants[0].user_id, retry_policy,
        )

        # DEFERRABLE: one discovery sweep per inhabitant per tick.
        for inhabitant in inhabitants:
            location = world.location_of(inhabitant.user_id) or BUILDING_ID
            workload_call(
                bus, report.deferrable, REGISTRY_ENDPOINT, "discover",
                {"space_id": location},
                "iota-%s" % inhabitant.user_id, retry_policy,
            )

        # NORMAL: one location query per inhabitant.
        for inhabitant in inhabitants:
            response = workload_call(
                bus, report.normal, TIPPERS_ENDPOINT, "locate_user",
                locate_request(inhabitant.user_id, now),
                "svc-occupancy", retry_policy,
            )
            if response is not None and any(
                BROWNOUT_MARKER in reason for reason in response["reasons"]
            ):
                report.brownout_marked_responses += 1

        # CRITICAL mid-run: a preference submission and a DSAR cycle.
        if tick == erase_tick:
            subject = inhabitants[-1]
            preference = catalog.preference_2_no_location(subject.user_id)
            workload_call(
                bus, report.critical, TIPPERS_ENDPOINT, "submit_preference",
                {"preference": preference_to_dict(preference)},
                "iota-%s" % subject.user_id, retry_policy,
            )
            workload_call(
                bus, report.critical, TIPPERS_ENDPOINT, "dsar_report",
                {"user_id": subject.user_id, "now": now},
                "iota-%s" % subject.user_id, retry_policy,
            )
            workload_call(
                bus, report.critical, TIPPERS_ENDPOINT, "dsar_erase",
                {"user_id": subject.user_id, "now": now},
                "iota-%s" % subject.user_id, retry_policy,
            )

    injector.uninstall()

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    report.brownout_marked_audit = sum(
        1
        for record in tippers.audit
        if any(BROWNOUT_MARKER in reason for reason in record.reasons)
    )
    report.stored = tippers.datastore.count()
    report.stalled_samples = sum(
        subsystem.stalled_samples
        for subsystem in tippers.sensor_manager.subsystems()
    )
    report.gated_samples = sum(
        subsystem.gated_samples
        for subsystem in tippers.sensor_manager.subsystems()
    )
    report.quarantine_final = supervisor.quarantined()
    report.fault_counts = injector.trace.counts()
    report.trace_text = injector.trace.to_text()
    report.record_planes(bus, controller, metrics)
    if controller is not None:
        report.injected_arrivals = controller.ledger.injected_arrivals
        report.browned_out_responses = controller.ledger.brownouts
        report.final_loads = controller.levels()
    report.check()
    return report

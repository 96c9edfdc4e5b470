"""The chaos scenario: the Figure-1 pipeline under a named fault plan.

A compact building (2 floors x 6 rooms, a handful of inhabitants) runs
capture ticks, IoTA discovery/settings sweeps, and service location
queries while a :class:`~repro.faults.FaultInjector` fires a shipped
fault plan at the bus, datastore, sensors, and policy store.  The run
reports delivered/undelivered/degraded counts, the full fault trace,
and a stable rendering of every enforcement decision -- two runs with
the same seed and plan are byte-identical, which the chaos regression
tests pin.

Everything is locally scoped (own metrics registry, own tracer, own
bus) so chaos runs never leak state into the process-global registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.reasoner.resolution import ResolutionStrategy
from repro.errors import NetworkError
from repro.faults import FaultInjector, build_plan
from repro.iota.assistant import IoTAssistant
from repro.net.resilience import Deadline, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.simulation.kernel import (
    REGISTRY_ENDPOINT,
    TIPPERS_ENDPOINT,
    BusReport,
    compact_building,
    locate_request,
    serve_building,
)
from repro.simulation.mobility import BuildingWorld

BUILDING_ID = "chaos"


@dataclass
class ChaosReport(BusReport):
    """Everything one chaos run produced."""

    delivered: int = 0
    undelivered: int = 0
    degraded: int = 0
    failclosed: int = 0
    stored: int = 0
    write_failures: int = 0
    stalled: int = 0
    decisions: List[str] = field(default_factory=list)
    audit_effects: List[str] = field(default_factory=list)
    trace_text: str = ""
    bus_dropped: int = 0
    bus_faulted: int = 0
    bus_corrupted: int = 0
    bus_rejected: int = 0
    breaker_states: Dict[str, str] = field(default_factory=dict)

    TITLE = "chaos run"

    def body(self) -> Dict[str, Any]:
        return {
            "delivered": self.delivered,
            "undelivered": self.undelivered,
            "degraded": self.degraded,
            "failclosed": self.failclosed,
            "stored": self.stored,
            "write_failures": self.write_failures,
            "stalled": self.stalled,
            "faults_fired": sum(self.fault_counts.values()),
            "decisions": list(self.decisions),
            "bus": self.bus_dict(
                dropped=self.bus_dropped,
                faulted=self.bus_faulted,
                corrupted=self.bus_corrupted,
                rejected=self.bus_rejected,
            ),
            "breaker_states": dict(self.breaker_states),
        }

    def body_lines(self) -> List[str]:
        return [
            "queries: delivered=%d undelivered=%d degraded=%d fail-closed=%d"
            % (self.delivered, self.undelivered, self.degraded, self.failclosed),
            "capture: stored=%d write_failures=%d stalled_samples=%d"
            % (self.stored, self.write_failures, self.stalled),
            self.bus_line(
                "dropped=%d (faulted=%d corrupted=%d) breaker_rejected=%d"
                % (self.bus_dropped, self.bus_faulted, self.bus_corrupted,
                   self.bus_rejected)
            ),
        ]

    def footer_lines(self) -> List[str]:
        if not self.breaker_states:
            return []
        return [
            "breakers: "
            + ", ".join(
                "%s=%s" % (target, state)
                for target, state in sorted(self.breaker_states.items())
            )
        ]


def run_chaos_scenario(
    plan_name: str = "monkey",
    seed: int = 11,
    population: int = 8,
    ticks: int = 6,
    strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
) -> ChaosReport:
    """Run the compact pipeline under ``plan_name`` and report."""
    report = ChaosReport(
        plan=plan_name, seed=seed, population=population, ticks=ticks
    )
    metrics = MetricsRegistry()
    tippers, inhabitants = compact_building(
        BUILDING_ID, "Chaos Labs", population, seed, metrics, strategy=strategy
    )
    world = BuildingWorld(tippers.spatial, inhabitants, seed=seed)
    bus = serve_building(tippers, metrics)

    plan = build_plan(plan_name, seed)
    injector = FaultInjector(plan)
    injector.install_bus(bus)
    injector.install_datastore(tippers.datastore)
    injector.install_sensor_manager(tippers.sensor_manager)
    injector.install_policy_store(tippers.store)

    retry_policy = RetryPolicy(seed=seed)
    iota = IoTAssistant(
        inhabitants[0].user_id,
        bus,
        registry_endpoints=[REGISTRY_ENDPOINT],
        metrics=metrics,
        retry_policy=retry_policy,
        call_deadline_s=10.0,
    )

    noon = 12 * 3600.0
    for tick in range(ticks):
        now = noon + tick * 60.0
        world.step(now)
        tippers.tick(now, world)
        location = world.location_of(iota.user_id) or BUILDING_ID
        iota.discover(location, now)
        if tick == 0:
            try:
                iota.configure_building_settings(now + 1.0)
            except NetworkError:
                report.degraded += 1
        for inhabitant in inhabitants:
            try:
                response = bus.call(
                    TIPPERS_ENDPOINT,
                    "locate_user",
                    locate_request(inhabitant.user_id, now, "svc-chaos"),
                    retry_policy=retry_policy,
                    deadline=Deadline(10.0),
                )
            except NetworkError:
                report.undelivered += 1
                continue
            report.delivered += 1
            report.decisions.append(
                "tick=%d subject=%s allowed=%s reasons=%s"
                % (
                    tick,
                    inhabitant.user_id,
                    response["allowed"],
                    "|".join(response["reasons"]),
                )
            )

    injector.uninstall()

    report.failclosed = sum(
        1 for record in tippers.audit if "fail-closed deny" in record.reasons
    )
    report.degraded += int(metrics.total("tippers_degraded_total"))
    report.stored = tippers.datastore.count()
    report.write_failures = tippers.datastore.total_write_failures
    report.stalled = sum(
        subsystem.stalled_samples
        for subsystem in tippers.sensor_manager.subsystems()
    )
    report.audit_effects = [record.effect.value for record in tippers.audit]
    report.fault_counts = injector.trace.counts()
    report.trace_text = injector.trace.to_text()
    report.record_bus(bus)
    stats = bus.stats
    report.bus_dropped = stats.dropped
    report.bus_faulted = stats.faulted
    report.bus_corrupted = stats.corrupted
    report.bus_rejected = stats.rejected
    if bus.breakers is not None:
        report.breaker_states = bus.breakers.states()
    report.check()
    return report

"""The differential harness: reference interpreter vs compiled engine.

:class:`EnginePair` owns two enforcement engines built from identical
rule stores -- the reference
:class:`~repro.core.enforcement.engine.EnforcementEngine` (the oracle)
and a :class:`~repro.core.enforcement.compiled.CompiledEnforcementEngine`
constructed through the public ``EnforcementEngine(compiled=True)``
switch.  Every mutation is applied to both stores; every request is
decided by both engines and the outcomes compared field by field.

Nothing is normalized.  Injected policy-fetch failures embed the fault
injector's logical step number in the fail-closed reason string, and
the two engines drive *separate* injectors -- but both engines consult
their store's fault plane exactly once per decide, so the two step
counters advance in lockstep and the reasons (hence the audit trails)
match byte for byte, outages included.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.enforcement.audit import AuditLog
from repro.core.enforcement.compiled import CompiledEnforcementEngine
from repro.core.enforcement.engine import Decision, EnforcementEngine
from repro.core.policy.base import Effect
from repro.core.policy.conditions import EvaluationContext
from repro.core.reasoner.index import PolicyIndex
from repro.core.reasoner.resolution import Resolution, ResolutionStrategy
from repro.faults import FaultInjector, FaultSpec, single_spec_plan
from repro.obs.metrics import MetricsRegistry
from repro.spatial.model import build_simple_building

_SPATIAL = build_simple_building("b", floors=2, rooms_per_floor=4)

#: Profile groups referenced by the shared ``ProfileCondition``
#: strategy; carol and dan stay unprofiled on purpose.
USER_PROFILES = {
    "mary": frozenset({"faculty"}),
    "bob": frozenset({"grad-student"}),
}


def make_context() -> EvaluationContext:
    return EvaluationContext(spatial=_SPATIAL, user_profiles=dict(USER_PROFILES))


def resolution_key(resolution: Resolution) -> tuple:
    return (
        resolution.effect,
        resolution.granularity,
        resolution.policy_ids,
        resolution.preference_ids,
        resolution.notify_user,
        resolution.reasons,
    )


class EnginePair:
    """Reference and compiled engines fed identical rules and requests."""

    def __init__(
        self,
        policies: Iterable = (),
        preferences: Iterable = (),
        strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
        shard_capacity: int = 4096,
        max_shards: int = 16384,
    ) -> None:
        self.reference_metrics = MetricsRegistry()
        self.compiled_metrics = MetricsRegistry()
        self.reference = EnforcementEngine(
            store=PolicyIndex(),
            context=make_context(),
            strategy=strategy,
            audit=AuditLog(metrics=self.reference_metrics),
            metrics=self.reference_metrics,
        )
        self.compiled = EnforcementEngine(
            store=PolicyIndex(),
            context=make_context(),
            strategy=strategy,
            audit=AuditLog(metrics=self.compiled_metrics),
            metrics=self.compiled_metrics,
            compiled=True,
            shard_capacity=shard_capacity,
            max_shards=max_shards,
        )
        assert isinstance(self.compiled, CompiledEnforcementEngine)
        self.policy_ids: List[str] = []
        for policy in policies:
            self.add_policy(policy)
        for preference in preferences:
            self.add_preference(preference)

    # ------------------------------------------------------------------
    # Mutations (applied to both stores)
    # ------------------------------------------------------------------
    def add_policy(self, policy) -> None:
        self.reference.store.add_policy(policy)
        self.compiled.store.add_policy(policy)
        self.policy_ids.append(policy.policy_id)

    def remove_policy_at(self, index: int) -> Optional[str]:
        """Remove the ``index % len``-th live policy from both stores."""
        if not self.policy_ids:
            return None
        policy_id = self.policy_ids.pop(index % len(self.policy_ids))
        self.reference.store.remove_policy(policy_id)
        self.compiled.store.remove_policy(policy_id)
        return policy_id

    def add_preference(self, preference) -> None:
        self.reference.store.add_preference(preference)
        self.compiled.store.add_preference(preference)

    def withdraw_user(self, user_id: str) -> None:
        self.reference.store.remove_preferences_of(user_id)
        self.compiled.store.remove_preferences_of(user_id)

    def install_policy_faults(
        self, spec: FaultSpec
    ) -> Tuple[FaultInjector, FaultInjector]:
        """The same one-spec plan on both stores, one injector each.

        Returns the (reference, compiled) injectors; the caller
        uninstalls them.
        """
        injectors = []
        for engine in (self.reference, self.compiled):
            injector = FaultInjector(single_spec_plan(spec))
            injector.install_policy_store(engine.store)
            injectors.append(injector)
        return injectors[0], injectors[1]

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def decide(self, request, notes: Tuple[str, ...] = ()) -> Tuple[Decision, Decision]:
        expected = self.reference.decide(request, notes)
        actual = self.compiled.decide(request, notes)
        assert resolution_key(actual.resolution) == resolution_key(
            expected.resolution
        ), "divergence on %r:\ncompiled:  %r\nreference: %r" % (
            request,
            actual.resolution,
            expected.resolution,
        )
        return expected, actual

    def apply(self, step) -> None:
        """Apply one generated ``(op, payload)`` step (see strategies)."""
        op, payload = step
        if op == "request":
            self.decide(payload)
        elif op == "add_preference":
            self.add_preference(payload)
        elif op == "withdraw_user":
            self.withdraw_user(payload)
        elif op == "add_policy":
            self.add_policy(payload)
        elif op == "remove_policy":
            self.remove_policy_at(payload)
        else:  # pragma: no cover - strategy bug
            raise AssertionError("unknown step %r" % (op,))

    # ------------------------------------------------------------------
    # Whole-run checks
    # ------------------------------------------------------------------
    def assert_trails_equal(self) -> None:
        reference = list(self.reference.audit)
        compiled = list(self.compiled.audit)
        assert compiled == reference, "audit trails diverged"

    def assert_counters_equal(self) -> None:
        for effect in Effect:
            labels = {"effect": effect.value}
            assert self.compiled_metrics.total(
                "enforcement_decisions_total", labels
            ) == self.reference_metrics.total(
                "enforcement_decisions_total", labels
            ), ("decision counter diverged for %s" % effect.value)
        assert self.compiled_metrics.total(
            "enforcement_failclosed_total"
        ) == self.reference_metrics.total(
            "enforcement_failclosed_total"
        ), "fail-closed counter diverged"
        assert self.compiled_metrics.histogram(
            "enforcement_decide_seconds"
        ).count == self.reference_metrics.histogram(
            "enforcement_decide_seconds"
        ).count, "latency histogram sample counts diverged"

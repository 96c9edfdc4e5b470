"""Differential tests: compiled tables vs the reference interpreter.

Every test drives the :class:`~tests.differential.harness.EnginePair`
through generated workloads and asserts bit-for-bit equivalent
outcomes.  The example counts come from the profiles in ``conftest.py``
(``diff-ci`` runs >= 1000 generated cases across this module alone).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, strategies as st

from repro.core.policy.base import Effect
from repro.faults import FaultKind, FaultSpec
from tests.differential.harness import EnginePair
from tests.differential.strategies import (
    outage_runs,
    outage_specs,
    policies,
    preferences,
    requests,
    runs,
    strategies,
    subject_requests,
)


@given(
    policy_list=st.lists(policies, max_size=6),
    preference_list=st.lists(preferences, max_size=6),
    request_list=st.lists(requests, min_size=1, max_size=15),
)
def test_static_rules_two_passes(policy_list, preference_list, request_list):
    """Same stream twice: the second pass is served mostly from compiled
    rows and must not change a single outcome, audit record, or counter."""
    pair = EnginePair(policies=policy_list, preferences=preference_list)
    for _ in range(2):
        for request in request_list:
            pair.decide(request)
    pair.assert_trails_equal()
    pair.assert_counters_equal()


@given(
    policy_list=st.lists(policies, max_size=5),
    preference_list=st.lists(preferences, max_size=5),
    run=runs,
)
def test_mutation_interleavings(policy_list, preference_list, run):
    """Requests interleaved with policy/preference mutations: compiled
    rows must go stale exactly when the interpreter's answer changes."""
    pair = EnginePair(policies=policy_list, preferences=preference_list)
    for step in run:
        pair.apply(step)
    pair.assert_trails_equal()
    pair.assert_counters_equal()


@given(
    strategy=strategies,
    policy_list=st.lists(policies, max_size=4),
    preference_list=st.lists(preferences, max_size=4),
    request_list=st.lists(subject_requests, min_size=1, max_size=10),
)
def test_every_resolution_strategy(
    strategy, policy_list, preference_list, request_list
):
    pair = EnginePair(
        policies=policy_list, preferences=preference_list, strategy=strategy
    )
    for _ in range(2):
        for request in request_list:
            pair.decide(request)
    pair.assert_trails_equal()


@given(
    policy_list=st.lists(policies, min_size=1, max_size=4),
    request=subject_requests,
    notes=st.lists(
        st.sampled_from(
            ["brownout: coarse granularity", "brownout: sampled", "degraded"]
        ),
        min_size=1,
        max_size=2,
        unique=True,
    ).map(tuple),
)
def test_noted_decisions_bypass_table(policy_list, request, notes):
    """Brownout-noted decisions must be equivalent too -- and never
    populate or consult the table on either side of a plain decide."""
    pair = EnginePair(policies=policy_list)
    pair.decide(request, notes)
    assert pair.compiled.table_rows == 0, "noted decision was compiled"
    pair.decide(request)  # plain miss compiles the row...
    pair.decide(request, notes)  # ...which a noted decide must not serve
    pair.decide(request)
    pair.assert_trails_equal()
    pair.assert_counters_equal()


@given(
    policy_list=st.lists(policies, min_size=1, max_size=4),
    preference_list=st.lists(preferences, max_size=4),
    base=subject_requests,
    before=st.integers(1, 4),
    during=st.integers(1, 4),
    after=st.integers(1, 4),
)
def test_fail_closed_fault_injection(
    policy_list, preference_list, base, before, during, after
):
    """An injected policy-fetch outage fails both engines closed
    identically, and the fail-closed denials are never compiled.

    The outage is delimited by install / uninstall.  Requests use a
    fresh requester id per step, so the post-outage repeats below can
    only hit the table if a fail-closed denial had been compiled.
    """
    pair = EnginePair(policies=policy_list, preferences=preference_list)
    serial = [0]

    def fresh():
        serial[0] += 1
        return dataclasses.replace(base, requester_id="svc-%04d" % serial[0])

    for _ in range(before):
        pair.decide(fresh())

    injectors = pair.install_policy_faults(
        FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL, target="policy_store")
    )
    try:
        outage_requests = [fresh() for _ in range(during)]
        for request in outage_requests:
            expected, actual = pair.decide(request)
            assert expected.resolution.effect is Effect.DENY
            assert "fail-closed deny" in actual.resolution.reasons
    finally:
        for injector in injectors:
            injector.uninstall()

    assert pair.compiled.metrics.total("enforcement_failclosed_total") == during
    rows_after_outage = pair.compiled.table_rows
    for request in outage_requests:
        pair.decide(request)  # same keys again: must re-evaluate, not hit
    assert (
        pair.compiled.hits == 0
    ), "a fail-closed denial was compiled into the table"
    assert pair.compiled.table_rows >= rows_after_outage
    for _ in range(after):
        pair.decide(fresh())
    pair.assert_trails_equal()
    pair.assert_counters_equal()


@given(
    policy_list=st.lists(policies, max_size=5),
    preference_list=st.lists(preferences, max_size=5),
    pool=st.lists(requests, min_size=1, max_size=8),
    spec=outage_specs,
    run=outage_runs,
)
def test_policy_fetch_outage_equivalence(
    policy_list, preference_list, pool, spec, run
):
    """Under one POLICY_FETCH_FAIL plan, installed on both stores through
    separate injectors, warm and cold requests interleaved with
    mutations fail closed at exactly the same steps in both engines:
    the audit trails (step numbers in the reasons included), the
    counters and the fault traces are all equal."""
    pair = EnginePair(policies=policy_list, preferences=preference_list)
    reference_injector, compiled_injector = pair.install_policy_faults(spec)
    try:
        for request in pool:  # primes the rows the warm steps repeat
            pair.decide(request)
        for op, payload in run:
            if op == "warm":
                index, timestamp = payload
                request = pool[index % len(pool)]
                pair.decide(dataclasses.replace(request, timestamp=timestamp))
            else:
                pair.apply((op, payload))
    finally:
        reference_injector.uninstall()
        compiled_injector.uninstall()
    pair.assert_trails_equal()
    pair.assert_counters_equal()
    assert compiled_injector.step == reference_injector.step
    assert compiled_injector.trace.lines() == reference_injector.trace.lines()


def test_warm_rows_fail_closed_through_outage():
    """A warm compiled row does not serve through a policy-fetch outage:
    the engine consults the store's fault plane before the row probe,
    so the warm request fails closed exactly like the interpreter."""
    from repro.core.language.vocabulary import DataCategory, Purpose
    from repro.core.policy import catalog
    from repro.core.policy.base import DataRequest, DecisionPhase, RequesterKind

    pair = EnginePair(policies=[catalog.policy_service_sharing("b")])

    request = DataRequest(
        requester_id="svc-a",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id="mary",
        space_id="b-1001",
        timestamp=100.0,
        purpose=Purpose.PROVIDING_SERVICE,
    )
    pair.decide(request)  # warm the row
    assert pair.compiled.table_rows == 1

    injectors = pair.install_policy_faults(
        FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL, target="policy_store")
    )
    try:
        _, during = pair.decide(
            dataclasses.replace(request, timestamp=200.0)
        )
        assert during.resolution.effect is Effect.DENY
        assert "fail-closed deny" in during.resolution.reasons
        assert pair.compiled.hits == 0, "a warm row served through the outage"
    finally:
        for injector in injectors:
            injector.uninstall()
    _, after = pair.decide(dataclasses.replace(request, timestamp=300.0))
    assert after.allowed
    assert pair.compiled.hits == 1, "the row must survive the outage"
    pair.assert_trails_equal()
    pair.assert_counters_equal()

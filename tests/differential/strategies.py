"""Strategies for the differential suite.

Builds on :mod:`tests.property.strategies` (the shared rule/request
generators) and adds the *mutation* vocabulary: a differential run is a
stream of steps, each either a request to decide or a store mutation
that must invalidate exactly the right compiled shards.
"""

from __future__ import annotations

import dataclasses

from hypothesis import strategies as st

from repro.core.reasoner.resolution import ResolutionStrategy
from repro.faults import FaultKind, FaultSpec
from tests.property.strategies import (
    USERS,
    conditions,
    policies as plain_policies,
    preferences as plain_preferences,
    requests,
)

strategies = st.sampled_from(list(ResolutionStrategy))

#: Rules with a condition attached (including TemporalCondition, which
#: makes matching requests uncacheable, and ProfileCondition, which is
#: compiled but context-dependent) mixed with unconditioned ones.
policies = st.one_of(
    plain_policies,
    st.builds(
        lambda policy, condition: dataclasses.replace(
            policy, condition=condition
        ),
        plain_policies,
        conditions,
    ),
)
preferences = st.one_of(
    plain_preferences,
    st.builds(
        lambda preference, condition: dataclasses.replace(
            preference, condition=condition
        ),
        plain_preferences,
        conditions,
    ),
)

#: Requests whose subjects are always concrete users, so preference
#: mutations have someone to hit.
subject_requests = requests.filter(lambda r: r.subject_id is not None)


def _mk_request(request):
    return ("request", request)


def _mk_add_preference(preference):
    return ("add_preference", preference)


def _mk_withdraw(user_id):
    return ("withdraw_user", user_id)


def _mk_add_policy(policy):
    return ("add_policy", policy)


def _mk_remove_policy(index):
    # Resolved against the pair's live policy ids at apply time.
    return ("remove_policy", index)


#: One step of a differential run.  Requests dominate (the point is to
#: exercise warm compiled rows), with mutations sprinkled in so rows go
#: stale mid-stream.
steps = st.one_of(
    requests.map(_mk_request),
    requests.map(_mk_request),
    requests.map(_mk_request),
    preferences.map(_mk_add_preference),
    st.sampled_from(USERS).map(_mk_withdraw),
    policies.map(_mk_add_policy),
    st.integers(0, 7).map(_mk_remove_policy),
)

runs = st.lists(steps, min_size=1, max_size=40)


def _mk_warm(draw):
    index, timestamp = draw
    # Resolved against the run's primed request pool at apply time.
    return ("warm", (index, timestamp))


#: A policy-fetch outage plan: a periodic outage (``every``/``phase``)
#: or a fixed set of faulted steps (``at_steps``).  Sparse enough that
#: rows get compiled between faults, so warm rows meet the outage.
outage_specs = st.one_of(
    st.builds(
        lambda every, phase: FaultSpec(
            kind=FaultKind.POLICY_FETCH_FAIL, every=every, phase=phase
        ),
        st.integers(2, 6),
        st.integers(0, 5),
    ),
    st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True).map(
        lambda steps: FaultSpec(
            kind=FaultKind.POLICY_FETCH_FAIL, at_steps=tuple(sorted(steps))
        )
    ),
)

#: A run for the outage property: cold requests and mutations (the
#: plain ``steps``) interleaved with warm repeats of primed requests at
#: a new timestamp, which a compiled row would serve without a fetch.
outage_runs = st.lists(
    st.one_of(
        steps,
        st.tuples(st.integers(0, 7), st.floats(0.0, 1e7)).map(_mk_warm),
        st.tuples(st.integers(0, 7), st.floats(0.0, 1e7)).map(_mk_warm),
        st.tuples(st.integers(0, 7), st.floats(0.0, 1e7)).map(_mk_warm),
    ),
    min_size=1,
    max_size=40,
)

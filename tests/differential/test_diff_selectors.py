"""Differential test: stored-path selector matching vs the contains loop.

Building policies, user preferences and :class:`SpatialCondition` match
a request's space with one set test against its stored ancestor path.
The oracle is the matching they did before: one ``contains`` call per
listed space, over an ancestor walk through ``parent()``, so it shares
no code with the stored paths.  Example counts come from the profiles
in ``conftest.py``.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.policy.base import DataRequest, Effect, RequesterKind
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import EvaluationContext, SpatialCondition
from repro.core.policy.preference import UserPreference
from tests.property.strategies import categories, phases, spatial_forests

UNKNOWN = ("ghost", "outside")


def walk_chain(model, space_id):
    chain = [space_id]
    current = model.parent(space_id)
    while current is not None:
        chain.append(current.space_id)
        current = model.parent(current.space_id)
    return chain


def walk_contains(model, outer_id, inner_id):
    if outer_id == inner_id:
        model.get(outer_id)
        return True
    return outer_id in walk_chain(model, inner_id)[1:]


def oracle_space_matches(space_ids, request, context):
    if request.space_id is None:
        return False
    if context.spatial is None or request.space_id not in context.spatial:
        return request.space_id in space_ids
    for space_id in space_ids:
        if space_id in context.spatial and walk_contains(
            context.spatial, space_id, request.space_id
        ):
            return True
    return False


def oracle_spatial_condition(condition, request, context):
    if request.space_id is None:
        return condition.match_unlocated
    if context.spatial is None or request.space_id not in context.spatial:
        return request.space_id == condition.space_id
    if condition.space_id not in context.spatial:
        return False
    return walk_contains(context.spatial, condition.space_id, request.space_id)


@st.composite
def selector_cases(draw):
    """A model (or none), a request space and a selector around it.

    The request space is ``None``, a modelled space or one outside the
    model; the selector mixes modelled and unknown ids and, often, the
    request space itself and one of its ancestors.
    """
    model = draw(spatial_forests())
    known = sorted(s.space_id for s in model)
    space_id = draw(st.one_of(st.none(), st.sampled_from(known + list(UNKNOWN))))
    selector = draw(st.lists(st.sampled_from(known + list(UNKNOWN)), max_size=4))
    if space_id is not None and draw(st.booleans()):
        selector.append(space_id)
    if space_id in model and draw(st.booleans()):
        selector.append(draw(st.sampled_from(walk_chain(model, space_id))))
    request = DataRequest(
        requester_id="svc-a",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=draw(phases),
        category=draw(categories),
        subject_id="mary",
        space_id=space_id,
        timestamp=0.0,
    )
    spatial = draw(st.sampled_from([model, model, None]))
    return tuple(draw(st.permutations(selector))), request, EvaluationContext(spatial=spatial)


@given(case=selector_cases(), match_unlocated=st.booleans())
def test_selectors_match_the_contains_loop(case, match_unlocated):
    selector, request, context = case
    expected = not selector or oracle_space_matches(selector, request, context)
    policy = BuildingPolicy(
        policy_id="p", name="p", description="", space_ids=selector,
        phases=(request.phase,),
    )
    preference = UserPreference(
        preference_id="f", user_id="mary", description="", effect=Effect.DENY,
        phases=(request.phase,), space_ids=selector,
    )
    assert policy.applies_to(request, context) == expected
    assert preference.applies_to(request, context) == expected
    for space_id in selector + UNKNOWN:
        condition = SpatialCondition(space_id, match_unlocated=match_unlocated)
        assert condition.matches(request, context) == oracle_spatial_condition(
            condition, request, context
        )

"""Unit tests for the rule stores (linear and indexed)."""

import pytest

from repro.core.language.vocabulary import DataCategory, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.preference import UserPreference
from repro.core.reasoner.index import LinearRuleStore, PolicyIndex
from repro.errors import StorageError


def request(category=DataCategory.LOCATION, phase=DecisionPhase.SHARING, subject="mary"):
    return DataRequest(
        requester_id="svc",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=phase,
        category=category,
        subject_id=subject,
        space_id="r1",
        timestamp=0.0,
        purpose=Purpose.PROVIDING_SERVICE,
    )


def policy(pid, categories=(DataCategory.LOCATION,), phases=(DecisionPhase.SHARING,)):
    return BuildingPolicy(
        policy_id=pid, name=pid, description="d", categories=categories, phases=phases
    )


def preference(pid, user="mary", categories=(DataCategory.LOCATION,), phases=(DecisionPhase.SHARING,)):
    return UserPreference(
        preference_id=pid,
        user_id=user,
        description="d",
        effect=Effect.DENY,
        categories=categories,
        phases=phases,
    )


@pytest.mark.parametrize("store_cls", [LinearRuleStore, PolicyIndex])
class TestStoreInterface:
    def test_add_and_list(self, store_cls):
        store = store_cls()
        store.add_policy(policy("p1"))
        store.add_preference(preference("f1"))
        assert [p.policy_id for p in store.policies] == ["p1"]
        assert [p.preference_id for p in store.preferences] == ["f1"]

    def test_remove_policy(self, store_cls):
        store = store_cls()
        store.add_policy(policy("p1"))
        store.remove_policy("p1")
        assert store.policies == []
        assert store.candidate_policies(request()) == []

    def test_remove_missing_policy_noop(self, store_cls):
        store_cls().remove_policy("ghost")

    def test_remove_preferences_of_user(self, store_cls):
        store = store_cls()
        store.add_preference(preference("f1"))
        store.add_preference(preference("f2", user="bob"))
        removed = store.remove_preferences_of("mary")
        assert removed == 1
        assert [p.preference_id for p in store.preferences] == ["f2"]

    def test_candidates_are_superset_of_matches(self, store_cls):
        store = store_cls()
        store.add_policy(policy("p1"))
        store.add_policy(policy("p2", categories=(DataCategory.ENERGY_USE,)))
        candidates = {p.policy_id for p in store.candidate_policies(request())}
        assert "p1" in candidates  # the matching one must be present

    def test_replacing_policy_updates(self, store_cls):
        store = store_cls()
        store.add_policy(policy("p1"))
        store.add_policy(policy("p1", categories=(DataCategory.ENERGY_USE,)))
        assert len(store.policies) == 1


class TestPolicyIndexPruning:
    def test_category_buckets_prune(self):
        index = PolicyIndex()
        index.add_policy(policy("loc"))
        index.add_policy(policy("energy", categories=(DataCategory.ENERGY_USE,)))
        found = {p.policy_id for p in index.candidate_policies(request())}
        assert found == {"loc"}

    def test_phase_buckets_prune(self):
        index = PolicyIndex()
        index.add_policy(policy("share", phases=(DecisionPhase.SHARING,)))
        index.add_policy(policy("capture", phases=(DecisionPhase.CAPTURE,)))
        found = {p.policy_id for p in index.candidate_policies(request())}
        assert found == {"share"}

    def test_wildcard_policies_always_candidates(self):
        index = PolicyIndex()
        index.add_policy(policy("wild", categories=(), phases=tuple(DecisionPhase)))
        for category in (DataCategory.LOCATION, DataCategory.ENERGY_USE):
            found = {p.policy_id for p in index.candidate_policies(request(category))}
            assert "wild" in found

    def test_preferences_partitioned_by_user(self):
        index = PolicyIndex()
        for i in range(50):
            index.add_preference(preference("f%d" % i, user="user-%d" % i))
        index.add_preference(preference("mine", user="mary"))
        found = index.candidate_preferences(request())
        assert [p.preference_id for p in found] == ["mine"]

    def test_unattributed_request_has_no_preference_candidates(self):
        index = PolicyIndex()
        index.add_preference(preference("f1"))
        assert index.candidate_preferences(request(subject=None)) == []

    def test_preference_resubmission_replaces(self):
        index = PolicyIndex()
        index.add_preference(preference("f1"))
        index.add_preference(
            preference("f1", categories=(DataCategory.ENERGY_USE,))
        )
        assert len(index.preferences) == 1
        found = index.candidate_preferences(request(DataCategory.ENERGY_USE))
        assert [p.preference_id for p in found] == ["f1"]


@pytest.mark.parametrize("store_cls", [LinearRuleStore, PolicyIndex])
class TestFetchPlanes:
    def test_unfaulted_store_has_no_planes(self, store_cls):
        store = store_cls()
        assert store.fault_planes == ()
        store.check_fetch()  # no plane, no failure

    def test_plane_message_fails_the_fetch(self, store_cls):
        store = store_cls()
        verdicts = iter([None, "store offline"])

        def plane():
            return next(verdicts)

        store.install_fault_plane(plane)
        store.check_fetch()
        with pytest.raises(StorageError, match="store offline"):
            store.check_fetch()
        store.remove_fault_plane(plane)
        assert store.fault_planes == ()
        store.check_fetch()

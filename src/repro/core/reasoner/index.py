"""Rule stores: linear scan and the optimized policy index.

Section V-C: "With large number of users, services, policies, and
preferences the cost of enforcement can be large enough to be
prohibitive in any real setting.  To overcome this challenge, we are
working on techniques for optimizing enforcement."

Both stores expose the same interface; :class:`PolicyIndex` buckets
rules so candidate lookup touches only rules that could possibly match,
and is verified (by property tests) to return decisions identical to
:class:`LinearRuleStore`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.language.vocabulary import DataCategory
from repro.core.policy.base import DataRequest, DecisionPhase
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.preference import UserPreference
from repro.errors import StorageError

#: A policy-fetch interception point: called once per enforcement
#: decision, before any candidate lookup, compiled-row or cache probe;
#: returning a message fails that decision's fetch with
#: :class:`~repro.errors.StorageError` carrying it.
FetchPlane = Callable[[], Optional[str]]


class RuleStore:
    """Interface of a policy/preference store."""

    #: Monotonic mutation counter.  Decision caches key their entries
    #: on this value so any rule change invalidates them wholesale.
    version: int = 0

    #: Monotonic counter bumped only by policy mutations.  The compiled
    #: enforcement engine checks it per decision: a change drops every
    #: table shard (policies affect all users).
    policy_version: int = 0

    #: Per-user monotonic counters bumped by preference mutations of
    #: that user.  The compiled engine compares a shard's recorded
    #: counter against this map so a preference change evicts exactly
    #: the affected user's shard -- never the whole table.
    preference_versions: Dict[str, int]

    #: Installed fetch planes (see :data:`FetchPlane`).  Empty on the
    #: class, so an unfaulted store costs each decision one truth test.
    fault_planes: Tuple[FetchPlane, ...] = ()

    def install_fault_plane(self, plane: FetchPlane) -> None:
        """Attach a policy-fetch fault plane (see :data:`FetchPlane`)."""
        self.fault_planes = self.fault_planes + (plane,)

    def remove_fault_plane(self, plane: FetchPlane) -> None:
        self.fault_planes = tuple(p for p in self.fault_planes if p != plane)

    def check_fetch(self) -> None:
        """Fail this decision's policy fetch if any installed plane says so.

        Enforcement engines call this once per decision, ahead of every
        lookup, so an interpreter, a compiled table and a decision cache
        all fail closed at the same plane step.
        """
        for plane in self.fault_planes:
            failure = plane()
            if failure:
                raise StorageError(failure)

    def add_policy(self, policy: BuildingPolicy) -> None:
        raise NotImplementedError

    def add_preference(self, preference: UserPreference) -> None:
        raise NotImplementedError

    def remove_policy(self, policy_id: str) -> None:
        raise NotImplementedError

    def remove_preferences_of(self, user_id: str) -> int:
        raise NotImplementedError

    def candidate_policies(self, request: DataRequest) -> List[BuildingPolicy]:
        """Superset of the policies that could match ``request``."""
        raise NotImplementedError

    def candidate_preferences(self, request: DataRequest) -> List[UserPreference]:
        """Superset of the preferences that could match ``request``."""
        raise NotImplementedError

    @property
    def policies(self) -> List[BuildingPolicy]:
        raise NotImplementedError

    @property
    def preferences(self) -> List[UserPreference]:
        raise NotImplementedError


class LinearRuleStore(RuleStore):
    """Baseline: every lookup scans every rule."""

    def __init__(self) -> None:
        self._policies: Dict[str, BuildingPolicy] = {}
        self._preferences: Dict[str, UserPreference] = {}
        self.version = 0
        self.policy_version = 0
        self.preference_versions = {}

    def add_policy(self, policy: BuildingPolicy) -> None:
        self._policies[policy.policy_id] = policy
        self.version += 1
        self.policy_version += 1

    def add_preference(self, preference: UserPreference) -> None:
        self._preferences[preference.preference_id] = preference
        self.version += 1
        self.preference_versions[preference.user_id] = (
            self.preference_versions.get(preference.user_id, 0) + 1
        )

    def remove_policy(self, policy_id: str) -> None:
        if self._policies.pop(policy_id, None) is not None:
            self.version += 1
            self.policy_version += 1

    def remove_preferences_of(self, user_id: str) -> int:
        doomed = [
            pid for pid, pref in self._preferences.items() if pref.user_id == user_id
        ]
        for pid in doomed:
            del self._preferences[pid]
        if doomed:
            self.version += 1
            self.preference_versions[user_id] = (
                self.preference_versions.get(user_id, 0) + 1
            )
        return len(doomed)

    def candidate_policies(self, request: DataRequest) -> List[BuildingPolicy]:
        return list(self._policies.values())

    def candidate_preferences(self, request: DataRequest) -> List[UserPreference]:
        return list(self._preferences.values())

    @property
    def policies(self) -> List[BuildingPolicy]:
        return list(self._policies.values())

    @property
    def preferences(self) -> List[UserPreference]:
        return list(self._preferences.values())


class PolicyIndex(RuleStore):
    """Bucketed store: candidates per (phase, category) and per subject.

    Policies are bucketed by ``(phase, category)``; a policy with empty
    (wildcard) category or phase selectors lands in wildcard buckets
    consulted on every lookup.  Preferences are additionally partitioned
    by user id, because a preference can only ever match requests about
    its own user -- with many users this is the dominant win.
    """

    _WILDCARD = "*"

    def __init__(self) -> None:
        self._policies: Dict[str, BuildingPolicy] = {}
        self._preferences: Dict[str, UserPreference] = {}
        self._policy_buckets: Dict[Tuple[str, str], Set[str]] = defaultdict(set)
        # user_id -> (phase, category) -> preference ids
        self._pref_buckets: Dict[str, Dict[Tuple[str, str], Set[str]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self.version = 0
        self.policy_version = 0
        self.preference_versions = {}

    # ------------------------------------------------------------------
    # Bucketing helpers
    # ------------------------------------------------------------------
    @classmethod
    def _keys_for(
        cls,
        phases: Iterable[DecisionPhase],
        categories: Iterable[DataCategory],
    ) -> List[Tuple[str, str]]:
        phase_keys = [p.value for p in phases] or [cls._WILDCARD]
        category_keys = [c.value for c in categories] or [cls._WILDCARD]
        return [(p, c) for p in phase_keys for c in category_keys]

    @classmethod
    def _lookup_keys(cls, request: DataRequest) -> List[Tuple[str, str]]:
        phase = request.phase.value
        category = request.category.value
        return [
            (phase, category),
            (phase, cls._WILDCARD),
            (cls._WILDCARD, category),
            (cls._WILDCARD, cls._WILDCARD),
        ]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_policy(self, policy: BuildingPolicy) -> None:
        self.remove_policy(policy.policy_id)
        self._policies[policy.policy_id] = policy
        for key in self._keys_for(policy.phases, policy.categories):
            self._policy_buckets[key].add(policy.policy_id)
        self.version += 1
        self.policy_version += 1

    def add_preference(self, preference: UserPreference) -> None:
        self._remove_preference(preference.preference_id)
        self._preferences[preference.preference_id] = preference
        buckets = self._pref_buckets[preference.user_id]
        for key in self._keys_for(preference.phases, preference.categories):
            buckets[key].add(preference.preference_id)
        self.version += 1
        self.preference_versions[preference.user_id] = (
            self.preference_versions.get(preference.user_id, 0) + 1
        )

    def remove_policy(self, policy_id: str) -> None:
        policy = self._policies.pop(policy_id, None)
        if policy is None:
            return
        for key in self._keys_for(policy.phases, policy.categories):
            self._policy_buckets[key].discard(policy_id)
        self.version += 1
        self.policy_version += 1

    def _remove_preference(self, preference_id: str) -> None:
        preference = self._preferences.pop(preference_id, None)
        if preference is None:
            return
        buckets = self._pref_buckets.get(preference.user_id, {})
        for key in self._keys_for(preference.phases, preference.categories):
            if key in buckets:
                buckets[key].discard(preference_id)

    def remove_preferences_of(self, user_id: str) -> int:
        doomed = [
            pid for pid, pref in self._preferences.items() if pref.user_id == user_id
        ]
        for pid in doomed:
            self._remove_preference(pid)
        self._pref_buckets.pop(user_id, None)
        if doomed:
            self.version += 1
            self.preference_versions[user_id] = (
                self.preference_versions.get(user_id, 0) + 1
            )
        return len(doomed)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def candidate_policies(self, request: DataRequest) -> List[BuildingPolicy]:
        ids: Set[str] = set()
        for key in self._lookup_keys(request):
            ids |= self._policy_buckets.get(key, set())
        return [self._policies[pid] for pid in ids]

    def candidate_preferences(self, request: DataRequest) -> List[UserPreference]:
        if request.subject_id is None:
            return []
        buckets = self._pref_buckets.get(request.subject_id)
        if not buckets:
            return []
        ids: Set[str] = set()
        for key in self._lookup_keys(request):
            ids |= buckets.get(key, set())
        return [self._preferences[pid] for pid in ids]

    @property
    def policies(self) -> List[BuildingPolicy]:
        return list(self._policies.values())

    @property
    def preferences(self) -> List[UserPreference]:
        return list(self._preferences.values())

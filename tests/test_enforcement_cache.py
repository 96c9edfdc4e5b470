"""Unit tests for the caching enforcement engine."""

import pytest

from repro.core.enforcement.cache import CachingEnforcementEngine
from repro.core.enforcement.engine import EnforcementEngine
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.core.policy.conditions import EvaluationContext, TemporalCondition
from repro.core.policy.preference import UserPreference
from repro.spatial.model import build_simple_building


def request(timestamp=100.0, subject="mary", **overrides):
    defaults = dict(
        requester_id="concierge",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id=subject,
        space_id="b-1001",
        timestamp=timestamp,
        purpose=Purpose.PROVIDING_SERVICE,
    )
    defaults.update(overrides)
    return DataRequest(**defaults)


@pytest.fixture
def engine():
    spatial = build_simple_building("b", 2, 4)
    engine = CachingEnforcementEngine(context=EvaluationContext(spatial=spatial))
    engine.store.add_policy(catalog.policy_service_sharing("b"))
    return engine


class TestCaching:
    def test_repeat_requests_hit(self, engine):
        a = engine.decide(request(timestamp=100.0))
        b = engine.decide(request(timestamp=200.0))
        assert a.resolution == b.resolution
        assert engine.hits == 1
        assert engine.misses == 1

    def test_different_subjects_miss(self, engine):
        engine.decide(request(subject="mary"))
        engine.decide(request(subject="bob"))
        assert engine.hits == 0
        assert engine.misses == 2

    def test_cached_decisions_still_audited(self, engine):
        engine.decide(request(timestamp=100.0))
        engine.decide(request(timestamp=200.0))
        assert len(engine.audit) == 2

    def test_preference_submission_invalidates(self, engine):
        before = engine.decide(request())
        assert before.allowed
        engine.store.add_preference(catalog.preference_2_no_location("mary"))
        after = engine.decide(request(timestamp=300.0))
        assert not after.allowed, "new preference takes effect immediately"

    def test_policy_removal_invalidates(self, engine):
        assert engine.decide(request()).allowed
        engine.store.remove_policy("policy-service-sharing")
        assert not engine.decide(request(timestamp=300.0)).allowed

    def test_time_sensitive_rules_not_cached(self, engine):
        engine.store.add_preference(
            catalog.preference_1_office_after_hours("mary", "b-1001")
        )
        noon = engine.decide(
            request(
                timestamp=12 * 3600.0, category=DataCategory.OCCUPANCY
            )
        )
        evening = engine.decide(
            request(
                timestamp=20 * 3600.0, category=DataCategory.OCCUPANCY
            )
        )
        assert noon.allowed
        assert not evening.allowed, "temporal preference must be re-evaluated"
        assert engine.uncacheable >= 2

    def test_equivalence_with_uncached_engine(self, engine):
        spatial = build_simple_building("b", 2, 4)
        plain = EnforcementEngine(context=EvaluationContext(spatial=spatial))
        plain.store.add_policy(catalog.policy_service_sharing("b"))
        plain.store.add_preference(
            catalog.preference_1_office_after_hours("mary", "b-1001")
        )
        engine.store.add_preference(
            catalog.preference_1_office_after_hours("mary", "b-1001")
        )
        for hour in (8, 12, 19, 23):
            for category in (DataCategory.LOCATION, DataCategory.OCCUPANCY):
                for _ in range(2):  # second pass exercises cache hits
                    req = request(timestamp=hour * 3600.0, category=category)
                    assert (
                        engine.decide(req).resolution == plain.decide(req).resolution
                    )

    def test_capacity_eviction(self):
        spatial = build_simple_building("b", 2, 4)
        engine = CachingEnforcementEngine(
            context=EvaluationContext(spatial=spatial), cache_capacity=2
        )
        engine.store.add_policy(catalog.policy_service_sharing("b"))
        for index in range(5):
            engine.decide(request(subject="user-%d" % index))
        assert engine.cache_size <= 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CachingEnforcementEngine(cache_capacity=0)

    def test_capture_path_equivalence(self):
        """A cached engine on the capture path stores the same set of
        observations as a plain engine."""
        from repro.core.policy import catalog as cat
        from repro.tippers.datastore import Datastore
        from repro.tippers.sensor_manager import SensorManager
        from repro.users.profile import UserDirectory, UserProfile
        from tests.conftest import StaticWorld

        def build(engine_cls):
            spatial = build_simple_building("b", 2, 4)
            engine = engine_cls(context=EvaluationContext(spatial=spatial))
            engine.store.add_policy(cat.policy_2_emergency_location("b"))
            directory = UserDirectory()
            directory.add(UserProfile(user_id="mary", name="M", device_macs=("aa:bb",)))
            datastore = Datastore()
            manager = SensorManager(engine, datastore, directory=directory)
            manager.deploy("wifi_access_point", "ap-1", "b-1001", {"log_interval_s": 1.0})
            manager.deploy("camera", "cam-1", "b-f1-corridor")
            return manager, datastore

        world = StaticWorld()
        world.put("mary", "aa:bb", "b-1001")
        plain_mgr, plain_ds = build(EnforcementEngine)
        cached_mgr, cached_ds = build(CachingEnforcementEngine)
        for tick in range(5):
            plain_mgr.tick(float(tick * 2), world)
            cached_mgr.tick(float(tick * 2), world)
        assert plain_ds.count() == cached_ds.count()
        assert plain_mgr.stats.dropped_capture == cached_mgr.stats.dropped_capture
        assert cached_mgr._engine.hits > 0, "repeated capture must hit the cache"

    def test_stats_shape(self, engine):
        engine.decide(request())
        engine.decide(request(timestamp=999.0))
        stats = engine.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["size"] == 1


class TestCompiledBrownoutBypass:
    """The compiled table must honor the same brownout contract as the
    decision cache: noted decisions bypass it in both directions."""

    @pytest.fixture
    def compiled(self):
        from repro.obs.metrics import MetricsRegistry

        spatial = build_simple_building("b", 2, 4)
        engine = EnforcementEngine(
            context=EvaluationContext(spatial=spatial),
            metrics=MetricsRegistry(),
            compiled=True,
        )
        engine.store.add_policy(catalog.policy_service_sharing("b"))
        return engine

    def test_noted_decision_is_never_compiled(self, compiled):
        noted = compiled.decide(request(), notes=("brownout: degraded",))
        assert "brownout: degraded" in noted.resolution.reasons
        assert compiled.table_rows == 0
        assert compiled.hits == 0

    def test_warm_row_never_serves_a_noted_request(self, compiled):
        plain = compiled.decide(request())
        assert compiled.table_rows == 1
        noted = compiled.decide(
            request(timestamp=200.0), notes=("brownout: degraded",)
        )
        assert compiled.hits == 0, "noted decide must not consult the table"
        assert "brownout: degraded" in noted.resolution.reasons
        assert "brownout: degraded" not in plain.resolution.reasons
        again = compiled.decide(request(timestamp=300.0))
        assert compiled.hits == 1
        assert again.resolution == plain.resolution, (
            "the compiled row must not absorb the brownout note"
        )

    def test_match_time_stability_gates_the_cache(self):
        """The matcher judges time-stability on the candidates it fetched,
        and the caching engine caches exactly the stable decisions."""
        from repro.core.reasoner.matcher import PolicyMatcher

        spatial = build_simple_building("b", 2, 4)
        engine = CachingEnforcementEngine(
            context=EvaluationContext(spatial=spatial)
        )
        engine.store.add_policy(catalog.policy_service_sharing("b"))
        engine.store.add_preference(
            catalog.preference_1_office_after_hours("mary", "b-1001")
        )
        stable = request(category=DataCategory.LOCATION)
        unstable = request(category=DataCategory.OCCUPANCY)
        matcher = PolicyMatcher(engine.store, engine.context)
        assert matcher.match(stable).time_stable
        assert not matcher.match(unstable).time_stable
        engine.decide(stable)
        engine.decide(unstable)
        assert (engine.misses, engine.uncacheable) == (1, 1)
        assert engine.cache_size == 1

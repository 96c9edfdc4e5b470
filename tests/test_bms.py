"""Unit tests for the TIPPERS facade and its bus endpoint."""

import pytest

from repro.core.enforcement import (
    CachingEnforcementEngine,
    CompiledEnforcementEngine,
    EnforcementEngine,
)
from repro.core.policy import catalog
from repro.core.policy.serialization import preference_to_dict
from repro.errors import NetworkError, PolicyError
from repro.federation.campus import Campus
from repro.net.bus import MessageBus, RpcError
from repro.obs.metrics import MetricsRegistry
from repro.simulation.dbh import make_dbh_tippers
from repro.spatial.model import build_simple_building
from repro.tippers.bms import TIPPERS
from repro.users.profile import UserProfile


class TestConstruction:
    def test_unknown_building_rejected(self, small_building):
        with pytest.raises(PolicyError):
            TIPPERS(small_building, "ghost-tower")

    def test_deploy_to_unknown_space_rejected(self, tippers):
        with pytest.raises(PolicyError):
            tippers.deploy_sensor("camera", "cam-x", "atlantis")

    def test_add_user_refreshes_context_groups(self, tippers):
        tippers.add_user(
            UserProfile(
                user_id="carol",
                name="Carol",
                groups=frozenset({"staff"}),
                device_macs=("aa:bb:cc:00:00:03",),
            )
        )
        assert "staff" in tippers.context.groups_of("carol")


class TestEngineDefault:
    """Compiled decision tables are the default engine everywhere; the
    interpreter stays reachable as the differential oracle."""

    def test_tippers_compiles_by_default(self, small_building):
        engine = TIPPERS(small_building, "b").engine
        assert type(engine) is CompiledEnforcementEngine

    def test_interpreter_on_request(self, small_building):
        engine = TIPPERS(small_building, "b", compile_decisions=False).engine
        assert type(engine) is EnforcementEngine

    def test_cache_flag_still_selects_the_cache(self, small_building):
        engine = TIPPERS(small_building, "b", cache_decisions=True).engine
        assert type(engine) is CachingEnforcementEngine

    def test_dbh_tippers_compiles(self):
        tippers = make_dbh_tippers(deploy_sensors=False)
        assert type(tippers.engine) is CompiledEnforcementEngine

    def test_every_campus_shard_compiles(self, tmp_path):
        campus = Campus(
            ("bldg-a", "bldg-b"),
            seed=3,
            floors=1,
            rooms_per_floor=2,
            storage_root=str(tmp_path),
            metrics=MetricsRegistry(),
        )
        campus.add_building("bldg-c")
        campus.recover_shard("bldg-a", now=0.0)
        engines = [shard.tippers.engine for shard in campus.shards()]
        assert len(engines) == 3
        assert all(type(e) is CompiledEnforcementEngine for e in engines)


class TestOperation:
    def test_retention_sweep_uses_policy_schedule(self, tippers, world):
        world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
        tippers.tick(0.0, world)
        assert tippers.datastore.count("wifi_access_point") == 1
        # After the P6M retention elapses, the observation is purged.
        purged = tippers.run_retention(7 * 30 * 86400.0)
        assert purged >= 1
        assert tippers.datastore.count("wifi_access_point") == 0

    def test_comfort_control_actuates_occupied_rooms(self, tippers, world):
        world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
        tippers.tick(0.0, world)  # motion recorded in b-1001
        actuated = tippers.run_comfort_control(60.0)
        assert actuated == 1
        assert tippers.sensor_manager.sensor("hvac-1").settings.get("fan_speed") == "auto"


class TestBusEndpoint:
    @pytest.fixture
    def bus(self, tippers):
        bus = MessageBus()
        bus.register("tippers", tippers)
        return bus

    def test_get_policy_document(self, bus):
        document = bus.call("tippers", "get_policy_document")
        assert document["resources"], "policies advertised"

    def test_get_settings_document(self, bus):
        document = bus.call("tippers", "get_settings_document")
        assert document["settings"][0]["select"]

    def test_submit_selection_reports_conflicts(self, bus):
        response = bus.call(
            "tippers",
            "submit_selection",
            {"user_id": "mary", "selection": {"location": "off"}},
        )
        assert response["conflicts"], "opt-out conflicts with mandatory policy"

    def test_submit_preference_over_wire(self, bus):
        payload = preference_to_dict(catalog.preference_2_no_location("mary"))
        response = bus.call("tippers", "submit_preference", {"preference": payload})
        assert response["conflicts"]

    def test_locate_user_over_wire(self, bus, tippers, world):
        world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
        tippers.tick(100.0, world)
        response = bus.call(
            "tippers",
            "locate_user",
            {"requester_id": "svc", "subject_id": "mary", "now": 160.0},
        )
        assert response["allowed"]
        assert response["location"]["space_id"] == "b-1001"

    def test_room_occupancy_over_wire(self, bus):
        response = bus.call(
            "tippers",
            "room_occupancy",
            {"requester_id": "svc", "space_id": "b-1001", "now": 100.0},
        )
        assert response["allowed"]
        assert response["occupied"] is False

    def test_unknown_method_is_rpc_error(self, bus):
        with pytest.raises(RpcError):
            bus.call("tippers", "self_destruct")

    def test_application_errors_surface_as_rpc_errors(self, bus):
        with pytest.raises(RpcError):
            bus.call(
                "tippers",
                "submit_selection",
                {"user_id": "ghost", "selection": {"location": "off"}},
            )

    def test_malformed_payload_is_rpc_error(self, bus):
        with pytest.raises(RpcError):
            bus.call("tippers", "locate_user", {"subject_id": "mary"})

"""Unit tests for repro.spatial.model."""

import pytest

from repro.errors import SpatialError
from repro.spatial.geometry import Box, Point
from repro.spatial.model import (
    Space,
    SpaceType,
    SpatialModel,
    build_simple_building,
    iter_room_ids,
)


@pytest.fixture
def model() -> SpatialModel:
    m = SpatialModel()
    m.add("bldg", "Building", SpaceType.BUILDING, footprint=Box(0, 0, 100, 50))
    m.add("f1", "Floor 1", SpaceType.FLOOR, parent_id="bldg", footprint=Box(0, 0, 100, 50))
    m.add("r101", "Room 101", SpaceType.ROOM, parent_id="f1", footprint=Box(0, 0, 20, 20))
    m.add("r102", "Room 102", SpaceType.ROOM, parent_id="f1", footprint=Box(20, 0, 40, 20))
    m.add("r103", "Room 103", SpaceType.ROOM, parent_id="f1", footprint=Box(60, 0, 80, 20))
    return m


class TestConstruction:
    def test_duplicate_id_rejected(self, model):
        with pytest.raises(SpatialError):
            model.add("r101", "dup", SpaceType.ROOM, parent_id="f1")

    def test_unknown_parent_rejected(self, model):
        with pytest.raises(SpatialError):
            model.add("x", "X", SpaceType.ROOM, parent_id="nope")

    def test_child_coarser_than_parent_rejected(self, model):
        with pytest.raises(SpatialError):
            model.add("b2", "Building 2", SpaceType.BUILDING, parent_id="r101")

    def test_empty_id_rejected(self):
        with pytest.raises(SpatialError):
            Space(space_id="", name="x", space_type=SpaceType.ROOM)

    def test_lookup_unknown_space(self, model):
        with pytest.raises(SpatialError):
            model.get("missing")

    def test_len_and_contains(self, model):
        assert len(model) == 5
        assert "r101" in model
        assert "missing" not in model


def test_granularity_ranks_run_coarse_to_fine():
    order = [SpaceType.CAMPUS, SpaceType.BUILDING, SpaceType.FLOOR,
             SpaceType.ZONE, SpaceType.CORRIDOR, SpaceType.ROOM]
    assert [t.granularity_rank for t in order] == list(range(6))


class TestHierarchy:
    def test_parent_and_children(self, model):
        assert model.parent("r101").space_id == "f1"
        assert model.parent("bldg") is None
        assert {s.space_id for s in model.children("f1")} == {"r101", "r102", "r103"}

    def test_ancestors_order(self, model):
        assert [s.space_id for s in model.ancestors("r101")] == ["f1", "bldg"]

    def test_descendants(self, model):
        assert {s.space_id for s in model.descendants("bldg")} == {
            "f1",
            "r101",
            "r102",
            "r103",
        }

    def test_leaves_under(self, model):
        assert {s.space_id for s in model.leaves_under("bldg")} == {
            "r101",
            "r102",
            "r103",
        }
        assert [s.space_id for s in model.leaves_under("r101")] == ["r101"]

    def test_common_ancestor(self, model):
        assert model.common_ancestor("r101", "r102").space_id == "f1"
        assert model.common_ancestor("r101", "r101").space_id == "r101"


class TestOperators:
    def test_contains_reflexive(self, model):
        assert model.contains("r101", "r101")

    def test_contains_transitive(self, model):
        assert model.contains("bldg", "r101")
        assert model.contains("f1", "r101")
        assert not model.contains("r101", "f1")

    def test_contains_unknown_raises(self, model):
        with pytest.raises(SpatialError):
            model.contains("missing", "missing")

    def test_neighboring_by_footprint(self, model):
        assert model.neighboring("r101", "r102")  # share edge x=20
        assert not model.neighboring("r101", "r103")  # gap between

    def test_neighboring_not_reflexive(self, model):
        assert not model.neighboring("r101", "r101")

    def test_neighboring_fallback_to_siblings(self):
        m = SpatialModel()
        m.add("b", "B", SpaceType.BUILDING)
        m.add("x", "X", SpaceType.ROOM, parent_id="b")
        m.add("y", "Y", SpaceType.ROOM, parent_id="b")
        assert m.neighboring("x", "y")

    def test_overlap_containment_counts(self, model):
        assert model.overlap("bldg", "r101")
        assert model.overlap("r101", "bldg")

    def test_overlap_disjoint_rooms(self, model):
        assert not model.overlap("r101", "r103")


class TestGranularitySupport:
    def test_ancestor_at_level(self, model):
        assert model.ancestor_at_level("r101", SpaceType.FLOOR).space_id == "f1"
        assert model.ancestor_at_level("r101", SpaceType.BUILDING).space_id == "bldg"
        assert model.ancestor_at_level("r101", SpaceType.ROOM).space_id == "r101"
        assert model.ancestor_at_level("bldg", SpaceType.ROOM) is None

    def test_locate_point_prefers_finest(self, model):
        found = model.locate_point(Point(5, 5))
        assert found.space_id == "r101"

    def test_locate_point_outside_everything(self, model):
        assert model.locate_point(Point(500, 500)) is None

    def test_locate_point_in_floor_but_no_room(self, model):
        found = model.locate_point(Point(50, 40))
        assert found.space_id in ("f1", "bldg")


class TestValidate:
    def test_valid_model_passes(self, model):
        model.validate()

    def test_asymmetric_link_detected(self, model):
        model.get("r101").parent_id = "r102"
        with pytest.raises(SpatialError):
            model.validate()

    def test_rewired_parent_leaves_stale_path_detected(self, model):
        # Links stay symmetric, so only the stored-path check can object.
        model.add("f2", "Floor 2", SpaceType.FLOOR, parent_id="bldg")
        model.get("f1").child_ids.remove("r101")
        model.get("f2").child_ids.append("r101")
        model.get("r101").parent_id = "f2"
        with pytest.raises(SpatialError, match="stale stored path for 'r101'"):
            model.validate()

    def test_escaping_footprint_detected(self, model):
        model.get("r101").footprint = Box(-50, -50, -10, -10)
        with pytest.raises(SpatialError):
            model.validate()


class TestBuildSimpleBuilding:
    def test_structure_counts(self):
        m = build_simple_building("t", floors=3, rooms_per_floor=6)
        assert len(m.spaces_of_type(SpaceType.FLOOR)) == 3
        assert len(m.spaces_of_type(SpaceType.ROOM)) == 18
        assert len(m.spaces_of_type(SpaceType.CORRIDOR)) == 3
        m.validate()

    def test_invalid_params_rejected(self):
        with pytest.raises(SpatialError):
            build_simple_building("t", floors=0, rooms_per_floor=4)

    def test_iter_room_ids(self):
        m = build_simple_building("t", floors=1, rooms_per_floor=2)
        assert sorted(iter_room_ids(m)) == ["t-1001", "t-1002"]

    def test_room_ids_follow_floor_numbering(self):
        m = build_simple_building("t", floors=2, rooms_per_floor=2)
        rooms = sorted(iter_room_ids(m))
        assert rooms == ["t-1001", "t-1002", "t-2001", "t-2002"]

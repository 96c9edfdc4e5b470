"""Property tests: spatial model laws."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpatialError
from repro.spatial.geometry import Box, Point
from repro.spatial.model import SpaceType, build_simple_building
from tests.property.strategies import spatial_forests

boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    x=st.floats(-100, 100, allow_nan=False),
    y=st.floats(-100, 100, allow_nan=False),
    w=st.floats(0, 50, allow_nan=False),
    h=st.floats(0, 50, allow_nan=False),
)


class TestBoxLaws:
    @given(boxes, boxes)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(boxes, boxes)
    def test_touch_symmetric_and_disjoint_from_overlap(self, a, b):
        assert a.touches(b) == b.touches(a)
        assert not (a.touches(b) and a.overlaps(b))

    @given(boxes)
    def test_self_containment(self, box):
        assert box.contains_box(box)
        assert box.contains_point(box.center)

    @given(boxes, boxes)
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_box(inter)
            assert b.contains_box(inter)

    @given(boxes, boxes)
    def test_union_bounds_contains_both(self, a, b):
        union = a.union_bounds(b)
        assert union.contains_box(a)
        assert union.contains_box(b)

    @given(boxes, st.floats(0, 10, allow_nan=False))
    def test_expand_monotone(self, box, margin):
        assert box.expand(margin).contains_box(box)


@pytest.fixture(scope="module")
def model():
    return build_simple_building("b", floors=3, rooms_per_floor=6)


def space_ids(model):
    return sorted(s.space_id for s in model)


class TestModelLaws:
    @settings(max_examples=50)
    @given(data=st.data())
    def test_contains_is_a_partial_order(self, model, data):
        ids = space_ids(model)
        a = data.draw(st.sampled_from(ids))
        b = data.draw(st.sampled_from(ids))
        c = data.draw(st.sampled_from(ids))
        # Reflexive.
        assert model.contains(a, a)
        # Antisymmetric.
        if model.contains(a, b) and model.contains(b, a):
            assert a == b
        # Transitive.
        if model.contains(a, b) and model.contains(b, c):
            assert model.contains(a, c)

    @settings(max_examples=50)
    @given(data=st.data())
    def test_overlap_symmetric_and_implied_by_contains(self, model, data):
        ids = space_ids(model)
        a = data.draw(st.sampled_from(ids))
        b = data.draw(st.sampled_from(ids))
        assert model.overlap(a, b) == model.overlap(b, a)
        if model.contains(a, b):
            assert model.overlap(a, b)

    @settings(max_examples=50)
    @given(data=st.data())
    def test_neighboring_irreflexive_symmetric(self, model, data):
        ids = space_ids(model)
        a = data.draw(st.sampled_from(ids))
        b = data.draw(st.sampled_from(ids))
        assert not model.neighboring(a, a)
        assert model.neighboring(a, b) == model.neighboring(b, a)

    @settings(max_examples=50)
    @given(data=st.data())
    def test_ancestor_at_level_is_ancestor_and_coarser(self, model, data):
        ids = space_ids(model)
        a = data.draw(st.sampled_from(ids))
        level = data.draw(st.sampled_from(list(SpaceType)))
        ancestor = model.ancestor_at_level(a, level)
        if ancestor is not None:
            assert model.contains(ancestor.space_id, a)
            assert ancestor.space_type is level

    @settings(max_examples=50)
    @given(data=st.data())
    def test_path_to_root_ends_at_root(self, model, data):
        ids = space_ids(model)
        a = data.draw(st.sampled_from(ids))
        path = model.path_to_root(a)
        assert path[0].space_id == a
        assert path[-1].is_root
        # Each hop is a parent link.
        for child, parent in zip(path, path[1:]):
            assert child.parent_id == parent.space_id

    @settings(max_examples=50)
    @given(data=st.data())
    def test_rooms_on_different_floors_never_neighbor(self, model, data):
        rooms = [s.space_id for s in model.spaces_of_type(SpaceType.ROOM)]
        a = data.draw(st.sampled_from(rooms))
        b = data.draw(st.sampled_from(rooms))
        floor_a = model.ancestor_at_level(a, SpaceType.FLOOR).space_id
        floor_b = model.ancestor_at_level(b, SpaceType.FLOOR).space_id
        if floor_a != floor_b:
            assert not model.neighboring(a, b)
            assert not model.overlap(a, b)


def reference_chain(model, space_id):
    """``space_id`` then its ancestors, walked over raw ``parent_id`` links."""
    parents = {s.space_id: s.parent_id for s in model}
    if space_id not in parents:
        raise SpatialError("unknown space %r" % space_id)
    chain = [space_id]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    return chain


def ids(spaces):
    return [s.space_id for s in spaces]


class TestStoredPaths:
    """The stored ancestor paths answer exactly as a walk over raw links."""

    @settings(max_examples=100)
    @given(data=st.data())
    def test_hierarchy_queries_match_reference_walk(self, data):
        model = data.draw(spatial_forests())
        model.validate()
        all_ids = sorted(s.space_id for s in model)
        a = data.draw(st.sampled_from(all_ids))
        b = data.draw(st.sampled_from(all_ids))
        level = data.draw(st.sampled_from(list(SpaceType)))
        chain_a, chain_b = reference_chain(model, a), reference_chain(model, b)

        assert model.contains(a, b) == (a in chain_b)
        assert model.contains(b, a) == (b in chain_a)
        assert model.path_ids(a) == frozenset(chain_a)
        assert ids(model.path_to_root(a)) == chain_a
        assert ids(model.ancestors(a)) == chain_a[1:]
        assert isinstance(model.path_to_root(a), list)
        assert isinstance(model.ancestors(a), list)

        at_level = [i for i in chain_a if model.get(i).space_type is level]
        found = model.ancestor_at_level(a, level)
        assert (found.space_id if found else None) == (at_level[0] if at_level else None)

        shared = [i for i in chain_b if i in chain_a]
        common = model.common_ancestor(a, b)
        assert (common.space_id if common else None) == (shared[0] if shared else None)

        box_a, box_b = model.get(a).footprint, model.get(b).footprint
        expected_overlap = (
            a in chain_b
            or b in chain_a
            or (box_a is not None and box_b is not None and box_a.overlaps(box_b))
        )
        assert model.overlap(a, b) == expected_overlap

    @settings(max_examples=50)
    @given(data=st.data())
    def test_unknown_ids(self, data):
        model = data.draw(spatial_forests())
        known = data.draw(st.sampled_from(sorted(s.space_id for s in model)))
        with pytest.raises(SpatialError):
            model.contains("nowhere", "nowhere")
        with pytest.raises(SpatialError):
            model.contains(known, "nowhere")
        assert model.contains("nowhere", known) is False
        for query in (model.ancestors, model.path_to_root, model.path_ids):
            with pytest.raises(SpatialError):
                query("nowhere")
        with pytest.raises(SpatialError):
            model.ancestor_at_level("nowhere", SpaceType.ROOM)
        with pytest.raises(SpatialError):
            model.common_ancestor(known, "nowhere")

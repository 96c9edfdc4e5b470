"""Hierarchical spatial model with the paper's three operators.

A :class:`SpatialModel` is a forest of :class:`Space` nodes (normally a
single tree rooted at a building).  It answers the queries the policy
language needs:

- ``contains(a, b)`` -- is ``b`` inside ``a`` in the hierarchy?
- ``neighboring(a, b)`` -- do ``a`` and ``b`` share a boundary?
- ``overlap(a, b)`` -- do the footprints of ``a`` and ``b`` intersect?

plus coarsening (``ancestor_at_level``), which the enforcement engine
uses to degrade location granularity (report "floor 2" instead of
"room 2011").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import SpatialError
from repro.spatial.geometry import Box, Point

_T = TypeVar("_T")


class SpaceType(enum.Enum):
    """Kinds of spaces in the hierarchy, ordered coarse to fine."""

    CAMPUS = "campus"
    BUILDING = "building"
    FLOOR = "floor"
    ZONE = "zone"
    CORRIDOR = "corridor"
    ROOM = "room"

    @property
    def granularity_rank(self) -> int:
        """Coarseness rank: lower means coarser (campus=0 ... room=5)."""
        return _GRANULARITY_RANK[self]


_GRANULARITY_RANK: Dict[SpaceType, int] = {t: i for i, t in enumerate(SpaceType)}


@dataclass
class Space:
    """A node in the spatial hierarchy.

    Parameters
    ----------
    space_id:
        Stable unique identifier, e.g. ``"dbh-2011"``.
    name:
        Human-readable name, e.g. ``"Donald Bren Hall 2011"``.
    space_type:
        The :class:`SpaceType` of this node.
    footprint:
        Optional 2D footprint used by geometric operators.
    parent_id, child_ids:
        Owned by :meth:`SpatialModel.add_space`, which also stores the
        space's ancestor path; rewiring them afterwards leaves that path
        stale, which :meth:`SpatialModel.validate` reports.
    """

    space_id: str
    name: str
    space_type: SpaceType
    footprint: Optional[Box] = None
    parent_id: Optional[str] = None
    child_ids: List[str] = field(default_factory=list)
    attributes: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.space_id:
            raise SpatialError("space_id must be non-empty")

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    @property
    def is_leaf(self) -> bool:
        return not self.child_ids


class SpatialModel:
    """Registry and query engine over a building's spaces.

    ``add_space`` only attaches new leaves, so each space's path (the
    space, then its ancestors to the root) is stored once at insert and
    every hierarchy query reads it instead of walking parent links.
    """

    def __init__(self) -> None:
        self._spaces: Dict[str, Space] = {}
        self._paths: Dict[str, Tuple[Space, ...]] = {}
        self._path_ids: Dict[str, FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_space(self, space: Space, parent_id: Optional[str] = None) -> Space:
        """Register ``space``, optionally attaching it under ``parent_id``.

        Raises :class:`SpatialError` on duplicate ids, unknown parents,
        or a child whose type is coarser than its parent's.
        """
        if space.space_id in self._spaces:
            raise SpatialError("duplicate space id %r" % space.space_id)
        if parent_id is not None:
            parent = self.get(parent_id)
            if space.space_type.granularity_rank < parent.space_type.granularity_rank:
                raise SpatialError(
                    "child %r (%s) cannot be coarser than parent %r (%s)"
                    % (space.space_id, space.space_type.value,
                       parent.space_id, parent.space_type.value)
                )
            space.parent_id = parent_id
            parent.child_ids.append(space.space_id)
            path = (space,) + self._paths[parent_id]
        else:
            path = (space,)
        self._spaces[space.space_id] = space
        self._paths[space.space_id] = path
        self._path_ids[space.space_id] = frozenset(s.space_id for s in path)
        return space

    def add(
        self,
        space_id: str,
        name: str,
        space_type: SpaceType,
        parent_id: Optional[str] = None,
        footprint: Optional[Box] = None,
        **attributes: str,
    ) -> Space:
        """Convenience wrapper building a :class:`Space` and adding it."""
        space = Space(
            space_id=space_id,
            name=name,
            space_type=space_type,
            footprint=footprint,
            attributes=dict(attributes),
        )
        return self.add_space(space, parent_id=parent_id)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, space_id: str) -> Space:
        return _known(self._spaces, space_id)

    def __contains__(self, space_id: str) -> bool:
        return space_id in self._spaces

    def __len__(self) -> int:
        return len(self._spaces)

    def __iter__(self) -> Iterator[Space]:
        return iter(self._spaces.values())

    def spaces_of_type(self, space_type: SpaceType) -> List[Space]:
        return [s for s in self._spaces.values() if s.space_type is space_type]

    def roots(self) -> List[Space]:
        return [s for s in self._spaces.values() if s.is_root]

    # ------------------------------------------------------------------
    # Hierarchy traversal
    # ------------------------------------------------------------------
    def parent(self, space_id: str) -> Optional[Space]:
        space = self.get(space_id)
        if space.parent_id is None:
            return None
        return self.get(space.parent_id)

    def children(self, space_id: str) -> List[Space]:
        return [self.get(cid) for cid in self.get(space_id).child_ids]

    def ancestors(self, space_id: str) -> List[Space]:
        """Ancestors from immediate parent up to the root."""
        return list(_known(self._paths, space_id)[1:])

    def path_to_root(self, space_id: str) -> List[Space]:
        """The space followed by its ancestors up to the root."""
        return list(_known(self._paths, space_id))

    def path_ids(self, space_id: str) -> FrozenSet[str]:
        """Ids of the space and its ancestors: the spaces containing it."""
        return _known(self._path_ids, space_id)

    def descendants(self, space_id: str) -> List[Space]:
        """All spaces strictly below ``space_id``, depth-first."""
        result: List[Space] = []
        stack = list(reversed(self.get(space_id).child_ids))
        while stack:
            child = self.get(stack.pop())
            result.append(child)
            stack.extend(reversed(child.child_ids))
        return result

    def leaves_under(self, space_id: str) -> List[Space]:
        space = self.get(space_id)
        if space.is_leaf:
            return [space]
        return [s for s in self.descendants(space_id) if s.is_leaf]

    # ------------------------------------------------------------------
    # The paper's operators
    # ------------------------------------------------------------------
    def contains(self, outer_id: str, inner_id: str) -> bool:
        """The paper's ``contained`` operator, reflexive on equal ids."""
        return outer_id in _known(self._path_ids, inner_id)

    def neighboring(self, a_id: str, b_id: str) -> bool:
        """Whether two distinct spaces share a boundary.

        Spaces without footprints fall back to hierarchy adjacency:
        siblings under the same parent are treated as neighbors.
        """
        if a_id == b_id:
            return False
        a, b = self.get(a_id), self.get(b_id)
        if a.footprint is not None and b.footprint is not None:
            return a.footprint.touches(b.footprint)
        return a.parent_id is not None and a.parent_id == b.parent_id

    def overlap(self, a_id: str, b_id: str) -> bool:
        """Whether two spaces share area.

        Hierarchical containment counts as overlap; otherwise the
        footprints decide.  Spaces lacking footprints only overlap via
        containment.
        """
        if self.contains(a_id, b_id) or self.contains(b_id, a_id):
            return True
        a, b = self.get(a_id), self.get(b_id)
        if a.footprint is None or b.footprint is None:
            return False
        return a.footprint.overlaps(b.footprint)

    # ------------------------------------------------------------------
    # Granularity support
    # ------------------------------------------------------------------
    def ancestor_at_level(self, space_id: str, level: SpaceType) -> Optional[Space]:
        """The ancestor of ``space_id`` (or itself) at ``level``.

        Used to coarsen a location: the room ``dbh-2011`` coarsened to
        :attr:`SpaceType.FLOOR` becomes the floor that contains it.
        Returns ``None`` when no ancestor of that type exists.
        """
        for space in _known(self._paths, space_id):
            if space.space_type is level:
                return space
        return None

    def locate_point(self, point: Point) -> Optional[Space]:
        """The finest-granularity space whose footprint contains ``point``."""
        best: Optional[Space] = None
        for space in self._spaces.values():
            if space.footprint is None or not space.footprint.contains_point(point):
                continue
            if best is None or (
                space.space_type.granularity_rank
                > best.space_type.granularity_rank
            ):
                best = space
        return best

    def common_ancestor(self, a_id: str, b_id: str) -> Optional[Space]:
        """Lowest common ancestor of two spaces, or ``None``."""
        a_path = self.path_ids(a_id)
        for space in _known(self._paths, b_id):
            if space.space_id in a_path:
                return space
        return None

    def validate(self) -> None:
        """Check structural invariants; raises :class:`SpatialError`.

        Invariants: every parent/child link is symmetric, there are no
        cycles, child footprints lie within parent footprints when both
        are present, and each stored path still follows the parent links.
        """
        for space in self._spaces.values():
            if space.parent_id is not None:
                parent = self.get(space.parent_id)
                if space.space_id not in parent.child_ids:
                    raise SpatialError(
                        "asymmetric link: %r -> %r" % (space.space_id, parent.space_id)
                    )
            for child_id in space.child_ids:
                child = self.get(child_id)
                if child.parent_id != space.space_id:
                    raise SpatialError(
                        "asymmetric link: %r -> %r" % (space.space_id, child_id)
                    )
                if (
                    space.footprint is not None
                    and child.footprint is not None
                    and not space.footprint.expand(1e-9).contains_box(child.footprint)
                ):
                    raise SpatialError(
                        "child %r footprint escapes parent %r" % (child_id, space.space_id)
                    )
            # Cycle check: walking to the root must terminate.
            chain = [space.space_id]
            current = space.parent_id
            while current is not None:
                if current in chain:
                    raise SpatialError("cycle through %r" % current)
                chain.append(current)
                current = self.get(current).parent_id
            if chain != [s.space_id for s in self._paths[space.space_id]]:
                raise SpatialError("stale stored path for %r" % space.space_id)


def _known(table: Dict[str, _T], space_id: str) -> _T:
    try:
        return table[space_id]
    except KeyError:
        raise SpatialError("unknown space %r" % space_id) from None


def build_simple_building(
    building_id: str,
    floors: int,
    rooms_per_floor: int,
    floor_width: float = 80.0,
    floor_depth: float = 30.0,
) -> SpatialModel:
    """Construct a rectangular building with a corridor per floor.

    A convenience used by tests and the simulation: each floor is a
    ``floor_width x floor_depth`` slab with one central corridor and
    ``rooms_per_floor`` rooms split across its two sides.
    """
    if floors <= 0 or rooms_per_floor <= 0:
        raise SpatialError("floors and rooms_per_floor must be positive")
    model = SpatialModel()
    # Each floor occupies its own y-band in the planar coordinate
    # frame (with a gap between bands) so spaces on different floors
    # never touch or overlap geometrically.
    floor_gap = max(1.0, floor_depth / 10.0)
    building_box = Box(
        0.0,
        0.0,
        floor_width,
        floors * floor_depth + (floors - 1) * floor_gap,
    )
    model.add(building_id, building_id.upper(), SpaceType.BUILDING, footprint=building_box)
    corridor_depth = floor_depth / 5.0
    for floor_no in range(1, floors + 1):
        y0 = (floor_no - 1) * (floor_depth + floor_gap)
        floor_id = "%s-f%d" % (building_id, floor_no)
        model.add(
            floor_id,
            "Floor %d" % floor_no,
            SpaceType.FLOOR,
            parent_id=building_id,
            footprint=Box(0.0, y0, floor_width, y0 + floor_depth),
        )
        corridor = Box(
            0.0,
            y0 + (floor_depth - corridor_depth) / 2.0,
            floor_width,
            y0 + (floor_depth + corridor_depth) / 2.0,
        )
        model.add(
            "%s-corridor" % floor_id,
            "Corridor %d" % floor_no,
            SpaceType.CORRIDOR,
            parent_id=floor_id,
            footprint=corridor,
        )
        per_side = (rooms_per_floor + 1) // 2
        room_width = floor_width / per_side
        room_depth = (floor_depth - corridor_depth) / 2.0
        for i in range(rooms_per_floor):
            side = i % 2  # 0 = south of corridor, 1 = north
            slot = i // 2
            min_x = slot * room_width
            if side == 0:
                min_y, max_y = y0, y0 + room_depth
            else:
                min_y, max_y = y0 + floor_depth - room_depth, y0 + floor_depth
            room_no = floor_no * 1000 + i + 1
            model.add(
                "%s-%d" % (building_id, room_no),
                "Room %d" % room_no,
                SpaceType.ROOM,
                parent_id=floor_id,
                footprint=Box(min_x, min_y, min(min_x + room_width, floor_width), max_y),
            )
    return model


def iter_room_ids(model: SpatialModel) -> Iterable[str]:
    """Ids of all rooms in ``model`` (helper for workload generators)."""
    return (s.space_id for s in model.spaces_of_type(SpaceType.ROOM))

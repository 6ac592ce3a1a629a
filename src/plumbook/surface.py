"""Polygon presentations of compact orientable surfaces with boundary.

A surface is described by a single polygon whose sides are listed in
counterclockwise order.  Each side is either a free boundary side or one half
of a glued pair; regluing the pairs recovers the surface.  The two halves of a
pair carry distinct end markers (left/right), which pins the identification to
the orientation-compatible one: traversing the left occurrence forward matches
traversing the right occurrence backward.

Everything downstream (arc words, open books, plumbings) works on top of this
one representation, so the invariants here are deliberately strict: boundary
labels are unique, every pair occurs exactly once per end marker, and every
polygon corner must land on the surface boundary.  The last condition keeps
the chamber decomposition of the universal cover a tree, which the arc
calculus relies on.

A presentation is validated once per object: the first validation that
passes keeps the indexed view it built on the object, for every later
operation.  Presentations are frozen, so that view cannot go stale, and it
is not a field, so equality, hashing, repr and documents ignore it.  An
invalid presentation keeps nothing and raises on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import InvalidPresentationError, Violation


class End(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class Boundary:
    """A free boundary side, named so arcs can anchor endpoints to it."""

    label: str


@dataclass(frozen=True)
class Glued:
    """One half of an identified pair of sides."""

    pair: str
    end: End


Side = Union[Boundary, Glued]


@dataclass(frozen=True)
class PolygonPresentation:
    """The polygon, sides in counterclockwise order.

    Corner i is the counterclockwise start of side i, so side i runs from
    corner i to corner i+1 (mod n).
    """

    sides: tuple[Side, ...]

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(self.sides))


@dataclass(frozen=True)
class BoundaryPoint:
    """A marked point on a boundary side, at a rational position in (0, 1).

    Positions order points along the side in the counterclockwise direction
    of the polygon.  Only the relative order of positions ever matters.
    """

    side: str
    position: Fraction

    def __post_init__(self):
        object.__setattr__(self, "position", Fraction(self.position))


class _Geometry:
    """Indexed view of a presentation shared by the arc machinery."""

    __slots__ = ("n", "boundary_index", "pair_sides")

    def __init__(self, p: PolygonPresentation):
        self.n = len(p.sides)
        self.boundary_index: dict[str, int] = {}
        left: dict[str, int] = {}
        right: dict[str, int] = {}
        for i, s in enumerate(p.sides):
            if isinstance(s, Boundary):
                self.boundary_index[s.label] = i
            elif s.end is End.LEFT:
                left[s.pair] = i
            else:
                right[s.pair] = i
        self.pair_sides: dict[str, tuple[int, int]] = {
            pair: (left[pair], right[pair]) for pair in left if pair in right
        }


def _geometry(p: PolygonPresentation) -> _Geometry:
    """Geometry of p, validated on the first call and kept on p."""
    geo = p.__dict__.get("_geometry")
    if geo is None:
        violations = validate(p)
        if violations:
            raise InvalidPresentationError(violations)
        geo = p.__dict__["_geometry"]
    return geo


def _corner_orbits(geo: _Geometry) -> list[int]:
    """Union-find roots of polygon corners under the pair identifications.

    Gluing left occurrence i to right occurrence j reversed identifies
    corner i with corner j+1 and corner i+1 with corner j.
    """
    n = geo.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i, j in geo.pair_sides.values():
        union(i, (j + 1) % n)
        union((i + 1) % n, j)
    return [find(c) for c in range(n)]


def validate(p: PolygonPresentation) -> list[Violation]:
    """Check all presentation invariants; empty list means valid.  A valid
    presentation keeps the first geometry built here: its arcs refer to it."""
    out: list[Violation] = []
    if not p.sides:
        return [Violation("EmptyPolygon", "presentation has no sides")]

    seen_labels: set[str] = set()
    occurrences: dict[str, list[End]] = {}
    for s in p.sides:
        if isinstance(s, Boundary):
            if s.label in seen_labels:
                out.append(Violation("DuplicateLabel", f"boundary label {s.label!r} used twice"))
            seen_labels.add(s.label)
        else:
            occurrences.setdefault(s.pair, []).append(s.end)

    pairs_ok = True
    for pair, ends in sorted(occurrences.items()):
        if len(ends) != 2:
            out.append(
                Violation("UnmatchedPair", f"pair {pair!r} occurs {len(ends)} time(s), expected 2")
            )
            pairs_ok = False
        elif ends[0] is ends[1]:
            # two same-end halves cannot be glued orientation-compatibly
            out.append(
                Violation(
                    "UnmatchedPair",
                    f"pair {pair!r} has two {ends[0].value} halves, expected one of each",
                )
            )
            pairs_ok = False

    if not seen_labels:
        out.append(Violation("NoBoundary", "all sides glued: closed surfaces are rejected"))

    if pairs_ok and seen_labels:
        n = len(p.sides)
        geo = _Geometry(p)
        roots = _corner_orbits(geo)
        # corner c borders sides c-1 and c; it is a boundary vertex iff some
        # corner in its orbit touches a Boundary side
        on_boundary: set[int] = set()
        for c in range(n):
            if isinstance(p.sides[c], Boundary) or isinstance(p.sides[(c - 1) % n], Boundary):
                on_boundary.add(roots[c])
        orbits: dict[int, list[int]] = {}
        for c in range(n):
            orbits.setdefault(roots[c], []).append(c)
        for root in sorted(orbits.keys() - on_boundary):
            out.append(
                Violation(
                    "InteriorVertex",
                    f"corner orbit {orbits[root]} lies in the surface interior; "
                    "arc normal forms need every polygon vertex on the boundary",
                )
            )
    if not out:
        p.__dict__.setdefault("_geometry", geo)
    return out


def euler_characteristic(p: PolygonPresentation) -> int:
    """V - E + F of the glued-up complex: one face, one edge per boundary side
    or glued pair, and one vertex per corner orbit."""
    geo = _geometry(p)
    vertices = len(set(_corner_orbits(geo)))
    edges = len(geo.boundary_index) + len(geo.pair_sides)
    return vertices - edges + 1


def boundary_components(p: PolygonPresentation) -> tuple[tuple[str, ...], ...]:
    """Boundary circles as cyclic words of boundary-side labels.

    Walk corners counterclockwise: a boundary side is emitted and crossed,
    while a glued side is jumped (the walk continues at the corner identified
    with the far end of its partner).  Each cycle is one boundary circle.
    """
    geo = _geometry(p)
    n = geo.n
    components: list[tuple[str, ...]] = []
    emitted: set[int] = set()
    for start in range(n):
        if not isinstance(p.sides[start], Boundary) or start in emitted:
            continue
        word: list[str] = []
        c = start
        while True:
            side = p.sides[c]
            if isinstance(side, Boundary):
                if c in emitted:
                    break
                emitted.add(c)
                word.append(side.label)
                c = (c + 1) % n
            else:
                i, j = geo.pair_sides[side.pair]
                c = (j + 1) % n if c == i else (i + 1) % n
            if c == start:
                break
        components.append(tuple(word))
    return tuple(components)


def genus(p: PolygonPresentation) -> int:
    chi = euler_characteristic(p)
    b = len(boundary_components(p))
    num = 2 - chi - b
    if num < 0 or num % 2:
        # unreachable with left/right paired gluings; kept as a hard check
        raise InvalidPresentationError(
            [Violation("NonOrientable", f"chi={chi}, b={b} admit no nonnegative integer genus")]
        )
    return num // 2

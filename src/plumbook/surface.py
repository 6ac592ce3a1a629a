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

A presentation is validated once per object: validation walks the sides
once and builds the indexed view from that walk, corner orbits included,
and the first validation that passes keeps it on the object for every
later operation (geometry(p); the Euler characteristic reads its orbits).
Presentations are frozen, so that view cannot go stale, and it is not a
field, so equality, hashing, repr and documents ignore it.  An invalid
presentation keeps nothing and raises on every call.
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
        # an exact Fraction is kept as it is; anything else, subclasses
        # included, becomes one
        if type(self.position) is not Fraction:
            object.__setattr__(self, "position", Fraction(self.position))


class Geometry:
    """Indexed view of a valid presentation, kept on it: n, the side count;
    boundary_index, the side of each boundary label, in side order;
    pair_sides, the (left, right) sides of each pair, in the side order of
    the left halves; roots, the root of each corner's orbit under the pair
    identifications.  Arcs, book checks and the DOT writer read it."""

    __slots__ = ("n", "boundary_index", "pair_sides", "roots")

    def __init__(
        self, n: int, boundary_index: dict[str, int], pair_sides: dict[str, tuple[int, int]]
    ):
        self.n = n
        self.boundary_index = boundary_index
        self.pair_sides = pair_sides
        # union-find over corners: gluing left occurrence i to right
        # occurrence j reversed identifies corner i with corner j+1 and
        # corner i+1 with corner j; the union order picks each root
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in pair_sides.values():
            for x, y in ((i, (j + 1) % n), ((i + 1) % n, j)):
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
        self.roots = [find(c) for c in range(n)]


def geometry(p: PolygonPresentation) -> Geometry:
    """Geometry of p, validated on the first call and kept on p."""
    geo = p.__dict__.get("_geometry")
    if geo is None:
        violations = validate(p)
        if violations:
            raise InvalidPresentationError(violations)
        geo = p.__dict__["_geometry"]
    return geo


def validate(p: PolygonPresentation) -> list[Violation]:
    """Check all presentation invariants; empty list means valid.  A valid
    presentation keeps the geometry built from this walk of its sides: its
    arcs refer to it."""
    out: list[Violation] = []
    if not p.sides:
        return [Violation("EmptyPolygon", "presentation has no sides")]

    n = len(p.sides)
    boundary_index: dict[str, int] = {}
    boundary_sides: list[int] = []
    occurrences: dict[str, list[End]] = {}
    left: dict[str, int] = {}
    right: dict[str, int] = {}
    for i, s in enumerate(p.sides):
        if isinstance(s, Boundary):
            if s.label in boundary_index:
                out.append(Violation("DuplicateLabel", f"boundary label {s.label!r} used twice"))
            boundary_index[s.label] = i
            boundary_sides.append(i)
        else:
            occurrences.setdefault(s.pair, []).append(s.end)
            (left if s.end is End.LEFT else right)[s.pair] = i

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

    if not boundary_index:
        out.append(Violation("NoBoundary", "all sides glued: closed surfaces are rejected"))

    if pairs_ok and boundary_index:
        geo = Geometry(n, boundary_index, {pair: (i, right[pair]) for pair, i in left.items()})
        roots = geo.roots
        # an orbit is on the boundary iff it holds a corner of a boundary
        # side, a duplicated label's sides included
        on_boundary = {roots[c] for i in boundary_sides for c in (i, (i + 1) % n)}
        orbits: dict[int, list[int]] = {}
        for c, root in enumerate(roots):
            orbits.setdefault(root, []).append(c)
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
    geo = geometry(p)
    vertices = len(set(geo.roots))
    edges = len(geo.boundary_index) + len(geo.pair_sides)
    return vertices - edges + 1


def boundary_components(p: PolygonPresentation) -> tuple[tuple[str, ...], ...]:
    """Boundary circles as cyclic words of boundary-side labels.

    Walk corners counterclockwise: a boundary side is emitted and crossed,
    while a glued side is jumped (the walk continues at the corner identified
    with the far end of its partner).  Each cycle is one boundary circle.
    """
    geo = geometry(p)
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

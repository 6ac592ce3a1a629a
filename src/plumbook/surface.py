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

A presentation keeps its indexed view (geometry(p)) for every operation.
The two constructions of this package, star sums and stabilizations, lay
out the sides themselves, so they write that view with the presentation
and prove it (certified_presentation); no walk runs on them.  Documents
and callers' presentations are validated once per object: validation
walks the sides once, builds the view from that walk, and the first
validation that passes keeps it on the object.  Corners are read by one
walk, which crosses one side at a time and closes into cycles: the cycles
through a boundary side are the boundary circles, in order of their first
boundary side, and the rest are the interior vertices validation refuses,
in order of their smallest corner.  Presentations are frozen, so the view
cannot go stale, and it is not a field, so equality, hashing, repr and
documents ignore it.  An invalid presentation keeps nothing and raises on
every call.
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
        # included, becomes one, but a float or bool is no exact position
        if type(self.position) is not Fraction:
            if isinstance(self.position, (bool, float)):
                raise ValueError(f"position must be exact, got {self.position!r}")
            object.__setattr__(self, "position", Fraction(self.position))


class Geometry:
    """Indexed view of a valid presentation, kept on it: boundary_index,
    the side of each boundary label, in side order; pair_sides, the (left,
    right) sides of each pair, in the side order of the left halves.  It
    holds no corner data: the corner walk reads the sides and pair_sides.
    Arcs, book checks and the DOT writer read it."""

    __slots__ = ("boundary_index", "pair_sides")

    def __init__(self, boundary_index: dict[str, int], pair_sides: dict[str, tuple[int, int]]):
        self.boundary_index = boundary_index
        self.pair_sides = pair_sides


def _corner_cycles(
    sides: tuple[Side, ...], pair_sides: dict[str, tuple[int, int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """The corner walk: (boundary cycles, interior cycles).

    From corner c, cross side c: a boundary side leads to corner c + 1, and
    a glued side, left half i and right half j, leads to the corner glued to
    its far end, j + 1 if c = i and i + 1 otherwise.  Each corner has one
    successor and one predecessor, so every walk closes into a cycle.  The
    walks from the boundary sides, in side order, are the boundary circles,
    each listing its corners from its first boundary side in walk order.
    Every corner left over lies on a cycle through glued sides only, one
    vertex in the surface interior; those cycles come in order of their
    smallest corner, each listing its corners in increasing order.
    """
    n = len(sides)
    unseen = [True] * n

    def cycle(c: int) -> list[int]:
        corners = []
        while unseen[c]:
            unseen[c] = False
            corners.append(c)
            side = sides[c]
            if isinstance(side, Boundary):
                c = (c + 1) % n
            else:
                i, j = pair_sides[side.pair]
                c = (j + 1 if c == i else i + 1) % n
        return corners

    boundary = [cycle(c) for c in range(n) if isinstance(sides[c], Boundary) and unseen[c]]
    return boundary, [sorted(cycle(c)) for c in range(n) if unseen[c]]


def certified_presentation(
    sides: tuple[Side, ...],
    boundary_index: dict[str, int],
    pair_sides: dict[str, tuple[int, int]],
) -> PolygonPresentation:
    """The presentation of sides, keeping the given geometry as validate
    keeps the one it builds, with no walk.

    Precondition, proven by the caller: the sides are valid, and both maps
    equal, dict order included, what validate would build: boundary_index
    the side of each boundary label in side order, pair_sides the (left,
    right) sides of each pair in the side order of the left halves.
    """
    p = PolygonPresentation(sides)
    p.__dict__["_geometry"] = Geometry(boundary_index, pair_sides)
    return p


def geometry(p: PolygonPresentation) -> Geometry:
    """Geometry of p: written by its construction, or validated on the
    first call and kept on p."""
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

    boundary_index: dict[str, int] = {}
    occurrences: dict[str, list[End]] = {}
    left: dict[str, int] = {}
    right: dict[str, int] = {}
    for i, s in enumerate(p.sides):
        if isinstance(s, Boundary):
            if s.label in boundary_index:
                out.append(Violation("DuplicateLabel", f"boundary label {s.label!r} used twice"))
            boundary_index[s.label] = i
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
        geo = Geometry(boundary_index, {pair: (i, right[pair]) for pair, i in left.items()})
        for corners in _corner_cycles(p.sides, geo.pair_sides)[1]:
            out.append(
                Violation(
                    "InteriorVertex",
                    f"corner orbit {corners} lies in the surface interior; "
                    "arc normal forms need every polygon vertex on the boundary",
                )
            )
    if not out:
        p.__dict__.setdefault("_geometry", geo)
    return out


def euler_characteristic(p: PolygonPresentation) -> int:
    """V - E + F of the glued-up complex, which is 1 - P for P glued pairs.

    There is one face, and one edge per boundary side or glued pair, so
    E = B + P for B boundary sides.  A valid presentation has no interior
    vertex, so every vertex lies on a boundary circle, and each boundary
    vertex is the start of exactly one boundary side: V = B.  So
    chi = B - (B + P) + 1 = 1 - P."""
    return 1 - len(geometry(p).pair_sides)


def boundary_components(p: PolygonPresentation) -> tuple[tuple[str, ...], ...]:
    """Boundary circles as cyclic words of boundary-side labels: the
    boundary sides each boundary cycle of the corner walk crosses, from its
    first boundary side in side order."""
    sides = p.sides
    boundary = _corner_cycles(sides, geometry(p).pair_sides)[0]
    return tuple(
        tuple(sides[c].label for c in corners if isinstance(sides[c], Boundary))
        for corners in boundary
    )


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

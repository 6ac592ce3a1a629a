"""Properly embedded arcs as crossing words, with intersection and order tools.

An arc is stored as its two boundary endpoints plus the sequence of glued
pairs it crosses, each crossing signed by direction (+1 exits through the
left half of the pair, -1 through the right half).  On a presentation whose
polygon corners all lie on the surface boundary, the chambers of the
universal cover form a tree, reduced words are tree geodesics, and every
question below becomes finite combinatorics on the polygon's cyclic order:

* interior intersection numbers count, over all relative placements of two
  lifted strands, the placements where the strands are forced to cross;
  a placement either shares a corridor run (decided by comparing entry and
  exit order around the end chambers) or meets in a single chamber (decided
  by chord linking on the polygon circle); an arc's self-intersection
  number is the same count taken for the arc paired with itself;
* the first-divergence comparison walks two arcs out of a shared boundary
  side and reports which one peels off to the right, measured
  counterclockwise from the point of entry into the chamber where they part;
* twisting about a band core inserts one signed crossing for every essential
  meeting of the arc with the core.

All three read one counterclockwise order on the polygon circle, the tuple
order of addresses rotated to start at a reference (_key), with exact
integer and Fraction comparisons only.

Exact endpoint coincidences never count as crossings: strands emanating from
a shared point can always be combed apart.

An arc is checked once per presentation object: reduce keeps, on the arc
it returns, the indexed view that every query below reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import (
    MixedSurfacesError,
    NoSharedStartError,
    UnknownPairError,
)
from .surface import BoundaryPoint, PolygonPresentation, _Geometry, _geometry


@dataclass(frozen=True)
class Crossing:
    pair: str
    direction: int

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise ValueError(f"crossing direction must be +1 or -1, got {self.direction}")

    def inverse(self) -> "Crossing":
        return Crossing(self.pair, -self.direction)


@dataclass(frozen=True)
class Arc:
    start: BoundaryPoint
    end: BoundaryPoint
    crossings: tuple[Crossing, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(self.crossings))


class Divergence(Enum):
    RIGHT_OF = "RightOf"
    LEFT_OF = "LeftOf"
    EQUAL = "Equal"


# An address is a location on the polygon circle: a marked point on a side
# (side_index, position), 0 < position < 1, or a whole glued side acting as
# a door (side_index, 0), alone on its side.  Tuple order is the
# counterclockwise order from the start of side 0; _key rotates it to start
# at any reference address.
Address = tuple[int, Union[Fraction, int]]


def _doors(geo: _Geometry, c: Crossing) -> tuple[int, int]:
    """Sides through which a strand performing c leaves its chamber and
    re-enters the next one."""
    left, right = geo.pair_sides[c.pair]
    return (left, right) if c.direction > 0 else (right, left)


def _check_endpoint(geo: _Geometry, pt: BoundaryPoint) -> None:
    if pt.side not in geo.boundary_index:
        raise MixedSurfacesError(f"boundary side {pt.side!r} is not on this presentation")
    if not (0 < pt.position < 1):
        raise ValueError(f"endpoint position {pt.position} outside the open unit interval")


class _ArcData:
    """Kept view of a reduced arc used by the counting machinery: the
    geometry it was checked against, one chamber slot per word prefix, each
    slot holding its entry and exit address, the same two addresses in
    increasing order as the slot's chord, and the word as its sequence of
    exit doors (a door side names one pair and direction).  Built only by
    reduce, for the arc it returns, and for that arc's kept reversal."""

    __slots__ = ("geo", "arc", "letters", "slots", "chords", "_reversed")

    def __init__(self, geo: _Geometry, arc: Arc):
        self.geo = geo
        self.arc = arc
        self._reversed: Optional[_ArcData] = None
        doors = [_doors(geo, c) for c in arc.crossings]
        self.letters = [out for out, _ in doors]
        entries: list[Address] = [(geo.boundary_index[arc.start.side], arc.start.position)]
        entries += [(in_, 0) for _, in_ in doors]
        exits: list[Address] = [(side, 0) for side in self.letters]
        exits.append((geo.boundary_index[arc.end.side], arc.end.position))
        self.slots: list[tuple[Address, Address]] = list(zip(entries, exits))
        self.chords = [(x, y) if x < y else (y, x) for x, y in self.slots]

    @property
    def reversed(self) -> "_ArcData":
        """View of the kept reversal of the arc (reverse)."""
        return reverse(self.arc).__dict__["_view"]


def _key(ref: Address, addr: Address) -> tuple[bool, Address]:
    """Counterclockwise position of addr seen from ref: addresses from ref on
    come first in tuple order, those behind it wrap to the end."""
    return addr < ref, addr


def _linked(a: tuple[Address, Address], b: tuple[Address, Address]) -> bool:
    """Whether two chords, each given as its addresses in increasing order,
    interleave around the polygon circle: single-chamber strand segments
    along them must cross.  Chords sharing an address (a door or an exact
    point) tie and never cross."""
    a1, a2 = a
    b1, b2 = b
    if a1 == b1 or a1 == b2 or a2 == b1 or a2 == b2:
        return False
    return (a1 < b1 < a2) != (a1 < b2 < a2)


def _core_chord(geo: _Geometry, pair: str) -> tuple[Address, Address]:
    """The chord a band core runs along in every chamber: between its doors."""
    left, right = sorted(geo.pair_sides[pair])
    return (left, 0), (right, 0)


def reduce(p: PolygonPresentation, a: Arc) -> Arc:
    """Cancel adjacent opposite crossings of the same pair until none remain.

    On presentations without interior vertices this free cancellation is
    complete: reduced words are universal-cover geodesics, so no further
    boundary-parallel backtracks can exist, and the reduced word together
    with the endpoints determines the endpoint-fixed isotopy class.

    The returned arc keeps its view (a non-field attribute, invisible to
    ==, hash, repr and documents), which holds the geometry it was checked
    and reduced against, so reducing it again on the same presentation
    object returns it at once; any other presentation checks it again.
    """
    geo = _geometry(p)
    view = a.__dict__.get("_view")
    if view is not None and view.geo is geo:
        return a
    for c in a.crossings:
        if c.pair not in geo.pair_sides:
            raise UnknownPairError(c.pair)
    _check_endpoint(geo, a.start)
    _check_endpoint(geo, a.end)
    if a.start == a.end:
        raise ValueError("arc endpoints coincide exactly; use distinct positions")
    stack: list[Crossing] = []
    for c in a.crossings:
        if stack and stack[-1].pair == c.pair and stack[-1].direction == -c.direction:
            stack.pop()
        else:
            stack.append(c)
    r = Arc(a.start, a.end, tuple(stack))
    object.__setattr__(r, "_view", _ArcData(geo, r))
    return r


def _reduced_view(p: PolygonPresentation, a: Arc) -> _ArcData:
    """The kept view of a's reduced representative on p."""
    return reduce(p, a).__dict__["_view"]


def reverse(a: Arc) -> Arc:
    """a run backwards.  A reduced arc keeps its reversal, built once with its
    own view, so reverse(reverse(a)) is a; a reversed reduced word is
    reduced, on the same endpoints and pairs."""
    view = a.__dict__.get("_view")
    if view is not None and view._reversed is not None:
        return view._reversed.arc
    r = Arc(a.end, a.start, tuple(c.inverse() for c in reversed(a.crossings)))
    if view is not None:
        view._reversed = _ArcData(view.geo, r)
        view._reversed._reversed = view
        object.__setattr__(r, "_view", view._reversed)
    return r


def _forward_alignments(u: list[int], w: list[int]) -> Iterator[tuple[int, int, int]]:
    """Maximal common-subword placements (m0, k0, length) of u against w,
    ordered by m0 and then k0.

    Each corresponds to one relative placement of the two lifted strands in
    which they run through at least one shared corridor.  The candidate
    starts k0 for u[m0] come from an index of w's letters, so only matching
    positions are visited.
    """
    at: dict[int, list[int]] = {}
    for k, x in enumerate(w):
        at.setdefault(x, []).append(k)
    for m0, x in enumerate(u):
        for k0 in at.get(x, ()):
            if m0 and k0 and u[m0 - 1] == w[k0 - 1]:
                continue
            r = 1
            while m0 + r < len(u) and k0 + r < len(w) and u[m0 + r] == w[k0 + r]:
                r += 1
            yield m0, k0, r


def _corridor_linked(da: _ArcData, db: _ArcData, m0: int, k0: int, r: int) -> bool:
    """Whether two strands sharing corridors m0..m0+r / k0..k0+r must cross.

    Entries into the first shared chamber are ordered counterclockwise from
    the common exit door, exits from the last shared chamber from the common
    entry door; the strands are forced to cross exactly when the two orders
    agree (each door passage reverses the transverse order once and is
    compensated by the chamber between, leaving this invariant).
    """
    ein_a, d_out = da.slots[m0]
    ein_b = db.slots[k0][0]
    if ein_a == ein_b:
        return False
    d_in, eout_a = da.slots[m0 + r]
    eout_b = db.slots[k0 + r][1]
    if eout_a == eout_b:
        return False
    order_in = _key(d_out, ein_a) < _key(d_out, ein_b)
    order_out = _key(d_in, eout_a) < _key(d_in, eout_b)
    return order_in == order_out


def _count(da: _ArcData, db: _ArcData) -> int:
    """Forced crossings of a against b over all relative placements, b run
    in both directions.  With db is da this is the self-count: the
    placements laying the strand on itself or on its own reversal are the
    same lift, not a pair, and every other one is met from both strands."""
    same = db is da
    total = 0
    for m0, k0, r in _forward_alignments(da.letters, db.letters):
        if not (same and m0 == k0):
            total += _corridor_linked(da, db, m0, k0, r)
    # a crossing-free strand shares no corridor, so b's reversal is not built
    if da.letters and db.letters:
        db_rev = db.reversed
        for m0, k0, r in _forward_alignments(da.letters, db_rev.letters):
            if not (same and m0 + k0 == len(da.letters)):
                total += _corridor_linked(da, db_rev, m0, k0, r)
    for m, ca in enumerate(da.chords):
        for k, cb in enumerate(db.chords):
            if not (same and m == k):
                total += _linked(ca, cb)
    if not same:
        return total
    if total % 2:
        raise AssertionError("self-intersection double count came out odd")
    return total // 2


def minimal_position(
    p: PolygonPresentation, a: Arc, b: Arc
) -> tuple[Arc, Arc, int]:
    """Reduced representatives of both classes and their forced interior
    intersection count.

    The reduced words already realize minimal position: every removable bigon
    between two strands shows up as a relative placement whose end orders do
    not force a crossing, and such placements contribute nothing here.
    """
    da, db = _reduced_view(p, a), _reduced_view(p, b)
    ra, rb = da.arc, db.arc
    # duplicates of one unoriented class, either parametrization, are a
    # self-intersection query, not a pair of parallel copies; b's reversal
    # is built only when it has a's endpoints
    same = ra == rb or (ra.start == rb.end and ra.end == rb.start and ra == db.reversed.arc)
    return ra, rb, _count(da, da if same else db)


def interior_intersections(p: PolygonPresentation, a: Arc, b: Arc) -> int:
    return minimal_position(p, a, b)[2]


def is_embedded(p: PolygonPresentation, a: Arc) -> bool:
    """Whether the reduced representative has no forced self-crossings."""
    da = _reduced_view(p, a)
    return _count(da, da) == 0


def is_isotopic(
    p: PolygonPresentation, a: Arc, b: Arc, endpoints_fixed: bool = True
) -> bool:
    """Isotopy of arcs, orientation-blind.

    With endpoints fixed this is equality of reduced words and endpoints (up
    to reversing one arc).  Without, each endpoint may additionally slide
    along its own boundary side as long as it passes no other endpoint of
    the two arcs.
    """
    ra = reduce(p, a)
    rb = reduce(p, b)
    if endpoints_fixed:
        return ra == rb or ra == reverse(rb)

    def slidable(x: BoundaryPoint, y: BoundaryPoint, others: tuple[BoundaryPoint, ...]) -> bool:
        if x.side != y.side:
            return False
        lo, hi = sorted((x.position, y.position))
        return not any(o.side == x.side and lo < o.position < hi for o in others)

    for cand in (rb, reverse(rb)):
        if ra.crossings != cand.crossings:
            continue
        if slidable(ra.start, cand.start, (ra.end, cand.end)) and slidable(
            ra.end, cand.end, (ra.start, cand.start)
        ):
            return True
    return False


def first_divergence(p: PolygonPresentation, a: Arc, b: Arc) -> Divergence:
    """Which side of a the arc b departs on, seen from their shared start.

    Both arcs must leave the same boundary side; coincident start points are
    the clean case, adjacent start positions on one side are accepted and
    compared through the same counterclockwise scan.  At the first chamber
    where the two crossing words part ways, the exit addresses are ordered
    counterclockwise starting from the entry point (or entry door); the arc
    whose exit comes first departs to the right of the other.
    """
    da, db = _reduced_view(p, a), _reduced_view(p, b)
    ra, rb = da.arc, db.arc
    if ra.start.side != rb.start.side:
        raise NoSharedStartError(
            f"arcs start on different boundary sides {ra.start.side!r} and {rb.start.side!r}"
        )
    if ra == rb:
        return Divergence.EQUAL
    la, lb = len(ra.crossings), len(rb.crossings)
    m = 0
    while m <= min(la, lb):
        ea = da.slots[m][1]
        eb = db.slots[m][1]
        if ea != eb:
            ref = da.slots[m][0]
            return Divergence.RIGHT_OF if _key(ref, eb) < _key(ref, ea) else Divergence.LEFT_OF
        m += 1
    # identical words and end, distinct start positions on the shared side:
    # the counterclockwise copy stays on the right all along
    return (
        Divergence.RIGHT_OF
        if rb.start.position > ra.start.position
        else Divergence.LEFT_OF
    )


def twist_about_band(p: PolygonPresentation, a: Arc, pair: str, sign: int) -> Arc:
    """Image of an arc under the Dehn twist about the core of a glued band.

    The band core crosses the pair once, so each chamber carries exactly one
    strand of it, running between the pair's two doors.  For every chamber of
    the arc whose chord essentially meets that strand, the twisted arc takes
    one detour through the band: a single inserted crossing, signed by the
    twist handedness and by which door the chord faces.

    Supported for arcs that do not already cross the band themselves, which
    covers every construction in this package (band-dual arcs and their
    composites over other bands).
    """
    da = _reduced_view(p, a)
    ra, geo = da.arc, da.geo
    if pair not in geo.pair_sides:
        raise UnknownPairError(pair)
    if sign not in (1, -1):
        raise ValueError(f"twist sign must be +1 or -1, got {sign}")
    if any(c.pair == pair for c in ra.crossings):
        raise ValueError(
            f"twist about {pair!r} needs an arc not already crossing that band"
        )
    core = _core_chord(geo, pair)
    left_door = (geo.pair_sides[pair][0], 0)
    pieces: list[Crossing] = []
    for m, (entry, exit_) in enumerate(da.slots):
        # a chord linked with the core shares no address with it
        if _linked(da.chords[m], core):
            orientation = 1 if _key(entry, left_door) < _key(entry, exit_) else -1
            pieces.append(Crossing(pair, sign * orientation))
        if m < len(ra.crossings):
            pieces.append(ra.crossings[m])
    return reduce(p, Arc(ra.start, ra.end, tuple(pieces)))


def bands_cut(p: PolygonPresentation, a: Arc) -> list[str]:
    """Glued pairs, sorted, whose two doors a crossing-free arc separates:
    the band core's chord between the doors must cross the arc's chord."""
    da = _reduced_view(p, a)
    if da.arc.crossings:
        raise ValueError("bands_cut needs an arc without crossings")
    geo, chord = da.geo, da.chords[0]
    return [pair for pair in sorted(geo.pair_sides) if _linked(chord, _core_chord(geo, pair))]

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
  meeting of the arc with the core: a substitution on the arc's chamber
  slots, each slot whose chord meets the core split in two at the band.

All three read one counterclockwise order on the polygon circle, the tuple
order of addresses rotated to start at a reference (_key), with exact
integer and Fraction comparisons only.  Twists and bands_cut read it on
side indices alone: no address of the arcs they take lies on a side of the
band's pair, and a door is alone on its side.

Exact endpoint coincidences never count as crossings: strands emanating from
a shared point can always be combed apart.

An arc is checked once per presentation object: reduce keeps, on the arc
it returns, the indexed view that every query below reads.  The queries
decide on views, which is exact on one geometry: two arcs are equal
exactly when their slots are, and the slots carry the endpoints' sides
and positions.  arc_view, view_count and view_divergence are that layer
for callers that read a view once and ask it several questions.  A view
holds no arc, an arc keeps nothing but its view, and a view's reversal is
kept on it, the one kept reversal, so no arc, view or reversal is part
of a reference cycle: refcounting frees each of them when its last user
lets go, and the cyclic collector finds nothing of theirs.
twist_about_band derives its result's view from its input's, slot by slot,
without reducing or checking the result again; a twist that meets nothing
returns its reduced input as it is, and one that meets the core builds
its two detour letters once, at the first slot that needs one.
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
from .surface import BoundaryPoint, Geometry, PolygonPresentation, geometry


@dataclass(frozen=True)
class Crossing:
    pair: str
    direction: int

    def __post_init__(self):
        if type(self.direction) is not int or self.direction not in (1, -1):
            raise ValueError(f"crossing direction must be +1 or -1, got {self.direction!r}")

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


def _doors(geo: Geometry, c: Crossing) -> tuple[int, int]:
    """Sides through which a strand performing c leaves its chamber and
    re-enters the next one."""
    left, right = geo.pair_sides[c.pair]
    return (left, right) if c.direction > 0 else (right, left)


def _check_endpoint(geo: Geometry, pt: BoundaryPoint) -> None:
    if pt.side not in geo.boundary_index:
        raise MixedSurfacesError(f"boundary side {pt.side!r} is not on this presentation")
    # positions are exact Fractions in lowest terms, positive denominator
    t = pt.position
    if not (0 < t.numerator < t.denominator):
        raise ValueError(f"endpoint position {pt.position} outside the open unit interval")


class _ArcData:
    """Kept view of a reduced arc, the value the counting machinery reads:
    the geometry it was checked against, one chamber slot per word prefix,
    each slot holding its entry and exit address, the same two addresses in
    increasing order as the slot's chord, and the word as its sequence of
    exit doors (a door side names one pair and direction).  On its geometry
    the slots determine the arc.  Built from its slots, which reduce reads
    off the word and twist_about_band derives from the view of the arc it
    twists.  The arc keeps its view, but the view holds no arc, so the two
    form no reference cycle; its reversal, the kernel's one kept reversal,
    is a view only, kept on it and holding nothing back."""

    __slots__ = ("geo", "slots", "letters", "chords", "_reversed")

    def __init__(self, geo: Geometry, slots: list[tuple[Address, Address]]):
        self.geo = geo
        self.slots = slots
        self._reversed: Optional[_ArcData] = None
        # every slot but the last exits through the door of its letter
        self.letters = [side for _, (side, _) in slots]
        self.letters.pop()
        self.chords = [(x, y) if x < y else (y, x) for x, y in slots]

    @property
    def reversed(self) -> "_ArcData":
        """The view of the arc run backwards, built once and kept: the same
        slots backwards, entry and exit swapped."""
        view = self._reversed
        if view is None:
            view = self._reversed = _ArcData(self.geo, [(y, x) for x, y in reversed(self.slots)])
        return view


def _keep(a: Arc, view: _ArcData) -> Arc:
    """a, keeping view as its view (a non-field attribute)."""
    object.__setattr__(a, "_view", view)
    return a


def _word_slots(geo: Geometry, a: Arc) -> list[tuple[Address, Address]]:
    """The chamber slots of a's word: entry and exit address per prefix."""
    doors = [_doors(geo, c) for c in a.crossings]
    entries: list[Address] = [(geo.boundary_index[a.start.side], a.start.position)]
    entries += [(in_, 0) for _, in_ in doors]
    exits: list[Address] = [(out, 0) for out, _ in doors]
    exits.append((geo.boundary_index[a.end.side], a.end.position))
    return list(zip(entries, exits))


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
    The view holds no arc, so the arc and its view form no reference cycle
    and refcounting frees both.
    """
    geo = geometry(p)
    view = a.__dict__.get("_view")
    if view is not None and view.geo is geo:
        return a
    stack: list[Crossing] = []
    for c in a.crossings:
        if c.pair not in geo.pair_sides:
            raise UnknownPairError(c.pair)
        if stack and stack[-1].pair == c.pair and stack[-1].direction == -c.direction:
            stack.pop()
        else:
            stack.append(c)
    _check_endpoint(geo, a.start)
    _check_endpoint(geo, a.end)
    if a.start == a.end:
        raise ValueError("arc endpoints coincide exactly; use distinct positions")
    r = Arc(a.start, a.end, tuple(stack))
    return _keep(r, _ArcData(geo, _word_slots(geo, r)))


def arc_view(p: PolygonPresentation, a: Arc) -> _ArcData:
    """The kept view of a's reduced representative on p: a's own when a was
    reduced on p, as reduce returns such an arc at once."""
    return reduce(p, a).__dict__["_view"]


def reverse(a: Arc) -> Arc:
    """a run backwards; a reversed reduced word is reduced, on the same
    endpoints and pairs.  Nothing is kept on a: the reversal of an arc with
    a view gets that view's kept reversal as its own view."""
    r = Arc(a.end, a.start, tuple(c.inverse() for c in reversed(a.crossings)))
    view = a.__dict__.get("_view")
    return r if view is None else _keep(r, view.reversed)


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


def _same_class(da: _ArcData, db: _ArcData) -> bool:
    """Whether two views of one geometry are of one unoriented class: equal
    slots are equal arcs, and db's reversal is read only when db starts
    where da ends and ends where da starts."""
    if da.slots == db.slots:
        return True
    if da.slots[0][0] != db.slots[-1][1] or da.slots[-1][1] != db.slots[0][0]:
        return False
    return da.slots == db.reversed.slots


def view_count(da: _ArcData, db: _ArcData) -> int:
    """Forced crossings of two views of one geometry over all relative
    placements, b run in both directions.  Duplicates of one unoriented
    class, either parametrization, are a self-intersection query, not a
    pair of parallel copies: the placements laying the strand on itself or
    on its own reversal are the same lift, not a pair, and every other one
    is met from both strands."""
    same = da is db or _same_class(da, db)
    if same:
        db = da
    total = 0
    # a crossing-free strand shares no corridor, so no alignment is sought
    # and b's reversal is not built
    if da.letters and db.letters:
        for m0, k0, r in _forward_alignments(da.letters, db.letters):
            if not (same and m0 == k0):
                total += _corridor_linked(da, db, m0, k0, r)
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
    ra, rb = reduce(p, a), reduce(p, b)
    return ra, rb, view_count(ra.__dict__["_view"], rb.__dict__["_view"])


def interior_intersections(p: PolygonPresentation, a: Arc, b: Arc) -> int:
    return view_count(arc_view(p, a), arc_view(p, b))


def is_embedded(p: PolygonPresentation, a: Arc) -> bool:
    """Whether the reduced representative has no forced self-crossings."""
    da = arc_view(p, a)
    return view_count(da, da) == 0


def is_isotopic(p: PolygonPresentation, a: Arc, b: Arc) -> bool:
    """Isotopy of arcs with endpoints fixed, orientation-blind: equality of
    reduced words and endpoints, up to reversing one arc."""
    return _same_class(arc_view(p, a), arc_view(p, b))


def first_divergence(p: PolygonPresentation, a: Arc, b: Arc) -> Divergence:
    """Which side of a the arc b departs on, seen from their shared start.

    Both arcs must leave the same boundary side; coincident start points are
    the clean case, adjacent start positions on one side are accepted and
    compared through the same counterclockwise scan.  At the first chamber
    where the two crossing words part ways, the exit addresses are ordered
    counterclockwise starting from the entry point (or entry door); the arc
    whose exit comes first departs to the right of the other.
    """
    da, db = arc_view(p, a), arc_view(p, b)
    # reducing keeps the endpoints
    if a.start.side != b.start.side:
        raise NoSharedStartError(
            f"arcs start on different boundary sides {a.start.side!r} and {b.start.side!r}"
        )
    return view_divergence(da, db)


def view_divergence(da: _ArcData, db: _ArcData, backwards: bool = False) -> Divergence:
    """first_divergence of two views of one geometry whose arcs start on
    one side; with backwards, of their reversals, which pass the same slots
    backwards with entry and exit swapped, read without building them."""
    if da.slots == db.slots:
        return Divergence.EQUAL
    entry, exit_ = (1, 0) if backwards else (0, 1)
    pairs = zip(reversed(da.slots), reversed(db.slots)) if backwards else zip(da.slots, db.slots)
    for sa, sb in pairs:
        ea, eb = sa[exit_], sb[exit_]
        if ea != eb:
            ref = sa[entry]
            return Divergence.RIGHT_OF if _key(ref, eb) < _key(ref, ea) else Divergence.LEFT_OF
    # identical words and end, distinct start positions on the shared side:
    # the counterclockwise copy stays on the right all along
    first = -1 if backwards else 0
    ta, tb = da.slots[first][entry][1], db.slots[first][entry][1]
    return Divergence.RIGHT_OF if tb > ta else Divergence.LEFT_OF


def twist_about_band(p: PolygonPresentation, a: Arc, pair: str, sign: int) -> Arc:
    """Image of an arc under the Dehn twist about the core of a glued band.

    The band core crosses the pair once, so each chamber carries exactly one
    strand of it, running between the pair's two doors.  For every chamber of
    the arc whose chord essentially meets that strand, the twisted arc takes
    one detour through the band: a single inserted crossing, signed by the
    twist handedness and by which door the chord faces.

    The image is a substitution on the slots of a's reduced view: a slot
    missing the core is kept, a slot (entry, exit) meeting it becomes
    (entry, out door) and (in door, exit) of the inserted crossing, which
    goes before the slot's own crossing.  The word needs no reduction: each
    inserted crossing is of pair, which no letter of a crosses, and any two
    inserted crossings have a letter of a between them, so every adjacent
    couple is either adjacent in a's reduced word or of two distinct pairs.
    With a's checked endpoints, the image gets its view from these slots.
    An arc that meets the core nowhere is its own image: the reduced arc
    comes back with its kept view, and no letter or view is built.

    Supported for arcs that do not already cross the band themselves, which
    covers every construction in this package (band-dual arcs and their
    composites over other bands).
    """
    ra = reduce(p, a)
    da = ra.__dict__["_view"]
    geo = da.geo
    if pair not in geo.pair_sides:
        raise UnknownPairError(pair)
    if sign not in (1, -1):
        raise ValueError(f"twist sign must be +1 or -1, got {sign}")
    left, right = geo.pair_sides[pair]
    # a letter of the pair exits through one of its two doors
    if left in da.letters or right in da.letters:
        raise ValueError(
            f"twist about {pair!r} needs an arc not already crossing that band"
        )
    # No slot address lies on a side of the pair: a door is alone on its
    # side, and neither door is a door of a's letters.  So a slot's chord
    # meets the core, the chord between the doors, exactly when one of its
    # sides lies strictly between the doors' sides, and then its entry and
    # exit sides differ from each other and from the doors'.
    lo, hi = (left, right) if left < right else (right, left)
    slots = da.slots
    for first, (entry, exit_) in enumerate(slots):
        if (lo < entry[0] < hi) != (lo < exit_[0] < hi):
            break
    else:
        return ra
    # the inserted crossing with its out and in door, for a slot whose exit
    # comes before the left door counterclockwise from its entry, then for
    # one whose exit comes after it: _key(entry, left door) < _key(entry,
    # exit) read on side indices
    detours = []
    for direction in (-sign, sign):
        c = Crossing(pair, direction)
        out, in_ = _doors(geo, c)
        detours.append((c, (out, 0), (in_, 0)))
    crossings = ra.crossings
    word = list(crossings[:first])
    new_slots = slots[:first]
    for m, (entry, exit_) in enumerate(slots[first:], first):
        s, t = entry[0], exit_[0]
        if (lo < s < hi) != (lo < t < hi):
            c, out, in_ = detours[(left < s, left) < (t < s, t)]
            word.append(c)
            new_slots.append((entry, out))
            entry = in_
        new_slots.append((entry, exit_))
        if m < len(crossings):
            word.append(crossings[m])
    return _keep(Arc(ra.start, ra.end, tuple(word)), _ArcData(geo, new_slots))


def bands_cut(p: PolygonPresentation, a: Arc) -> list[str]:
    """Glued pairs, sorted, whose two doors a crossing-free arc separates:
    the band core's chord between the doors must cross the arc's chord.
    The arc's ends lie on boundary sides, never on a door's side, so the
    chords cross exactly when one end's side lies strictly between the
    doors' sides."""
    da = arc_view(p, a)
    if da.letters:
        raise ValueError("bands_cut needs an arc without crossings")
    geo, ((s, _), (t, _)) = da.geo, da.slots[0]
    cut = []
    for pair in sorted(geo.pair_sides):
        lo, hi = sorted(geo.pair_sides[pair])
        if (lo < s < hi) != (lo < t < hi):
            cut.append(pair)
    return cut

"""Partial open books: a surface, disjoint basis arcs, and their images.

The monodromy is recorded only where it matters: as the list of image arcs
h(a_i) of a disjoint arc basis a_i whose neighborhood is the moving
subsurface.  Veering is decided per arc by comparing departure directions at
both endpoints, and the contact verdict is a deliberately conservative
three-way answer: a left-veering arc witnesses overtwistedness, a
right-veering book whose arcs are disjoint from their images certifies a
nonzero (tight) class through the bigon count, and anything else is
reported as unknown rather than guessed.

Endpoint convention: each image arc ends either exactly at its basis arc's
endpoints or immediately beside them on the same boundary sides, with no
other marked point in between.  Exact coincidence is reserved for identity
images; every construction in this package emits the pushed-off form.

A book is checked once per object: validate_pob keeps its violations,
reduced arcs and ranked marked points on the book for every operation
below, and veering_report and contact_verdict keep their results beside
them.  Books, arcs and surfaces are frozen, so the results cannot go stale,
and they are not fields, so equality, hashing, repr and documents ignore
them.  Operations on an invalid book raise on every call.  Each of the
three results is computed by one function that extends the result for a
book's first arcs: a fresh book extends the empty prefix, and a positive
stabilization extends its old book's, testing and counting only the arc it
adds.  A book whose images one boundary-fixing homeomorphism makes from
the images of a checked book carries that book's check (certified_book).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product, zip_longest
from typing import NamedTuple, Optional

from .arcs import (
    Arc,
    Divergence,
    first_divergence,
    interior_intersections,
    is_embedded,
    reduce,
    reverse,
    twist_about_band,
)
from .errors import InvalidOpenBookError, SiteObstructedError, Violation
from .surface import (
    Boundary,
    BoundaryPoint,
    End,
    Glued,
    PolygonPresentation,
    _canonical_data,
    _geometry,
    boundary_components,
    merge_boundary_runs,
)


@dataclass(frozen=True)
class PartialOpenBook:
    surface: PolygonPresentation
    basis: tuple[Arc, ...]
    images: tuple[Arc, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "images", tuple(self.images))


class ArcVeer(Enum):
    RIGHT = "Right"
    LEFT = "Left"
    ISOTOPIC = "Isotopic"


@dataclass(frozen=True)
class VeeringReport:
    verdicts: tuple[ArcVeer, ...]

    def __post_init__(self):
        object.__setattr__(self, "verdicts", tuple(self.verdicts))

    @property
    def is_right_veering(self) -> bool:
        return ArcVeer.LEFT not in self.verdicts


class VerdictStatus(Enum):
    NONZERO_TIGHT = "NonzeroTight"
    OVERTWISTED_WITNESS = "OvertwistedWitness"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ContactVerdict:
    status: VerdictStatus
    reason: str
    witness_index: Optional[int] = None
    matrix: Optional[tuple[tuple[int, ...], ...]] = None


class _CheckedBook(NamedTuple):
    """What validate_pob found out about a book, kept on the book.

    sides is the book's one index of marked points: per boundary side, its
    distinct endpoint positions in increasing order, so that a position's
    rank is its index there, found by bisection.
    """

    violations: tuple[Violation, ...]
    basis: tuple[Arc, ...]
    images: tuple[Arc, ...]
    sides: dict[str, tuple[Fraction, ...]]


def _add_ends(sides: dict[str, tuple[Fraction, ...]], arcs) -> None:
    """Add the endpoint positions of arcs to the side index sides; they lie
    above the positions already there."""
    on: dict[str, list[Fraction]] = {}
    for a in arcs:
        for pt in (a.start, a.end):
            on.setdefault(pt.side, []).append(pt.position)
    for side, ts in on.items():
        ts.sort()
        new = tuple(t for i, t in enumerate(ts) if i == 0 or t != ts[i - 1])
        sides[side] = sides.get(side, ()) + new


def _adjacent(x: BoundaryPoint, y: BoundaryPoint, sides) -> bool:
    """Same side, equal or with no third marked point strictly between;
    a side with at most two marked positions has no third point at all."""
    if x.side != y.side:
        return False
    ts = sides[x.side]
    return len(ts) <= 2 or abs(bisect_left(ts, x.position) - bisect_left(ts, y.position)) <= 1


def _kept(pob: PartialOpenBook, name: str, compute):
    """The result kept on the book under name, computed on first use."""
    value = pob.__dict__.get(name)
    if value is None:
        value = compute(pob)
        object.__setattr__(pob, name, value)
    return value


def validate_pob(pob: PartialOpenBook) -> list[Violation]:
    """Diagnostics for the partial-open-book invariants.

    Codes: ArcNotEmbedded (an arc crosses itself), BasisNotDisjoint /
    ImagesNotDisjoint (a crossing pair of indices), EndpointMismatch (image i
    does not end beside basis arc i), TiedEndpoints (unrelated arcs sharing
    an exact boundary point).  Later calls on the same book reuse the result.
    """
    return list(_kept(pob, "_checked", _check).violations)


def _check(pob: PartialOpenBook, prior: Optional[_CheckedBook] = None) -> _CheckedBook:
    """The check of pob, extending prior: the check of a valid book made of
    pob's first pairs, moved (positive_stabilization) or their images under
    a boundary-fixing homeomorphism (certified_book), its side index moved
    to pob's positions.  pob's further endpoints must lie above prior's
    points of their sides, so prior's ranks and adjacencies stand and only
    tests involving a further arc are run."""
    _geometry(pob.surface)
    if len(pob.basis) != len(pob.images):
        count = f"{len(pob.basis)} basis arcs but {len(pob.images)} images"
        return _CheckedBook((Violation("EndpointMismatch", count),), (), (), {})
    out: list[Violation] = []
    p = pob.surface
    basis = tuple(reduce(p, a) for a in pob.basis)
    images = tuple(reduce(p, a) for a in pob.images)
    k, sides = (len(prior.basis), dict(prior.sides)) if prior is not None else (0, {})
    _add_ends(sides, (*basis[k:], *images[k:]))
    new = range(k, len(basis))
    for name, arcs in (("basis", basis), ("image", images)):
        for i in new:
            if not is_embedded(p, arcs[i]):
                out.append(Violation("ArcNotEmbedded", f"{name} arc {i} crosses itself"))
    # the pairs with an arc past the prior, in index order
    pairs = (*product(range(k), new), *combinations(new, 2))
    for code, arcs in (("BasisNotDisjoint", basis), ("ImagesNotDisjoint", images)):
        for i, j in pairs:
            n = interior_intersections(p, arcs[i], arcs[j])
            if n:
                out.append(Violation(code, f"arcs {i} and {j} cross {n} time(s)"))
    for i in new:
        if _oriented_image(basis[i], images[i], sides) is None:
            out.append(
                Violation("EndpointMismatch", f"image {i} does not end beside basis arc {i}")
            )
    # only endpoints sharing a point leave fewer positions than endpoints
    if 2 * (len(basis) + len(images)) > sum(map(len, sides.values())):
        out += _ties(basis, images)
    return _CheckedBook(tuple(out), basis, images, sides)


_TIES = ("basis arc {} and image {}", "basis arcs {} and {}", "image arcs {} and {}")


def _ties(basis, images) -> list[Violation]:
    """TiedEndpoints for unrelated arcs sharing an exact boundary point:
    basis-image pairs, then basis pairs, then image pairs, each in index
    order.  Coincidences are allowed only between basis arc i and image i.
    Arcs are grouped by point, so only tied pairs are visited."""
    at: dict[BoundaryPoint, list[tuple[int, int]]] = {}
    for kind, arcs in enumerate((basis, images)):
        for i, a in enumerate(arcs):
            for pt in (a.start, a.end):
                at.setdefault(pt, []).append((kind, i))
    tied = set()
    # each point lists basis arcs before images, each in index order
    for ends in at.values():
        for (k, i), (m, j) in combinations(ends, 2):
            if k == m:
                tied.add((1 + k, i, j))
            elif i != j:
                tied.add((0, i, j))
    out = []
    for what, i, j in sorted(tied):
        a = images[i] if what == 2 else basis[i]
        b = basis[j] if what == 1 else images[j]
        point = min({a.start, a.end} & {b.start, b.end}, key=str)
        pair = _TIES[what].format(i, j)
        out.append(Violation("TiedEndpoints", f"{pair} share the point {point}"))
    return out


def certified_book(chords: PartialOpenBook, images) -> PartialOpenBook:
    """The book with the surface and basis of chords and the given images,
    carrying its check without testing the images.

    Precondition: images[i] = h(chords.images[i]) for one homeomorphism h
    of the surface that fixes its boundary pointwise.  h keeps every arc
    embedded and every pair's intersection number, and leaves the endpoints
    where they are, so a valid chord book, checked in full, is the prior
    of the book's check: with no arc past it, only the tie scan runs.  The
    endpoints are compared, not assumed: an invalid chord book, or images
    that moved an endpoint, leave the book to the full check.
    """
    checked = _kept(chords, "_checked", _check)
    book = PartialOpenBook(chords.surface, chords.basis, images)
    ends = [(h.start, h.end) for h in book.images]
    if not checked.violations and ends == [(c.start, c.end) for c in chords.images]:
        object.__setattr__(book, "_checked", _check(book, checked))
    return book


def _require_pob(pob: PartialOpenBook) -> _CheckedBook:
    """The kept check of a valid book; raises InvalidOpenBookError."""
    checked = _kept(pob, "_checked", _check)
    if checked.violations:
        raise InvalidOpenBookError(checked.violations)
    return checked


def _oriented_image(a: Arc, h: Arc, sides) -> Optional[Arc]:
    """The image oriented so that its start sits beside the basis start;
    None when its ends are not beside the basis arc's ends."""
    if _adjacent(a.start, h.start, sides) and _adjacent(a.end, h.end, sides):
        return h
    if _adjacent(a.start, h.end, sides) and _adjacent(a.end, h.start, sides):
        return reverse(h)
    return None


def veering_report(pob: PartialOpenBook) -> VeeringReport:
    """Per-arc departure verdicts: Right, Left, or Isotopic.

    An arc is Right when its image departs to the right at both endpoints,
    Isotopic when the image is the same class rel endpoints, and Left
    otherwise.  Isotopic counts as right-veering downstream.  Later calls on
    the same book reuse the report.
    """
    return _kept(pob, "_veering", _veering)


def _veering(pob: PartialOpenBook, known=()) -> VeeringReport:
    """The report of pob whose first arcs have the verdicts known."""
    checked = _require_pob(pob)
    pairs = zip(checked.basis[len(known):], checked.images[len(known):])
    return VeeringReport((*known, *(_veer(pob.surface, a, h, checked.sides) for a, h in pairs)))


def _veer(p: PolygonPresentation, a: Arc, h: Arc, sides) -> ArcVeer:
    h = _oriented_image(a, h, sides)
    at_start = first_divergence(p, a, h)
    if at_start is Divergence.EQUAL:
        return ArcVeer.ISOTOPIC
    at_end = first_divergence(p, reverse(a), reverse(h))
    if at_start is Divergence.RIGHT_OF and at_end is Divergence.RIGHT_OF:
        return ArcVeer.RIGHT
    return ArcVeer.LEFT


def contact_verdict(pob: PartialOpenBook) -> ContactVerdict:
    """Conservative three-way verdict on the supported contact structure.

    Empty basis: the trivial book supports the unique tight structure, so
    the class is nonzero.  Any Left arc: this book itself is a
    non-right-veering supporter, witnessing overtwistedness.  All arcs
    Right or Isotopic and each arc disjoint from its own image: the only
    differentials pairing an arc with its image would be bigons, none
    exist, so the class is nonzero.  Otherwise: unknown, the criterion
    does not apply.  Later calls on the same book reuse the verdict.
    """
    return _kept(pob, "_verdict", _verdict)


def _verdict(pob: PartialOpenBook, known=()) -> ContactVerdict:
    """The verdict of pob whose first basis arcs and images have the
    intersection matrix known; a right-veering book extends it to all."""
    report = veering_report(pob)
    if not report.verdicts:
        return ContactVerdict(
            VerdictStatus.NONZERO_TIGHT,
            "empty basis: the book supports the unique tight structure, class nonzero",
            matrix=(),
        )
    for i, v in enumerate(report.verdicts):
        if v is ArcVeer.LEFT:
            return ContactVerdict(
                VerdictStatus.OVERTWISTED_WITNESS,
                f"arc {i} veers left: a non-right-veering supporting book "
                "witnesses an overtwisted structure",
                witness_index=i,
            )
    checked = _require_pob(pob)
    p = pob.surface
    matrix = tuple(
        (*row, *(interior_intersections(p, a, h) for h in checked.images[len(row):]))
        for row, a in zip_longest(known, checked.basis, fillvalue=())
    )
    if all(matrix[i][i] == 0 for i in range(len(matrix))):
        return ContactVerdict(
            VerdictStatus.NONZERO_TIGHT,
            "right-veering and every arc is disjoint from its own image: "
            "no bigon differentials, class nonzero",
            matrix=matrix,
        )
    return ContactVerdict(
        VerdictStatus.UNKNOWN,
        "right-veering but some arc meets its own image; "
        "the bigon criterion does not decide this book",
        matrix=matrix,
    )


def free_site(pob: PartialOpenBook) -> tuple[BoundaryPoint, BoundaryPoint]:
    """A stabilization site: a marked-point-free segment on a boundary side.

    Takes the first boundary side of the polygon and the gap between its
    last marked point and the side's far corner; always succeeds on a valid
    book and raises InvalidOpenBookError on an invalid one.
    """
    checked = _require_pob(pob)
    label = next(
        s.label for s in pob.surface.sides if isinstance(s, Boundary)
    )
    return _free_gap(label, checked.sides.get(label, ()))


def _free_gap(label: str, positions) -> tuple[BoundaryPoint, BoundaryPoint]:
    """Two points on side label splitting the gap between its last marked
    point (positions in increasing order) and its far corner into thirds."""
    top = positions[-1] if positions else Fraction(0)
    return BoundaryPoint(label, top + (1 - top) / 3), BoundaryPoint(label, top + 2 * (1 - top) / 3)


def _fresh(base: str, taken: set) -> str:
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


# stabilize --count refuses more: each step tests and counts only the new
# arc against the old ones, so a chain costs about count^2; with count 200,
# pretzel(-3,3,1) takes about 4 s and a 10-band Hopf star about 7 s on a
# busy shared Xeon vCPU, half that when the host is quiet
MAX_STABILIZE_COUNT = 200


def positive_stabilization(
    pob: PartialOpenBook, site: Optional[tuple[BoundaryPoint, BoundaryPoint]] = None
) -> PartialOpenBook:
    """Plumb a positive Hopf band onto a free boundary segment.

    The segment between the two site points is cut out and replaced by a new
    1-handle (one glued pair) with a fresh boundary side inside it.  One new
    basis arc runs once over the handle; its image is the pushed-off copy
    twisted positively about the handle.  All existing arcs keep their
    words, and their endpoints only get rescaled within the split side, so
    every prior comparison is untouched: the new sides sit inside one
    boundary side, so the cyclic order of the old addresses is unchanged.

    The new book therefore carries the old book's check, veering report and
    (when the old book keeps one) contact verdict, each extended to the new
    arc and image by the function that decides a fresh book.  Two marked
    points on either side of the site may stop being beside each other, so
    such a site, or a failed test of the new pair, leaves the new book to be
    checked in full on first use.
    """
    checked = _require_pob(pob)
    if site is None:
        site = free_site(pob)
    q1, q2 = site
    if q1.side != q2.side:
        raise SiteObstructedError("site points must lie on one boundary side")
    label = q1.side
    lo, hi = sorted((q1.position, q2.position))
    if lo == hi:
        raise SiteObstructedError("site needs two distinct points")
    if not 0 < lo < hi < 1:
        raise SiteObstructedError(f"site [{lo}, {hi}] leaves the open unit interval")
    sides = pob.surface.sides
    labels = {s.label for s in sides if isinstance(s, Boundary)}
    if label not in labels:
        raise SiteObstructedError(f"no boundary side {label!r}")
    marked = checked.sides.get(label, ())
    split = bisect_left(marked, lo)
    if split < len(marked) and marked[split] <= hi:
        raise SiteObstructedError(
            f"segment [{lo}, {hi}] on {label!r} meets the marked point {marked[split]}"
        )

    pairs = {s.pair for s in sides if isinstance(s, Glued)}
    mid_label = _fresh(f"{label}h", labels)
    post_label = _fresh(f"{label}t", labels | {mid_label})
    pair = _fresh("st", pairs)

    new_sides = []
    for s in sides:
        if isinstance(s, Boundary) and s.label == label:
            new_sides += [
                Boundary(label),
                Glued(pair, End.LEFT),
                Boundary(mid_label),
                Glued(pair, End.RIGHT),
                Boundary(post_label),
            ]
        else:
            new_sides.append(s)
    surface = PolygonPresentation(tuple(new_sides))

    def move(pt: BoundaryPoint) -> BoundaryPoint:
        if pt.side != label:
            return pt
        if pt.position < lo:
            return BoundaryPoint(label, pt.position / lo)
        return BoundaryPoint(post_label, (pt.position - hi) / (1 - hi))

    def move_arc(a: Arc) -> Arc:
        return Arc(move(a.start), move(a.end), a.crossings)

    basis = [move_arc(a) for a in pob.basis]
    images = [move_arc(a) for a in pob.images]

    below = tuple(t / lo for t in marked[:split])
    t1, t2 = _free_gap(label, below)
    new_basis = Arc(t1, BoundaryPoint(mid_label, Fraction(1, 3)))
    pushed = Arc(t2, BoundaryPoint(mid_label, Fraction(2, 3)))
    new_image = twist_about_band(surface, pushed, pair, +1)
    book = PartialOpenBook(surface, (*basis, new_basis), (*images, new_image))
    if split in (0, len(marked)):
        # no marked points on both sides of the site: the old points keep
        # their order, and the new ones lie above them on side label or on
        # the new side mid_label
        moved = {s: ts for s, ts in checked.sides.items() if s != label}
        if below:
            moved[label] = below
        elif marked:
            moved[post_label] = tuple((t - hi) / (1 - hi) for t in marked)
        extended = _check(book, checked._replace(sides=moved))
        if not extended.violations:
            object.__setattr__(book, "_checked", extended)
            object.__setattr__(book, "_veering", _veering(book, veering_report(pob).verdicts))
            kept = pob.__dict__.get("_verdict")
            # a kept witness has no matrix, and the new book veers left too
            if kept is not None:
                object.__setattr__(book, "_verdict", _verdict(book, kept.matrix or ()))
    return book


def dividing_set_counts(pob: PartialOpenBook) -> tuple[int, int]:
    """(#components of the surface boundary, #components of the basis
    neighborhood).  With pairwise disjoint arcs and distinct endpoints the
    neighborhood is one rectangle per basis arc."""
    _require_pob(pob)
    return len(boundary_components(pob.surface)), len(pob.basis)


def canonical_pob(pob: PartialOpenBook):
    """Hashable normal form, equal for books differing by relabeling,
    rotation, boundary subdivision, or endpoint sliding within sides.

    Boundary runs are merged, the polygon is canonically rotated and
    relabeled (all tying rotations tried, smallest overall form kept), and
    endpoint positions are replaced by their rank among the marked points
    of their side.
    """
    checked = _require_pob(pob)
    merged, point_map = merge_boundary_runs(pob.surface)
    # a merged side lists its runs' marked points in run order, so a point
    # ranks after every point on the earlier sides of its run
    before: dict[str, int] = {}
    count: dict[str, int] = {}
    for label, (new_label, _index, _run) in point_map.items():
        before[label] = count.get(new_label, 0)
        count[new_label] = before[label] + len(checked.sides.get(label, ()))

    def rank(pt: BoundaryPoint) -> tuple[str, tuple[int, int]]:
        new_label = point_map[pt.side][0]
        r = before[pt.side] + bisect_left(checked.sides[pt.side], pt.position)
        return new_label, (r + 1, count[new_label] + 1)

    moved = [
        (rank(r.start), rank(r.end), tuple((c.pair, c.direction) for c in r.crossings))
        for r in (*checked.basis, *checked.images)
    ]
    relabeled, maps = _canonical_data(merged)
    sides_sig = tuple(
        ("B", s.label) if isinstance(s, Boundary) else ("G", s.pair, s.end.value)
        for s in relabeled.sides
    )
    k = len(pob.basis)
    candidates = []
    for label_map, pair_map in maps:
        arcs = tuple(
            ((label_map[s0], r0), (label_map[s1], r1), tuple((pair_map[pr], d) for pr, d in word))
            for (s0, r0), (s1, r1), word in moved
        )
        candidates.append((arcs[:k], arcs[k:]))
    return (sides_sig, *min(candidates))

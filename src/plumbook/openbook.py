"""Partial open books: a surface, disjoint basis arcs, and their images.

The monodromy is recorded only where it matters: as the list of image arcs
h(a_i) of a disjoint arc basis a_i whose neighborhood is the moving
subsurface.  Veering is decided per arc by comparing departure directions at
both endpoints, an image against its basis arc pushed to the image's ends,
so an image that carries its basis arc's word is Isotopic.  The contact
verdict is a deliberately conservative three-way answer: a left-veering
arc witnesses overtwistedness, a right-veering book whose arcs are
disjoint from their images certifies a nonzero (tight) class when the arcs
meeting other arcs' images form no cycle, since the contact class is then
the only generator, and anything else is reported as unknown rather than
guessed.  A positive stabilization carries an old verdict only where the
rule proves it (positive_stabilization).

Endpoint convention: each image arc ends either exactly at its basis arc's
endpoints or immediately beside them on the same boundary sides, with no
other marked point in between.  An image beside them is h(b), where b is
the basis arc pushed to the image's ends, so the identity's image is the
pushed-off arc with the basis arc's word.  Exact coincidence is reserved
for identity images; every construction in this package emits the
pushed-off form.

A book is checked once per object: validate_pob keeps its violations and
reduced arcs on the book for every operation below, each image of a valid
book oriented to start beside its basis arc's start, and veering_report
and contact_verdict keep their results beside them.  Books, arcs and
surfaces are frozen, so the results cannot go stale, and they are not
fields, so equality, hashing, repr and documents ignore them.  Operations
on an invalid book raise on every call.  Each of the three results is
computed by one function on the whole book, which reads each kept arc's
view once (arcs.arc_view) and asks it the view-level count and divergence,
so no arc is reduced again or turned around; EndpointMismatch, TiedEndpoints
and the site come from one sort of the views' end addresses in the arc
kernel's counterclockwise order.  Two constructions carry them
instead: a book whose images one boundary-fixing homeomorphism makes from
the images of a checked book carries that book's check (certified_book),
and a positive stabilization carries the check and veering with the pair it
adds, and the verdict in one proven case, deciding it in full otherwise.
Its surface carries the old geometry with the new sides put in, never
validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple, Optional

from .arcs import (
    Arc,
    Divergence,
    arc_view,
    reduce,
    reverse,
    twist_about_band,
    view_count,
    view_divergence,
)
from .errors import InvalidOpenBookError, Violation
from .surface import (
    Boundary,
    BoundaryPoint,
    End,
    Glued,
    PolygonPresentation,
    boundary_components,
    certified_presentation,
    geometry,
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
    """What validate_pob found out about a book, kept on the book: its
    violations, its arcs reduced, each image of a valid book oriented to
    start beside its basis arc's start, and its site: the first boundary
    label and its last marked position (0 if it has none).  EndpointMismatch,
    TiedEndpoints, the orientations and the site come from one sort of the
    views' end addresses in the kernel's order."""

    violations: tuple[Violation, ...]
    basis: tuple[Arc, ...]
    images: tuple[Arc, ...]
    site: Optional[tuple[str, Fraction]] = None


def _ranks(views, top_side: int) -> tuple[list[tuple[int, int]], Fraction]:
    """Per view, the ranks of its start and end among the distinct end
    addresses of views, from one sort in the kernel's order, and the last
    position on side top_side (0 if none).  Ranks step by one along a side
    and by two across sides: two ends are one point when their ranks are
    equal, and beside (one side, no end between) when at most one apart."""
    ends = [addr for v in views for addr in (v.slots[0][0], v.slots[-1][1])]
    ranks = [0] * len(ends)
    rank, last, top = 0, (-1, 0), Fraction(0)
    for i in sorted(range(len(ends)), key=ends.__getitem__):
        side, t = addr = ends[i]
        if addr != last:
            rank += 1 if side == last[0] else 2
            last = addr
        ranks[i] = rank
        if side == top_side:
            top = t
    return list(zip(ranks[::2], ranks[1::2])), top


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


def _check(pob: PartialOpenBook) -> _CheckedBook:
    """The check of pob: its arcs reduced, each arc tested for embedding,
    each pair of basis arcs and of images for disjointness, each image for
    ending beside its basis arc (and oriented to start beside its start),
    and all endpoints for ties and the site."""
    geo = geometry(pob.surface)
    if len(pob.basis) != len(pob.images):
        count = f"{len(pob.basis)} basis arcs but {len(pob.images)} images"
        return _CheckedBook((Violation("EndpointMismatch", count),), (), ())
    out: list[Violation] = []
    p = pob.surface
    basis = tuple(reduce(p, a) for a in pob.basis)
    images = tuple(reduce(p, a) for a in pob.images)
    by_kind = [arc_view(p, a) for a in basis], [arc_view(p, h) for h in images]
    label, side = next(iter(geo.boundary_index.items()))
    ranks, top = _ranks((*by_kind[0], *by_kind[1]), side)
    for name, kind in zip(("basis", "image"), by_kind):
        for i, v in enumerate(kind):
            if view_count(v, v):
                out.append(Violation("ArcNotEmbedded", f"{name} arc {i} crosses itself"))
    for code, kind in zip(("BasisNotDisjoint", "ImagesNotDisjoint"), by_kind):
        for i, j in combinations(range(len(kind)), 2):
            n = view_count(kind[i], kind[j])
            if n:
                out.append(Violation(code, f"arcs {i} and {j} cross {n} time(s)"))
    oriented = [_oriented_image(h, ra, rh) for h, ra, rh in zip(images, ranks, ranks[len(basis):])]
    out += [
        Violation("EndpointMismatch", f"image {i} does not end beside basis arc {i}")
        for i, h in enumerate(oriented)
        if h is None
    ]
    out += _ties((*basis, *images), ranks, len(basis))
    oriented = tuple(o or h for o, h in zip(oriented, images))
    return _CheckedBook(tuple(out), basis, oriented, (label, top))


_TIES = ("basis arc {} and image {}", "basis arcs {} and {}", "image arcs {} and {}")


def _ties(arcs, ranks, n: int) -> list[Violation]:
    """TiedEndpoints for unrelated arcs, n basis arcs then n images with
    their _ranks, sharing a point: basis-image pairs, then basis pairs,
    then image pairs, each in index order.  Coincidences are allowed only
    between basis arc i and image i.  Grouped by rank, one per point."""
    at: dict[int, list[int]] = {}
    for k, ends in enumerate(ranks):
        for r in ends:
            at.setdefault(r, []).append(k)
    tied = set()
    # each rank lists basis arcs before images, each in index order
    for group in at.values():
        for k, m in combinations(group, 2):
            if m < n:
                tied.add((1, k, m))
            elif n <= k:
                tied.add((2, k - n, m - n))
            elif k != m - n:
                tied.add((0, k, m - n))
    out = []
    for what, i, j in sorted(tied):
        a, b = arcs[i + n * (what == 2)], arcs[j + n * (what != 1)]
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
    where they are, so the book's check is the valid chord book's with the
    images put in: its endpoint tests, ties and site read only endpoints.  The
    ends are compared with the checked, oriented chords', not assumed: an
    invalid chord book, or images that moved or swapped their ends, leave
    the book to the full check.
    """
    checked = _kept(chords, "_checked", _check)
    book = PartialOpenBook(chords.surface, chords.basis, images)
    ends = [(h.start, h.end) for h in book.images]
    if not checked.violations and ends == [(c.start, c.end) for c in checked.images]:
        reduced = tuple(reduce(book.surface, h) for h in book.images)
        object.__setattr__(book, "_checked", checked._replace(images=reduced))
    return book


def _require_pob(pob: PartialOpenBook) -> _CheckedBook:
    """The kept check of a valid book; raises InvalidOpenBookError."""
    checked = _kept(pob, "_checked", _check)
    if checked.violations:
        raise InvalidOpenBookError(checked.violations)
    return checked


def _oriented_image(h: Arc, a_ranks, h_ranks) -> Optional[Arc]:
    """The image h oriented so that its start sits beside its basis arc's
    start; None when its ends are not beside the basis arc's ends.  a_ranks
    and h_ranks are the _ranks of the basis arc's and h's start and end."""
    (a0, a1), (h0, h1) = a_ranks, h_ranks
    if abs(a0 - h0) <= 1 and abs(a1 - h1) <= 1:
        return h
    if abs(a0 - h1) <= 1 and abs(a1 - h0) <= 1:
        return reverse(h)
    return None


def veering_report(pob: PartialOpenBook) -> VeeringReport:
    """Per-arc departure verdicts: Right, Left, or Isotopic.

    An arc is Isotopic when its image carries its word, as the identity's
    image does (the image is the arc pushed to the image's ends, _veer),
    Right when its image departs to the right at both endpoints, and Left
    otherwise.  Isotopic counts as right-veering downstream.  Later calls on
    the same book reuse the report.
    """
    return _kept(pob, "_veering", _veering)


def _veering(pob: PartialOpenBook) -> VeeringReport:
    checked, p = _require_pob(pob), pob.surface
    pairs = zip(checked.basis, checked.images)
    return VeeringReport(tuple(_veer(arc_view(p, a), arc_view(p, h)) for a, h in pairs))


def _veer(a, h) -> ArcVeer:
    """The verdict of the views of basis arc a and its image h, which
    starts beside a's start and ends beside its end.

    h is h(b), where b is a with its ends pushed to h's ends; a pushed-off
    b crosses a once, at Honda, Kazez and Matic's x_i.  Right-veering
    compares h(a) with a, which is the same as comparing h(b) with b: the
    push acts alike on both.  b and h share both ends, and a reduced word
    with its ends fixes the class rel ends, so h(b) is isotopic to b
    exactly when h carries a's word, that is when the views' exit doors
    are equal.  Otherwise a and b pass the same doors, and their ends are
    beside each other with no other end address between them, so every
    _key comparison of the divergence reads the same against a as against
    b.  The end divergence is read on the slots run backwards, which builds
    no reversed view.
    """
    if a.letters == h.letters:
        return ArcVeer.ISOTOPIC
    at_start = view_divergence(a, h)
    at_end = view_divergence(a, h, backwards=True)
    if at_start is Divergence.RIGHT_OF and at_end is Divergence.RIGHT_OF:
        return ArcVeer.RIGHT
    return ArcVeer.LEFT


def contact_verdict(pob: PartialOpenBook) -> ContactVerdict:
    """Conservative three-way verdict on the supported contact structure.

    Empty basis: the trivial book supports the unique tight structure, so
    the class is nonzero.  Any Left arc: this book itself is a
    non-right-veering supporter, witnessing overtwistedness.  All arcs
    Right or Isotopic, each arc disjoint from its own image, and acyclic
    support: in the sutured Heegaard diagram of the book (Honda, Kazez and
    Matic 2009), alpha_i meets beta_j at x_i when i = j and in
    M[i][j] = i(a_i, h(a_j)) points elsewhere; with a zero diagonal and no
    cycle among the edges i -> j, i != j, M[i][j] > 0, the identity is the
    only permutation left, so the contact class (x_1, ..., x_n) is the
    only generator and is nonzero.  Otherwise: unknown, the criterion does
    not apply.  So a right-veering book with an Isotopic arc whose image is
    pushed off, as the identity's is, is unknown: the image carries the
    arc's word and crosses the arc once.  A positive stabilization adds an
    arc with no edge, so when the old book has a matrix, the new arc is
    disjoint from its image and does not veer left, it keeps the old status
    and reason with the matrix bordered by zeros; every other book is
    decided by the full rule.  Later calls on the same book reuse the
    verdict.
    """
    return _kept(pob, "_verdict", _verdict)


def _verdict(pob: PartialOpenBook) -> ContactVerdict:
    """The verdict of pob by the full rule.  A right-veering book counts
    its intersection matrix, i(a_i, h(a_j)) at (i, j), on the kept views."""
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
    checked, p = _require_pob(pob), pob.surface
    basis = [arc_view(p, a) for a in checked.basis]
    images = [arc_view(p, h) for h in checked.images]
    matrix = tuple(tuple(view_count(a, h) for h in images) for a in basis)
    if any(matrix[i][i] for i in range(len(matrix))):
        return ContactVerdict(
            VerdictStatus.UNKNOWN,
            "right-veering but some arc meets its own image; "
            "the bigon criterion does not decide this book",
            matrix=matrix,
        )
    # a one-arc book has no edge
    if len(matrix) > 1 and _cyclic(matrix):
        return ContactVerdict(
            VerdictStatus.UNKNOWN,
            "right-veering and every arc is disjoint from its own image, but arcs "
            "meeting other arcs' images form a cycle: the contact class is not the "
            "only generator, and this book is not decided",
            matrix=matrix,
        )
    return ContactVerdict(
        VerdictStatus.NONZERO_TIGHT,
        "right-veering and every arc is disjoint from its own image: "
        "no bigon differentials, class nonzero",
        matrix=matrix,
    )


def _cyclic(matrix) -> bool:
    """Whether the edges i -> j, i != j, matrix[i][j] > 0 form a cycle.
    Each arc counts the edges entering it; an arc whose count drops to 0
    is done, and its edges no longer count.  Arcs left over lie on or
    behind a cycle."""
    n = len(matrix)
    entering = [sum(matrix[i][j] > 0 for i in range(n) if i != j) for j in range(n)]
    done = [j for j in range(n) if not entering[j]]
    for i in done:  # grows while it is read
        for j in range(n):
            if j != i and matrix[i][j] > 0:
                entering[j] -= 1
                if not entering[j]:
                    done.append(j)
    return len(done) < n


def free_site(pob: PartialOpenBook) -> tuple[BoundaryPoint, BoundaryPoint]:
    """A stabilization site, free of marked points: the gap between the
    book's kept site, the last marked point of its first boundary side, and
    that side's far corner.  Raises InvalidOpenBookError on an invalid book."""
    return _free_gap(*_require_pob(pob).site)


def _free_gap(label: str, top: Fraction) -> tuple[BoundaryPoint, BoundaryPoint]:
    """Two points on side label splitting the gap between its last marked
    point top and its far corner into thirds."""
    return BoundaryPoint(label, top + (1 - top) / 3), BoundaryPoint(label, top + 2 * (1 - top) / 3)


def _fresh(base: str, taken) -> str:
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


# stabilize --count refuses more: a step copies every old arc and positions
# grow; count 200 takes 0.55 to 0.9 s on pretzel(-3,3,1) and on a 10-band
# Hopf star (wall time, Python 3.11.7 on a shared 2-vCPU Xeon host)
MAX_STABILIZE_COUNT = 200


def positive_stabilization(pob: PartialOpenBook) -> PartialOpenBook:
    """Plumb a positive Hopf band onto the free boundary segment free_site(pob).

    The segment between the two site points is cut out and replaced by a new
    1-handle (one glued pair) with a fresh boundary side inside it.  One new
    basis arc runs once over the handle; its image is the pushed-off copy
    twisted positively about the handle.  All existing arcs keep their
    words, and their endpoints on the split side, all below the segment,
    are rescaled onto its first part, so the cyclic order of the old
    addresses is unchanged.

    The new pair meets no old arc.  Its addresses lie in one interval of the
    polygon circle, from its point on the split side, above every old point
    there, through the four new sides, and no old address lies in it.  Its
    only letters are of the fresh pair, which no old word crosses.  So no
    chord of the new pair is linked with an old chord, they share no
    corridor, and every count between the new pair and an old arc is 0.

    The new book therefore carries the old book's check, with the old arcs
    moved and not reduced again and the new image's start, above the new
    basis arc's, as its site, and its veering verdicts with the new pair's.
    Its verdict is carried in one case, the old book's decided first if it
    has none: the old verdict has a nonempty matrix, the new arc does not
    veer left, and it is disjoint from its image.  The new arc then adds no
    edge to the support and a zero to the diagonal, so the old status and
    reason hold, acyclic support included, with the matrix bordered by
    zeros.  Every other step is decided by the full rule: an old witness is
    read off the carried veering before any count, and the first step from
    the disk counts its one entry.  The new pair is tested only against
    itself, on its two views: one sort of their four end addresses gives
    the image's orientation and the new site, exact as no old point lies in
    the free gap or on the new side, and a self-count its embedding.  If it
    fails, the new book keeps nothing and is checked in full.

    The new surface carries its geometry, the old one moved and not
    validated: every side from at on moves up by 4, which keeps the order
    of the old sides; mid_label (at at + 1) and post_label (at at + 3)
    follow label in boundary order; and the new pair (at, at + 2) takes its
    place among the left halves.  So sorting each moved map by side, with
    the new entries in, gives validate's maps.  The sides are valid: the
    labels and the pair are fresh, the pair occurs once per end, and the
    corner walk is the old one moved up with two changes.  The step over
    label from at - 1 goes on through corners at and at + 3, over the new
    pair and post_label, to at + 4, the old corner at; and the new cycle
    at + 1, at + 2 crosses mid_label and the pair's right half.  Every
    corner of the old walk lay on a boundary cycle, and every new corner
    does, so there is no interior vertex.
    """
    checked = _require_pob(pob)
    label, top = checked.site
    lo = _free_gap(label, top)[0].position
    geo = geometry(pob.surface)
    mid_label = _fresh(f"{label}h", geo.boundary_index)
    post_label = _fresh(f"{label}t", {*geo.boundary_index, mid_label})
    pair = _fresh("st", geo.pair_sides)

    # the handle and the far part of the split side follow its near part
    at = geo.boundary_index[label] + 1
    sides = pob.surface.sides
    handle = (Glued(pair, End.LEFT), Boundary(mid_label), Glued(pair, End.RIGHT))

    def up(s: int) -> int:
        return s + 4 if s >= at else s

    # a pair sorts by its left half
    by_side = itemgetter(1)
    boundary = [(b, up(s)) for b, s in geo.boundary_index.items()]
    pairs = [(q, (up(i), up(j))) for q, (i, j) in geo.pair_sides.items()]
    surface = certified_presentation(
        (*sides[:at], *handle, Boundary(post_label), *sides[at:]),
        dict(sorted([*boundary, (mid_label, at + 1), (post_label, at + 3)], key=by_side)),
        dict(sorted([*pairs, (pair, (at, at + 2))], key=by_side)),
    )

    def move(pt: BoundaryPoint) -> BoundaryPoint:
        return BoundaryPoint(label, pt.position / lo) if pt.side == label else pt

    def move_arcs(arcs) -> tuple[Arc, ...]:
        return tuple(Arc(move(a.start), move(a.end), a.crossings) for a in arcs)

    kept_basis, kept_images = move_arcs(checked.basis), move_arcs(checked.images)
    # the book writes its own arcs: the kept ones, unless a word of the old
    # book was given unreduced
    basis = kept_basis if pob.basis == checked.basis else move_arcs(pob.basis)
    images = kept_images if pob.images == checked.images else move_arcs(pob.images)
    t1, t2 = _free_gap(label, top / lo)
    new_basis = reduce(surface, Arc(t1, BoundaryPoint(mid_label, Fraction(1, 3))))
    pushed = Arc(t2, BoundaryPoint(mid_label, Fraction(2, 3)))
    new_image = twist_about_band(surface, pushed, pair, +1)
    book = PartialOpenBook(surface, (*basis, new_basis), (*images, new_image))
    # the new basis arc is a crossing-free chord, so only its image is tested
    a, h = arc_view(surface, new_basis), arc_view(surface, new_image)
    ranks, top = _ranks((a, h), at - 1)
    oriented = _oriented_image(new_image, *ranks)
    if oriented is None or view_count(h, h):
        return book
    kept = checked._replace(
        basis=(*kept_basis, new_basis), images=(*kept_images, oriented), site=(label, top)
    )
    object.__setattr__(book, "_checked", kept)
    veer = _veer(a, arc_view(surface, oriented))
    object.__setattr__(book, "_veering", VeeringReport((*veering_report(pob).verdicts, veer)))
    verdict = contact_verdict(pob)
    if verdict.matrix and veer is not ArcVeer.LEFT and not view_count(a, h):
        matrix = (*((*r, 0) for r in verdict.matrix), (0,) * (len(verdict.matrix) + 1))
        verdict = ContactVerdict(verdict.status, verdict.reason, matrix=matrix)
    else:
        verdict = _verdict(book)
    object.__setattr__(book, "_verdict", verdict)
    return book


def dividing_set_counts(pob: PartialOpenBook) -> tuple[int, int]:
    """(#components of the surface boundary, #components of the basis
    neighborhood).  With pairwise disjoint arcs and distinct endpoints the
    neighborhood is one rectangle per basis arc."""
    _require_pob(pob)
    return len(boundary_components(pob.surface)), len(pob.basis)

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

Endpoint convention: image i starts and ends one end address past basis
arc i's start and end on their sides, pushed the same way at both: right
after them counterclockwise (Honda, Kazez and Matic's push along the
boundary), or right before both (a mirrored or inverse book's push).  It
is h(b), for b the basis arc pushed to the image's ends; b crosses the
basis arc once, at x_i, and the identity's image is b with the basis
arc's word.  An exact or oppositely pushed image has no x_i and is refused.

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
the pushed-off chords of a chord book its caller's layout proves valid
carries that book's check, read off the chords' ends (certified_book),
and a positive stabilization carries the check and veering with the pairs
it adds, and the verdict where the rule proves it, deciding a step in full
otherwise.  One call takes a chain of steps in one pass, at the same cost
per step (positive_stabilization).  The surface is laid out once, every
step's handle block after the split side, newest first, and carries the old
geometry with the new sides put in, never validated.  Each point on the
split side is divided once, by the product of the factors of the steps
after it; Fractions are exact, so the positions are those of a division
per step.  At its own step, each new pair's addresses fill an interval of
the polygon circle that holds no other address, and later steps keep the
cyclic order of every address, so its tests come out the same at every
step, and the verdict status is fixed from the first step on.
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
    equal, and one is right after the other when its rank is one more."""
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
    is not right after basis arc i's ends, or right before both; the detail
    names the ends that are off), TiedEndpoints (two arcs sharing a point).
    Later calls reuse the result.
    """
    return list(_kept(pob, "_checked", _check).violations)


def _check(pob: PartialOpenBook) -> _CheckedBook:
    """The check of pob: its arcs reduced, each arc tested for embedding,
    each pair of basis arcs and of images for disjointness, each image for
    ending one point past its basis arc's ends, pushed one way at both (and
    oriented to start beside its start), and all endpoints for ties and the
    site."""
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
    pairs = list(zip(ranks, ranks[len(basis):]))
    oriented = [_oriented_image(h, *r) for h, r in zip(images, pairs)]
    out += [
        Violation(
            "EndpointMismatch",
            f"image {i} is not one point past both of basis arc {i}'s ends, "
            f"or one point before both: off at {_off_ends(*pairs[i])}",
        )
        for i, h in enumerate(oriented)
        if h is None
    ]
    out += _ties((*basis, *images), ranks, len(basis))
    oriented = tuple(o or h for o, h in zip(oriented, images))
    return _CheckedBook(tuple(out), basis, oriented, (label, top))


_TIES = ("basis arc {} and image {}", "basis arcs {} and {}", "image arcs {} and {}")


def _ties(arcs, ranks, n: int) -> list[Violation]:
    """TiedEndpoints for any two arcs sharing a point, n basis arcs then n
    images with their _ranks: basis-image pairs, then basis pairs, then
    image pairs, each in index order.  Grouped by rank, one per point."""
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
            else:
                tied.add((0, k, m - n))
    out = []
    for what, i, j in sorted(tied):
        a, b = arcs[i + n * (what == 2)], arcs[j + n * (what != 1)]
        point = min({a.start, a.end} & {b.start, b.end}, key=str)
        pair = _TIES[what].format(i, j)
        out.append(Violation("TiedEndpoints", f"{pair} share the point {point}"))
    return out


def certified_book(surface: PolygonPresentation, basis, pushed, images) -> PartialOpenBook:
    """The book on surface with the given basis and images, carrying its
    check untested: no chord book is built or checked.

    Precondition, which the caller proves: the chord book (surface, basis,
    pushed) is valid, each pushed chord starts right after its basis
    chord's start (and so ends right after its end), and images[i] =
    h(pushed[i]) for one homeomorphism h of the surface that fixes its
    boundary pointwise.  h keeps every arc embedded and every pair's
    intersection number, and leaves the endpoints where they are, so the
    book's check is the chord book's with the images put in: no violation,
    the arcs reduced, each image oriented as it is, and the site, the last
    end on the first boundary side (0 if none), read off the chords' ends.
    The images' ends are compared with the pushed chords': images that
    moved or swapped their ends leave the book to the full check.
    """
    basis = tuple(reduce(surface, a) for a in basis)
    book = PartialOpenBook(surface, basis, images)
    if [(h.start, h.end) for h in book.images] == [(c.start, c.end) for c in pushed]:
        label = next(iter(geometry(surface).boundary_index))
        ends = (pt for a in (*basis, *pushed) for pt in (a.start, a.end))
        top = max((pt.position for pt in ends if pt.side == label), default=Fraction(0))
        reduced = tuple(reduce(surface, h) for h in book.images)
        object.__setattr__(book, "_checked", _CheckedBook((), basis, reduced, (label, top)))
    return book


def _require_pob(pob: PartialOpenBook) -> _CheckedBook:
    """The kept check of a valid book; raises InvalidOpenBookError."""
    checked = _kept(pob, "_checked", _check)
    if checked.violations:
        raise InvalidOpenBookError(checked.violations)
    return checked


def _oriented_image(h: Arc, a_ranks, h_ranks) -> Optional[Arc]:
    """The image h oriented so that its start sits beside its basis arc's
    start: its ends right after both of the basis arc's, or right before
    both; else None.  a_ranks and h_ranks are the two arcs' end _ranks."""
    (a0, a1), (h0, h1) = a_ranks, h_ranks
    if h0 - a0 == h1 - a1 in (1, -1):
        return h
    if h1 - a0 == h0 - a1 in (1, -1):
        return reverse(h)
    return None


def _off_ends(a_ranks, h_ranks) -> str:
    """Which ends of an image that _oriented_image refuses are off, read
    the way round that leaves fewer off (as written on a tie): an end is
    off unless one point past or before its basis arc's end, and the end
    is off too when the start is not and the two are pushed opposite ways."""
    (a0, a1), (h0, h1) = a_ranks, h_ranks
    offs = []
    for s, e in ((h0 - a0, h1 - a1), (h0 - a1, h1 - a0)):
        start = s not in (1, -1)
        end = e not in (1, -1) or not start and e != s
        offs.append((start + end, start, end))
    _, start, end = min(offs, key=itemgetter(0))
    return "both ends" if start and end else "its start" if start else "its end"


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
    not apply.  So a right-veering book with an Isotopic arc is unknown: its
    image is pushed off and carries the arc's word, so it crosses the arc
    exactly once.  A positive stabilization adds an arc with no edge, so
    when the old book has a matrix, the new arc is disjoint from its image
    and does not veer left, it keeps the old status and reason with the
    matrix bordered by zeros; every other book is decided by the full rule.
    Later calls on the same book reuse the verdict.
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


def _fresh_names(base: str, taken: set):
    """Names base, base0, base1, ..., each not in taken when it is asked
    for and added to taken as it is given.  taken only grows, so a suffix
    passed over stays taken, and each base goes on from its last suffix."""
    if base not in taken:
        taken.add(base)
        yield base
    k = 0
    while True:
        name = f"{base}{k}"
        k += 1
        if name not in taken:
            taken.add(name)
            yield name


# stabilize --count refuses more: positions on the split side grow about
# one digit per step, and a fresh check of the written book is quadratic in
# its arcs.  On pretzel(-3,3,1) and a 10-band Hopf star, count 20 takes
# 0.08 to 0.09 s, 100 takes 0.09 to 0.10 s and 200 takes 0.11 to 0.13 s
# (medians of 5, wall time with interpreter start, Python 3.11.7 on a
# shared 2-vCPU Xeon host)
MAX_STABILIZE_COUNT = 200


def positive_stabilization(pob: PartialOpenBook, count: int = 1) -> PartialOpenBook:
    """Plumb count positive Hopf bands onto the book, one after another,
    each on the free boundary segment free_site of the book before it.

    A step cuts the segment between its two site points out of the split
    side, the first boundary side, and puts a new 1-handle (one glued pair)
    there with a fresh boundary side inside it.  One new basis arc runs
    once over the handle; its image is the pushed-off copy twisted
    positively about the handle.  All existing arcs keep their words, and
    their endpoints on the split side, all below the segment, are rescaled
    onto its first part, so the cyclic order of the old addresses is
    unchanged.  count 0 returns pob itself.  A count that is no int, or is
    a bool or negative, raises ValueError, and an invalid book raises
    InvalidOpenBookError at every count.

    One pass takes all the steps.  Step s reads its site top_s, the last
    marked position on the split side, and divides that side by its factor
    lo_s = top_s + (1 - top_s)/3; its new pair's two points there split
    the gap above top_s / lo_s into thirds, and the upper one, its image's
    start, is the next site.  The names come from one growing set.  Then
    the book is laid out once.  Each step puts its handle block (st L, mid,
    st R, post) right after the split side, so the final sides hold the
    blocks there newest first, and every old side after them moves up by
    4 count.  Each old point on the split side is divided once, by the
    product of all the factors, and each new point once, by the product of
    the factors of the steps after its own.  Fractions are exact and in
    lowest terms, so these are the positions a division per step gives.

    The new pairs meet no old arc and no other new pair.  At its own step
    a pair's addresses fill one interval of the polygon circle, from its
    points on the split side, above every point there, through its four
    sides, and no other address lies in it; its only letters are of its
    fresh pair, which no other word crosses.  So no chord of the pair is
    linked with another arc's chord, they share no corridor, and every
    count between the pair and another arc is 0.  Later steps keep the
    cyclic order of every address there is: their points go above all
    others on the split side, their blocks before the older ones, and the
    rescale is by one positive factor.  So the counts stay 0, and each
    test of a pair reads its own addresses and doors alone: one sort of
    its four end addresses gives the image's orientation and the site, a
    self-count its embedding, _veer its verdict and one count its matrix
    entry i(a, h), and the twist compares its chord's sides with the
    pair's.  Each comes out on the final surface as on its step's own,
    where every pair sits alike, so the pairs are tested on the final
    surface and their results are the same at every step.

    The book therefore carries the old book's check, with the old arcs
    moved and not reduced again and the last image's start as its site,
    and its veering verdicts with the new pairs'.  A step carries the
    verdict, the old book's decided first if it has none, in two cases.
    An old witness stays: the full rule reads the first Left verdict, and
    the new ones come after it.  A nonempty matrix stays when the new arc
    does not veer left and misses its image: it adds no edge to the
    support and a zero to the diagonal, so the status and reason hold,
    acyclic support included, with the matrix bordered by one zero row and
    column per step.  Any other step ends the pass (the first step from a
    book with no arc, whose verdict has an empty matrix, or a new arc that
    veers left or meets its image): its own book is laid out and decided
    by the full rule, and the steps after it stabilize that book.  A new pair that
    fails its tests ends the pass too: its book keeps nothing and is
    checked in full, as a further step does first.

    The status is fixed from step 1 on.  The pairs' results are the same
    at every step, so every step from step 2 on meets what step 1 met: a
    carried verdict, an old witness, or the full rule on a new arc that
    veers left (a witness then, and after it an old witness) or meets its
    image (a nonzero diagonal entry: Unknown again).  A pass raises
    AssertionError if a status changes all the same.

    The new surface carries its geometry, the old one moved and not
    validated: every side from at on moves up by 4 count, which keeps the
    order of the old sides; each block's mid and post labels (at its sides
    b + 1 and b + 3) follow the split side in boundary order, newest first;
    and each new pair (b, b + 2) takes its place among the left halves.
    So sorting each moved map by side, with the new entries in, gives
    validate's maps.  The sides are valid: the labels and the pairs are
    fresh, each pair occurs once per end, and the corner walk is the old
    one moved up with two changes per block.  The step over the split side
    from at - 1 goes on through corners b and b + 3, over the pair and
    post, to b + 4: the next block's corner b, or after the oldest block
    the old corner at, moved up; and the new cycle b + 1, b + 2 crosses
    mid and the pair's right half.  Every corner of the old walk lay on a
    boundary cycle, and every new corner does, so there is no interior
    vertex.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise ValueError(f"count must be a nonnegative int, got {count!r}")
    checked = _require_pob(pob)
    if not count:
        return pob
    label, top = checked.site
    geo = geometry(pob.surface)
    labels, pairs = set(geo.boundary_index), set(geo.pair_sides)
    mids, posts = _fresh_names(f"{label}h", labels), _fresh_names(f"{label}t", labels)
    names = _fresh_names("st", pairs)
    # per step: its factor, its new points on the split side in its own
    # coordinates, and its names
    steps = []
    for _ in range(count):
        lo = top + (1 - top) / 3
        t1, t2 = _free_gap(label, top / lo)
        top = t2.position
        steps.append((lo, t1.position, top, next(mids), next(posts), next(names)))

    # the blocks, newest first, follow the split side; the old sides after
    # it move up by 4 count
    at = geo.boundary_index[label] + 1
    sides = pob.surface.sides

    def up(s: int) -> int:
        return s + 4 * count if s >= at else s

    handles = []
    boundary = [(b, up(s)) for b, s in geo.boundary_index.items()]
    glued = [(q, (up(i), up(j))) for q, (i, j) in geo.pair_sides.items()]
    for b, (*_, mid, post, pair) in zip(range(at, up(at), 4), reversed(steps)):
        handles += (Glued(pair, End.LEFT), Boundary(mid), Glued(pair, End.RIGHT), Boundary(post))
        boundary += ((mid, b + 1), (post, b + 3))
        glued.append((pair, (b, b + 2)))
    # a pair sorts by its left half
    by_side = itemgetter(1)
    surface = certified_presentation(
        (*sides[:at], *handles, *sides[at:]),
        dict(sorted(boundary, key=by_side)),
        dict(sorted(glued, key=by_side)),
    )

    # the product of the factors of the steps after each step, and of all
    after, product = [], Fraction(1)
    for lo, *_ in reversed(steps):
        after.append(product)
        product *= lo
    after.reverse()

    def move(pt: BoundaryPoint) -> BoundaryPoint:
        return BoundaryPoint(label, pt.position / product) if pt.side == label else pt

    def move_arcs(arcs) -> tuple[Arc, ...]:
        return tuple(Arc(move(a.start), move(a.end), a.crossings) for a in arcs)

    kept_basis, kept_images = move_arcs(checked.basis), move_arcs(checked.images)
    # the book writes its own arcs: the kept ones, unless a word of the old
    # book was given unreduced
    basis = kept_basis if pob.basis == checked.basis else move_arcs(pob.basis)
    images = kept_images if pob.images == checked.images else move_arcs(pob.images)
    new_basis, new_images, oriented_images, veers = [], [], [], []
    verdict = None
    for s, ((_, t1, t2, mid, _, pair), scale) in enumerate(zip(steps, after), 1):
        start = BoundaryPoint(label, t1 / scale)
        a_s = reduce(surface, Arc(start, BoundaryPoint(mid, Fraction(1, 3))))
        pushed = Arc(BoundaryPoint(label, t2 / scale), BoundaryPoint(mid, Fraction(2, 3)))
        h_s = twist_about_band(surface, pushed, pair, +1)
        new_basis.append(a_s)
        new_images.append(h_s)
        # the new basis arc is a crossing-free chord, so only its image is tested
        a, h = arc_view(surface, a_s), arc_view(surface, h_s)
        ranks, top = _ranks((a, h), at - 1)
        oriented = _oriented_image(h_s, *ranks)
        if oriented is None or view_count(h, h):
            carried = False
            break
        oriented_images.append(oriented)
        veers.append(_veer(a, arc_view(surface, oriented)))
        verdict = verdict or contact_verdict(pob)
        carried = verdict.witness_index is not None or (
            verdict.matrix and veers[-1] is not ArcVeer.LEFT and not view_count(a, h)
        )
        if not carried:
            break
    if s < count:
        # the step that ended the pass, and the steps after it on its book
        book = positive_stabilization(pob, s)
        rest = positive_stabilization(book, count - s)
        if s > 1:
            _same_status(verdict, contact_verdict(book))
        _same_status(contact_verdict(book), contact_verdict(rest))
        return rest
    book = PartialOpenBook(surface, (*basis, *new_basis), (*images, *new_images))
    if len(veers) < count:
        return book
    kept = checked._replace(
        basis=(*kept_basis, *new_basis),
        images=(*kept_images, *oriented_images),
        site=(label, top),
    )
    object.__setattr__(book, "_checked", kept)
    object.__setattr__(book, "_veering", VeeringReport((*veering_report(pob).verdicts, *veers)))
    if not carried:
        decided = contact_verdict(book)
        if count > 1:
            _same_status(verdict, decided)
        return book
    if verdict.matrix:
        n = len(verdict.matrix)
        rows = (*((*r, *(0,) * count) for r in verdict.matrix), *((0,) * (n + count),) * count)
        verdict = ContactVerdict(verdict.status, verdict.reason, matrix=rows)
    object.__setattr__(book, "_verdict", verdict)
    return book


def _same_status(before: ContactVerdict, after: ContactVerdict) -> None:
    """Raises AssertionError unless two steps from step 1 on have one status."""
    if before.status is not after.status:
        raise AssertionError(
            f"stabilization changed the verdict status from {before.status.value} "
            f"to {after.status.value}"
        )


def dividing_set_counts(pob: PartialOpenBook) -> tuple[int, int]:
    """(#components of the surface boundary, #components of the basis
    neighborhood).  With pairwise disjoint arcs and distinct endpoints the
    neighborhood is one rectangle per basis arc."""
    _require_pob(pob)
    return len(boundary_components(pob.surface)), len(pob.basis)

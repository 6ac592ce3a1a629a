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

A book is checked once per object: validate_pob keeps its violations and
reduced arcs on the book for every operation below.  Books, arcs and
surfaces are frozen, so the result cannot go stale, and it is not a field,
so equality, hashing, repr and documents ignore it.  Operations on an
invalid book raise on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, permutations
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
    """What validate_pob found out about a book, kept on the book."""

    violations: tuple[Violation, ...]
    basis: tuple[Arc, ...]
    images: tuple[Arc, ...]


def _marked_points(pob: PartialOpenBook) -> list[BoundaryPoint]:
    out = []
    for a in (*pob.basis, *pob.images):
        out.append(a.start)
        out.append(a.end)
    return out


def _adjacent(x: BoundaryPoint, y: BoundaryPoint, marked) -> bool:
    """Same side, equal or with no third marked point strictly between."""
    if x.side != y.side:
        return False
    if x.position == y.position:
        return True
    lo, hi = sorted((x.position, y.position))
    return not any(
        m.side == x.side and lo < m.position < hi
        for m in marked
        if m is not x and m is not y
    )


def validate_pob(pob: PartialOpenBook) -> list[Violation]:
    """Diagnostics for the partial-open-book invariants.

    Codes: ArcNotEmbedded (an arc crosses itself), BasisNotDisjoint /
    ImagesNotDisjoint (a crossing pair of indices), EndpointMismatch (image i
    does not end beside basis arc i), TiedEndpoints (unrelated arcs sharing
    an exact boundary point).  Later calls on the same book reuse the result.
    """
    checked = pob.__dict__.get("_checked")
    if checked is None:
        checked = _check(pob)
        object.__setattr__(pob, "_checked", checked)
    return list(checked.violations)


def _check(pob: PartialOpenBook) -> _CheckedBook:
    _geometry(pob.surface)
    if len(pob.basis) != len(pob.images):
        count = f"{len(pob.basis)} basis arcs but {len(pob.images)} images"
        return _CheckedBook((Violation("EndpointMismatch", count),), (), ())
    out: list[Violation] = []
    p = pob.surface
    basis = tuple(reduce(p, a) for a in pob.basis)
    images = tuple(reduce(p, a) for a in pob.images)
    for name, arcs in (("basis", basis), ("image", images)):
        for i, a in enumerate(arcs):
            if not is_embedded(p, a):
                out.append(Violation("ArcNotEmbedded", f"{name} arc {i} crosses itself"))
    for code, arcs in (("BasisNotDisjoint", basis), ("ImagesNotDisjoint", images)):
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                n = interior_intersections(p, arcs[i], arcs[j])
                if n:
                    out.append(Violation(code, f"arcs {i} and {j} cross {n} time(s)"))
    # reduce keeps endpoints, so the book's own marked points serve
    marked = _marked_points(pob)
    for i, (a, h) in enumerate(zip(basis, images)):
        if _oriented_image(a, h, marked) is None:
            out.append(
                Violation("EndpointMismatch", f"image {i} does not end beside basis arc {i}")
            )
    # exact coincidences are allowed only between basis arc i and image i
    idx = range(len(basis))
    ties = [
        ("basis arc {} and image {}", i, j, basis[i], images[j]) for i, j in permutations(idx, 2)
    ]
    ties += [("basis arcs {} and {}", i, j, basis[i], basis[j]) for i, j in combinations(idx, 2)]
    ties += [("image arcs {} and {}", i, j, images[i], images[j]) for i, j in combinations(idx, 2)]
    for what, i, j, a, b in ties:
        shared = {a.start, a.end} & {b.start, b.end}
        if shared:
            point = min(shared, key=str)
            out.append(Violation("TiedEndpoints", f"{what.format(i, j)} share the point {point}"))
    return _CheckedBook(tuple(out), basis, images)


def _require_pob(pob: PartialOpenBook) -> _CheckedBook:
    """The kept check of a valid book; raises InvalidOpenBookError."""
    violations = validate_pob(pob)
    if violations:
        raise InvalidOpenBookError(violations)
    return pob.__dict__["_checked"]


def _oriented_image(a: Arc, h: Arc, marked) -> Optional[Arc]:
    """The image oriented so that its start sits beside the basis start;
    None when its ends are not beside the basis arc's ends."""
    if _adjacent(a.start, h.start, marked) and _adjacent(a.end, h.end, marked):
        return h
    if _adjacent(a.start, h.end, marked) and _adjacent(a.end, h.start, marked):
        return reverse(h)
    return None


def veering_report(pob: PartialOpenBook) -> VeeringReport:
    """Per-arc departure verdicts: Right, Left, or Isotopic.

    An arc is Right when its image departs to the right at both endpoints,
    Isotopic when the image is the same class rel endpoints, and Left
    otherwise.  Isotopic counts as right-veering downstream.
    """
    checked = _require_pob(pob)
    p = pob.surface
    marked = _marked_points(pob)
    verdicts = []
    for a, h in zip(checked.basis, checked.images):
        h = _oriented_image(a, h, marked)
        at_start = first_divergence(p, a, h)
        if at_start is Divergence.EQUAL:
            verdicts.append(ArcVeer.ISOTOPIC)
            continue
        at_end = first_divergence(p, reverse(a), reverse(h))
        if at_start is Divergence.RIGHT_OF and at_end is Divergence.RIGHT_OF:
            verdicts.append(ArcVeer.RIGHT)
        else:
            verdicts.append(ArcVeer.LEFT)
    return VeeringReport(tuple(verdicts))


def contact_verdict(pob: PartialOpenBook) -> ContactVerdict:
    """Conservative three-way verdict on the supported contact structure.

    Empty basis: the trivial book supports the unique tight structure, so
    the class is nonzero.  Any Left arc: this book itself is a
    non-right-veering supporter, witnessing overtwistedness.  All arcs
    Right or Isotopic and each arc disjoint from its own image: the only
    differentials pairing an arc with its image would be bigons, none
    exist, so the class is nonzero.  Otherwise: unknown, the criterion
    does not apply.
    """
    report = veering_report(pob)
    if not pob.basis:
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
    matrix = tuple(
        tuple(interior_intersections(pob.surface, a, h) for h in checked.images)
        for a in checked.basis
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
    last marked point and the side's far corner; always succeeds.
    """
    label = next(
        s.label for s in pob.surface.sides if isinstance(s, Boundary)
    )
    return _free_gap(_marked_points(pob), label)


def _free_gap(marked, label: str) -> tuple[BoundaryPoint, BoundaryPoint]:
    """Two points on side label splitting the gap between its last marked
    point and its far corner into thirds."""
    top = max((m.position for m in marked if m.side == label), default=Fraction(0))
    return BoundaryPoint(label, top + (1 - top) / 3), BoundaryPoint(label, top + 2 * (1 - top) / 3)


def _fresh(base: str, taken: set) -> str:
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def positive_stabilization(
    pob: PartialOpenBook, site: Optional[tuple[BoundaryPoint, BoundaryPoint]] = None
) -> PartialOpenBook:
    """Plumb a positive Hopf band onto a free boundary segment.

    The segment between the two site points is cut out and replaced by a new
    1-handle (one glued pair) with a fresh boundary side inside it.  One new
    basis arc runs once over the handle; its image is the pushed-off copy
    twisted positively about the handle.  All existing arcs keep their
    words, and their endpoints only get rescaled within the split side, so
    every prior comparison is untouched.
    """
    _require_pob(pob)
    if site is None:
        site = free_site(pob)
    q1, q2 = site
    if q1.side != q2.side:
        raise SiteObstructedError("site points must lie on one boundary side")
    label = q1.side
    lo, hi = sorted((q1.position, q2.position))
    if lo == hi:
        raise SiteObstructedError("site needs two distinct points")
    sides = pob.surface.sides
    labels = {s.label for s in sides if isinstance(s, Boundary)}
    if label not in labels:
        raise SiteObstructedError(f"no boundary side {label!r}")
    marked = _marked_points(pob)
    for m in marked:
        if m.side == label and lo <= m.position <= hi:
            raise SiteObstructedError(
                f"segment [{lo}, {hi}] on {label!r} meets the marked point {m.position}"
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

    t1, t2 = _free_gap([move(m) for m in marked], label)
    new_basis = Arc(t1, BoundaryPoint(mid_label, Fraction(1, 3)))
    pushed = Arc(t2, BoundaryPoint(mid_label, Fraction(2, 3)))
    new_image = twist_about_band(surface, pushed, pair, +1)
    return PartialOpenBook(
        surface, (*basis, new_basis), (*images, new_image)
    )


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

    def transport(pt: BoundaryPoint) -> tuple[str, Fraction]:
        new_label, index, run = point_map[pt.side]
        return new_label, (index + pt.position) / run

    moved = []
    for r in (*checked.basis, *checked.images):
        moved.append(
            (transport(r.start), transport(r.end), tuple((c.pair, c.direction) for c in r.crossings))
        )

    relabeled, maps = _canonical_data(merged)
    sides_sig = tuple(
        ("B", s.label) if isinstance(s, Boundary) else ("G", s.pair, s.end.value)
        for s in relabeled.sides
    )
    k = len(pob.basis)
    candidates = []
    for label_map, pair_map in maps:
        ranks: dict[str, list[Fraction]] = {}
        for (s0, t0), (s1, t1), _word in moved:
            ranks.setdefault(label_map[s0], []).append(t0)
            ranks.setdefault(label_map[s1], []).append(t1)
        lookup = {
            lab: {t: i for i, t in enumerate(sorted(set(ts)))} for lab, ts in ranks.items()
        }

        def norm(st):
            s, t = st
            s2 = label_map[s]
            table = lookup[s2]
            return (s2, (table[t] + 1, len(table) + 1))

        arcs = tuple(
            (norm(st0), norm(st1), tuple((pair_map[pr], d) for pr, d in word))
            for st0, st1, word in moved
        )
        candidates.append((arcs[:k], arcs[k:]))
    return (sides_sig, *min(candidates))

"""Twisted-annulus plumbings: star sums, pretzel surfaces, product disks.

A star plumbing glues k twisted annuli along one central polygon region.
Its surface (star_sum_surface) is a polygon presentation, a 6k-gon: band
i contributes the glued pair c{i} and four boundary sides.  The surface
carries the geometry of that layout, proven in star_sum_surface, and is
never validated.  Pretzel links (p1, ..., pk, 1) with odd pi decompose as
such stars with one annulus of -(pi + 1) half twists per coefficient; the
leading -3 gives the positive Hopf band.

Product disks are table-driven: a Hopf summand (2 half twists either way)
carries exactly one, dual to its band; flatter or more twisted bands carry
none.  The associated partial open book takes those dual arcs as basis and
their once-twisted pushed-off copies as images, composing twists over every
Hopf band so the images stay pairwise disjoint.  So the twist counts of
non-Hopf bands do not enter the book: it reads only the band count and the
signs and places of the Hopf summands, and the 2680 specs of the family
sweep decide only 4 distinct books.  Strong quasipositivity reads every
twist.  The images are one homeomorphism applied to disjoint chords, so
the book is certified by construction: pob_from_product_disks checks the
book of the chords in full, and the images take its check untested
(openbook.certified_book).  associated_pob returns the surface, the
product-disk system and the book; the first two are read off the book.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arcs import Arc, bands_cut, reduce as reduce_arc, twist_about_band
from .errors import (
    HopfOnlyWarning,
    InvalidOpenBookError,
    NotABasisError,
    OddTwistError,
    ZeroTwistError,
)
from .openbook import PartialOpenBook, certified_book, validate_pob
from .surface import (
    Boundary,
    BoundaryPoint,
    End,
    Glued,
    PolygonPresentation,
    certified_presentation,
)

# Image words double with each Hopf band.  Building and checking a star of
# 10 take about 7 + 15 ms in process (Python 3.11.7, shared 2-vCPU Xeon
# host): the twists are linear in word length, a twist meeting nothing
# copies nothing, and the images are not tested.  A book that is not its
# star's is checked in full, about 0.5 s at 10 bands and 4x more per
# further band, and documents.MAX_BOOK_CROSSINGS is derived from this limit.
MAX_HOPF_SUMMANDS = 10

# build and a document's star refuse longer lists before building any band:
# a build process takes about 0.2 s and 28 MB at 1,000 bands, 0.8 s and
# 143 MB at 10,000 (Python 3.11.7, shared 2-vCPU Xeon host)
MAX_BUILD_BANDS = 1000


@dataclass(frozen=True)
class TwistedAnnulus:
    halftwists: int

    def __post_init__(self):
        if isinstance(self.halftwists, bool) or not isinstance(self.halftwists, int):
            raise ValueError(f"halftwists must be an integer, got {self.halftwists!r}")
        if self.halftwists % 2:
            raise OddTwistError(
                f"{self.halftwists} half twists give a nonorientable band; use an even count"
            )
        if self.halftwists == 0:
            raise ZeroTwistError(
                "a flat band is compressible and admits no incompressible plumbing summand"
            )


@dataclass(frozen=True)
class StarPlumbing:
    summands: tuple[TwistedAnnulus, ...]

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        if not self.summands:
            raise ValueError("a star plumbing needs at least one summand")


@dataclass(frozen=True)
class PretzelSpec:
    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        for c in self.coefficients:
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"coefficient must be an integer, got {c!r}")
        if len(self.coefficients) < 2:
            raise ValueError("need at least one pretzel coefficient before the final 1")
        for c in self.coefficients:
            if c % 2 == 0:
                raise ValueError("even coefficient: non-orientable pretzel surface rejected")
        if self.coefficients[-1] != 1:
            raise ValueError(
                f"final coefficient must be 1, got {self.coefficients[-1]}"
            )


@dataclass(frozen=True)
class ProductDiskSystem:
    pairs: tuple[tuple[Arc, Arc], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))


def pretzel_decompose(spec: PretzelSpec, mirror: bool = False) -> StarPlumbing:
    """Star of annuli for the pretzel link with the given coefficients.

    Each coefficient p before the final 1 contributes a band with -(p + 1)
    half twists; the mirror flag negates every band.  The default sign
    convention is anchored so that (-3, 3, 1) yields the positive Hopf band
    plus a -4-twisted band.
    """
    flip = -1 if mirror else 1
    summands = []
    for i, p in enumerate(spec.coefficients[:-1]):
        t = flip * -(p + 1)
        if t == 0:
            raise ZeroTwistError(
                f"coefficient {p} at index {i} yields a flat compressible band"
            )
        if i > 0 and abs(t) == 2:
            warnings.warn(
                HopfOnlyWarning(
                    f"summand {i} is a bare Hopf band; the surveyed family assumes "
                    "non-leading bands with at least 4 half twists"
                )
            )
        summands.append(TwistedAnnulus(t))
    return StarPlumbing(tuple(summands))


def star_sum_surface(star: StarPlumbing) -> PolygonPresentation:
    """Polygon presentation of the star: bands around one central chamber.

    Side layout, counterclockwise: for each band i first its left door
    flanked by boundary sides Bl{i}0, Br{i}0, then after all k of those the
    right doors flanked by Bl{i}1, Br{i}1.  The central chamber is the
    2k-gon spanned by the left doors; chi comes out as 1 - k.  Band i is
    the glued pair c{i}.

    The surface carries its geometry, written from the layout and not
    validated: Bl{i}e at 3ek + 3i and Br{i}e at 3ek + 3i + 2, in side order,
    and c{i} at (3i + 1, 3k + 3i + 1), in the order of its left halves.
    These are valid sides.  The labels are distinct, as i and e are read
    back from Bl{i}e and Br{i}e (e is the last digit); each pair occurs
    once per end; and the corner walk from a glued side's corner lands on
    the start of a boundary side, 3k + 3i + 2 from the left half of c{i}
    and 3i + 2 from its right half, so every corner lies on a boundary
    cycle and there is no interior vertex.
    """
    k = len(star.summands)
    pairs = [f"c{i}" for i in range(k)]
    sides, boundary_index = [], {}
    for e, end in enumerate((End.LEFT, End.RIGHT)):
        for i, pair in enumerate(pairs):
            left, right = f"Bl{i}{e}", f"Br{i}{e}"
            boundary_index[left] = len(sides)
            boundary_index[right] = len(sides) + 2
            sides += [Boundary(left), Glued(pair, end), Boundary(right)]
    pair_sides = {pair: (3 * i + 1, 3 * k + 3 * i + 1) for i, pair in enumerate(pairs)}
    return certified_presentation(tuple(sides), boundary_index, pair_sides)


# where a band-dual chord (one third) and its pushed-off copy (two thirds)
# meet the boundary sides beside the band's left door
_ONE_THIRD, _TWO_THIRDS = Fraction(1, 3), Fraction(2, 3)


def _band_dual(i: int, position: Fraction) -> Arc:
    return Arc(BoundaryPoint(f"Bl{i}0", position), BoundaryPoint(f"Br{i}0", position))


def product_disk_basis(star: StarPlumbing) -> ProductDiskSystem:
    """One (arc, image) pair per Hopf summand, none for other bands: the
    system of associated_pob.  Image i carries 2^i crossings, so stars with
    more than MAX_HOPF_SUMMANDS Hopf summands are refused."""
    return associated_pob(star)[1]


def hopf_summands(star: StarPlumbing) -> list[int]:
    """Indices of the star's Hopf summands: bands of 2 half twists either way."""
    return [i for i, s in enumerate(star.summands) if abs(s.halftwists) == 2]


def pob_from_product_disks(
    surface: PolygonPresentation, system: ProductDiskSystem
) -> PartialOpenBook:
    """Partial open book with the system's arcs as basis, checked in full.

    The basis must cut the moving subsurface into disks: here that means
    every arc is a single-chamber chord separating the two doors of exactly
    one band, one arc per band.  The book holds the reduced basis arcs: an
    arc written with cancelling letters comes back as its isotopic word.
    """
    basis = []
    seen = set()
    for idx, (a, _h) in enumerate(system.pairs):
        r = reduce_arc(surface, a)
        if r.crossings:
            raise NotABasisError(
                f"arc {idx} wanders through {len(r.crossings)} door(s); "
                "only band-dual chords cut their bands into disks"
            )
        cut = bands_cut(surface, r)
        if len(cut) != 1:
            raise NotABasisError(
                f"arc {idx} separates the doors of {len(cut)} bands, expected exactly 1"
            )
        if cut[0] in seen:
            raise NotABasisError(f"band {cut[0]!r} is cut by two arcs")
        seen.add(cut[0])
        basis.append(r)
    pob = PartialOpenBook(surface, tuple(basis), tuple(h for _a, h in system.pairs))
    violations = validate_pob(pob)
    if violations:
        # the bounded listing of an invalid book, under this function's error
        raise NotABasisError(str(InvalidOpenBookError(violations)))
    return pob


def is_strongly_quasipositive(star: StarPlumbing) -> bool:
    """A plumbing of bands is strongly quasipositive iff every band is
    positively twisted."""
    return all(s.halftwists > 0 for s in star.summands)


def associated_pob(
    star: StarPlumbing,
) -> tuple[PolygonPresentation, ProductDiskSystem, PartialOpenBook]:
    """The star's surface, product-disk system, and partial open book.

    Each Hopf summand's dual chord is a basis arc, and its image is the
    pushed-off chord moved by one homeomorphism: a twist about every Hopf
    band, matching its handedness, from the highest index down.  The band
    cores meet, so the twists do not commute and keep their order; so
    composed, distinct images stay disjoint.  The book of the pushed-off
    chords, on the same basis arcs and checked in full, certifies the
    images.  The surface is the book's, and the system pairs the book's
    basis arcs with their images.
    """
    hopf = hopf_summands(star)
    if len(hopf) > MAX_HOPF_SUMMANDS:
        raise ValueError(
            f"star has {len(hopf)} Hopf summands; at most {MAX_HOPF_SUMMANDS} are supported"
        )
    signs = {i: 1 if star.summands[i].halftwists > 0 else -1 for i in hopf}
    surface = star_sum_surface(star)
    chords = tuple(
        (_band_dual(i, _ONE_THIRD), reduce_arc(surface, _band_dual(i, _TWO_THIRDS))) for i in hopf
    )
    images = []
    for _a, image in chords:
        for j in reversed(hopf):
            image = twist_about_band(surface, image, f"c{j}", signs[j])
        images.append(image)
    book = certified_book(pob_from_product_disks(surface, ProductDiskSystem(chords)), images)
    return surface, ProductDiskSystem(tuple(zip(book.basis, book.images))), book


def star_book(star: StarPlumbing, pob: PartialOpenBook) -> Optional[PartialOpenBook]:
    """The star's certified book (associated_pob) when it equals pob, else
    None.  Nothing is built unless pob's polygon has six sides per band of
    the star and the star has at most MAX_HOPF_SUMMANDS Hopf summands."""
    if len(pob.surface.sides) != 6 * len(star.summands):
        return None
    if len(hopf_summands(star)) > MAX_HOPF_SUMMANDS:
        return None
    built = associated_pob(star)[2]
    return built if built == pob else None

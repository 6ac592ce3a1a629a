"""Twisted-annulus plumbings: star sums, pretzel surfaces, product disks.

A star plumbing glues k twisted annuli along one central polygon region.
Its polygon presentation is a 6k-gon: each band contributes two glued
sides (one pair) and four boundary sides.  Pretzel links (p1, ..., pk, 1)
with odd pi decompose as such stars with one annulus of -(pi + 1) half
twists per coefficient; the leading -3 gives the positive Hopf band.

Product disks are table-driven: a Hopf summand (2 half twists either way)
carries exactly one, dual to its band; flatter or more twisted bands carry
none.  The associated partial open book takes those dual arcs as basis and
their once-twisted pushed-off copies as images, composing twists over every
Hopf band so the images stay pairwise disjoint.  The images are one
homeomorphism applied to disjoint chords, so the book is certified by
construction: pob_from_product_disks checks the book of the chords in
full, and the images take its check untested (openbook.certified_book).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .arcs import Arc, bands_cut, reduce as reduce_arc, twist_about_band
from .errors import (
    HopfOnlyWarning,
    NotABasisError,
    OddTwistError,
    ZeroTwistError,
)
from .openbook import PartialOpenBook, certified_book, validate_pob
from .surface import Boundary, BoundaryPoint, End, Glued, PolygonPresentation

# Image words double with each Hopf band.  Building and checking a star of
# 10 take about 0.02 + 0.03 s (Python 3.11, Xeon vCPU): the twists are
# linear in word length and its images are not tested.  A book that is not
# its star's is checked in full, about 0.6 s at 10 bands and 4x more per
# further band, and documents.MAX_BOOK_CROSSINGS is derived from this limit.
MAX_HOPF_SUMMANDS = 10


@dataclass(frozen=True)
class TwistedAnnulus:
    halftwists: int

    def __post_init__(self):
        if self.halftwists % 2:
            raise OddTwistError(
                f"{self.halftwists} half twists give a nonorientable band; use an even count"
            )
        if self.halftwists == 0:
            raise ZeroTwistError(
                "a flat band is compressible and admits no incompressible plumbing summand"
            )


def twisted_annulus(t: int) -> TwistedAnnulus:
    return TwistedAnnulus(int(t))


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
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))
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


@dataclass(frozen=True)
class StarSurface:
    """A star's polygon plus the glued pair belonging to each summand."""

    presentation: PolygonPresentation
    bands: tuple[str, ...]


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


def star_sum_surface(star: StarPlumbing) -> StarSurface:
    """Polygon presentation of the star: bands around one central chamber.

    Side layout, counterclockwise: for each band i first its left door
    flanked by boundary sides Bl{i}0, Br{i}0, then after all k of those the
    right doors flanked by Bl{i}1, Br{i}1.  The central chamber is the
    2k-gon spanned by the left doors; chi comes out as 1 - k.
    """
    k = len(star.summands)
    sides = []
    for i in range(k):
        sides += [Boundary(f"Bl{i}0"), Glued(f"c{i}", End.LEFT), Boundary(f"Br{i}0")]
    for i in range(k):
        sides += [Boundary(f"Bl{i}1"), Glued(f"c{i}", End.RIGHT), Boundary(f"Br{i}1")]
    return StarSurface(
        PolygonPresentation(tuple(sides)), tuple(f"c{i}" for i in range(k))
    )


def _band_dual(i: int, third: int) -> Arc:
    return Arc(
        BoundaryPoint(f"Bl{i}0", Fraction(third, 3)),
        BoundaryPoint(f"Br{i}0", Fraction(third, 3)),
    )


def product_disk_basis(star: StarPlumbing) -> ProductDiskSystem:
    """One (arc, image) pair per Hopf summand, none for other bands.

    The arc is the band's dual chord; the image is its pushed-off copy
    twisted once about every Hopf band, matching each band's handedness.
    Composing over all Hopf bands (innermost band last) keeps distinct
    images disjoint from each other.  Image i carries 2^i crossings, so
    stars with more than MAX_HOPF_SUMMANDS Hopf summands are refused.
    """
    return _product_disks(star, star_sum_surface(star).presentation)[0]


def hopf_summands(star: StarPlumbing) -> list[int]:
    """Indices of the star's Hopf summands: bands of 2 half twists either way."""
    return [i for i, s in enumerate(star.summands) if abs(s.halftwists) == 2]


def _product_disks(
    star: StarPlumbing, surface: PolygonPresentation
) -> tuple[ProductDiskSystem, ProductDiskSystem]:
    """The system of star on surface, and the system of the pushed-off
    chords its images come from, on the same basis arcs: one homeomorphism,
    the twists about every Hopf band from the highest index down, applied
    to each chord.  The band cores meet, so the twists do not commute and
    keep their order."""
    hopf = hopf_summands(star)
    if len(hopf) > MAX_HOPF_SUMMANDS:
        raise ValueError(
            f"star has {len(hopf)} Hopf summands; at most {MAX_HOPF_SUMMANDS} are supported"
        )
    signs = {i: 1 if star.summands[i].halftwists > 0 else -1 for i in hopf}
    chords = tuple((_band_dual(i, 1), reduce_arc(surface, _band_dual(i, 2))) for i in hopf)
    pairs = []
    for a, image in chords:
        for j in sorted(hopf, reverse=True):
            image = twist_about_band(surface, image, f"c{j}", signs[j])
        pairs.append((a, image))
    return ProductDiskSystem(tuple(pairs)), ProductDiskSystem(chords)


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
        raise NotABasisError("; ".join(str(v) for v in violations))
    return pob


def is_strongly_quasipositive(star: StarPlumbing) -> bool:
    """A plumbing of bands is strongly quasipositive iff every band is
    positively twisted."""
    return all(s.halftwists > 0 for s in star.summands)


def associated_pob(star: StarPlumbing) -> tuple[StarSurface, ProductDiskSystem, PartialOpenBook]:
    """Surface, product-disk system, and partial open book of a star: the
    book of the pushed-off chords, checked in full, certifies the images."""
    ss = star_sum_surface(star)
    system, chords = _product_disks(star, ss.presentation)
    images = tuple(h for _a, h in system.pairs)
    return ss, system, certified_book(pob_from_product_disks(ss.presentation, chords), images)

"""A census of small books: every valid book of a small class, decided.

The books live on star surfaces of Hopf bands c0, c1, ...: the annulus, and
the surfaces of 2 and 3 bands.  A basis arc is the chord Bl{i}0 -> Br{i}0
at 1/3, and its image the chord at 2/3 carrying a freely reduced word over
the surface's letters.  The class counts are pinned as a table, so that a
change to the verdict rule shows as a change of counts.  On every valid
book the certificate invariants, the inverse-monodromy relations and the
rotation and mirror laws are asserted, and one stabilization step must
carry what a fresh book decides.  Each valid one-arc book is placed again
with its image on the basis arc's ends, pushed opposite ways at its two
ends, and pushed back at both, of which only the last is a book.  The
books with empty image words are chord books: twisted, their images make
books that carry what a full check finds (certified_book).
"""

from collections import Counter
from fractions import Fraction

import pytest

from certificates import (
    assert_certificate_invariants,
    assert_inverse_relations,
    assert_symmetry_laws,
    assert_validated_geometry,
)

from plumbook import (
    Arc,
    BoundaryPoint,
    Crossing,
    PartialOpenBook,
    PolygonPresentation,
    StarPlumbing,
    TwistedAnnulus,
    contact_verdict,
    is_embedded,
    positive_stabilization,
    star_sum_surface,
    validate_pob,
    veering_report,
)
from plumbook.arcs import twist_about_band
from plumbook.errors import InvalidOpenBookError, Violation
from plumbook.openbook import _check, certified_book

SURFACES = {k: star_sum_surface(StarPlumbing((TwistedAnnulus(2),) * k)) for k in (1, 2, 3)}
CLASSES = ("OvertwistedWitness", "NonzeroTight", "Unknown")


def words(k, most):
    """Every freely reduced word over the letters of k bands of at most
    most letters, shortest first."""
    letters = [Crossing(f"c{i}", d) for i in range(k) for d in (1, -1)]
    out = level = [()]
    for _ in range(most):
        level = [
            (*w, c)
            for w in level
            for c in letters
            if not w or (w[-1].pair, w[-1].direction) != (c.pair, -c.direction)
        ]
        out = out + level
    return out


def chord(i, thirds, word=()):
    at = Fraction(thirds, 3)
    return Arc(BoundaryPoint(f"Bl{i}0", at), BoundaryPoint(f"Br{i}0", at), word)


def one_arc(k, most):
    """The one-arc books on k bands with image words of at most most letters."""
    p = SURFACES[k]
    return [PartialOpenBook(p, (chord(0, 1),), (chord(0, 2, w),)) for w in words(k, most)]


def two_arc(most):
    """The two-arc books on 2 bands whose images are embedded, with words
    of at most most letters."""
    p = SURFACES[2]
    embedded = [[w for w in words(2, most) if is_embedded(p, chord(i, 2, w))] for i in (0, 1)]
    assert [len(e) for e in embedded] == [31, 31]
    return [
        PartialOpenBook(p, (chord(0, 1), chord(1, 1)), (chord(0, 2, u), chord(1, 2, v)))
        for u in embedded[0]
        for v in embedded[1]
    ]


@pytest.fixture(scope="module")
def census():
    """Per class name, the number of books and the valid books."""
    classes = (
        ("annulus, one arc, 6 letters", one_arc(1, 6)),
        ("2 bands, one arc, 6 letters", one_arc(2, 6)),
        ("2 bands, two arcs, 4 letters", two_arc(4)),
        ("3 bands, one arc, 4 letters", one_arc(3, 4)),
    )
    return {name: (len(b), [x for x in b if not validate_pob(x)]) for name, b in classes}


def test_census_of_small_books(census):
    table, turned = {}, {}
    for name, (total, valid) in census.items():
        counts = Counter(contact_verdict(b).status.value for b in valid)
        table[name] = (total, len(valid), *(counts[s] for s in CLASSES))
        turns = (turn for book in valid for turn in assert_inverse_relations(book))
        turned[name] = Counter(f"{old.value}->{new.value}" for old, new in turns)
        for book in valid:
            assert_certificate_invariants(book)
    # books, valid books, OvertwistedWitness, NonzeroTight, Unknown: the 11
    # two-arc books with a zero diagonal and cyclic support are Unknown, and
    # so is each book with no Left arc and an image that carries its basis
    # arc's word: that arc meets its image once
    assert table == {
        "annulus, one arc, 6 letters": (13, 13, 6, 1, 6),
        "2 bands, one arc, 6 letters": (1457, 67, 34, 11, 22),
        "2 bands, two arcs, 4 letters": (961, 93, 56, 2, 35),
        "3 bands, one arc, 4 letters": (937, 108, 73, 21, 14),
    }
    # each arc's veering in the book and in its swapped book: an image that
    # carries its basis arc's word is Isotopic both ways, and a Left arc
    # stays Left when its image departs left at one end only
    assert turned == {
        "annulus, one arc, 6 letters": {
            "Isotopic->Isotopic": 1,
            "Right->Left": 6,
            "Left->Right": 6,
        },
        "2 bands, one arc, 6 letters": {
            "Isotopic->Isotopic": 1,
            "Right->Left": 32,
            "Left->Right": 32,
            "Left->Left": 2,
        },
        "2 bands, two arcs, 4 letters": {
            "Isotopic->Isotopic": 18,
            "Right->Left": 84,
            "Left->Right": 84,
        },
        "3 bands, one arc, 4 letters": {
            "Isotopic->Isotopic": 1,
            "Right->Left": 34,
            "Left->Right": 34,
            "Left->Left": 39,
        },
    }


def test_census_keeps_the_rotation_and_mirror_laws(census):
    for _total, valid in census.values():
        for book in valid:
            assert_symmetry_laws(book)


def test_one_stabilization_step_carries_what_a_fresh_book_decides(census):
    # a step carries the book's check, veering and verdict with the new
    # pair's, and its surface the geometry validation would build
    carried = Counter()
    for _total, valid in census.values():
        for book in valid:
            step = positive_stabilization(book)
            assert_validated_geometry(step.surface)
            kept = step.__dict__
            surface = PolygonPresentation(step.surface.sides)
            fresh = PartialOpenBook(surface, step.basis, step.images)
            assert validate_pob(fresh) == []
            assert kept["_checked"] == fresh.__dict__["_checked"]
            assert kept["_veering"] == veering_report(fresh)
            assert kept["_verdict"] == contact_verdict(fresh)
            carried[kept["_verdict"].status.value] += 1
    # the valid books' classes, 169 / 35 / 77
    assert carried == {"OvertwistedWitness": 169, "NonzeroTight": 35, "Unknown": 77}


def placed(book, start, end):
    """The one-arc book with its image's ends moved to start and end."""
    (h,) = book.images
    image = Arc(BoundaryPoint(h.start.side, start), BoundaryPoint(h.end.side, end), h.crossings)
    return PartialOpenBook(book.surface, book.basis, (image,))


def test_images_are_pushed_one_way_at_both_ends(census):
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    placements = (
        "image 0 is not one point past both of basis arc 0's ends, or one point before both"
    )
    exact_mismatch = Violation("EndpointMismatch", f"{placements}: off at both ends")
    mismatch = Violation("EndpointMismatch", f"{placements}: off at its end")
    point = BoundaryPoint("Bl00", third)
    tie = Violation("TiedEndpoints", f"basis arc 0 and image 0 share the point {point}")
    table = {}
    for name, (_total, valid) in census.items():
        if "one arc" not in name:
            continue
        counts = Counter()
        for book in valid:
            # on the basis arc's ends, or pushed opposite ways: no x_i
            exact = placed(book, third, third)
            opposite = [placed(book, 2 * third, sixth), placed(book, sixth, 2 * third)]
            assert validate_pob(exact) == [exact_mismatch, tie]
            assert [validate_pob(bad) for bad in opposite] == [[mismatch]] * 2
            for bad in (exact, *opposite):
                with pytest.raises(InvalidOpenBookError):
                    contact_verdict(bad)
            # pushed back at both ends, as a mirrored or swapped book is
            backward = placed(book, sixth, sixth)
            assert validate_pob(backward) == []
            assert veering_report(backward) == veering_report(book)
            counts[contact_verdict(backward).status.value] += 1
        table[name] = tuple(counts[s] for s in CLASSES)
    # OvertwistedWitness, NonzeroTight, Unknown
    assert table == {
        "annulus, one arc, 6 letters": (6, 0, 7),
        "2 bands, one arc, 6 letters": (34, 0, 33),
        "3 bands, one arc, 4 letters": (73, 0, 35),
    }


def test_chord_books_carry_the_check_a_fresh_book_computes():
    # the census's books with empty image words are chord books: their
    # images are the basis chords pushed off.  A book whose images one
    # boundary-fixing map makes from them, the identity or a twist about
    # one band either way, carries the check certified_book reads off the
    # chords, and a full check of an equal book finds the same
    chord_books = [one_arc(k, 0)[0] for k in SURFACES]
    chord_books.append(
        PartialOpenBook(SURFACES[2], (chord(0, 1), chord(1, 1)), (chord(0, 2), chord(1, 2)))
    )
    carried = 0
    for book in chord_books:
        assert validate_pob(book) == []
        p, pushed = book.surface, book.images
        twists = [(f"c{i}", sign) for i in range(len(p.sides) // 6) for sign in (1, -1)]
        for images in (pushed, *([twist_about_band(p, h, *t) for h in pushed] for t in twists)):
            made = certified_book(p, book.basis, pushed, images)
            fresh = PartialOpenBook(PolygonPresentation(p.sides), made.basis, made.images)
            assert made.__dict__["_checked"] == _check(fresh)
            carried += 1
    assert carried == 20

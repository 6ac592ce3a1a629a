"""A census of small books: every valid book of a small class, decided.

The books live on the 2-band star surface (bands c0 and c1).  A basis arc
is the chord Bl{i}0 -> Br{i}0 at 1/3, and its image the chord at 2/3
carrying a freely reduced word over c0+-, c1+-.  The class counts are
pinned as a table, so that a change to the verdict rule shows as a change
of counts, and the certificate invariants are asserted on every valid book.
"""

from collections import Counter
from fractions import Fraction

from certificates import assert_certificate_invariants

from plumbook import (
    Arc,
    BoundaryPoint,
    Crossing,
    PartialOpenBook,
    StarPlumbing,
    TwistedAnnulus,
    contact_verdict,
    is_embedded,
    star_sum_surface,
    validate_pob,
)

SURFACE = star_sum_surface(StarPlumbing((TwistedAnnulus(2),) * 2))
LETTERS = tuple(Crossing(pair, d) for pair in ("c0", "c1") for d in (1, -1))
CLASSES = ("OvertwistedWitness", "NonzeroTight", "Unknown")


def words(most):
    """Every freely reduced word of at most most letters, shortest first."""
    out = level = [()]
    for _ in range(most):
        level = [
            (*w, c)
            for w in level
            for c in LETTERS
            if not w or (w[-1].pair, w[-1].direction) != (c.pair, -c.direction)
        ]
        out = out + level
    return out


def chord(i, thirds, word=()):
    at = Fraction(thirds, 3)
    return Arc(BoundaryPoint(f"Bl{i}0", at), BoundaryPoint(f"Br{i}0", at), word)


def census(books):
    """(number of books, the valid ones, their class counts)."""
    books = list(books)
    valid = [b for b in books if not validate_pob(b)]
    counts = Counter(contact_verdict(b).status.value for b in valid)
    return len(books), valid, counts


def test_census_of_two_band_books():
    one_arc = (PartialOpenBook(SURFACE, (chord(0, 1),), (chord(0, 2, w),)) for w in words(6))
    embedded = [[w for w in words(4) if is_embedded(SURFACE, chord(i, 2, w))] for i in (0, 1)]
    assert [len(e) for e in embedded] == [31, 31]
    two_arc = (
        PartialOpenBook(SURFACE, (chord(0, 1), chord(1, 1)), (chord(0, 2, u), chord(1, 2, v)))
        for u in embedded[0]
        for v in embedded[1]
    )
    table = {}
    for name, books in (("one arc, 6 letters", one_arc), ("two arcs, 4 letters", two_arc)):
        size, valid, counts = census(books)
        table[name] = (size, len(valid), *(counts[s] for s in CLASSES))
        for book in valid:
            assert_certificate_invariants(book)
    # books, valid books, OvertwistedWitness, NonzeroTight, Unknown: the 11
    # two-arc books with a zero diagonal and cyclic support are Unknown
    assert table == {
        "one arc, 6 letters": (1457, 67, 35, 11, 21),
        "two arcs, 4 letters": (961, 93, 65, 2, 26),
    }

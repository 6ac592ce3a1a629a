"""Books whose answer the literature fixes, independent of the verdict rule.

The books live on the star surface of k Hopf bands c0, c1, ..., k = 1, 2
and 3, with a basis chord Bl{i}0 -> Br{i}0 at 1/3 on every band, so the
moving subsurface is the whole page.  Each image is the chord at 2/3 moved
by one monodromy: a product of distinct band twists of one sign, applied
last factor first.

A product of positive twists about band cores, the empty product among
them, is Stein fillable (Giroux; Loi and Piergallini; Akbulut and
Ozbagci), so its contact class is nonzero (Ozsvath and Szabo) and its book
is never OvertwistedWitness.  A product of negative twists makes every
arc it moves veer left, which witnesses an overtwisted structure (Honda,
Kazez and Matic 2007).  One positive twist per band, in any order, gives
a book whose arcs each miss their own image with acyclic support, which
the rule certifies.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations

from plumbook import (
    Arc,
    BoundaryPoint,
    PartialOpenBook,
    StarPlumbing,
    TwistedAnnulus,
    contact_verdict,
    star_sum_surface,
    validate_pob,
)
from plumbook.arcs import twist_about_band


def chord(i, thirds):
    at = Fraction(thirds, 3)
    return Arc(BoundaryPoint(f"Bl{i}0", at), BoundaryPoint(f"Br{i}0", at))


def book(k, bands, sign):
    """The book on k bands whose monodromy is the product of the twists of
    sign about the bands c{i}, i in bands, the last one applied first."""
    surface = star_sum_surface(StarPlumbing((TwistedAnnulus(2),) * k))
    images = []
    for i in range(k):
        image = chord(i, 2)
        for j in reversed(bands):
            image = twist_about_band(surface, image, f"c{j}", sign)
        images.append(image)
    return PartialOpenBook(surface, tuple(chord(i, 1) for i in range(k)), tuple(images))


def products(k):
    """Every sequence of distinct bands of k, the empty one first."""
    return [p for m in range(k + 1) for p in permutations(range(k), m)]


def test_known_books_decide_as_the_literature_says():
    statuses = {+1: Counter(), -1: Counter()}
    books = set()
    for k in (1, 2, 3):
        for bands in products(k):
            for sign in (+1, -1):
                pob = book(k, bands, sign)
                books.add(pob)
                assert validate_pob(pob) == []
                status = contact_verdict(pob).status.value
                if sign > 0:
                    # Stein fillable: the class is nonzero
                    assert status != "OvertwistedWitness", (k, bands)
                    if len(bands) == k:
                        assert status == "NonzeroTight", (k, bands)
                elif bands:
                    assert status == "OvertwistedWitness", (k, bands)
                if sign > 0 or bands:
                    statuses[sign][status] += 1
    # 3 identities, and 20 non-empty products per sign
    assert len(books) == 43
    # the 14 Unknown positive books are the identities and the products
    # that miss a band, each with a chord that its image does not move
    assert statuses == {
        +1: {"NonzeroTight": 9, "Unknown": 14},
        -1: {"OvertwistedWitness": 20},
    }

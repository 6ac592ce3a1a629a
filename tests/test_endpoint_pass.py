"""The endpoint pass of a book check, against a per-side reference.

openbook ranks the end addresses of a book's views with one sort in the arc
kernel's order.  The reference here is the earlier pass, kept as a test
oracle only: one sort of positions per boundary label, and ties indexed by
boundary point.  Both must give the same violations, in the same order,
the same oriented images and the same site on every book below: the books
the other tests build, random books on star surfaces with tied, adjacent
and far endpoints across several sides, and the same books with their
images reversed.
"""

import random
from fractions import Fraction
from itertools import combinations

from test_openbook import HEXAGON, STARTS, TWO_STAR, fresh, pt, start_book, stars

from plumbook.arcs import Arc, Crossing, interior_intersections, is_embedded, reduce, reverse
from plumbook.errors import Violation
from plumbook.openbook import (
    PartialOpenBook,
    contact_verdict,
    free_site,
    positive_stabilization,
    validate_pob,
)
from plumbook.plumbing import (
    PretzelSpec,
    StarPlumbing,
    TwistedAnnulus,
    associated_pob,
    pretzel_decompose,
    star_sum_surface,
)
from plumbook.surface import BoundaryPoint, geometry


def reference_ranks(arcs, top_of):
    """Per arc, the ranks of its start and end among the distinct endpoint
    positions on their side, from one sort per side, and the top endpoint
    position on side top_of (0 if it has none).  Ranks on different sides
    are at least two apart."""
    points = [p for a in arcs for p in (a.start, a.end)]
    positions = [p.position for p in points]
    on = {}
    for i, p in enumerate(points):
        on.setdefault(p.side, []).append(i)
    ranks = [0] * len(points)
    top = Fraction(0)
    rank = 0
    for side, ids in on.items():
        ids.sort(key=positions.__getitem__)
        last = positions[ids[0]]
        ranks[ids[0]] = rank
        for i in ids[1:]:
            t = positions[i]
            if last < t:
                rank += 1
                last = t
            ranks[i] = rank
        if side == top_of:
            top = last
        rank += 2
    return list(zip(ranks[::2], ranks[1::2])), top


TIES = ("basis arc {} and image {}", "basis arcs {} and {}", "image arcs {} and {}")


def reference_ties(basis, images):
    """TiedEndpoints for unrelated arcs sharing an exact boundary point,
    from an index of the arcs at each point."""
    at = {}
    for kind, arcs in enumerate((basis, images)):
        for i, a in enumerate(arcs):
            for p in (a.start, a.end):
                at.setdefault(p, []).append((kind, i))
    tied = set()
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
        pair = TIES[what].format(i, j)
        out.append(Violation("TiedEndpoints", f"{pair} share the point {point}"))
    return out


def reference_check(pob):
    """(violations, oriented images, site) of a book with as many images as
    basis arcs, its crossings counted through the public arc queries."""
    p = pob.surface
    basis = [reduce(p, a) for a in pob.basis]
    images = [reduce(p, h) for h in pob.images]
    out = []
    for name, arcs in (("basis", basis), ("image", images)):
        for i, a in enumerate(arcs):
            if not is_embedded(p, a):
                out.append(Violation("ArcNotEmbedded", f"{name} arc {i} crosses itself"))
    for code, arcs in (("BasisNotDisjoint", basis), ("ImagesNotDisjoint", images)):
        for i, j in combinations(range(len(arcs)), 2):
            n = interior_intersections(p, arcs[i], arcs[j])
            if n:
                out.append(Violation(code, f"arcs {i} and {j} cross {n} time(s)"))
    label = next(iter(geometry(p).boundary_index))
    ranks, top = reference_ranks((*basis, *images), label)
    oriented = []
    for i, (h, (a0, a1), (h0, h1)) in enumerate(zip(images, ranks, ranks[len(basis):])):
        if abs(a0 - h0) <= 1 and abs(a1 - h1) <= 1:
            oriented.append(h)
        elif abs(a0 - h1) <= 1 and abs(a1 - h0) <= 1:
            oriented.append(reverse(h))
        else:
            detail = f"image {i} does not end beside basis arc {i}"
            out.append(Violation("EndpointMismatch", detail))
            oriented.append(h)
    return out + reference_ties(basis, images), tuple(oriented), (label, top)


def assert_same_endpoint_pass(pob):
    """The checks of pob and of a fresh copy against the reference, and
    free_site on a valid book."""
    violations, oriented, (label, top) = reference_check(pob)
    for book in (pob, fresh(pob)):
        assert validate_pob(book) == violations
        checked = book.__dict__["_checked"]
        assert checked.images == oriented
        assert checked.site == (label, top)
    if not violations:
        gap = top + (1 - top) / 3, top + 2 * (1 - top) / 3
        assert free_site(pob) == tuple(BoundaryPoint(label, t) for t in gap)


def built_books():
    """The books the other tests build: star books, pretzel books, chains
    of stabilizations and hand-made invalid books."""
    for star in stars((2, -2, 4, -4, 6, -6), 4):
        yield associated_pob(star)[2]
    for k in range(1, 11):
        for t in (2, -2):
            yield associated_pob(StarPlumbing((TwistedAnnulus(t),) * k))[2]
    for coefficients in ((-3, 3, 1), (-3, 5, 7, 1), (-3, 5, -7, 1)):
        yield associated_pob(pretzel_decompose(PretzelSpec(coefficients)))[2]
    for name in (*STARTS, "disk", "unknown"):
        pob = start_book(name)
        for step in range(12):
            if step % 3 == 0:
                contact_verdict(pob)
            pob = positive_stabilization(pob)
            # the stabilized book carries the check a step built
            yield pob
    yield from hand_made_books()


def hand_made_books():
    c, c0, c1 = Crossing("c", 1), Crossing("c0", 1), Crossing("c1", 1)
    three = star_sum_surface(StarPlumbing((TwistedAnnulus(2),) * 3))
    books = [
        (HEXAGON, [((2, 1, 4), (3, 1, 4), [c])], [((2, 1, 5), (3, 1, 5), [c])]),
        (
            HEXAGON,
            [((2, 1, 4), (3, 1, 4), [c]), ((2, 1, 2), (3, 1, 2), [c, c])],
            [((2, 1, 5), (3, 1, 5), [c]), ((2, 2, 5), (3, 2, 5), [c, c])],
        ),
        (HEXAGON, [((1, 1, 3), (2, 1, 3), [])], [((1, 2, 3), (4, 1, 3), [])]),
        (
            HEXAGON,
            [((1, 1, 8), (2, 7, 8), []), ((1, 2, 8), (2, 6, 8), [])],
            [((1, 3, 8), (2, 5, 8), []), ((1, 4, 8), (2, 4, 8), [])],
        ),
        (
            TWO_STAR,
            [(("l00", 1, 3), ("r00", 1, 3), []), (("l10", 1, 3), ("r00", 1, 3), [])],
            [(("l00", 2, 3), ("r00", 2, 3), [c0]), (("l10", 2, 3), ("r00", 2, 5), [c1])],
        ),
        (
            three,
            [
                (("l00", 1, 3), ("r00", 1, 3), []),
                (("r00", 1, 3), ("l10", 1, 3), []),
                (("l20", 1, 3), ("r20", 1, 3), []),
            ],
            [
                (("l00", 1, 3), ("r00", 2, 3), []),
                (("r00", 2, 3), ("l10", 2, 3), []),
                (("l10", 1, 3), ("r00", 1, 3), []),
            ],
        ),
        (
            HEXAGON,
            [((2, 2, 3), (2, 10, 11), []), ((2, 10, 11), (2, 2, 3), [])],
            [((2, 7, 10), (2, 9, 10), []), ((2, 19, 20), (2, 1, 2), [])],
        ),
        (
            HEXAGON,
            [((1, 1, 3), (4, 1, 3), []), ((1, 2, 3), (3, 1, 3), [])],
            [((1, 2, 3), (4, 2, 3), []), ((1, 2, 3), (3, 2, 3), [])],
        ),
    ]
    for surface, basis, images in books:
        yield PartialOpenBook(surface, [arc(*a) for a in basis], [arc(*h) for h in images])


def arc(start, end, word):
    """The arc between (side, num, den) points of sides named B + side."""
    return Arc(pt(f"B{start[0]}", *start[1:]), pt(f"B{end[0]}", *end[1:]), word)


def random_books(rng, count):
    """Books on stars of one to three bands whose endpoints sit on a few
    grid positions of a few sides, so that they tie, sit beside each other
    or lie far apart; an image end is put beside its basis arc's end, on
    its point, or anywhere."""
    surfaces = [star_sum_surface(StarPlumbing((TwistedAnnulus(2),) * k)) for k in (1, 2, 3)]
    for _ in range(count):
        p = surfaces[rng.randrange(3)]
        geo = geometry(p)
        labels = rng.sample(list(geo.boundary_index), min(3, len(geo.boundary_index)))
        pairs = list(geo.pair_sides)
        grid = [Fraction(k, 6) for k in range(1, 6)]

        def anywhere():
            return BoundaryPoint(rng.choice(labels), rng.choice(grid))

        def near(q):
            i = grid.index(q.position) + rng.choice((-1, 0, 1))
            return BoundaryPoint(q.side, grid[min(max(i, 0), len(grid) - 1)])

        def word():
            size = rng.randrange(3)
            return [Crossing(rng.choice(pairs), rng.choice((1, -1))) for _ in range(size)]

        def ends(pick=anywhere, a=None):
            while True:
                start, end = (pick(a.start), pick(a.end)) if a else (pick(), pick())
                if start != end:
                    return start, end

        n = rng.randrange(1, 5)
        basis = [Arc(*ends(), word()) for _ in range(n)]
        images = []
        for a in basis:
            start, end = ends(near, a) if rng.random() < 0.7 else ends()
            images.append(Arc(start, end, word()))
        yield PartialOpenBook(p, basis, images)


def reversed_images(pob, rng):
    """pob with every image, or a random choice of them, run backwards."""
    every = rng.random() < 0.5
    images = [reverse(h) if every or rng.random() < 0.5 else h for h in pob.images]
    return PartialOpenBook(pob.surface, pob.basis, images)


def test_endpoint_pass_matches_the_per_side_reference():
    rng = random.Random(20250)
    books = [*built_books(), *random_books(rng, 1000)]
    books += [reversed_images(pob, rng) for pob in books]
    valid = tied = mismatched = 0
    for pob in books:
        assert_same_endpoint_pass(pob)
        codes = {v.code for v in validate_pob(pob)}
        valid += not codes
        tied += "TiedEndpoints" in codes
        mismatched += "EndpointMismatch" in codes
    # the corpus reaches every outcome of the pass many times
    assert min(valid, tied, mismatched) > 200, (valid, tied, mismatched)

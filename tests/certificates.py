"""The invariants a NonzeroTight certificate rests on, asserted on a book.

In the sutured Heegaard diagram of a partial open book (Honda, Kazez and
Matic 2009), alpha_i meets beta_j on the page half only at x_i when i = j,
and in M[i][j] = i(a_i, h(a_j)) points on the other half.  With a zero
diagonal and acyclic support (edges i -> j for i != j with M[i][j] > 0), the
identity is the only permutation left, so the contact class is the only
generator and is nonzero; a nonzero class means tight, and tight means
right-veering.

Swapping a book's basis and images gives a book of the inverse monodromy
on h(P), which relates the two books' veering and matrices.  Rotating the
polygon changes nothing the arc kernel reports, and mirroring it swaps
left and right.  A constructed presentation carries the geometry that
validation would build.
"""

from plumbook.arcs import (
    Arc,
    Divergence,
    arc_view,
    first_divergence,
    interior_intersections,
    is_embedded,
    reduce,
    reverse,
    view_count,
    view_divergence,
)
from plumbook.openbook import (
    ArcVeer,
    PartialOpenBook,
    VerdictStatus,
    contact_verdict,
    validate_pob,
    veering_report,
)
from plumbook.surface import (
    BoundaryPoint,
    PolygonPresentation,
    boundary_components,
    euler_characteristic,
    genus,
    geometry,
    validate,
)


def acyclic(matrix) -> bool:
    """Whether the edges i -> j, i != j, M[i][j] > 0 form no cycle: peel
    off the arcs no remaining arc points to until none are left."""
    left = set(range(len(matrix)))
    while left:
        sources = {j for j in left if not any(matrix[i][j] > 0 for i in left if i != j)}
        if not sources:
            return False
        left -= sources
    return True


def assert_certificate_invariants(pob) -> None:
    """A NonzeroTight verdict with a matrix has a zero diagonal and acyclic
    support, and a book with both has no Left arc.  A witness carries no
    matrix, so it is counted here."""
    verdict = contact_verdict(pob)
    matrix = verdict.matrix
    if matrix is None:
        p = pob.surface
        basis = [reduce(p, a) for a in pob.basis]
        images = [reduce(p, h) for h in pob.images]
        matrix = [[interior_intersections(p, a, h) for h in images] for a in basis]
    certified = all(matrix[i][i] == 0 for i in range(len(matrix))) and acyclic(matrix)
    if verdict.status is VerdictStatus.NONZERO_TIGHT:
        assert certified, matrix
    if certified:
        assert ArcVeer.LEFT not in veering_report(pob).verdicts, matrix


def kept_views(pob):
    """The views of a valid book's kept basis arcs and oriented images."""
    checked, p = pob.__dict__["_checked"], pob.surface
    return [arc_view(p, a) for a in checked.basis], [arc_view(p, h) for h in checked.images]


def assert_inverse_relations(pob) -> list:
    """Swap the valid book's basis and images, a book of h^-1 on h(P), and
    assert that the swapped book is valid; that an Isotopic arc stays
    Isotopic and a Right arc becomes Left; that a Left arc whose image
    departs left at both ends becomes Right and any other Left arc stays
    Left; and that the swapped matrix, i(h(a_i), a_j) = M[j][i] counted on
    the views, is the transpose.  Returns each arc's (old, new) veering."""
    assert validate_pob(pob) == []
    swapped = PartialOpenBook(pob.surface, pob.images, pob.basis)
    assert validate_pob(swapped) == []
    basis, images = kept_views(pob)
    old, new = veering_report(pob).verdicts, veering_report(swapped).verdicts
    left = Divergence.LEFT_OF, Divergence.LEFT_OF
    for a, h, was, now in zip(basis, images, old, new):
        if was is ArcVeer.LEFT:
            ends = view_divergence(a, h), view_divergence(a, h, backwards=True)
            want = ArcVeer.RIGHT if ends == left else ArcVeer.LEFT
        else:
            want = {ArcVeer.ISOTOPIC: ArcVeer.ISOTOPIC, ArcVeer.RIGHT: ArcVeer.LEFT}[was]
        assert now is want, (was, now)
    transpose = [[view_count(a, h) for a in basis] for h in images]
    s_basis, s_images = kept_views(swapped)
    assert [[view_count(a, h) for h in s_images] for a in s_basis] == transpose
    return list(zip(old, new))


def assert_validated_geometry(p) -> None:
    """p carries a geometry from its construction, and its two maps are,
    item for item and in order, what validate builds on a fresh equal
    presentation."""
    carried = p.__dict__["_geometry"]
    fresh = PolygonPresentation(p.sides)
    assert validate(fresh) == []
    built = geometry(fresh)
    assert list(carried.boundary_index.items()) == list(built.boundary_index.items())
    assert list(carried.pair_sides.items()) == list(built.pair_sides.items())


def observed(pob):
    """What the arc kernel reports on a book: its violations, whether each
    arc is embedded, the matrix i(a_i, h_j), and the first divergence of
    each image from its basis arc at both ends."""
    p = pob.surface
    basis = [reduce(p, a) for a in pob.basis]
    images = [reduce(p, h) for h in pob.images]
    return (
        validate_pob(pob),
        [is_embedded(p, x) for x in (*basis, *images)],
        [[interior_intersections(p, a, h) for h in images] for a in basis],
        [
            (first_divergence(p, a, h), first_divergence(p, reverse(a), reverse(h)))
            for a, h in zip(basis, images)
        ],
    )


def mirrored(a):
    """a on the mirrored polygon: each position t becomes 1 - t."""
    start, end = (BoundaryPoint(x.side, 1 - x.position) for x in (a.start, a.end))
    return Arc(start, end, a.crossings)


SWAP = {
    Divergence.RIGHT_OF: Divergence.LEFT_OF,
    Divergence.LEFT_OF: Divergence.RIGHT_OF,
    Divergence.EQUAL: Divergence.EQUAL,
}


def assert_symmetry_laws(pob) -> None:
    """Every cyclic shift of the book's side list starts the arc kernel's
    one order (_key) at another zero point, and changes nothing observed;
    the mirror runs the order the other way round, which swaps left and
    right and changes nothing else."""
    sides = pob.surface.sides
    want = observed(pob)
    for r in range(1, len(sides)):
        rotated = PolygonPresentation(sides[r:] + sides[:r])
        assert validate(rotated) == []
        assert euler_characteristic(rotated) == euler_characteristic(pob.surface)
        assert genus(rotated) == genus(pob.surface)
        # each boundary circle keeps its labels; rotation only moves the
        # start of the walk along them
        assert sorted(map(sorted, boundary_components(rotated))) == sorted(
            map(sorted, boundary_components(pob.surface))
        )
        assert observed(PartialOpenBook(rotated, pob.basis, pob.images)) == want, r
    mirror = PartialOpenBook(
        PolygonPresentation(sides[::-1]),
        tuple(map(mirrored, pob.basis)),
        tuple(map(mirrored, pob.images)),
    )
    violations, embedded, matrix, divergences = observed(mirror)
    assert (violations, embedded, matrix) == want[:3]
    assert divergences == [(SWAP[x], SWAP[y]) for x, y in want[3]]

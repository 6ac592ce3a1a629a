"""Randomized laws the engine must satisfy on every input."""

import itertools
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from certificates import assert_certificate_invariants, assert_symmetry_laws

from plumbook.arcs import (
    Arc,
    Crossing,
    Divergence,
    first_divergence,
    interior_intersections,
    is_isotopic,
    minimal_position,
    reduce,
    reverse,
    twist_about_band,
)
from plumbook.openbook import contact_verdict, positive_stabilization, veering_report
from plumbook.plumbing import (
    PretzelSpec,
    StarPlumbing,
    TwistedAnnulus,
    associated_pob,
    pretzel_decompose,
    star_sum_surface,
)
from plumbook.surface import (
    Boundary,
    BoundaryPoint,
    End,
    Glued,
    PolygonPresentation,
    boundary_components,
    euler_characteristic,
    genus,
)

HEXAGON = PolygonPresentation(
    (
        Boundary("B1"),
        Glued("c", End.LEFT),
        Boundary("B2"),
        Boundary("B3"),
        Glued("c", End.RIGHT),
        Boundary("B4"),
    )
)
TWO_STAR = star_sum_surface(StarPlumbing((TwistedAnnulus(2), TwistedAnnulus(2))))
TWO_STAR_EDGES = tuple(s.label for s in TWO_STAR.sides if isinstance(s, Boundary))

positions = st.fractions(
    min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64
)


def point_on(labels):
    return st.builds(BoundaryPoint, st.sampled_from(labels), positions)


def word_over(pairs, max_size):
    return st.lists(
        st.builds(Crossing, st.sampled_from(pairs), st.sampled_from((1, -1))),
        max_size=max_size,
    ).map(tuple)


@st.composite
def arcs_on(draw, labels, pairs, max_size=5):
    start = draw(point_on(labels))
    end = draw(point_on(labels))
    assume(start != end)
    return Arc(start, end, draw(word_over(pairs, max_size)))


hex_arcs = arcs_on(("B1", "B2", "B3", "B4"), ("c",))
star_arcs = arcs_on(TWO_STAR_EDGES, ("c0",), max_size=4)


@given(hex_arcs)
def test_reduce_is_idempotent(a):
    r = reduce(HEXAGON, a)
    assert reduce(HEXAGON, r) == r
    assert (r.start, r.end) == (a.start, a.end)
    assert all(
        x.inverse() != y for x, y in zip(r.crossings, r.crossings[1:])
    )


@given(hex_arcs, hex_arcs)
def test_intersections_are_symmetric(a, b):
    assert interior_intersections(HEXAGON, a, b) == interior_intersections(HEXAGON, b, a)


@given(hex_arcs, hex_arcs, st.integers(0, 5), st.sampled_from((1, -1)))
def test_intersections_only_see_the_isotopy_class(a, b, cut, direction):
    # splice a cancelling pair into a's word: same class, longer spelling
    pad = (Crossing("c", direction), Crossing("c", -direction))
    where = min(cut, len(a.crossings))
    padded = Arc(a.start, a.end, a.crossings[:where] + pad + a.crossings[where:])
    assert is_isotopic(HEXAGON, a, padded)
    assert interior_intersections(HEXAGON, padded, b) == interior_intersections(
        HEXAGON, a, b
    )


@given(hex_arcs, hex_arcs)
def test_intersections_ignore_orientation(a, b):
    want = interior_intersections(HEXAGON, a, b)
    assert interior_intersections(HEXAGON, reverse(a), b) == want
    assert interior_intersections(HEXAGON, a, reverse(b)) == want
    assert (
        minimal_position(HEXAGON, a, a)[2]
        == minimal_position(HEXAGON, reverse(a), reverse(a))[2]
    )


@given(hex_arcs, hex_arcs)
def test_isotopy_is_reflexive_symmetric_orientation_blind(a, b):
    assert is_isotopic(HEXAGON, a, a)
    assert is_isotopic(HEXAGON, a, reverse(a))
    assert is_isotopic(HEXAGON, a, b) == is_isotopic(HEXAGON, b, a)
    assert is_isotopic(HEXAGON, a, b) == is_isotopic(HEXAGON, a, reverse(b))


@given(
    point_on(("B1", "B2", "B3", "B4")),
    point_on(("B1", "B2", "B3", "B4")),
    point_on(("B1", "B2", "B3", "B4")),
    word_over(("c",), 4),
    word_over(("c",), 4),
)
def test_first_divergence_is_antisymmetric(start, end_a, end_b, word_a, word_b):
    assume(start != end_a and start != end_b)
    a, b = Arc(start, end_a, word_a), Arc(start, end_b, word_b)
    ab, ba = first_divergence(HEXAGON, a, b), first_divergence(HEXAGON, b, a)
    flip = {
        Divergence.RIGHT_OF: Divergence.LEFT_OF,
        Divergence.LEFT_OF: Divergence.RIGHT_OF,
        Divergence.EQUAL: Divergence.EQUAL,
    }
    assert ba == flip[ab]
    assert (ab == Divergence.EQUAL) == is_isotopic(HEXAGON, a, b)


@given(star_arcs, star_arcs, st.sampled_from((1, -1)))
def test_twisting_preserves_intersections(a, b, sign):
    # a Dehn twist is a homeomorphism, so it cannot change crossing counts
    ta = twist_about_band(TWO_STAR, a, "c1", sign)
    tb = twist_about_band(TWO_STAR, b, "c1", sign)
    assert interior_intersections(TWO_STAR, ta, tb) == interior_intersections(
        TWO_STAR, a, b
    )
    assert minimal_position(TWO_STAR, ta, ta)[2] == minimal_position(TWO_STAR, a, a)[2]


@given(st.integers(min_value=1, max_value=6))
def test_star_euler_characteristic_law(k):
    p = star_sum_surface(StarPlumbing((TwistedAnnulus(2),) * k))
    chi = euler_characteristic(p)
    assert chi == 1 - k
    assert chi == 2 - 2 * genus(p) - len(boundary_components(p))


def symmetry_books():
    """The 39 stars of at most three bands in {2, -2, 4}, and the first four
    stabilizations of pretzel(-3,3,1)."""
    books = [
        associated_pob(StarPlumbing(tuple(TwistedAnnulus(t) for t in bands)))[2]
        for k in range(1, 4)
        for bands in itertools.product((2, -2, 4), repeat=k)
    ]
    pob = associated_pob(pretzel_decompose(PretzelSpec((-3, 3, 1))))[2]
    for _ in range(4):
        pob = positive_stabilization(pob)
        books.append(pob)
    return books


def test_rotation_changes_nothing_observable():
    books = symmetry_books()
    assert len(books) == 43
    for pob in books:
        assert_symmetry_laws(pob)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from((2, 4, 6)), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=2),
)
def test_stabilization_preserves_the_verdict(twists, count):
    star = StarPlumbing(tuple(TwistedAnnulus(t) for t in twists))
    _ss, _system, pob = associated_pob(star)
    before = contact_verdict(pob)
    chi = euler_characteristic(pob.surface)
    for _ in range(count):
        pob = positive_stabilization(pob)
        chi -= 1
        assert euler_characteristic(pob.surface) == chi
        assert veering_report(pob).is_right_veering
        after = contact_verdict(pob)
        assert after.status == before.status
        assert_certificate_invariants(pob)

"""Arc words on polygon presentations: reduction, intersections, veering order.

The numeric expectations here were worked out by hand in the universal cover
of the annulus and of small star plumbings (chambers form a tree; strands
cross iff their end orders around the shared chambers force it) and are
frozen; the sweep against the independent strip model lives in
test_oracle.py.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from plumbook.errors import (
    InvalidPresentationError,
    MixedSurfacesError,
    NoSharedStartError,
    UnknownPairError,
)
from plumbook.arcs import (
    Arc,
    Crossing,
    Divergence,
    _key,
    arc_view,
    first_divergence,
    interior_intersections,
    is_embedded,
    is_isotopic,
    minimal_position,
    reduce,
    reverse,
    twist_about_band,
    view_divergence,
)
from plumbook.documents import arc_payload
from plumbook.openbook import positive_stabilization
from plumbook.plumbing import PretzelSpec, associated_pob, pretzel_decompose
from plumbook.surface import Boundary, BoundaryPoint, End, Glued, PolygonPresentation

B, L, R = Boundary, End.LEFT, End.RIGHT

HEXAGON = PolygonPresentation(
    (B("B1"), Glued("c", L), B("B2"), B("B3"), Glued("c", R), B("B4"))
)

CP = Crossing("c", 1)
CM = Crossing("c", -1)


def arc(s0, t0, s1, t1, *word):
    return Arc(
        BoundaryPoint(s0, Fraction(*t0)),
        BoundaryPoint(s1, Fraction(*t1)),
        tuple(word),
    )


def star(k):
    sides = []
    for i in range(k):
        sides += [B(f"Bl{i}0"), Glued(f"c{i}", L), B(f"Br{i}0")]
    for i in range(k):
        sides += [B(f"Bl{i}1"), Glued(f"c{i}", R), B(f"Br{i}1")]
    return PolygonPresentation(tuple(sides))


def band_dual(i, num=1, den=3):
    return Arc(
        BoundaryPoint(f"Bl{i}0", Fraction(num, den)),
        BoundaryPoint(f"Br{i}0", Fraction(num, den)),
    )


def twisted_image(p, i, signs):
    """Pushed-off copy of band_dual(i) twisted once about every band."""
    img = band_dual(i, 2, 3)
    for j in sorted(range(len(signs)), reverse=True):
        img = twist_about_band(p, img, f"c{j}", signs[j])
    return img


# --- reduction and structural checks ---


def test_reduce_cancels_backtracks():
    a = arc("B1", (1, 3), "B2", (1, 3), CP, CM, CP, CM)
    assert reduce(HEXAGON, a).crossings == ()
    b = arc("B1", (1, 3), "B2", (1, 3), CP, CP, CM)
    assert reduce(HEXAGON, b).crossings == (CP,)


def test_reduce_is_idempotent_here():
    a = arc("B1", (1, 3), "B2", (1, 3), CP, CM, CM, CP, CP)
    once = reduce(HEXAGON, a)
    assert reduce(HEXAGON, once) == once
    # the reduced arc keeps its check: the same presentation returns it as is
    assert reduce(HEXAGON, once) is once


def test_kept_reduction_is_checked_again_elsewhere_and_invisible():
    once = reduce(HEXAGON, arc("B1", (1, 3), "B2", (1, 3), CP, CM, CP))
    fresh = Arc(once.start, once.end, once.crossings)
    assert once == fresh
    assert hash(once) == hash(fresh)
    assert repr(once) == repr(fresh)
    assert arc_payload(once) == arc_payload(fresh)
    # an equal presentation object is another geometry: checked again
    twin = PolygonPresentation(HEXAGON.sides)
    again = reduce(twin, once)
    assert again == once and again is not once
    renamed_pair = PolygonPresentation(
        (B("B1"), Glued("d", L), B("B2"), B("B3"), Glued("d", R), B("B4"))
    )
    with pytest.raises(UnknownPairError):
        reduce(renamed_pair, once)
    renamed_side = PolygonPresentation(
        (B("B1"), Glued("c", L), B("B5"), B("B3"), Glued("c", R), B("B4"))
    )
    with pytest.raises(MixedSurfacesError):
        reduce(renamed_side, once)


def test_reduce_rejects_unknown_pair():
    a = arc("B1", (1, 3), "B2", (1, 3), Crossing("nope", 1))
    with pytest.raises(UnknownPairError):
        reduce(HEXAGON, a)


def test_reduce_rejects_unknown_side_and_bad_positions():
    with pytest.raises(MixedSurfacesError):
        reduce(HEXAGON, arc("Z9", (1, 3), "B2", (1, 3)))
    with pytest.raises(ValueError):
        reduce(HEXAGON, Arc(BoundaryPoint("B1", Fraction(0)), BoundaryPoint("B2", Fraction(1, 2))))
    with pytest.raises(ValueError):
        a = arc("B1", (1, 3), "B1", (1, 3))
        reduce(HEXAGON, a)


def test_crossing_direction_validated():
    # a bool or a float would be written as a document that check refuses
    for direction in (2, True, 1.0):
        with pytest.raises(ValueError):
            Crossing("c", direction)


def test_arc_ops_validate_presentation():
    bad = PolygonPresentation((B("B1"), Glued("A", L)))
    with pytest.raises(InvalidPresentationError):
        reduce(bad, arc("B1", (1, 3), "B1", (2, 3)))


def test_reverse_is_an_involution():
    a = arc("B1", (1, 4), "B3", (1, 2), CP, CP, CM)
    assert reverse(reverse(a)) == a
    assert reverse(a).crossings == (CP, CM, CM)


# --- frozen intersection numbers on the annulus ---


def test_pushed_copies_of_a_band_dual_chord():
    a = arc("B1", (1, 3), "B2", (1, 3))
    # shifting both params the same way does NOT give a parallel copy: the
    # two sides run in opposite directions along the chamber boundary
    naive = arc("B1", (2, 3), "B2", (2, 3))
    assert interior_intersections(HEXAGON, a, naive) == 1
    parallel = arc("B1", (2, 3), "B2", (1, 6))
    assert interior_intersections(HEXAGON, a, parallel) == 0


def test_once_and_twice_winding_chords_cross_once():
    a = arc("B2", (1, 4), "B3", (1, 4), CP)
    b = arc("B2", (1, 2), "B3", (1, 2), CP, CP)
    assert interior_intersections(HEXAGON, a, b) == 1
    assert interior_intersections(HEXAGON, b, a) == 1


def test_opposite_winding_chords_cross_thrice():
    a = arc("B1", (1, 4), "B2", (1, 4), CP)
    b = arc("B1", (1, 2), "B2", (1, 2), CM)
    assert interior_intersections(HEXAGON, a, b) == 3


def test_double_wind_self_intersections_depend_on_end_order():
    loopish_up = arc("B1", (1, 4), "B1", (1, 2), CP, CP)
    loopish_down = arc("B1", (1, 4), "B1", (1, 10), CP, CP)
    assert interior_intersections(HEXAGON, loopish_up, loopish_up) == 2
    assert interior_intersections(HEXAGON, loopish_down, loopish_down) == 1
    assert not is_embedded(HEXAGON, loopish_up)


def test_duplicate_arcs_count_as_self_under_either_orientation():
    # a reversed duplicate is still the same unoriented arc
    a = arc("B1", (1, 32), "B1", (1, 64), CP, CP)
    assert interior_intersections(HEXAGON, a, reverse(a)) == 1
    assert interior_intersections(HEXAGON, a, a) == 1
    assert interior_intersections(HEXAGON, reverse(a), a) == 1


def test_simple_chords_are_embedded():
    assert is_embedded(HEXAGON, arc("B2", (1, 4), "B3", (1, 4), CP))
    assert is_embedded(HEXAGON, arc("B1", (1, 3), "B2", (1, 3)))


def test_minimal_position_returns_reduced_pair_and_count():
    a = arc("B2", (1, 4), "B3", (1, 4), CP, CM, CP)
    b = arc("B2", (1, 2), "B3", (1, 2), CP, CP)
    ra, rb, n = minimal_position(HEXAGON, a, b)
    assert ra.crossings == (CP,)
    assert rb == b
    assert n == 1


def test_intersections_need_one_surface():
    other = PolygonPresentation(
        (B("X1"), Glued("d", L), B("X2"), B("X3"), Glued("d", R), B("X4"))
    )
    a = arc("B1", (1, 3), "B2", (1, 3))
    b = Arc(BoundaryPoint("X1", Fraction(1, 3)), BoundaryPoint("X2", Fraction(1, 3)))
    with pytest.raises(MixedSurfacesError):
        interior_intersections(HEXAGON, a, b)
    with pytest.raises(MixedSurfacesError):
        interior_intersections(other, a, b)


# --- isotopy ---


def test_isotopic_fixed_accepts_reversal_only():
    a = arc("B1", (1, 3), "B2", (1, 3), CP)
    assert is_isotopic(HEXAGON, a, reverse(a))
    assert is_isotopic(HEXAGON, a, arc("B1", (1, 3), "B2", (1, 3), CM, CP, CP))
    assert not is_isotopic(HEXAGON, a, arc("B1", (1, 3), "B2", (1, 3), CM))
    assert not is_isotopic(HEXAGON, a, arc("B1", (1, 4), "B2", (1, 3), CP))


# --- first divergence ---


def test_divergence_requires_shared_start_side():
    a = arc("B1", (1, 3), "B2", (1, 3))
    b = arc("B2", (1, 3), "B1", (1, 3))
    with pytest.raises(NoSharedStartError):
        first_divergence(HEXAGON, a, b)


def test_divergence_equal_on_identical_classes():
    a = arc("B1", (1, 3), "B2", (1, 3), CP)
    b = arc("B1", (1, 3), "B2", (1, 3), CP, CM, CP)
    assert first_divergence(HEXAGON, a, b) is Divergence.EQUAL


def test_divergence_at_start_point():
    a = arc("B1", (1, 2), "B2", (1, 3))
    b = arc("B1", (1, 2), "B3", (1, 3))
    # leaving B1 at the same point, the B3 endpoint comes later counterclockwise
    assert first_divergence(HEXAGON, a, b) is Divergence.LEFT_OF
    assert first_divergence(HEXAGON, b, a) is Divergence.RIGHT_OF


def test_divergence_parallel_copies_orders_by_position():
    a = arc("B1", (1, 3), "B2", (1, 3))
    b = arc("B1", (2, 3), "B2", (1, 3))
    assert first_divergence(HEXAGON, a, b) is Divergence.RIGHT_OF
    assert first_divergence(HEXAGON, b, a) is Divergence.LEFT_OF


def test_divergence_exit_at_the_reference_comes_first():
    # b's first exit is a's start point: seen from a it opens the
    # counterclockwise scan, so b departs right; seen from b it comes before
    # a's exit only when b starts below it on the side
    a = arc("B1", (1, 3), "B2", (1, 3))
    a_band = arc("B1", (1, 3), "B2", (1, 3), CP)
    b_back = arc("B1", (2, 3), "B1", (1, 3))
    b_ahead = arc("B1", (1, 6), "B1", (1, 3))
    for x, y, xy, yx in (
        (a, b_back, Divergence.RIGHT_OF, Divergence.RIGHT_OF),
        (a, b_ahead, Divergence.RIGHT_OF, Divergence.LEFT_OF),
        (a_band, b_back, Divergence.RIGHT_OF, Divergence.RIGHT_OF),
    ):
        assert first_divergence(HEXAGON, x, y) is xy
        assert first_divergence(HEXAGON, y, x) is yx


# --- twists: Hopf band anchors ---


def test_positive_hopf_band_twist():
    basis = arc("B1", (1, 3), "B2", (1, 3))
    image = twist_about_band(HEXAGON, arc("B1", (2, 3), "B2", (2, 3)), "c", +1)
    assert image.crossings == (CP,)
    assert image.start == BoundaryPoint("B1", Fraction(2, 3))
    assert interior_intersections(HEXAGON, basis, image) == 0
    assert first_divergence(HEXAGON, basis, image) is Divergence.RIGHT_OF
    assert (
        first_divergence(HEXAGON, reverse(basis), reverse(image)) is Divergence.RIGHT_OF
    )


def test_negative_hopf_band_twist():
    basis = arc("B1", (1, 3), "B2", (1, 3))
    image = twist_about_band(HEXAGON, arc("B1", (2, 3), "B2", (2, 3)), "c", -1)
    assert image.crossings == (CM,)
    assert interior_intersections(HEXAGON, basis, image) == 2
    assert first_divergence(HEXAGON, basis, image) is Divergence.LEFT_OF
    assert (
        first_divergence(HEXAGON, reverse(basis), reverse(image)) is Divergence.LEFT_OF
    )


def test_twist_rejects_words_crossing_its_own_band():
    a = arc("B2", (1, 4), "B3", (1, 4), CP)
    with pytest.raises(ValueError):
        twist_about_band(HEXAGON, a, "c", +1)
    with pytest.raises(UnknownPairError):
        twist_about_band(HEXAGON, arc("B1", (1, 3), "B2", (1, 3)), "zz", +1)


def test_twist_fixes_arcs_missing_the_core():
    # chords that stay on one flank of the band core pick up no crossing
    same_side = arc("B1", (1, 4), "B1", (1, 2))
    top_only = arc("B2", (1, 4), "B3", (1, 4))
    for a in (same_side, top_only):
        assert twist_about_band(HEXAGON, a, "c", +1) == a
        assert twist_about_band(HEXAGON, a, "c", -1) == a
        # the reduced input itself comes back, with its kept view
        r = reduce(HEXAGON, a)
        assert twist_about_band(HEXAGON, r, "c", +1) is r


# --- twists on star plumbings: frozen composite words and pairings ---


def test_two_band_star_twisted_images():
    p = star(2)
    imgs = [twisted_image(p, i, (1, 1)) for i in range(2)]
    assert imgs[0].crossings == (Crossing("c0", 1),)
    assert imgs[1].crossings == (Crossing("c1", 1), Crossing("c0", 1))
    basis = [band_dual(0), band_dual(1)]
    matrix = [
        [interior_intersections(p, basis[i], imgs[j]) for j in range(2)]
        for i in range(2)
    ]
    assert matrix == [[0, 1], [0, 0]]
    assert interior_intersections(p, imgs[0], imgs[1]) == 0


def test_three_band_star_twisted_images():
    p = star(3)
    imgs = [twisted_image(p, i, (1, 1, 1)) for i in range(3)]
    assert imgs[2].crossings == (
        Crossing("c2", 1),
        Crossing("c0", 1),
        Crossing("c1", 1),
        Crossing("c0", 1),
    )
    basis = [band_dual(i) for i in range(3)]
    matrix = [
        [interior_intersections(p, basis[i], imgs[j]) for j in range(3)]
        for i in range(3)
    ]
    assert matrix == [[0, 1, 2], [0, 0, 1], [0, 0, 0]]
    for i in range(3):
        for j in range(i + 1, 3):
            assert interior_intersections(p, imgs[i], imgs[j]) == 0


def test_star_images_veer_right_at_both_ends():
    for k, signs in ((2, (1, 1)), (3, (1, 1, 1))):
        p = star(k)
        for i in range(k):
            a = band_dual(i)
            h = twisted_image(p, i, signs)
            assert interior_intersections(p, a, h) == 0
            assert first_divergence(p, a, h) is Divergence.RIGHT_OF
            assert first_divergence(p, reverse(a), reverse(h)) is Divergence.RIGHT_OF


# --- twists as slot substitutions, against insertion then reduction ---


def inserted_then_reduced(p, a, pair, sign):
    """The twist written out on the word: one detour letter before each
    chamber crossing (and before the end) whose chord meets the band core,
    signed by which door the chord faces, the result freely reduced.  The
    chamber addresses are read off p's sides here, not off a kept view."""
    side_of, doors = {}, {}
    for i, s in enumerate(p.sides):
        if isinstance(s, Boundary):
            side_of[s.label] = i
        else:
            doors.setdefault(s.pair, {})[s.end] = (i, 0)

    def out_in(c):
        left, right = doors[c.pair][L], doors[c.pair][R]
        return (left, right) if c.direction > 0 else (right, left)

    core = sorted(doors[pair].values())
    entry = (side_of[a.start.side], a.start.position)
    pieces = []
    for c in (*a.crossings, None):
        exit_ = (side_of[a.end.side], a.end.position) if c is None else out_in(c)[0]
        lo, hi = sorted((entry, exit_))
        if (lo < core[0] < hi) != (lo < core[1] < hi):
            facing_left = _key(entry, doors[pair][L]) < _key(entry, exit_)
            pieces.append(Crossing(pair, sign if facing_left else -sign))
        if c is not None:
            pieces.append(c)
            entry = out_in(c)[1]
    return reduce(p, Arc(a.start, a.end, tuple(pieces)))


def reduced_words(pairs, length):
    """Every reduced word over the pairs of at most length letters."""
    letters = [Crossing(c, d) for c in pairs for d in (1, -1)]
    words, last = [()], [()]
    for _ in range(length):
        last = [w + (c,) for w in last for c in letters if not w or w[-1] != c.inverse()]
        words += last
    return words


def assert_twists_substitute(p, arcs):
    """Each arc twisted about every band it does not cross, both ways, is
    the inserted-then-reduced word, carries the view a fresh reduction
    builds, and has no cancelling neighbours.  Returns how many twists
    inserted a letter."""
    pairs = sorted({s.pair for s in p.sides if isinstance(s, Glued)})
    inserted = 0
    for a in arcs:
        for pair in pairs:
            if any(c.pair == pair for c in a.crossings):
                continue
            for sign in (1, -1):
                t = twist_about_band(p, a, pair, sign)
                fresh = reduce(p, Arc(t.start, t.end, t.crossings))
                assert t == fresh == inserted_then_reduced(p, a, pair, sign)
                # t carries its view, built once: reducing t again returns
                # t, and every later read returns that same view
                view, built = arc_view(p, t), arc_view(p, fresh)
                assert reduce(p, t) is t and arc_view(p, t) is view and view.geo is built.geo
                # the kept reversal runs the slots backwards: the same view
                # as a reduction of the reversed word, kept on the view
                back = reverse(t)
                assert reverse(back) == t and arc_view(p, back) is view.reversed
                turned = arc_view(p, Arc(back.start, back.end, back.crossings))
                for v, w in ((view, built), (view.reversed, turned)):
                    assert (v.letters, v.slots, v.chords) == (w.letters, w.slots, w.chords)
                word = t.crossings
                assert all(x != y.inverse() for x, y in zip(word, word[1:]))
                if len(word) > len(a.crossings):
                    inserted += 1
                else:
                    # a twist meeting nothing returns its reduced input
                    r = reduce(p, a)
                    assert twist_about_band(p, r, pair, sign) is r
    return inserted


@pytest.mark.parametrize("k", [2, 3])
def test_twist_substitutes_slots_on_short_words(k):
    # a slot's fate reads its own entry and exit only, and only the first
    # and last slot of a word touch an endpoint: all start sides against
    # one end side and one start side against all end sides meet every
    # slot a word can have, all pairs of sides the crossing-free chords
    p = star(k)
    labels = [s.label for s in p.sides if isinstance(s, Boundary)]
    ends = {(s, e) for s in labels for e in labels if labels[0] in (s, e)}
    arcs = [
        Arc(BoundaryPoint(s, Fraction(1, 3)), BoundaryPoint(e, Fraction(2, 3)), w)
        for w in reduced_words([f"c{i}" for i in range(k)], 3)
        for s, e in (sorted(ends) if w else itertools.product(labels, labels))
    ]
    assert assert_twists_substitute(p, arcs)


def test_twist_substitutes_slots_on_stabilized_books():
    pob = associated_pob(pretzel_decompose(PretzelSpec((-3, 3, 1))))[2]
    for _ in range(3):
        pob = positive_stabilization(pob)
    assert assert_twists_substitute(pob.surface, (*pob.basis, *pob.images))


def test_backwards_divergence_is_the_reversals_divergence():
    # veering reads the end divergence on the slots run backwards; it must
    # be the divergence of the two reversals, whose views are built apart.
    # Every word of at most 2 letters ends on one side at one of two points
    p = star(2)
    labels = [s.label for s in p.sides if isinstance(s, Boundary)]
    arcs = [
        reduce(p, Arc(BoundaryPoint(s, Fraction(1, 2)), BoundaryPoint(labels[0], t), w))
        for w in reduced_words(["c0", "c1"], 2)
        for s in labels[1:4]
        for t in (Fraction(1, 3), Fraction(2, 3))
    ]
    seen = set()
    for a, b in itertools.product(arcs, repeat=2):
        forward = first_divergence(p, reverse(a), reverse(b))
        assert view_divergence(arc_view(p, a), arc_view(p, b), backwards=True) is forward
        seen.add(forward)
    assert seen == set(Divergence)


def test_twist_refusals_keep_their_messages():
    chord = arc("B1", (1, 3), "B2", (1, 3))
    with pytest.raises(UnknownPairError, match="unknown pair 'zz': no glued side"):
        twist_about_band(HEXAGON, chord, "zz", +1)
    with pytest.raises(ValueError, match=r"^twist sign must be \+1 or -1, got 0$"):
        twist_about_band(HEXAGON, chord, "c", 0)
    crossing = arc("B2", (1, 4), "B3", (1, 4), CM)
    with pytest.raises(
        ValueError, match="^twist about 'c' needs an arc not already crossing that band$"
    ):
        twist_about_band(HEXAGON, crossing, "c", -1)


# --- endpoint positions are decided on integers ---


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(999999, 1000000)])
def test_endpoints_inside_the_unit_interval_pass(t):
    a = Arc(BoundaryPoint("B1", t), BoundaryPoint("B2", Fraction(1, 2)))
    assert reduce(HEXAGON, a) == a


@pytest.mark.parametrize(
    "t, shown", [(0, "0"), (1, "1"), (Fraction(-1, 3), "-1/3"), (Fraction(4, 3), "4/3")]
)
def test_endpoints_outside_the_unit_interval_are_refused(t, shown):
    a = Arc(BoundaryPoint("B2", Fraction(1, 2)), BoundaryPoint("B1", t))
    message = f"endpoint position {shown} outside the open unit interval"
    with pytest.raises(ValueError, match=f"^{message}$"):
        reduce(HEXAGON, a)


def reference_key(n, ref_side, ref_param, addr):
    """Order key as one exact number: off + t, doors at their midpoint."""
    side, pos = addr
    t = pos if pos else Fraction(1, 2)
    off = (side - ref_side) % n
    key = off + t
    if ref_param is not None and off == 0 and t < ref_param:
        key += n
    return key


@st.composite
def circle_addresses(draw):
    """A polygon's sides as doors or boundary sides, a reference (a door,
    a whole side, or a marked point) and addresses on it: doors alone on
    their side, marked points anywhere on boundary sides."""
    doors = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    n = len(doors)
    positions = st.fractions(Fraction(1, 8), Fraction(7, 8), max_denominator=8)
    ref_side = draw(st.integers(0, n - 1))
    marked = not doors[ref_side] and draw(st.booleans())
    ref_param = draw(positions) if marked else None
    addresses = []
    for side in draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=6)):
        addresses.append((side, 0) if doors[side] else (side, draw(positions)))
    return n, ref_side, ref_param, addresses


@given(circle_addresses())
@example((4, 0, Fraction(1, 2), [(0, Fraction(1, 4)), (0, Fraction(3, 4)), (1, 0), (3, Fraction(1, 2))]))
@example((4, 0, Fraction(1, 2), [(0, Fraction(1, 4)), (0, Fraction(1, 2)), (3, Fraction(7, 8))]))
@example((4, 1, None, [(1, 0), (0, Fraction(1, 4)), (2, Fraction(1, 8)), (3, 0)]))
@example((3, 2, None, [(2, Fraction(1, 4)), (2, Fraction(3, 4)), (0, 0)]))
def test_order_keys_match_exact_numbers(case):
    n, ref_side, ref_param, addresses = case
    ref = (ref_side, 0 if ref_param is None else ref_param)
    for x in addresses:
        for y in addresses:
            kx, ky = (_key(ref, a) for a in (x, y))
            rx, ry = (reference_key(n, ref_side, ref_param, a) for a in (x, y))
            assert (kx < ky, kx == ky) == (rx < ry, rx == ry)

"""Partial open books: validation, veering, verdicts, stabilization."""

import itertools
import random
from fractions import Fraction

import pytest

import plumbook.arcs
import plumbook.openbook
from plumbook.arcs import Arc, Crossing, minimal_position, twist_about_band
from plumbook.documents import pob_payload
from plumbook.errors import (
    InvalidOpenBookError,
    InvalidPresentationError,
    SiteObstructedError,
    Violation,
)
from plumbook.openbook import (
    ArcVeer,
    PartialOpenBook,
    certified_book,
    VerdictStatus,
    canonical_pob,
    contact_verdict,
    dividing_set_counts,
    free_site,
    positive_stabilization,
    validate_pob,
    veering_report,
)
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
    euler_characteristic,
)

B, L, R = Boundary, End.LEFT, End.RIGHT

HEXAGON = PolygonPresentation(
    (B("B1"), Glued("c", L), B("B2"), B("B3"), Glued("c", R), B("B4"))
)
TWO_STAR = PolygonPresentation(
    (
        B("Bl00"), Glued("c0", L), B("Br00"),
        B("Bl10"), Glued("c1", L), B("Br10"),
        B("Bl01"), Glued("c0", R), B("Br01"),
        B("Bl11"), Glued("c1", R), B("Br11"),
    )
)


def pt(side, num, den):
    return BoundaryPoint(side, Fraction(num, den))


def hopf_pob(sign):
    star = StarPlumbing((TwistedAnnulus(2 * sign),))
    return associated_pob(star)[2]


def codes(pob):
    return sorted(v.code for v in validate_pob(pob))


def test_hopf_pobs_validate():
    assert validate_pob(hopf_pob(+1)) == []
    assert validate_pob(hopf_pob(-1)) == []


def test_crossing_basis_arcs_flagged():
    a = Arc(pt("B2", 1, 4), pt("B3", 1, 4), (Crossing("c", 1),))
    b = Arc(pt("B2", 1, 2), pt("B3", 1, 2), (Crossing("c", 1), Crossing("c", 1)))
    img_a = Arc(pt("B2", 1, 5), pt("B3", 1, 5), (Crossing("c", 1),))
    img_b = Arc(pt("B2", 2, 5), pt("B3", 2, 5), (Crossing("c", 1), Crossing("c", 1)))
    pob = PartialOpenBook(HEXAGON, (a, b), (img_a, img_b))
    found = codes(pob)
    assert "BasisNotDisjoint" in found
    assert "ImagesNotDisjoint" in found
    # the double-winding arcs also cross themselves on the annulus
    assert "ArcNotEmbedded" in found


def test_far_image_endpoints_flagged():
    a = Arc(pt("B1", 1, 3), pt("B2", 1, 3))
    h = Arc(pt("B1", 2, 3), pt("B4", 1, 3))
    assert "EndpointMismatch" in codes(PartialOpenBook(HEXAGON, (a,), (h,)))
    # on the right sides, but another arc's endpoint sits between
    basis = (Arc(pt("B1", 1, 8), pt("B2", 7, 8)), Arc(pt("B1", 2, 8), pt("B2", 6, 8)))
    images = (Arc(pt("B1", 3, 8), pt("B2", 5, 8)), Arc(pt("B1", 4, 8), pt("B2", 4, 8)))
    assert validate_pob(PartialOpenBook(HEXAGON, basis, images)) == [
        Violation("EndpointMismatch", f"image {i} does not end beside basis arc {i}")
        for i in (0, 1)
    ]


def test_basis_image_count_mismatch_flagged():
    a = Arc(pt("B1", 1, 3), pt("B2", 1, 3))
    assert "EndpointMismatch" in codes(PartialOpenBook(HEXAGON, (a,), ()))


def test_foreign_shared_endpoint_flagged():
    a = Arc(pt("Bl00", 1, 3), pt("Br00", 1, 3))
    b = Arc(pt("Bl10", 1, 3), pt("Br00", 1, 3))
    img_a = Arc(pt("Bl00", 2, 3), pt("Br00", 2, 3), (Crossing("c0", 1),))
    img_b = Arc(pt("Bl10", 2, 3), pt("Br00", 2, 5), (Crossing("c1", 1),))
    pob = PartialOpenBook(TWO_STAR, (a, b), (img_a, img_b))
    assert "TiedEndpoints" in codes(pob)


def test_tied_endpoints_listed_in_order():
    three = star_sum_surface(StarPlumbing((TwistedAnnulus(2),) * 3)).presentation
    basis = (
        Arc(pt("Bl00", 1, 3), pt("Br00", 1, 3)),
        Arc(pt("Br00", 1, 3), pt("Bl10", 1, 3)),
        Arc(pt("Bl20", 1, 3), pt("Br20", 1, 3)),
    )
    images = (
        # sharing a point with its own basis arc is allowed
        Arc(pt("Bl00", 1, 3), pt("Br00", 2, 3)),
        Arc(pt("Br00", 2, 3), pt("Bl10", 2, 3)),
        Arc(pt("Bl10", 1, 3), pt("Br00", 1, 3)),
    )
    point = "BoundaryPoint(side='{}', position=Fraction({}, 3))".format
    assert validate_pob(PartialOpenBook(three, basis, images)) == [
        Violation("ImagesNotDisjoint", "arcs 0 and 2 cross 1 time(s)"),
        Violation("ImagesNotDisjoint", "arcs 1 and 2 cross 1 time(s)"),
        Violation("EndpointMismatch", "image 2 does not end beside basis arc 2"),
        Violation("TiedEndpoints", f"basis arc 0 and image 2 share the point {point('Br00', 1)}"),
        Violation("TiedEndpoints", f"basis arc 1 and image 2 share the point {point('Bl10', 1)}"),
        Violation("TiedEndpoints", f"basis arcs 0 and 1 share the point {point('Br00', 1)}"),
        Violation("TiedEndpoints", f"image arcs 0 and 1 share the point {point('Br00', 2)}"),
    ]


def test_veering_right_left_isotopic():
    assert [v.value for v in veering_report(hopf_pob(+1)).verdicts] == ["Right"]
    assert [v.value for v in veering_report(hopf_pob(-1)).verdicts] == ["Left"]
    a = Arc(pt("B1", 1, 3), pt("B2", 1, 3))
    ident = PartialOpenBook(HEXAGON, (a,), (a,))
    assert veering_report(ident).verdicts == (ArcVeer.ISOTOPIC,)
    assert veering_report(ident).is_right_veering


def test_veering_report_rejects_invalid_books():
    a = Arc(pt("B1", 1, 3), pt("B2", 1, 3))
    h = Arc(pt("B1", 2, 3), pt("B4", 1, 3))
    with pytest.raises(InvalidOpenBookError):
        veering_report(PartialOpenBook(HEXAGON, (a,), (h,)))


def test_verdict_empty_basis_is_tight():
    disk = PartialOpenBook(PolygonPresentation((B("D"),)), (), ())
    v = contact_verdict(disk)
    assert v.status is VerdictStatus.NONZERO_TIGHT
    assert v.matrix == ()
    assert dividing_set_counts(disk) == (1, 0)


def test_verdict_hopf_bands():
    v = contact_verdict(hopf_pob(+1))
    assert v.status is VerdictStatus.NONZERO_TIGHT
    assert v.matrix == ((0,),)
    assert v.witness_index is None
    w = contact_verdict(hopf_pob(-1))
    assert w.status is VerdictStatus.OVERTWISTED_WITNESS
    assert w.witness_index == 0


def test_five_hopf_star_answers_pinned():
    # star 2,2,2,2,2: image i carries 2^i crossings, the longest words
    # that Tier-1 decides; the mirror takes the left-veering short cut
    plain = associated_pob(StarPlumbing((TwistedAnnulus(2),) * 5))[2]
    assert [len(h.crossings) for h in plain.images] == [1, 2, 4, 8, 16]
    assert validate_pob(plain) == []
    assert veering_report(plain).verdicts == (ArcVeer.RIGHT,) * 5
    v = contact_verdict(plain)
    assert v.status is VerdictStatus.NONZERO_TIGHT
    assert v.witness_index is None
    assert v.matrix == (
        (0, 1, 2, 4, 8),
        (0, 0, 1, 2, 4),
        (0, 0, 0, 1, 2),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
    )
    mirrored = associated_pob(StarPlumbing((TwistedAnnulus(-2),) * 5))[2]
    assert validate_pob(mirrored) == []
    assert veering_report(mirrored).verdicts == (ArcVeer.LEFT,) * 5
    w = contact_verdict(mirrored)
    assert w.status is VerdictStatus.OVERTWISTED_WITNESS
    assert w.witness_index == 0
    assert w.matrix is None


def test_verdict_unknown_when_arc_meets_its_image():
    # embedded, right-veering at both ends, but crosses its basis arc once:
    # the bigon criterion does not decide such a book
    a = Arc(pt("Bl00", 1, 3), pt("Br00", 1, 3))
    h = Arc(pt("Bl00", 2, 3), pt("Br00", 2, 3), (Crossing("c0", 1), Crossing("c0", 1)))
    pob = PartialOpenBook(TWO_STAR, (a,), (h,))
    assert validate_pob(pob) == []
    v = contact_verdict(pob)
    assert v.status is VerdictStatus.UNKNOWN
    assert v.matrix == ((1,),)


def test_verdict_never_tight_with_left_arc():
    v = contact_verdict(hopf_pob(-1))
    assert v.status is not VerdictStatus.NONZERO_TIGHT
    assert "left" in v.reason


def test_stabilization_of_disk_is_hopf_book():
    disk = PartialOpenBook(PolygonPresentation((B("D"),)), (), ())
    stab = positive_stabilization(disk)
    assert euler_characteristic(stab.surface) == 0
    assert validate_pob(stab) == []
    assert veering_report(stab).verdicts == (ArcVeer.RIGHT,)
    assert canonical_pob(stab) == canonical_pob(hopf_pob(+1))


def test_three_stabilizations_preserve_verdicts():
    pob = hopf_pob(+1)
    chi = euler_characteristic(pob.surface)
    for _ in range(3):
        before = veering_report(pob).verdicts
        pob = positive_stabilization(pob)
        chi -= 1
        assert euler_characteristic(pob.surface) == chi
        after = veering_report(pob).verdicts
        assert after[: len(before)] == before
        assert after[-1] is ArcVeer.RIGHT
        assert contact_verdict(pob).status is VerdictStatus.NONZERO_TIGHT


def test_stabilization_also_preserves_left_verdicts():
    pob = positive_stabilization(hopf_pob(-1))
    assert veering_report(pob).verdicts == (ArcVeer.LEFT, ArcVeer.RIGHT)
    assert contact_verdict(pob).status is VerdictStatus.OVERTWISTED_WITNESS


def test_obstructed_sites_rejected():
    pob = hopf_pob(+1)
    a = pob.basis[0]
    blocked = (
        BoundaryPoint(a.start.side, a.start.position / 2),
        BoundaryPoint(a.start.side, (a.start.position + 1) / 2),
    )
    with pytest.raises(SiteObstructedError):
        positive_stabilization(pob, blocked)
    with pytest.raises(SiteObstructedError):
        positive_stabilization(
            pob,
            (BoundaryPoint("Br01", Fraction(1, 3)), BoundaryPoint("Bl01", Fraction(2, 3))),
        )


def test_sites_outside_the_open_unit_interval_rejected():
    pob = associated_pob(pretzel_decompose(PretzelSpec((-3, 5, 7, 1))))[2]
    for lo, hi in ((Fraction(9, 10), Fraction(3, 2)), (Fraction(-1), Fraction(1, 100))):
        site = (BoundaryPoint("Bl00", lo), BoundaryPoint("Bl00", hi))
        with pytest.raises(SiteObstructedError, match="open unit interval"):
            positive_stabilization(pob, site)


def test_free_site_is_actually_free():
    pob = hopf_pob(+1)
    q1, q2 = free_site(pob)
    assert q1.side == q2.side
    assert q1.position < q2.position
    for arc in (*pob.basis, *pob.images):
        for m in (arc.start, arc.end):
            assert not (m.side == q1.side and q1.position <= m.position <= q2.position)


def test_dividing_counts():
    assert dividing_set_counts(hopf_pob(+1)) == (2, 1)


def test_canonical_form_ignores_rotation_relabeling_and_sliding():
    base = hopf_pob(+1)
    canon = canonical_pob(base)

    rotated = PolygonPresentation(base.surface.sides[3:] + base.surface.sides[:3])
    assert canonical_pob(
        PartialOpenBook(rotated, base.basis, base.images)
    ) == canon

    def slide(a):
        return Arc(
            BoundaryPoint(a.start.side, a.start.position * Fraction(9, 10)),
            BoundaryPoint(a.end.side, a.end.position * Fraction(9, 10)),
            a.crossings,
        )

    slid = PartialOpenBook(
        base.surface,
        tuple(slide(a) for a in base.basis),
        tuple(slide(a) for a in base.images),
    )
    assert canonical_pob(slid) == canon

    assert canonical_pob(hopf_pob(-1)) != canon


def test_canonical_form_breaks_rotation_ties_by_the_arcs():
    # rotating the ring by four sides maps it onto itself, band x onto band
    # y, so two rotations tie and the arcs decide between them
    ring = PolygonPresentation(
        (B("a"), Glued("x", L), B("b"), Glued("x", R), B("c"), Glued("y", L), B("d"), Glued("y", R))
    )

    def dual_book(pair, left, right):
        pushed = Arc(pt(left, 2, 3), pt(right, 2, 3))
        return PartialOpenBook(
            ring,
            (Arc(pt(left, 1, 3), pt(right, 1, 3)),),
            (twist_about_band(ring, pushed, pair, +1),),
        )

    sides = (
        ("B", "b0"), ("G", "p0", "left"), ("B", "b1"), ("G", "p0", "right"),
        ("B", "b2"), ("G", "p1", "left"), ("B", "b3"), ("G", "p1", "right"),
    )
    want = (
        sides,
        ((("b0", (1, 3)), ("b1", (1, 3)), ()),),
        ((("b0", (2, 3)), ("b1", (2, 3)), (("p0", 1),)),),
    )
    assert canonical_pob(dual_book("x", "a", "b")) == want
    assert canonical_pob(dual_book("y", "c", "d")) == want


def fresh(pob):
    """An equal book with nothing kept on it."""
    return PartialOpenBook(pob.surface, pob.basis, pob.images)


def test_book_checked_once_across_operations(monkeypatch):
    # a stabilized book carries its check; a fresh copy measures one check
    pob = fresh(positive_stabilization(hopf_pob(+1)))
    checked = []
    original = plumbook.openbook.is_embedded
    monkeypatch.setattr(
        plumbook.openbook, "is_embedded", lambda p, a: checked.append(a) or original(p, a)
    )
    veering_report(pob)
    contact_verdict(pob)
    dividing_set_counts(pob)
    validate_pob(pob)
    # one embeddedness test per basis arc and per image, all in one pass
    assert len(checked) == 2 * len(pob.basis)


def test_book_decided_from_kept_arc_views(monkeypatch):
    pob = associated_pob(pretzel_decompose(PretzelSpec((-3, 3, 1))))[2]
    for _ in range(6):
        pob = positive_stabilization(pob)
    pob = fresh(pob)
    built, turned = [], []
    view_init = plumbook.arcs._ArcData.__init__
    monkeypatch.setattr(
        plumbook.arcs._ArcData,
        "__init__",
        lambda self, geo, a: built.append(a) or view_init(self, geo, a),
    )
    reverse = plumbook.openbook.reverse
    monkeypatch.setattr(plumbook.openbook, "reverse", lambda a: turned.append(a) or reverse(a))
    validate_pob(pob)
    veering_report(pob)
    contact_verdict(pob)
    # a view and its reversal per basis arc and image, each built once:
    # veering turns arcs around through their kept reversals
    assert len(built) <= 2 * (len(pob.basis) + len(pob.images))
    assert turned
    for a in turned:
        assert reverse(reverse(a)) is a
    p = pob.surface
    kept = [minimal_position(p, a, h)[:2] for a, h in zip(pob.basis, pob.images)]
    built.clear()
    for a, h in kept:
        minimal_position(p, a, h)
    assert built == []


def test_kept_check_is_invisible():
    used, fresh = hopf_pob(+1), hopf_pob(+1)
    contact_verdict(used)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert pob_payload(used) == pob_payload(fresh)
    assert canonical_pob(used) == canonical_pob(fresh)


def test_invalid_books_raise_on_every_call():
    a = Arc(pt("B1", 1, 3), pt("B2", 1, 3))
    h = Arc(pt("B1", 2, 3), pt("B4", 1, 3))
    bad = PartialOpenBook(HEXAGON, (a,), (h,))
    validate_pob(bad).clear()
    for _ in range(3):
        assert codes(bad) == ["EndpointMismatch"]
        for op in (veering_report, contact_verdict, dividing_set_counts, positive_stabilization):
            with pytest.raises(InvalidOpenBookError):
                op(bad)
    unglued = PolygonPresentation((B("B1"), Glued("c", L), B("B2")))
    on_bad_surface = PartialOpenBook(unglued, (), ())
    for _ in range(3):
        with pytest.raises(InvalidPresentationError):
            validate_pob(on_bad_surface)
        with pytest.raises(InvalidPresentationError):
            contact_verdict(on_bad_surface)


def random_site(pob, rng):
    """Two points in a random gap between marked points (or a side's
    corners) of a random boundary side, mostly one with marked points."""
    ends = [pt for a in (*pob.basis, *pob.images) for pt in (a.start, a.end)]
    labels = [s.label for s in pob.surface.sides if isinstance(s, Boundary)]
    label = rng.choice([pt.side for pt in ends] if ends and rng.random() < 0.75 else labels)
    marked = {pt.position for pt in ends if pt.side == label}
    cuts = [Fraction(0), *sorted(marked), Fraction(1)]
    g = rng.randrange(len(cuts) - 1)
    lo, hi = cuts[g], cuts[g + 1]
    q1, q2 = sorted(rng.sample(range(1, 20), 2))
    return tuple(BoundaryPoint(label, lo + (hi - lo) * q / 20) for q in (q1, q2))


def decided(pob):
    """Everything a check reports on a book, or the error it raises."""
    try:
        return (
            validate_pob(pob),
            veering_report(pob),
            contact_verdict(pob),
            canonical_pob(pob),
        )
    except InvalidOpenBookError as e:
        return validate_pob(pob), str(e)


@pytest.mark.parametrize(
    "start",
    [
        associated_pob(pretzel_decompose(PretzelSpec((-3, 3, 1))))[2],
        hopf_pob(-1),
        PartialOpenBook(PolygonPresentation((B("D"),)), (), ()),
    ],
    ids=["pretzel(-3,3,1)", "hopf(-2)", "disk"],
)
def test_stabilized_books_decide_as_fresh_books(start):
    # stabilizing carries the check, veering and (when kept) the verdict;
    # a fresh copy of every book, rebuilt with nothing kept, must agree
    rng = random.Random(7)
    pob, carried = start, 0
    for step in range(24):
        if step % 4 == 0:
            contact_verdict(pob)
        elif step % 4 == 3:
            # nothing kept: the next book carries no verdict
            pob = fresh(pob)
        site = free_site(pob) if step % 2 else random_site(pob, rng)
        book = positive_stabilization(pob, site)
        carried += "_checked" in book.__dict__
        assert decided(book) == decided(fresh(book))
        if not validate_pob(book):
            pob = book
    # free sites sit above every marked point and always carry
    assert carried >= 12
    assert len(pob.basis) > len(start.basis) + 12


def test_failed_new_arc_tests_keep_nothing(monkeypatch):
    pob = positive_stabilization(hopf_pob(+1))
    contact_verdict(pob)
    monkeypatch.setattr(plumbook.openbook, "interior_intersections", lambda p, a, b: 1)
    book = positive_stabilization(pob)
    assert not {"_checked", "_veering", "_verdict"} & book.__dict__.keys()
    monkeypatch.undo()
    # checked in full on first use instead
    assert decided(book) == decided(fresh(book))
    assert contact_verdict(book).status is VerdictStatus.NONZERO_TIGHT


TWICE = ((("st", 1), ("st", 1)), ("Bl00", "Bl00h"))
ONCE = ((("st0", 1),), ("Bl00", "Bl00t0"))


@pytest.mark.parametrize(
    "basis_arc, image",
    [
        # the new basis arc crosses basis arcs 1 and 2
        (TWICE, TWICE),
        # the new image crosses itself
        (ONCE, ((("st0", -1),), ("Bl00", "Bl00t0"))),
        # the new image ends on another side than its basis arc
        (ONCE, ((("st0", 1),), ("Bl00", "Br01"))),
    ],
    ids=["crossing-basis", "image-not-embedded", "far-image"],
)
@pytest.mark.parametrize("k", [3, 1])
def test_prefix_check_lists_what_a_fresh_check_lists(basis_arc, image, k, monkeypatch):
    # a valid book of 3 pairs, then one more pair whose points lie above
    # every marked point of their sides, as stabilization adds them; the
    # prior is the check of the first k pairs, so with k = 1 three pairs,
    # one failing, extend it
    start = associated_pob(pretzel_decompose(PretzelSpec((-3, 3, 1))))[2]
    valid = positive_stabilization(positive_stabilization(start))
    prefix = PartialOpenBook(valid.surface, valid.basis[:k], valid.images[:k])
    prior = plumbook.openbook._check(prefix)
    assert prior.violations == ()
    ends = [pt for x in (*valid.basis, *valid.images) for pt in (x.start, x.end)]

    def arc(spec, n):
        word, sides = spec
        points = []
        for side in sides:
            top = max((pt.position for pt in ends if pt.side == side), default=Fraction(0))
            points.append(BoundaryPoint(side, top + (1 - top) * n / 3))
        return Arc(*points, tuple(Crossing(*c) for c in word))

    book = PartialOpenBook(
        valid.surface, (*valid.basis, arc(basis_arc, 1)), (*valid.images, arc(image, 2))
    )
    tested = []
    original = plumbook.openbook.is_embedded
    monkeypatch.setattr(
        plumbook.openbook, "is_embedded", lambda p, x: tested.append(x) or original(p, x)
    )
    extended = plumbook.openbook._check(book, prior)
    monkeypatch.undo()
    # only the pairs past the prior are tested for embedding
    assert len(tested) == 2 * (len(book.basis) - k)
    assert extended.violations
    assert list(extended.violations) == validate_pob(fresh(book))


def test_stabilization_counts_only_the_new_arc(monkeypatch):
    pob = associated_pob(pretzel_decompose(PretzelSpec((-3, 5, 7, 1))))[2]
    contact_verdict(pob)
    calls = []
    original = plumbook.arcs.minimal_position
    monkeypatch.setattr(
        plumbook.arcs, "minimal_position", lambda p, a, b: calls.append(a) or original(p, a, b)
    )
    for _ in range(30):
        k = len(pob.basis)
        calls.clear()
        pob = positive_stabilization(pob)
        validate_pob(pob)
        veering_report(pob)
        contact_verdict(pob)
        # disjointness from k old arcs of each kind, then a new matrix
        # column of k entries and a new row of k + 1
        assert len(calls) <= 4 * k + 1


def stars(twists, most):
    """Every star of at most most bands with halftwists from twists."""
    for k in range(1, most + 1):
        for bands in itertools.product(twists, repeat=k):
            yield StarPlumbing(tuple(TwistedAnnulus(t) for t in bands))


def test_star_books_are_certified_by_construction():
    # a star's images are one homeomorphism applied to disjoint chords, so
    # its book carries the chord book's check with the images put in; a
    # full check of an equal book must find exactly the same
    small = list(stars((2, -2, 4, -4, 6, -6), 4))
    hopf = [StarPlumbing((TwistedAnnulus(t),) * k) for k in range(1, 11) for t in (2, -2)]
    assert len(small) == 1554
    for star in (*small, *hopf):
        book = associated_pob(star)[2]
        certified = book.__dict__["_checked"]
        assert certified == plumbook.openbook._check(fresh(book)), star
        assert certified.violations == ()


@pytest.mark.parametrize("bands", [2, 3])
def test_verdict_extends_every_known_row(bands):
    # the known matrix of a book's first k arcs is extended by new columns
    # in its old rows and by new rows; in these stars entry (0, 1) is 1
    book = associated_pob(StarPlumbing((TwistedAnnulus(2),) * bands))[2]
    want = contact_verdict(fresh(book))
    assert want.matrix[0][1] == 1
    for k in range(bands + 1):
        known = tuple(row[:k] for row in want.matrix[:k])
        assert plumbook.openbook._verdict(fresh(book), known) == want


def test_certified_book_keeps_nothing_when_its_premise_fails():
    book = associated_pob(StarPlumbing((TwistedAnnulus(2),) * 2))[2]
    chords = PartialOpenBook(
        book.surface, book.basis, tuple(Arc(h.start, h.end) for h in book.images)
    )
    assert "_checked" in certified_book(chords, book.images).__dict__
    h = book.images[0]
    moved = Arc(BoundaryPoint(h.start.side, Fraction(1, 2)), h.end, h.crossings)
    short = PartialOpenBook(book.surface, book.basis, chords.images[:1])
    assert validate_pob(short)
    for made in (
        # an image endpoint moved: no boundary-fixing map made the images
        certified_book(chords, (moved, book.images[1])),
        # an invalid chord book certifies nothing, though its ends match
        certified_book(short, book.images[:1]),
    ):
        assert "_checked" not in made.__dict__
        assert validate_pob(made) == validate_pob(fresh(made))

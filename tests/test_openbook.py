"""Partial open books: validation, veering, verdicts, stabilization."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from certificates import (
    assert_certificate_invariants,
    assert_inverse_relations,
    assert_validated_geometry,
)

import plumbook.arcs
import plumbook.openbook
from plumbook.arcs import (
    Arc,
    Crossing,
    arc_view,
    interior_intersections,
    minimal_position,
    reverse,
)
from plumbook.cli import main
from plumbook.documents import pob_document, pob_payload, print_documents
from plumbook.errors import (
    InvalidOpenBookError,
    InvalidPresentationError,
    Violation,
)
from plumbook.openbook import (
    ArcVeer,
    PartialOpenBook,
    certified_book,
    ContactVerdict,
    VerdictStatus,
    contact_verdict,
    dividing_set_counts,
    free_site,
    positive_stabilization,
    validate_pob,
    veering_report,
)
from plumbook.plumbing import (
    MAX_HOPF_SUMMANDS,
    PretzelSpec,
    StarPlumbing,
    TwistedAnnulus,
    associated_pob,
    is_strongly_quasipositive,
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


def closed_form(twists):
    """(status, witness index, matrix) of a star's verdict as the closed
    forms give it, read off its Hopf summands alone: a witness at the first
    -2 among them, else NonzeroTight with M[i][j] = 2^(j-i-1) above the
    diagonal and 0 elsewhere.  A test oracle only."""
    hopf = [t for t in twists if abs(t) == 2]
    if -2 in hopf:
        return VerdictStatus.OVERTWISTED_WITNESS, hopf.index(-2), None
    m = range(len(hopf))
    return VerdictStatus.NONZERO_TIGHT, None, tuple(
        tuple(2 ** (j - i - 1) if j > i else 0 for j in m) for i in m
    )


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
    three = star_sum_surface(StarPlumbing((TwistedAnnulus(2),) * 3))
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


def test_arcs_sharing_both_endpoints_name_one_point():
    # two basis arcs of one class run both ways between the same two points;
    # the tie names the point whose text comes first, here the one further
    # along the side: "Fraction(10, 11)" sorts before "Fraction(2, 3)"
    a = Arc(pt("B2", 2, 3), pt("B2", 10, 11))
    b = Arc(pt("B2", 10, 11), pt("B2", 2, 3))
    images = (Arc(pt("B2", 7, 10), pt("B2", 9, 10)), Arc(pt("B2", 19, 20), pt("B2", 1, 2)))
    point = "BoundaryPoint(side='B2', position=Fraction(10, 11))"
    assert validate_pob(PartialOpenBook(HEXAGON, (a, b), images)) == [
        Violation("TiedEndpoints", f"basis arcs 0 and 1 share the point {point}"),
    ]


def test_tie_at_the_top_of_the_first_side_is_the_site():
    # basis arc 1 and both images end at the last marked point of B1, the
    # first boundary side, so the kept site is that point
    basis = (Arc(pt("B1", 1, 3), pt("B4", 1, 3)), Arc(pt("B1", 2, 3), pt("B3", 1, 3)))
    images = (Arc(pt("B1", 2, 3), pt("B4", 2, 3)), Arc(pt("B1", 2, 3), pt("B3", 2, 3)))
    pob = PartialOpenBook(HEXAGON, basis, images)
    point = "BoundaryPoint(side='B1', position=Fraction(2, 3))"
    assert validate_pob(pob) == [
        Violation("TiedEndpoints", f"basis arc 1 and image 0 share the point {point}"),
        Violation("TiedEndpoints", f"image arcs 0 and 1 share the point {point}"),
    ]
    assert pob.__dict__["_checked"].site == ("B1", Fraction(2, 3))
    with pytest.raises(InvalidOpenBookError):
        free_site(pob)


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
    # every plain and mirrored Hopf star up to the limit, 5 bands included,
    # follows the closed forms
    for k in range(1, MAX_HOPF_SUMMANDS + 1):
        for t, veer in ((2, ArcVeer.RIGHT), (-2, ArcVeer.LEFT)):
            pob = associated_pob(StarPlumbing((TwistedAnnulus(t),) * k))[2]
            if t > 0:
                assert [len(h.crossings) for h in pob.images] == [2**i for i in range(k)]
            assert validate_pob(pob) == []
            assert veering_report(pob).verdicts == (veer,) * k, (t, k)
            v = contact_verdict(pob)
            assert (v.status, v.witness_index, v.matrix) == closed_form((t,) * k), (t, k)


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


def cyclic_book():
    """Right-veering, each arc disjoint from its own image, and each arc
    meeting the other's image once: its support is the cycle 0 -> 1 -> 0."""
    basis = tuple(Arc(pt(f"Bl{i}0", 1, 3), pt(f"Br{i}0", 1, 3)) for i in (0, 1))
    words = ((Crossing("c0", 1), Crossing("c1", -1)), (Crossing("c1", 1), Crossing("c0", -1)))
    images = tuple(Arc(pt(f"Bl{i}0", 2, 3), pt(f"Br{i}0", 2, 3), w) for i, w in enumerate(words))
    return PartialOpenBook(TWO_STAR, basis, images)


CYCLIC_REASON = (
    "right-veering and every arc is disjoint from its own image, but arcs meeting "
    "other arcs' images form a cycle: the contact class is not the only generator, "
    "and this book is not decided"
)


def test_verdict_unknown_on_cyclic_support(tmp_path, capsys):
    # the permutation (0 1) gives the sutured diagram a second generator,
    # so the zero diagonal certifies nothing
    pob = cyclic_book()
    assert pob.surface == star_sum_surface(StarPlumbing((TwistedAnnulus(2),) * 2))
    assert validate_pob(pob) == []
    assert veering_report(pob).verdicts == (ArcVeer.RIGHT, ArcVeer.RIGHT)
    v = contact_verdict(pob)
    assert v == ContactVerdict(VerdictStatus.UNKNOWN, CYCLIC_REASON, matrix=((0, 1), (1, 0)))
    assert_certificate_invariants(pob)
    # the command line checks the written book in full: verdicts are data
    path = tmp_path / "book.json"
    path.write_text(print_documents([pob_document(pob)]), encoding="utf-8")
    assert main(["check", str(path), "--checks", "rv,contact", "--format", "text"]) == 0
    out, err = capsys.readouterr()
    assert out == f"rv: Right,Right\ncontact: Unknown ({CYCLIC_REASON})\n"
    assert err == ""


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
    # the Hopf book: one band, its dual arc, and the arc twisted once over it
    assert stab == PartialOpenBook(
        PolygonPresentation((B("D"), Glued("st", L), B("Dh"), Glued("st", R), B("Dt"))),
        (Arc(pt("D", 1, 3), pt("Dh", 1, 3)),),
        (Arc(pt("D", 2, 3), pt("Dh", 2, 3), (Crossing("st", 1),)),),
    )


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


def fresh(pob):
    """An equal book with nothing kept on it or on its surface."""
    return PartialOpenBook(PolygonPresentation(pob.surface.sides), pob.basis, pob.images)


def test_book_checked_once_across_operations(monkeypatch):
    # decided first, so a step on it tests only its new pair
    start = hopf_pob(+1)
    contact_verdict(start)
    checked, oriented = [], []
    # an embeddedness test counts a view against itself
    count = plumbook.openbook.view_count
    monkeypatch.setattr(
        plumbook.openbook,
        "view_count",
        lambda v, w: (v is w and checked.append(v)) or count(v, w),
    )
    orient = plumbook.openbook._oriented_image
    monkeypatch.setattr(
        plumbook.openbook, "_oriented_image", lambda *args: oriented.append(args) or orient(*args)
    )
    # a stabilization tests its new pair through the pair's views: one
    # self-count of the new image's view and one orientation
    stabilized = positive_stabilization(start)
    assert checked == [arc_view(stabilized.surface, stabilized.images[-1])]
    assert len(oriented) == 1
    # a stabilized book carries its check; a fresh copy measures one check
    pob = fresh(stabilized)
    checked.clear()
    oriented.clear()
    validate_pob(pob)
    # the check orients each image once; the operations read the kept pairs
    assert len(oriented) == len(pob.basis)
    veering_report(pob)
    contact_verdict(pob)
    free_site(pob)
    dividing_set_counts(pob)
    validate_pob(pob)
    assert len(oriented) == len(pob.basis)
    # one embeddedness test per basis arc and per image, all in one pass
    assert len(checked) == 2 * len(pob.basis)
    p = pob.surface
    kept = pob.__dict__["_checked"]
    assert {id(v) for v in checked} == {id(arc_view(p, a)) for a in (*kept.basis, *kept.images)}


def test_book_decided_from_kept_arc_views(monkeypatch):
    start = associated_pob(pretzel_decompose(PretzelSpec((-3, 3, 1))))[2]
    assert "_verdict" not in start.__dict__
    stabilized = start
    for _ in range(6):
        stabilized = positive_stabilization(stabilized)
    # the first step decides the undecided start, so every book of the
    # chain keeps its check, veering and verdict, a fresh copy's verdict
    assert {"_checked", "_veering", "_verdict"} <= stabilized.__dict__.keys()
    assert contact_verdict(stabilized) == contact_verdict(fresh(stabilized))
    built, turned = [], []
    view_init = plumbook.arcs._ArcData.__init__
    monkeypatch.setattr(
        plumbook.arcs._ArcData,
        "__init__",
        lambda self, geo, slots: built.append(slots) or view_init(self, geo, slots),
    )
    monkeypatch.setattr(plumbook.openbook, "reverse", lambda a: turned.append(a) or reverse(a))
    for pob in (fresh(stabilized), stabilized):
        built.clear()
        turned.clear()
        validate_pob(pob)
        veering_report(pob)
        contact_verdict(pob)
        # at most a view and its reversal per basis arc and image, each
        # built once, and only for the fresh book: the stabilized book
        # keeps what it decides.  The images already start beside their
        # basis arcs, and veering reads the end divergence on the slots run
        # backwards, so no arc is turned around
        assert len(built) <= 2 * (len(pob.basis) + len(pob.images))
        assert bool(built) == (pob is not stabilized)
        assert turned == []
        p = pob.surface
        checked = pob.__dict__["_checked"]
        for a in (*checked.basis, *checked.images):
            assert reverse(reverse(a)) == a
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
    assert used.__dict__["_checked"] == plumbook.openbook._check(fresh)


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


def decided(pob):
    """Everything a check reports on a book, its kept check with the
    oriented images among it, or the error it raises."""
    try:
        return (
            validate_pob(pob),
            pob.__dict__["_checked"],
            veering_report(pob),
            contact_verdict(pob),
        )
    except InvalidOpenBookError as e:
        return validate_pob(pob), str(e)


STARTS = {
    "hopf(+2)": (2,),
    "hopf(-2)": (-2,),
    "pretzel(-3,3,1)": (2, -4),
    "star 2,2,2": (2, 2, 2),
    "star 2,-2,2": (2, -2, 2),
    "star -2,2": (-2, 2),
    "star 4": (4,),
    "star 2,2,-2,2": (2, 2, -2, 2),
    # every image written end to start: the book keeps them turned around
    "star 2,2,2 reversed": (2, 2, 2),
}


def start_book(name):
    if name == "disk":
        return PartialOpenBook(PolygonPresentation((B("D"),)), (), ())
    if name == "cyclic":
        return cyclic_book()
    if name == "unknown":
        # right-veering, and its one arc meets its image once
        a = Arc(pt("Bl00", 1, 3), pt("Br00", 1, 3))
        h = Arc(pt("Bl00", 2, 3), pt("Br00", 2, 3), (Crossing("c0", 1), Crossing("c0", 1)))
        return PartialOpenBook(TWO_STAR, (a,), (h,))
    book = associated_pob(StarPlumbing(tuple(TwistedAnnulus(t) for t in STARTS[name])))[2]
    if name.endswith("reversed"):
        return PartialOpenBook(book.surface, book.basis, tuple(reverse(h) for h in book.images))
    return book


@pytest.mark.parametrize("name", [*STARTS, "disk", "unknown", "cyclic"])
def test_stabilized_books_decide_as_fresh_books(name):
    # stabilizing carries the check, veering and (when kept) the verdict,
    # and the surface its geometry; a fresh copy of every book, rebuilt
    # with nothing kept, must agree, and on it the new pair meets no old
    # arc, which the carried results take from the construction
    start = pob = start_book(name)
    for step in range(25):
        if step % 4 == 0:
            contact_verdict(pob)
        elif step % 4 == 3:
            # nothing kept: the next step decides the old book first
            pob = fresh(pob)
        pob = positive_stabilization(pob)
        assert {"_checked", "_veering", "_verdict"} <= pob.__dict__.keys(), step
        assert_validated_geometry(pob.surface)
        copy = fresh(pob)
        assert decided(pob) == decided(copy)
        assert validate_pob(pob) == []
        *old_basis, new_basis = copy.__dict__["_checked"].basis
        *old_images, new_image = copy.__dict__["_checked"].images
        counts = [
            interior_intersections(copy.surface, x, y)
            for x in (new_basis, new_image)
            for y in (*old_basis, *old_images)
        ]
        assert counts == [0] * len(counts), step
        assert_certificate_invariants(pob)
    assert contact_verdict(pob).status is contact_verdict(start).status
    assert len(pob.basis) == len(start.basis) + 25


def test_inverse_monodromy_relations_on_stars_and_starts():
    # swapping basis and images inverts the monodromy; on stars it turns
    # every Right arc Left and every Left arc Right
    books = [associated_pob(star)[2] for star in stars((2, -2, 4), 4)]
    assert len(books) == 120
    turns = Counter(turn for book in books for turn in assert_inverse_relations(book))
    assert turns == {(ArcVeer.RIGHT, ArcVeer.LEFT): 142, (ArcVeer.LEFT, ArcVeer.RIGHT): 142}
    for name in [*STARTS, "disk", "unknown", "cyclic"]:
        assert_inverse_relations(start_book(name))


def test_failed_new_arc_tests_keep_nothing(monkeypatch):
    pob = positive_stabilization(hopf_pob(+1))
    contact_verdict(pob)
    # the new image crosses itself (its view counts one crossing against
    # itself), or it does not end beside its basis arc
    count, failed = plumbook.openbook.view_count, []

    def crossing_itself(v, w):
        if v is w:
            failed.append(v)
            return 1
        return count(v, w)

    def not_beside(*args):
        failed.append(args)
        return None

    for name, fail in (("view_count", crossing_itself), ("_oriented_image", not_beside)):
        monkeypatch.setattr(plumbook.openbook, name, fail)
        failed.clear()
        book = positive_stabilization(pob)
        assert len(failed) == 1
        assert not {"_checked", "_veering", "_verdict"} & book.__dict__.keys()
        monkeypatch.undo()
        # checked in full on first use instead
        assert decided(book) == decided(fresh(book))
        assert contact_verdict(book).status is VerdictStatus.NONZERO_TIGHT


def test_stabilization_decides_a_new_arc_with_an_edge_in_full(monkeypatch):
    # a positive stabilization's new arc misses its own image and veers
    # right, so the step carries the verdict; were it not so, the step
    # would decide the book by the full rule, which here counts every pair
    # of distinct views once
    pob = hopf_pob(+1)
    assert contact_verdict(pob).status is VerdictStatus.NONZERO_TIGHT
    count = plumbook.openbook.view_count
    monkeypatch.setattr(plumbook.openbook, "view_count", lambda v, w: count(v, w) if v is w else 1)
    v = contact_verdict(positive_stabilization(pob))
    assert (v.status, v.matrix) == (VerdictStatus.UNKNOWN, ((1, 1), (1, 1)))
    assert "some arc meets its own image" in v.reason
    monkeypatch.undo()
    monkeypatch.setattr(plumbook.openbook, "_veer", lambda a, h: ArcVeer.LEFT)
    v = contact_verdict(positive_stabilization(pob))
    assert (v.status, v.witness_index) == (VerdictStatus.OVERTWISTED_WITNESS, 1)


def test_stabilization_counts_only_the_new_arc(monkeypatch):
    # a step counts only the new pair's diagonal entry, and it builds the
    # same views and makes the same position comparisons whatever the
    # length of the chain: it reads the kept site, it scans no endpoints
    calls, views, compared = [], [], []
    # the count of two distinct views; a self-count tests embeddedness
    count = plumbook.arcs.view_count
    for module in (plumbook.arcs, plumbook.openbook):
        monkeypatch.setattr(
            module, "view_count", lambda v, w: (v is not w and calls.append(v)) or count(v, w)
        )
    view_init = plumbook.arcs._ArcData.__init__
    monkeypatch.setattr(
        plumbook.arcs._ArcData,
        "__init__",
        lambda self, geo, slots: views.append(slots) or view_init(self, geo, slots),
    )
    for name in ("__lt__", "__gt__", "__le__", "__ge__"):
        order = getattr(Fraction, name)
        monkeypatch.setattr(
            Fraction, name, lambda x, y, order=order: compared.append(x) or order(x, y)
        )
    ten = StarPlumbing((TwistedAnnulus(2),) * 10)
    for star in (pretzel_decompose(PretzelSpec((-3, 5, 7, 1))), ten):
        pob = associated_pob(star)[2]
        contact_verdict(pob)
        built, comparisons = set(), []
        for _ in range(20):
            calls.clear()
            views.clear()
            compared.clear()
            pob = positive_stabilization(pob)
            validate_pob(pob)
            veering_report(pob)
            contact_verdict(pob)
            assert len(calls) == 1
            built.add(len(views))
            comparisons.append(len(compared))
        assert len(built) == 1, built
        assert len(set(comparisons)) == 1, comparisons


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


def test_every_distinct_star_book_decides_as_the_paper_says():
    # a star's book depends only on its band count and on the signs and
    # places of its Hopf (+-2) bands, so the patterns in {2, -2, 4}^k, k <= 6,
    # are every distinct star book of at most six bands
    books = {star: associated_pob(star)[2] for star in stars((2, -2, 4), 6)}
    assert len(set(books.values())) == 1092
    fibered = 0
    for star, pob in books.items():
        verdict = contact_verdict(pob)
        assert_certificate_invariants(pob)
        tight = verdict.status is VerdictStatus.NONZERO_TIGHT
        sqp = is_strongly_quasipositive(star)
        twists = [s.halftwists for s in star.summands]
        assert verdict.status is not VerdictStatus.UNKNOWN, star
        # the paper's positive result: strongly quasipositive stars are tight
        assert tight or not sqp, star
        if set(twists) <= {2, -2}:
            # fibered stars: Hedden's equivalence
            fibered += 1
            assert tight == sqp, star
        assert (verdict.status is VerdictStatus.OVERTWISTED_WITNESS) == (-2 in twists), star
        verdicts = veering_report(pob).verdicts
        first_left = verdicts.index(ArcVeer.LEFT) if ArcVeer.LEFT in verdicts else None
        assert verdict.witness_index == first_left, star
        assert (verdict.status, verdict.witness_index, verdict.matrix) == closed_form(twists), star
    assert fibered == 126


@pytest.mark.parametrize(
    "twists",
    [(2,), (-2,), (2, -4), (2, 2, 2), (2, -2, 2)],
    ids=["hopf(+2)", "hopf(-2)", "pretzel(-3,3,1)", "star 2,2,2", "star 2,-2,2"],
)
def test_images_written_end_to_start_decide_as_the_forward_book(twists, tmp_path, capsys):
    star = StarPlumbing(tuple(TwistedAnnulus(t) for t in twists))
    forward = associated_pob(star)[2]
    backward = PartialOpenBook(
        forward.surface, forward.basis, tuple(reverse(h) for h in forward.images)
    )
    assert backward.images != forward.images
    assert validate_pob(backward) == []
    assert veering_report(backward) == veering_report(fresh(forward))
    assert contact_verdict(backward) == contact_verdict(fresh(forward))
    # the command line checks the written book in full, with the same report
    outputs = []
    for book in (forward, backward):
        path = tmp_path / "book.json"
        path.write_text(print_documents([pob_document(book, star)]), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_decided_arcs_keep_nothing_but_their_view():
    # reverse keeps nothing on either arc, so deciding a book, turning its
    # images around included, leaves each arc with its view alone
    chain = start_book("pretzel(-3,3,1)")
    for _ in range(5):
        chain = positive_stabilization(chain)
    for pob in (start_book("star 2,2,2"), start_book("star 2,2,2 reversed"), chain):
        contact_verdict(pob)
        checked = pob.__dict__["_checked"]
        for a in (*pob.basis, *pob.images, *checked.basis, *checked.images):
            assert a.__dict__.keys() - {"start", "end", "crossings"} <= {"_view"}


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

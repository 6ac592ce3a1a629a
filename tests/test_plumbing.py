"""Twisted annuli, star sums, pretzel decompositions, product disks."""

from fractions import Fraction

import pytest

from certificates import assert_validated_geometry

import plumbook.arcs
import plumbook.plumbing
import plumbook.surface
from plumbook.arcs import Arc, Crossing, interior_intersections
from plumbook.errors import (
    MAX_LISTED_VIOLATIONS,
    HopfOnlyWarning,
    NotABasisError,
    OddTwistError,
    ZeroTwistError,
)
from plumbook.openbook import PartialOpenBook, contact_verdict, validate_pob
from plumbook.plumbing import (
    MAX_HOPF_SUMMANDS,
    PretzelSpec,
    ProductDiskSystem,
    StarPlumbing,
    TwistedAnnulus,
    associated_pob,
    is_strongly_quasipositive,
    pob_from_product_disks,
    pretzel_decompose,
    product_disk_basis,
    star_book,
    star_sum_surface,
)
from plumbook.surface import (
    BoundaryPoint,
    Glued,
    boundary_components,
    euler_characteristic,
    genus,
    validate,
)


def halftwists(star):
    return [s.halftwists for s in star.summands]


def star_of(*twists):
    return StarPlumbing(tuple(TwistedAnnulus(t) for t in twists))


def test_twisted_annulus_validation():
    assert TwistedAnnulus(2).halftwists == 2
    assert TwistedAnnulus(-4).halftwists == -4
    with pytest.raises(OddTwistError):
        TwistedAnnulus(3)
    with pytest.raises(ZeroTwistError):
        TwistedAnnulus(0)


def test_counts_are_integers():
    # no coercion: a float or a bool is refused, not rounded or counted
    for t in (2.0, True, "2"):
        with pytest.raises(ValueError, match="halftwists must be an integer"):
            TwistedAnnulus(t)
    for coeffs in ((-3.7, 3, 1), (True, 1), (-3, 3.0, 1)):
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            PretzelSpec(coeffs)


def test_star_needs_a_summand():
    with pytest.raises(ValueError):
        StarPlumbing(())


def test_pretzel_spec_validation():
    PretzelSpec((-3, 3, 1))
    with pytest.raises(ValueError, match="even coefficient"):
        PretzelSpec((-3, 2, 1))
    with pytest.raises(ValueError, match="final coefficient"):
        PretzelSpec((-3, 3, 5))
    with pytest.raises(ValueError):
        PretzelSpec((1,))


def test_pretzel_decompose_goldens():
    assert halftwists(pretzel_decompose(PretzelSpec((-3, 3, 1)))) == [2, -4]
    assert halftwists(pretzel_decompose(PretzelSpec((-3, 5, 1)))) == [2, -6]
    assert halftwists(pretzel_decompose(PretzelSpec((-3, 3, 3, 1)))) == [2, -4, -4]


def test_pretzel_decompose_mirror_negates_every_band():
    for coeffs in ((-3, 3, 1), (-3, 5, 7, 1), (-3, -5, 1)):
        spec = PretzelSpec(coeffs)
        plain = halftwists(pretzel_decompose(spec))
        mirrored = halftwists(pretzel_decompose(spec, mirror=True))
        assert mirrored == [-t for t in plain]


def test_pretzel_decompose_rejects_flat_band():
    with pytest.raises(ZeroTwistError):
        pretzel_decompose(PretzelSpec((-3, -1, 1)))


def test_pretzel_decompose_warns_on_nonleading_hopf():
    with pytest.warns(HopfOnlyWarning):
        pretzel_decompose(PretzelSpec((-3, -3, 1)))
    with pytest.warns(HopfOnlyWarning):
        pretzel_decompose(PretzelSpec((-3, 1, 1)))


def test_star_surface_chi_is_one_minus_k():
    for k in range(1, 6):
        star = star_of(*([2] * k))
        p = star_sum_surface(star)
        assert validate(p) == []
        assert euler_characteristic(p) == 1 - k
        assert sorted({s.pair for s in p.sides if isinstance(s, Glued)}) == [
            f"c{i}" for i in range(k)
        ]


def test_stevedore_surface_invariants():
    p = star_sum_surface(pretzel_decompose(PretzelSpec((-3, 3, 1))))
    assert euler_characteristic(p) == -1
    assert genus(p) == 1
    assert len(boundary_components(p)) == 1


def test_single_band_star_is_an_annulus():
    p = star_sum_surface(star_of(2))
    assert euler_characteristic(p) == 0
    assert len(boundary_components(p)) == 2


def test_product_disks_come_from_hopf_summands_only():
    assert len(product_disk_basis(star_of(2, -4)).pairs) == 1
    assert len(product_disk_basis(star_of(-4)).pairs) == 0
    sys2 = product_disk_basis(star_of(2, 2))
    assert len(sys2.pairs) == 2
    p = star_sum_surface(star_of(2, 2))
    (a0, h0), (a1, h1) = sys2.pairs
    assert interior_intersections(p, a0, a1) == 0
    assert interior_intersections(p, h0, h1) == 0


def test_hopf_pair_words_follow_band_sign():
    (a, h), = product_disk_basis(star_of(2)).pairs
    assert h.crossings == (Crossing("c0", 1),)
    (a, h), = product_disk_basis(star_of(-2)).pairs
    assert h.crossings == (Crossing("c0", -1),)


def test_pob_from_product_disks_round_trip():
    star = star_of(2, -4)
    ss, system, pob = associated_pob(star)
    assert validate_pob(pob) == []
    assert len(pob.basis) == 1
    assert pob.basis == tuple(a for a, _ in system.pairs)


def test_associated_pob_validates_no_presentation(monkeypatch):
    # the star's surface carries its geometry from its construction
    seen = []
    original = plumbook.surface.validate
    monkeypatch.setattr(plumbook.surface, "validate", lambda p: seen.append(p) or original(p))
    star = star_of(2, 2, -4)
    _surface, system, pob = associated_pob(star)
    contact_verdict(pob)
    assert seen == []
    assert system == product_disk_basis(star)


def test_star_surfaces_carry_the_geometry_validation_builds():
    for k in (*range(1, 301), 1000):
        assert_validated_geometry(star_sum_surface(star_of(*[2] * k)))


def test_star_books_go_through_one_checked_path(monkeypatch):
    # the book of the basis and its chords is built and checked by the one
    # public function, and each arc gets one view: the basis chord, the
    # pushed-off chord and the twisted image
    calls, built = [], []
    original = plumbook.plumbing.pob_from_product_disks
    monkeypatch.setattr(
        plumbook.plumbing,
        "pob_from_product_disks",
        lambda p, system: calls.append(system) or original(p, system),
    )
    view_init = plumbook.arcs._ArcData.__init__
    monkeypatch.setattr(
        plumbook.arcs._ArcData,
        "__init__",
        lambda self, geo, slots: built.append(slots) or view_init(self, geo, slots),
    )
    associated_pob(pretzel_decompose(PretzelSpec((-3, 5, -7, 1))))
    assert len(calls) == 1
    assert len(built) == 3
    # a caller's basis arc with cancelling letters comes back reduced
    (a, h), = product_disk_basis(star_of(2)).pairs
    written = Arc(a.start, a.end, (Crossing("c0", 1), Crossing("c0", -1)))
    pob = original(star_sum_surface(star_of(2)), ProductDiskSystem(((written, h),)))
    assert validate_pob(pob) == []
    assert pob.basis == (a,)
    assert pob.basis[0].crossings == ()


def test_stars_beyond_the_hopf_limit_are_refused(monkeypatch):
    # refused before the first twist: an 11-band star takes over a minute
    monkeypatch.setattr(plumbook.plumbing, "twist_about_band", None)
    star = star_of(*[2] * (MAX_HOPF_SUMMANDS + 1), -4)
    for build in (product_disk_basis, associated_pob):
        with pytest.raises(ValueError, match=f"at most {MAX_HOPF_SUMMANDS} are supported"):
            build(star)


def test_star_book_is_the_certified_book_or_none(monkeypatch):
    star = star_of(2, -4, 2)
    built = associated_pob(star)[2]
    written = PartialOpenBook(built.surface, built.basis, built.images)
    found = star_book(star, written)
    assert found == written and "_checked" in found.__dict__
    # another star of as many bands has another book
    assert star_book(star_of(2, -4, -2), written) is None
    # no star is built for a polygon of another size or past the Hopf limit
    monkeypatch.setattr(plumbook.plumbing, "associated_pob", None)
    assert star_book(star_of(2, -4), written) is None
    big = star_of(*[2] * (MAX_HOPF_SUMMANDS + 1))
    assert star_book(big, PartialOpenBook(star_sum_surface(big), (), ())) is None


def test_empty_system_gives_empty_basis():
    star = star_of(-4)
    _, system, pob = associated_pob(star)
    assert system.pairs == ()
    assert pob.basis == ()


def test_not_a_basis_wandering_arc():
    p = star_sum_surface(star_of(2))
    a = Arc(
        BoundaryPoint("Bl00", Fraction(1, 3)),
        BoundaryPoint("Br00", Fraction(1, 3)),
        (Crossing("c0", 1), Crossing("c0", 1)),
    )
    h = Arc(BoundaryPoint("Bl00", Fraction(2, 3)), BoundaryPoint("Br00", Fraction(2, 3)))
    with pytest.raises(NotABasisError, match="door"):
        pob_from_product_disks(p, ProductDiskSystem(((a, h),)))


def test_not_a_basis_chord_missing_every_band():
    p = star_sum_surface(star_of(2))
    a = Arc(BoundaryPoint("Bl00", Fraction(1, 3)), BoundaryPoint("Bl00", Fraction(1, 2)))
    h = Arc(BoundaryPoint("Bl00", Fraction(1, 4)), BoundaryPoint("Bl00", Fraction(2, 3)))
    with pytest.raises(NotABasisError, match="expected exactly 1"):
        pob_from_product_disks(p, ProductDiskSystem(((a, h),)))


def test_not_a_basis_doubled_band():
    star = star_of(2)
    p = star_sum_surface(star)
    (a, h), = product_disk_basis(star).pairs
    shifted_a = Arc(
        BoundaryPoint(a.start.side, Fraction(1, 6)),
        BoundaryPoint(a.end.side, Fraction(1, 6)),
    )
    shifted_h = Arc(
        BoundaryPoint(h.start.side, Fraction(5, 6)),
        BoundaryPoint(h.end.side, Fraction(5, 6)),
        h.crossings,
    )
    with pytest.raises(NotABasisError, match="two arcs"):
        pob_from_product_disks(p, ProductDiskSystem(((a, h), (shifted_a, shifted_h))))


def test_not_a_basis_message_is_bounded():
    # 25 images on the far side of their bands do not end beside their
    # chords: the message names the first few violations, as an invalid
    # book's error does, instead of all 25
    k = 25
    p = star_sum_surface(star_of(*[2] * k))
    third = Fraction(1, 3)
    system = ProductDiskSystem(
        tuple(
            (
                Arc(BoundaryPoint(f"Bl{i}0", third), BoundaryPoint(f"Br{i}0", third)),
                Arc(BoundaryPoint(f"Bl{i}1", third), BoundaryPoint(f"Br{i}1", third)),
            )
            for i in range(k)
        )
    )
    with pytest.raises(NotABasisError) as exc:
        pob_from_product_disks(p, system)
    message = str(exc.value)
    assert message.startswith("EndpointMismatch: image 0 does not end beside basis arc 0; ")
    assert message.count("EndpointMismatch") == MAX_LISTED_VIOLATIONS
    assert message.endswith(f"; (and {k - MAX_LISTED_VIOLATIONS} more)")


def test_strongly_quasipositive_iff_all_bands_positive():
    assert not is_strongly_quasipositive(star_of(2, -4))
    assert is_strongly_quasipositive(star_of(2, 4))
    assert is_strongly_quasipositive(star_of(2))
    assert not is_strongly_quasipositive(star_of(-2))

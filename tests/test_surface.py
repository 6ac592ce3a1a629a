"""Polygon presentations: validation diagnostics, chi, boundary walks, genus."""

from fractions import Fraction

import pytest

import plumbook.surface
from plumbook.arcs import Arc, first_divergence, minimal_position, reduce
from plumbook.documents import surface_payload
from plumbook.errors import InvalidPresentationError
from plumbook.surface import (
    Boundary,
    BoundaryPoint,
    End,
    Glued,
    PolygonPresentation,
    boundary_components,
    canonical_relabel,
    euler_characteristic,
    genus,
    merge_boundary_runs,
    validate,
)

B = Boundary
L, R = End.LEFT, End.RIGHT


def G(pair, end):
    return Glued(pair, end)


def poly(*sides):
    return PolygonPresentation(tuple(sides))


def star(k, tag=""):
    """Star plumbing polygon: k bands around a central chamber, 6k sides."""
    sides = []
    for i in range(k):
        sides += [B(f"Bl{i}0{tag}"), G(f"c{i}{tag}", L), B(f"Br{i}0{tag}")]
    for i in range(k):
        sides += [B(f"Bl{i}1{tag}"), G(f"c{i}{tag}", R), B(f"Br{i}1{tag}")]
    return poly(*sides)


HEXAGON = poly(B("B1"), G("c", L), B("B2"), B("B3"), G("c", R), B("B4"))


def codes(p):
    return sorted(v.code for v in validate(p))


def test_square_disk_is_valid():
    p = poly(B("B1"), B("B2"), B("B3"), B("B4"))
    assert validate(p) == []
    assert euler_characteristic(p) == 1
    assert boundary_components(p) == (("B1", "B2", "B3", "B4"),)
    assert genus(p) == 0


def test_one_sided_disk():
    p = poly(B("B1"))
    assert validate(p) == []
    assert euler_characteristic(p) == 1
    assert genus(p) == 0


def test_annulus_hexagon():
    assert validate(HEXAGON) == []
    assert euler_characteristic(HEXAGON) == 0
    assert boundary_components(HEXAGON) == (("B1", "B4"), ("B2", "B3"))
    assert genus(HEXAGON) == 0


def test_two_band_star_is_genus_one():
    p = star(2)
    assert validate(p) == []
    assert euler_characteristic(p) == -1
    assert boundary_components(p) == (
        ("Bl00", "Br01", "Bl11", "Br10", "Bl01", "Br00", "Bl10", "Br11"),
    )
    assert genus(p) == 1


def test_three_band_star():
    p = star(3)
    assert validate(p) == []
    assert euler_characteristic(p) == -2
    assert boundary_components(p) == (
        ("Bl00", "Br01", "Bl11", "Br10", "Bl20", "Br21"),
        ("Br00", "Bl10", "Br11", "Bl21", "Br20", "Bl01"),
    )
    assert genus(p) == 1


def test_empty_polygon_rejected():
    assert codes(poly()) == ["EmptyPolygon"]


def test_duplicate_boundary_label():
    assert "DuplicateLabel" in codes(poly(B("B1"), B("B1")))


def test_pair_occurring_once():
    assert codes(poly(B("B1"), G("A", L))) == ["UnmatchedPair"]


def test_pair_with_two_left_halves():
    # the example shape: two same-end halves of one pair
    p = poly(B("B1"), G("A", L), B("B2"), G("A", L))
    assert codes(p) == ["UnmatchedPair"]


def test_torus_pattern_has_no_boundary():
    p = poly(G("A", L), G("B", L), G("A", R), G("B", R))
    assert "NoBoundary" in codes(p)


def test_folded_disk_has_interior_vertex():
    # gluing adjacent sides folds the polygon; the pinch corner leaves the boundary
    p = poly(B("B1"), G("A", L), G("A", R), B("B2"))
    assert "InteriorVertex" in codes(p)


def test_operations_refuse_invalid_input():
    p = poly(B("B1"), G("A", L))
    with pytest.raises(InvalidPresentationError) as exc:
        euler_characteristic(p)
    assert any(v.code == "UnmatchedPair" for v in exc.value.violations)
    with pytest.raises(InvalidPresentationError):
        boundary_components(p)


def test_rotation_preserves_invariants():
    n = len(HEXAGON.sides)
    for r in range(n):
        q = poly(*(HEXAGON.sides[(i + r) % n] for i in range(n)))
        assert euler_characteristic(q) == 0
        assert len(boundary_components(q)) == 2
        assert genus(q) == 0


def test_canonical_relabel_identifies_rotations():
    n = len(HEXAGON.sides)
    canon = canonical_relabel(HEXAGON)
    for r in range(n):
        q = poly(*(HEXAGON.sides[(i + r) % n] for i in range(n)))
        assert canonical_relabel(q) == canon


def test_canonical_relabel_identifies_renamings():
    renamed = poly(B("x"), G("band", L), B("y"), B("z"), G("band", R), B("w"))
    assert canonical_relabel(renamed) == canonical_relabel(HEXAGON)
    assert canonical_relabel(star(2, tag="q")) == canonical_relabel(star(2))


def test_canonical_relabel_of_a_symmetric_polygon():
    # two minimal rotations (0 and 4) tie; both relabel to the same polygon
    ring = poly(B("a"), G("x", L), B("b"), G("x", R), B("c"), G("y", L), B("d"), G("y", R))
    want = poly(B("b0"), G("p0", L), B("b1"), G("p0", R), B("b2"), G("p1", L), B("b3"), G("p1", R))
    for r in range(0, 8, 2):
        assert canonical_relabel(poly(*ring.sides[r:], *ring.sides[:r])) == want


def test_merge_boundary_runs_fuses_adjacent_sides():
    p = poly(B("x"), B("y"), G("a", L), B("z"), G("a", R))
    merged, point_map = merge_boundary_runs(p)
    assert merged.sides == (B("x"), G("a", L), B("z"), G("a", R))
    assert point_map == {"x": ("x", 0, 2), "y": ("x", 1, 2), "z": ("z", 0, 1)}


def test_merge_boundary_runs_all_boundary_collapses_to_one_side():
    merged, point_map = merge_boundary_runs(poly(B("a"), B("b"), B("c")))
    assert merged == poly(B("a"))
    assert point_map == {"a": ("a", 0, 3), "b": ("a", 1, 3), "c": ("a", 2, 3)}


def test_merge_preserves_surface_invariants():
    for p in (HEXAGON, star(2), star(3)):
        merged, _ = merge_boundary_runs(p)
        assert euler_characteristic(merged) == euler_characteristic(p)
        assert len(boundary_components(merged)) == len(boundary_components(p))
        assert genus(merged) == genus(p)


def test_boundary_point_coerces_position():
    from fractions import Fraction

    pt = BoundaryPoint("B1", Fraction(1, 3))
    assert pt == BoundaryPoint("B1", Fraction(2, 6))


def test_presentation_validated_once_per_object(monkeypatch):
    seen = []
    original = plumbook.surface.validate
    monkeypatch.setattr(
        plumbook.surface, "validate", lambda p: seen.append(p) or original(p)
    )
    p = star(2)
    a = Arc(BoundaryPoint("Bl00", Fraction(1, 3)), BoundaryPoint("Br00", Fraction(1, 3)))
    b = Arc(BoundaryPoint("Bl00", Fraction(2, 3)), BoundaryPoint("Br10", Fraction(1, 3)))
    for _ in range(2):
        euler_characteristic(p)
        reduce(p, a)
        minimal_position(p, a, b)
        first_divergence(p, a, b)
    assert seen == [p] and seen[0] is p
    # an equal but distinct object is checked on its own
    euler_characteristic(star(2))
    assert len(seen) == 2


def test_one_geometry_per_fresh_presentation(monkeypatch):
    built = []
    original = plumbook.surface._Geometry.__init__
    monkeypatch.setattr(
        plumbook.surface._Geometry, "__init__", lambda self, p: built.append(p) or original(self, p)
    )
    p = star(2)
    a = Arc(BoundaryPoint("Bl00", Fraction(1, 3)), BoundaryPoint("Br00", Fraction(1, 3)))
    euler_characteristic(p)
    ra = reduce(p, a)
    assert built == [p]
    # validating again builds another view but keeps the first one, which
    # the arcs reduced on p refer to
    assert validate(p) == []
    assert reduce(p, ra) is ra


def test_kept_geometry_is_invisible():
    used, fresh = star(3), star(3)
    euler_characteristic(used)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert surface_payload(used) == surface_payload(fresh)


def test_invalid_presentation_raises_on_every_call():
    p = poly(B("B1"), G("A", L), B("B2"))
    a = Arc(BoundaryPoint("B1", Fraction(1, 3)), BoundaryPoint("B2", Fraction(1, 3)))
    for _ in range(3):
        with pytest.raises(InvalidPresentationError):
            euler_characteristic(p)
        with pytest.raises(InvalidPresentationError):
            reduce(p, a)

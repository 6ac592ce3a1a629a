"""Polygon presentations: validation diagnostics, chi, boundary walks, genus."""

import hashlib
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import plumbook.surface
from plumbook.arcs import Arc, first_divergence, minimal_position, reduce
from plumbook.documents import surface_payload
from plumbook.errors import InvalidPresentationError, Violation
from plumbook.surface import (
    Boundary,
    BoundaryPoint,
    End,
    Glued,
    PolygonPresentation,
    boundary_components,
    euler_characteristic,
    genus,
    geometry,
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


def test_interior_vertices_are_listed_in_linear_time():
    # n folded pairs behind one boundary side: corner 2 + 2j, between the
    # two halves of pair j, is an orbit of its own in the interior; a
    # validation that rescans every corner per orbit took about 32 s here
    n = 20_000
    sides = [B("b")]
    for j in range(n):
        sides += [G(f"p{j}", L), G(f"p{j}", R)]
    p = poly(*sides)
    began = time.perf_counter()
    found = validate(p)
    assert time.perf_counter() - began < 2
    assert found == [
        Violation(
            "InteriorVertex",
            f"corner orbit [{2 + 2 * j}] lies in the surface interior; "
            "arc normal forms need every polygon vertex on the boundary",
        )
        for j in range(n)
    ]


def test_interior_vertices_come_in_order_of_their_smallest_corner():
    # corners 1 and 3 are glued through both pairs, corner 2 only to itself
    p = poly(G("a", L), G("c10", R), G("c10", L), G("a", R), B("B0"))
    assert [v.detail.split(" lies")[0] for v in validate(p)] == [
        "corner orbit [1, 3]",
        "corner orbit [2]",
    ]


def random_presentations(seed, count):
    """Seeded presentations of 0-4 pairs, each of 1-3 halves with mostly
    one end of each, named out of sorted order, and 0-5 boundary sides
    whose labels often repeat, all in random side order."""
    rng = random.Random(seed)
    names = ["z", "c0", "b", "p9", "a", "c10", "y2", "m"]
    labels = ["B0", "B1", "B2", "B3", "B4", "B5", "B6", "B7"]
    for _ in range(count):
        sides = []
        for pair in rng.sample(names, rng.randint(0, 4)):
            halves = rng.choice((1, 2, 2, 2, 2, 2, 2, 2, 3))
            if halves == 2 and rng.random() < 0.9:
                ends = [L, R]
            else:
                ends = [rng.choice((L, R)) for _ in range(halves)]
            sides += [G(pair, e) for e in ends]
        pool = labels[: rng.choice((2, 4, 8, 8, 8))]
        sides += [B(rng.choice(pool)) for _ in range(rng.randint(0, 5))]
        rng.shuffle(sides)
        yield poly(*sides)


def test_validation_of_a_random_corpus_is_pinned():
    # violations in their order, and chi and the boundary words of the
    # valid presentations, for 7,000 presentations; the digest pins them
    digest = hashlib.sha256()
    seen = Counter()
    for p in random_presentations(13, 7000):
        found = validate(p)
        digest.update(str(found).encode())
        seen.update({v.code for v in found})
        seen["several interior vertices"] += [v.code for v in found].count("InteriorVertex") > 1
        if not found:
            seen["valid"] += 1
            digest.update(str((euler_characteristic(p), boundary_components(p))).encode())
    assert min(seen.values()) >= 200, seen
    assert digest.hexdigest() == (
        "c22049ce97ca87ac4335edd11902886549f561f4006c39fa75dd3eacd8623820"
    )


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


def test_boundary_point_coerces_position():
    from fractions import Fraction

    pt = BoundaryPoint("B1", Fraction(1, 3))
    assert pt == BoundaryPoint("B1", Fraction(2, 6))


class _Third(Fraction):
    """A Fraction subclass, which a position must not stay."""


@pytest.mark.parametrize(
    "given, exact",
    [
        (1, Fraction(1)),
        ("2/6", Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1, 3)),
        (_Third(1, 3), Fraction(1, 3)),
    ],
)
def test_boundary_point_positions_are_exact_fractions(given, exact):
    position = BoundaryPoint("B1", given).position
    assert type(position) is Fraction
    assert position == exact
    # an exact Fraction is kept, not copied
    if type(given) is Fraction:
        assert position is given


@pytest.mark.parametrize("given", [0.5, 0.1, True, False])
def test_boundary_point_refuses_inexact_positions(given):
    # Fraction(0.1) is 3602879701896397/36028797018963968 and True is 1
    with pytest.raises(ValueError, match=f"position must be exact, got {given!r}"):
        BoundaryPoint("B1", given)


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
    original = plumbook.surface.Geometry.__init__
    monkeypatch.setattr(
        plumbook.surface.Geometry,
        "__init__",
        lambda self, *walk: built.append(self) or original(self, *walk),
    )
    p = star(2)
    a = Arc(BoundaryPoint("Bl00", Fraction(1, 3)), BoundaryPoint("Br00", Fraction(1, 3)))
    euler_characteristic(p)
    ra = reduce(p, a)
    assert len(built) == 1 and built[0] is geometry(p)
    # validating again builds another view but keeps the first one, which
    # the arcs reduced on p refer to
    assert validate(p) == []
    assert reduce(p, ra) is ra


def test_geometry_publishes_the_side_index():
    # the pair's right half comes first in side order, its left half first
    # in pair_sides
    p = poly(B("B1"), G("c", R), B("B2"), B("B3"), G("c", L), B("B4"))
    geo = geometry(p)
    assert geo is geometry(p)
    assert len(p.sides) == 6
    assert list(geo.boundary_index.items()) == [("B1", 0), ("B2", 2), ("B3", 3), ("B4", 5)]
    assert geo.pair_sides == {"c": (4, 1)}
    assert set(plumbook.surface.Geometry.__slots__) == {"boundary_index", "pair_sides"}
    assert euler_characteristic(p) == 1 - len(geo.pair_sides)
    with pytest.raises(InvalidPresentationError):
        geometry(poly(B("B1"), G("c", L), B("B2")))


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

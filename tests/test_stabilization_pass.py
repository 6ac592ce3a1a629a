"""One stabilization pass against the single step it replaced.

reference_step is the step positive_stabilization took before a call took
a whole chain: it lays the book out again, rebuilds every old arc and
divides every point on the split side, per step.  n reference steps and
one call with count n must give equal books, equal kept check, veering
and verdict, and equal document bytes, and stabilize --count n must write
what a loop of reference steps writes, in both formats.
"""

import contextlib
import io
import sys
from fractions import Fraction
from operator import itemgetter

import pytest

from test_census import one_arc, two_arc
from test_known_books import book as known_book, products
from test_openbook import HEXAGON, STARTS, pt, start_book

import plumbook.openbook
from plumbook import documents as doc
from plumbook.arcs import Arc, Crossing, arc_view, reduce, twist_about_band, view_count
from plumbook.cli import main
from plumbook.errors import InvalidOpenBookError
from plumbook.openbook import (
    ArcVeer,
    ContactVerdict,
    PartialOpenBook,
    VeeringReport,
    _free_gap,
    _oriented_image,
    _ranks,
    _require_pob,
    _veer,
    _verdict,
    contact_verdict,
    positive_stabilization,
    validate_pob,
    veering_report,
)
from plumbook.plumbing import StarPlumbing, TwistedAnnulus, associated_pob
from plumbook.surface import (
    Boundary,
    BoundaryPoint,
    End,
    Glued,
    certified_presentation,
    euler_characteristic,
    geometry,
)


def _fresh(base, taken):
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def reference_step(pob):
    """One positive stabilization, laid out and rescaled on its own."""
    checked = _require_pob(pob)
    label, top = checked.site
    lo = _free_gap(label, top)[0].position
    geo = geometry(pob.surface)
    mid_label = _fresh(f"{label}h", geo.boundary_index)
    post_label = _fresh(f"{label}t", {*geo.boundary_index, mid_label})
    pair = _fresh("st", geo.pair_sides)
    at = geo.boundary_index[label] + 1
    sides = pob.surface.sides
    handle = (Glued(pair, End.LEFT), Boundary(mid_label), Glued(pair, End.RIGHT))

    def up(s):
        return s + 4 if s >= at else s

    by_side = itemgetter(1)
    boundary = [(b, up(s)) for b, s in geo.boundary_index.items()]
    pairs = [(q, (up(i), up(j))) for q, (i, j) in geo.pair_sides.items()]
    surface = certified_presentation(
        (*sides[:at], *handle, Boundary(post_label), *sides[at:]),
        dict(sorted([*boundary, (mid_label, at + 1), (post_label, at + 3)], key=by_side)),
        dict(sorted([*pairs, (pair, (at, at + 2))], key=by_side)),
    )

    def move(pt):
        return BoundaryPoint(label, pt.position / lo) if pt.side == label else pt

    def move_arcs(arcs):
        return tuple(Arc(move(a.start), move(a.end), a.crossings) for a in arcs)

    kept_basis, kept_images = move_arcs(checked.basis), move_arcs(checked.images)
    basis = kept_basis if pob.basis == checked.basis else move_arcs(pob.basis)
    images = kept_images if pob.images == checked.images else move_arcs(pob.images)
    t1, t2 = _free_gap(label, top / lo)
    new_basis = reduce(surface, Arc(t1, BoundaryPoint(mid_label, Fraction(1, 3))))
    pushed = Arc(t2, BoundaryPoint(mid_label, Fraction(2, 3)))
    new_image = twist_about_band(surface, pushed, pair, +1)
    book = PartialOpenBook(surface, (*basis, new_basis), (*images, new_image))
    a, h = arc_view(surface, new_basis), arc_view(surface, new_image)
    ranks, top = _ranks((a, h), at - 1)
    oriented = _oriented_image(new_image, *ranks)
    if oriented is None or view_count(h, h):
        return book
    kept = checked._replace(
        basis=(*kept_basis, new_basis), images=(*kept_images, oriented), site=(label, top)
    )
    object.__setattr__(book, "_checked", kept)
    veer = _veer(a, arc_view(surface, oriented))
    object.__setattr__(book, "_veering", VeeringReport((*veering_report(pob).verdicts, veer)))
    verdict = contact_verdict(pob)
    if verdict.matrix and veer is not ArcVeer.LEFT and not view_count(a, h):
        matrix = (*((*r, 0) for r in verdict.matrix), (0,) * (len(verdict.matrix) + 1))
        verdict = ContactVerdict(verdict.status, verdict.reason, matrix=matrix)
    else:
        verdict = _verdict(book)
    object.__setattr__(book, "_verdict", verdict)
    return book


def reference_stdout(pob, count, form):
    """What stabilize --count count wrote as a loop of reference steps."""
    steps = []

    def record(book):
        steps.append(
            {
                "chi": euler_characteristic(book.surface),
                "veering": [v.value for v in veering_report(book).verdicts],
                "contact": contact_verdict(book).status.value,
            }
        )

    record(pob)
    for _ in range(count):
        pob = reference_step(pob)
        record(pob)
    report = doc.report_document(
        {
            "steps": steps,
            "chi": [s["chi"] for s in steps],
            "verdict_stable": len({s["contact"] for s in steps}) == 1,
        }
    )
    if form == "structured":
        return doc.print_documents([report, doc.pob_document(pob)])
    lines = [f"chi: {', '.join(str(s['chi']) for s in steps)}"]
    for i, s in enumerate(steps):
        veering = ",".join(s["veering"]) or "-"
        lines.append(f"step {i}: chi {s['chi']}, veering {veering}, {s['contact']}")
    return "\n".join(lines) + "\n"


KEPT = ("_checked", "_veering", "_verdict")
COUNTS = (0, 1, 2, 25)


def unreduced_book():
    """pretzel(-3,3,1)'s book with a cancelling couple in every word."""
    pob = start_book("pretzel(-3,3,1)")
    couple = (Crossing("c1", 1), Crossing("c1", -1))

    def padded(arcs):
        return tuple(Arc(a.start, a.end, (*couple, *a.crossings)) for a in arcs)

    return PartialOpenBook(pob.surface, padded(pob.basis), padded(pob.images))


def mirrored_star():
    return associated_pob(StarPlumbing((TwistedAnnulus(-2),) * 10))[2]


BOOKS = {
    **{name: lambda name=name: start_book(name) for name in [*STARTS, "disk", "unknown", "cyclic"]},
    "mirrored star 2x10": mirrored_star,
    "unreduced words": unreduced_book,
}


def assert_chain_matches(make):
    """One call per count in COUNTS against a chain of reference steps,
    each on a book of its own, so that both start from what make keeps."""
    reference = make()
    done = 0
    for n in COUNTS:
        start = make()
        got = positive_stabilization(start, n)
        while done < n:
            reference = reference_step(reference)
            done += 1
        if not n:
            assert got is start
            continue
        assert got == reference, n
        assert [got.__dict__.get(k) for k in KEPT] == [reference.__dict__.get(k) for k in KEPT], n
        assert doc.print_documents([doc.pob_document(got)]) == doc.print_documents(
            [doc.pob_document(reference)]
        ), n


@pytest.mark.parametrize("name", BOOKS)
def test_a_pass_makes_the_books_of_its_steps(name):
    book = BOOKS[name]()
    assert validate_pob(book) == []
    if name == "unreduced words":
        assert book != PartialOpenBook(book.surface, *(_require_pob(book)[1:3]))
    assert_chain_matches(BOOKS[name])


def test_a_pass_makes_the_books_of_its_steps_on_the_known_books():
    made = [
        (lambda k=k, bands=bands, sign=sign: known_book(k, bands, sign))
        for k in (1, 2, 3)
        for bands in products(k)
        for sign in (+1, -1)
    ]
    assert len({make() for make in made}) == 43
    for make in made:
        assert_chain_matches(make)


def test_a_pass_makes_the_books_of_its_steps_on_the_census():
    books = [*one_arc(1, 6), *one_arc(2, 6), *two_arc(4), *one_arc(3, 4)]
    valid = [b for b in books if not validate_pob(b)]
    assert len(valid) == 281
    for book in valid:
        assert_chain_matches(
            lambda book=book: PartialOpenBook(book.surface, book.basis, book.images)
        )


def stabilize_stdout(path, count, form):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["stabilize", str(path), "--count", str(count), "--format", form])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.mark.parametrize("name", ["pretzel(-3,3,1)", "disk", "unknown", "mirrored star 2x10"])
@pytest.mark.parametrize("form", ["structured", "text"])
def test_stabilize_writes_what_a_loop_of_steps_wrote(name, form, tmp_path):
    path = tmp_path / "book.json"
    path.write_text(doc.print_documents([doc.pob_document(BOOKS[name]())]), encoding="utf-8")
    for n in COUNTS:
        assert stabilize_stdout(path, n, form) == reference_stdout(BOOKS[name](), n, form), n


@pytest.mark.parametrize("count", [-1, True, False, 2.0, "2", None])
def test_counts_that_are_no_nonnegative_int_are_refused(count):
    with pytest.raises(ValueError, match="count must be a nonnegative int"):
        positive_stabilization(start_book("hopf(+2)"), count)


def test_count_zero_returns_the_book_itself():
    for name in BOOKS:
        book = BOOKS[name]()
        assert positive_stabilization(book, 0) is book
    # an invalid book is refused at every count, 0 included
    a, h = Arc(pt("B1", 1, 3), pt("B2", 1, 3)), Arc(pt("B1", 2, 3), pt("B4", 1, 3))
    for count in (0, 1, 2):
        with pytest.raises(InvalidOpenBookError):
            positive_stabilization(PartialOpenBook(HEXAGON, (a,), (h,)), count)


def outcome(make_book):
    """The book made with its kept results, or the refusal it raised."""
    try:
        book = make_book()
    except InvalidOpenBookError as e:
        return str(e)
    return book, [book.__dict__.get(k) for k in KEPT]


@pytest.mark.parametrize("case", ["meets its image", "veers left", "fails its tests"])
def test_a_step_the_pass_does_not_carry_is_decided_on_its_own_book(case, monkeypatch):
    # were the new pair to meet its image, veer left or fail its tests, a
    # step would fall to the full rule or the full check, as it did alone;
    # the pass then ends at that step and goes on from its book
    first, second = start_book("hopf(+2)"), start_book("hopf(+2)")
    for book in (first, second):
        contact_verdict(book)
    fakes = {
        "meets its image": ("view_count", lambda v, w, n=view_count: n(v, w) if v is w else 1),
        "veers left": ("_veer", lambda a, h: ArcVeer.LEFT),
        "fails its tests": ("_oriented_image", lambda *ranks: None),
    }
    name, fake = fakes[case]
    for module in (plumbook.openbook, sys.modules[__name__]):
        monkeypatch.setattr(module, name, fake)

    def chain():
        book = second
        for _ in range(5):
            book = reference_step(book)
        return book

    got = outcome(lambda: positive_stabilization(first, 5))
    assert got == outcome(chain)
    if case == "fails its tests":
        assert got.startswith("EndpointMismatch")
    else:
        assert len(got[0].basis) == 6


def test_a_status_that_changes_after_step_1_is_an_assertion_error(monkeypatch):
    # the pairs' results are the same at every step, so no status changes
    # after step 1; a new arc that veered left from step 2 on would
    book = start_book("hopf(+2)")
    contact_verdict(book)
    veers = []

    def right_once(a, h):
        veers.append(a)
        return ArcVeer.LEFT if veers[1:] else ArcVeer.RIGHT

    monkeypatch.setattr(plumbook.openbook, "_veer", right_once)
    with pytest.raises(AssertionError, match="from NonzeroTight to OvertwistedWitness"):
        positive_stabilization(book, 3)

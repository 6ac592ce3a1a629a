"""Document round-trips and byte determinism."""

import json
import random
from fractions import Fraction

import pytest

import plumbook.documents
from plumbook.arcs import Arc, Crossing
from plumbook.cli import main
from plumbook.documents import (
    MAX_BOOK_ARCS,
    MAX_BOOK_CROSSINGS,
    Document,
    arc_document,
    arc_from,
    parse_document,
    parse_documents,
    pob_document,
    pob_from,
    pretzel_document,
    pretzel_from,
    print_document,
    print_documents,
    star_document,
    star_from,
    surface_document,
    surface_from,
)
from plumbook.errors import DocumentError
from plumbook.plumbing import (
    PretzelSpec,
    StarPlumbing,
    TwistedAnnulus,
    associated_pob,
    pretzel_decompose,
)
from plumbook.surface import Boundary, BoundaryPoint, End, Glued, PolygonPresentation

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

ARC = Arc(
    BoundaryPoint("B1", Fraction(1, 3)),
    BoundaryPoint("B2", Fraction(2, 7)),
    (Crossing("c", 1), Crossing("c", -1)),
)


def test_surface_round_trip():
    d = surface_document(HEXAGON)
    text = print_document(d)
    back = parse_document(text)
    assert back == d
    assert surface_from(back.payload) == HEXAGON


def test_arc_round_trip_keeps_exact_fractions():
    text = print_document(arc_document(ARC))
    assert '"2/7"' in text
    assert arc_from(parse_document(text).payload) == ARC


def test_pob_round_trip_with_star_sidecar():
    spec = PretzelSpec((-3, 3, 1))
    star = pretzel_decompose(spec)
    _ss, _system, pob = associated_pob(star)
    text = print_document(pob_document(pob, star))
    back_pob, back_star = pob_from(parse_document(text).payload)
    assert back_pob == pob
    assert back_star == star

    bare = print_document(pob_document(pob))
    _pob2, star2 = pob_from(parse_document(bare).payload)
    assert star2 is None


def test_star_and_pretzel_round_trip():
    star = pretzel_decompose(PretzelSpec((-3, 5, 1)))
    assert star_from(parse_document(print_document(star_document(star))).payload) == star
    spec = PretzelSpec((-3, 3, 3, 1))
    assert (
        pretzel_from(parse_document(print_document(pretzel_document(spec))).payload)
        == spec
    )


def test_printing_is_deterministic():
    star = pretzel_decompose(PretzelSpec((-3, 3, 1)))
    _ss, _system, pob = associated_pob(star)
    docs = [star_document(star), pob_document(pob, star)]
    assert print_documents(docs) == print_documents(docs)
    assert print_document(docs[0]) == print_document(docs[0])


def test_document_array_parsing():
    star = pretzel_decompose(PretzelSpec((-3, 3, 1)))
    text = print_documents([star_document(star), surface_document(HEXAGON)])
    docs = parse_documents(text)
    assert [d.kind for d in docs] == ["star", "surface"]
    with pytest.raises(DocumentError):
        parse_document(text)


def test_malformed_documents_rejected():
    with pytest.raises(DocumentError):
        parse_document("not json at all {")
    with pytest.raises(DocumentError):
        parse_document('{"kind": "surface", "version": 1}')
    with pytest.raises(DocumentError):
        Document("nonsense", 1, {})
    with pytest.raises(DocumentError):
        Document("surface", 99, {})
    with pytest.raises(DocumentError):
        surface_from({"sides": [{"wat": 1}]})
    with pytest.raises(DocumentError):
        arc_from({"start": {"side": "B1", "position": "x/y"}, "end": {}, "crossings": []})
    for value in (True, 3.0, -1.2, "3"):
        with pytest.raises(DocumentError, match="coefficient must be an integer"):
            pretzel_from({"coefficients": [-3, value, 1]})
    # a string or object iterates too: "31" would read as '3' and '1'
    for value in ({}, "", "31"):
        with pytest.raises(DocumentError, match="coefficients must be an array"):
            pretzel_from({"coefficients": value})
    # a list of coefficients is no pretzel payload, whose fields have names
    with pytest.raises(DocumentError, match="^bad pretzel payload: payload must be an object$"):
        pretzel_from([-3, 3, 1])


def test_oversized_books_are_refused_before_any_arc_is_built(monkeypatch):
    payload = pob_document(associated_pob(pretzel_decompose(PretzelSpec((-3, 3, 1))))[2]).payload
    arc, image = payload["basis"][0], payload["images"][0]
    many = MAX_BOOK_ARCS // 2 + 1
    too_long = {**image, "crossings": image["crossings"] * (MAX_BOOK_CROSSINGS + 1)}
    crossings = len(arc["crossings"]) + len(too_long["crossings"])
    built = []
    monkeypatch.setattr(plumbook.documents, "arc_from", lambda a: built.append(a) or arc_from(a))
    for big, message in (
        (
            {**payload, "basis": [arc] * many, "images": [image] * many},
            f"book has {2 * many} arcs; at most {MAX_BOOK_ARCS} are supported",
        ),
        (
            {**payload, "images": [too_long]},
            f"book has {crossings} crossings; at most {MAX_BOOK_CROSSINGS} are supported",
        ),
    ):
        with pytest.raises(DocumentError) as refused:
            pob_from(big)
        assert str(refused.value) == message
    assert built == []
    # a malformed payload is refused by the same reading, before any arc too
    for bad in ({**payload, "images": [{**image, "crossings": 5}]}, {**payload, "basis": 5}):
        with pytest.raises(DocumentError, match="bad (arc|pob) payload"):
            pob_from(bad)
    assert built == []


def dumped(value) -> str:
    """The bytes documents are specified to print as."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# quotes, backslashes, control characters, non-ASCII, astral and lone
# surrogate code points: every escape json.dumps makes
CHARACTERS = 'ab"\\/\x00\x01\x1f\x7f \u00e9\u20ac\u2028\ud800\udfff\U0001f600'


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return rng.choice((None, True, False, 0, 1, -1))
    if kind == 1:
        return rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 400))
    if kind < 6:
        return "".join(rng.choice(CHARACTERS) for _ in range(rng.randrange(6)))
    size = rng.randrange(5)
    if kind < 8:
        return {
            "".join(rng.choice(CHARACTERS) for _ in range(rng.randrange(4))): random_value(
                rng, depth + 1
            )
            for _ in range(size)
        }
    items = [random_value(rng, depth + 1) for _ in range(size)]
    return items if kind == 8 else tuple(items)


def test_writer_matches_json_dumps_on_random_values():
    rng = random.Random(20261018)
    fixed = [{}, [], (), {"": {}, "a": [[], {}]}, [True, 1, False, 0, None], 10**300, -(2**64)]
    # one dict object at three indents, twice in one list and in two lists,
    # as a book's payload shares one cell per distinct crossing
    inner = {"x": [1, "y"], "z": {}}
    cell = {"pair": "c0", "direction": -1, "inner": inner}
    fixed.append({"a": [cell, cell], "b": [[cell, inner], cell], "c": cell, "d": inner})
    for value in fixed + [random_value(rng) for _ in range(3000)]:
        doc = Document("report", 1, value)
        want = {"kind": "report", "version": 1, "payload": value}
        assert print_document(doc) == dumped(want)
        assert print_documents([doc, doc]) == dumped([want, want])


@pytest.mark.parametrize(
    "argv", [("build", "pretzel", "-3,3,1"), ("build", "star", "2,2,2,2,2,2,2,2")]
)
def test_writer_matches_json_dumps_on_built_documents(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert out == dumped(json.loads(out))
    docs = parse_documents(out)
    assert print_documents(docs) == out
    for d in docs:
        assert print_document(d) == dumped(
            {"kind": d.kind, "version": d.version, "payload": d.payload}
        )


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1, 2}, {1: 2}])
def test_writer_refuses_what_documents_do_not_hold(value):
    with pytest.raises(TypeError):
        print_document(Document("report", 1, {"x": [value]}))

"""JSON documents for every value the command line reads or writes.

A document is {"kind": ..., "version": 1, "payload": ...}.  Its bytes are
exactly json.dumps(value, indent=2, sort_keys=True) plus a newline, with
non-ASCII characters escaped, so identical values print to identical bytes.
A small writer for the types documents hold reproduces those bytes, and a
test holds it to json.dumps.  Rational positions travel as "num/den"
strings.  A stream may hold one document or an array of them.

There is one path each way.  The writer writes every value where it
occurs.  A pob payload is counted on the basis, image and crossing arrays
it is then built from, each read strictly, so a book too large or of the
wrong shape is refused before any surface, arc or star is built.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

from .arcs import Arc, Crossing
from .errors import DocumentError
from .openbook import MAX_STABILIZE_COUNT, PartialOpenBook
from .plumbing import MAX_BUILD_BANDS, MAX_HOPF_SUMMANDS, PretzelSpec, StarPlumbing, TwistedAnnulus
from .surface import Boundary, BoundaryPoint, End, Glued, PolygonPresentation

CURRENT_VERSION = 1
KINDS = ("surface", "arc", "pob", "star", "pretzel", "report")

# Larger books are refused before any geometry, since checking one compares
# every pair of arcs letter by letter.  The limits are the largest book the
# tools write: build star writes 2^k - 1 crossings on k basis arcs at the
# Hopf limit, and one stabilize run adds at most one basis arc and one image
# of one crossing per step.  Checking that book, 420 arcs and 1223
# crossings at the limits 10 and 200, takes about 0.9 s in process:
# validate_pob 0.67 s and contact_verdict 0.23 s (3 runs, Python 3.11.7 on
# a shared 2-vCPU Xeon host).
MAX_BOOK_ARCS = 2 * (MAX_HOPF_SUMMANDS + MAX_STABILIZE_COUNT)
MAX_BOOK_CROSSINGS = 2**MAX_HOPF_SUMMANDS - 1 + MAX_STABILIZE_COUNT


@dataclass(frozen=True)
class Document:
    kind: str
    version: int
    payload: object

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DocumentError(f"unknown document kind {self.kind!r}")
        if _integer(self.version, "version") != CURRENT_VERSION:
            raise DocumentError(f"unsupported version {self.version!r}")


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _name(value, what: str) -> str:
    """A label, pair name or end marker: it must be a JSON string."""
    if not isinstance(value, str):
        raise DocumentError(f"{what} must be a string, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """A count, sign or version: a JSON integer, not a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    return value


def _array(value, what: str) -> list:
    """A list of sides, arcs, crossings, halftwists or coefficients: a JSON
    array, not an object or string, which iterate too.  A ValueError, which
    the payload's reader names."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be an array")
    return value


def _object(value, what: str) -> dict:
    """A payload, side, arc, boundary point or crossing cell: a JSON object,
    whose fields are read by name.  A ValueError, which the payload's reader
    names."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object")
    return value


def _parse_fraction(s) -> Fraction:
    # only the written form: Fraction's parse time for "1e-5000" and the
    # like grows with the exponent
    if not (isinstance(s, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s)):
        raise DocumentError(f"bad rational {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise DocumentError(f"bad rational {s!r}") from e


def surface_payload(p: PolygonPresentation) -> dict:
    sides = []
    for s in p.sides:
        if isinstance(s, Boundary):
            sides.append({"boundary": s.label})
        else:
            sides.append({"pair": s.pair, "end": s.end.value})
    return {"sides": sides}


def surface_from(payload) -> PolygonPresentation:
    try:
        sides = []
        for s in _array(_object(payload, "surface")["sides"], "sides"):
            if "boundary" in _object(s, "side"):
                sides.append(Boundary(_name(s["boundary"], "boundary label")))
            else:
                end = End(_name(s["end"], "end"))
                sides.append(Glued(_name(s["pair"], "pair name"), end))
        return PolygonPresentation(tuple(sides))
    except (KeyError, ValueError) as e:
        raise DocumentError(f"bad surface payload: {e}") from e


def _point_payload(pt: BoundaryPoint) -> dict:
    return {"side": pt.side, "position": _fraction_str(pt.position)}


def _point_from(payload) -> BoundaryPoint:
    try:
        side = _name(payload["side"], "point side")
        return BoundaryPoint(side, _parse_fraction(payload["position"]))
    except KeyError as e:
        raise DocumentError(f"bad boundary point: {e}") from e


def arc_payload(a: Arc) -> dict:
    word = [{"pair": c.pair, "direction": c.direction} for c in a.crossings]
    return {"start": _point_payload(a.start), "end": _point_payload(a.end), "crossings": word}


def arc_from(payload) -> Arc:
    try:
        word = []
        for c in _array(_object(payload, "arc")["crossings"], "crossings"):
            c = _object(c, "crossing")
            pair = _name(c["pair"], "crossing pair")
            word.append(Crossing(pair, _integer(c["direction"], "direction")))
        start = _point_from(_object(payload["start"], "start"))
        return Arc(start, _point_from(_object(payload["end"], "end")), tuple(word))
    except (KeyError, ValueError) as e:
        raise DocumentError(f"bad arc payload: {e}") from e


def star_payload(star: StarPlumbing) -> dict:
    return {"halftwists": [s.halftwists for s in star.summands]}


def star_from(payload) -> StarPlumbing:
    try:
        halftwists = _array(_object(payload, "star")["halftwists"], "halftwists")
        # refused before any band is built, as build refuses a longer list
        bands = len(halftwists)
        if bands > MAX_BUILD_BANDS:
            raise ValueError(f"{bands} bands; at most {MAX_BUILD_BANDS} bands are supported")
        return StarPlumbing(tuple(TwistedAnnulus(t) for t in halftwists))
    except (KeyError, ValueError) as e:
        raise DocumentError(f"bad star payload: {e}") from e


def pretzel_payload(spec: PretzelSpec) -> dict:
    return {"coefficients": list(spec.coefficients)}


def pretzel_from(payload) -> PretzelSpec:
    try:
        coefficients = _object(payload, "payload")["coefficients"]
        return PretzelSpec(tuple(_array(coefficients, "coefficients")))
    except (KeyError, ValueError) as e:
        raise DocumentError(f"bad pretzel payload: {e}") from e


def pob_payload(pob: PartialOpenBook, star: Optional[StarPlumbing] = None) -> dict:
    out = {
        "surface": surface_payload(pob.surface),
        "basis": [arc_payload(a) for a in pob.basis],
        "images": [arc_payload(a) for a in pob.images],
    }
    if star is not None:
        out["star"] = star_payload(star)
    return out


def pob_from(payload) -> tuple[PartialOpenBook, Optional[StarPlumbing]]:
    # the book is counted on the arrays it is then built from, each read
    # once and strictly, so a payload too large or of the wrong shape is
    # refused before any surface, arc or star is built
    try:
        surface = _object(payload, "payload")["surface"]
        basis, images = _array(payload["basis"], "basis"), _array(payload["images"], "images")
    except (KeyError, ValueError) as e:
        raise DocumentError(f"bad pob payload: {e}") from e
    arcs = len(basis) + len(images)
    if arcs > MAX_BOOK_ARCS:
        raise DocumentError(f"book has {arcs} arcs; at most {MAX_BOOK_ARCS} are supported")
    try:
        crossings = sum(
            len(_array(_object(a, "arc")["crossings"], "crossings")) for a in chain(basis, images)
        )
    except (KeyError, ValueError) as e:
        raise DocumentError(f"bad arc payload: {e}") from e
    if crossings > MAX_BOOK_CROSSINGS:
        raise DocumentError(
            f"book has {crossings} crossings; at most {MAX_BOOK_CROSSINGS} are supported"
        )
    pob = PartialOpenBook(
        surface_from(surface), tuple(map(arc_from, basis)), tuple(map(arc_from, images))
    )
    star = star_from(payload["star"]) if "star" in payload else None
    return pob, star


def surface_document(p: PolygonPresentation) -> Document:
    return Document("surface", CURRENT_VERSION, surface_payload(p))


def arc_document(a: Arc) -> Document:
    return Document("arc", CURRENT_VERSION, arc_payload(a))


def pob_document(pob: PartialOpenBook, star: Optional[StarPlumbing] = None) -> Document:
    return Document("pob", CURRENT_VERSION, pob_payload(pob, star))


def star_document(star: StarPlumbing) -> Document:
    return Document("star", CURRENT_VERSION, star_payload(star))


def pretzel_document(spec: PretzelSpec) -> Document:
    return Document("pretzel", CURRENT_VERSION, pretzel_payload(spec))


def report_document(payload: dict) -> Document:
    return Document("report", CURRENT_VERSION, payload)


def _doc_json(doc: Document) -> dict:
    return {"kind": doc.kind, "version": doc.version, "payload": doc.payload}


_quote = json.encoder.encode_basestring_ascii


def _write(value, indent: str, out: list) -> None:
    """Append the pieces of json.dumps(value, indent=2, sort_keys=True),
    nested at indent, to out.  Anything but str-keyed dicts, lists, tuples,
    str, int, bool and None raises TypeError (_quote refuses other keys).
    Every value is written where it occurs, a shared dict each time."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for name in sorted(value):
            out.append(sep)
            out.append(_quote(name))
            out.append(": ")
            _write(value[name], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        raise TypeError(f"documents hold no {type(value).__name__} values")


def _dumps(value) -> str:
    out = []
    _write(value, "", out)
    out.append("\n")
    return "".join(out)


def print_document(doc: Document) -> str:
    return _dumps(_doc_json(doc))


def print_documents(docs) -> str:
    return _dumps([_doc_json(d) for d in docs])


def parse_documents(text: str) -> list[Document]:
    """Documents from a JSON stream holding one object or one array."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"not valid JSON: {e}") from e
    except RecursionError as e:
        raise DocumentError("not valid JSON: nested too deeply") from e
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise DocumentError("expected a document object or array of them")
    out = []
    for item in data:
        if not isinstance(item, dict):
            raise DocumentError("document entries must be objects")
        missing = {"kind", "version", "payload"} - item.keys()
        if missing:
            raise DocumentError(f"document missing fields: {sorted(missing)}")
        out.append(Document(item["kind"], item["version"], item["payload"]))
    return out


def parse_document(text: str) -> Document:
    docs = parse_documents(text)
    if len(docs) != 1:
        raise DocumentError(f"expected exactly one document, got {len(docs)}")
    return docs[0]

"""Command line front end: build, check, stabilize, reproduce, draw.

Subcommands:

* build pretzel -3,3,1 | build star 2,-4: construct the star decomposition,
  its surface, and the associated partial open book, as a document array.
* check [FILE]: run rv/contact/sqp/dividing checks on a pob document;
  verdicts are data, so the exit code stays 0.
* stabilize [FILE] --count N: plumb positive Hopf bands, reporting the
  Euler characteristic trajectory and verdict stability.
* paper-examples: golden assertions for the shipped examples plus a bounded
  family sweep; exit 1 on the first failed assertion.
* emit-dot [FILE]: deterministic graph text for a surface or pob document.

Exit codes: 0 success, 1 failed golden assertion, 2 malformed or invalid
input, refused in one stderr line under 4 KB.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import warnings
from itertools import chain, product, zip_longest
from typing import Optional

from . import documents as doc
from .arcs import interior_intersections, reduce as reduce_arc
from .errors import DocumentError
from .openbook import (
    MAX_STABILIZE_COUNT,
    PartialOpenBook,
    contact_verdict,
    dividing_set_counts,
    positive_stabilization,
    veering_report,
)
from .plumbing import (
    MAX_BUILD_BANDS,
    PretzelSpec,
    StarPlumbing,
    TwistedAnnulus,
    associated_pob,
    is_strongly_quasipositive,
    pretzel_decompose,
    star_book,
)
from .surface import (
    Boundary,
    PolygonPresentation,
    boundary_components,
    euler_characteristic,
    genus,
    geometry,
)


def _integer(text: str) -> Optional[int]:
    """text read as an integer written with an optional sign and ASCII
    digits, or None.  int alone would also read "2_0" and non-ASCII
    digits."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # more digits than int converts
            pass
    return None


def _int_list(text: str) -> tuple[int, ...]:
    """Integers separated by commas, with spaces anywhere, each read by
    _integer; no entry may be empty."""
    numbers = tuple(_integer(tok) for tok in text.replace(" ", "").split(","))
    if None in numbers:
        raise DocumentError(f"expected a comma-separated integer list, got {text!r}")
    return numbers


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path!r}: {e}")


def _find_pob(text: str):
    """The first pob document's book, replaced by its star's certified book
    when equal to it (star_book), and its star."""
    docs = doc.parse_documents(text)
    for d in docs:
        if d.kind == "pob":
            pob, star = doc.pob_from(d.payload)
            if star is not None:
                pob = star_book(star, pob) or pob
            return pob, star
    raise DocumentError("no pob document in input")


def _star_from_args(args) -> StarPlumbing:
    numbers = _int_list(args.numbers)
    # a pretzel's bands are its coefficients before the final 1
    bands = len(numbers) - (args.shape == "pretzel")
    if bands > MAX_BUILD_BANDS:
        raise DocumentError(f"{bands} bands; at most {MAX_BUILD_BANDS} bands are supported")
    if args.shape == "pretzel":
        return pretzel_decompose(PretzelSpec(numbers), mirror=args.mirror)
    star = StarPlumbing(tuple(TwistedAnnulus(t) for t in numbers))
    if args.mirror:
        star = StarPlumbing(tuple(TwistedAnnulus(-s.halftwists) for s in star.summands))
    return star


def cmd_build(args) -> int:
    star = _star_from_args(args)
    surface, _system, pob = associated_pob(star)
    out = [
        doc.star_document(star),
        doc.surface_document(surface),
        doc.pob_document(pob, star),
    ]
    sys.stdout.write(doc.print_documents(out))
    return 0


def _veering_text(values) -> str:
    """A veering report's verdicts as text: comma-joined, - when there are none."""
    return ",".join(values) or "-"


def _yes_no(value: bool) -> str:
    return "yes" if value else "no"


def _rv(pob: PartialOpenBook, star):
    value = [v.value for v in veering_report(pob).verdicts]
    return value, "rv: " + _veering_text(value)


def _contact(pob: PartialOpenBook, star):
    v = contact_verdict(pob)
    entry = {
        "status": v.status.value,
        "reason": v.reason,
        "witness_index": v.witness_index,
        "matrix": v.matrix,
    }
    return entry, f"contact: {v.status.value} ({v.reason})"


def _sqp(pob: PartialOpenBook, star):
    if star is None:
        note = "no star decomposition attached to this pob document"
        return {"value": None, "note": note}, "sqp: unknown"
    value = is_strongly_quasipositive(star)
    return {"value": value}, "sqp: " + _yes_no(value)


def _dividing(pob: PartialOpenBook, star):
    s_count, p_count = dividing_set_counts(pob)
    entry = {
        "surface_boundary": s_count,
        "subsurface_boundary": p_count,
        "note": "subsurface counted as one component per basis arc; "
        "connectedness of the neighborhood is not assumed",
    }
    return entry, f"dividing: surface {s_count}, subsurface {p_count}"


# each check gives its report entry and its text line; check runs the
# requested ones in this order, once each
CHECKS = {"rv": _rv, "contact": _contact, "sqp": _sqp, "dividing": _dividing}


def cmd_check(args) -> int:
    pob, star = _find_pob(_read_input(args.input))
    asked = CHECKS if args.checks is None else args.checks.split(",")
    for n in asked:
        if n not in CHECKS:
            raise DocumentError(f"unknown check {n!r}; pick from {','.join(CHECKS)}")
    results = {name: check(pob, star) for name, check in CHECKS.items() if name in asked}
    if args.format == "text":
        sys.stdout.write("".join(line + "\n" for _entry, line in results.values()))
    else:
        checks = {name: entry for name, (entry, _line) in results.items()}
        sys.stdout.write(doc.print_document(doc.report_document({"checks": checks})))
    return 0


def cmd_stabilize(args) -> int:
    count = _integer(args.count)
    if count is None:
        raise DocumentError(f"count must be an integer, got {args.count!r}")
    if count < 0:
        raise DocumentError("count must be nonnegative")
    if count > MAX_STABILIZE_COUNT:
        raise DocumentError(
            f"count {count}; at most {MAX_STABILIZE_COUNT} stabilizations are supported"
        )
    pob, _star = _find_pob(_read_input(args.input))
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
        pob = positive_stabilization(pob)
        record(pob)
    report = doc.report_document(
        {
            "steps": steps,
            "chi": [s["chi"] for s in steps],
            "verdict_stable": len({s["contact"] for s in steps}) == 1,
        }
    )
    if args.format == "text":
        lines = [f"chi: {', '.join(str(s['chi']) for s in steps)}"]
        for i, s in enumerate(steps):
            veering = _veering_text(s["veering"])
            lines.append(f"step {i}: chi {s['chi']}, veering {veering}, {s['contact']}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(doc.print_documents([report, doc.pob_document(pob)]))
    return 0


# the acceptance sweep (k=5 range=9); larger --family settings are refused
MAX_FAMILY_SPECS = 2680
# the sweep's cost grows about k^2 in the band count k: k=500 range=3
# (499 specs) takes about 2 s on a Xeon vCPU, k=960 about 8 s
MAX_FAMILY_K = 500


def _family_rows(k_max: int, spread: int):
    """Pretzel tails over odd values in [-spread, spread] that keep the
    decomposition inside the surveyed family: no flat band, no non-leading
    Hopf band, at least one negatively twisted band.  Rows come in sorted
    order of their tails: each tail, then its extensions by each value."""
    if k_max > MAX_FAMILY_K:
        raise DocumentError(f"family k={k_max}; at most k={MAX_FAMILY_K} is supported")
    # the allowed values: odd 3..spread and odd -5..-spread; tails of only
    # the low ones lack an n >= 3.  Specs are counted, only until the count
    # passes the limit, before anything is listed.
    high, low = max(0, (spread - 1) // 2), max(0, (spread - 3) // 2)
    count = 0
    for m in range(1, k_max):
        count += (high + low) ** m - low**m
        if count > MAX_FAMILY_SPECS:
            raise DocumentError(
                f"family k={k_max} range={spread} lists too many specs; "
                f"at most {MAX_FAMILY_SPECS} are supported"
            )
    values = (*range(3, 2 * high + 2, 2), *range(-5, -4 - 2 * low, -2))
    tails = (t for m in range(1, k_max) for t in product(values, repeat=m) if max(t) >= 3)
    return [(-3, *t, 1) for t in sorted(tails)]


class _AssertionFailed(Exception):
    pass


def _paper_suite(mirror: bool, family):
    """Golden rows and assertions; raises _AssertionFailed on the first miss.

    The table states the paper's two claims: the SQP hopf(+2) is tight, and
    the stevedore pretzel(-3,3,1) and the family are tight but not SQP;
    hopf(-2) is overtwisted.  Each row is (name, star, veering, verdict,
    sqp), and every row asserts one product disk, its veering, its verdict
    and its SQP value, on a book built once."""
    family_rows = _family_rows(*family)

    def need(cond, what):
        if not cond:
            raise _AssertionFailed(what)

    def pretzel(coeffs):
        name = f"pretzel({','.join(str(c) for c in coeffs)})"
        return name, pretzel_decompose(PretzelSpec(coeffs), mirror=mirror)

    stevedore_name, stevedore = pretzel((-3, 3, 1))
    twists = [s.halftwists for s in stevedore.summands]
    need(
        twists == [2, -4],
        f"pretzel(-3,3,1) must decompose as bands [2, -4], got {twists} "
        "(twist-sign convention: a mirrored run negates every band)",
    )
    table = chain(
        (
            (stevedore_name, stevedore, "Right", "NonzeroTight", False),
            ("hopf(+2)", StarPlumbing((TwistedAnnulus(2),)), "Right", "NonzeroTight", True),
            ("hopf(-2)", StarPlumbing((TwistedAnnulus(-2),)), "Left", "OvertwistedWitness", False),
        ),
        # each family star is built when its row is reached
        ((*pretzel(coeffs), "Right", "NonzeroTight", False) for coeffs in family_rows),
    )
    rows = []
    for name, star, veering, verdict, sqp in table:
        p, system, pob = associated_pob(star)
        need(len(system.pairs) == 1, f"{name} must carry exactly one product disk")
        veers = [v.value for v in veering_report(pob).verdicts]
        need(veers == [veering], f"{name} must veer {veering}")
        status = contact_verdict(pob).status.value
        need(status == verdict, f"{name} verdict must be {verdict}")
        need(is_strongly_quasipositive(star) == sqp, f"{name} must {'' if sqp else 'not '}be SQP")
        if star is stevedore:
            need(euler_characteristic(p) == -1, f"{name} surface must have chi -1")
            need(genus(p) == 1, f"{name} surface must have genus 1")
            need(len(boundary_components(p)) == 1, f"{name} must bound a knot")
            need(
                interior_intersections(p, pob.basis[0], pob.images[0]) == 0,
                f"{name}: the arc and its image must not cross",
            )
        rows.append(
            f"{name} | {len(system.pairs)} | {_veering_text(veers)} | {status} | {_yes_no(sqp)}"
        )
    return rows


def cmd_paper_examples(args) -> int:
    family = (3, 5)
    if args.family:
        parsed = {}
        for item in args.family:
            name, _, value = item.partition("=")
            number = _integer(value)
            if name not in ("k", "range") or name in parsed or number is None or number < 0:
                raise DocumentError(f"bad family setting {item!r}; use k=N range=N")
            parsed[name] = number
        family = (parsed.get("k", family[0]), parsed.get("range", family[1]))
    try:
        rows = _paper_suite(args.mirror, family)
    except _AssertionFailed as e:
        sys.stderr.write(f"assertion failed: {e}\n")
        return 1
    if args.format == "structured":
        sys.stdout.write(
            doc.print_document(
                doc.report_document({"rows": rows, "assertions": "all passed"})
            )
        )
    else:
        header = "example | product disks | veering | verdict | sqp"
        sys.stdout.write("\n".join([header, *rows]) + "\n")
        sys.stdout.write(f"all assertions passed ({len(rows)} rows)\n")
    return 0


def _dot_quoted(text: str) -> str:
    """text as a DOT quoted string, its backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_for_surface(p: PolygonPresentation, arcs=()) -> str:
    """DOT text of p: the cycle of its sides, a dashed edge per glued pair,
    and an edge per (name, arc, style) between the arc's endpoint sides.
    An invalid p raises InvalidPresentationError, and an arc that is not
    on p raises as reduce does."""
    geo = geometry(p)
    lines = ["graph polygon {", "  layout=circo;"]
    for i, s in enumerate(p.sides):
        if isinstance(s, Boundary):
            lines.append(f"  s{i} [label={_dot_quoted(s.label)}];")
        else:
            label = _dot_quoted(f"{s.pair}.{s.end.value[0]}")
            lines.append(f"  s{i} [label={label}, shape=box];")
    n = len(p.sides)
    for i in range(n):
        lines.append(f"  s{i} -- s{(i + 1) % n};")
    for pair in sorted(geo.pair_sides):
        i, j = sorted(geo.pair_sides[pair])  # in side order, not (left, right)
        label = _dot_quoted(pair)
        lines.append(f"  s{i} -- s{j} [label={label}, style=dashed, constraint=false];")
    for name, a, style in arcs:
        reduce_arc(p, a)  # checks a against p; reducing keeps the endpoints
        i, j = geo.boundary_index[a.start.side], geo.boundary_index[a.end.side]
        label = _dot_quoted(name)
        lines.append(f"  s{i} -- s{j} [label={label}, style={style}, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_emit_dot(args) -> int:
    docs = doc.parse_documents(_read_input(args.input))
    for d in docs:
        if d.kind == "pob":
            pob, _star = doc.pob_from(d.payload)
            # every basis arc and every image is drawn, paired or not
            arcs = []
            for i, (a, h) in enumerate(zip_longest(pob.basis, pob.images)):
                if a is not None:
                    arcs.append((f"a{i}", a, "bold"))
                if h is not None:
                    arcs.append((f"h(a{i})", h, "dotted"))
            sys.stdout.write(_dot_for_surface(pob.surface, arcs))
            return 0
    for d in docs:
        if d.kind == "surface":
            sys.stdout.write(_dot_for_surface(doc.surface_from(d.payload)))
            return 0
    raise DocumentError("no surface or pob document in input")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parsing leaves
    it as it was, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="plumbook",
        description="plumbed Seifert surfaces and their partial open books",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct star, surface, and pob documents")
    b.add_argument("shape", choices=("pretzel", "star"))
    b.add_argument("numbers", help="comma-separated coefficients or halftwists")
    b.add_argument("--mirror", action="store_true", help="negate every band")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("check", help="run verdict checks on a pob document")
    c.add_argument("input", nargs="?", default="-", help="file path or - for stdin")
    c.add_argument("--checks", default=None, help="comma subset of rv,contact,sqp,dividing")
    c.add_argument("--format", choices=("text", "structured"), default="structured")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("stabilize", help="apply positive stabilizations")
    s.add_argument("input", nargs="?", default="-")
    s.add_argument("--count", default="1")
    s.add_argument("--format", choices=("text", "structured"), default="structured")
    s.set_defaults(func=cmd_stabilize)

    pe = sub.add_parser("paper-examples", help="golden example suite")
    pe.add_argument("--family", nargs=2, metavar=("K", "RANGE"), default=None)
    pe.add_argument("--mirror", action="store_true")
    pe.add_argument("--format", choices=("text", "structured"), default="text")
    pe.set_defaults(func=cmd_paper_examples)

    e = sub.add_parser("emit-dot", help="graph text for a surface or pob document")
    e.add_argument("input", nargs="?", default="-")
    e.set_defaults(func=cmd_emit_dot)
    # argparse reads a token that looks like a negative number as a value,
    # also after an option that takes one (--count -1); its own pattern, the
    # parser's _negative_number_matcher, admits -3 but not the list -3,3,1,
    # so here every token starting with -digit counts as such a value
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(r"^-\d")
    return parser


# a refusal is one stderr line; a longer line than this keeps its first
# ERROR_HEAD bytes, which name the refused field, and says how long it was.
# The longest line pinned whole, 20 of 20,000 interior vertices, has about
# 2,500 bytes.
MAX_ERROR_LINE = 3000
ERROR_HEAD = 200


def _error_line(e: ValueError) -> str:
    line = f"error: {e}"
    # stderr writes what it cannot encode as backslash escapes
    data = line.encode("utf-8", "backslashreplace")
    if len(data) > MAX_ERROR_LINE:
        head = data[:ERROR_HEAD].decode("utf-8", "ignore")
        line = f"{head}... ({len(data)} bytes in all)"
    return line + "\n"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    # each warning the command raises becomes one stderr line, also when
    # the command then fails
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, error = args.func(args), ""
        except ValueError as e:
            code, error = 2, _error_line(e)
    for w in caught:
        sys.stderr.write(f"warning: {w.message}\n")
    sys.stderr.write(error)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

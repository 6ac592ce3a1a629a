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
input.
"""

from __future__ import annotations

import argparse
import re
import sys
from itertools import product

from . import documents as doc
from .arcs import interior_intersections, reduce as reduce_arc
from .errors import DocumentError, UnknownPairError
from .openbook import (
    MAX_STABILIZE_COUNT,
    PartialOpenBook,
    contact_verdict,
    dividing_set_counts,
    positive_stabilization,
    veering_report,
)
from .plumbing import (
    MAX_HOPF_SUMMANDS,
    PretzelSpec,
    StarPlumbing,
    TwistedAnnulus,
    associated_pob,
    hopf_summands,
    is_strongly_quasipositive,
    pretzel_decompose,
    star_sum_surface,
)
from .surface import (
    Boundary,
    PolygonPresentation,
    _geometry,
    boundary_components,
    euler_characteristic,
    genus,
)

CHECK_NAMES = ("rv", "contact", "sqp", "dividing")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise DocumentError(f"expected a comma-separated integer list, got {text!r}")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path!r}: {e}")


def _find_pob(text: str):
    """The first pob document's book and star.  A book equal to its star's
    book, as build writes it, is replaced by that book (associated_pob),
    which carries its check certified by construction; any other book is
    checked in full on first use."""
    docs = doc.parse_documents(text)
    for d in docs:
        if d.kind == "pob":
            pob, star = doc.pob_from(d.payload)
            if (
                star is not None
                and len(hopf_summands(star)) <= MAX_HOPF_SUMMANDS
                and pob.surface == star_sum_surface(star).presentation
            ):
                built = associated_pob(star)[2]
                if built == pob:
                    pob = built
            return pob, star
    raise DocumentError("no pob document in input")


def _star_from_args(args) -> StarPlumbing:
    if args.shape == "pretzel":
        spec = PretzelSpec(_int_list(args.numbers))
        return pretzel_decompose(spec, mirror=args.mirror)
    star = StarPlumbing(tuple(TwistedAnnulus(t) for t in _int_list(args.numbers)))
    if args.mirror:
        star = StarPlumbing(tuple(TwistedAnnulus(-s.halftwists) for s in star.summands))
    return star


def cmd_build(args) -> int:
    star = _star_from_args(args)
    ss, _system, pob = associated_pob(star)
    out = [
        doc.star_document(star),
        doc.surface_document(ss.presentation),
        doc.pob_document(pob, star),
    ]
    sys.stdout.write(doc.print_documents(out))
    return 0


def _run_checks(pob: PartialOpenBook, star, names):
    results = {}
    for name in names:
        if name == "rv":
            results["rv"] = [v.value for v in veering_report(pob).verdicts]
        elif name == "contact":
            v = contact_verdict(pob)
            results["contact"] = {
                "status": v.status.value,
                "reason": v.reason,
                "witness_index": v.witness_index,
                "matrix": None if v.matrix is None else [list(r) for r in v.matrix],
            }
        elif name == "sqp":
            if star is None:
                results["sqp"] = {
                    "value": None,
                    "note": "no star decomposition attached to this pob document",
                }
            else:
                results["sqp"] = {"value": is_strongly_quasipositive(star)}
        elif name == "dividing":
            s_count, p_count = dividing_set_counts(pob)
            results["dividing"] = {
                "surface_boundary": s_count,
                "subsurface_boundary": p_count,
                "note": "subsurface counted as one component per basis arc; "
                "connectedness of the neighborhood is not assumed",
            }
    return results


def _format_check_text(results) -> str:
    lines = []
    for name in CHECK_NAMES:
        if name not in results:
            continue
        value = results[name]
        if name == "rv":
            lines.append("rv: " + (",".join(value) if value else "-"))
        elif name == "contact":
            lines.append(f"contact: {value['status']} ({value['reason']})")
        elif name == "sqp":
            v = value["value"]
            lines.append("sqp: " + ("unknown" if v is None else ("yes" if v else "no")))
        elif name == "dividing":
            lines.append(
                f"dividing: surface {value['surface_boundary']}, "
                f"subsurface {value['subsurface_boundary']}"
            )
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    pob, star = _find_pob(_read_input(args.input))
    names = CHECK_NAMES if args.checks is None else tuple(args.checks.split(","))
    for n in names:
        if n not in CHECK_NAMES:
            raise DocumentError(f"unknown check {n!r}; pick from {','.join(CHECK_NAMES)}")
    results = _run_checks(pob, star, names)
    if args.format == "text":
        sys.stdout.write(_format_check_text(results))
    else:
        sys.stdout.write(doc.print_document(doc.report_document({"checks": results})))
    return 0


def cmd_stabilize(args) -> int:
    if args.count < 0:
        raise DocumentError("count must be nonnegative")
    if args.count > MAX_STABILIZE_COUNT:
        raise DocumentError(
            f"count {args.count}; at most {MAX_STABILIZE_COUNT} stabilizations are supported"
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
    for _ in range(args.count):
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
            veering = ",".join(s["veering"]) if s["veering"] else "-"
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
    """Golden rows and assertions; raises _AssertionFailed on the first miss."""
    family_rows = _family_rows(*family)
    rows = []

    def need(cond, what):
        if not cond:
            raise _AssertionFailed(what)

    def pipeline(star):
        ss, system, pob = associated_pob(star)
        rep = veering_report(pob)
        verdict = contact_verdict(pob)
        return ss, system, pob, rep, verdict

    def row(name, system, rep, verdict, star):
        veering = ",".join(v.value for v in rep.verdicts) if rep.verdicts else "-"
        sqp = "yes" if is_strongly_quasipositive(star) else "no"
        rows.append(
            f"{name} | {len(system.pairs)} | {veering} | {verdict.status.value} | {sqp}"
        )

    # the pretzel(-3,3,1) pipeline
    star = pretzel_decompose(PretzelSpec((-3, 3, 1)), mirror=mirror)
    twists = [s.halftwists for s in star.summands]
    need(
        twists == [2, -4],
        f"pretzel(-3,3,1) must decompose as bands [2, -4], got {twists} "
        "(twist-sign convention: a mirrored run negates every band)",
    )
    ss, system, pob, rep, verdict = pipeline(star)
    p = ss.presentation
    need(euler_characteristic(p) == -1, "pretzel(-3,3,1) surface must have chi -1")
    need(genus(p) == 1, "pretzel(-3,3,1) surface must have genus 1")
    need(len(boundary_components(p)) == 1, "pretzel(-3,3,1) must bound a knot")
    need(len(pob.basis) == 1, "pretzel(-3,3,1) must carry exactly one product disk")
    need([v.value for v in rep.verdicts] == ["Right"], "pretzel(-3,3,1) must veer right")
    a, h = pob.basis[0], pob.images[0]
    need(
        interior_intersections(p, a, h) == 0,
        "pretzel(-3,3,1): the arc and its image must not cross",
    )
    need(
        verdict.status.value == "NonzeroTight",
        "pretzel(-3,3,1) verdict must be NonzeroTight",
    )
    need(not is_strongly_quasipositive(star), "pretzel(-3,3,1) must not be SQP")
    row("pretzel(-3,3,1)", system, rep, verdict, star)

    # Hopf bands, both signs
    for sign, want_veer, want_status in (
        (+1, "Right", "NonzeroTight"),
        (-1, "Left", "OvertwistedWitness"),
    ):
        star = StarPlumbing((TwistedAnnulus(2 * sign),))
        _ss, system, _pob, rep, verdict = pipeline(star)
        name = f"hopf({2 * sign:+d})"
        need(
            [v.value for v in rep.verdicts] == [want_veer],
            f"{name} must veer {want_veer}",
        )
        need(verdict.status.value == want_status, f"{name} verdict must be {want_status}")
        row(name, system, rep, verdict, star)

    # bounded family sweep
    for coeffs in family_rows:
        star = pretzel_decompose(PretzelSpec(coeffs), mirror=mirror)
        _ss, system, _pob, rep, verdict = pipeline(star)
        name = f"pretzel({','.join(str(c) for c in coeffs)})"
        need(
            len(system.pairs) == 1,
            f"{name} must carry exactly one product disk",
        )
        need(
            verdict.status.value == "NonzeroTight",
            f"{name} verdict must be NonzeroTight",
        )
        need(
            not is_strongly_quasipositive(star),
            f"{name} must not be SQP",
        )
        row(name, system, rep, verdict, star)
    return rows


def cmd_paper_examples(args) -> int:
    family = (3, 5)
    if args.family:
        parsed = {}
        for item in args.family:
            m = re.fullmatch(r"(k|range)=(\d+)", item)
            if not m:
                raise DocumentError(f"bad family setting {item!r}; use k=N range=N")
            parsed[m.group(1)] = int(m.group(2))
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
    geo = _geometry(p)
    lines = ["graph polygon {", "  layout=circo;"]
    for i, s in enumerate(p.sides):
        if isinstance(s, Boundary):
            lines.append(f"  s{i} [label={_dot_quoted(s.label)}];")
        else:
            label = _dot_quoted(f"{s.pair}.{s.end.value[0]}")
            lines.append(f"  s{i} [label={label}, shape=box];")
    for i in range(geo.n):
        lines.append(f"  s{i} -- s{(i + 1) % geo.n};")
    for pair in sorted(geo.pair_sides):
        i, j = sorted(geo.pair_sides[pair])
        label = _dot_quoted(pair)
        lines.append(f"  s{i} -- s{j} [label={label}, style=dashed, constraint=false];")
    for name, a, style in arcs:
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
            arcs = []
            for i, (a, h) in enumerate(zip(pob.basis, pob.images)):
                arcs.append((f"a{i}", reduce_arc(pob.surface, a), "bold"))
                arcs.append((f"h(a{i})", reduce_arc(pob.surface, h), "dotted"))
            sys.stdout.write(_dot_for_surface(pob.surface, arcs))
            return 0
    for d in docs:
        if d.kind == "surface":
            sys.stdout.write(_dot_for_surface(doc.surface_from(d.payload)))
            return 0
    raise DocumentError("no surface or pob document in input")


def build_parser() -> argparse.ArgumentParser:
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
    s.add_argument("--count", type=int, default=1)
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
    return parser


def _shield_negative_numbers(argv):
    """Insert -- before the first token that is a negative number list, so
    argument parsing does not mistake -3,3,1 for an option."""
    out = list(argv)
    for i, tok in enumerate(out):
        if tok == "--":
            return out
        if re.match(r"^-\d", tok):
            return out[:i] + ["--"] + out[i:]
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_shield_negative_numbers(argv))
    try:
        return args.func(args)
    except (UnknownPairError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

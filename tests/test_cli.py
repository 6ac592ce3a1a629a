"""End-to-end command tests, run in process."""

import contextlib
import gc
import hashlib
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plumbook.surface
from plumbook import Arc, BoundaryPoint, PartialOpenBook, cli
from plumbook import documents as doc
from plumbook.cli import (
    MAX_FAMILY_K,
    MAX_FAMILY_SPECS,
    MAX_STABILIZE_COUNT,
    _family_rows,
    build_parser,
    main,
)
from plumbook.documents import MAX_BOOK_ARCS, MAX_BOOK_CROSSINGS
from plumbook.errors import MAX_LISTED_VIOLATIONS, DocumentError, InvalidPresentationError
from plumbook.openbook import (
    ContactVerdict,
    VeeringReport,
    VerdictStatus,
    contact_verdict,
    positive_stabilization,
)
from plumbook.plumbing import (
    MAX_BUILD_BANDS,
    MAX_HOPF_SUMMANDS,
    PretzelSpec,
    ProductDiskSystem,
    StarPlumbing,
    TwistedAnnulus,
    associated_pob,
    pretzel_decompose,
    star_sum_surface,
)
from plumbook.surface import euler_characteristic

GOLDEN_ROW = "pretzel(-3,3,1) | 1 | Right | NonzeroTight | no"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(*argv) -> str:
    """stdout of a new interpreter that imports this checkout's plumbook"""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def refusal(message):
    """The stderr of a run refused with message: its error line whole, or,
    past cli.MAX_ERROR_LINE bytes, its first cli.ERROR_HEAD bytes and its
    length."""
    line = f"error: {message}".encode()
    if len(line) <= cli.MAX_ERROR_LINE:
        return line.decode() + "\n"
    return f"{line[: cli.ERROR_HEAD].decode()}... ({len(line)} bytes in all)\n"


def build_file(capsys, tmp_path, *argv):
    code, out, _err = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "in.json"
    path.write_text(out, encoding="utf-8")
    return path


def test_build_emits_star_surface_pob(capsys):
    code, out, _err = run(capsys, "build", "pretzel", "-3,3,1")
    assert code == 0
    docs = doc.parse_documents(out)
    assert [d.kind for d in docs] == ["star", "surface", "pob"]
    assert docs[0].payload["halftwists"] == [2, -4]


def test_negative_coefficients_survive_parsing(capsys):
    # both the shielded spelling and an explicit -- must work
    plain = run(capsys, "build", "pretzel", "-3,3,1")
    explicit = run(capsys, "build", "pretzel", "--", "-3,3,1")
    assert plain == explicit
    assert plain[0] == 0


def test_options_may_follow_a_negative_number(capsys):
    after = run(capsys, "build", "pretzel", "-3,3,1", "--mirror")
    before = run(capsys, "build", "pretzel", "--mirror", "-3,3,1")
    assert after == before
    assert after[0] == 0
    # a negative option value reaches the command, which refuses it
    code, out, err = run(capsys, "stabilize", "-", "--count", "-1")
    assert (code, out, err) == (2, "", "error: count must be nonnegative\n")


def test_build_star_mirror_negates(capsys):
    _code, out, _err = run(capsys, "build", "star", "2,-4", "--mirror")
    assert doc.parse_documents(out)[0].payload["halftwists"] == [-2, 4]


def test_warnings_are_one_line_each(capsys):
    code, out, err = run(capsys, "build", "pretzel", "-3,-3,1")
    assert code == 0
    assert out == run(capsys, "build", "star", "2,2")[1]
    assert err == (
        "warning: summand 1 is a bare Hopf band; the surveyed family assumes "
        "non-leading bands with at least 4 half twists\n"
    )
    assert ".py:" not in err
    # also when the command then fails: the warning comes before the error
    code, out, err = run(capsys, "build", "pretzel", "-3,-3,-1,1")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "warning: summand 1 is a bare Hopf band; the surveyed family assumes "
        "non-leading bands with at least 4 half twists",
        "error: coefficient -1 at index 2 yields a flat compressible band",
    ]


def test_build_even_coefficient_is_an_error(capsys):
    code, out, err = run(capsys, "build", "pretzel", "-3,2,1")
    assert code == 2
    assert out == ""
    assert "even coefficient: non-orientable pretzel surface rejected" in err


@pytest.mark.parametrize(
    "shape, numbers",
    [
        # int() reads underscores and non-ASCII digits, so these were 20,
        # 2 and 33; an empty entry was dropped
        ("star", "2_0"),
        ("star", "\u0662"),
        ("star", "2,,2"),
        ("pretzel", "-3,3_3,1"),
        # more digits than int() converts
        pytest.param("star", "2," + "9" * 5000, id="star-5000-digits"),
    ],
)
def test_build_reads_only_signed_ascii_integers(capsys, shape, numbers):
    code, out, err = run(capsys, "build", shape, numbers)
    assert (code, out) == (2, "")
    assert err == refusal(f"expected a comma-separated integer list, got {numbers!r}")


@pytest.mark.parametrize(
    "count", ["2_0", "\u0663", "-\u0663", "2.0", "", pytest.param("9" * 5000, id="5000-digits")]
)
def test_stabilize_count_reads_only_signed_ascii_integers(capsys, count):
    # int() reads underscores and non-ASCII digits: 2_0 ran 20 steps; and
    # it refuses more than 4300 digits
    code, out, err = run(capsys, "stabilize", "-", "--count", count)
    assert (code, out) == (2, "")
    assert err == refusal(f"count must be an integer, got {count!r}")


@pytest.mark.parametrize("setting", ["k=\u0663", "range=\u0663", "k=2_0", "k=-2", "k=", "k"])
def test_family_settings_read_only_ascii_integers(capsys, setting):
    # \d reads non-ASCII digits: k=3 in Arabic-Indic digits swept k=3
    code, out, err = run(capsys, "paper-examples", "--family", setting, "range=5")
    assert (code, out) == (2, "")
    assert err == f"error: bad family setting {setting!r}; use k=N range=N\n"


def test_counts_and_settings_keep_their_signs(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "pretzel", "-3,3,1")
    assert run(capsys, "stabilize", str(path), "--count", "+2") == run(
        capsys, "stabilize", str(path), "--count", "2"
    )
    family = run(capsys, "paper-examples", "--family", "k=+2", "range=5")
    assert family == run(capsys, "paper-examples", "--family", "k=2", "range=5")
    assert family[0] == 0


def test_build_lists_keep_their_spaces_and_signs(capsys):
    assert run(capsys, "build", "star", " +2, -2 ")[1] == run(capsys, "build", "star", "2,-2")[1]


def test_check_runs_all_checks_by_default(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "pretzel", "-3,3,1")
    code, out, _err = run(capsys, "check", str(path))
    assert code == 0
    checks = doc.parse_document(out).payload["checks"]
    assert set(checks) == {"rv", "contact", "sqp", "dividing"}
    assert checks["rv"] == ["Right"]
    assert checks["contact"]["status"] == "NonzeroTight"
    assert checks["contact"]["matrix"] == [[0]]
    assert checks["sqp"]["value"] is False
    assert checks["dividing"]["surface_boundary"] == 1
    assert checks["dividing"]["subsurface_boundary"] == 1


def test_check_subset_and_text_format(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "pretzel", "-3,3,1")
    code, out, _err = run(capsys, "check", str(path), "--checks", "rv,sqp", "--format", "text")
    assert code == 0
    assert out == "rv: Right\nsqp: no\n"


def test_check_reads_stdin(capsys, tmp_path, monkeypatch):
    path = build_file(capsys, tmp_path, "build", "star", "2")
    monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text(encoding="utf-8")))
    code, out, _err = run(capsys, "check", "--checks", "contact")
    assert code == 0
    assert doc.parse_document(out).payload["checks"]["contact"]["status"] == "NonzeroTight"


def test_check_without_star_sidecar_leaves_sqp_open(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "pretzel", "-3,3,1")
    pob, _star = doc.pob_from(doc.parse_documents(path.read_text(encoding="utf-8"))[2].payload)
    bare = tmp_path / "bare.json"
    bare.write_text(doc.print_document(doc.pob_document(pob)), encoding="utf-8")
    code, out, _err = run(capsys, "check", str(bare), "--checks", "sqp")
    assert code == 0
    sqp = doc.parse_document(out).payload["checks"]["sqp"]
    assert sqp["value"] is None
    assert "no star decomposition" in sqp["note"]


def test_check_rejects_unknown_check_name(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "star", "2")
    code, _out, err = run(capsys, "check", str(path), "--checks", "rv,bogus")
    assert code == 2
    assert err == "error: unknown check 'bogus'; pick from rv,contact,sqp,dividing\n"


def test_check_without_pob_document_is_an_error(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "star", "2")
    surface_only = tmp_path / "surface.json"
    surface_only.write_text(
        doc.print_document(doc.parse_documents(path.read_text(encoding="utf-8"))[1]),
        encoding="utf-8",
    )
    code, _out, err = run(capsys, "check", str(surface_only))
    assert code == 2
    assert "no pob document" in err


def test_stabilize_structured_report(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "pretzel", "-3,3,1")
    code, out, _err = run(capsys, "stabilize", str(path), "--count", "3")
    assert code == 0
    report, pob_doc = doc.parse_documents(out)
    assert report.kind == "report" and pob_doc.kind == "pob"
    assert report.payload["chi"] == [-1, -2, -3, -4]
    assert report.payload["verdict_stable"] is True
    assert [s["contact"] for s in report.payload["steps"]] == ["NonzeroTight"] * 4
    # the stabilized book is no longer the decomposition's book
    _pob, star = doc.pob_from(pob_doc.payload)
    assert star is None


def test_stabilize_text_format(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "pretzel", "-3,3,1")
    code, out, _err = run(capsys, "stabilize", str(path), "--count", "2", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "chi: -1, -2, -3"


def test_the_annulus_identity_book_is_isotopic_and_undecided(capsys, tmp_path):
    # the image is the basis chord pushed off to 2/3 with its empty word:
    # the identity of the annulus, whose arc meets its image once
    surface = star_sum_surface(StarPlumbing((TwistedAnnulus(2),)))
    thirds = (Fraction(1, 3), Fraction(2, 3))
    basis, image = (Arc(BoundaryPoint("Bl00", t), BoundaryPoint("Br00", t)) for t in thirds)
    path = tmp_path / "identity.json"
    pob = PartialOpenBook(surface, (basis,), (image,))
    path.write_text(doc.print_document(doc.pob_document(pob)), encoding="utf-8")
    code, out, _err = run(capsys, "check", str(path), "--format", "text")
    assert code == 0
    assert out == (
        "rv: Isotopic\n"
        "contact: Unknown (right-veering but some arc meets its own image; "
        "the bigon criterion does not decide this book)\n"
        "sqp: unknown\n"
        "dividing: surface 2, subsurface 1\n"
    )
    code, out, _err = run(capsys, "stabilize", str(path), "--count", "2", "--format", "text")
    assert code == 0
    assert out.splitlines()[1:] == [
        "step 0: chi 0, veering Isotopic, Unknown",
        "step 1: chi -1, veering Isotopic,Right, Unknown",
        "step 2: chi -2, veering Isotopic,Right,Right, Unknown",
    ]


def test_paper_examples_pass(capsys):
    code, out, _err = run(capsys, "paper-examples")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "example | product disks | veering | verdict | sqp"
    assert lines[1] == GOLDEN_ROW
    assert "hopf(+2) | 1 | Right | NonzeroTight | yes" in lines
    assert "hopf(-2) | 1 | Left | OvertwistedWitness | no" in lines
    assert lines[-1] == "all assertions passed (13 rows)"


def test_paper_examples_structured_is_deterministic(capsys):
    first = run(capsys, "paper-examples", "--format", "structured")
    second = run(capsys, "paper-examples", "--format", "structured")
    assert first == second
    payload = doc.parse_document(first[1]).payload
    assert payload["rows"][0] == GOLDEN_ROW
    assert payload["assertions"] == "all passed"


@pytest.mark.parametrize(
    "argv, digest",
    [
        ((), "d9a01d4c9ba6d6a15640a470c32bc6fbb90230efbafcd19dadead13e42135cf0"),
        (
            ("--format", "structured"),
            "8f9305e5d0a984551791440db15339cdfecf90f3b8b2b92c35d29dfe4bf9d709",
        ),
    ],
)
def test_paper_examples_stdout_is_pinned(capsys, argv, digest):
    code, out, _err = run(capsys, "paper-examples", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_paper_examples_family_bounds(capsys):
    code, out, _err = run(capsys, "paper-examples", "--family", "k=2", "range=5")
    assert code == 0
    assert out.splitlines()[-1] == "all assertions passed (5 rows)"
    code2, _out, err = run(capsys, "paper-examples", "--family", "k=2", "width=5")
    assert code2 == 2
    assert "bad family setting" in err


def test_paper_examples_mirror_fails_assertions(capsys):
    code, out, err = run(capsys, "paper-examples", "--mirror")
    assert code == 1
    assert out == ""
    assert "assertion failed" in err
    assert "a mirrored run negates every band" in err


FIRST_FAMILY_ROW = f"pretzel({','.join(str(c) for c in _family_rows(3, 5)[0])})"


# the four facts of every row, then the stevedore's surface on its own book:
# the call-th call of target (from 0; None for every call) returns fake of
# its result, and the run fails with message
GOLDEN_FAULTS = [
    (
        "associated_pob",
        0,
        lambda r: (r[0], ProductDiskSystem(()), r[2]),
        "pretzel(-3,3,1) must carry exactly one product disk",
    ),
    (
        "associated_pob",
        1,
        lambda r: (r[0], ProductDiskSystem(r[1].pairs * 2), r[2]),
        "hopf(+2) must carry exactly one product disk",
    ),
    ("veering_report", 0, lambda r: VeeringReport(()), "pretzel(-3,3,1) must veer Right"),
    ("veering_report", 3, lambda r: VeeringReport(()), f"{FIRST_FAMILY_ROW} must veer Right"),
    (
        "contact_verdict",
        2,
        lambda r: ContactVerdict(VerdictStatus.NONZERO_TIGHT, "fake"),
        "hopf(-2) verdict must be OvertwistedWitness",
    ),
    (
        "contact_verdict",
        3,
        lambda r: ContactVerdict(VerdictStatus.UNKNOWN, "fake"),
        f"{FIRST_FAMILY_ROW} verdict must be NonzeroTight",
    ),
    ("is_strongly_quasipositive", None, lambda r: False, "hopf(+2) must be SQP"),
    ("is_strongly_quasipositive", 0, lambda r: True, "pretzel(-3,3,1) must not be SQP"),
    (
        "associated_pob",
        0,
        lambda r: associated_pob(StarPlumbing((TwistedAnnulus(2),))),
        "pretzel(-3,3,1) surface must have chi -1",
    ),
    ("genus", 0, lambda r: 2, "pretzel(-3,3,1) surface must have genus 1"),
    ("boundary_components", 0, lambda r: r * 2, "pretzel(-3,3,1) must bound a knot"),
    (
        "interior_intersections",
        0,
        lambda r: 1,
        "pretzel(-3,3,1): the arc and its image must not cross",
    ),
]


@pytest.mark.parametrize(
    "target, call, fake, message", GOLDEN_FAULTS, ids=[f[3] for f in GOLDEN_FAULTS]
)
def test_each_golden_assertion_fails_the_run(capsys, monkeypatch, target, call, fake, message):
    original, calls = getattr(cli, target), itertools.count()

    def patched(*args):
        result = original(*args)
        return fake(result) if call in (None, next(calls)) else result

    monkeypatch.setattr(cli, target, patched)
    assert run(capsys, "paper-examples") == (1, "", f"assertion failed: {message}\n")


@pytest.mark.parametrize("setting", ["k", "range"])
def test_family_settings_given_twice_exit_2(capsys, setting):
    code, out, err = run(capsys, "paper-examples", "--family", f"{setting}=2", f"{setting}=3")
    assert (code, out) == (2, "")
    assert err == f"error: bad family setting '{setting}=3'; use k=N range=N\n"


def test_over_limit_inputs_exit_2(capsys):
    code, out, err = run(capsys, "build", "star", ",".join(["2"] * 11))
    assert (code, out) == (2, "")
    assert "11 Hopf summands; at most 10 are supported" in err
    code, out, err = run(capsys, "paper-examples", "--family", "k=12", "range=99")
    assert (code, out) == (2, "")
    assert "at most 2680 are supported" in err
    # the acceptance sweep itself sits at the limit
    assert len(_family_rows(5, 9)) == MAX_FAMILY_SPECS == 2680
    # refused before the (absent) input is read
    code, out, err = run(capsys, "stabilize", "--count", str(MAX_STABILIZE_COUNT + 1))
    assert (code, out) == (2, "")
    assert f"at most {MAX_STABILIZE_COUNT} stabilizations are supported" in err


@pytest.mark.parametrize(
    "shape, fits, over",
    [
        ("star", ["4"] * MAX_BUILD_BANDS, ["4"] * (MAX_BUILD_BANDS + 1)),
        # a pretzel's bands are its coefficients before the final 1; bare
        # Hopf bands after the first would warn, if any band were built
        ("pretzel", ["5"] * MAX_BUILD_BANDS + ["1"], ["-3"] * (MAX_BUILD_BANDS + 1) + ["1"]),
    ],
    ids=["star", "pretzel"],
)
def test_build_refuses_more_bands_than_its_limit(capsys, monkeypatch, shape, fits, over):
    code, out, err = run(capsys, "build", shape, ",".join(fits))
    assert (code, err) == (0, "")
    assert len(doc.parse_documents(out)[0].payload["halftwists"]) == MAX_BUILD_BANDS
    built = []
    wrap_everywhere(monkeypatch, star_sum_surface, built.append)
    code, out, err = run(capsys, "build", shape, ",".join(over))
    assert (code, out, built) == (2, "", [])
    limit = f"{MAX_BUILD_BANDS + 1} bands; at most {MAX_BUILD_BANDS} bands are supported"
    assert err == f"error: {limit}\n"


def pob_index(docs):
    return next(i for i, d in enumerate(docs) if d["kind"] == "pob")


def test_document_stars_share_the_build_band_limit(monkeypatch):
    # a star no tool writes is refused before any band is built
    built = []
    monkeypatch.setattr(doc, "TwistedAnnulus", lambda t: built.append(t) or TwistedAnnulus(t))
    path = (pob_index(PRETZEL_DOCS), "payload", "star", "halftwists")
    fits = json.dumps(replaced(PRETZEL_DOCS, path, [4] * MAX_BUILD_BANDS))
    over = json.dumps(replaced(PRETZEL_DOCS, path, [4] * (MAX_BUILD_BANDS + 1)))
    limit = f"{MAX_BUILD_BANDS + 1} bands; at most {MAX_BUILD_BANDS} bands are supported"
    for sub in ("check", "stabilize", "emit-dot"):
        built.clear()
        code, out, err = run_on_text([sub, "-"], fits)
        assert (code, err, len(built)) == (0, "", MAX_BUILD_BANDS), sub
        built.clear()
        code, out, err = run_on_text([sub, "-"], over)
        assert (code, out, err, built) == (2, "", f"error: bad star payload: {limit}\n", []), sub


def test_check_validates_a_document_surface_once(monkeypatch):
    # with its star the document's book is its star's, whose surface
    # carries its geometry; without it, the document's surface is validated
    seen = []
    original = plumbook.surface.validate
    monkeypatch.setattr(plumbook.surface, "validate", lambda p: seen.append(p) or original(p))
    pob = PRETZEL_DOCS[pob_index(PRETZEL_DOCS)]
    assert run_on_text(["check", "-"], json.dumps([pob]))[0] == 0
    assert seen == []
    bare = {**pob, "payload": {k: v for k, v in pob["payload"].items() if k != "star"}}
    assert run_on_text(["check", "-"], json.dumps([bare]))[0] == 0
    assert seen == [star_sum_surface(pretzel_decompose(PretzelSpec((-3, 3, 1))))]


def test_oversized_books_exit_2():
    pob = pob_index(PRETZEL_DOCS)
    payload = PRETZEL_DOCS[pob]["payload"]
    arc, image = payload["basis"][0], payload["images"][0]
    per_image = len(image["crossings"])
    many = (MAX_BOOK_ARCS + 2) // 2
    longest = {**image, "crossings": image["crossings"] * (MAX_BOOK_CROSSINGS // per_image)}
    too_long = {**image, "crossings": image["crossings"] * (MAX_BOOK_CROSSINGS // per_image + 1)}
    # at both limits a book is read
    doc.pob_from({**payload, "basis": [arc] * (many - 1), "images": [image] * (many - 1)})
    doc.pob_from({**payload, "images": [longest]})
    for big, limit in (
        ({**payload, "basis": [arc] * many, "images": [image] * many}, MAX_BOOK_ARCS),
        ({**payload, "images": [too_long]}, MAX_BOOK_CROSSINGS),
    ):
        text = json.dumps(replaced(PRETZEL_DOCS, (pob, "payload"), big))
        for sub in ("check", "stabilize", "emit-dot"):
            code, out, err = run_on_text([sub, "-"], text)
            assert (code, out) == (2, "")
            assert f"at most {limit} are supported" in err


def test_book_limits_admit_every_book_the_tools_write():
    # build star writes 2^i crossings on the image of its i-th Hopf band,
    # and each stabilization adds a basis arc and an image of one crossing
    assert MAX_BOOK_ARCS == 2 * (MAX_HOPF_SUMMANDS + MAX_STABILIZE_COUNT)
    assert MAX_BOOK_CROSSINGS == 2**MAX_HOPF_SUMMANDS - 1 + MAX_STABILIZE_COUNT
    stabilized = doc.pob_from(STABILIZED_DOCS[pob_index(STABILIZED_DOCS)]["payload"])[0]
    assert [len(h.crossings) for h in stabilized.images[1:]] == [1, 1, 1]
    star = built_documents("build", "star", ",".join(["2"] * MAX_HOPF_SUMMANDS))
    book = doc.pob_from(star[pob_index(star)]["payload"])[0]
    assert len(book.basis) == MAX_HOPF_SUMMANDS
    assert sum(len(h.crossings) for h in book.images) == 2**MAX_HOPF_SUMMANDS - 1


def test_family_refused_before_listing():
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError, match="at most 2680 are supported"):
            _family_rows(2, 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_family_rows_match_brute_force():
    for k_max in range(7):
        for spread in range(26):
            allowed = [n for n in range(-spread, spread + 1) if n % 2 and n not in (-3, -1, 1)]
            tails = (
                t
                for m in range(1, k_max)
                for t in itertools.product(allowed, repeat=m)
                if max(t) >= 3
            )
            # one past the limit decides the refusal
            tails = list(itertools.islice(tails, MAX_FAMILY_SPECS + 1))
            if len(tails) > MAX_FAMILY_SPECS:
                with pytest.raises(DocumentError):
                    _family_rows(k_max, spread)
            else:
                # depth-first order is tuple order: a prefix precedes its extensions
                assert _family_rows(k_max, spread) == [(-3, *t, 1) for t in sorted(tails)]


def test_family_band_limit_and_deep_tails(capsys):
    # 1199 specs, under the spec limit, but k is above the band limit
    code, out, err = run(capsys, "paper-examples", "--family", "k=1200", "range=3")
    assert (code, out) == (2, "")
    assert f"at most k={MAX_FAMILY_K} is supported" in err
    # tails are listed without recursing once per letter
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        rows = _family_rows(MAX_FAMILY_K, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert rows == [(-3, *(3,) * m, 1) for m in range(1, MAX_FAMILY_K)]
    # depth-first order: each tail, then its extensions
    assert _family_rows(3, 5)[:4] == [(-3, -5, 3, 1), (-3, -5, 5, 1), (-3, 3, 1), (-3, 3, -5, 1)]


def test_emit_dot_for_plain_surface(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "star", "2")
    surface_only = tmp_path / "surface.json"
    surface_only.write_text(
        doc.print_document(doc.parse_documents(path.read_text(encoding="utf-8"))[1]),
        encoding="utf-8",
    )
    code, out, _err = run(capsys, "emit-dot", str(surface_only))
    assert code == 0
    assert out.startswith("graph polygon {")
    assert "layout=circo;" in out
    assert 'style=dashed' in out
    assert "a0" not in out


def test_emit_dot_disk_is_a_plain_cycle(capsys, tmp_path):
    from plumbook.surface import Boundary, PolygonPresentation

    disk = PolygonPresentation(tuple(Boundary(f"D{i}") for i in range(4)))
    path = tmp_path / "disk.json"
    path.write_text(doc.print_document(doc.surface_document(disk)), encoding="utf-8")
    code, out, _err = run(capsys, "emit-dot", str(path))
    assert code == 0
    assert out.count(" -- ") == 4
    assert "dashed" not in out


def test_emit_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    from plumbook.surface import Boundary, End, Glued, PolygonPresentation

    left, right = Glued("c\\", End.LEFT), Glued("c\\", End.RIGHT)
    sides = (Boundary('a"b'), left, Boundary("B2"), Boundary("B3"), right, Boundary("B4"))
    path = tmp_path / "quoted.json"
    path.write_text(
        doc.print_document(doc.surface_document(PolygonPresentation(sides))), encoding="utf-8"
    )
    code, out, _err = run(capsys, "emit-dot", str(path))
    assert code == 0
    lines = out.splitlines()
    assert r'  s0 [label="a\"b"];' in lines
    assert r'  s1 [label="c\\.l", shape=box];' in lines
    assert r'  s1 -- s4 [label="c\\", style=dashed, constraint=false];' in lines
    # with escapes removed, every line's quotes pair up
    for line in lines:
        assert re.sub(r"\\.", "", line).count('"') % 2 == 0


def test_emit_dot_draws_each_pair_in_side_order(capsys, tmp_path):
    from plumbook.surface import Boundary, End, Glued, PolygonPresentation

    # the right half comes first: the edge still runs from the lower side
    right, left = Glued("c", End.RIGHT), Glued("c", End.LEFT)
    sides = (Boundary("B1"), right, Boundary("B2"), Boundary("B3"), left, Boundary("B4"))
    path = tmp_path / "turned.json"
    path.write_text(
        doc.print_document(doc.surface_document(PolygonPresentation(sides))), encoding="utf-8"
    )
    code, out, _err = run(capsys, "emit-dot", str(path))
    assert code == 0
    assert '  s1 -- s4 [label="c", style=dashed, constraint=false];' in out.splitlines()


def test_emit_dot_prefers_pob_overlays(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "pretzel", "-3,3,1")
    code, out, _err = run(capsys, "emit-dot", str(path))
    assert code == 0
    assert '[label="a0", style=bold' in out
    assert '[label="h(a0)", style=dotted' in out


def test_emit_dot_needs_a_drawable_document(capsys, tmp_path):
    star_only = tmp_path / "star.json"
    star_only.write_text(
        doc.print_document(doc.Document("star", 1, {"halftwists": [2]})), encoding="utf-8"
    )
    code, _out, err = run(capsys, "emit-dot", str(star_only))
    assert code == 2
    assert "no surface or pob document" in err


def test_malformed_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    # the second is nested too deeply for the JSON decoder; the rest are
    # JSON, but neither a document object nor an array
    scalars = ("3", '"x"', "null", "true")
    for text, message in (
        ("{ not json", "error: not valid JSON"),
        ("[" * 200_000, "error: not valid JSON"),
        *((scalar, "error: expected a document object or array of them") for scalar in scalars),
    ):
        bad.write_text(text, encoding="utf-8")
        for sub in ("check", "stabilize", "emit-dot"):
            code, _out, err = run(capsys, sub, str(bad))
            assert code == 2
            assert err.startswith(message)


def test_a_long_violation_list_is_summarized():
    # 20,000 folded pairs give 20,000 interior vertices: the error line
    # names the first few, so it stays short, and the exception keeps all
    n = 20_000
    sides = [{"boundary": "b"}]
    sides += [{"pair": f"p{j}", "end": e} for j in range(n) for e in ("left", "right")]
    payload = {"surface": {"sides": sides}, "basis": [], "images": []}
    text = json.dumps({"kind": "pob", "version": 1, "payload": payload})
    code, out, err = run_on_text(["check", "-"], text)
    assert code == 2
    assert out == ""
    assert len(err.encode("utf-8")) < 4096
    assert err.count("InteriorVertex") == MAX_LISTED_VIOLATIONS
    assert err.endswith(f"; (and {n - MAX_LISTED_VIOLATIONS} more)\n")
    with pytest.raises(InvalidPresentationError) as exc:
        euler_characteristic(doc.surface_from(payload["surface"]))
    assert len(exc.value.violations) == n


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()
    # nothing is built at import
    probe = "import plumbook.cli as c; print(c.build_parser.cache_info().currsize)"
    assert fresh_python("-c", probe) == "0\n"


def test_shared_parser_carries_nothing_between_calls(capsys, tmp_path):
    path = build_file(capsys, tmp_path, "build", "star", "2,-2")
    code, out, _err = run(capsys, "check", str(path), "--checks", "rv", "--format", "text")
    assert (code, out) == (0, "rv: Right,Left\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(path), "--format", "xml"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _err = run(capsys, "check", str(path))
    assert code == 0
    assert out == fresh_python("-m", "plumbook.cli", "check", str(path))


def test_missing_file_exits_2(capsys):
    code, _out, err = run(capsys, "check", "/nonexistent/path.json")
    assert code == 2
    assert "cannot read" in err


def built_documents(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


def node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from node_paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from node_paths(value, (*path, i))


def changed(node, path, change):
    """node with change applied at path; a path that no longer exists,
    because an earlier mutation removed it, leaves node as it is."""
    if not path:
        return change(node)
    head, rest = path[0], path[1:]
    if isinstance(node, dict) and head in node:
        return {**node, head: changed(node[head], rest, change)}
    if isinstance(node, list):
        return [changed(x, rest, change) if i == head else x for i, x in enumerate(node)]
    return node


def replaced(node, path, value):
    return changed(node, path, lambda _old: value)


def dropped(node, path):
    """node without the key or list entry at path."""
    key = path[-1]

    def drop(parent):
        if isinstance(parent, dict):
            return {k: v for k, v in parent.items() if k != key}
        if isinstance(parent, list):
            return [v for i, v in enumerate(parent) if i != key]
        return parent

    return changed(node, path[:-1], drop)


def swapped(node, path):
    """node with the object at path turned into a list of its values, or
    the list at path into an object keyed by index."""

    def swap(old):
        if isinstance(old, dict):
            return list(old.values())
        if isinstance(old, list):
            return {str(i): v for i, v in enumerate(old)}
        return old

    return changed(node, path, swap)


def run_on_text(argv, text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


PRETZEL_DOCS = built_documents("build", "pretzel", "-3,3,1")
STAR_DOCS = built_documents("build", "star", "2,2,2")
STABILIZED_DOCS = json.loads(
    run_on_text(["stabilize", "-", "--count", "3"], json.dumps(PRETZEL_DOCS))[1]
)


def test_non_string_names_exit_2():
    pob = pob_index(PRETZEL_DOCS)
    for leaf in (
        (pob, "payload", "surface", "sides", 0, "boundary"),
        (pob, "payload", "surface", "sides", 1, "pair"),
        (pob, "payload", "surface", "sides", 1, "end"),
        (pob, "payload", "basis", 0, "start", "side"),
        (pob, "payload", "images", 0, "crossings", 0, "pair"),
    ):
        text = json.dumps(replaced(PRETZEL_DOCS, leaf, ["x"]))
        for sub in ("check", "stabilize", "emit-dot"):
            code, out, err = run_on_text([sub, "-"], text)
            assert (code, out) == (2, "")
            assert "must be a string, got ['x']" in err


def test_arc_lists_only_as_json_arrays():
    # an object or a string iterates too: read as an empty list, each of
    # these books was certified (an empty basis NonzeroTight, the empty
    # image word an overtwisted witness), stabilized and drawn; and one
    # longer than the crossing limit was counted as too many crossings
    pob = pob_index(PRETZEL_DOCS)
    payload = PRETZEL_DOCS[pob]["payload"]
    image = payload["images"][0]
    for value in ({}, "", "x" * 3000, {str(j): j for j in range(3000)}):
        for bad, message in (
            ({"basis": value, "images": []}, "bad pob payload: basis must be an array"),
            ({"basis": [], "images": value}, "bad pob payload: images must be an array"),
            (
                {"images": [{**image, "crossings": value}]},
                "bad arc payload: crossings must be an array",
            ),
        ):
            text = json.dumps(replaced(PRETZEL_DOCS, (pob, "payload"), {**payload, **bad}))
            for sub in ("check", "stabilize", "emit-dot"):
                code, out, err = run_on_text([sub, "-"], text)
                assert (code, out) == (2, "")
                assert err == f"error: {message}\n"


@pytest.mark.parametrize("sub", ["check", "stabilize", "emit-dot"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        (("surface", "sides"), {}, "bad surface payload: sides must be an array"),
        (("surface", "sides"), "", "bad surface payload: sides must be an array"),
        (("star", "halftwists"), {}, "bad star payload: halftwists must be an array"),
        (("star", "halftwists"), "", "bad star payload: halftwists must be an array"),
        (("star", "halftwists"), "22", "bad star payload: halftwists must be an array"),
    ],
)
def test_sides_and_halftwists_only_as_json_arrays(sub, field, value, message):
    # iterated, {} and "" read as no sides or no bands and "22" as bands
    # '2' and '2', so each refusal named the wrong fault
    text = json.dumps(replaced(PRETZEL_DOCS, (pob_index(PRETZEL_DOCS), "payload", *field), value))
    assert run_on_text([sub, "-"], text) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("sub", ["check", "stabilize", "emit-dot"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        (("surface", "sides", 0), "boundary", "bad surface payload: side must be an object"),
        (("surface", "sides", 0), 1, "bad surface payload: side must be an object"),
        (("surface", "sides", 0), ["boundary"], "bad surface payload: side must be an object"),
        (("basis", 0), "x", "bad arc payload: arc must be an object"),
        (("basis", 0, "start"), "x", "bad arc payload: start must be an object"),
        (("images", 0, "end"), [1], "bad arc payload: end must be an object"),
        (("images", 0, "crossings", 0), "q", "bad arc payload: crossing must be an object"),
        ((), [], "bad pob payload: payload must be an object"),
        (("surface",), [], "bad surface payload: surface must be an object"),
        (("star",), [], "bad star payload: star must be an object"),
    ],
)
def test_payload_containers_only_as_json_objects(sub, field, value, message):
    # read by field name, a string, number or array leaked a Python message
    # naming no field, such as "string indices must be integers, not 'str'"
    text = json.dumps(replaced(PRETZEL_DOCS, (pob_index(PRETZEL_DOCS), "payload", *field), value))
    assert run_on_text([sub, "-"], text) == (2, "", f"error: {message}\n")


def test_positions_only_in_the_written_form():
    pob = pob_index(PRETZEL_DOCS)
    leaf = (pob, "payload", "basis", 0, "start", "position")
    # the last three have the written form, but Fraction refuses a zero
    # denominator and int() more than 4300 digits
    for value in (
        *("1e-5000", "1E-5", "5e-1", "0.5", "1/3 ", "+1/3", "1/-3", "⅓", 0.5, 7),
        *("1/0", "0/0", "1" * 5000),
    ):
        text = json.dumps(replaced(PRETZEL_DOCS, leaf, value))
        for sub in ("check", "stabilize", "emit-dot"):
            code, out, err = run_on_text([sub, "-"], text)
            assert (code, out) == (2, "")
            assert err == refusal(f"bad arc payload: bad rational {value!r}")


def test_integer_fields_only_as_json_integers():
    pob = pob_index(PRETZEL_DOCS)
    star = pob_index(STAR_DOCS)
    # the star's last letter (c0, +1) repeats one built before it: true and
    # 1.0 equal 1 as keys, so only validating every letter refuses them
    assert STAR_DOCS[star]["payload"]["images"][2]["crossings"][3] == {"pair": "c0", "direction": 1}
    for docs, leaf, what in (
        (PRETZEL_DOCS, (pob, "payload", "images", 0, "crossings", 0, "direction"), "direction"),
        (STAR_DOCS, (star, "payload", "images", 2, "crossings", 3, "direction"), "direction"),
        (PRETZEL_DOCS, (pob, "payload", "star", "halftwists", 0), "halftwists"),
        (PRETZEL_DOCS, (pob, "version"), "version"),
    ):
        for value in (True, -1.2, 2.5, 1.0, "1"):
            text = json.dumps(replaced(docs, leaf, value))
            for sub in ("check", "stabilize", "emit-dot"):
                code, out, err = run_on_text([sub, "-"], text)
                assert (code, out) == (2, "")
                assert f"{what} must be an integer, got {value!r}" in err


def one_small_line(err):
    """Whether err is at most one line, under 4 KB as UTF-8."""
    return err.count("\n") == err.endswith("\n") and len(err.encode()) < 4096


def test_long_refusals_stay_small():
    # each refused value is echoed in the error line; a line past
    # cli.MAX_ERROR_LINE bytes keeps its head, naming its field, and its length
    pob = pob_index(PRETZEL_DOCS)
    image = (pob, "payload", "images", 0)
    cases = [
        ((*image, "start", "position"), "1" * 1_000_000, "error: bad arc payload: bad rational '11"),
        ((*image, "crossings", 0, "pair"), "z" * 1_000_000, "error: unknown pair 'zz"),
        ((*image, "start", "side"), "z" * 1_000_000, "error: boundary side 'zz"),
        ((pob, "kind"), "z" * 1_000_000, "error: unknown document kind 'zz"),
    ]
    for leaf, value, head in cases:
        text = json.dumps(replaced(PRETZEL_DOCS, leaf, value))
        for sub in ("check", "stabilize", "emit-dot"):
            code, out, err = run_on_text([sub, "-"], text)
            assert (code, out) == (2, "")
            assert err.startswith(head) and one_small_line(err), err[:300]
            size = re.fullmatch(r".*\.\.\. \(([0-9]+) bytes in all\)\n", err, re.S)
            assert len(value) < int(size[1]) < len(value) + 100, err[:300]
    code, out, err = run_on_text(["stabilize", "-", "--count", "9" * 5000], "")
    assert (code, out) == (2, "")
    assert err.startswith("error: count must be an integer, got '99") and one_small_line(err)
    assert err.endswith("... (5039 bytes in all)\n")


def test_unknown_pair_is_named():
    pob = pob_index(PRETZEL_DOCS)
    leaf = (pob, "payload", "images", 0, "crossings", 0, "pair")
    code, _out, err = run_on_text(["check", "-"], json.dumps(replaced(PRETZEL_DOCS, leaf, "zz")))
    assert code == 2
    assert err.startswith("error: unknown pair 'zz'")


def mutations(docs):
    paths = list(node_paths(docs))
    return st.one_of(
        st.tuples(
            st.sampled_from(paths),
            st.sampled_from((["x"], 7, None, "zz")).map(lambda v: lambda d, p: replaced(d, p, v)),
        ),
        st.tuples(st.sampled_from(paths[1:]), st.just(dropped)),
        st.tuples(st.sampled_from(paths), st.just(swapped)),
    )


MUTATED = st.one_of(
    *(
        st.tuples(st.just(docs), st.lists(mutations(docs), min_size=1, max_size=2))
        for docs in (PRETZEL_DOCS, STAR_DOCS, STABILIZED_DOCS)
    )
)


def without_star(docs):
    """docs without the star of their first pob document; None when there
    is no such document or its star does not parse."""
    if not isinstance(docs, list):
        return None
    for i, d in enumerate(docs):
        if isinstance(d, dict) and d.get("kind") == "pob":
            payload = d.get("payload")
            if not isinstance(payload, dict) or "star" not in payload:
                return None
            try:
                doc.star_from(payload["star"])
            except DocumentError:
                return None
            return dropped(docs, (i, "payload", "star"))
    return None


def outcome(argv, docs):
    """Exit code, stdout without its sqp line, and stderr of a run."""
    code, out, err = run_on_text(argv, json.dumps(docs))
    assert "Traceback" not in err
    kept = [line for line in out.splitlines(keepends=True) if not line.startswith("sqp: ")]
    return code, "".join(kept), err


def assert_star_changes_only_sqp(docs):
    # a book equal to its star's book is taken as built; every other book
    # is checked as if the document carried no star
    bare = without_star(docs)
    assert bare is not None
    for argv in (["check", "-", "--format", "text"], ["stabilize", "-"]):
        assert outcome(argv, docs) == outcome(argv, bare)


def wrap_everywhere(monkeypatch, fn, wrapper):
    """Rebind, in every loaded plumbook module, each attribute that is fn."""
    for name, module in list(sys.modules.items()):
        if name == "plumbook" or name.startswith("plumbook."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


def test_check_builds_a_written_star_once(monkeypatch):
    built = []
    original = star_sum_surface
    wrap_everywhere(monkeypatch, original, lambda star: built.append(star) or original(star))
    code, _out, _err = run_on_text(["check", "-"], json.dumps(STAR_DOCS))
    assert code == 0
    assert len(built) == 1


def test_a_star_that_cannot_be_the_books_is_not_built(monkeypatch):
    # a 12-gon book whose star lists as many bands as a star may have: no
    # 6,000-gon is built
    def refuse(star):
        raise AssertionError("built a star that cannot be the book's")

    wrap_everywhere(monkeypatch, associated_pob, refuse)
    wrap_everywhere(monkeypatch, star_sum_surface, refuse)
    star = (pob_index(PRETZEL_DOCS), "payload", "star", "halftwists")
    text = json.dumps(replaced(PRETZEL_DOCS, star, [4] * MAX_BUILD_BANDS))
    code, out, err = run_on_text(["check", "-"], text)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7c1b95453e27cbd56636757176b46106ac8ec1e0b99ae9c02aafc574985ccb81"
    )


def test_documents_not_matching_their_star_are_checked_in_full():
    pob = pob_index(STAR_DOCS)
    star = (pob, "payload", "star", "halftwists")
    flipped = (pob, "payload", "images", 2, "crossings", 1, "direction")
    eleven = [2] * (MAX_HOPF_SUMMANDS + 1)
    surface = doc.surface_payload(
        star_sum_surface(StarPlumbing(tuple(TwistedAnnulus(t) for t in eleven)))
    )
    cases = [
        changed(STAR_DOCS, flipped, lambda d: -d),
        replaced(STAR_DOCS, star, [-2, -2, -2]),
        replaced(STAR_DOCS, star, [2, 2, 2, 2]),
        # the star's own polygon, and more Hopf summands than a star may have
        replaced(replaced(STAR_DOCS, star, eleven), (pob, "payload", "surface"), surface),
        PRETZEL_DOCS,
        STAR_DOCS,
    ]
    for docs in cases:
        assert_star_changes_only_sqp(docs)
    # the flipped crossing makes image 2 cross itself and the others
    codes = [outcome(["check", "-"], docs)[0] for docs in cases]
    assert codes == [2, 0, 0, 0, 0, 0]


@pytest.mark.parametrize(
    "argv, build_digest, check_digest",
    [
        (
            ("9",),
            "0f47db126344e5d979d084fdab860641217bdc8418bf4d9bdc24821608fb6643",
            "da998a976b4c51aaf595b1cf1b36a34f78a6c96e173155239a178af144991b46",
        ),
        (
            ("9", "--mirror"),
            "f34d39d6db905209e1dc1d23cf1be2d9e54ca069916398a6b34a5dcc3467ff72",
            "5698a78a66fb16db1bac630fd904042ce4fdec95e1296af86549dd6cb5a1b816",
        ),
        (
            ("10",),
            "8e5ba6d8ecf01e659078ec93be12b62992dc167acfe92917acf6529ab4d888eb",
            "9ad0e9ad1d6ac8f3be41bcba741ded6ab892aea38ef84d3e67b0848a77ccc985",
        ),
        (
            ("10", "--mirror"),
            "a74d6e1701df975e979ac9d1b27ce7f9b573de2b689b8c052c42413cf1ef455c",
            "d4cd20364414fe4a5e09959740685cd28864c46bd5429ea9d9ff23370e661250",
        ),
    ],
)
def test_large_hopf_stars_stdout_is_pinned(argv, build_digest, check_digest):
    # the benchmark pins k = 4..8; these books take the certified check
    k, *mirror = argv
    code, built, _err = run_on_text(["build", "star", ",".join(["2"] * int(k)), *mirror], "")
    assert code == 0
    assert hashlib.sha256(built.encode("utf-8")).hexdigest() == build_digest
    code, checked, _err = run_on_text(["check", "-"], built)
    assert code == 0
    assert hashlib.sha256(checked.encode("utf-8")).hexdigest() == check_digest


@pytest.mark.parametrize(
    "argv, count, digest",
    [
        (
            ("pretzel", "-3,3,1"),
            200,
            "08e93717da98170cbc997552b367d9e7d444fe0cfb5378c8c7f364537c1b23e1",
        ),
        (
            ("star", "2,2,2,2,2,2,2,2,2,2"),
            40,
            "fa2dbd56a016c65ec2fc3444264b60c0514c95df73d8d58dd5d6f52ab78322c3",
        ),
        (
            ("star", "2,2,2,2,2,2,2,2,2,2", "--mirror"),
            40,
            "2c3cb73ab6c0cfa7247f313656166eaca656d7620f84957dd22f02ee591c93ab",
        ),
    ],
)
def test_long_stabilize_chains_stdout_is_pinned(argv, count, digest):
    # the certified star book and the kept reversals run on every step, and
    # the mirrored star's chain carries its witness verdict
    code, built, _err = run_on_text(["build", *argv], "")
    assert code == 0
    code, out, _err = run_on_text(["stabilize", "-", "--count", str(count)], built)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@settings(max_examples=150, deadline=None)
@given(MUTATED)
def test_mutated_documents_never_crash(case):
    docs, changes = case
    for path, mutate in changes:
        docs = mutate(docs, path)
    text = json.dumps(docs)
    for argv in (["check", "-"], ["stabilize", "-"], ["emit-dot", "-"]):
        code, _out, err = run_on_text(argv, text)
        assert code in (0, 2)
        assert "Traceback" not in err
        assert one_small_line(err), err[:300]
    if without_star(docs) is not None:
        assert_star_changes_only_sqp(docs)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("pretzel", "-3,3,1"),
            "4c7b92125741b817966a5a2faa146e3f417cc7455aaba7dc28632ec815798c45",
        ),
        (
            ("star", "2,-2,2"),
            "88eb25f6418a22ff3fc2a671f61a6d1870e6f3a86cdc60832be2c115bb23124f",
        ),
        (
            ("star", "2,2,2,2,2,2,2,2,2,2"),
            "74d5b6525867e798fef05b64a39ba5c0ed87c890d1b114c5bce8f07cd8e17d7e",
        ),
    ],
)
def test_emit_dot_stdout_is_pinned(argv, digest):
    code, built, _err = run_on_text(["build", *argv], "")
    assert code == 0
    code, out, err = run_on_text(["emit-dot", "-"], built)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_emit_dot_of_a_stabilized_book_is_pinned():
    # every basis arc and image of a 20-step chain is drawn: 42 arc edges
    code, built, _err = run_on_text(["build", "pretzel", "-3,3,1"], "")
    assert code == 0
    code, stabilized, err = run_on_text(["stabilize", "-", "--count", "20"], built)
    assert (code, err) == (0, "")
    code, out, err = run_on_text(["emit-dot", "-"], stabilized)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "907d41b359f2a486a5db5b873982d6cfe2e1689199ae738a338de5630674921b"
    )


def test_emit_dot_of_a_surface_document_is_pinned():
    surface_only = [d for d in PRETZEL_DOCS if d["kind"] == "surface"]
    code, out, err = run_on_text(["emit-dot", "-"], json.dumps(surface_only))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "ae7d62954ec7885aefde9e87b67ed2bbbf557735d49d4e7be6ecae0619c52871"
    )


def test_emit_dot_of_an_invalid_surface_exits_2():
    sides = [{"boundary": "b"}, {"pair": "p", "end": "left"}, {"boundary": "c"}]
    text = json.dumps({"kind": "surface", "version": 1, "payload": {"sides": sides}})
    code, out, err = run_on_text(["emit-dot", "-"], text)
    assert (code, out) == (2, "")
    assert err == "error: UnmatchedPair: pair 'p' occurs 1 time(s), expected 2\n"


def dot_arc_edges(docs):
    """Exit code, the labels of the drawn arcs in order, and stderr of
    emit-dot on docs."""
    code, out, err = run_on_text(["emit-dot", "-"], json.dumps(docs))
    labels = re.findall(r'\[label="([^"]*)", style=(?:bold|dotted)', out)
    return code, labels, err


def test_emit_dot_draws_unpaired_arcs_and_checks_them():
    # a book with its one image removed draws its basis arc alone
    docs = json.loads(json.dumps(PRETZEL_DOCS))
    payload = docs[pob_index(docs)]["payload"]
    image = payload["images"].pop()
    assert dot_arc_edges(docs) == (0, ["a0"], "")
    # a second image is drawn after the pair, as the image of a missing a1
    payload["images"] = [image, image]
    assert dot_arc_edges(docs) == (0, ["a0", "h(a0)", "h(a1)"], "")
    # and it is checked against the surface like every drawn arc
    payload["images"][1] = {**image, "start": {**image["start"], "side": "nowhere"}}
    code, labels, err = dot_arc_edges(docs)
    assert (code, labels) == (2, [])
    assert err == "error: boundary side 'nowhere' is not on this presentation\n"


def test_text_checks_print_in_one_order_once_each():
    built = json.dumps(STAR_DOCS)
    code, every, _err = run_on_text(["check", "-", "--format", "text"], built)
    assert code == 0
    assert [line.split(":")[0] for line in every.splitlines()] == [
        "rv",
        "contact",
        "sqp",
        "dividing",
    ]
    argv = ["check", "-", "--format", "text", "--checks", "dividing,sqp,rv,contact,rv"]
    assert run_on_text(argv, built) == (0, every, "")


def test_structured_checks_hold_only_those_asked():
    code, out, _err = run_on_text(["check", "-", "--checks", "sqp,rv"], json.dumps(STAR_DOCS))
    assert code == 0
    assert sorted(doc.parse_document(out).payload["checks"]) == ["rv", "sqp"]


def test_decisions_leave_no_cyclic_garbage():
    # an arc keeps its view and its reversal, and neither refers back to it
    # but weakly, so refcounting frees everything a decision builds; with
    # automatic collection off, a cycle would wait for gc.collect() to find it
    build_parser()  # argparse's formatters form cycles; the parser is built once
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        pob = associated_pob(pretzel_decompose(PretzelSpec((-3, 5, -7, 1))))[2]
        assert contact_verdict(pob).status is VerdictStatus.NONZERO_TIGHT
        assert gc.collect() == 0
        for mirror in ((), ("--mirror",)):
            code, built, _err = run_on_text(["build", "star", "2,2,2,2", *mirror], "")
            assert code == 0
            assert run_on_text(["check", "-"], built)[0] == 0
            assert gc.collect() == 0
        for _ in range(5):
            pob = positive_stabilization(pob)
        assert contact_verdict(pob).status is VerdictStatus.NONZERO_TIGHT
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()

"""End-to-end command tests, run in process."""

import contextlib
import hashlib
import inspect
import io
import itertools
import json
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbook import documents as doc
from plumbook.cli import (
    MAX_FAMILY_K,
    MAX_FAMILY_SPECS,
    MAX_STABILIZE_COUNT,
    _family_rows,
    main,
)
from plumbook.documents import MAX_BOOK_ARCS, MAX_BOOK_CROSSINGS
from plumbook.errors import DocumentError
from plumbook.plumbing import MAX_HOPF_SUMMANDS, StarPlumbing, TwistedAnnulus, star_sum_surface

GOLDEN_ROW = "pretzel(-3,3,1) | 1 | Right | NonzeroTight | no"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


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


def test_build_star_mirror_negates(capsys):
    _code, out, _err = run(capsys, "build", "star", "2,-4", "--mirror")
    assert doc.parse_documents(out)[0].payload["halftwists"] == [-2, 4]


def test_build_even_coefficient_is_an_error(capsys):
    code, out, err = run(capsys, "build", "pretzel", "-3,2,1")
    assert code == 2
    assert out == ""
    assert "even coefficient: non-orientable pretzel surface rejected" in err


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
    assert err.startswith("error:")


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


def pob_index(docs):
    return next(i for i, d in enumerate(docs) if d["kind"] == "pob")


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
    # the second is nested too deeply for the JSON decoder
    for text in ("{ not json", "[" * 200_000):
        bad.write_text(text, encoding="utf-8")
        for sub in ("check", "stabilize", "emit-dot"):
            code, _out, err = run(capsys, sub, str(bad))
            assert code == 2
            assert err.startswith("error: not valid JSON")


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


def test_positions_only_in_the_written_form():
    pob = pob_index(PRETZEL_DOCS)
    leaf = (pob, "payload", "basis", 0, "start", "position")
    for value in ("1e-5000", "1E-5", "5e-1", "0.5", "1/3 ", "+1/3", "1/-3", "⅓", 0.5, 7):
        text = json.dumps(replaced(PRETZEL_DOCS, leaf, value))
        for sub in ("check", "stabilize", "emit-dot"):
            code, out, err = run_on_text([sub, "-"], text)
            assert (code, out) == (2, "")
            assert f"bad rational {value!r}" in err


def test_integer_fields_only_as_json_integers():
    pob = pob_index(PRETZEL_DOCS)
    for leaf, what in (
        ((pob, "payload", "images", 0, "crossings", 0, "direction"), "direction"),
        ((pob, "payload", "star", "halftwists", 0), "halftwists"),
        ((pob, "version"), "version"),
    ):
        for value in (True, -1.2, 2.5, 1.0, "1"):
            text = json.dumps(replaced(PRETZEL_DOCS, leaf, value))
            for sub in ("check", "stabilize", "emit-dot"):
                code, out, err = run_on_text([sub, "-"], text)
                assert (code, out) == (2, "")
                assert f"{what} must be an integer, got {value!r}" in err


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


def test_documents_not_matching_their_star_are_checked_in_full():
    pob = pob_index(STAR_DOCS)
    star = (pob, "payload", "star", "halftwists")
    flipped = (pob, "payload", "images", 2, "crossings", 1, "direction")
    eleven = [2] * (MAX_HOPF_SUMMANDS + 1)
    surface = doc.surface_payload(
        star_sum_surface(StarPlumbing(tuple(TwistedAnnulus(t) for t in eleven))).presentation
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
    ],
)
def test_long_stabilize_chains_stdout_is_pinned(argv, count, digest):
    # the certified star book and the kept reversals run on every step
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
    if without_star(docs) is not None:
        assert_star_changes_only_sqp(docs)

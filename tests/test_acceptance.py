"""Release gate: the eight headline guarantees, one test each.

Run with -v to get one pass/fail line per criterion.  Three of the tests
carry wall-clock budgets; they time only their own workload.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction

from strip_oracle import oracle_intersections

from plumbook import documents as doc
from plumbook.arcs import (
    Arc,
    Crossing,
    Divergence,
    first_divergence,
    interior_intersections,
    is_isotopic,
    reduce,
)
from plumbook.cli import main
from plumbook.openbook import (
    ArcVeer,
    VerdictStatus,
    contact_verdict,
    positive_stabilization,
    veering_report,
)
from plumbook.plumbing import (
    PretzelSpec,
    StarPlumbing,
    TwistedAnnulus,
    associated_pob,
    is_strongly_quasipositive,
    pretzel_decompose,
    star_sum_surface,
)
from plumbook.surface import (
    Boundary,
    BoundaryPoint,
    End,
    Glued,
    PolygonPresentation,
    boundary_components,
    euler_characteristic,
    genus,
)

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
SIDE_INDEX = {"B1": 0, "B2": 2, "B3": 3, "B4": 5}


def hex_arc(s0, t0, s1, t1, word=()):
    return Arc(
        BoundaryPoint(s0, Fraction(*t0)),
        BoundaryPoint(s1, Fraction(*t1)),
        tuple(Crossing("c", d) for d in word),
    )


def oracle_arc(a: Arc):
    return (
        (SIDE_INDEX[a.start.side], a.start.position),
        (SIDE_INDEX[a.end.side], a.end.position),
        tuple(c.direction for c in a.crossings),
    )


def test_1_pretzel_331_pipeline_golden(capsys):
    start = time.perf_counter()
    star = pretzel_decompose(PretzelSpec((-3, 3, 1)))
    assert [s.halftwists for s in star.summands] == [2, -4]
    p, system, pob = associated_pob(star)
    assert euler_characteristic(p) == -1
    assert genus(p) == 1
    assert len(boundary_components(p)) == 1
    assert len(system.pairs) == 1 and len(pob.basis) == 1
    assert [v for v in veering_report(pob).verdicts] == [ArcVeer.RIGHT]
    assert interior_intersections(p, pob.basis[0], pob.images[0]) == 0
    assert contact_verdict(pob).status is VerdictStatus.NONZERO_TIGHT
    assert not is_strongly_quasipositive(star)

    assert main(["paper-examples"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "pretzel(-3,3,1) | 1 | Right | NonzeroTight | no"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s, budget 1s"


def test_2_family_sweep_tight_and_never_sqp():
    """Every spec of the family sweep decides NonzeroTight and is not SQP.

    The twist counts of non-Hopf bands do not enter a star's book: the book
    reads only the band count and the signs and places of the Hopf (+-2)
    bands.  Every spec here has one Hopf band, the leading positive one, so
    the 2680 specs decide only 4 distinct books, one per band count 2 to 5.
    Strong quasipositivity reads every twist.
    """
    # odd middle coefficients in [-9, 9]; excluding -3, -1, 1 keeps the
    # decomposition free of zero-twist and non-leading Hopf bands, and one
    # coefficient >= 3 forces a negatively twisted band
    allowed = (-9, -7, -5, 3, 5, 7, 9)
    specs = [
        (-3, *tail, 1)
        for length in range(1, 5)
        for tail in itertools.product(allowed, repeat=length)
        if any(n >= 3 for n in tail)
    ]
    assert len(specs) == 2680
    books = set()
    start = time.perf_counter()
    for coeffs in specs:
        star = pretzel_decompose(PretzelSpec(coeffs))
        assert any(s.halftwists < 0 for s in star.summands)
        _ss, system, pob = associated_pob(star)
        assert len(system.pairs) == 1, coeffs
        assert contact_verdict(pob).status is VerdictStatus.NONZERO_TIGHT, coeffs
        assert not is_strongly_quasipositive(star), coeffs
        books.add(pob)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"
    assert len(books) == 4


def test_3_positive_stars_are_sqp_right_veering_tight():
    rng = random.Random(20240613)
    for _ in range(200):
        k = rng.randint(1, 6)
        star = StarPlumbing(
            tuple(TwistedAnnulus(rng.choice((2, 4, 6, 8, 10))) for _ in range(k))
        )
        assert is_strongly_quasipositive(star)
        _ss, _system, pob = associated_pob(star)
        verdicts = veering_report(pob).verdicts
        assert ArcVeer.LEFT not in verdicts
        assert contact_verdict(pob).status is VerdictStatus.NONZERO_TIGHT


def test_4_hopf_band_verdicts_exact():
    _ss, _system, positive = associated_pob(StarPlumbing((TwistedAnnulus(2),)))
    assert tuple(veering_report(positive).verdicts) == (ArcVeer.RIGHT,)
    assert contact_verdict(positive).status is VerdictStatus.NONZERO_TIGHT

    _ss, _system, negative = associated_pob(StarPlumbing((TwistedAnnulus(-2),)))
    assert tuple(veering_report(negative).verdicts) == (ArcVeer.LEFT,)
    verdict = contact_verdict(negative)
    assert verdict.status is VerdictStatus.OVERTWISTED_WITNESS
    assert verdict.witness_index == 0


def test_5_stabilization_preserves_verdicts():
    goldens = [
        associated_pob(pretzel_decompose(PretzelSpec((-3, 3, 1))))[2],
        associated_pob(StarPlumbing((TwistedAnnulus(2),)))[2],
        associated_pob(StarPlumbing((TwistedAnnulus(-2),)))[2],
    ]
    for pob in goldens:
        prior = tuple(veering_report(pob).verdicts)
        status = contact_verdict(pob).status
        chi = euler_characteristic(pob.surface)
        for _ in range(3):
            pob = positive_stabilization(pob)
            chi -= 1
            assert euler_characteristic(pob.surface) == chi
            verdicts = tuple(veering_report(pob).verdicts)
            assert verdicts[: len(prior)] == prior
            assert contact_verdict(pob).status is status
            prior = verdicts


def test_6_arc_calculus_matches_the_cover_oracle():
    start = time.perf_counter()
    words = [
        w for length in range(7) for w in itertools.product((1, -1), repeat=length)
    ]
    assert len(words) == 127
    # disjoint endpoint pairs so no word pair degenerates to a duplicate arc
    left = [hex_arc("B1", (1, 3), "B2", (3, 5), w) for w in words]
    right = [hex_arc("B4", (2, 7), "B3", (1, 2), w) for w in words]
    mismatches = 0
    for a in left:
        oa = oracle_arc(a)
        for b in right:
            if interior_intersections(HEXAGON, a, b) != oracle_intersections(
                oa, oracle_arc(b)
            ):
                mismatches += 1
    for a in left + right:
        oa = oracle_arc(a)
        if interior_intersections(HEXAGON, a, a) != oracle_intersections(oa, oa):
            mismatches += 1
    assert mismatches == 0

    rng = random.Random(20240612)
    labels = ("B1", "B2", "B3", "B4")

    def rand_point():
        return BoundaryPoint(rng.choice(labels), Fraction(rng.randrange(1, 48), 48))

    def rand_arc(max_len):
        while True:
            s, e = rand_point(), rand_point()
            if s != e:
                break
        word = tuple(
            Crossing("c", rng.choice((1, -1))) for _ in range(rng.randrange(max_len + 1))
        )
        return Arc(s, e, word)

    for _ in range(1000):
        a = rand_arc(12)
        r = reduce(HEXAGON, a)
        assert reduce(HEXAGON, r) == r

    # equivalence relation on a pool salted with respelled duplicates
    pool = []
    for _ in range(12):
        base = rand_arc(4)
        pool.append(base)
        for _ in range(2):
            cut = rng.randrange(len(base.crossings) + 1)
            d = rng.choice((1, -1))
            pad = (Crossing("c", d), Crossing("c", -d))
            pool.append(
                Arc(
                    base.start,
                    base.end,
                    base.crossings[:cut] + pad + base.crossings[cut:],
                )
            )
    rel = [
        [is_isotopic(HEXAGON, a, b) for b in pool]
        for a in pool
    ]
    n = len(pool)
    assert all(rel[i][i] for i in range(n))
    assert all(rel[i][j] == rel[j][i] for i in range(n) for j in range(n))
    assert not any(
        rel[i][j] and rel[j][k] and not rel[i][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )

    shared = BoundaryPoint("B1", Fraction(1, 2))
    fan = []
    while len(fan) < 40:
        e = rand_point()
        if e != shared:
            word = tuple(
                Crossing("c", rng.choice((1, -1))) for _ in range(rng.randrange(5))
            )
            fan.append(Arc(shared, e, word))
    flip = {
        Divergence.RIGHT_OF: Divergence.LEFT_OF,
        Divergence.LEFT_OF: Divergence.RIGHT_OF,
        Divergence.EQUAL: Divergence.EQUAL,
    }
    for a in fan:
        for b in fan:
            assert first_divergence(HEXAGON, b, a) == flip[first_divergence(HEXAGON, a, b)]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle suite took {elapsed:.2f}s, budget 30s"


def test_7_euler_characteristic_laws():
    surfaces = [HEXAGON]
    for k in range(1, 7):
        p = star_sum_surface(StarPlumbing((TwistedAnnulus(2),) * k))
        assert euler_characteristic(p) == 1 - k
        surfaces.append(p)
    _ss, _system, pob = associated_pob(pretzel_decompose(PretzelSpec((-3, 3, 1))))
    for _ in range(3):
        pob = positive_stabilization(pob)
        surfaces.append(pob.surface)
    for p in surfaces:
        chi = euler_characteristic(p)
        assert chi == 2 - 2 * genus(p) - len(boundary_components(p))


def test_8_serialization_round_trip_and_determinism(capsys, tmp_path):
    star = pretzel_decompose(PretzelSpec((-3, 3, 1)))
    surface, _system, pob = associated_pob(star)
    docs = [
        doc.star_document(star),
        doc.surface_document(surface),
        doc.pob_document(pob, star),
        doc.pretzel_document(PretzelSpec((-3, 3, 1))),
        doc.arc_document(pob.basis[0]),
        doc.report_document({"rows": ["x"], "assertions": "all passed"}),
    ]
    for d in docs:
        assert doc.parse_document(doc.print_document(d)) == d
    bundle = doc.print_documents(docs)
    assert [d.kind for d in doc.parse_documents(bundle)] == [d.kind for d in docs]

    path = tmp_path / "pob.json"
    path.write_text(doc.print_document(doc.pob_document(pob, star)), encoding="utf-8")
    outputs = []
    for argv in (
        ["check", str(path)],
        ["stabilize", str(path), "--count", "2"],
        ["paper-examples", "--format", "structured"],
    ):
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == first
        outputs.append(first)

    # fresh interpreters, so hash randomization gets a chance to reorder
    runner = "import sys; from plumbook.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = [
        subprocess.run(
            [sys.executable, "-c", runner, "paper-examples", "--format", "structured"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1] == outputs[2]

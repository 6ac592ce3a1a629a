"""Walk the pretzel(-3,3,1) surface from coefficients to a contact verdict.

Run with:  python3 demos/stevedore_walkthrough.py
"""

from plumbook import (
    PretzelSpec,
    associated_pob,
    boundary_components,
    contact_verdict,
    euler_characteristic,
    genus,
    interior_intersections,
    is_strongly_quasipositive,
    pretzel_decompose,
    veering_report,
)


def main():
    spec = PretzelSpec((-3, 3, 1))
    print(f"pretzel coefficients: {spec.coefficients}")

    star = pretzel_decompose(spec)
    bands = [s.halftwists for s in star.summands]
    print(f"plumbing of twisted annuli, halftwists: {bands}")
    print("  the +2 band is a positive Hopf band; the -4 band carries no product disk")

    p, system, pob = associated_pob(star)
    chi = euler_characteristic(p)
    print(
        f"star surface: chi {chi}, genus {genus(p)}, "
        f"{len(boundary_components(p))} boundary component(s)"
    )

    print(f"product-disk pairs found: {len(system.pairs)}")
    for i, (a, h) in enumerate(zip(pob.basis, pob.images)):
        word = ", ".join(f"{c.pair}{'+' if c.direction > 0 else '-'}" for c in h.crossings)
        print(f"  basis arc {i}: {a.start.side} -> {a.end.side}, image word [{word}]")

    rep = veering_report(pob)
    print(f"veering: {[v.value for v in rep.verdicts]}")

    a, h = pob.basis[0], pob.images[0]
    print(f"interior intersections of arc 0 with its image: {interior_intersections(p, a, h)}")

    verdict = contact_verdict(pob)
    print(f"contact verdict: {verdict.status.value}")
    print(f"  {verdict.reason}")

    print(f"strongly quasipositive: {is_strongly_quasipositive(star)}")
    print("a tight contact structure supported by a link that is not strongly quasipositive")


if __name__ == "__main__":
    main()

"""The first homology of the closed manifold of a book, from its words.

When the basis arcs cut the page into a disk, the manifold is the page
times an interval, of first homology Z^pairs (one generator per glued pair
of the polygon), with a 2-handle attached along a_i and h(a_i) for each
basis arc.  So H_1 = Z^pairs modulo the rows ab(h_i) - ab(a_i), where ab
counts a word's letters with their signs per pair.  The group is read from
the integer Smith form of those rows.  It depends on the words alone, not
on the verdict rule or on where the images' ends are pushed.
"""

from plumbook.surface import geometry


def abelianized(arc, pairs) -> list[int]:
    """The signed letter count of arc's word per pair, in the order of pairs."""
    count = dict.fromkeys(pairs, 0)
    for c in arc.crossings:
        count[c.pair] += c.direction
    return [count[pair] for pair in pairs]


def smith_diagonal(rows) -> list[int]:
    """The nonzero entries of the Smith form of an integer matrix, each
    dividing the next, by row and column operations over the integers."""
    m = [list(r) for r in rows if any(r)]
    diagonal = []
    while m:
        # bring an entry of least size to the corner, then clear its row and
        # column; a remainder is smaller still, so this ends
        _, i, j = min((abs(v), i, j) for i, r in enumerate(m) for j, v in enumerate(r) if v)
        m[0], m[i] = m[i], m[0]
        for r in m:
            r[0], r[j] = r[j], r[0]
        p = m[0][0]
        for r in m[1:]:
            q = r[0] // p
            r[:] = [x - q * y for x, y in zip(r, m[0])]
        for j in range(1, len(m[0])):
            q = m[0][j] // p
            for r in m:
                r[j] -= q * r[0]
        if any(r[0] for r in m[1:]) or any(m[0][1:]):
            continue
        rest = [r[1:] for r in m[1:]]
        bad = next((r for r in rest if any(x % p for x in r)), None)
        if bad is not None:
            # p does not divide the rest: a row of it joins the corner's row
            m[0][1:] = [x + y for x, y in zip(m[0][1:], bad)]
            continue
        diagonal.append(abs(p))
        m = [r for r in rest if any(r)]
    return diagonal


def first_homology(pob) -> tuple[int, ...]:
    """H_1 of pob's manifold as the orders of its cyclic summands: the
    torsion orders above 1, each dividing the next, then a 0 per Z."""
    pairs = sorted(geometry(pob.surface).pair_sides)
    rows = [
        [x - y for x, y in zip(abelianized(h, pairs), abelianized(a, pairs))]
        for a, h in zip(pob.basis, pob.images)
    ]
    diagonal = smith_diagonal(rows)
    return (*(d for d in diagonal if d > 1), *(0,) * (len(pairs) - len(diagonal)))

"""The invariants a NonzeroTight certificate rests on, asserted on a book.

In the sutured Heegaard diagram of a partial open book (Honda, Kazez and
Matic 2009), alpha_i meets beta_j on the page half only at x_i when i = j,
and in M[i][j] = i(a_i, h(a_j)) points on the other half.  With a zero
diagonal and acyclic support (edges i -> j for i != j with M[i][j] > 0), the
identity is the only permutation left, so the contact class is the only
generator and is nonzero; a nonzero class means tight, and tight means
right-veering.
"""

from plumbook.arcs import interior_intersections, reduce
from plumbook.openbook import ArcVeer, VerdictStatus, contact_verdict, veering_report


def acyclic(matrix) -> bool:
    """Whether the edges i -> j, i != j, M[i][j] > 0 form no cycle: peel
    off the arcs no remaining arc points to until none are left."""
    left = set(range(len(matrix)))
    while left:
        sources = {j for j in left if not any(matrix[i][j] > 0 for i in left if i != j)}
        if not sources:
            return False
        left -= sources
    return True


def assert_certificate_invariants(pob) -> None:
    """A NonzeroTight verdict with a matrix has a zero diagonal and acyclic
    support, and a book with both has no Left arc.  A witness carries no
    matrix, so it is counted here."""
    verdict = contact_verdict(pob)
    matrix = verdict.matrix
    if matrix is None:
        p = pob.surface
        basis = [reduce(p, a) for a in pob.basis]
        images = [reduce(p, h) for h in pob.images]
        matrix = [[interior_intersections(p, a, h) for h in images] for a in basis]
    certified = all(matrix[i][i] == 0 for i in range(len(matrix))) and acyclic(matrix)
    if verdict.status is VerdictStatus.NONZERO_TIGHT:
        assert certified, matrix
    if certified:
        assert ArcVeer.LEFT not in veering_report(pob).verdicts, matrix

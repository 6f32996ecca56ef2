"""Exact spanning-tree oracle: Laplacian cofactor via symmetric fraction-free elimination.

The oracle reads the graph as neighbour lists (:func:`graphs.realize`) and
orders the vertices by reverse Cuthill-McKee: the breadth-first levels from
a pseudo-peripheral vertex, kept from the search that found it (Cuthill &
McKee 1969; George & Liu, *Computer Solution of Large Sparse Positive
Definite Systems*, 1981), which keeps the fill-in inside a narrow envelope,
of constant width for a bicirculant graph; vertices of degree <= 2 go first,
as each of their steps touches at most two later rows.  Bareiss elimination
then runs over the nonzeros of the reduced Laplacian's upper triangle, each
stamped with the step of its last update, so that a step rescales only the
entries it reads.  All arithmetic uses Python's arbitrary-precision
integers, so tree counts are bit-exact no matter how fast they grow.
Nothing here shares code with the spectral count.
"""

from __future__ import annotations

from .errors import InexactDivision, InvariantViolation, OutOfRange
from .graphs import ConnectionSpec, realize

__all__ = ["tree_count_oracle"]

# Largest graph the oracle takes (n = 400), a bound on time: the neighbour
# lists take O(n * degree) memory, but the cost of elimination grows with the
# envelope.  In reverse Cuthill-McKee order it stays banded: at V = 800 the
# prism takes 0.025-0.041 s and family 4 0.015-0.028 s on one Xeon core, the
# big spec (bandwidth 29, not 5-10) 2.2-2.9 s, as the host's speed drifts.
MAX_ORACLE_VERTICES = 800
_INEXACT = "fraction-free elimination produced an inexact division"


def _det_semidefinite(rows: list[dict[int, int]]) -> int:
    """Exact determinant of a symmetric positive semidefinite integer matrix,
    given as its upper triangle: ``rows[i]`` is {j: a_ij} over the nonzeros
    with j >= i.  The rows are consumed.

    Bareiss one-step fraction-free elimination (Bareiss, *Math. Comp.* 22,
    1968) keeps every intermediate matrix symmetric, and its pivots are the
    leading principal minors, never negative.  So no pivot needs a swap, and
    step k updates only the entries (i, j) with i and j in the tail of
    ``rows[k]``, to (pivot_k a_ij - a_ik a_kj) / pivot_(k-1), with a_ik = a_ki
    read off the pivot row.  Any other entry would only be scaled by
    pivot_k / pivot_(k-1).  Instead each entry keeps its stamp s, the step
    after its last update, and takes all the skipped scalings at once,
    pivot_(k-1) / pivot_(s-1), when read at step k: in the pivot row, or just
    before its own update.  Every entry is an integer minor (Sylvester's
    identity), so every division is exact: checked, not trusted.  A zero
    pivot means det 0, as semidefiniteness forces the rest of its row to
    vanish; a nonzero rest or a negative pivot raises
    :class:`InvariantViolation`.
    """
    # pivots[s] = pivot of step s - 1, the divisor for an entry with stamp s
    pivots = [1]
    stamps = [dict.fromkeys(row, 0) for row in rows]
    for k, pivot_row in enumerate(rows):
        scale, stamp = pivots[k], stamps[k]
        for j, x in pivot_row.items():
            if stamp[j] < k:
                pivot_row[j], rem = divmod(x * scale, pivots[stamp[j]])
                if rem:
                    raise InexactDivision(_INEXACT)
        pivot = pivot_row.pop(k, 0)
        if pivot <= 0:
            if pivot or pivot_row:
                raise InvariantViolation("elimination met a matrix that is not positive semidefinite")
            return 0
        tail = sorted(pivot_row.items())
        for at, (i, lead) in enumerate(tail):
            row, stamp = rows[i], stamps[i]
            for j, x in tail[at:]:
                a = row.get(j, 0)
                if stamp.get(j, k) < k:
                    a, rem = divmod(a * scale, pivots[stamp[j]])
                    if rem:
                        raise InexactDivision(_INEXACT)
                a, rem = divmod(pivot * a - lead * x, scale)
                if rem:
                    raise InexactDivision(_INEXACT)
                if a:
                    row[j], stamp[j] = a, k + 1
                else:
                    row.pop(j, None)
                    stamp.pop(j, None)
        pivots.append(pivot)
    return pivots[-1]


def _levels(neighbours: list[list[int]], root: int, seen: list[bool]) -> list[list[int]]:
    """Breadth-first levels from ``root`` over the vertices not yet ``seen``,
    neighbours in index order; marks each vertex it reaches as seen."""
    seen[root], levels = True, [[root]]
    while True:
        ahead = []
        for v in levels[-1]:
            for w in neighbours[v]:
                if not seen[w]:
                    seen[w] = True
                    ahead.append(w)
        if not ahead:
            return levels
        levels.append(ahead)


def _reverse_cuthill_mckee(neighbours: list[list[int]]) -> list[int]:
    """Breadth-first order, reversed.  The first search starts at a
    pseudo-peripheral vertex, found the George-Liu way (*ACM TOMS* 5, 1979):
    search from vertex 0, then from a least-degree vertex of the last level
    while the eccentricity grows; the levels from the vertex it settles on
    are the first component's order.  Each further component restarts at
    its least vertex."""
    levels, root = [], 0
    while True:
        marks = [False] * len(neighbours)
        ahead = _levels(neighbours, root, marks)
        if len(ahead) <= len(levels):
            break
        levels, seen, root = ahead, marks, min(ahead[-1], key=lambda v: len(neighbours[v]))
    order = [v for level in levels for v in level]
    for root in range(len(neighbours)):
        if not seen[root]:
            order += (v for level in _levels(neighbours, root, seen) for v in level)
    order.reverse()
    return order


def tree_count_oracle(spec: ConnectionSpec) -> int:
    """Exact number of spanning trees: any cofactor of the Laplacian.

    The vertices of ``realize(spec)`` are put in reverse Cuthill-McKee order,
    those of degree <= 2 first (a symmetric permutation keeps the determinant),
    and the Laplacian's upper triangle, minus the last vertex in that order,
    is built as nonzeros straight from the neighbour lists: the degree on the
    diagonal, -1 for each edge to a later vertex.  Returns 0 iff the graph is
    disconnected.  Raises :class:`OutOfRange` above ``MAX_ORACLE_VERTICES``
    vertices, before the graph is built.
    """
    if 2 * spec.n > MAX_ORACLE_VERTICES:
        raise OutOfRange(f"the oracle takes at most {MAX_ORACLE_VERTICES} vertices, got {2 * spec.n}")
    neighbours = realize(spec)
    order = _reverse_cuthill_mckee(neighbours)
    order.sort(key=lambda v: len(neighbours[v]) > 2)
    place = {v: p for p, v in enumerate(order)}
    last = len(order) - 1
    rows = [
        {p: len(neighbours[v]), **{place[w]: -1 for w in neighbours[v] if p < place[w] < last}}
        for p, v in enumerate(order[:last])
    ]
    value = _det_semidefinite(rows)
    if value < 0:
        raise InvariantViolation("Laplacian cofactor cannot be negative")
    return value

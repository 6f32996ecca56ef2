"""Exact spanning-tree oracle: Laplacian cofactor via sparse fraction-free elimination.

The oracle reads the graph as neighbour lists (:func:`graphs.realize`) and
orders the vertices by reverse Cuthill-McKee (Cuthill & McKee 1969; George &
Liu, *Computer Solution of Large Sparse Positive Definite Systems*, 1981),
which keeps the fill-in of elimination inside a narrow envelope, of constant
width for a bicirculant graph.  Bareiss elimination then runs over each
row's nonzeros.  All arithmetic uses Python's arbitrary-precision integers,
so tree counts are bit-exact no matter how fast they grow.  Nothing here
shares code with the spectral count.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import InexactDivision, InvariantViolation, OutOfRange
from .graphs import ConnectionSpec, realize

__all__ = ["det_fraction_free", "tree_count_oracle"]

# Largest graph the oracle takes (n = 400), a bound on time: the neighbour
# lists take O(n * degree) memory, but the cost of elimination grows with the
# envelope.  In reverse Cuthill-McKee order it stays banded: at V = 800 the
# prism takes 0.034 s and family 4 0.028 s on one Xeon core, the big spec
# (bandwidth 29, not 5-10) 3.1 s.
MAX_ORACLE_VERTICES = 800


def _nonzeros(row, size: int) -> dict[int, int]:
    """{column: value} of a dense row of length ``size`` or of a mapping."""
    dense = not isinstance(row, Mapping)
    entries = {int(j): int(x) for j, x in (enumerate(row) if dense else row.items()) if x}
    if (dense and len(row) != size) or any(not 0 <= j < size for j in entries):
        raise ValueError("determinant needs a square matrix")
    return entries


def _divide(numerator: int, divisor: int) -> int:
    quot, rem = divmod(numerator, divisor)
    if rem:
        raise InexactDivision("fraction-free elimination produced an inexact division")
    return quot


def det_fraction_free(matrix) -> int:
    """Exact determinant by Bareiss one-step fraction-free elimination over nonzeros.

    ``matrix`` is a list of ``len(matrix)`` rows, each a dense sequence or a
    mapping {column: value}.  Rows are kept as their nonzeros, and step k
    touches only the rows with a nonzero in column k; the first of them is
    the pivot row (a swap flips the sign, none means det 0).  A row that step
    k skips would only be scaled by pivot_k / pivot_(k-1).  Instead it keeps
    its stamp s, the step after its last update, and takes all the skipped
    scalings at once, pivot_(k-1) / pivot_(s-1), when next touched; below
    the pivot that scaling folds into the update, whose divisor becomes
    pivot_(s-1).  Every entry is an integer minor (Sylvester's identity), so
    every division is exact: checked, not trusted.
    """
    size = len(matrix)
    rows = [_nonzeros(row, size) for row in matrix]
    # holders[j]: positions >= k of the rows with a nonzero in column j
    holders = [set() for _ in range(size)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    # pivots[s] = pivot of step s - 1, the divisor for a row with stamp s
    pivots = [1]
    stamp = [0] * size
    sign = 1
    for k in range(size):
        top = min(holders[k], default=None)
        if top is None:
            return 0
        if top != k:
            # a column held by one of the two rows changes position, one held
            # by both is toggled twice
            for i in (k, top):
                for j in rows[i]:
                    holders[j] ^= {k, top}
            rows[k], rows[top] = rows[top], rows[k]
            stamp[k], stamp[top] = stamp[top], stamp[k]
            sign = -sign
        pivot_row = rows[k]
        for j in pivot_row:
            holders[j].discard(k)
        if stamp[k] < k:
            scale, divisor = pivots[k], pivots[stamp[k]]
            for j, x in pivot_row.items():
                pivot_row[j] = _divide(x * scale, divisor)
        pivot = pivot_row.pop(k)
        for i in holders[k]:
            row = rows[i]
            divisor = pivots[stamp[i]]
            lead = row.pop(k)
            for j in row:
                row[j] *= pivot
            for j, x in pivot_row.items():
                if j in row:
                    row[j] -= lead * x
                else:
                    row[j] = -lead * x
                    holders[j].add(i)
            for j, x in list(row.items()):
                if x:
                    row[j] = _divide(x, divisor)
                else:
                    del row[j]
                    holders[j].discard(i)
            stamp[i] = k + 1
        pivots.append(pivot)
    return sign * pivots[-1]


def _reverse_cuthill_mckee(neighbours: list[list[int]]) -> list[int]:
    """Breadth-first order, neighbours in index order and one restart per
    component, reversed."""
    order, seen, head = [], [False] * len(neighbours), 0
    for root in range(len(neighbours)):
        if not seen[root]:
            seen[root] = True
            order.append(root)
        while head < len(order):
            for w in neighbours[order[head]]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            head += 1
    order.reverse()
    return order


def tree_count_oracle(spec: ConnectionSpec) -> int:
    """Exact number of spanning trees: any cofactor of the Laplacian.

    The vertices of ``realize(spec)`` are put in reverse Cuthill-McKee order,
    and the Laplacian rows, minus the last vertex in that order, are built as
    nonzeros straight from the neighbour lists: the degree on the diagonal,
    -1 for each edge.  Returns 0 iff the graph is disconnected.  Raises
    :class:`OutOfRange` above ``MAX_ORACLE_VERTICES`` vertices, before the
    graph is built.
    """
    if 2 * spec.n > MAX_ORACLE_VERTICES:
        raise OutOfRange(f"the oracle takes at most {MAX_ORACLE_VERTICES} vertices, got {2 * spec.n}")
    neighbours = realize(spec)
    order = _reverse_cuthill_mckee(neighbours)
    place = {v: p for p, v in enumerate(order)}
    last = len(order) - 1
    rows = []
    for v in order[:last]:
        row = {place[w]: -1 for w in neighbours[v]}
        row.pop(last, None)
        row[place[v]] = len(neighbours[v])
        rows.append(row)
    value = det_fraction_free(rows)
    if value < 0:
        raise InvariantViolation("Laplacian cofactor cannot be negative")
    return value

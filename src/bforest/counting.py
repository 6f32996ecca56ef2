"""The trace table of a bicirculant spec and the exact tree count.

``spectral_system`` builds one self-checking table of (K, c) trace factors;
``tree_count_closed`` counts through integer resultants against cyclotomic
factors, cheap even for n in the tens of thousands.  Its float cross-check,
``tree_count_chebyshev``, lives in the float layer, ``mahler``.  ``count_rows``
counts a run of orders over one table, built at the first order that needs it;
``extend_rows`` builds each other per-order table on those rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateSystem, HalfWithoutEvenN, NonIntegralResult, OutOfRange
from .graphs import ConnectionSpec, order_row, require_connected
from .polynomials import IntPoly, exact_divide, half_resultant, half_resultants, trace_polynomial

__all__ = [
    "SpectralSystem",
    "TreeCount",
    "closed_count_formal",
    "closed_counts",
    "count_rows",
    "extend_rows",
    "spectral_system",
    "tree_count_closed",
]


@dataclass(frozen=True)
class SpectralSystem:
    """The trace table of a spec: (K, c) pairs, K(x) in x = z + 1/z; independent of n.

    The count at group order n = stride * m is the prefactor
    n * s / (stride^2 q) times |Res(K(z + 1/z), z^m + c)|, a half-size
    resultant squared (``half_resultant``), per entry (K, c) of the table.
    The last, c = -1, is the base B = R L - G over x - 2, the image of its
    double root at z = 1; families 2-4 (stride 2) put the family F (c = +1) first.
    Near z = 1 the base is K(2) (z - 1)^2, so base''(1) = -2q makes K(2) = -q;
    construction checks that, a spoke and q > 0, ``dataclasses.replace`` too.
    Every path takes (m, prefactor) from ``order``; the exact count folds over
    the table, the float layer over its outer z-roots (``mahler.trace_roots``).
    """

    spokes: int
    degeneracy: int  # the positive constant q with base''(1) = -2q in z
    stride: int
    trace_factors: tuple[tuple[IntPoly, int], ...]

    def __post_init__(self):
        if self.spokes == 0:
            raise DegenerateSystem(
                "no spokes (q = 0): the two layers are never joined, so the graph is never connected"
            )
        reduced, q = self.trace_factors[-1][0], self.degeneracy
        if q <= 0 or reduced(2) != -q:
            raise DegenerateSystem(f"base K/(x - 2) is {reduced(2)} at x = 2, not -q for q = {q} > 0")

    @property
    def recurrence_bound(self) -> int:
        """2 * 3^D, D = sum of deg K over ``trace_factors``, bounds the order
        of the counts' minimal recurrence in m: each root adds 2 + c (rho^m +
        rho^-m), the sign is eps sigma^m, the prefactor linear in m."""
        return 2 * 3 ** sum(k.degree for k, _ in self.trace_factors)

    @property
    def symmetry_scale(self) -> int:
        """|product of the leads of the trace factors| rescaling the symmetry."""
        return abs(math.prod(k.lead for k, _ in self.trace_factors))

    def order(self, n: int) -> tuple[int, Fraction]:
        """(m, n s / (stride^2 q)): power and prefactor at group order n = stride * m.

        Raises :class:`OutOfRange` for n < 1 and :class:`HalfWithoutEvenN`
        for odd n in families 2-4.
        """
        if n < 1:
            raise OutOfRange(f"group order must be positive, got {n}")
        if n % self.stride != 0:
            raise HalfWithoutEvenN("families 2-4 are defined for even n only")
        return n // self.stride, Fraction(n * self.spokes, self.stride**2 * self.degeneracy)


@dataclass(frozen=True)
class TreeCount:
    tau: int


def _cosines(constant: int, sign: int, offsets) -> IntPoly:
    """constant + sign * sum of (z^d + z^-d) over ``offsets`` as a trace polynomial."""
    eta = [0] * (max(offsets, default=0) + 1)
    eta[0] = constant
    for d in offsets:
        eta[d] += sign
    return trace_polynomial(eta)


def spectral_system(spec: ConnectionSpec) -> SpectralSystem:
    """The exact trace table of a spec: (F, +1) for families 2-4, then (B / (x - 2), -1)."""
    s = spec.s
    right = _cosines(2 * spec.r + s, -1, spec.alphas)
    left = _cosines(2 * spec.t + s, -1, spec.betas)
    # C(1/z) C(z): s, plus z^d + z^-d per pair of spokes d apart
    gram = _cosines(s, 1, [abs(gl - gk) for i, gl in enumerate(spec.gammas) for gk in spec.gammas[:i]])

    base = right * left - gram
    if base.is_zero:
        raise DegenerateSystem(
            "base spectral polynomial R L - G vanishes identically (no spokes and a side "
            "without generators, or one spoke and no generators); such a graph is connected "
            "only with one spoke at n <= 2, where `bforest count` counts it"
        )
    table = [(exact_divide(base, IntPoly([-2, 1])), -1)]  # B(2) = s^2 - s^2 = 0
    stride = 1 if spec.family == 1 else 2
    if stride == 2:
        # the n/2 chords add 2 to a vertex factor at the odd frequencies
        half_r, half_t = IntPoly([2 * spec.half_r]), IntPoly([2 * spec.half_t])
        table.insert(0, ((right + half_r) * (left + half_t) - gram, 1))

    spread = sum((gl - gk) ** 2 for i, gl in enumerate(spec.gammas) for gk in spec.gammas[:i])
    q = s * sum(v * v for v in (*spec.alphas, *spec.betas)) + spread
    return SpectralSystem(s, q, stride, tuple(table))


def _fold(numerator: int, denominator: int, parts) -> TreeCount:
    """numerator / denominator * prod |fixed| * (prod a)^2 over the (fixed, a) of each trace factor."""
    witness = 1
    for fixed, a in parts:
        numerator *= abs(fixed)
        witness *= a
    tau, rem = divmod(numerator * witness**2, denominator)
    if rem:
        raise NonIntegralResult(f"closed-form count is not an integer: remainder {rem}")
    return TreeCount(tau)


def closed_count_formal(sys: SpectralSystem, n: int) -> TreeCount:
    """Closed-form tree count as a formal function of n.

    prefactor * prod |fixed| * (prod a)^2 over ``half_resultant`` of each
    trace factor.  No validity or connectivity check: this evaluates the
    counting formula itself at any order ``sys.order`` takes, a degenerate
    graph's included; ``closed_counts`` sweeps it over n = stride, 2 stride, ...
    """
    m, prefactor = sys.order(n)
    return _fold(*prefactor.as_integer_ratio(), [half_resultant(k, m, c) for k, c in sys.trace_factors])


def closed_counts(sys: SpectralSystem, count: int) -> list[TreeCount]:
    """``closed_count_formal(sys, stride * m)`` for m = 1..count, one sweep per trace
    factor; the prefactor is linear in m, so it is read once, at m = 1."""
    numerator, denominator = sys.order(sys.stride)[1].as_integer_ratio()
    columns = zip(*(half_resultants(k, c, count) for k, c in sys.trace_factors))
    return [_fold(m * numerator, denominator, parts) for m, parts in enumerate(columns, 1)]


def _count(table, spec: ConnectionSpec) -> TreeCount:
    """The count of ``spec``, or :class:`NotConnected`; ``table()`` gives its trace
    table and is called only for a connected spec whose base R L - G is not 0."""
    if require_connected(spec).r == spec.t == spec.s - 1 == 0:  # base R L - G = 0: connected
        return TreeCount(4 if spec.half_r and spec.half_t else 1)  # only as a tree or a 4-cycle
    return closed_count_formal(table(), spec.n)


def tree_count_closed(spec: ConnectionSpec) -> TreeCount:
    """Exact spanning-tree count via the resultant reformulation."""
    return _count(lambda: spectral_system(spec), spec)


def count_rows(spec: ConnectionSpec, n_values) -> list[dict]:
    """``order_row`` of ``{"tau": tau}`` per order over one trace table, built at
    the first order that needs it: none if no order is connected."""
    table = functools.cache(lambda: spectral_system(spec))
    return [order_row(lambda sp: {"tau": _count(table, sp).tau}, spec, n) for n in n_values]


def extend_rows(compute, spec: ConnectionSpec, counts: list[dict]) -> list[dict]:
    """Each count row's error row as it is, else ``order_row`` of ``compute(spec at n, tau)``."""
    return [r if "error" in r else order_row(lambda sp: compute(sp, r["tau"]), spec, r["n"]) for r in counts]

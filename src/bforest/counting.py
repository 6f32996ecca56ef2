"""Spectral polynomials of a bicirculant spec and exact tree counts.

The spanning-tree number is computed two independent ways:

* ``tree_count_closed`` -- exact, through integer resultants against
  cyclotomic factors (cheap even for n in the tens of thousands);
* ``tree_count_chebyshev`` -- a floating cross-check that evaluates the
  Chebyshev-product formula at high precision.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DegenerateSystem, HalfWithoutEvenN, NonIntegralResult, OutOfRange
from .graphs import ConnectionSpec, require_connected
from .polynomials import (
    IntPoly,
    exact_divide,
    half_resultant,
    roots_numeric,
    squarefree_layers,
    trace_polynomial,
)

__all__ = [
    "SpectralSystem",
    "TreeCount",
    "spectral_system",
    "tree_count_closed",
    "tree_count_chebyshev",
]


@dataclass(frozen=True)
class SpectralSystem:
    """Derived trace polynomials K(x), x = z + 1/z, of a spec; independent of n.

    The count at group order n = stride * m is the prefactor
    n * s / (stride^2 q) times |Res(K(z + 1/z), z^m + c)|, a half-size
    resultant squared (``half_resultant``), per entry (K, c) of ``factors``.
    The c = -1 entry is the base polynomial, whose double root at z = 1 is
    divided out.  Family 1 has stride 1 and the base alone; families 2-4
    have stride 2 and the family polynomial (c = +1) in front of the base.
    Every path takes (m, prefactor) from ``order``; the exact ones fold over
    ``trace_factors``, the float ones over its outer z-roots, ``trace_roots``.
    """

    spokes: int
    base_poly: IntPoly  # doubly degenerate at z=1: a simple root at x = 2
    family_poly: IntPoly  # equals base_poly for family 1
    degeneracy: int  # the positive constant q with base''(1) = -2q in z
    stride: int

    @property
    def factors(self) -> tuple[tuple[IntPoly, int], ...]:
        base = ((self.base_poly, -1),)
        return base if self.stride == 1 else ((self.family_poly, 1),) + base

    @property
    def growth_poly(self) -> IntPoly:
        """Product of the factor polynomials, whose Mahler measure is the growth base."""
        return functools.reduce(operator.mul, (poly for poly, _ in self.factors))

    @functools.cached_property
    def trace_factors(self) -> tuple[tuple[IntPoly, int], ...]:
        """``factors`` with the base reduced: (K, c), the base as K / (x - 2).

        The base's double root at z = 1 is the simple root x = 2 of its K;
        near z = 1 the base is K_red(2) (z - 1)^2, so base''(1) = -2q makes
        K_red(2) = -q.  Built once per system.
        """
        table = list(self.factors)
        reduced = exact_divide(table[-1][0], IntPoly([-2, 1]))
        q = self.degeneracy
        if q <= 0 or reduced(2) != -q:
            raise DegenerateSystem(f"base K/(x - 2) is {reduced(2)} at x = 2, not -q for q = {q} > 0")
        table[-1] = (reduced, -1)
        return tuple(table)

    @property
    def recurrence_bound(self) -> int:
        """2 * 3^D, D = sum of deg K over ``trace_factors``, bounds the order
        of the counts' minimal recurrence in m: each root adds 2 + c (rho^m +
        rho^-m), the sign is eps sigma^m, the prefactor linear in m."""
        return 2 * 3 ** sum(k.degree for k, _ in self.trace_factors)

    def order(self, n: int) -> tuple[int, Fraction]:
        """(m, n s / (stride^2 q)): power and prefactor at group order n = stride * m.

        Raises :class:`OutOfRange` for n < 1 and :class:`HalfWithoutEvenN`
        for odd n in families 2-4.
        """
        self.trace_factors  # raises DegenerateSystem unless q > 0, before q divides
        if n < 1:
            raise OutOfRange(f"group order must be positive, got {n}")
        if n % self.stride != 0:
            raise HalfWithoutEvenN("families 2-4 are defined for even n only")
        return n // self.stride, Fraction(n * self.spokes, self.stride**2 * self.degeneracy)

    def trace_roots(self, digits: int) -> list[tuple[IntPoly, int, list]]:
        """(K, c, [(rho, s, radius)]) per entry of ``trace_factors``.

        Each root x of K (a constant K has none), found with multiplicity by
        mpmath's ``polyroots`` on each square-free layer, as its outer z-root:
        rho + 1/rho = x, |rho| >= 1 and s = rho - 1/rho, taken as
        +-sqrt((x - 2)(x + 2)) to keep its relative accuracy near x = +-2.
        """
        table = []
        with mpmath.workdps(digits):
            for k, c in self.trace_factors:
                roots = []
                for layer in squarefree_layers(k):
                    for x, radius in roots_numeric(layer, digits=digits):
                        s = mpmath.sqrt((x - 2) * (x + 2))
                        if abs(x - s) > abs(x + s):
                            s = -s
                        roots.append(((x + s) / 2, s, radius))
                table.append((k, c, roots))
        return table


@dataclass(frozen=True)
class TreeCount:
    tau: int


def _spoke_gram(gammas) -> IntPoly:
    """C(1/z) C(z) as a trace polynomial: s, plus z^d + z^-d per pair of spokes d apart."""
    eta = [0] * (max(gammas) - min(gammas) + 1 if gammas else 1)
    eta[0] = len(gammas)
    for i, gl in enumerate(gammas):
        for gk in gammas[:i]:
            eta[abs(gl - gk)] += 1
    return trace_polynomial(eta)


def _vertex_factor(count: int, spokes: int, generators) -> IntPoly:
    top = max(generators) if generators else 0
    eta = [0] * (top + 1)
    eta[0] = 2 * count + spokes
    for g in generators:
        eta[g] -= 1
    return trace_polynomial(eta)


def spectral_system(spec: ConnectionSpec) -> SpectralSystem:
    """Expand the exact spectral polynomials of a connection spec in x = z + 1/z."""
    s = spec.s
    right = _vertex_factor(spec.r, s, spec.alphas)
    left = _vertex_factor(spec.t, s, spec.betas)
    gram = _spoke_gram(spec.gammas)

    base = right * left - gram
    if base.is_zero:
        raise DegenerateSystem(
            "base spectral polynomial vanishes identically; "
            "the spec has no cycle structure to count"
        )
    stride = 1 if spec.family == 1 else 2
    # the n/2 chords add 2 to a vertex factor at the odd frequencies
    half_r, half_t = IntPoly([2 * spec.half_r]), IntPoly([2 * spec.half_t])
    family_poly = base if stride == 1 else (right + half_r) * (left + half_t) - gram

    q = (
        s * sum(a * a for a in spec.alphas)
        + s * sum(b * b for b in spec.betas)
        + sum(
            (spec.gammas[i] - spec.gammas[j]) ** 2
            for j in range(s)
            for i in range(j + 1, s)
        )
    )
    return SpectralSystem(s, base, family_poly, q, stride)


def closed_count_formal(sys: SpectralSystem, n: int) -> TreeCount:
    """Closed-form tree count as a formal function of n.

    prefactor * prod |fixed| * (prod a)^2 over ``half_resultant`` of each
    trace factor.  No validity or connectivity check: this evaluates
    the counting formula itself, which generating-function work needs for small n.
    """
    m, prefactor = sys.order(n)
    parts = [half_resultant(k, m, c) for k, c in sys.trace_factors]
    fixed, witness = math.prod(abs(f) for f, _ in parts), math.prod(a for _, a in parts)
    tau, rem = divmod(prefactor.numerator * fixed * witness**2, prefactor.denominator)
    if rem:
        raise NonIntegralResult(f"closed-form count is not an integer: remainder {rem}")
    return TreeCount(tau)


def tree_count_closed(spec: ConnectionSpec) -> TreeCount:
    """Exact spanning-tree count via the resultant reformulation."""
    return closed_count_formal(spectral_system(require_connected(spec)), spec.n)


def tree_count_chebyshev(spec: ConnectionSpec, digits: int = 64):
    """High-precision float evaluation of the Chebyshev product formula.

    The prefactor times |lead K|^m per trace factor (K, c) and
    |2 T_m(x/2) + 2c| = |rho^m + rho^-m + 2c| per outer root rho.  Cross-checks
    the exact path; returns ``(value, relative_error_bound)``.
    """
    sys = spectral_system(require_connected(spec))
    m, prefactor = sys.order(spec.n)

    def evaluate(dps):
        with mpmath.workdps(dps):
            value = mpmath.mpf(1)
            for k, c, roots in sys.trace_roots(dps):
                value *= mpmath.mpf(abs(k.lead)) ** m
                for rho, _, _ in roots:
                    value *= abs(rho**m + rho**-m + 2 * c)
            return prefactor * value

    value = evaluate(digits)
    check = evaluate(digits + 16)
    with mpmath.workdps(digits + 16):
        rel_error = float(abs(value - check) / abs(check)) if check != 0 else 0.0
    return value, rel_error

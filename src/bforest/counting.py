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

import mpmath

from .errors import DegenerateSystem, HalfWithoutEvenN, NonIntegralResult, NotConnected, OutOfRange
from .graphs import ConnectionSpec, is_connected
from .polynomials import (
    IntPoly,
    abs_resultant_with_power,
    exact_divide,
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
    n * s / (stride^2 q) times one resultant |Res(K(z + 1/z), z^m + c)| per
    entry (K, c) of ``factors``.  The c = -1 entry is the base polynomial,
    whose double root at z = 1 is divided out.  Family 1 has stride 1 and the
    base alone; families 2-4 have stride 2 and the family polynomial (c = +1)
    in front of the base.  Both counting paths and the growth measure fold
    over ``trace_factors``; the float ones over its roots, ``trace_roots``.
    """

    family: int
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

    def trace_roots(self, digits: int) -> list[tuple[IntPoly, int, list]]:
        """(K, c, [(x, radius)]) per entry of ``trace_factors``.

        The roots x of K with their multiplicities, found by mpmath's
        Durand-Kerner ``polyroots`` at ``digits`` on each square-free layer; a
        constant K has none.
        """
        return [
            (k, c, [r for layer in squarefree_layers(k) for r in roots_numeric(layer, digits=digits)])
            for k, c in self.trace_factors
        ]


@dataclass(frozen=True)
class TreeCount:
    tau: int
    method: str


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
    return SpectralSystem(spec.family, s, base, family_poly, q, stride)


def _power(sys: SpectralSystem, n: int) -> int:
    """m = n / stride, the power the count and the prediction at group order n take."""
    if n < 1:
        raise OutOfRange(f"group order must be positive, got {n}")
    if n % sys.stride != 0:
        raise HalfWithoutEvenN("families 2-4 are defined for even n only")
    return n // sys.stride


def closed_count_formal(sys: SpectralSystem, n: int) -> TreeCount:
    """Closed-form tree count as a formal function of n.

    No validity or connectivity check: this evaluates the counting formula
    itself, which is what generating-function work needs for small n.
    """
    table = sys.trace_factors
    m = _power(sys, n)
    product = n * sys.spokes * math.prod(abs_resultant_with_power(k, m, c) for k, c in table)
    tau, rem = divmod(product, sys.stride**2 * sys.degeneracy)
    if rem:
        raise NonIntegralResult(f"closed-form count is not an integer: remainder {rem}")
    return TreeCount(tau, "resultant-exact")


def tree_count_closed(spec: ConnectionSpec) -> TreeCount:
    """Exact spanning-tree count via the resultant reformulation."""
    if not is_connected(spec):
        raise NotConnected(f"spec {spec.to_json()} is not connected")
    return closed_count_formal(spectral_system(spec), spec.n)


def _chebyshev_value(w, n):
    """T_n at a complex point, via z + 1/z = 2w with |z| >= 1."""
    z = w + mpmath.sqrt(w * w - 1)
    if abs(z) < 1:
        z = 1 / z
    zn = z**n
    return (zn + 1 / zn) / 2


def tree_count_chebyshev(spec: ConnectionSpec, digits: int = 64):
    """High-precision float evaluation of the Chebyshev product formula.

    Cross-checks the exact path; returns ``(value, relative_error_bound)``.
    """
    if not is_connected(spec):
        raise NotConnected(f"spec {spec.to_json()} is not connected")
    sys = spectral_system(spec)

    def evaluate(dps):
        m = spec.n // sys.stride
        with mpmath.workdps(dps):
            value = mpmath.mpf(spec.n * sys.spokes) / (sys.stride**2 * sys.degeneracy)
            for k, c, roots in sys.trace_roots(dps):
                value *= mpmath.mpf(abs(k.lead)) ** m
                for x, _ in roots:
                    value *= abs(2 * _chebyshev_value(mpmath.mpc(x) / 2, m) + 2 * c)
            return value

    value = evaluate(digits)
    check = evaluate(digits + 16)
    with mpmath.workdps(digits + 16):
        rel_error = float(abs(value - check) / abs(check)) if check != 0 else 0.0
    return value, rel_error

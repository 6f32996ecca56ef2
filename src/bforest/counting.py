"""Spectral polynomials of a bicirculant spec and exact tree counts.

The spanning-tree number is computed two independent ways:

* ``tree_count_closed`` -- exact, through integer resultants against
  cyclotomic factors (cheap even for n in the tens of thousands);
* ``tree_count_chebyshev`` -- a floating cross-check that evaluates the
  Chebyshev-product formula at high precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .errors import DegenerateSystem, NonIntegralResult, NotConnected
from .graphs import ConnectionSpec, is_connected
from .polynomials import (
    IntPoly,
    SymmetricLaurentPoly,
    abs_resultant_with_power,
    chebyshev_transform,
    exact_divide,
    roots_numeric,
)

__all__ = [
    "SpectralSystem",
    "TreeCount",
    "spectral_system",
    "degeneracy_report",
    "tree_count_closed",
    "tree_count_chebyshev",
]


@dataclass(frozen=True)
class SpectralSystem:
    """Derived polynomials of a spec; independent of the group order n."""

    family: int
    spokes: int
    right_factor: SymmetricLaurentPoly  # (2r+s) - sum (z^a + z^-a)
    left_factor: SymmetricLaurentPoly  # (2t+s) - sum (z^b + z^-b)
    spoke_poly: IntPoly  # sum z^g
    base_poly: SymmetricLaurentPoly  # doubly degenerate at z=1
    family_poly: SymmetricLaurentPoly  # equals base_poly for family 1
    degeneracy: int  # the positive constant q with base''(1) = -2q

    @property
    def degree(self) -> int:
        return self.base_poly.degree

    @property
    def base_lead(self) -> int:
        return self.base_poly.lead

    @property
    def family_lead(self) -> int:
        return self.family_poly.lead

    def reduced_base(self) -> IntPoly:
        """z^k * base(z) with the (z-1)^2 degeneracy stripped, over Z."""
        return exact_divide(self.base_poly.to_poly(), IntPoly([1, -2, 1]))


@dataclass(frozen=True)
class TreeCount:
    tau: int
    method: str
    parts: dict = field(default_factory=dict)


def _spoke_gram(gammas) -> SymmetricLaurentPoly:
    """C(1/z) C(z) as a palindromic Laurent polynomial."""
    s = len(gammas)
    counts: dict[int, int] = {}
    for gl in gammas:
        for gk in gammas:
            d = abs(gl - gk)
            counts[d] = counts.get(d, 0) + 1
    top = max(counts) if counts else 0
    eta = [0] * (top + 1)
    eta[0] = s  # the s diagonal terms, counted once each
    for d, c in counts.items():
        if d > 0:
            eta[d] = c // 2  # each +-d pair was counted twice
    return SymmetricLaurentPoly(eta)


def _vertex_factor(count: int, spokes: int, generators) -> SymmetricLaurentPoly:
    top = max(generators) if generators else 0
    eta = [0] * (top + 1)
    eta[0] = 2 * count + spokes
    for g in generators:
        eta[g] -= 1
    return SymmetricLaurentPoly(eta)


def spectral_system(spec: ConnectionSpec) -> SpectralSystem:
    """Expand the exact spectral polynomials of a connection spec."""
    s = spec.s
    right = _vertex_factor(spec.r, s, spec.alphas)
    left = _vertex_factor(spec.t, s, spec.betas)
    gram = _spoke_gram(spec.gammas)

    base = right * left - gram
    family = spec.family
    if family == 1:
        family_poly = base
    elif family == 2:
        family_poly = (right + 2) * left - gram
    elif family == 3:
        family_poly = right * (left + 2) - gram
    else:
        family_poly = (right + 2) * (left + 2) - gram

    if base.is_zero:
        raise DegenerateSystem(
            "base spectral polynomial vanishes identically; "
            "the spec has no cycle structure to count"
        )

    q = (
        s * sum(a * a for a in spec.alphas)
        + s * sum(b * b for b in spec.betas)
        + sum(
            (spec.gammas[i] - spec.gammas[j]) ** 2
            for j in range(s)
            for i in range(j + 1, s)
        )
    )
    spoke_poly = IntPoly(
        [1 if g in spec.gammas else 0 for g in range(max(spec.gammas) + 1)]
        if spec.gammas
        else []
    )
    return SpectralSystem(family, s, right, left, spoke_poly, base, family_poly, q)


def degeneracy_report(sys: SpectralSystem) -> dict:
    """Exact value/derivatives of the base polynomial at z=1."""
    report = {
        "value_at_1": sys.base_poly.value_at_one(),
        "derivative_at_1": sys.base_poly.derivative_at_one(),
        "second_derivative_at_1": sys.base_poly.second_derivative_at_one(),
        "q": sys.degeneracy,
    }
    if report["second_derivative_at_1"] != -2 * sys.degeneracy:
        raise DegenerateSystem(f"base''(1) contradicts q = {sys.degeneracy}")
    return report


def closed_count_formal(sys: SpectralSystem, n: int) -> TreeCount:
    """Closed-form tree count as a formal function of n.

    No validity or connectivity check: this evaluates the counting formula
    itself, which is what generating-function work needs for small n.
    """
    if sys.degeneracy == 0:
        raise DegenerateSystem("degeneracy constant q=0: formula undefined")
    reduced = sys.reduced_base()
    boundary = abs(reduced(1))
    if boundary == 0:
        raise DegenerateSystem("z=1 root of multiplicity > 2 contradicts q > 0")
    if sys.family == 1:
        factor = Fraction(abs_resultant_with_power(reduced, n, -1), boundary)
        tau = Fraction(n * sys.spokes) * factor
        parts = {"cyclotomic_resultant": factor}
    else:
        if n % 2 != 0:
            raise ValueError("families 2-4 are defined for even n only")
        half = n // 2
        odd_part = abs_resultant_with_power(sys.family_poly.to_poly(), half, 1)
        even_part = Fraction(abs_resultant_with_power(reduced, half, -1), boundary)
        tau = Fraction(n * sys.spokes, 4) * odd_part * even_part
        parts = {"odd_frequency_resultant": odd_part, "even_frequency_resultant": even_part}
    if tau.denominator != 1:
        raise NonIntegralResult(f"closed-form count is not an integer: {tau}")
    return TreeCount(int(tau), "resultant-exact", parts)


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
    if sys.degeneracy == 0:
        raise DegenerateSystem("degeneracy constant q=0: formula undefined")

    def evaluate(dps):
        with mpmath.workdps(dps):
            n = spec.n
            base_transform = chebyshev_transform(sys.base_poly)
            deflated = exact_divide(base_transform, IntPoly([-1, 1]))
            if sys.family == 1:
                value = mpmath.mpf(n * sys.spokes) / sys.degeneracy
                value *= mpmath.mpf(abs(sys.base_lead)) ** n
                if deflated.degree >= 1:
                    for w, _, _ in roots_numeric(deflated, digits=dps):
                        value *= abs(2 * _chebyshev_value(mpmath.mpc(w), n) - 2)
                elif deflated.degree == 0:
                    # constant transform factor: |2^(k-1) eta_k| absorbed in lead power
                    pass
            else:
                half = n // 2
                value = mpmath.mpf(n * sys.spokes) / (4 * sys.degeneracy)
                value *= mpmath.mpf(abs(sys.base_lead * sys.family_lead)) ** half
                family_transform = chebyshev_transform(sys.family_poly)
                if family_transform.degree >= 1:
                    for v, _, _ in roots_numeric(family_transform, digits=dps):
                        value *= abs(2 * _chebyshev_value(mpmath.mpc(v), half) + 2)
                # degree-0 family polynomial: its |lead|^(n/2) factor above
                # already carries the whole odd-frequency product
                if deflated.degree >= 1:
                    for w, _, _ in roots_numeric(deflated, digits=dps):
                        value *= abs(2 * _chebyshev_value(mpmath.mpc(w), half) - 2)
            return value

    value = evaluate(digits)
    check = evaluate(digits + 16)
    with mpmath.workdps(digits + 16):
        rel_error = float(abs(value - check) / abs(check)) if check != 0 else 0.0
    return value, rel_error

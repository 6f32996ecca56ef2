"""The float layer: roots, Mahler measures and tree-count asymptotics.

This is the one module that imports mpmath; the exact core needs only the
standard library, and ``bforest`` loads this module on first use
of one of its names.  ``roots_numeric`` finds the roots of a square-free
integer polynomial, and ``trace_roots`` maps those of a system's trace
factors to their outer z-roots.  ``tree_count_chebyshev`` folds the
Chebyshev product over them, a float cross-check of the exact count.

Tree counts grow geometrically; the growth base is the Mahler measure
M(P) = |lead| prod max(1, |z|) of the product P(z) = K(z + 1/z) of the
spectral system's factor polynomials.  It is continuous in the roots, so no
root needs to be classified against the unit circle.  ``growth_base`` takes
it from the outer roots of the trace factors, the same roots the Chebyshev
cross-check uses: a pair (z, 1/z) contributes max(|z|, 1/|z|).
``mahler_quadrature`` is the independent check, the midpoint rule for the
log-integral of |K(2 cos 2 pi t)| over the circle, per trace factor K and
summed without sampling: the midpoints are the roots of z^N + 1, so each sum
is a resultant, ``half_resultant(K, N, +1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from . import _FLOAT_NAMES
from .counting import SpectralSystem, count_rows, extend_rows, spectral_system
from .errors import InexactDivision, NonConvergence, ZeroPolynomial
from .graphs import ConnectionSpec, require_connected
from .polynomials import IntPoly, exact_divide, half_resultant, squarefree_layers

__all__ = list(_FLOAT_NAMES)


ROOT_STEPS = 400  # Durand-Kerner sweeps before NonConvergence
QUADRATURE_POINTS = 1 << 20  # the midpoint grid mahler_quadrature stands for


def roots_numeric(f: IntPoly, digits: int = 64):
    """All complex roots by mpmath's Durand-Kerner ``polyroots``.

    Returns ``(root, radius)`` pairs: the root a full-precision ``mpc``,
    ``radius`` = deg |f/f'| there, which bounds its distance to a true root
    up to the root's own rounding at ``digits + 10`` (callers add that).
    The iteration runs 34 bits above that precision, so its rounding stays
    below the step it stops at even for roots in the thousands.  Repeated
    roots converge only linearly: split into ``squarefree_layers`` first.
    """
    if f.is_zero or f.degree < 1:
        raise ZeroPolynomial("root finding needs degree >= 1")
    deg, coeffs = f.degree, f.coeffs[::-1]
    with mpmath.workdps(digits + 10):
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=ROOT_STEPS, cleanup=False, extraprec=34)
        except mpmath.libmp.NoConvergence as exc:
            raise NonConvergence(
                f"Durand-Kerner polyroots did not settle in {ROOT_STEPS} steps "
                f"on degree {deg} at {digits} digits"
            ) from exc
        results = []
        for x in roots:
            value, slope = mpmath.polyval(coeffs, x, derivative=True)
            if slope != 0:
                radius = deg * abs(value / slope)
            else:
                radius = deg * (abs(value) / abs(f.lead)) ** (mpmath.mpf(1) / deg)
            results.append((x, float(radius)))
        return results


def trace_roots(sys: SpectralSystem, digits: int) -> list[tuple[IntPoly, int, list]]:
    """(K, c, [(rho, s, radius)]) per entry of ``sys.trace_factors``.

    Each root x of K (a constant K has none), found with multiplicity by
    mpmath's ``polyroots`` on each square-free layer, as its outer z-root:
    rho + 1/rho = x, |rho| >= 1 and s = rho - 1/rho, taken as
    +-sqrt((x - 2)(x + 2)) to keep its relative accuracy near x = +-2.
    """
    table = []
    with mpmath.workdps(digits):
        for k, c in sys.trace_factors:
            roots = []
            for layer in squarefree_layers(k):
                for x, radius in roots_numeric(layer, digits=digits):
                    s = mpmath.sqrt((x - 2) * (x + 2))
                    if abs(x - s) > abs(x + s):
                        s = -s
                    roots.append(((x + s) / 2, s, radius))
            table.append((k, c, roots))
    return table


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
            for k, c, roots in trace_roots(sys, dps):
                value *= mpmath.mpf(abs(k.lead)) ** m
                for rho, _, _ in roots:
                    value *= abs(rho**m + rho**-m + 2 * c)
            return prefactor * value

    value = evaluate(digits)
    check = evaluate(digits + 16)
    with mpmath.workdps(digits + 16):
        rel_error = float(abs(value - check) / abs(check)) if check != 0 else 0.0
    return value, rel_error


@dataclass(frozen=True)
class MahlerEstimate:
    value: float
    error_bound: float


def _trace_measure(sys: SpectralSystem, digits: int):
    """(M, relative error bound) as mpf values, from ``trace_roots``.

    M = prod |lc K| prod |rho| over the outer roots rho.  A root x adds its
    rounding, 10^(1 - digits), and radius / |s|, the first-order change of
    log |rho| as x moves (s = rho - 1/rho); near the branch points x = +-2,
    where |s|^2 <= 8 radius, it adds 2 sqrt(radius) instead.
    """
    with mpmath.workdps(digits):
        value = mpmath.mpf(1)
        rel_error = mpmath.mpf(0)
        for k, _, roots in trace_roots(sys, digits):
            value *= abs(k.lead)
            for rho, s, radius in roots:
                value *= abs(rho)
                near = abs(s) ** 2 <= 8 * radius
                rel_error += mpmath.mpf(10) ** (1 - digits) + (
                    2 * mpmath.sqrt(radius) if near else radius / abs(s)
                )
        return value, rel_error


def _midpoint_mean(k: IntPoly, n: int) -> float:
    """Mean of log|K(2 cos 2 pi t)| over the n midpoints t = (j + 1/2) / n, n even.

    They lift to the roots of z^n + 1, so the sum is log|Res(z^d K(z + 1/z),
    z^n + 1)| = 2 log a, a = ``half_resultant(K, n, +1)[1]``.
    """
    a = half_resultant(k, n, 1)[1]
    if a == 0:
        raise NonConvergence(f"a root lies on a midpoint of the {n}-point grid")
    return 2 * math.log(a) / n


def mahler_quadrature(*factors: IntPoly) -> MahlerEstimate:
    """exp of the midpoint rule for the mean of log|P| over the unit circle.

    P(z) is the product of the factors K(z + 1/z), which is K(2 cos 2 pi t) at
    z = exp(2 pi i t).  The rule stands for the grid of N = QUADRATURE_POINTS
    midpoints, and samples nothing.  The circle factors x -+ 2 and V_2^i
    (x, x^2 - 2, ..., degree <= 256) are divided off: their lifted roots are
    2^a-th roots of unity, a <= 10, so z^N = 1 and each degree adds 2 ln 2 / N.
    Every other root of unity adds exactly 0 on these grids and roots off the
    circle converge geometrically, so the rest's exact mean on 2048 points
    (``_midpoint_mean``) stands for the N-point grid's.  The error bound is
    the grid's distance from its half, the rest's from 1024 to 2048 points,
    which shows where it has not converged, and 4 / N.
    """
    coarse = fine = peeled = 0
    for rest in factors:
        if rest.is_zero:
            raise NonConvergence("the zero polynomial vanishes on every grid")
        circle, lucas = [IntPoly([-2, 1]), IntPoly([2, 1])], IntPoly([0, 1])
        while lucas.degree <= min(rest.degree, 256):
            circle, lucas = circle + [lucas], lucas * lucas - IntPoly([2])
        for factor in circle:
            while rest.degree >= factor.degree:
                try:
                    rest = exact_divide(rest, factor)
                except InexactDivision:
                    break
                peeled += factor.degree
        coarse += _midpoint_mean(rest, 1024)
        fine += _midpoint_mean(rest, 2048)
    share = peeled * math.log(4) / QUADRATURE_POINTS
    value = math.exp(fine + share)
    return MahlerEstimate(value, value * (share + abs(fine - coarse) + 4.0 / QUADRATURE_POINTS))


def growth_base(spec: ConnectionSpec, digits: int = 64) -> MahlerEstimate:
    """Mahler measure governing the growth of the tree counts."""
    return _growth_report(spec, [], digits)[1]


def _growth_report(spec: ConnectionSpec, counts: list[dict], digits: int):
    """(system, growth base, convergence rows) from one system and one root table: each
    count row gains the prediction (n s / (stride^2 q)) M^m at n = stride * m, ratio and deviation."""
    sys = spectral_system(spec)
    with mpmath.workdps(digits):
        measure, rel_error = _trace_measure(sys, digits)

        def convergence(at_n: ConnectionSpec, tau: int) -> dict:
            m, prefactor = sys.order(at_n.n)
            prediction = prefactor * measure**m
            ratio = prediction / mpmath.mpf(tau)
            prediction = float(prediction)  # inf past the float range, printed as null
            return {
                "tau": tau,
                "prediction": prediction if prediction < math.inf else None,
                "ratio": float(ratio),
                "deviation": float(abs(ratio - 1)),
            }

        rows = extend_rows(convergence, spec, counts)
    return sys, MahlerEstimate(float(measure), float(measure * rel_error)), rows


def convergence_report(spec: ConnectionSpec, n_list, digits: int = 64) -> list[dict]:
    """Table of (n, exact tau, asymptotic prediction, ratio, |ratio-1|).

    The rows extend ``count_rows``, as every per-order table does, so an order
    without a count (an invalid spec there, a disconnected graph) keeps its
    error row; a spec without a trace table raises :class:`DegenerateSystem`.
    """
    return _growth_report(spec, count_rows(spec, n_list), digits)[2]

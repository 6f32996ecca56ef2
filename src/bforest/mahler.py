"""Mahler measures of the spectral polynomials and tree-count asymptotics.

Tree counts grow geometrically; the growth base is the Mahler measure
M(P) = |lead| prod max(1, |z|) of the product P(z) = K(z + 1/z) of the
spectral system's factor polynomials.  It is continuous in the roots, so no
root needs to be classified against the unit circle.  ``growth_base`` takes
it from the outer roots of the trace factors, the same roots the Chebyshev
cross-check uses: a pair (z, 1/z) contributes max(|z|, 1/|z|).
Two independent checks remain: ``mahler_root_product`` over the roots z of
a polynomial in z, and ``mahler_quadrature``, the defining log-integral of
|K(2 cos 2 pi t)| over the circle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import mpmath
import numpy as np

from .counting import SpectralSystem, closed_count_formal, spectral_system
from .errors import NonConvergence
from .graphs import ConnectionSpec, order_row, require_connected
from .polynomials import IntPoly, _cosine_coefficients, roots_numeric, squarefree_layers

__all__ = [
    "MahlerEstimate",
    "mahler_root_product",
    "mahler_quadrature",
    "growth_base",
    "asymptotic_prediction",
    "convergence_report",
]


@dataclass(frozen=True)
class MahlerEstimate:
    value: float
    error_bound: float


def mahler_root_product(poly: IntPoly, digits: int = 64) -> MahlerEstimate:
    """|lead| prod max(1, |z|) over the roots z of ``poly``, a polynomial in z.

    The roots are found per square-free layer.  Each root adds its rounding,
    10^(1 - digits), and radius / max(1, |z|) to the relative error bound, as
    max(1, |z|) is 1-Lipschitz.
    """
    roots = [r for layer in squarefree_layers(poly) for r in roots_numeric(layer, digits=digits)]
    with mpmath.workdps(digits):
        value = mpmath.mpf(abs(poly.lead))
        rel_error = mpmath.mpf(0)
        for root, radius in roots:
            modulus = max(mpmath.mpf(1), abs(root))
            value *= modulus
            rel_error += mpmath.mpf(10) ** (1 - digits) + radius / modulus
        return MahlerEstimate(float(value), float(value * rel_error))


def _trace_measure(sys: SpectralSystem, digits: int):
    """(M, relative error bound) as mpf values, from ``sys.trace_roots``.

    M = prod |lc K| prod |rho| over the outer roots rho.  A root x adds its
    rounding, 10^(1 - digits), and radius / |s|, the first-order change of
    log |rho| as x moves (s = rho - 1/rho); near the branch points x = +-2,
    where |s|^2 <= 8 radius, it adds 2 sqrt(radius) instead.
    """
    with mpmath.workdps(digits):
        value = mpmath.mpf(1)
        rel_error = mpmath.mpf(0)
        for k, _, roots in sys.trace_roots(digits):
            value *= abs(k.lead)
            for rho, s, radius in roots:
                value *= abs(rho)
                near = abs(s) ** 2 <= 8 * radius
                rel_error += mpmath.mpf(10) ** (1 - digits) + (
                    2 * mpmath.sqrt(radius) if near else radius / abs(s)
                )
        return value, rel_error


def _abs_on_circle(k: IntPoly, t: np.ndarray) -> np.ndarray:
    """|K(2 cos 2 pi t)|, summed as eta_0 + sum_j 2 eta_j cos(2 pi j t)."""
    eta = _cosine_coefficients(k) or [0]
    total = np.full_like(t, float(eta[0]))
    for j, c in enumerate(eta[1:], start=1):
        total += 2.0 * c * np.cos(2 * np.pi * j * t)
    return np.abs(total)


def mahler_quadrature(k: IntPoly, subdivisions: int = 1 << 20) -> MahlerEstimate:
    """exp of the mean of log|P| over the unit circle, by midpoint rule.

    ``k`` is a trace polynomial: P(z) = K(z + 1/z), which is K(2 cos 2 pi t)
    at z = exp(2 pi i t).

    The midpoint grid never samples t=0, which keeps the integrable log
    singularity of degenerate polynomials off the nodes; any other
    accidental zero hit is excluded from the sum (a measure-zero window).
    The difference from the grid of half the size is the error estimate.
    """
    if subdivisions < 8:
        raise ValueError("need at least 8 subdivisions")
    if subdivisions < 2048:
        raise NonConvergence("subdivision cap too small for an error estimate")
    # the largest grid 1024 * 2^j within the cap, then its half, whose arrays
    # are the smaller ones to hold next to the other grid's
    top = 1024 << ((subdivisions // 1024).bit_length() - 1)
    estimates = []
    for n in (top, top // 2):
        t = (np.arange(n) + 0.5) / n
        values = _abs_on_circle(k, t)
        good = values > 1e-300
        if not np.any(good):
            raise NonConvergence("polynomial vanishes on the whole sample grid")
        estimates.append(float(np.sum(np.log(values[good])) / n))
    last, prev = estimates
    error = abs(last - prev)
    value = float(np.exp(last))
    return MahlerEstimate(value, value * (error + 4.0 / subdivisions))


def growth_base(spec: ConnectionSpec, digits: int = 64) -> MahlerEstimate:
    """Mahler measure governing the growth of the tree counts."""
    value, rel_error = _trace_measure(spectral_system(spec), digits)
    return MahlerEstimate(float(value), float(value * rel_error))


def asymptotic_prediction(spec: ConnectionSpec, n: int, digits: int = 64):
    """Leading-order prediction of the tree count at order n.

    The count at n = stride * m grows like (n s / (stride^2 q)) M^m, with M
    the measure of the product of the factor polynomials.  The spec moves to
    order n by ``replace(spec, n=n)``, so an order without a count raises as
    its convergence row reports: an invalid spec at n (n < 1, a generator
    at or past n/2, odd n for families 2-4) or a disconnected graph.
    """
    sys = spectral_system(require_connected(replace(spec, n=n)))
    m, prefactor = sys.order(n)
    with mpmath.workdps(digits):
        return prefactor * _trace_measure(sys, digits)[0] ** m


def _growth_report(spec: ConnectionSpec, n_list, digits: int):
    """(system, growth base, convergence rows) from one system and one root table."""
    sys = spectral_system(spec)
    with mpmath.workdps(digits):
        measure, rel_error = _trace_measure(sys, digits)

        def convergence(at_n: ConnectionSpec) -> dict:
            tau = closed_count_formal(sys, require_connected(at_n).n).tau
            m, prefactor = sys.order(at_n.n)
            prediction = prefactor * measure**m
            ratio = prediction / mpmath.mpf(tau)
            return {
                "tau": tau,
                "prediction": float(prediction),
                "ratio": float(ratio),
                "deviation": float(abs(ratio - 1)),
            }

        rows = [order_row(convergence, spec, n) for n in n_list]
    return sys, MahlerEstimate(float(measure), float(measure * rel_error)), rows


def convergence_report(spec: ConnectionSpec, n_list, digits: int = 64) -> list[dict]:
    """Table of (n, exact tau, asymptotic prediction, ratio, |ratio-1|).

    Rows come from ``graphs.order_row``, as every per-order table does: an
    order where ``bforest count`` has an error row, an invalid spec at that
    order or a disconnected graph, gets the same error row here.
    """
    return _growth_report(spec, n_list, digits)[2]

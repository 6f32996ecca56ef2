"""Mahler measures of the spectral polynomials and tree-count asymptotics.

Tree counts grow geometrically; the growth base is the Mahler measure of
the product of the spectral system's factor polynomials.  The measure is
computed two independent ways: from the root moduli and from the defining
log-integral over the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from .counting import SpectralSystem, closed_count_formal, spectral_system
from .errors import NonConvergence, NotConnected, UnitCircleAmbiguity
from .graphs import ConnectionSpec, is_connected
from .polynomials import (
    IntPoly,
    SymmetricLaurentPoly,
    exact_divide,
    is_palindromic,
    roots_numeric,
    squarefree_layers,
)

__all__ = [
    "MahlerEstimate",
    "mahler_root_product",
    "mahler_quadrature",
    "growth_base",
    "asymptotic_prediction",
    "convergence_report",
]

MAX_DIGITS = 256  # precision cap for the measure and the CLI


@dataclass(frozen=True)
class MahlerEstimate:
    value: float
    method: str
    error_bound: float
    label: str


def _root_product(p, digits: int):
    """(M, relative error bound) as mpf values: |lead| times the root moduli > 1.

    Roots at z = +-1 lie on the circle and contribute 1, so they are divided
    out exactly first; the rest is split into square-free layers, on which
    Aberth iteration converges.  Roots flagged as on-circle contribute 1
    too; that is only safe when they genuinely lie on the circle, so for
    non-palindromic input the precision is doubled (up to 256 digits)
    before giving up with :class:`UnitCircleAmbiguity`.
    """
    poly = p.to_poly() if isinstance(p, SymmetricLaurentPoly) else p
    for root in (1, -1):
        while poly.degree >= 1 and poly(root) == 0:
            poly = exact_divide(poly, IntPoly([-root, 1]))
    layers = squarefree_layers(poly)
    working = digits
    while True:
        roots = [r for layer in layers for r in roots_numeric(layer, digits=working)]
        flagged = [r for r, _, on in roots if on]
        if not flagged or is_palindromic(poly):
            break
        if working * 2 > MAX_DIGITS:
            raise UnitCircleAmbiguity(f"cannot classify roots {flagged} against the unit circle")
        working *= 2

    with mpmath.workdps(working):
        value = mpmath.mpf(abs(poly.lead))
        rel_error = mpmath.mpf(0)
        for root, radius, on_circle in roots:
            modulus = abs(mpmath.mpc(root))
            if not on_circle and modulus > 1:
                value *= modulus
                rel_error += mpmath.mpf(radius) / modulus
        return value, rel_error


def mahler_root_product(p, digits: int = 64) -> MahlerEstimate:
    """|lead| times the product of root moduli outside the unit circle."""
    value, rel_error = _root_product(p, digits)
    return MahlerEstimate(float(value), "root-product", float(value * rel_error), repr(p))


def _abs_on_circle(p, t: np.ndarray) -> np.ndarray:
    if isinstance(p, SymmetricLaurentPoly):
        total = np.full_like(t, float(p.eta[0]))
        for j, c in enumerate(p.eta[1:], start=1):
            total += 2.0 * c * np.cos(2 * np.pi * j * t)
        return np.abs(total)
    z = np.exp(2j * np.pi * t)
    total = np.zeros_like(z)
    for c in reversed(p.coeffs):
        total = total * z + c
    return np.abs(total)


def mahler_quadrature(p, subdivisions: int = 1 << 20) -> MahlerEstimate:
    """exp of the mean of log|P| over the unit circle, by midpoint rule.

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
        values = _abs_on_circle(p, t)
        good = values > 1e-300
        if not np.any(good):
            raise NonConvergence("polynomial vanishes on the whole sample grid")
        estimates.append(float(np.sum(np.log(values[good])) / n))
    last, prev = estimates
    error = abs(last - prev)
    value = float(np.exp(last))
    return MahlerEstimate(value, "quadrature", value * (error + 4.0 / subdivisions), repr(p))


def growth_base(spec: ConnectionSpec, digits: int = 64) -> MahlerEstimate:
    """Mahler measure governing the growth of the tree counts."""
    return mahler_root_product(spectral_system(spec).growth_poly, digits)


def _prediction(sys: SpectralSystem, n: int, measure):
    if n % sys.stride != 0:
        raise ValueError("families 2-4 are defined for even n only")
    prefactor = mpmath.mpf(n * sys.spokes) / (sys.stride**2 * sys.degeneracy)
    return prefactor * measure ** (n // sys.stride)


def asymptotic_prediction(spec: ConnectionSpec, n: int, digits: int = 64):
    """Leading-order prediction of the tree count at order n.

    The count at n = stride * m grows like (n s / (stride^2 q)) M^m, with M
    the measure of the product of the factor polynomials.
    """
    sys = spectral_system(spec)
    with mpmath.workdps(digits):
        return _prediction(sys, n, _root_product(sys.growth_poly, digits)[0])


def convergence_report(spec: ConnectionSpec, n_list, digits: int = 64) -> list[dict]:
    """Table of (n, exact tau, asymptotic prediction, ratio, |ratio-1|)."""
    if not is_connected(spec):
        raise NotConnected(f"spec {spec.to_json()} is not connected")
    sys = spectral_system(spec)
    rows = []
    with mpmath.workdps(digits):
        measure, _ = _root_product(sys.growth_poly, digits)
        for n in n_list:
            tau = closed_count_formal(sys, n).tau
            prediction = _prediction(sys, n, measure)
            ratio = prediction / mpmath.mpf(tau)
            rows.append(
                {
                    "n": n,
                    "tau": tau,
                    "prediction": float(prediction),
                    "ratio": float(ratio),
                    "deviation": float(abs(ratio - 1)),
                }
            )
    return rows

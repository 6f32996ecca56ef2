"""The float layer: roots, Mahler measures and tree-count asymptotics.

Its arithmetic is the standard library's ``decimal`` over one complex type,
``Complex``; ``bforest`` loads the module on first use of one of its names.
``roots_numeric`` finds the roots of a square-free integer polynomial, and
``trace_roots`` maps those of a system's trace factors to their outer
z-roots.  ``tree_count_chebyshev`` folds the Chebyshev product over them, a
float cross-check of the exact count.

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
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from typing import NamedTuple

from . import _FLOAT_NAMES
from .counting import SpectralSystem, count_rows, extend_rows, spectral_system
from .errors import InexactDivision, NonConvergence, ZeroPolynomial
from .graphs import ConnectionSpec, require_connected
from .polynomials import IntPoly, exact_divide, half_resultant, squarefree_layers

__all__ = list(_FLOAT_NAMES)


ROOT_STEPS = 400  # Durand-Kerner sweeps before NonConvergence
GUARD_DIGITS = 11  # the sweeps' digits above digits + 10: 37 bits, where mpmath's polyroots has 34
QUADRATURE_POINTS = 1 << 20  # the midpoint grid mahler_quadrature stands for


def _precision(digits: int):
    """A ``with`` block at mpmath's (digits + 1) log2(10) bits for ``digits``, and no
    exponent limit to speak of: M^m passes the default context's 10^999999."""
    return localcontext(Context(prec=digits + 1, Emax=MAX_EMAX, Emin=MIN_EMIN))


class Complex(NamedTuple):
    """A complex number over ``Decimal``: each operator rounds in the current context."""

    real: Decimal
    imag: Decimal

    def __bool__(self):
        return bool(self.real or self.imag)

    def __neg__(self):
        return Complex(-self.real, -self.imag)

    def __add__(self, other):
        c, d = _complex(other)
        return Complex(self.real + c, self.imag + d)

    def __sub__(self, other):
        c, d = _complex(other)
        return Complex(self.real - c, self.imag - d)

    def __mul__(self, other):
        (a, b), (c, d) = self, _complex(other)
        return Complex(a * c - b * d, a * d + b * c)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        c, d = _complex(other)
        return self * Complex(c, -d) * (1 / Decimal(c * c + d * d))

    def __pow__(self, n: int):
        """By repeated squaring; a negative power inverts the positive one."""
        one = Complex(Decimal(1), Decimal(0))
        if n < 0:
            return one / self**-n
        half = self ** (n // 2) if n > 1 else one
        return half * half * self if n % 2 else half * half

    def __abs__(self):
        return (self.real * self.real + self.imag * self.imag).sqrt()

    def sqrt(self):
        """The principal root by mpmath's branches: sqrt((|z| + |re z|) / 2) is one part."""
        (a, b), half = self, ((abs(self) + abs(self.real)) / 2).sqrt()
        other = b / (2 * half) if half else b  # half is 0 at z = 0 alone
        return Complex(half, other) if a >= 0 else Complex(abs(other), half if b >= 0 else -half)


def _complex(z) -> Complex:
    return z if isinstance(z, Complex) else Complex(z, 0)


def roots_numeric(f: IntPoly, digits: int = 64):
    """All complex roots by mpmath's Durand-Kerner ``polyroots``, ported to ``decimal``.

    Returns ``(root, radius)`` pairs: the root a :class:`Complex` rounded to
    ``digits + 10`` digits, ``radius`` = deg |f/f'| there by one Horner pass,
    which bounds its distance to a true root up to the root's own rounding
    (callers add that).  The sweeps start at (0.4 + 0.9i)^k, update each root
    in place, and stop once no step reaches 10^-(digits + 10).  They run
    ``GUARD_DIGITS`` above that precision, so their rounding stays below the
    step they stop at even for roots in the thousands.  Repeated roots
    converge only linearly: split into ``squarefree_layers`` first.
    """
    if f.is_zero or f.degree < 1:
        raise ZeroPolynomial("root finding needs degree >= 1")
    deg, coeffs = f.degree, f.coeffs[::-1]
    with _precision(digits + 10 + GUARD_DIGITS):
        roots = [Complex(Decimal(z.real), Decimal(z.imag)) for z in ((0.4 + 0.9j) ** k for k in range(deg))]
        tol, err = Decimal(10) ** -(digits + 10), [Decimal(1)] * deg
        for _ in range(ROOT_STEPS):
            if max(err) < tol:
                break
            for i, p in enumerate(roots):
                # f(p) over lc times its differences to the other roots, a zero one skipped as in mpmath
                scale = f.lead * math.prod(gap for j, q in enumerate(roots) if j != i and (gap := p - q))
                step = f(p) / scale
                roots[i], err[i] = p - step, abs(step)
        if max(err) >= tol:
            raise NonConvergence(
                f"Durand-Kerner polyroots did not settle in {ROOT_STEPS} steps "
                f"on degree {deg} at {digits} digits"
            )
    with _precision(digits + 10):  # rounded here, a root at a branch point x = +-2 lands on it, as in mpmath
        results = []
        for x in sorted((Complex(+z.real, +z.imag) for z in roots), key=lambda z: (abs(z.imag), z.real)):
            value, slope = coeffs[0], 0
            for c in coeffs[1:]:
                value, slope = c + x * value, value + x * slope
            radius = abs(value / slope) if slope else (abs(value) / abs(f.lead)) ** (Decimal(1) / deg)
            results.append((x, float(deg * radius)))
        return results


def trace_roots(sys: SpectralSystem, digits: int) -> list[tuple[IntPoly, int, list]]:
    """(K, c, [(rho, s, radius)]) per entry of ``sys.trace_factors``.

    Each root x of K (a constant K has none), found with multiplicity by
    ``roots_numeric`` on each square-free layer, as its outer z-root:
    rho + 1/rho = x, |rho| >= 1 and s = rho - 1/rho, taken as
    +-sqrt((x - 2)(x + 2)) to keep its relative accuracy near x = +-2.
    """
    table = []
    with _precision(digits):
        for k, c in sys.trace_factors:
            roots = []
            for layer in squarefree_layers(k):
                for x, radius in roots_numeric(layer, digits=digits):
                    s = ((x - 2) * (x + 2)).sqrt()
                    if abs(x - s) > abs(x + s):
                        s = -s
                    roots.append(((x + s) / 2, s, radius))
            table.append((k, c, roots))
    return table


def tree_count_chebyshev(spec: ConnectionSpec, digits: int = 64):
    """High-precision float evaluation of the Chebyshev product formula.

    The prefactor times |lead K|^m per trace factor (K, c) and
    |2 T_m(x/2) + 2c| = |rho^m + rho^-m + 2c| per outer root rho.  Cross-checks
    the exact path; returns ``(value, relative_error_bound)``, the value a ``Decimal``.
    """
    sys = spectral_system(require_connected(spec))
    m, prefactor = sys.order(spec.n)

    def evaluate(dps):
        with _precision(dps):
            value = Decimal(1)
            for k, c, roots in trace_roots(sys, dps):
                value *= Decimal(abs(k.lead)) ** m
                for rho, _, _ in roots:
                    value *= abs(rho**m + rho**-m + 2 * c)
            return value * prefactor.numerator / prefactor.denominator

    value = evaluate(digits)
    check = evaluate(digits + 16)
    with _precision(digits + 16):
        rel_error = float(abs(value - check) / abs(check)) if check != 0 else 0.0
    return value, rel_error


@dataclass(frozen=True)
class MahlerEstimate:
    value: float
    error_bound: float


def _trace_measure(sys: SpectralSystem, digits: int):
    """(M, relative error bound) as Decimals, from ``trace_roots``.

    M = prod |lc K| prod |rho| over the outer roots rho.  A root x adds its
    rounding, 10^(1 - digits), and radius / |s|, the first-order change of
    log |rho| as x moves (s = rho - 1/rho); near the branch points x = +-2,
    where |s|^2 <= 8 radius, it adds 2 sqrt(radius) instead.
    """
    with _precision(digits):
        value = Decimal(1)
        rel_error = Decimal(0)
        for k, _, roots in trace_roots(sys, digits):
            value *= abs(k.lead)
            for rho, s, radius in roots:
                value, radius = value * abs(rho), Decimal(radius)
                near = abs(s) ** 2 <= 8 * radius
                rel_error += Decimal(10) ** (1 - digits) + (2 * radius.sqrt() if near else radius / abs(s))
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
    with _precision(digits):
        measure, rel_error = _trace_measure(sys, digits)

        def convergence(at_n: ConnectionSpec, tau: int) -> dict:
            m, prefactor = sys.order(at_n.n)
            prediction = measure**m * prefactor.numerator / prefactor.denominator
            shift = max(tau.bit_length() - 4 * digits, 0)  # tau by its top bits: Decimal(tau) is quadratic
            ratio = prediction / (Decimal(tau >> shift) * Decimal(2) ** shift)
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

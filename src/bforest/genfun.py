"""Rational generating functions for tree-count sequences.

The tree counts of a fixed connection pattern, indexed by the group order,
satisfy a linear recurrence; the generating function is therefore rational
with integer coefficients and obeys an x <-> 1/x symmetry after rescaling
by the leading spectral coefficients.  The recurrence is recovered exactly
by fraction-free Berlekamp-Massey over the integers (rational terms are
first scaled by one common denominator) and certified on held-out terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .counting import closed_count_formal, spectral_system
from .errors import InvariantViolation, NonMonicDenominator, OrderExceeded
from .graphs import ConnectionSpec
from .polynomials import IntPoly

__all__ = [
    "TauSequence",
    "RationalGF",
    "tau_sequence",
    "find_recurrence",
    "genfun",
    "verify_symmetry",
    "symmetry_scale",
    "gf_eval",
    "expand_series",
]


@dataclass(frozen=True)
class TauSequence:
    """Tree counts as a formal sequence from index 1.

    Family 1 stores the count at group order n; families 2-4 store the
    count at group order 2n (vertex count 4n), matching the index at which
    the sequence is defined for every positive n.
    """

    family: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class RationalGF:
    numerator: IntPoly
    denominator: IntPoly
    recurrence: tuple[int, ...]  # e0..eL with sum_i e_i a(n-i) = 0

    @property
    def order(self) -> int:
        return len(self.recurrence) - 1

    def to_dict(self) -> dict:
        return {
            "numerator": list(self.numerator.coeffs),
            "denominator": list(self.denominator.coeffs),
            "order": self.order,
        }


def tau_sequence(spec: ConnectionSpec, count: int) -> TauSequence:
    """First ``count`` terms of the formal tree-count sequence.

    Terms are values of the closed counting formula, which is defined for
    every n >= 1 even when the literal graph at that order would degenerate.
    """
    if count < 1:
        raise ValueError("need at least one term")
    sys = spectral_system(spec)
    terms = (closed_count_formal(sys, sys.stride * k).tau for k in range(1, count + 1))
    return TauSequence(spec.family, tuple(terms))


def find_recurrence(seq, max_order: int = 128) -> tuple[int, ...]:
    """Minimal homogeneous linear recurrence, exactly, via Berlekamp-Massey.

    Fraction-free: rational terms are scaled by one common denominator, and
    C is updated as b C - d x^gap B over the integers, its content divided
    out each step.  Returns integer coefficients e0..eL (content-free,
    e0 > 0) with sum_i e_i a(n-i) = 0 for every index the sequence supplies.
    Raises :class:`OrderExceeded` if the minimal order is larger than
    ``max_order`` or too large to certify from the given terms.
    """
    values = [Fraction(v) for v in (seq.values if isinstance(seq, TauSequence) else seq)]
    denom = math.lcm(*(v.denominator for v in values))
    terms = [v.numerator * (denom // v.denominator) for v in values]
    conn, prev = [1], [1]  # connection polynomial C(x); B, C before its last length change
    order, gap, prev_discrepancy = 0, 1, 1
    for i in range(len(terms)):
        discrepancy = sum(conn[j] * terms[i - j] for j in range(order + 1))
        if discrepancy == 0:
            gap += 1
            continue
        update = [prev_discrepancy * c for c in conn] + [0] * (gap + len(prev) - len(conn))
        for j, c in enumerate(prev):
            update[gap + j] -= discrepancy * c
        content = math.gcd(*update)
        update = [c // content for c in update]
        if 2 * order <= i:
            prev, prev_discrepancy, order, gap = conn, discrepancy, i + 1 - order, 1
        else:
            gap += 1
        conn = update

    if order > max_order:
        raise OrderExceeded(f"minimal recurrence order {order} exceeds cap {max_order}")
    if 2 * order + 2 > len(terms) + 1:
        raise OrderExceeded(f"order {order} cannot be certified from {len(terms)} terms")
    conn = conn[: order + 1]
    for i in range(order, len(terms)):
        if sum(conn[j] * terms[i - j] for j in range(order + 1)) != 0:
            raise InvariantViolation("Berlekamp-Massey output fails on the training terms")
    content = math.gcd(*conn) if conn[0] > 0 else -math.gcd(*conn)
    return tuple(c // content for c in conn)


def genfun(seq, recurrence) -> RationalGF:
    """Rational generating function sum a(n) x^n from terms and recurrence.

    Denominator is the recurrence polynomial; the numerator is the
    convolution of the initial terms with it, which the recurrence
    truncates to a polynomial.  Integer sequences always normalize to a
    denominator with constant term 1 (Fatou).
    """
    terms = list(seq.values if isinstance(seq, TauSequence) else seq)
    e = list(recurrence)
    if not e or e[0] != 1:
        raise NonMonicDenominator(f"recurrence {e} does not start with 1 (Fatou normalization)")
    order = len(e) - 1
    denominator = IntPoly(e)

    def term(n):  # 1-based series with a(0) = 0
        return terms[n - 1] if 1 <= n <= len(terms) else 0

    numerator = IntPoly(
        [sum(e[i] * term(j - i) for i in range(min(j, order) + 1)) for j in range(order + 1)]
    )
    return RationalGF(numerator, denominator, tuple(e))


def gf_eval(gf: RationalGF, x):
    return Fraction(gf.numerator(Fraction(x)), gf.denominator(Fraction(x)))


def expand_series(gf: RationalGF, count: int) -> list[int]:
    """First ``count`` series coefficients a(1).. of the rational function."""
    num = gf.numerator.coeffs
    den = gf.denominator.coeffs
    if not den or den[0] != 1:
        raise NonMonicDenominator(f"denominator {list(den)} does not have constant term 1")
    coeffs: list[int] = []  # coeffs[j-1] = a(j); a(0) = 0 by construction
    for j in range(1, count + 1):
        value = num[j] if j < len(num) else 0
        value -= sum(den[i] * coeffs[j - i - 1] for i in range(1, min(j - 1, len(den) - 1) + 1))
        coeffs.append(value)
    return coeffs


def symmetry_scale(spec: ConnectionSpec) -> int:
    """|product of the leads of the trace factors| rescaling the symmetry."""
    return abs(math.prod(k.lead for k, _ in spectral_system(spec).trace_factors))


def _scaled(p: IntPoly, scale: int) -> IntPoly:
    # p(x/scale) with denominators cleared by scale^deg; the constant factors
    # this introduces cancel in the cross-multiplied symmetry identity
    d = p.degree
    return IntPoly(c * scale ** (d - i) for i, c in enumerate(p.coeffs))


def verify_symmetry(gf: RationalGF, scale: int = 1) -> bool:
    """Exact check of F(x/scale) = F(1/(scale*x)) by cross-multiplication."""
    num = _scaled(gf.numerator, scale)
    den = _scaled(gf.denominator, scale)
    dn, dd = num.degree, den.degree
    # clear negative powers: the identity N(y) D(1/y) = N(1/y) D(y)
    # becomes N(y) rev(D)(y) y^dn = rev(N)(y) D(y) y^dd
    rev_num = IntPoly(reversed(num.coeffs))
    rev_den = IntPoly(reversed(den.coeffs))
    left = (num * rev_den).shift(dn)
    right = (rev_num * den).shift(dd)
    return left == right

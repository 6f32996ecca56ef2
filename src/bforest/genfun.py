"""Rational generating functions for tree-count sequences.

The tree counts of a fixed connection pattern, indexed by the group order,
satisfy a linear recurrence; the generating function is therefore rational
with integer coefficients and obeys an x <-> 1/x symmetry after rescaling
by the leading spectral coefficients.  By Fatou's lemma its reduced
denominator has integer coefficients and constant term 1, so the recurrence
is recovered exactly by Berlekamp-Massey modulo word-size primes, combined
by CRT, lifted to the balanced range and certified by its exact fit to every
term.  A tree count is m times an exponential polynomial, whose recurrence,
of half the order, is found and squared; an order over the cap modulo one
prime is refused at once.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .counting import closed_counts, spectral_system
from .errors import NonMonicDenominator, OrderExceeded, OutOfRange
from .graphs import ConnectionSpec
from .polynomials import IntPoly, _pseudo_mod, _trim

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
    """First ``count`` terms of the formal tree-count sequence, by ``closed_counts``.

    Terms are values of the closed counting formula, which is defined for
    every n >= 1 even when the literal graph at that order would degenerate.
    """
    if count < 1:
        raise OutOfRange(f"need at least one term, got {count}")
    return TauSequence(spec.family, tuple(t.tau for t in closed_counts(spectral_system(spec), count)))


_PRIMES: list[int] = []  # the primes below 2^62, descending, found on first use


def _prime(k: int) -> int:
    """The k-th prime below 2^62, k = 0 the largest: Miller-Rabin on the
    first twelve prime bases decides primality below 2^64."""
    n = _PRIMES[-1] if _PRIMES else 2**62 + 1
    while len(_PRIMES) <= k:
        n -= 2
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
        if all(
            pow(a, (n - 1) >> s, n) == 1 or n - 1 in (pow(a, (n - 1) >> r, n) for r in range(1, s + 1))
            for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        ):
            _PRIMES.append(n)
    return _PRIMES[k]


def _massey(terms: list[int], p: int, cap: int) -> tuple[int, list[int]]:
    """Massey's algorithm over F_p, stopped once L passes ``cap``: the order L of
    the terms mod p, and their connection polynomial C, C[0] = 1, as L + 1 coefficients."""
    rev = [t % p for t in reversed(terms)]
    conn, prev = [1], [1]  # C(x); B, C before its last length change
    order, gap, scale = 0, 1, 1  # scale: the inverse of B's discrepancy
    for i in range(len(rev)):
        discrepancy = sum(map(operator.mul, conn, rev[len(rev) - 1 - i :])) % p
        if discrepancy == 0:
            gap += 1
            continue
        t = discrepancy * scale % p
        update = conn + [0] * (gap + len(prev) - len(conn))
        update[gap : gap + len(prev)] = [(u - t * b) % p for u, b in zip(update[gap:], prev)]
        if 2 * order <= i:
            prev, scale, order, gap = conn, pow(discrepancy, -1, p), i + 1 - order, 1
        else:
            gap += 1
        conn = update
        if order > cap:
            break
    return order, conn + [0] * (order + 1 - len(conn))


def _recurrence(terms: list[int], max_order: int, cap: int) -> tuple[int, ...]:
    """``find_recurrence``'s direct path; its Massey runs stop once L_p passes ``cap``."""
    # Hadamard: minors of the terms up to size L + 1 have at most `bits` bits.
    # They bound C's coefficients, and the primes that err divide one of them,
    # so a pool whose modulus passes 2^(bits + 21) holds C exactly if it fits
    size = min(max_order, len(terms)) + 1
    bits = size * (max(map(abs, terms), default=1).bit_length() + size.bit_length())
    runs: dict[int, tuple] = {}  # L_p -> (modulus, CRT residues)
    for k in range(3 + 4 * bits // 61):
        p = _prime(k)
        order, conn = _massey(terms, p, cap)
        if order > max_order:
            raise OrderExceeded(f"recurrence order L_p = {order} modulo p = {p} exceeds cap {max_order}")
        modulus, residues = runs.get(order, (1, [0] * (order + 1)))
        if modulus > 1 and 2 * order + 2 > len(terms) + 1:
            raise OrderExceeded(f"two primes give order L_p = {order}, more than {len(terms)} terms certify")
        inverse = pow(modulus, -1, p)
        residues = [r + modulus * ((c - r) * inverse % p) for r, c in zip(residues, conn)]
        modulus *= p
        runs[order] = modulus, residues
        recurrence = tuple(r - modulus if 2 * r > modulus else r for r in residues)
        if 2 * order + 2 <= len(terms) + 1:
            if all(sum(map(operator.mul, recurrence, terms[i::-1])) == 0 for i in range(order, len(terms))):
                return recurrence
            if modulus >> (bits + 21):
                break
    raise NonMonicDenominator(f"Berlekamp-Massey modulo {k + 1} primes: no recurrence with e0 = 1 fits")


def _distinct_roots(recurrence: tuple[int, ...]) -> bool:
    """Whether C_rev = x^L C(1/x), monic, and its derivative are coprime over F_p,
    p the first prime not dividing e_L, by Euclid on pseudo-remainders."""
    p = next(p for p in map(_prime, itertools.count()) if recurrence[-1] % p)
    f, g = list(reversed(recurrence)), [i * e for i, e in enumerate(reversed(recurrence))][1:]
    while g := _trim(e % p for e in g):
        f, g = g, _pseudo_mod(list(f), g)[0]
    return len(f) == 1


def find_recurrence(seq, max_order: int = 128) -> tuple[int, ...]:
    """Minimal homogeneous linear recurrence e0..eL, e0 = 1, of integer terms,
    exactly: Berlekamp-Massey modulo primes below 2^62, combined by CRT.

    By Fatou's lemma a rational series with integer terms has its minimal
    recurrence in this form, integral with e0 = 1, the one ``genfun`` needs.
    The primes that agree on the order L_p of the terms mod p pool their
    connection polynomials, and the first balanced lift that fits all
    N >= 2L + 1 terms is returned; a prime that disagrees is outvoted.  The
    fit certifies it, whatever its size: it is a multiple of the minimal
    recurrence over Q, which Gauss's lemma makes integral with e0 = 1, so of
    order L_Q >= L_p, and the two are equal.

    A :class:`TauSequence` holds tree counts m w_m / D, D the lcm of m / gcd(m,
    tau_m): w's recurrence C comes first, at half the cap.  If e_L != 0 and C_rev
    has distinct roots, m w_m has C^2 (Everest et al., *Recurrence Sequences*,
    2003, ch. 1), and with N >= 4L + 1 terms no other of order <= 2L fits them.
    Else the terms, like a list's, take the direct path, which names refusals.

    Raises :class:`TypeError` on a term that is not an integer, and
    :class:`OrderExceeded` if one L_p exceeds ``max_order`` (no recurrence
    with e0 = 1 of order <= ``max_order`` fits, as it would reduce mod p) or
    two agree on an order too large to certify from the given terms.  One with e0 != 1
    may fit, as (p, -1) fits p^9, .., p, 1; when no lift fits by the time a pool passes
    2^21 times the Hadamard bound, or the primes run out, :class:`NonMonicDenominator`.
    """
    terms = [operator.index(v) for v in (seq.values if isinstance(seq, TauSequence) else seq)]
    if isinstance(seq, TauSequence):
        scale = math.lcm(*(m // math.gcd(m, t) for m, t in enumerate(terms, 1)))
        with contextlib.suppress(OrderExceeded, NonMonicDenominator):
            c = _recurrence([t * scale // m for m, t in enumerate(terms, 1)], max_order // 2, max_order // 2)
            if c[-1] and len(terms) >= 4 * len(c) - 3 and _distinct_roots(c):
                return (IntPoly(c) * IntPoly(c)).coeffs
    return _recurrence(terms, max_order, len(terms))


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
    """``SpectralSystem.symmetry_scale`` of the spec's trace table."""
    return spectral_system(spec).symmetry_scale


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

"""Exact integer polynomial arithmetic, trace polynomials and resultants.

One carrier: dense integer polynomials (``IntPoly``).  There is one
remainder sequence, Collins' subresultant sequence (``_subresultants``),
whose divisions are all exact over Z: it gives the resultant and the gcd of
the square-free split.  There is one pseudo-division, ``_pseudo_mod``, which
reports the power of the divisor's lead it scaled by; the remainder sequence
and the Chebyshev reduction use it.

A palindromic P(z) = eta_0 + sum_j eta_j (z^j + z^-j) is K(z + 1/z) for the
trace polynomial K of the same degree (``trace_polynomial``); x -> z + 1/z
is a ring map, so P's sums and products are formed on K.  The exact count's
resultants against z^m + c run over the roots x of K as a fixed factor
times a square, resultants of K against Chebyshev U_k mod K with half the
bits or less (``half_resultant``; ``half_resultants`` sweeps a run of orders).
``squarefree_layers`` splits K for the float layer, ``mahler``, which finds
the roots themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InexactDivision, NonIntegralResult, ZeroPolynomial

__all__ = [
    "IntPoly",
    "trace_polynomial",
    "half_resultant",
    "half_resultants",
    "fixed_part",
    "exact_divide",
    "squarefree_part",
    "squarefree_layers",
]


def _trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial c0 + c1*x + ... + cd*x^d, canonical form."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(int(c) for c in coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        return IntPoly(_mul_add(self.coeffs, other.coeffs, []))

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


def trace_polynomial(eta) -> IntPoly:
    """K(x) with K(z + 1/z) = eta_0 + sum_j eta_j (z^j + z^-j).

    ``eta`` lists the cosine-side coefficients eta_0, eta_1, ...; K has the
    degree and the lead of the last nonzero one.  K = eta_0 + sum_j eta_j V_j
    over the monic Lucas polynomials V_j(z + 1/z) = z^j + z^-j, with V_0 = 2,
    V_1 = x, V_j+1 = x V_j - V_j-1.
    """
    out, prev, lucas = IntPoly(eta[:1]), IntPoly([2]), IntPoly([0, 1])  # V_0, V_1
    for c in eta[1:]:
        out = out + c * lucas
        prev, lucas = lucas, lucas.shift(1) - prev
    return out


def _pseudo_mod(r: list[int], b) -> tuple[list[int], int]:
    """(R, k) with r = R / lc(b)^k (mod b) and deg R < deg b, over Z.

    ``b`` is a coefficient sequence with a nonzero last entry; ``r`` is
    consumed.  Each step removes the top term of r, dividing it exactly by
    lc(b) where possible and otherwise scaling r by lc(b) first, which bumps
    k; for |lc b| = 1 this is plain integer reduction and k stays 0.
    """
    lead, db = b[-1], len(b) - 1
    k = 0
    while len(r) > db:
        top = r.pop()
        factor, rem = divmod(top, lead)
        if rem:
            r, factor, k = [lead * c for c in r], top, k + 1
        shift = len(r) - db
        for i, c in enumerate(b[:-1]):
            r[shift + i] -= factor * c
    while r and r[-1] == 0:
        r.pop()
    return r, k


def _divide(num: int, den: int, what: str, *args) -> int:
    """num / den, or :class:`NonIntegralResult` naming ``what % args`` if it is not an integer."""
    quot, rem = divmod(num, den)
    if rem:
        raise NonIntegralResult(f"{what % args} came out non-integral")
    return quot


def _subresultants(a, b) -> tuple[int, list[int]]:
    """(Res(a, b), the last nonzero remainder) by Collins' subresultant PRS.

    ``a`` and ``b`` are nonzero coefficient sequences.  Each full
    pseudo-remainder lc(b)^(delta + 1) a mod b, delta = deg a - deg b, is
    divided by g h^delta, where g is the lead of the previous divisor and h
    follows h <- g^delta / h^(delta - 1); every division is exact over Z
    (Collins 1967; Cohen, GTM 138, Alg. 3.3.7).  The remainders are scalar
    multiples of the Euclidean ones, so the last nonzero one is a gcd over Q.
    """
    a, b, sign = list(a), list(b), 1
    if len(a) < len(b):  # Res(a, b) = (-1)^(deg a deg b) Res(b, a)
        a, b, sign = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta, sign = da - db, sign * (-1) ** (da * db)
        r, k = _pseudo_mod(a, b)
        if not r:
            return 0, b
        scale, den = b[-1] ** (delta + 1 - k), g * h**delta
        a, b = b, [_divide(c * scale, den, "a subresultant") for c in r]
        g = a[-1]
        if delta:
            h = _divide(g**delta, h ** (delta - 1), "a subresultant lead")
    # b is a nonzero constant; h = 1 while a is constant too
    res = _divide(b[0] ** (len(a) - 1), h ** max(len(a) - 2, 0), "the resultant")
    return sign * res, b


def _mul_add(a: list[int], b: list[int], c: list[int]) -> list[int]:
    """Coefficients of a * b + c."""
    out = c + [0] * (len(a) + len(b) - 1 - len(c))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _chebyshev_u_mod(f: IntPoly, k: int) -> list[tuple[int, list[int], list[int], int]]:
    """(j, A, B, e) with U_j-1 = A / lc^e and U_j = B / lc^e (mod f), deg A, B < deg f,
    at each prefix j of k's bits; the last has j = k.

    U_j(z + 1/z) = (z^(j+1) - z^-(j+1)) / (z - 1/z), U_-1 = 0, U_0 = 1, is the
    Chebyshev polynomial of the second kind.  Each bit doubles j by U_2j = (U_j -
    U_j-1)(U_j + U_j-1) and U_2j+1 = U_j (x U_j - 2 U_j-1) or U_2j-1 = -U_j-1
    (x U_j-1 - 2 U_j), with x U reduced mod f first: two products of terms of
    degree < deg f per bit.  A product of two terms over lc^e is over lc^2e
    before its reduction, plus the power that reducing x U took.
    """
    lead, j, out = f.lead, 0, []
    a, b, e = [], [1], 0  # U_-1, U_0
    for bit in bin(k)[2:]:
        even = _mul_add(_mul_add([-1], a, b), _mul_add([1], a, b), [])
        (u, w), sign = ((b, a), 1) if bit == "1" else ((a, b), -1)
        xu, kx = _pseudo_mod([0] + u, f.coeffs)
        odd = _mul_add(u, _mul_add([-2 * sign * lead**kx], w, [sign * y for y in xu]), [])
        (even, ke), (odd, ko) = _pseudo_mod(even, f.coeffs), _pseudo_mod(odd, f.coeffs)
        top = max(ke, ko + kx)
        even, odd = [y * lead ** (top - ke) for y in even], [y * lead ** (top - ko - kx) for y in odd]
        a, b = (even, odd) if bit == "1" else (odd, even)
        e, j = 2 * e + top, 2 * j + (bit == "1")
        out.append((j, a, b, e))
    return out


def fixed_part(k: IntPoly, m: int, c: int) -> int:
    """K(2) if c = -1, times K(-2) if c (-1)^m = -1: the fixed factor of
    |Res(K(z + 1/z), z^m + c)|, from the roots z = 1 and z = -1 of z^m + c."""
    return (k(2) if c < 0 else 1) * (k(-2) if c * (-1) ** m < 0 else 1)


def _form(odd: int, c: int, a: list[int], b: list[int]) -> list[int]:
    """P of ``half_resultant`` for (c, m mod 2) as a linear form of the pair (U_k-1, U_k)
    = (a, b): U_k + U_k-1, U_k - U_k-1, U_k-1 or V_k = 2 U_k - x U_k-1."""
    if odd:
        return _mul_add([-c], a, b)
    return list(a) if c < 0 else _mul_add([0, -1], a, [2 * y for y in b])


def _half_tail(f: IntPoly, fixed: int, m: int, c: int, pieces) -> tuple[int, int]:
    """``half_resultant(f, m, c)`` from its ``fixed`` part and P's monic pieces (p, n, e),
    of degree n with piece = p / lc^e (mod f): a = prod |Res(f, R)| |lc f|^(n - deg R -
    (e + e') deg f), R = lc^e' p mod f, each factor exact; R of degree <= 1 takes
    Res(f, R) in closed form."""
    coeffs, d, lead = f.coeffs, f.degree, abs(f.coeffs[-1])
    if d == 0:  # no roots: |lc f|^m = |fixed| Res(f, P)^2
        return fixed, lead ** ((m - (c < 0)) // 2)
    a = 1
    for p, n, e in pieces:
        r, kp = _pseudo_mod(p, coeffs)
        shift = n + 1 - len(r) - (e + kp) * d
        if len(r) == 2:  # Res(f, r0 + r1 x) = +-r1^d f(-r0 / r1)
            root = abs(sum(y * (-r[0]) ** i * r[1] ** (d - i) for i, y in enumerate(coeffs)))
        else:
            root = abs(_subresultants(coeffs, r)[0] if len(r) > 2 else r[0] ** d) if r else 0
        a *= root * lead**shift if shift >= 0 else _divide(root, lead**-shift, "Res(f, P) for z^%d %+d", m, c)
    return fixed, a


def half_resultant(f: IntPoly, m: int, c: int) -> tuple[int, int]:
    """(fixed, a) with |Res(F, z^m + c)| = |fixed| a^2, a = |Res(f, P)| of half the bits.

    F(z) = z^d f(z + 1/z), d = deg f, c = +-1.  F's roots pair up as rho^+-1
    over the roots x = rho + 1/rho of f, and with k = m // 2 each pair gives
    (rho^m + c)(rho^-m + c) = c (rho^(m/2) + c rho^(-m/2))^2 = (2 - x if c = -1)
    (x + 2 if c (-1)^m = -1) P(x)^2, P = U_k-1, U_k + U_k-1, V_k = 2 U_k - x U_k-1
    or U_k - U_k-1 for (c, m) = (-1, even), (-1, odd), (+1, even), (+1, odd).
    P is monic of degree (m - w) / 2, w the fixed degree (1 at odd m; 2 or 0
    at even m as c = -1 or +1), so lc(f) cancels: ``fixed`` is
    ``fixed_part(f, m, c)``, and a is a product of |Res(f, piece)| over P's
    monic pieces, each over its own power of lc f (``_half_tail``).

    The doubling stops at j = k // 2.  Only even m with c = -1 splits: with k =
    2^t b, b = 2h + 1, U_k-1 = U_2h V_b V_2b ... V_k/2 and U_2h = (U_h + U_h-1)
    (U_h - U_h-1), so each piece comes from the pair at a prefix of k's bits
    and has at most half P's degree (Res(f, g h) = Res(f, g) Res(f, h)).  The
    other three P take one product, P_2j+eps = P_j V_j+eps - P_-eps with
    eps = k mod 2, P_-eps the same form of (U_-eps-1, U_-eps).
    """
    if f.degree == 0:  # a constant f needs no pair
        return _half_tail(f, fixed_part(f, m, c), m, c, [])
    k, odd = m // 2, m % 2
    pairs = _chebyshev_u_mod(f, k // 2)
    if c < 0 and not odd and k:
        h = k >> (k & -k).bit_length()  # k = 2^t (2h + 1); U_h -+ U_h-1 are 1 at h = 0
        pieces = [(_form(1, s, a, b), h, e) for j, a, b, e in pairs if j == h > 0 for s in (1, -1)]
        pieces += [(_form(0, 1, a, b), j, e) for j, a, b, e in pairs if j > h]  # V_b .. V_k/2
    else:
        _, a, b, e = pairs[-1]
        eps = k % 2
        v = _mul_add([0, 1], b, [-2 * y for y in a]) if eps else _form(0, 1, a, b)
        (p, kp), (v, kv) = (_pseudo_mod(y, f.coeffs) for y in (_form(odd, c, a, b), v))
        e = 2 * e + kp + kv
        low = _form(odd, c, [-f.lead**e], []) if eps else _form(odd, c, [], [f.lead**e])
        pieces = [(_mul_add(p, v, [-y for y in low]), (m - (c < 0)) // 2, e)]
    return _half_tail(f, fixed_part(f, m, c), m, c, pieces)


def half_resultants(f: IntPoly, c: int, count: int) -> list[tuple[int, int]]:
    """``half_resultant(f, m, c)`` for m = 1..count: (U_k-1, U_k) steps by U_k+1 =
    x U_k - U_k-1 mod f, the older one scaled by the lc^j of that step's reduction."""
    lead, out, a, b, e = f.lead, [], [], [1], 0  # U_-1, U_0 over lc^e
    fixed = fixed_part(f, 2, c), fixed_part(f, 1, c)  # by the parity of m
    for m in range(1, count + 1):
        if m % 2 == 0:  # k = m // 2 moves up by one
            r, j = _pseudo_mod(_mul_add([0, 1], b, [-y for y in a]), f.coeffs)
            a, b, e = [y * lead**j for y in b], r, e + j
        out.append(_half_tail(f, fixed[m % 2], m, c, [(_form(m % 2, c, a, b), (m - (c < 0)) // 2, e)]))
    return out


def exact_divide(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient f/g when g divides f exactly over the integers."""
    if g.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    if f.is_zero:
        return IntPoly()
    if f.degree < g.degree:
        raise InexactDivision("divisor degree exceeds dividend degree")
    r = list(f.coeffs)
    quot = [0] * (f.degree - g.degree + 1)
    for pos in range(len(quot) - 1, -1, -1):
        quot[pos] = coef = r[pos + g.degree] // g.lead
        for i, c in enumerate(g.coeffs):
            r[pos + i] -= coef * c
    # a remainder, or a top coefficient that lc(g) did not divide, is left in r
    if any(r):
        raise InexactDivision(f"{g!r} does not divide {f!r} over the integers")
    return IntPoly(quot)


def squarefree_part(u: int) -> int:
    """The unique square-free v with u = v * r^2, by trial division."""
    if u < 1:
        raise ValueError("square-free part is defined for positive integers")
    v = 1
    d = 2
    while d * d <= u:
        if u % d == 0:
            count = 0
            while u % d == 0:
                u //= d
                count += 1
            if count % 2 == 1:
                v *= d
        d += 1 if d == 2 else 2
    return v * u


def _primitive(f: IntPoly) -> IntPoly:
    """f divided by its content, with a positive leading coefficient."""
    unit = f.content() if f.lead > 0 else -f.content()
    return IntPoly(c // unit for c in f.coeffs)


def squarefree_layers(f: IntPoly) -> list[IntPoly]:
    """Square-free polynomials whose product is f up to a constant factor.

    Layer i holds the roots of multiplicity >= i once each: divide f by
    g = gcd(f, f'), the primitive part of the last nonzero subresultant
    remainder, then repeat on g.
    """
    layers = []
    while f.degree >= 1:
        g = _primitive(IntPoly(_subresultants(f.coeffs, f.derivative().coeffs)[1]))
        layers.append(exact_divide(f, g))
        f = g
    return layers

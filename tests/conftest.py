"""Shared fixtures: the four worked-example connection specs and helpers."""

import functools
import math
import random
from collections import deque
from collections.abc import Mapping
from fractions import Fraction

import mpmath
import pytest

from bforest import (
    IntPoly,
    is_connected,
    realize,
    spectral_system,
    validate_spec,
)
from bforest.errors import (
    InexactDivision,
    InvariantViolation,
    NonIntegralResult,
    OrderExceeded,
    ZeroPolynomial,
)
from bforest.mahler import MahlerEstimate
from bforest.polynomials import _mul_add, _pseudo_mod, _subresultants, squarefree_layers, squarefree_part


def connected_by_search(spec) -> bool:
    """Breadth-first search over the realized neighbour lists: the ground
    truth the arithmetic connectivity test is cross-checked against."""
    neighbours = realize(spec)
    total = len(neighbours)
    seen = [False] * total
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in neighbours[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == total


def _nonzeros(row, size: int) -> dict[int, int]:
    """{column: value} of a dense row of length ``size`` or of a mapping."""
    dense = not isinstance(row, Mapping)
    entries = {int(j): int(x) for j, x in (enumerate(row) if dense else row.items()) if x}
    if (dense and len(row) != size) or any(not 0 <= j < size for j in entries):
        raise ValueError("determinant needs a square matrix")
    return entries


def _divide(numerator: int, divisor: int) -> int:
    quot, rem = divmod(numerator, divisor)
    if rem:
        raise InexactDivision("fraction-free elimination produced an inexact division")
    return quot


def det_fraction_free(matrix) -> int:
    """Exact determinant by Bareiss one-step fraction-free elimination over nonzeros.

    ``matrix`` is a list of ``len(matrix)`` rows, each a dense sequence or a
    mapping {column: value}.  Rows are kept as their nonzeros, and step k
    touches only the rows with a nonzero in column k; the first of them is
    the pivot row (a swap flips the sign, none means det 0).  A row that step
    k skips would only be scaled by pivot_k / pivot_(k-1).  Instead it keeps
    its stamp s, the step after its last update, and takes all the skipped
    scalings at once, pivot_(k-1) / pivot_(s-1), when next touched; below
    the pivot that scaling folds into the update, whose divisor becomes
    pivot_(s-1).  Every entry is an integer minor (Sylvester's identity), so
    every division is exact: checked, not trusted.
    """
    size = len(matrix)
    rows = [_nonzeros(row, size) for row in matrix]
    # holders[j]: positions >= k of the rows with a nonzero in column j
    holders = [set() for _ in range(size)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    # pivots[s] = pivot of step s - 1, the divisor for a row with stamp s
    pivots = [1]
    stamp = [0] * size
    sign = 1
    for k in range(size):
        top = min(holders[k], default=None)
        if top is None:
            return 0
        if top != k:
            # a column held by one of the two rows changes position, one held
            # by both is toggled twice
            for i in (k, top):
                for j in rows[i]:
                    holders[j] ^= {k, top}
            rows[k], rows[top] = rows[top], rows[k]
            stamp[k], stamp[top] = stamp[top], stamp[k]
            sign = -sign
        pivot_row = rows[k]
        for j in pivot_row:
            holders[j].discard(k)
        if stamp[k] < k:
            scale, divisor = pivots[k], pivots[stamp[k]]
            for j, x in pivot_row.items():
                pivot_row[j] = _divide(x * scale, divisor)
        pivot = pivot_row.pop(k)
        for i in holders[k]:
            row = rows[i]
            divisor = pivots[stamp[i]]
            lead = row.pop(k)
            for j in row:
                row[j] *= pivot
            for j, x in pivot_row.items():
                if j in row:
                    row[j] -= lead * x
                else:
                    row[j] = -lead * x
                    holders[j].add(i)
            for j, x in list(row.items()):
                if x:
                    row[j] = _divide(x, divisor)
                else:
                    del row[j]
                    holders[j].discard(i)
            stamp[i] = k + 1
        pivots.append(pivot)
    return sign * pivots[-1]


def sylvester_matrix(f, g):
    n, m = f.degree, g.degree
    size = n + m
    fdesc = list(reversed(f.coeffs))
    gdesc = list(reversed(g.coeffs))
    rows = [[0] * i + fdesc + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + gdesc + [0] * (size - m - 1 - i) for i in range(n)]
    return rows


def resultant(f, g) -> int:
    """Exact signed resultant by the package's subresultant sequence (Collins
    1967), the one the half resultants end in; ``resultant_sylvester`` checks it."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    return _subresultants(f.coeffs, g.coeffs)[0]


def resultant_sylvester(f, g) -> int:
    """Sylvester-determinant resultant: the independent oracle the
    remainder-sequence resultant is cross-checked against."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if g.degree == 0:
        return g.coeffs[0] ** f.degree
    return det_fraction_free(sylvester_matrix(f, g))


def det_bareiss_dense(matrix) -> int:
    """Dense Bareiss one-step fraction-free elimination, O(size^3) with the
    first nonzero entry of each column as pivot: the independent oracle the
    sparse ``det_fraction_free`` is cross-checked against."""
    a = [[int(x) for x in row] for row in matrix]
    size = len(a)
    for row in a:
        if len(row) != size:
            raise ValueError("determinant needs a square matrix")
    if size == 0:
        return 1

    sign = 1
    prev_pivot = 1
    for k in range(size - 1):
        pivot_row = next((i for i in range(k, size) if a[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, size):
            row_i = a[i]
            row_k = a[k]
            lead = row_i[k]
            for j in range(k + 1, size):
                num = row_i[j] * pivot - lead * row_k[j]
                quot, rem = divmod(num, prev_pivot)
                if rem:
                    raise InexactDivision("fraction-free elimination produced an inexact division")
                row_i[j] = quot
            row_i[k] = 0
        prev_pivot = pivot
    return sign * a[size - 1][size - 1]


def lucas_mod(f: IntPoly, m: int) -> tuple[list[int], int]:
    """(A, e) with V_m(x) = A / lc(f)^e (mod f), A integral with deg A < deg f.

    V_m(z + 1/z) = z^m + z^-m is the monic integer Lucas polynomial.  Scan
    the bits of m keeping (V_j, V_j+1) over one shared exponent e, by
    V_2j = V_j^2 - 2 and V_2j+1 = V_j V_j+1 - x; a product of two terms over
    lc^e is over lc^2e before its reduction adds its own exponent.
    """
    lead = f.lead
    a, b, e = [2], [0, 1], 0  # V_0, V_1
    for bit in bin(m)[2:]:
        scale = lead ** (2 * e)
        u = b if bit == "1" else a
        sq, cross = _mul_add(u, u, [-2 * scale]), _mul_add(a, b, [0, -scale])
        pair = (cross, sq) if bit == "1" else (sq, cross)
        (a, ka), (b, kb) = (_pseudo_mod(v, f.coeffs) for v in pair)
        k = max(ka, kb)
        a, b = [c * lead ** (k - ka) for c in a], [c * lead ** (k - kb) for c in b]
        e = 2 * e + k
    return a, e


def abs_resultant_with_power(f: IntPoly, m: int, c: int) -> int:
    """|Res(F, z^m + c)| for c in {+1, -1} and F(z) = z^d f(z + 1/z), d = deg f,
    through the full-size Lucas polynomial V_m: the oracle the half-size
    Chebyshev-U path of ``half_resultant`` is cross-checked against.

    The roots of F pair up as (r, 1/r) over the roots x = r + 1/r of f, and
    (r^m + c)(r^-m + c) is 2 + c V_m(x), so |Res(F, z^m + c)| =
    |lc f|^m |prod_{f(x)=0} (2 + c V_m(x))|.  With V_m = A / L (mod f) and
    L = lc(f)^e signed, 2 + c V_m agrees with Q / L on the roots of f, where
    Q = c A + 2 L, and |Res(F, z^m + c)| =
    |lc f|^(m - deg Q - e deg f) |cont Q|^(deg f) |Res(f, Q / cont Q)|.
    """
    if f.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    if m < 0:
        raise ValueError(f"power must be non-negative, got {m}")
    if m == 0:
        if 1 + c == 0:
            raise ZeroPolynomial("z^0 - 1 is the zero polynomial")
        return abs(1 + c) ** (2 * f.degree)
    if f.degree == 0:
        return abs(f.coeffs[0]) ** m

    a, e = lucas_mod(f, m)
    q = IntPoly(a) * c + IntPoly([2 * f.lead**e])
    if q.is_zero:
        return 0
    cont = q.content()
    value = abs(resultant(f, IntPoly(x // cont for x in q.coeffs))) * cont**f.degree
    shift = m - q.degree - e * f.degree
    lead = abs(f.lead)
    if shift >= 0:
        return value * lead**shift
    value, rem = divmod(value, lead**-shift)
    if rem:
        raise NonIntegralResult(f"|Res(F, z^{m} {c:+d})| came out non-integral")
    return value


def closed_count_by_lucas(spec) -> int:
    """The closed count with one full-size V_m resultant per trace factor:
    the prefactor times ``abs_resultant_with_power`` over the factor table,
    with no connectivity check."""
    sys = spectral_system(spec)
    m, prefactor = sys.order(spec.n)
    value = prefactor * math.prod(abs_resultant_with_power(k, m, c) for k, c in sys.trace_factors)
    if value.denominator != 1:
        raise NonIntegralResult(f"closed-form count is not an integer: {value}")
    return int(value)


def base_and_family(sys) -> tuple[IntPoly, IntPoly]:
    """(B, F) rebuilt from the trace table: B = (x - 2) K for the base entry
    (K, -1), and F the family entry (F, +1), or B itself at stride 1."""
    base = IntPoly([-2, 1]) * sys.trace_factors[-1][0]
    return base, sys.trace_factors[0][0] if sys.stride == 2 else base


def structure_reference(sys, odd: bool) -> int | None:
    """A branch's structure constant by the rule of the two polynomials: the
    square-free part of the value at x = -2, z = -1, of F (odd branch) or B
    (even branch); None when that value is <= 0.  The reference the
    ``fixed_part`` fold of ``bforest.arithmetic`` is cross-checked against.
    Family 1's odd orders take 1 in ``verify_square_structure`` instead."""
    base, family = base_and_family(sys)
    raw = (family if odd else base)(-2)
    return squarefree_part(raw) if raw > 0 else None


def chebyshev_T(n: int, x):
    """Exact Chebyshev value T_n(x) for rational x, in O(log n) steps.

    Uses the doubling identities T_{2m} = 2 T_m^2 - 1 and
    T_{2m+1} = 2 T_{m+1} T_m - x.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    x = Fraction(x)
    # maintain (T_m, T_{m+1}) while scanning bits of n from the top
    tm, tm1 = Fraction(1), x  # m = 0
    for bit in bin(n)[2:]:
        if bit == "0":
            tm, tm1 = 2 * tm * tm - 1, 2 * tm1 * tm - x
        else:
            tm, tm1 = 2 * tm1 * tm - x, 2 * tm1 * tm1 - 1
    return tm


def _cosine_coefficients(k: IntPoly) -> list[int]:
    """[eta_0, ..., eta_d] with K(z + 1/z) = eta_0 + sum_j eta_j (z^j + z^-j).

    The exact inverse of ``trace_polynomial``, from the binomial expansion
    x^d = (z + 1/z)^d = sum_i C(d, i) z^(d - 2i); empty for the zero K.
    """
    eta = [0] * (k.degree + 1)
    for d, c in enumerate(k.coeffs):
        for i in range(d // 2 + 1):
            eta[d - 2 * i] += c * math.comb(d, i)
    return eta


def lift(k: IntPoly) -> IntPoly:
    """z^d K(z + 1/z) with d = deg K, a palindromic polynomial of degree 2d:
    a trace polynomial as a polynomial in z, for the z-domain oracles."""
    out, power = IntPoly(), IntPoly([1])  # power = (z^2 + 1)^i
    for i, c in enumerate(k.coeffs):
        out = out + (power * c).shift(k.degree - i)
        power = power * IntPoly([1, 0, 1])
    return out


def mpmath_roots(f: IntPoly, digits: int) -> list:
    """(root, radius) per root of a square-free ``f``, as mpc values: mpmath's own
    Durand-Kerner ``polyroots`` at ``digits + 10`` digits and 34 guard bits, and
    radius = deg |f/f'| at the root.  The reference ``roots_numeric``, the
    float layer's port of it to ``decimal``, is checked against."""
    coeffs = f.coeffs[::-1]
    with mpmath.workdps(digits + 10):
        roots = mpmath.polyroots(coeffs, maxsteps=400, cleanup=False, extraprec=34)
        derivatives = (mpmath.polyval(coeffs, x, derivative=True) for x in roots)
        return [(x, float(f.degree * abs(value / slope))) for x, (value, slope) in zip(roots, derivatives)]


def as_mpc(z) -> mpmath.mpc:
    """A ``Complex`` of the float layer as an mpc, exact from its decimal
    strings up to the current mpmath precision."""
    return mpmath.mpc(str(z.real), str(z.imag))


def growth_base_reference(spec, digits: int = 64) -> float:
    """``growth_base``'s value from mpmath's roots: prod |lc K| times, per
    root x of each trace factor K, the larger modulus of the two roots of
    z^2 - x z + 1.  Shares no root finding or complex arithmetic with it."""
    value = mpmath.mpf(1)
    with mpmath.workdps(digits):
        for k, _ in spectral_system(spec).trace_factors:
            value *= abs(k.lead)
            for x, _ in (r for layer in squarefree_layers(k) for r in mpmath_roots(layer, digits)):
                s = mpmath.sqrt((x - 2) * (x + 2))
                value *= max(abs(x + s), abs(x - s)) / 2
        return float(value)


@functools.lru_cache(maxsize=None)
def _lift_roots(k: IntPoly) -> tuple:
    """The 2d roots of ``lift(k)`` with multiplicity, as mpc values: the two
    roots of z^2 - x z + 1 per root x of K, one mpmath run per square-free layer."""
    roots = []
    with mpmath.workdps(40):
        for layer in squarefree_layers(k):
            for x in mpmath.polyroots(layer.coeffs[::-1], maxsteps=400, extraprec=60):
                r = mpmath.sqrt(x * x - 4)
                roots += [(x + r) / 2, (x - r) / 2]
    return tuple(roots)


def mahler_root_product(poly: IntPoly, digits: int = 64) -> MahlerEstimate:
    """|lead| prod max(1, |z|) over the roots z of ``poly``, a polynomial in z:
    the Mahler measure from the roots of the lift, the oracle the trace-root
    ``growth_base`` and the quadrature are cross-checked against.

    The roots are found per square-free layer, by mpmath (``mpmath_roots``), so
    the oracle shares no code with the float layer.  Each root adds its rounding,
    10^(1 - digits), and radius / max(1, |z|) to the relative error bound, as
    max(1, |z|) is 1-Lipschitz.
    """
    roots = [r for layer in squarefree_layers(poly) for r in mpmath_roots(layer, digits)]
    with mpmath.workdps(digits):
        value = mpmath.mpf(abs(poly.lead))
        rel_error = mpmath.mpf(0)
        for root, radius in roots:
            modulus = max(mpmath.mpf(1), abs(root))
            value *= modulus
            rel_error += mpmath.mpf(10) ** (1 - digits) + radius / modulus
        return MahlerEstimate(float(value), float(value * rel_error))


def midpoint_mean_exact(k: IntPoly, n: int):
    """The n-point midpoint mean of log|K(2 cos 2 pi t)|, summed without sampling.

    The nodes w_j = exp(2 pi i (j + 1/2) / n) are the roots of w^n + 1, so
    prod_j (z - w_j) = z^n + 1, and the mean of log|lift(K)(w_j)|, which is
    |K(w_j + 1/w_j)| on the circle, is log|lc| + (1/n) sum log|z_i^n + 1|
    over the roots z_i of the lift.  An mpf at 40 digits: the reference the
    quadrature's shortcut is checked against.
    """
    with mpmath.workdps(40):
        total = sum(mpmath.log(abs(z**n + 1)) for z in _lift_roots(k))
        return mpmath.log(abs(k.lead)) + total / n


def cyclotomic_quotient(n: int):
    """(z^n - 1)/(z - 1) = 1 + z + ... + z^(n-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return IntPoly([1] * n)


# one spoke and no generators: the base R L - G is identically 0, and the
# graph is connected only at these four specs, as an edge, a path (one half
# flag) or a 4-cycle
ZERO_BASE = [
    {"n": 1, "alphas": [], "betas": [], "gammas": [0]},
    {"n": 2, "alphas": [], "betas": [], "gammas": [0], "half_r": True},
    {"n": 2, "alphas": [], "betas": [], "gammas": [0], "half_t": True},
    {"n": 2, "alphas": [], "betas": [], "gammas": [0], "half_r": True, "half_t": True},
]


@pytest.fixture(scope="session")
def family_specs():
    """One representative spec per family (prism family and its three
    half-generator variants); families 2-4 need an even group order."""
    return {
        1: validate_spec({"n": 3, "alphas": [1], "betas": [1], "gammas": [0]}),
        2: validate_spec({"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_r": True}),
        3: validate_spec({"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_t": True}),
        4: validate_spec(
            {"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_r": True, "half_t": True}
        ),
    }


def random_connected_specs(count, seed, n_max=12, r_max=2, t_max=2, s_max=3):
    """Deterministic stream of random connected specs within the bounds."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        n = rng.randint(3, n_max)
        top = (n - 1) // 2
        r = rng.randint(0, min(r_max, top))
        t = rng.randint(0, min(t_max, top))
        s = rng.randint(1, min(s_max, n))
        data = {
            "n": n,
            "alphas": rng.sample(range(1, top + 1), r) if top else [],
            "betas": rng.sample(range(1, top + 1), t) if top else [],
            "gammas": rng.sample(range(n), s),
            "half_r": n % 2 == 0 and rng.random() < 0.3,
            "half_t": n % 2 == 0 and rng.random() < 0.3,
        }
        spec = validate_spec(data)
        if spec.family != 1 and spec.n % 2 != 0:
            continue
        if is_connected(spec):
            specs.append(spec)
    return specs


def find_recurrence_fractions(values, max_order: int = 128) -> tuple[int, ...]:
    """Berlekamp-Massey over ``Fraction``s, with the denominators cleared at
    the end: the independent oracle the fraction-free version is
    cross-checked against."""
    terms = [Fraction(v) for v in values]
    conn = [Fraction(1)]  # connection polynomial C(x)
    prev = [Fraction(1)]
    order = 0
    gap = 1
    prev_discrepancy = Fraction(1)
    for i, term in enumerate(terms):
        discrepancy = term + sum(conn[j] * terms[i - j] for j in range(1, order + 1))
        if discrepancy == 0:
            gap += 1
            continue
        scale = discrepancy / prev_discrepancy
        update = conn[:]
        needed = gap + len(prev)
        if len(update) < needed:
            update.extend([Fraction(0)] * (needed - len(update)))
        for j, c in enumerate(prev):
            update[gap + j] -= scale * c
        if 2 * order <= i:
            prev = conn
            prev_discrepancy = discrepancy
            order = i + 1 - order
            gap = 1
        else:
            gap += 1
        conn = update
    if order > max_order or 2 * order + 2 > len(terms) + 1:
        raise OrderExceeded(f"order {order} is over the cap or uncertified")
    conn = conn[: order + 1]
    for i in range(order, len(terms)):
        if sum(conn[j] * terms[i - j] for j in range(order + 1)) != 0:
            raise InvariantViolation("Berlekamp-Massey output fails on the training terms")
    denom = math.lcm(*(c.denominator for c in conn))
    ints = [c.numerator * (denom // c.denominator) for c in conn]
    content = math.gcd(*ints)
    return tuple(c // content if ints[0] > 0 else -c // content for c in ints)


def find_recurrence_integers(values, max_order: int = 128) -> tuple[int, ...]:
    """Fraction-free Berlekamp-Massey over the integers: rational terms are
    scaled by one common denominator, and C is updated as b C - d x^gap B,
    its content divided out each step.  The second independent oracle the
    modular version is cross-checked against."""
    values = [Fraction(v) for v in values]
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
    if order > max_order or 2 * order + 2 > len(terms) + 1:
        raise OrderExceeded(f"order {order} is over the cap or uncertified")
    conn = conn[: order + 1]
    for i in range(order, len(terms)):
        if sum(conn[j] * terms[i - j] for j in range(order + 1)) != 0:
            raise InvariantViolation("Berlekamp-Massey output fails on the training terms")
    content = math.gcd(*conn) if conn[0] > 0 else -math.gcd(*conn)
    return tuple(c // content for c in conn)

"""Polynomial arithmetic, Chebyshev machinery, resultants and roots."""

import functools
import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bforest import (
    IntPoly,
    exact_divide,
    roots_numeric,
    spectral_system,
    squarefree_part,
    tree_count_closed,
    validate_spec,
)
from bforest import polynomials
from bforest.errors import InexactDivision, NonConvergence, NonIntegralResult, ZeroPolynomial
from bforest.polynomials import (
    _chebyshev_u_mod,
    half_resultant,
    half_resultants,
    squarefree_layers,
    trace_polynomial,
)
from tests.conftest import (
    _cosine_coefficients,
    abs_resultant_with_power,
    as_mpc,
    chebyshev_T,
    cyclotomic_quotient,
    lift,
    lucas_mod,
    mahler_root_product,
    mpmath_roots,
    resultant,
    resultant_sylvester,
)

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(IntPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)
# trace polynomials K in x = z + 1/z, optionally with roots at x = +-2
# (z = +-1 double roots of the lifted polynomial); a lead off +-1 makes
# reducing modulo K need pseudo-division
trace_polys = st.builds(
    lambda low, lead, roots: functools.reduce(
        operator.mul, [IntPoly([-r, 1]) for r in roots], IntPoly(low + [lead])
    ),
    st.lists(st.integers(-9, 9), max_size=5),
    st.sampled_from([1, -1, -6, -3, -2, 2, 3, 5]),
    st.lists(st.sampled_from([2, -2]), max_size=2),
)


def lucas(m: int) -> IntPoly:
    """V_m with V_m(z + 1/z) = z^m + z^-m, by V_j+1 = x V_j - V_j-1."""
    a, b = IntPoly([2]), IntPoly([0, 1])
    for _ in range(m):
        a, b = b, IntPoly([0, 1]) * b - a
    return a


def chebyshev_u(k: int) -> IntPoly:
    """U_k with U_k(z + 1/z) = (z^(k+1) - z^-(k+1)) / (z - 1/z), U_-1 = 0."""
    a, b = IntPoly(), IntPoly([1])  # U_-1, U_0
    for _ in range(k):
        a, b = b, IntPoly([0, 1]) * b - a
    return b if k >= 0 else a


# ---------------------------------------------------------------- IntPoly


def test_intpoly_canonical_and_eval():
    p = IntPoly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p(3) == 7
    assert p(Fraction(1, 2)) == 2
    assert IntPoly([]).is_zero


@given(small_polys, small_polys, st.integers(-5, 5))
def test_intpoly_ring_laws_pointwise(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p - q)(x) == p(x) - q(x)


def test_intpoly_shift_and_derivative():
    p = IntPoly([1, 1])
    assert p.shift(2).coeffs == (0, 0, 1, 1)
    assert IntPoly([5, 3, 2]).derivative().coeffs == (3, 4)


# -------------------------------------------------------------- Chebyshev


@given(
    st.integers(0, 60),
    st.builds(Fraction, st.integers(-24, 24), st.integers(1, 8)),
)
@settings(max_examples=60)
def test_chebyshev_doubling_matches_three_term_recurrence(n, x):
    values = [Fraction(1), Fraction(x)]
    while len(values) <= n:
        values.append(2 * x * values[-1] - values[-2])
    assert chebyshev_T(n, x) == values[n]


@given(st.integers(0, 20), st.integers(0, 20))
@settings(max_examples=40)
def test_chebyshev_nesting(m, n):
    x = Fraction(3, 5)
    assert chebyshev_T(m, chebyshev_T(n, x)) == chebyshev_T(m * n, x)


def test_trace_polynomial_round_trip():
    eta = [10, -6, 1]  # the prism's base polynomial 10 - 6 (z + 1/z) + (z^2 + 1/z^2)
    k = trace_polynomial(eta)
    # K(z + 1/z) must reproduce P(z) at a rational point
    z = Fraction(3)
    assert k(z + 1 / z) == 10 - 6 * (z + 1 / z) + (z**2 + 1 / z**2)
    assert k.degree == 2
    assert k.lead == 1


def laurent_value(eta, z):
    """eta_0 + sum_j eta_j (z^j + z^-j) at a nonzero rational z."""
    return eta[0] + sum(c * (z**j + z**-j) for j, c in enumerate(eta) if j)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7))
def test_trace_polynomial_is_the_rescaled_chebyshev_transform(eta):
    k = trace_polynomial(eta)
    # K(x) = eta0 + sum_j 2 eta_j T_j(x/2), as V_j(x) = 2 T_j(x/2): equal at deg + 1 points
    for x in range(len(eta)):
        w = Fraction(x, 2)
        assert k(x) == eta[0] + sum(2 * c * chebyshev_T(j, w) for j, c in enumerate(eta) if j)
    top = max((j for j, c in enumerate(eta) if c), default=-1)
    assert k.degree == top
    # z^d K(z + 1/z) is the palindromic coefficient line of P
    line = IntPoly(list(reversed(eta[1 : top + 1])) + eta[: top + 1])
    assert lift(k) == line


@given(st.lists(st.integers(-9, 9), max_size=7))
def test_cosine_coefficients_invert_trace_polynomial(eta):
    # eta -> K -> eta, up to the trailing zeros K cannot see
    while eta and eta[-1] == 0:
        eta.pop()
    assert _cosine_coefficients(trace_polynomial(eta)) == eta


@given(small_polys, st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
def test_trace_polynomial_inverts_cosine_coefficients(k, z):
    # K -> eta -> K, and eta is the Laurent polynomial K(z + 1/z)
    eta = _cosine_coefficients(k)
    assert trace_polynomial(eta) == k
    assert len(eta) == k.degree + 1
    assert laurent_value(eta or [0], z) == k(z + 1 / z)


# ------------------------------------------------------------- resultants


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=150)
def test_resultant_matches_sylvester_determinant(f, g):
    assert resultant(f, g) == resultant_sylvester(f, g)


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=60)
def test_resultant_multiplicative_in_first_argument(f, g, h):
    assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


def test_resultant_known_value():
    # Res(x^2 - 1, x^2 - 4) = (1-2)(1+2)(-1-2)(-1+2) = 9
    assert resultant(IntPoly([-1, 0, 1]), IntPoly([-4, 0, 1])) == 9
    with pytest.raises(ZeroPolynomial):
        resultant(IntPoly([]), IntPoly([1]))


@given(trace_polys, st.integers(1, 200), st.sampled_from([-1, 1]))
@settings(max_examples=120, deadline=None)
def test_power_resultant_matches_direct(k, m, c):
    direct = abs(resultant(lift(k), IntPoly([c] + [0] * (m - 1) + [1])))
    assert abs_resultant_with_power(k, m, c) == direct


def test_power_resultant_rejects_negative_powers():
    with pytest.raises(ValueError):
        abs_resultant_with_power(IntPoly([-3, 1]), -3, 1)


@given(trace_polys.filter(lambda k: k.degree >= 1), st.integers(0, 200))
@settings(max_examples=80, deadline=None)
def test_lucas_mod_is_an_integral_pseudo_remainder(k, m):
    a, e = lucas_mod(k, m)
    assert len(a) <= k.degree  # deg A < deg K
    assert all(isinstance(c, int) for c in a)
    if abs(k.lead) == 1:
        assert e == 0
    # lc(K)^e V_m - A is a multiple of K over Z
    exact_divide(lucas(m) * k.lead**e - IntPoly(a), k)


@given(trace_polys.filter(lambda k: k.degree >= 1), st.integers(0, 200))
@settings(max_examples=80, deadline=None)
def test_chebyshev_u_mod_is_an_integral_pseudo_remainder(k, top):
    prefixes = _chebyshev_u_mod(k, top)
    assert [j for j, *_ in prefixes] == [top >> s for s in range(len(bin(top)) - 3, -1, -1)]
    for j, a, b, e in prefixes:
        a, b = IntPoly(a), IntPoly(b)
        assert a.degree < k.degree and b.degree < k.degree
        if abs(k.lead) == 1:
            assert e == 0
        # lc(K)^e U_j-1 - A and lc(K)^e U_j - B are multiples of K over Z
        exact_divide(chebyshev_u(j - 1) * k.lead**e - a, k)
        exact_divide(chebyshev_u(j) * k.lead**e - b, k)


X = IntPoly([0, 1])
# P of (c, m mod 2) as a linear form of the pair (U_k-1, U_k)
P_FORMS = {
    (-1, 0): lambda lo, hi: lo,
    (-1, 1): lambda lo, hi: hi + lo,
    (1, 0): lambda lo, hi: 2 * hi - X * lo,
    (1, 1): lambda lo, hi: hi - lo,
}


@pytest.mark.parametrize("j", range(41))
def test_chebyshev_products_split_the_doubling(j):
    u_lo, u = chebyshev_u(j - 1), chebyshev_u(j)
    assert chebyshev_u(2 * j - 1) == u_lo * lucas(j)
    assert chebyshev_u(2 * j) == (u + u_lo) * (u - u_lo)
    for form in P_FORMS.values():
        # (U_-eps-1, U_-eps) is (0, 1) at eps = 0 and (U_-2, U_-1) = (-1, 0) at eps = 1
        for eps, low in ((0, form(IntPoly(), IntPoly([1]))), (1, form(IntPoly([-1]), IntPoly()))):
            k = 2 * j + eps
            top = form(chebyshev_u(k - 1), chebyshev_u(k))
            assert top == form(u_lo, u) * lucas(j + eps) - low, (k, eps)


@given(trace_polys, st.integers(0, 200), st.sampled_from([-1, 1]))
@settings(max_examples=120, deadline=None)
def test_half_resultant_squares_to_the_lucas_oracle(k, m, c):
    assume(m > 0 or c > 0)  # z^0 - 1 is the zero polynomial
    fixed, root = half_resultant(k, m, c)
    assert abs(fixed) * root**2 == abs_resultant_with_power(k, m, c)


@pytest.mark.parametrize("coeffs", [[-3], [1, 3], [1, 1, 3], [2, -1, 0, -2], [-4, 0, 1, 5]])
def test_half_resultant_at_every_small_order(coeffs):
    # every order through the first reductions modulo K, both signs, with
    # non-monic and constant K
    k = IntPoly(coeffs)
    for m in range(1, 3 * k.degree + 6):
        for c in (-1, 1):
            fixed, root = half_resultant(k, m, c)
            assert abs(fixed) * root**2 == abs_resultant_with_power(k, m, c), (m, c)


@given(trace_polys, st.sampled_from([-1, 1]))
@example(IntPoly([-3]), -1)
@example(IntPoly([-3]), 1)
@example(IntPoly([1, 1, 3]), -1)
@settings(max_examples=60, deadline=None)
def test_half_resultants_sweep_what_half_resultant_doubles_to(k, c):
    # stepping U_k+1 = x U_k - U_k-1 keeps another power of lc K than the
    # doubling, but every order's answer is the same integer pair
    swept = half_resultants(k, c, 130)
    for m in range(1, 131):
        assert swept[m - 1] == half_resultant(k, m, c), m


@pytest.mark.parametrize(
    "coeffs", [[-3], [5], [1, 3], [1, 1, 3], [-4, 0, 1, 5], [2, -1, 0, -2, 1], [-1, 2, 1]]
)
@pytest.mark.parametrize("m", [2, 4, 6, 128, 192, 256, 384, 512])
def test_half_resultant_at_every_split_depth(coeffs, m):
    # m = 2^t (2h + 1) with t = 1..9 splits U_k-1 into t - 1 Lucas pieces and
    # the two U_h +- U_h-1 (none at h = 0); c = +1 takes the one top product
    k = IntPoly(coeffs)
    for c in (-1, 1):
        fixed, root = half_resultant(k, m, c)
        assert abs(fixed) * root**2 == abs_resultant_with_power(k, m, c), c


def test_split_resultants_take_at_most_half_the_bits(monkeypatch):
    # big at n = 2000: U_999 mod K, the one remainder the base factor would take
    # whole, against every input the split hands to the resultant
    spec = validate_spec({"n": 2000, "alphas": [1, 3, 5], "betas": [2, 7], "gammas": [0, 1, 4]})
    system = spectral_system(spec)
    ((k, c),) = system.trace_factors
    assert c == -1 and system.order(2000)[0] == 2000 and abs(k.lead) == 1
    whole = max(abs(y).bit_length() for y in _chebyshev_u_mod(k, 1000)[-1][1])
    real, sizes = polynomials._subresultants, []

    def record(f, g):
        sizes.append(max(abs(y).bit_length() for y in [*f, *g]))
        return real(f, g)

    monkeypatch.setattr(polynomials, "_subresultants", record)
    tree_count_closed(spec)
    assert len(sizes) > 1 and max(sizes) <= 0.55 * whole, (sizes, whole)


def test_half_resultant_rejects_a_witness_lc_does_not_divide(monkeypatch):
    # a non-monic K reduces P over a power of lc K, which Res(K, R) must carry;
    # a cubic K, so that R of degree 2 takes the subresultant sequence
    monkeypatch.setattr(polynomials, "_subresultants", lambda f, g: (1, [1]))
    with pytest.raises(NonIntegralResult, match=r"Res\(f, P\) for z\^50 -1 came out non-integral"):
        half_resultant(IntPoly([1, 1, 1, 3]), 50, -1)


def test_resultant_rejects_nonintegral_accumulator(monkeypatch):
    # a pseudo-remainder that over-reports its lc(b)^k scaling leaves 1/lc(b) behind
    monkeypatch.setattr(polynomials, "_pseudo_mod", lambda a, b: ([1], 2))
    with pytest.raises(NonIntegralResult):
        resultant(IntPoly([0, 0, 0, 1]), IntPoly([1, 0, 2]))


def test_resultant_rejects_a_nonintegral_subresultant(monkeypatch):
    # the second remainder, off by one, is not divisible by g h^delta = 4: the
    # sequence stops there, before its third pseudo-division
    real, calls = polynomials._pseudo_mod, []

    def off_by_one(r, b):
        rem, k = real(r, b)
        calls.append(b)
        if len(calls) == 2:
            rem[0] += 1
        return rem, k

    monkeypatch.setattr(polynomials, "_pseudo_mod", off_by_one)
    with pytest.raises(NonIntegralResult, match="a subresultant came out"):
        resultant(IntPoly([1, 2, 0, 3, 1]), IntPoly([3, 0, 1, 2]))
    assert len(calls) == 2


def test_cyclotomic_quotient():
    q = cyclotomic_quotient(5)
    assert q * IntPoly([-1, 1]) == IntPoly([-1, 0, 0, 0, 0, 1])


# --------------------------------------------------------------- division


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=80)
def test_exact_divide_inverts_multiplication(f, g):
    assert exact_divide(f * g, g) == f


def test_exact_divide_rejects_inexact():
    with pytest.raises(InexactDivision):
        exact_divide(IntPoly([1, 0, 1]), IntPoly([1, 1]))
    with pytest.raises(InexactDivision):
        # (x + 1)(x + 2) / (2x + 2): a rational quotient, not an integral one
        exact_divide(IntPoly([2, 3, 1]), IntPoly([2, 2]))


# -------------------------------------------------------- squarefree part


@given(st.integers(1, 10000))
def test_squarefree_reconstruction(u):
    v = squarefree_part(u)
    ratio = u // v
    assert u == v * ratio
    assert math.isqrt(ratio) ** 2 == ratio
    # v itself has no square divisor
    d = 2
    while d * d <= v:
        assert v % (d * d) != 0
        d += 1


# ------------------------------------------------------------------ roots


def test_roots_of_factored_polynomial():
    # (x-2)(x+3)(x^2+1): two real roots off circle, conjugate pair on it
    f = IntPoly([-2, 1]) * IntPoly([3, 1]) * IntPoly([1, 0, 1])
    roots = roots_numeric(f, digits=48)
    moduli = sorted(abs(r) for r, _ in roots)
    assert abs(moduli[0] - 1) < 1e-30 and abs(moduli[1] - 1) < 1e-30
    assert abs(moduli[2] - 2) < 1e-30
    assert abs(moduli[3] - 3) < 1e-30


def test_roots_raise_when_iteration_does_not_settle():
    # (z-1)^2 (z^2 - 4z + 1), the prism's base polynomial: Durand-Kerner
    # converges only linearly at the double root and exhausts its budget
    with pytest.raises(NonConvergence, match="400 steps on degree 4 at 64 digits"):
        roots_numeric(IntPoly([1, -6, 10, -6, 1]))
    # the measure splits it into square-free layers first: 2 + sqrt(3)
    measure = mahler_root_product(IntPoly([1, -6, 10, -6, 1])).value
    assert abs(measure - (2 + math.sqrt(3))) < 1e-12


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=80)
def test_squarefree_layers_multiply_back(f, g):
    p = f * f * g
    product = IntPoly([1])
    for layer in squarefree_layers(p):
        # a nonzero discriminant: no repeated root
        assert resultant(layer, layer.derivative()) != 0
        product = product * layer
    assert exact_divide(p, product).degree == 0


def test_roots_error_bounds_cover_true_roots():
    f = IntPoly([-6, 11, -6, 1])  # roots 1, 2, 3
    for root, radius in roots_numeric(f, digits=40):
        assert min(abs(root - k) for k in (1, 2, 3)) <= max(radius, 1e-35)


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=12),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    st.sampled_from([40, 64]),
)
@settings(max_examples=40, deadline=None)
def test_roots_agree_with_mpmath_polyroots(low, lead, digits):
    # mpmath's Durand-Kerner, which roots_numeric ports to decimal, is the
    # independent reference: on a square-free integer polynomial of degree
    # up to 12, each root lies within the two radii and the rounding of the other
    f = squarefree_layers(IntPoly(low + [lead]))[0]
    assume(f.degree >= 1)
    ours, theirs = roots_numeric(f, digits), mpmath_roots(f, digits)
    assert len(ours) == len(theirs) == f.degree
    with mpmath.workdps(digits + 30):
        for root, radius in ours:
            x = as_mpc(root)
            y, other = theirs.pop(min(range(len(theirs)), key=lambda j: abs(theirs[j][0] - x)))
            assert abs(x - y) <= radius + other + mpmath.mpf(10) ** -(digits + 9) * max(1, abs(x))


@pytest.mark.parametrize(
    "true_roots", [[1000, 2000, 3000], [37 * k for k in range(1, 11)]], ids=["thousands", "37k"]
)
def test_roots_of_large_modulus_settle_and_are_covered(true_roots):
    # the iteration stops on an absolute step, so roots in the thousands need
    # its working bits above digits + 10 to settle
    f = functools.reduce(operator.mul, (IntPoly([-r, 1]) for r in true_roots))
    found = roots_numeric(f, digits=64)
    assert sorted(round(float(root.real)) for root, _ in found) == true_roots
    for root, radius in found:
        assert min(abs(root - r) for r in true_roots) <= max(radius, 1e-59)

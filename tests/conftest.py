"""Shared fixtures: the four worked-example connection specs and helpers."""

import math
import random
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from bforest import IntPoly, det_fraction_free, is_connected, realize, validate_spec
from bforest.errors import InvariantViolation, OrderExceeded, ZeroPolynomial


def connected_by_search(spec) -> bool:
    """Breadth-first search over the realized adjacency: the ground truth
    the arithmetic connectivity test is cross-checked against."""
    adj = realize(spec).adjacency
    total = len(adj)
    seen = [False] * total
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in np.nonzero(adj[v])[0]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(int(w))
    return count == total


def sylvester_matrix(f, g):
    n, m = f.degree, g.degree
    size = n + m
    fdesc = list(reversed(f.coeffs))
    gdesc = list(reversed(g.coeffs))
    rows = [[0] * i + fdesc + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + gdesc + [0] * (size - m - 1 - i) for i in range(n)]
    return rows


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


def lift(k: IntPoly) -> IntPoly:
    """z^d K(z + 1/z) with d = deg K, a palindromic polynomial of degree 2d:
    a trace polynomial as a polynomial in z, for the z-domain oracles."""
    out, power = IntPoly(), IntPoly([1])  # power = (z^2 + 1)^i
    for i, c in enumerate(k.coeffs):
        out = out + (power * c).shift(k.degree - i)
        power = power * IntPoly([1, 0, 1])
    return out


def cyclotomic_quotient(n: int):
    """(z^n - 1)/(z - 1) = 1 + z + ... + z^(n-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return IntPoly([1] * n)


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

"""Spanning-tree counts from outside this package, against the closed form.

Every other exact check compares the package with itself: the closed form,
the oracle and the Chebyshev product share the spec model.  These values come
from published closed forms, or from a graph's spectrum, and share no code
with the resultants.  V_n = (2 + sqrt 3)^n + (2 - sqrt 3)^n is an integer
sequence, stepped here by V_0 = 2, V_1 = 4, V_k+1 = 4 V_k - V_k-1.
"""

import math
from fractions import Fraction

import pytest

from bforest import tree_count_closed, tree_count_oracle, validate_spec


def lucas_v(orders):
    """{n: V_n} for each n in ``orders``."""
    wanted, out = set(orders), {}
    v, ahead = 2, 4  # V_0, V_1
    for n in range(max(wanted) + 1):
        if n in wanted:
            out[n] = v
        v, ahead = ahead, 4 * ahead - v
    return out


PRISM_ORDERS = [3, 4, 5, 10, 50, 200, 40000]


def test_prism_counts_match_boesch_prodinger():
    # C_n x K_2: tau = n (V_n - 2) / 2 (Boesch & Prodinger, Graphs Combin. 2, 1986),
    # at n = 4e4 past the oracle's cap
    v = lucas_v(PRISM_ORDERS)
    for n in PRISM_ORDERS:
        spec = validate_spec({"n": n, "alphas": [1], "betas": [1], "gammas": [0]})
        assert tree_count_closed(spec).tau == n * (v[n] - 2) // 2, n


def mobius_ladder(n):
    """The Moebius ladder with n rungs: at odd n the spokes 0, (n - 1)/2 and
    n - 1 and no layer edges; at even n the spokes 0 and n - 1 and both n/2 chords."""
    if n % 2:
        return validate_spec({"n": n, "alphas": [], "betas": [], "gammas": [0, (n - 1) // 2, n - 1]})
    return validate_spec({"n": n, "gammas": [0, n - 1], "half_r": True, "half_t": True})


def test_mobius_ladder_counts_match_sedlacek():
    # tau = n (V_n + 2) / 2 (Sedlacek, 1970; Boesch & Prodinger 1986)
    v = lucas_v(range(3, 12))
    for n in range(3, 12):
        spec = mobius_ladder(n)
        expected = n * (v[n] + 2) // 2
        assert tree_count_closed(spec).tau == tree_count_oracle(spec) == expected, n


@pytest.mark.parametrize("n", [3, 4, 5])
def test_complete_bipartite_counts_match_scoins(n):
    # K_{n,n}, every spoke and no layer edges: tau = n^(2n - 2) (Scoins, 1962)
    spec = validate_spec({"n": n, "alphas": [], "betas": [], "gammas": list(range(n))})
    assert tree_count_closed(spec).tau == n ** (2 * n - 2)


def kirchhoff(vertices, laplacian):
    """tau = (1/V) prod of the nonzero Laplacian eigenvalues, given as (value,
    multiplicity) pairs; a conjugate pair a -+ sqrt b enters as a^2 - b."""
    return math.prod(Fraction(value) ** mult for value, mult in laplacian) / vertices


def test_petersen_graph_has_2000_spanning_trees():
    # GP(5, 2) is the Kneser graph K(5, 2), adjacency spectrum 3, 1^5, (-2)^4
    # (Lovasz, IEEE Trans. Inf. Theory 25, 1979): Laplacian 3 - lambda, 2^5 5^4 over 10
    assert kirchhoff(10, [(2, 5), (5, 4)]) == 2000
    spec = validate_spec({"n": 5, "alphas": [1], "betas": [2], "gammas": [0]})
    assert tree_count_closed(spec).tau == tree_count_oracle(spec) == 2000


def test_dodecahedron_has_5184000_spanning_trees():
    # computed, not cited: GP(10, 2) with the adjacency spectrum 3, sqrt5^3,
    # 1^5, 0^4, (-2)^4, (-sqrt5)^3: Laplacian 3 - lambda, and each pair 3 -+ sqrt5 gives 4
    assert kirchhoff(20, [(4, 3), (2, 5), (3, 4), (5, 4)]) == 5_184_000
    spec = validate_spec({"n": 10, "alphas": [1], "betas": [2], "gammas": [0]})
    assert tree_count_closed(spec).tau == tree_count_oracle(spec) == 5_184_000

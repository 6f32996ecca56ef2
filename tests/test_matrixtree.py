"""Fraction-free determinant and the Kirchhoff spanning-tree oracle."""

import math
import random

import pytest

from bforest import det_fraction_free, laplacian, realize, tree_count_oracle, validate_spec


def brute_force_det(matrix):
    """Leibniz expansion; only for tiny matrices."""
    size = len(matrix)
    if size == 0:
        return 1
    total = 0
    import itertools

    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def test_determinant_matches_leibniz_on_random_matrices():
    rng = random.Random(7)
    for _ in range(50):
        size = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
        assert det_fraction_free(m) == brute_force_det(m)


def test_determinant_edge_cases():
    assert det_fraction_free([]) == 1
    assert det_fraction_free([[0, 1], [1, 0]]) == -1
    assert det_fraction_free([[2, 4], [1, 2]]) == 0
    with pytest.raises(ValueError):
        det_fraction_free([[1, 2]])


def test_determinant_is_multiplicative_in_scaling():
    m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    d = det_fraction_free(m)
    doubled = [[2 * x for x in row] for row in m]
    assert det_fraction_free(doubled) == 8 * d


def test_laplacian_rows_sum_to_zero():
    g = realize(validate_spec({"n": 5, "alphas": [1, 2], "betas": [1], "gammas": [0, 3]}))
    lap = laplacian(g)
    for row in lap:
        assert sum(row) == 0


def test_oracle_complete_bipartite():
    # gammas = all residues with no layer edges gives K_{n,n}; its tree
    # count is the classical n^(n-1) * n^(n-1) = n^(2n-2)
    n = 4
    spec = validate_spec({"n": n, "alphas": [], "betas": [], "gammas": list(range(n))})
    assert tree_count_oracle(spec) == n ** (2 * n - 2)


def test_oracle_cycle():
    # one layer a cycle, the other layer's vertices hanging off by spokes:
    # pendant edges do not change the count, so tau = tau(C_n) = n
    spec = validate_spec({"n": 7, "alphas": [1], "betas": [], "gammas": [0]})
    assert tree_count_oracle(spec) == 7


def test_oracle_zero_for_disconnected():
    spec = validate_spec({"n": 8, "alphas": [2], "betas": [2], "gammas": [0]})
    assert tree_count_oracle(spec) == 0


def test_oracle_prism_and_moebius():
    prism = validate_spec({"n": 3, "alphas": [1], "betas": [1], "gammas": [0]})
    assert tree_count_oracle(prism) == 75
    cube = validate_spec({"n": 4, "alphas": [1], "betas": [1], "gammas": [0]})
    assert tree_count_oracle(cube) == 384


def test_oracle_rejects_negative_cofactor(monkeypatch):
    # a typed error, not an assert, so the check survives python -O
    from bforest import InvariantViolation, matrixtree

    monkeypatch.setattr(matrixtree, "laplacian", lambda g: [[-1, 1], [1, -1]])
    with pytest.raises(InvariantViolation):
        tree_count_oracle(validate_spec({"n": 3, "alphas": [1], "betas": [1], "gammas": [0]}))


def test_oracle_refuses_graphs_above_the_cap(monkeypatch):
    # the size check runs before the adjacency is built
    from bforest import GraphRealization, OutOfRange, matrixtree

    class Realized(Exception):
        pass

    def refuse(spec):
        raise Realized

    monkeypatch.setattr(matrixtree, "realize", refuse)
    top = matrixtree.MAX_ORACLE_VERTICES // 2
    at_cap, over = (
        validate_spec({"n": n, "alphas": [1], "betas": [1], "gammas": [0]}) for n in (top, top + 1)
    )
    with pytest.raises(Realized):
        tree_count_oracle(at_cap)
    with pytest.raises(OutOfRange):
        tree_count_oracle(over)
    with pytest.raises(OutOfRange):
        tree_count_oracle(GraphRealization(over, adjacency=None))

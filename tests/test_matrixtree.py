"""Fraction-free determinant and the Kirchhoff spanning-tree oracle."""

import importlib
import math
import pathlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bforest import (
    InvariantViolation,
    is_connected,
    realize,
    tree_count_closed,
    tree_count_oracle,
    validate_spec,
)
from bforest.matrixtree import MAX_ORACLE_VERTICES, _det_semidefinite, _reverse_cuthill_mckee
from tests.conftest import det_bareiss_dense, det_fraction_free, random_connected_specs


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


def laplacian(spec):
    """L = diag(degrees) - A as dense rows, built from the neighbour lists."""
    neighbours = realize(spec)
    lap = [[0] * len(neighbours) for _ in neighbours]
    for v, adjacent in enumerate(neighbours):
        lap[v][v] = len(adjacent)
        for w in adjacent:
            lap[v][w] = -1
    return lap


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
    lap = laplacian(validate_spec({"n": 5, "alphas": [1, 2], "betas": [1], "gammas": [0, 3]}))
    for row in lap:
        assert sum(row) == 0
    assert lap == [list(col) for col in zip(*lap)]


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
    from bforest import matrixtree

    monkeypatch.setattr(matrixtree, "_det_semidefinite", lambda rows: -1)
    spec = validate_spec({"n": 1, "alphas": [], "betas": [], "gammas": [0]})
    with pytest.raises(InvariantViolation):
        tree_count_oracle(spec)


def test_oracle_refuses_graphs_above_the_cap(monkeypatch):
    # the size check runs before the graph is built
    from bforest import OutOfRange, matrixtree

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


NONZERO = [x for x in range(-9, 10) if x]


def random_matrix(rng, size, density):
    return [[rng.choice(NONZERO) if rng.random() < density else 0 for _ in range(size)] for _ in range(size)]


def as_nonzeros(matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


@given(st.integers(0, 12), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_sparse_determinant_matches_the_dense_oracle(size, density, seed):
    m = random_matrix(random.Random(seed), size, density)
    expected = det_bareiss_dense(m)
    assert det_fraction_free(m) == expected
    assert det_fraction_free(as_nonzeros(m)) == expected


@given(st.integers(2, 12), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_sparse_determinant_of_a_singular_matrix_is_zero(size, density, seed, by_columns):
    # one row an integer combination of two others (or of one, or zero)
    rng = random.Random(seed)
    m = random_matrix(rng, size, density)
    target, *others = rng.sample(range(size), min(size, 3))
    a, b = others[0], others[-1]
    u, v = rng.randint(-3, 3), rng.randint(-3, 3)
    m[target] = [u * x + v * y for x, y in zip(m[a], m[b])]
    if by_columns:
        m = [list(col) for col in zip(*m)]
    assert det_fraction_free(m) == 0 == det_bareiss_dense(m)
    assert det_fraction_free(as_nonzeros(m)) == 0


@given(st.integers(3, 12), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_sparse_determinant_swaps_rows_at_a_zero_pivot(size, seed, at_start):
    # the leading (k+1)-minor vanishes, so step k needs a row swap: at k = 0
    # a zero corner, in the middle a row whose head is a combination of the
    # rows above it
    rng = random.Random(seed)
    m = random_matrix(rng, size, 1.0)
    k = 0 if at_start else rng.randint(1, size - 2)
    weights = [rng.randint(-2, 2) for _ in range(k)]
    m[k][: k + 1] = [sum(w * m[r][j] for r, w in enumerate(weights)) for j in range(k + 1)]
    assert det_bareiss_dense([row[: k + 1] for row in m[: k + 1]]) == 0
    expected = det_bareiss_dense(m)
    assert det_fraction_free(m) == expected
    assert det_fraction_free(as_nonzeros(m)) == expected


LAPLACIAN_SPECS = random_connected_specs(60, seed=14, n_max=12, r_max=3, t_max=3, s_max=3)


@given(st.sampled_from(LAPLACIAN_SPECS), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sparse_determinant_of_a_permuted_laplacian(spec, seed):
    lap = laplacian(spec)
    perm = list(range(len(lap)))
    random.Random(seed).shuffle(perm)
    permuted = [[lap[i][j] for j in perm] for i in perm]
    assert det_fraction_free(permuted) == 0
    reduced = [row[:-1] for row in permuted[:-1]]
    assert det_fraction_free(reduced) == det_bareiss_dense(reduced) == tree_count_oracle(spec)


def test_sparse_rows_outside_the_matrix_are_refused():
    with pytest.raises(ValueError):
        det_fraction_free([{0: 1}, {2: 1}])
    assert det_fraction_free([{1: 2}, {0: 3, 1: 0}]) == -6


def upper(matrix):
    """The nonzeros of a square matrix on and above the diagonal, by row."""
    return [{j: x for j, x in enumerate(row) if j >= i and x} for i, row in enumerate(matrix)]


@given(st.integers(0, 10), st.integers(0, 12), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_semidefinite_determinant_of_a_gram_matrix(size, depth, density, seed):
    # B^T B is semidefinite, and singular when B has fewer rows than columns
    rng = random.Random(seed)
    b = [[rng.choice(NONZERO) if rng.random() < density else 0 for _ in range(size)] for _ in range(depth)]
    gram = [[sum(row[i] * row[j] for row in b) for j in range(size)] for i in range(size)]
    expected = det_bareiss_dense(gram)
    assert _det_semidefinite(upper(gram)) == expected
    if depth < size:
        assert expected == 0


@given(st.integers(2, 12), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_semidefinite_determinant_of_a_weighted_laplacian(size, density, seed):
    # a reduced Laplacian of a random graph with edge weights 1-5, connected
    # or not: its determinant counts weighted spanning trees
    rng = random.Random(seed)
    lap = [[0] * size for _ in range(size)]
    for v in range(size):
        for w in range(v + 1, size):
            if rng.random() < density:
                weight = rng.randint(1, 5)
                lap[v][w] = lap[w][v] = -weight
                lap[v][v] += weight
                lap[w][w] += weight
    reduced = [row[:-1] for row in lap[:-1]]
    assert _det_semidefinite(upper(lap)) == 0
    assert _det_semidefinite(upper(reduced)) == det_bareiss_dense(reduced) >= 0


def test_semidefinite_determinant_edge_cases():
    assert _det_semidefinite([]) == 1
    assert _det_semidefinite(upper([[4, 2], [2, 1]])) == 0
    # a zero pivot with a nonzero rest, and a negative pivot: not semidefinite,
    # a typed error that survives python -O
    for matrix in ([[0, 1], [1, 0]], [[-1]], [[1, 2], [2, 1]]):
        with pytest.raises(InvariantViolation):
            _det_semidefinite(upper(matrix))


@pytest.mark.parametrize("family", [1, 4])
def test_oracle_matches_the_closed_form_at_the_cap(family_specs, family):
    spec = replace(family_specs[family], n=MAX_ORACLE_VERTICES // 2)
    assert tree_count_oracle(spec) == tree_count_closed(spec).tau


@pytest.mark.parametrize("family", [1, 2, 3, 4])
def test_oracle_is_invariant_under_relabelling(family_specs, family):
    # shifting every gamma by c relabels the left layer: an isomorphic graph
    spec = replace(family_specs[family], n=100, alphas=(1, 2), gammas=(0, 5))
    tau = tree_count_oracle(spec)
    assert tau == tree_count_closed(spec).tau
    for c in (1, 37, 99):
        shifted = replace(spec, gammas=tuple(sorted((g + c) % spec.n for g in spec.gammas)))
        assert tree_count_oracle(shifted) == tau, c


@pytest.mark.parametrize(
    "data",
    [
        {"n": 100, "alphas": [2], "betas": [2], "gammas": [0, 4]},
        {"n": 100, "alphas": [1], "betas": [1], "gammas": []},
        {"n": 100, "alphas": [4], "betas": [6], "gammas": [0, 2], "half_r": True, "half_t": True},
    ],
)
def test_oracle_is_zero_when_the_search_restarts(data):
    spec = validate_spec(data)
    assert not is_connected(spec)
    assert tree_count_oracle(spec) == 0


def test_reverse_cuthill_mckee_bandwidth_does_not_grow_with_n(family_specs):
    def bandwidth(spec):
        neighbours = realize(spec)
        place = {v: p for p, v in enumerate(_reverse_cuthill_mckee(neighbours))}
        return max(abs(place[v] - place[w]) for v, adjacent in enumerate(neighbours) for w in adjacent)

    for spec in family_specs.values():
        assert bandwidth(replace(spec, n=100)) == bandwidth(replace(spec, n=400)) <= 10


def eccentricity(neighbours, root):
    distance = {root: 0}
    queue = [root]
    for v in queue:
        for w in neighbours[v]:
            if w not in distance:
                distance[w] = distance[v] + 1
                queue.append(w)
    return max(distance.values())


@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_reverse_cuthill_mckee_starts_at_a_peripheral_vertex_of_a_tree(size, seed):
    # in a tree, a vertex farthest from any vertex ends a longest path, so the
    # pseudo-peripheral search finds a root whose eccentricity is the diameter
    rng = random.Random(seed)
    label = list(range(size))
    rng.shuffle(label)
    neighbours = [[] for _ in range(size)]
    for v in range(1, size):
        u = rng.randrange(v)
        neighbours[label[u]].append(label[v])
        neighbours[label[v]].append(label[u])
    for adjacent in neighbours:
        adjacent.sort()
    diameter = max(eccentricity(neighbours, v) for v in range(size))
    assert eccentricity(neighbours, _reverse_cuthill_mckee(neighbours)[-1]) == diameter


def test_reverse_cuthill_mckee_does_not_start_in_the_middle_of_a_path():
    # the path 3 - 1 - 0 - 2 - 4: a search from vertex 0 has eccentricity 2
    neighbours = [[1, 2], [0, 3], [0, 4], [1], [2]]
    order = _reverse_cuthill_mckee(neighbours)
    assert sorted(order) == list(range(5))
    assert eccentricity(neighbours, order[-1]) == 4


@pytest.mark.parametrize(
    "data, searches",
    [
        ({"n": 3, "alphas": [1], "betas": [1], "gammas": [0]}, 2),
        ({"n": 100, "alphas": [1], "betas": [], "gammas": [0], "half_t": True}, 3),
    ],
    ids=["prism", "family3-100"],
)
def test_reverse_cuthill_mckee_orders_by_the_search_that_found_its_start(monkeypatch, data, searches):
    # the George-Liu searches from vertex 0 and from the start it settles on;
    # the start's own levels are the order, not searched for a second time
    from bforest import matrixtree

    calls, real = [], matrixtree._levels
    monkeypatch.setattr(matrixtree, "_levels", lambda *args: calls.append(args[1]) or real(*args))
    spec = validate_spec(data)
    assert tree_count_oracle(spec) == tree_count_closed(spec).tau
    assert len(calls) == searches


def reduced_laplacian(size, edges, drop):
    """The Laplacian of weighted ``edges`` (v, w, weight) on ``size`` vertices,
    less row and column ``drop``, in natural order."""
    lap = [[0] * size for _ in range(size)]
    for v, w, weight in edges:
        lap[v][w] -= weight
        lap[w][v] -= weight
        lap[v][v] += weight
        lap[w][w] += weight
    return [row[:drop] + row[drop + 1 :] for row in lap[:drop] + lap[drop + 1 :]]


def lucas(k):
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("size", [3, 4, 7, 20, 41])
def test_semidefinite_determinant_with_entries_stale_for_many_steps(size):
    # in natural order each step updates a wrap column (the cycle less a middle
    # vertex keeps its edge 0 - (size - 1); the wheel keeps its hub, last)
    # while the band ahead of the pivot goes untouched for many steps
    cycle = reduced_laplacian(size, [(v, (v + 1) % size, 1) for v in range(size)], size // 2)
    hub = size
    rim = [(v, (v + 1) % size, 1) for v in range(size)] + [(v, hub, 1) for v in range(size)]
    wheel = reduced_laplacian(size + 1, rim, size - 1)
    assert _det_semidefinite(upper(cycle)) == det_bareiss_dense(cycle) == size
    assert _det_semidefinite(upper(wheel)) == det_bareiss_dense(wheel) == lucas(2 * size) - 2


@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_semidefinite_determinant_of_an_arrowhead_matrix(size, seed):
    # diagonal heads, one dense last column: each step updates only the corner,
    # and every other entry is read once, at its own row's step
    rng = random.Random(seed)
    heads = [rng.randint(1, 5) for _ in range(size)]
    column = [rng.randint(-3, 3) for _ in range(size)]
    matrix = [[0] * (size + 1) for _ in range(size + 1)]
    for i, (head, b) in enumerate(zip(heads, column)):
        matrix[i][i], matrix[i][size], matrix[size][i] = head, b, b
    matrix[size][size] = sum(b * b for b in column) + rng.randint(0, 2)  # >= sum b^2 / head
    assert _det_semidefinite(upper(matrix)) == det_bareiss_dense(matrix) >= 0


@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_semidefinite_determinant_of_a_banded_matrix_with_a_gap(size, seed):
    # a weighted Laplacian with edges 1 and 3 apart, none 2 apart, and one
    # edge 1 apart missing: fill enters the gap, and entries past the missing
    # edge stay stale
    rng = random.Random(seed)
    missing = rng.randrange(size - 1)
    edges = [(v, v + d, rng.randint(1, 5)) for d in (1, 3) for v in range(size - d) if (v, d) != (missing, 1)]
    reduced = reduced_laplacian(size, edges, size - 1)
    assert _det_semidefinite(upper(reduced)) == det_bareiss_dense(reduced) >= 0


@pytest.mark.parametrize("family, divisions", [(1, 2925), (4, 2263)])
def test_oracle_divides_only_what_it_reads(monkeypatch, family_specs, family, divisions):
    # entry stamps: a step divides only its tail block and the stale entries it
    # reads; rescaling whole rows took 3787 and 2870 divisions
    from bforest import matrixtree

    calls = []

    def counted(numerator, divisor):
        calls.append(divisor)
        return divmod(numerator, divisor)

    spec = replace(family_specs[family], n=100)
    monkeypatch.setattr(matrixtree, "divmod", counted, raising=False)
    assert tree_count_oracle(spec) == tree_count_closed(spec).tau
    assert len(calls) == divisions


def test_bench_oracle_genfun_tasks_give_their_reference_answers(monkeypatch):
    # bench/worker.py runs each oracle-genfun task through run_task and checks
    # the answer against bench/references.json; a change that breaks one of
    # them fails here, before any bench run
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "bench"))
    worker = importlib.import_module("worker")
    workloads, references = worker.workloads, worker.load_references()["oracle-genfun"]
    tasks = worker.prepare(workloads.plan(workloads.WORKLOADS["oracle-genfun"], seed=1))
    assert [task.case.kind for task, _ in tasks] == ["oracle"] * 8 + ["genfun"]
    for task, spec in tasks:
        worker.check(worker.answer_of(worker.run_task(task.case.kind, spec, task.case)), references.get(task.id))

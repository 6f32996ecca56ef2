"""Property tests of the trace table over random connected specs in all
four families: every fold over ``SpectralSystem.trace_factors`` agrees with
its independent cross-check, and every per-order table refuses the same
orders."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bforest import (
    ConnectionSpec,
    OutOfRange,
    convergence_report,
    find_recurrence,
    growth_base,
    is_connected,
    spectral_system,
    tau_sequence,
    tree_count_chebyshev,
    tree_count_closed,
    tree_count_oracle,
    validate_spec,
    verify_square_structure,
)
from bforest.cli import run
from tests.conftest import lift, mahler_root_product, random_connected_specs


@st.composite
def connected_specs(draw):
    family = draw(st.sampled_from([1, 2, 3, 4]))
    half_r, half_t = family in (2, 4), family in (3, 4)
    n = 2 * draw(st.integers(2, 5)) if family > 1 else draw(st.integers(3, 10))
    top = (n - 1) // 2
    spec = validate_spec(
        {
            "n": n,
            "alphas": draw(st.lists(st.integers(1, top), max_size=2, unique=True)),
            "betas": draw(st.lists(st.integers(1, top), max_size=2, unique=True)),
            "gammas": draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)),
            "half_r": half_r,
            "half_t": half_t,
        }
    )
    assume(is_connected(spec))
    return spec


@given(connected_specs())
@settings(max_examples=30, deadline=None)
# spectral polynomials in z^3: double roots at the primitive cube roots of
# unity, which only the square-free split lets Durand-Kerner resolve
@example(validate_spec({"n": 7, "alphas": [3], "betas": [], "gammas": [0]}))
@example(validate_spec({"n": 8, "alphas": [3], "betas": [3], "gammas": [0], "half_r": True}))
def test_factor_table_folds_agree_with_cross_checks(spec):
    tau = tree_count_closed(spec)
    assert tau.tau == tree_count_oracle(spec)

    witness = verify_square_structure(spec, tau)
    assert witness.cofactor * witness.witness**2 == tau.tau

    value, rel_error = tree_count_chebyshev(spec)
    assert abs(Fraction(value) / tau.tau - 1) <= max(10 * rel_error, 1e-50)

    factors = spectral_system(spec).trace_factors
    product = math.prod(mahler_root_product(lift(k)).value for k, _ in factors)
    assert math.isclose(growth_base(spec).value, product, rel_tol=1e-12)


def _count_rows(capsys, spec, start, end):
    assert run(["count", "--spec", spec.to_json(), "--n-start", str(start), "--n-end", str(end)]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


REFUSALS = {
    "group order must be positive": "n < 1",
    "outside (0, n/2)": "generator at or past n/2",
    "requires even n": "half flag at odd n",
    "is not connected": "disconnected",
}


def test_convergence_rows_refuse_the_orders_count_refuses(capsys):
    # the convergence rows once gave a formal count at 380 of these 1860
    # orders, 277 of them not the graph's count
    specs = random_connected_specs(60, seed=7, n_max=16, r_max=3, t_max=3, s_max=3)
    assert {spec.family for spec in specs} == {1, 2, 3, 4}
    kinds = set()
    for spec in specs:
        count = _count_rows(capsys, spec, -1, 29)
        convergence = convergence_report(spec, range(-1, 30))
        errors = {row["n"]: row["error"] for row in count if "error" in row}
        assert {row["n"]: row["error"] for row in convergence if "error" in row} == errors, spec
        kinds |= {kind for text in errors.values() for part, kind in REFUSALS.items() if part in text}
        for row, at_count in zip(convergence, count):
            if "tau" in row:
                assert row["tau"] == at_count["tau"], (spec, row["n"])
                assert tree_count_oracle(replace(spec, n=row["n"])) == row["tau"], (spec, row["n"])
    assert kinds == set(REFUSALS.values())


def test_orders_where_a_generator_reaches_n_over_2_have_no_count(capsys):
    # alpha = 2 at n = 4 is the chord n/2 taken twice: its convergence row
    # once read tau = 196, where the simple graph, spelled with half_r, has 64
    spec = validate_spec({"n": 5, "alphas": [2], "betas": [1], "gammas": [0]})
    [row] = convergence_report(spec, [4])
    assert [row] == _count_rows(capsys, spec, 4, 4)
    assert set(row) == {"n", "error", "error_type"} and "alpha=2 outside" in row["error"]
    assert row["error_type"] == "OutOfRange"
    # the refused order leaves the next one's row as the count gives it
    rows = convergence_report(spec, [4, 5])
    assert rows[0] == row and rows[1]["tau"] == tree_count_closed(spec).tau
    simple = validate_spec({"n": 4, "betas": [1], "gammas": [0], "half_r": True})
    assert tree_count_closed(simple).tau == tree_count_oracle(simple) == 64
    # the prism at n = 2 once counted 12 in closed form and 4 by the oracle
    with pytest.raises(OutOfRange):
        ConnectionSpec(2, (1,), (1,), (0,))
    prism = ConnectionSpec(3, (1,), (1,), (0,))
    [row] = convergence_report(prism, [2])
    assert [row] == _count_rows(capsys, prism, 2, 2) and set(row) == {"n", "error", "error_type"}


def test_spectral_degree_bounds_the_recurrence_order():
    # D <= 2, so bound <= 18; 2 bound + 2 terms fix the minimal recurrence,
    # which 28 more terms do not change
    specs = random_connected_specs(150, seed=5, n_max=12, r_max=1, t_max=1, s_max=2)
    checked = set()
    for spec in specs:
        bound = spectral_system(spec).recurrence_bound
        if bound > 18:
            continue
        seq = tau_sequence(spec, 2 * bound + 30)
        recurrence = find_recurrence(seq)
        assert len(recurrence) - 1 <= bound, spec
        assert find_recurrence(seq.values[: 2 * bound + 2], max_order=bound) == recurrence, spec
        checked.add(spec.family)
    assert checked == {1, 2, 3, 4}


@given(connected_specs())
@settings(max_examples=30, deadline=None)
def test_peeled_recurrence_equals_the_direct_one(spec):
    # a TauSequence finds the recurrence of tau_m D / m at half the order and
    # squares it; the same terms as a list take the direct path
    bound = spectral_system(spec).recurrence_bound
    assume(bound <= 162)
    seq = tau_sequence(spec, 2 * bound + 2)
    assert find_recurrence(seq, max_order=bound) == find_recurrence(list(seq.values), max_order=bound)

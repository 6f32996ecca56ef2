"""Spectral systems and the closed-form / Chebyshev counting paths."""

import dataclasses
import hashlib
import importlib
import pathlib
from fractions import Fraction

import mpmath
import pytest

import bforest
from bforest import (
    BforestError,
    ConnectionSpec,
    DegenerateSystem,
    HalfWithoutEvenN,
    IntPoly,
    NotConnected,
    OutOfRange,
    closed_count_formal,
    convergence_report,
    exact_divide,
    spectral_system,
    tree_count_chebyshev,
    tree_count_closed,
    tree_count_oracle,
    trace_polynomial,
    validate_spec,
    verify_square_structure,
)
from tests.conftest import (
    ZERO_BASE,
    _cosine_coefficients,
    as_mpc,
    base_and_family,
    lift,
    random_connected_specs,
)


def test_prism_spectral_polynomials(family_specs):
    sys = spectral_system(family_specs[1])
    # B = x^2 - 6x + 8 = (x - 2)(x - 4), and the table holds B / (x - 2) alone
    assert _cosine_coefficients(base_and_family(sys)[0]) == [10, -6, 1]
    assert sys.trace_factors == ((IntPoly([-4, 1]), -1),)
    assert sys.degeneracy == 2
    assert sys.spokes == 1


def test_variant_family_polynomials(family_specs):
    # with one alpha, no betas and a single spoke the three variants have
    # the documented low-degree family polynomials, read as cosine coefficients
    for fam, family in ((2, [4, -1]), (3, [8, -3]), (4, [14, -3])):
        sys = spectral_system(family_specs[fam])
        assert [c for _, c in sys.trace_factors] == [1, -1]
        assert [_cosine_coefficients(k) for k in base_and_family(sys)] == [[2, -1], family]


def test_spectral_polynomials_are_the_laurent_products():
    # the trace polynomials, formed in x, against R, L and the spoke Gram
    # C(1/z) C(z) summed in z straight from the spec, at x = z + 1/z
    z = Fraction(3, 2)
    specs = random_connected_specs(40, seed=5, n_max=16, r_max=3, t_max=3, s_max=3)
    assert {spec.family for spec in specs} == {1, 2, 3, 4}
    for spec in specs:
        right = 2 * spec.r + spec.s - sum(z**a + z**-a for a in spec.alphas)
        left = 2 * spec.t + spec.s - sum(z**b + z**-b for b in spec.betas)
        gram = sum(z ** (gl - gk) for gl in spec.gammas for gk in spec.gammas)
        base, family = base_and_family(spectral_system(spec))
        assert base(z + 1 / z) == right * left - gram, spec
        assert family(z + 1 / z) == (right + 2 * spec.half_r) * (left + 2 * spec.half_t) - gram, spec
        # a hand-built spec need not list its spokes in order; the table is the same
        unsorted = dataclasses.replace(spec, gammas=spec.gammas[::-1])
        assert spectral_system(unsorted) == spectral_system(spec), spec


def test_degeneracy_report_structure(family_specs):
    # the base vanishes doubly at z = 1, and its reduced trace factor K_red,
    # without the simple root x = 2, is -q there
    sys = spectral_system(family_specs[1])
    base = lift(base_and_family(sys)[0])
    assert base(1) == 0
    assert base.derivative()(1) == 0
    assert base.derivative().derivative()(1) == -2 * sys.degeneracy == -4
    reduced, c = sys.trace_factors[-1]
    assert c == -1 and reduced(2) == -sys.degeneracy


def test_formal_count_rejects_inconsistent_q(family_specs):
    # the closed path divides by q, so it must agree with the base's K_red(2) = -q;
    # the system refuses the change itself, before any count
    sys = spectral_system(family_specs[1])
    with pytest.raises(DegenerateSystem):
        dataclasses.replace(sys, degeneracy=5)


def test_formal_count_rejects_higher_order_root_at_one(family_specs):
    # (z - 1)^4 / z^2 keeps a double root at z=1 after the (z-1)^2 division,
    # which a positive q rules out: its K_red is 0 at x = 2
    sys = spectral_system(family_specs[1])
    reduced = exact_divide(trace_polynomial([6, -4, 1]), IntPoly([-2, 1]))
    with pytest.raises(DegenerateSystem):
        dataclasses.replace(sys, trace_factors=((reduced, -1),))


def test_reduced_base_strips_double_root(family_specs):
    # the base's double root at z = 1 is the simple root x = 2 of its trace
    # polynomial K, and |K / (x - 2)| at 2 is the z-domain boundary value
    for spec in family_specs.values():
        reduced = spectral_system(spec).trace_factors[-1][0]
        z_reduced = exact_divide(lift(IntPoly([-2, 1]) * reduced), IntPoly([1, -2, 1]))
        assert abs(reduced(2)) == abs(z_reduced(1)) != 0


def test_degenerate_system_raises():
    # no layer edges and no spokes has an identically-zero base polynomial
    spec = validate_spec({"n": 5, "alphas": [], "betas": [], "gammas": []})
    with pytest.raises(DegenerateSystem):
        spectral_system(spec)


def test_closed_counts_match_fixtures(family_specs):
    assert tree_count_closed(family_specs[1]).tau == 75
    assert tree_count_closed(family_specs[2]).tau == 16
    assert tree_count_closed(family_specs[3]).tau == 64
    assert tree_count_closed(family_specs[4]).tau == 196


def test_closed_requires_connectivity():
    spec = validate_spec({"n": 8, "alphas": [2], "betas": [2], "gammas": [0]})
    with pytest.raises(NotConnected):
        tree_count_closed(spec)


def test_formal_counts_skip_connectivity(family_specs):
    # the formal value exists at n=1 even though that graph degenerates
    sys = spectral_system(family_specs[1])
    assert closed_count_formal(sys, 1).tau == 1
    assert closed_count_formal(sys, 2).tau == 12


@pytest.mark.parametrize(
    "data, digest",
    [
        (
            {"n": 3, "alphas": [1], "betas": [1], "gammas": [0]},
            "c31cf3fe945e4eb88c666059ecc74aa13484aee1a874b8d8770cdab5c531ed72",
        ),
        (
            {"n": 4, "alphas": [1], "betas": [], "gammas": [0, 1], "half_r": True, "half_t": True},
            "7cd972428a9e6a2e1371613747172209d8db3b71794b874be13fe62289ad1948",
        ),
    ],
    ids=["prism", "family4-two-spokes"],
)
def test_sweep_builds_the_trace_table_once(monkeypatch, data, digest):
    # sha256 of the hex counts at n = stride * m, m = 1..50, recorded with
    # each factor's K rebuilt on every call
    sys = spectral_system(validate_spec(data))
    closed_count_formal(sys, sys.stride)

    def refuse(*args):
        raise AssertionError("the trace table was rebuilt")

    monkeypatch.setattr(bforest.counting, "trace_polynomial", refuse)
    monkeypatch.setattr(bforest.counting, "exact_divide", refuse)
    counts = [hex(closed_count_formal(sys, sys.stride * m).tau) for m in range(1, 51)]
    assert hashlib.sha256(",".join(counts).encode()).hexdigest() == digest


@pytest.mark.parametrize("n_values, tables", [([6, 8], 0), ([6, 7, 8, 9], 1)], ids=["disconnected", "mixed"])
def test_count_rows_builds_its_table_at_the_first_connected_order(monkeypatch, n_values, tables):
    # steps of 2 and spokes 2 apart: connected at odd n only
    spec, calls = validate_spec({"n": 6, "alphas": [2], "betas": [2], "gammas": [0, 2]}), []
    build = bforest.counting.spectral_system
    monkeypatch.setattr(bforest.counting, "spectral_system", lambda sp: calls.append(sp) or build(sp))
    rows = bforest.counting.count_rows(spec, n_values)
    assert len(calls) == tables
    oracle = [tree_count_oracle(dataclasses.replace(spec, n=n)) for n in n_values]
    assert [r.get("tau", r.get("error_type")) for r in rows] == [tau or "NotConnected" for tau in oracle]


@pytest.mark.parametrize("workload", ["count-large-n", "count-high-degree"])
def test_bench_count_tasks_give_their_reference_answers(monkeypatch, workload):
    # bench/worker.py runs each count task through run_task and checks the
    # answer against bench/references.json; a change that breaks one of them
    # fails here, before any bench run
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "bench"))
    worker = importlib.import_module("worker")
    workloads, references = worker.workloads, worker.load_references()[workload]
    tasks = worker.prepare(workloads.plan(workloads.WORKLOADS[workload], seed=1))
    assert {task.case.kind for task, _ in tasks} == {"count"}
    for task, spec in tasks:
        worker.check(worker.answer_of(worker.run_task(task.case.kind, spec, task.case)), references.get(task.id))


def test_families_need_even_order(family_specs):
    sys = spectral_system(family_specs[2])
    with pytest.raises(ValueError):
        closed_count_formal(sys, 5)


def test_formal_count_rejects_non_positive_orders(family_specs):
    # n = -3 once scanned the bits of bin(-3) = "-0b11" and gave the prism tau = -75
    sys = spectral_system(family_specs[1])
    for n in (0, -3):
        with pytest.raises(ValueError):
            closed_count_formal(sys, n)


def test_closed_equals_oracle_on_random_specs():
    for spec in random_connected_specs(40, seed=2024) + [validate_spec(d) for d in ZERO_BASE]:
        assert tree_count_closed(spec).tau == tree_count_oracle(spec), spec


def test_closed_scales_to_large_orders(family_specs):
    # n in the thousands stays fast and exact; spot-check divisibility
    sys = spectral_system(family_specs[1])
    tau = closed_count_formal(sys, 2000).tau
    assert tau % (2000 * 1) == 0
    assert tau > 10**1000


@pytest.mark.parametrize(
    "data",
    [
        {"alphas": [1], "betas": [1], "gammas": [0]},
        {"alphas": [1], "betas": [], "gammas": [0], "half_r": True, "half_t": True},
    ],
    ids=["prism", "family4"],
)
def test_closed_form_at_large_order_builds_no_adjacency(monkeypatch, data):
    def refuse(spec):
        raise AssertionError("the closed-form path realized the adjacency")

    for module in (bforest, bforest.graphs, bforest.matrixtree):
        monkeypatch.setattr(module, "realize", refuse)
    spec = validate_spec({**data, "n": 40000})
    tau = tree_count_closed(spec)
    assert tau.tau > 10**20000
    verify_square_structure(spec, tau)


def test_chebyshev_path_agrees_with_exact(family_specs):
    # the value is a Decimal; Fraction compares it with the count exactly
    for fam in (1, 2, 3, 4):
        exact = tree_count_closed(family_specs[fam]).tau
        value, rel_error = tree_count_chebyshev(family_specs[fam])
        assert rel_error < 1e-40
        assert abs(Fraction(value) / exact - 1) < Fraction(1, 10**30)


def test_chebyshev_path_on_larger_instance():
    spec = validate_spec({"n": 15, "alphas": [1, 2], "betas": [1], "gammas": [0, 4]})
    exact = tree_count_closed(spec).tau
    value, rel_error = tree_count_chebyshev(spec)
    assert rel_error < 1e-30
    assert abs(Fraction(value) / exact - 1) < Fraction(1, 10**25)


def test_order_gives_the_power_and_the_exact_prefactor(family_specs):
    for spec in family_specs.values():
        sys = spectral_system(spec)
        for n in (sys.stride, 6, 40):
            m, prefactor = sys.order(n)
            assert m * sys.stride == n
            assert prefactor == Fraction(n * spec.s, sys.stride**2 * sys.degeneracy)
    # q = 0 is refused on construction, before anything divides by it
    sys = spectral_system(family_specs[1])
    with pytest.raises(DegenerateSystem):
        dataclasses.replace(sys, degeneracy=0)


PRISM = ConnectionSpec(3, (1,), (1,), (0,))
# each built inside the raises block: the spec refuses the first three itself
NO_COUNT = {
    "odd-half": (lambda: ConnectionSpec(5, (1,), (), (0,), True, False), HalfWithoutEvenN),
    "negative": (lambda: dataclasses.replace(PRISM, n=-3), OutOfRange),
    "zero": (lambda: dataclasses.replace(PRISM, n=0), OutOfRange),
    # no spokes: q = 0, and the two cycles are not connected
    "spokeless": (lambda: ConnectionSpec(5, (1,), (1,), ()), NotConnected),
}
FOLDS = {
    "closed": tree_count_closed,
    "chebyshev": tree_count_chebyshev,
    "prediction": lambda spec: convergence_report(spec, [spec.n]),
    "verify": lambda spec: verify_square_structure(spec, 75),
}


@pytest.mark.parametrize("fold", sorted(FOLDS))
@pytest.mark.parametrize("case", sorted(NO_COUNT))
def test_every_fold_refuses_an_order_without_a_count(case, fold):
    # the Chebyshev check once gave 20.0, -75.0 and 0.0 where the exact count
    # raises, and verify_square_structure a ValueError or ZeroDivisionError
    build, error = NO_COUNT[case]
    if fold in ("prediction", "verify") and case == "spokeless":
        error = DegenerateSystem  # the table comes first: q = 0 is refused
    with pytest.raises(BforestError) as info:
        FOLDS[fold](build())
    assert type(info.value) is error


def test_trace_roots_are_the_outer_z_roots():
    # rho + 1/rho = x is a root of K, |rho| >= 1 and s = rho - 1/rho,
    # checked in mpmath on the Decimal parts
    specs = random_connected_specs(24, seed=3, n_max=16, r_max=3, t_max=3, s_max=3)
    for spec in specs:
        for k, _, roots in bforest.mahler.trace_roots(spectral_system(spec), 40):
            assert len(roots) == k.degree
            with mpmath.workdps(40):
                for rho, s, _ in roots:
                    rho, s = as_mpc(rho), as_mpc(s)
                    x = rho + 1 / rho
                    assert abs(rho) >= 1 - mpmath.mpf(10) ** -30, spec
                    assert abs(rho - 1 / rho - s) <= mpmath.mpf(10) ** -30 * max(1, abs(rho)), spec
                    scale = sum(abs(c) * max(1, abs(x)) ** i for i, c in enumerate(k.coeffs))
                    assert abs(mpmath.polyval(k.coeffs[::-1], x)) <= mpmath.mpf(10) ** -25 * scale, spec

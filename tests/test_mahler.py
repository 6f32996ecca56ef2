"""Mahler measures by two methods and the growth-rate predictions."""

import math

import mpmath
import pytest

import bforest.mahler
from bforest import (
    IntPoly,
    NonConvergence,
    convergence_report,
    growth_base,
    mahler_quadrature,
    spectral_system,
    trace_polynomial,
    tree_count_closed,
    validate_spec,
)
from tests.conftest import (
    base_and_family,
    growth_base_reference,
    lift,
    mahler_root_product,
    midpoint_mean_exact,
    random_connected_specs,
)

GOLDEN = (1 + math.sqrt(5)) / 2


@pytest.mark.parametrize("z", [3 + 4j, -3 + 4j, -3 - 4j, 3 - 4j, -4 + 0j, 4 + 0j, -2j, 0j, 1e-30 - 1j, -1 + 1e-30j])
def test_complex_type_agrees_with_builtin_complex(z):
    # every operator the float layer uses, the square root on each branch
    # and axis, against Python's complex at 40 digits
    from decimal import Decimal

    with bforest.mahler._precision(40):
        w = bforest.mahler.Complex(Decimal(z.real), Decimal(z.imag))
        other = bforest.mahler.Complex(Decimal("0.5"), Decimal("-1.25"))
        pairs = [(w.sqrt(), z**0.5), (w + other, z + (0.5 - 1.25j)), (w - 2, z - 2), (3 * w, 3 * z), (-w, -z)]
        pairs += [(w * other, z * (0.5 - 1.25j)), (w / other, z / (0.5 - 1.25j)), (other**5, (0.5 - 1.25j) ** 5)]
        pairs += [(other**-3, (0.5 - 1.25j) ** -3), (other**0, 1)]
        if z:
            pairs += [(w / 2, z / 2), (w**-2, z**-2)]
        for got, want in pairs:
            assert abs(complex(float(got.real), float(got.imag)) - want) <= 1e-15 * max(1, abs(want))
        assert float(abs(w)) == pytest.approx(abs(z), rel=1e-15) and bool(w) == bool(z)


def test_root_product_known_measures():
    # M(x^2 - x - 1) is the golden ratio; cyclotomic-like polynomials give 1
    assert abs(mahler_root_product(IntPoly([-1, -1, 1])).value - GOLDEN) < 1e-12
    assert abs(mahler_root_product(IntPoly([1, 1, 1])).value - 1.0) < 1e-12
    assert abs(mahler_root_product(IntPoly([7])).value - 7.0) < 1e-15
    # leading coefficient scales the measure
    assert abs(mahler_root_product(IntPoly([-3, -3, 3])).value - 3 * GOLDEN) < 1e-11


def test_root_product_needs_no_unit_circle_test():
    # (x^2 + 1)(x - 3): a conjugate pair on the circle and no palindromic
    # shortcut; max(1, |z|) is continuous in the roots, so it is plainly 3
    est = mahler_root_product(IntPoly([-3, 1, -3, 1]))
    assert est.value == 3.0
    assert 0 < est.error_bound < 1e-50


@pytest.mark.parametrize(
    "coeffs", [[-3, 1, -3, 1], [-1, -1, 1], [1, -6, 10, -6, 1], [2, 5, 1], [1, 0, 0, 2, 0, 0, 1]]
)
def test_root_product_error_bound_covers_rounding(coeffs):
    # at 12 digits the working precision is coarser than a float, so its
    # rounding shows against the 40-digit value
    low, high = mahler_root_product(IntPoly(coeffs), 12), mahler_root_product(IntPoly(coeffs), 40)
    assert abs(low.value - high.value) <= low.error_bound


def test_quadrature_agrees_with_root_product():
    # the quadrature takes a trace polynomial K; the root product its lift z^d K(z + 1/z)
    for coeffs, measure in (
        ([-3, 1], (3 + math.sqrt(5)) / 2),  # z^2 - 3z + 1
        ([5, 1], (5 + math.sqrt(21)) / 2),  # z^2 + 5z + 1
        ([10, -6, 1], None),  # roots x = 3 +- i
    ):
        k = IntPoly(coeffs)
        root = mahler_root_product(lift(k)).value
        quad = mahler_quadrature(k)
        assert abs(quad.value - root) <= max(quad.error_bound, 1e-4)
        if measure is not None:
            assert abs(root - measure) < 1e-12


def test_quadrature_handles_vanishing_at_one():
    # the prism-family base polynomial vanishes doubly at z=1; the midpoint
    # grid never hits the singularity and the measure is still 2 + sqrt(3)
    est = mahler_quadrature(trace_polynomial([10, -6, 1]))
    assert abs(est.value - (2 + math.sqrt(3))) < 1e-4


# (value, error bound) of the prism's growth factors on the 2^20-point grid,
# re-recorded when every midpoint sum came to be a resultant: the midpoint rule
# on that grid, to within 2e-16 of the exact sum
PRISM_QUADRATURE = (3.732055741616967, 1.9170714185071486e-05)


def test_quadrature_uses_the_top_two_grids_bit_identically(family_specs):
    est = mahler_quadrature(*growth_of(family_specs[1]))
    assert (est.value, est.error_bound) == PRISM_QUADRATURE


def test_quadrature_of_a_high_degree_growth_polynomial_is_pinned():
    # big-family4's growth factors have degree 24 in x, where the golden specs
    # reach 2; (value, error bound) re-recorded when every midpoint sum came to
    # be a resultant
    big = {"alphas": [1, 3, 5], "betas": [2, 7], "gammas": [0, 1, 4]}
    spec = validate_spec({**big, "n": 16, "half_r": True, "half_t": True})
    factors = growth_of(spec)
    assert sum(k.degree for k in factors) == 24
    est = mahler_quadrature(*factors)
    assert (est.value, est.error_bound) == (4331.84954033477, 0.022251717331242524)


def test_quadrature_refuses_the_zero_polynomial():
    with pytest.raises(NonConvergence):
        mahler_quadrature(IntPoly())


BIG = {"alphas": [1, 3, 5], "betas": [2, 7], "gammas": [0, 1, 4]}
NAMED_GROWTH = {
    "prism": {"n": 3, "alphas": [1], "betas": [1], "gammas": [0]},
    "family2": {"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_r": True},
    "family3": {"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_t": True},
    "family4": {"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_r": True, "half_t": True},
    "big": {**BIG, "n": 16},
    "big-family4": {**BIG, "n": 16, "half_r": True, "half_t": True},
    "g2": {"n": 9, "alphas": [2], "betas": [2], "gammas": [0, 2]},  # x + 2 is divided off too
}
TWO_SPOKE = {"n": 4, "alphas": [1], "betas": [1], "gammas": [0, 1], "half_r": True, "half_t": True}
ROOTS_AT_MINUS_ONE = {"n": 7, "alphas": [3], "betas": [3], "gammas": [0, 3]}  # trace roots x = -1
# the indices of random_specs() that a sampled quadrature sent to 2^20 points:
# 58, 125, 160, 163, 190 and 268 have trace roots on the circle, and in 4, 54
# and 260 float sums on 1024 and 2048 points differed in the last place
SLOW_INDICES = (4, 54, 58, 125, 160, 163, 190, 260, 268)
_midpoint_mean = bforest.mahler._midpoint_mean


def random_specs():
    return random_connected_specs(300, seed=7, n_max=16, r_max=3, t_max=3, s_max=3)


def growth_of(spec) -> tuple[IntPoly, ...]:
    """x - 2 and the table's K: the factors whose product has the growth base as its measure."""
    sys = spectral_system(validate_spec(spec) if isinstance(spec, dict) else spec)
    return (IntPoly([-2, 1]), *(k for k, _ in sys.trace_factors))


@pytest.fixture
def grids(monkeypatch):
    """The grid sizes the quadrature samples, in call order."""
    sizes = []

    def recording(k, n):
        sizes.append(n)
        return _midpoint_mean(k, n)

    monkeypatch.setattr(bforest.mahler, "_midpoint_mean", recording)
    return sizes


def assert_exact_midpoint_rule(factors):
    # value and bound from the exact sums on the 2^20-point grid and its half
    top = bforest.mahler.QUADRATURE_POINTS
    with mpmath.workdps(40):
        last, prev = (sum(midpoint_mean_exact(k, n) for k in factors) for n in (top, top // 2))
    est = mahler_quadrature(*factors)
    assert est.value == pytest.approx(float(mpmath.exp(last)), rel=1e-14, abs=0)
    bound = est.value * (float(abs(last - prev)) + 4 / top)
    assert est.error_bound == pytest.approx(bound, rel=1e-9, abs=0)


@pytest.mark.parametrize("name", sorted(NAMED_GROWTH))
def test_quadrature_is_the_exact_midpoint_sum_on_the_top_grid(grids, name):
    assert_exact_midpoint_rule(growth_of(NAMED_GROWTH[name]))
    assert max(grids) <= 2048


def test_quadrature_of_random_specs_is_the_exact_midpoint_sum(grids):
    for spec in random_specs()[:40]:
        assert_exact_midpoint_rule(growth_of(spec))
        assert max(grids) <= 2048, spec


@pytest.mark.parametrize("index", [None, *SLOW_INDICES])
def test_slow_path_is_the_two_grid_recipe_bit_for_bit(grids, index):
    # the specs of the former 2^20-point path now take the one path, the
    # exact sums on 1024 and 2048 points per factor
    spec = ROOTS_AT_MINUS_ONE if index is None else random_specs()[index]
    factors = growth_of(spec)
    assert_exact_midpoint_rule(factors)
    assert grids == [1024, 2048] * len(factors)


@pytest.mark.parametrize("spec", [NAMED_GROWTH["prism"], TWO_SPOKE, NAMED_GROWTH["big-family4"]])
def test_quadrature_samples_at_most_2048_points_where_the_rest_converges(grids, spec):
    factors = growth_of(spec)
    mahler_quadrature(*factors)
    assert grids == [1024, 2048] * len(factors)


@pytest.mark.parametrize("name", sorted(NAMED_GROWTH))
def test_quadrature_holds_the_growth_base_within_its_bound(name):
    # the bound carries the x - 2 factor's 2 ln 2 / 2^20, the quadrature's
    # whole distance from the measure where the rest has converged
    spec = validate_spec(NAMED_GROWTH[name])
    quad, root = mahler_quadrature(*growth_of(spec)), growth_base(spec)
    assert abs(quad.value - root.value) <= quad.error_bound


def test_growth_bases_of_worked_examples(family_specs):
    a = growth_base(family_specs[1]).value
    c = growth_base(family_specs[3]).value
    d = growth_base(family_specs[4]).value
    assert abs(a - (2 + math.sqrt(3))) < 1e-9
    assert abs(c - (4 + math.sqrt(7))) < 1e-9
    assert abs(d - (7 + 2 * math.sqrt(10))) < 1e-9
    # family 2's product polynomial has the same measure as family 1's base
    b = growth_base(family_specs[2]).value
    assert abs(b - (2 + math.sqrt(3))) < 1e-9


def test_prediction_approaches_exact_count(family_specs):
    [row] = convergence_report(family_specs[1], [30])
    assert row["tau"] == tree_count_closed(validate_spec({**family_specs[1].to_dict(), "n": 30})).tau
    assert abs(row["prediction"] / row["tau"] - 1) < 1e-15


def _error_type(spec, n):
    [row] = convergence_report(spec, [n])
    assert set(row) == {"n", "error", "error_type"}
    return row["error_type"]


def test_prediction_requires_even_order_for_variants(family_specs):
    assert _error_type(family_specs[2], 7) == "HalfWithoutEvenN"


@pytest.mark.parametrize("n", [0, -3])
def test_prediction_rejects_non_positive_orders(family_specs, n):
    # no count to predict, as in closed_count_formal
    assert _error_type(family_specs[1], n) == "OutOfRange"


def test_prediction_rejects_disconnected_orders():
    # the gcd test at order n fails exactly where the formal count is 0
    disconnected = validate_spec({"n": 8, "alphas": [2], "betas": [2], "gammas": [0]})
    assert _error_type(disconnected, 8) == "NotConnected"
    spec = validate_spec({"n": 5, "alphas": [2], "betas": [], "gammas": [0]})
    [row] = convergence_report(spec, [5])
    assert row["prediction"] > 0
    assert _error_type(spec, 6) == "NotConnected"


def test_convergence_report_deviation_shrinks(family_specs):
    rows = convergence_report(family_specs[1], [10, 15, 20])
    devs = [row["deviation"] for row in rows]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 1e-10
    # the derived error model: deviation ~ 2 (2 - sqrt(3))^n
    for row in rows:
        model = 2 * (2 - math.sqrt(3)) ** row["n"]
        assert 0.3 * model < row["deviation"] < 3 * model


def test_convergence_report_variant_family(family_specs):
    rows = convergence_report(family_specs[2], [10, 20, 40])
    devs = [row["deviation"] for row in rows]
    assert devs[0] > devs[1] > devs[2]


def test_convergence_report_rejects_disconnected():
    # the disconnected order gets an error row; the connected ones keep theirs
    spec = validate_spec({"n": 8, "alphas": [2], "betas": [2], "gammas": [0]})
    rows = convergence_report(spec, [7, 8])
    assert rows[0]["n"] == 7 and rows[0]["tau"] == 35287
    assert rows[1] == {"n": 8, "error": rows[1]["error"], "error_type": "NotConnected"}
    assert "not connected" in rows[1]["error"]


def test_product_polynomial_measure_multiplies(family_specs):
    base, family = base_and_family(spectral_system(family_specs[4]))
    m_product = mahler_root_product(lift(family * base)).value
    m_family = mahler_root_product(lift(family)).value
    m_base = mahler_root_product(lift(base)).value
    assert abs(m_product - m_family * m_base) < 1e-9


# growth bases, predictions and convergence rows recorded when the measure
# was still the z-domain root product of the growth polynomial
RECORDED = {
    "family4": (
        {"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_r": True, "half_t": True},
        13.324555320336758,
        63043.5837165584,
        [(4, 196, 177.54377448471462), (8, 63368, 63043.5837165584), (12, 16793868, 16789493.71512131)],
    ),
    "mixed": (
        {"n": 9, "alphas": [1, 2], "betas": [1], "gammas": [0, 2]},
        13.583234079646495,
        5.574935500345912e20,
        [
            (9, 17712254898, 17708475990.170853),
            (18, 557493537200800910112, 5.574935500345912e20),
            (28, 185420275852354693616010193911808, 1.8542027585252055e32),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_growth_measures_come_from_the_trace_roots(monkeypatch, name):
    data, base, prediction, rows = RECORDED[name]
    spec = validate_spec(data)

    # the trace roots come from roots_numeric too; a degree above every trace
    # factor's is a polynomial in z
    roots_numeric = bforest.mahler.roots_numeric
    top = max(k.degree for k, _ in spectral_system(spec).trace_factors)

    def no_z_roots(f, *args, **kwargs):
        if f.degree > top:
            raise AssertionError("the growth measure must not find roots in z")
        return roots_numeric(f, *args, **kwargs)

    monkeypatch.setattr(bforest.mahler, "roots_numeric", no_z_roots)
    assert growth_base(spec).value == base
    report = convergence_report(spec, [n for n, _, _ in rows])
    assert [(row["n"], row["tau"], row["prediction"]) for row in report] == rows
    assert {row["n"]: row["prediction"] for row in report}[2 * spec.n] == prediction


# every 9th of the 900 specs: 100 specs over all four families
SAMPLE_900 = [
    spec
    for seed in (7, 8, 9)
    for spec in random_connected_specs(300, seed=seed, n_max=20, r_max=3, t_max=3, s_max=4)
][::9]


def test_growth_base_agrees_with_mpmath_roots_on_100_of_the_900_specs():
    # mpmath's own polyroots is the independent reference: the decimal port
    # must give the same float on every spec
    assert len(SAMPLE_900) == 100 and {spec.family for spec in SAMPLE_900} == {1, 2, 3, 4}
    assert [growth_base(spec).value for spec in SAMPLE_900] == [
        growth_base_reference(spec) for spec in SAMPLE_900
    ]


def test_growth_base_error_bound_covers_rounding():
    # all four families, and two specs with a trace root at a branch point x = +-2
    specs = random_connected_specs(24, seed=3, n_max=16, r_max=3, t_max=3, s_max=3)
    systems = [spectral_system(spec) for spec in specs]
    assert {spec.family for spec in specs} == {1, 2, 3, 4}
    assert sum(any(k(2) == 0 or k(-2) == 0 for k, _ in sys.trace_factors) for sys in systems) == 2
    for spec, sys in zip(specs, systems):
        value, rel_error = bforest.mahler._trace_measure(sys, 64)
        check, _ = bforest.mahler._trace_measure(sys, 128)
        with mpmath.workdps(128):
            assert abs(value - check) <= value * rel_error, spec
        # coarser than a float at 12 digits, so the public bound shows it too
        low, high = growth_base(spec, 12), growth_base(spec, 40)
        assert abs(low.value - high.value) <= low.error_bound, spec
        if any(k.degree >= 1 for k, _ in sys.trace_factors):
            assert rel_error > 0, spec
        else:
            # no roots: the measure is the exact integer prod |lc K|
            assert rel_error == 0 and value == math.prod(abs(k.lead) for k, _ in sys.trace_factors)

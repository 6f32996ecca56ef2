"""Property tests of the factor table over random connected specs in all
four families: every fold over ``SpectralSystem.factors`` agrees with its
independent cross-check."""

import math

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bforest import (
    growth_base,
    is_connected,
    mahler_root_product,
    spectral_system,
    tree_count_chebyshev,
    tree_count_closed,
    tree_count_oracle,
    validate_spec,
    verify_square_structure,
)
from tests.conftest import lift


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
    with mpmath.workdps(64):
        assert abs(value / tau.tau - 1) <= max(10 * rel_error, mpmath.mpf("1e-50"))

    factors = spectral_system(spec).factors
    product = math.prod(mahler_root_product(lift(k)).value for k, _ in factors)
    assert math.isclose(growth_base(spec).value, product, rel_tol=1e-12)

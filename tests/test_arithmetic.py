"""Structure constants and the perfect-square factorization of tree counts."""

import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from bforest import (
    NonDivisible,
    NonPositiveStructure,
    NotAPerfectSquare,
    NotConnected,
    arithmetic_profile,
    closed_count_formal,
    spectral_system,
    squarefree_part,
    tree_count_closed,
    validate_spec,
    verify_square_structure,
)
from tests.conftest import random_connected_specs, structure_reference


def test_structure_constants_in_the_parity_counts():
    # the theorem's form: with k1, m1, h1 the odd alphas, betas and gammas,
    # the even constant is sqfree(|(s + 4 k1)(s + 4 m1) - (s - 2 h1)^2| / 4)
    # and, for families 2-4, the odd one adds 2 per half flag to its factor;
    # a product 0 gives None, and family 1 reports its even constant as odd
    def constant(product):
        return squarefree_part(abs(product)) if product else None

    seen = set()
    for spec in random_connected_specs(300, seed=8, n_max=20, r_max=3, t_max=3, s_max=4):
        p, s = arithmetic_profile(spec), spec.s
        k1, m1, h1 = (sum(v % 2 for v in values) for values in (spec.alphas, spec.betas, spec.gammas))
        even = (s + 4 * k1) * (s + 4 * m1) - (s - 2 * h1) ** 2
        assert even % 4 == 0, spec
        odd = (s + 4 * k1 + 2 * spec.half_r) * (s + 4 * m1 + 2 * spec.half_t) - (s - 2 * h1) ** 2
        expected_even = constant(even // 4)
        expected_odd = expected_even if spec.family == 1 else constant(odd)
        assert (p.structure_odd, p.structure_even) == (expected_odd, expected_even), spec
        seen.add((spec.family, expected_even is None))
    assert {family for family, _ in seen} == {1, 2, 3, 4}
    assert {vanishes for _, vanishes in seen} == {False, True}


def test_structure_constants_of_worked_examples(family_specs):
    assert arithmetic_profile(family_specs[1]).structure_even == 6
    assert arithmetic_profile(family_specs[2]).structure_odd == 6
    assert arithmetic_profile(family_specs[2]).structure_even == 1
    assert arithmetic_profile(family_specs[3]).structure_odd == 14
    assert arithmetic_profile(family_specs[4]).structure_odd == 5


def test_structure_constants_are_squarefree():
    for spec in random_connected_specs(30, seed=5):
        p = arithmetic_profile(spec)
        for value in (p.structure_odd, p.structure_even):
            if value is None:
                continue
            d = 2
            while d * d <= value:
                assert value % (d * d) != 0
                d += 1


def test_structure_constants_match_the_rule_of_the_two_polynomials():
    # the fixed_part fold over the table against the square-free part of
    # F(-2) or B(-2), in the profile and in the cofactor at n and n + stride
    seen = set()
    for spec in random_connected_specs(300, seed=7, n_max=20, r_max=3, t_max=3, s_max=4):
        sys = spectral_system(spec)
        profile = arithmetic_profile(spec)
        expected = (structure_reference(sys, True), structure_reference(sys, False))
        assert (profile.structure_odd, profile.structure_even) == expected, spec
        for n in (spec.n, spec.n + sys.stride):
            m, prefactor = sys.order(n)
            odd = m % 2 == 1
            structure = 1 if odd and sys.stride == 1 else structure_reference(sys, odd)
            try:
                witness = verify_square_structure(replace(spec, n=n), closed_count_formal(sys, n))
            except NonPositiveStructure:
                assert structure is None, (spec, n)
                continue
            assert witness.cofactor == prefactor * sys.degeneracy * structure, (spec, n)
            seen.add((spec.family, odd))
    assert seen == {(f, odd) for f in (1, 2, 3, 4) for odd in (False, True)}


def test_cofactor_is_the_profile_constant_of_its_branch():
    # n s / stride^2 times structure_odd or structure_even; family 1 at odd n
    # has no factor vanishing at z = -1, so its structure_odd goes unused
    for spec in random_connected_specs(120, seed=17, n_max=14):
        profile = arithmetic_profile(spec)
        stride = spectral_system(spec).stride
        for n in (spec.n, spec.n + stride):
            at_n = validate_spec({**spec.to_dict(), "n": n})
            try:
                witness = verify_square_structure(at_n, tree_count_closed(at_n))
            except NotConnected:
                continue
            if witness.branch == "even":
                constant = profile.structure_even
            else:
                constant = 1 if spec.family == 1 else profile.structure_odd
            assert witness.cofactor == Fraction(n * spec.s * constant, stride**2), (spec, n)


def test_witnesses_of_worked_examples(family_specs):
    prism = verify_square_structure(family_specs[1], 75)
    assert (prism.branch, prism.witness) == ("odd", 5)
    assert prism.cofactor == 3

    cube_spec = validate_spec({"n": 4, "alphas": [1], "betas": [1], "gammas": [0]})
    cube = verify_square_structure(cube_spec, 384)
    assert (cube.branch, cube.witness) == ("even", 4)
    assert cube.cofactor == 4 * 6

    fam2 = verify_square_structure(family_specs[2], tree_count_closed(family_specs[2]))
    assert (fam2.branch, fam2.witness) == ("even", 4)


def test_square_structure_on_ranges(family_specs):
    sys1 = spectral_system(family_specs[1])
    for n in range(3, 15):
        spec = validate_spec({**family_specs[1].to_dict(), "n": n})
        tau = closed_count_formal(sys1, n).tau
        w = verify_square_structure(spec, tau)
        assert w.cofactor * w.witness ** 2 == tau


def test_remark_parity_even_witness():
    # odd n/2, odd s, odd structure constant forces an even witness;
    # the family-2 worked example at n=6 is such a case (structure 6 is even,
    # so use a spec with odd structure): family 4 at n=6 has structure 5
    spec = validate_spec(
        {"n": 6, "alphas": [1], "betas": [], "gammas": [0], "half_r": True, "half_t": True}
    )
    tau = tree_count_closed(spec).tau
    w = verify_square_structure(spec, tau)
    assert w.branch == "odd"
    assert w.witness % 2 == 0


def test_rejects_wrong_value(family_specs):
    from bforest import NonDivisible

    with pytest.raises(NotAPerfectSquare):
        verify_square_structure(family_specs[1], 76 * 3)  # 76 is not a square
    with pytest.raises(NonDivisible):
        verify_square_structure(family_specs[1], 7)  # 3 does not divide 7


@pytest.mark.parametrize("tau", [75.5, Fraction(151, 2), "75"])
def test_tau_must_be_an_integer(family_specs, tau):
    # int() once truncated each of these to 75, which verified as witness 5
    with pytest.raises(TypeError):
        verify_square_structure(family_specs[1], tau)


def test_refusals_past_the_int_digit_limit_name_sizes():
    # tau has 4351 digits, past the interpreter's limit on int -> str
    spec = validate_spec({"n": 7600, "alphas": [1], "betas": [1], "gammas": [0]})
    tau = tree_count_closed(spec).tau
    assert 0 < sys.get_int_max_str_digits() < 4351
    with pytest.raises(NonDivisible, match="14452-bit tau"):
        verify_square_structure(spec, tau + 1)
    with pytest.raises(NotAPerfectSquare, match="14438-bit tau/cofactor"):
        verify_square_structure(spec, 3 * tau)


def test_negative_count_is_not_a_perfect_square(family_specs):
    # tau / cofactor = -25 once reached math.isqrt, which raises a plain ValueError
    with pytest.raises(NotAPerfectSquare):
        verify_square_structure(family_specs[1], -75)


def test_structure_constant_missing_for_degenerate_branch():
    # even alphas and betas with a single odd spoke: the spectral value at
    # z=-1 vanishes, and even orders of this pattern disconnect
    spec = validate_spec({"n": 10, "alphas": [2], "betas": [2], "gammas": [1]})
    profile = arithmetic_profile(spec)
    assert profile.structure_even is None
    with pytest.raises(NonPositiveStructure):
        verify_square_structure(spec, 4)
    # no spokes and no betas: the base polynomial vanishes identically
    degenerate = arithmetic_profile(validate_spec({"n": 5, "alphas": [1], "gammas": []}))
    assert (degenerate.structure_odd, degenerate.structure_even) == (None, None)


def test_random_specs_factor_as_squares():
    for spec in random_connected_specs(60, seed=99):
        tau = tree_count_closed(spec)
        w = verify_square_structure(spec, tau)
        assert w.cofactor * w.witness ** 2 == tau.tau

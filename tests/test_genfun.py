"""Recurrence discovery, rational generating functions and their symmetry."""

import importlib
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bforest import (
    IntPoly,
    NonMonicDenominator,
    OrderExceeded,
    OutOfRange,
    RationalGF,
    TauSequence,
    closed_count_formal,
    expand_series,
    find_recurrence,
    genfun,
    gf_eval,
    spectral_system,
    symmetry_scale,
    tau_sequence,
    validate_spec,
    verify_symmetry,
)
from bforest.genfun import _massey, _prime
from tests.conftest import find_recurrence_fractions, find_recurrence_integers, random_connected_specs


def test_find_recurrence_trivial_sequences():
    assert find_recurrence([5, 5, 5, 5, 5, 5]) == (1, -1)
    assert find_recurrence([1, 2, 3, 4, 5, 6, 7, 8]) == (1, -2, 1)
    assert find_recurrence([1, 2, 4, 8, 16, 32]) == (1, -2)
    # Fibonacci
    assert find_recurrence([1, 1, 2, 3, 5, 8, 13, 21]) == (1, -1, -1)


def test_find_recurrence_order_cap():
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(OrderExceeded):
        find_recurrence(fib, max_order=1)


def test_find_recurrence_needs_enough_terms():
    # order-3 pattern with only 5 terms cannot be certified
    seq = [1, 0, 0, 1, 0]
    with pytest.raises(OrderExceeded):
        find_recurrence(seq)


ORACLE_INPUTS = [
    [5, 5, 5, 5, 5, 5],
    [1, 2, 3, 4, 5, 6, 7, 8],
    [1, 2, 4, 8, 16, 32],
    [1, 1, 2, 3, 5, 8, 13, 21],
    [1, 1, 2, 3, 5, 8, 13, 21, 34, 55],
    # zero discrepancies: the update lands a gap of 3 past the last change
    [1, 0, 0, 1, 0, 0, 1, 0, 0, 1],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
    [2, -3, 0, 5, 2, -3, 0, 5, 2, -3],
    [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 8), Fraction(1, 12)],
    [Fraction(2**n, 3) + Fraction(2 * (-1) ** n, 5) for n in range(12)],
]


def _massey_runs(monkeypatch) -> list[tuple[int, int]]:
    """(p, L_p) of each Massey run ``find_recurrence`` makes, in order."""
    module, runs = importlib.import_module("bforest.genfun"), []

    def recorded(terms, p, cap):
        order, conn = _massey(terms, p, cap)
        runs.append((p, order))
        return order, conn

    monkeypatch.setattr(module, "_massey", recorded)
    return runs


@pytest.mark.parametrize(
    "values,max_order",
    [([1, 0, 0, 1, 0], 128), ([1, 1, 2, 3, 5, 8, 13, 21], 1), ([Fraction(1, n) for n in range(1, 13)], 128)],
)
def test_integer_recurrence_refuses_where_the_oracle_does(values, max_order, monkeypatch):
    with pytest.raises(OrderExceeded):
        find_recurrence_fractions(values, max_order=max_order)
    # a term that is not an integer is refused before any Massey run
    primes = _massey_runs(monkeypatch)
    integral = all(isinstance(v, int) for v in values)
    with pytest.raises(OrderExceeded if integral else TypeError):
        find_recurrence(values, max_order=max_order)
    assert bool(primes) == integral


P0 = _prime(0)  # the first prime the modular Berlekamp-Massey uses
# unlucky at P0: the minimal recurrence (P0, -1) of P0^9, .., P0, 1 has
# e0 = P0, so mod P0 the terms read 0, .., 0, 1, of order 10; and the first
# discrepancy of P0 2^k + k, its first term P0, vanishes mod P0, which
# leaves order 2 of the true 3
UNLUCKY = [[P0 ** (9 - k) for k in range(10)], [P0 * 2**k + k for k in range(12)]]


@pytest.mark.parametrize("values", ORACLE_INPUTS + UNLUCKY)
def test_integer_recurrence_matches_the_fraction_oracle(values):
    # the oracle's recurrence where it is integral with e0 = 1, the form
    # Fatou's lemma gives integer terms; Fraction terms are not taken
    expected = find_recurrence_fractions(values)
    if not all(isinstance(v, int) for v in values):
        with pytest.raises(TypeError):
            find_recurrence(values)
    elif expected[0] != 1:
        with pytest.raises(NonMonicDenominator, match="no recurrence with e0 = 1 fits"):
            find_recurrence(values)
    else:
        assert find_recurrence(values) == expected == find_recurrence_integers(values)


def test_unlucky_first_prime_is_outvoted(monkeypatch):
    assert [_massey(values, P0, len(values))[0] for values in UNLUCKY] == [10, 2]
    assert find_recurrence(UNLUCKY[1]) == (1, -4, 5, -2)
    # the other primes agree on order 1 and C = 1 - x / P0, whose lift never
    # fits; a lift of an integral C would, once the pool's modulus passes the
    # Hadamard bound of 6182 bits, so the primes stop at 2^(6182 + 21): 102
    # Massey runs, a quarter of the 408 that the whole prime budget takes
    runs = _massey_runs(monkeypatch)
    with pytest.raises(NonMonicDenominator, match="modulo 102 primes"):
        find_recurrence(UNLUCKY[0])
    assert len(runs) <= 408 // 4 and runs[0] == (P0, 10)


def test_refusal_proves_no_monic_recurrence_fits():
    # L_p > cap says nothing of recurrences with e0 != 1: (P0, -1) fits with
    # order 1 <= 5.  A recurrence of order <= 5 that fits the 10 >= 1 + 5
    # terms annihilates the same geometric series, so it is a multiple of
    # P0 - x, and by Gauss's lemma its e0 is a multiple of P0, never 1
    values = UNLUCKY[0]
    with pytest.raises(OrderExceeded, match=f"L_p = 10 modulo p = {P0} exceeds cap 5"):
        find_recurrence(values, max_order=5)
    assert find_recurrence_fractions(values, max_order=5) == (P0, -1)
    with pytest.raises(NonMonicDenominator):
        genfun(values, (P0, -1))


def test_modular_recurrence_matches_both_oracles_on_random_specs():
    specs = random_connected_specs(40, seed=11, n_max=14, r_max=2, t_max=2, s_max=3)
    checked = 0
    for spec in specs:
        bound = spectral_system(spec).recurrence_bound
        if bound <= 40:
            values = tau_sequence(spec, 2 * bound + 2).values
            recurrence = find_recurrence(values, max_order=bound)
            expected = find_recurrence_fractions(values)
            assert recurrence == expected == find_recurrence_integers(values), spec
            checked += 1
    assert checked == 15


TWO_SPOKE = {"n": 4, "alphas": [1], "betas": [1], "gammas": [0, 1], "half_r": True, "half_t": True}


def test_two_primes_settle_the_two_spoke_recurrence(monkeypatch):
    # as a plain list the terms take the direct path: the 97-bit coefficients
    # lift from the 124-bit modulus of two primes, and the fit on every term
    # certifies them
    values = list(tau_sequence(validate_spec(TWO_SPOKE), 130).values)
    runs = _massey_runs(monkeypatch)
    recurrence = find_recurrence(values, max_order=64)
    assert len(runs) <= 2 and {order for _, order in runs} == {54}
    assert len(recurrence) == 55
    assert max(abs(e) for e in recurrence).bit_length() > 90
    assert recurrence == find_recurrence_integers(values)


def test_one_prime_settles_the_peeled_two_spoke_recurrence(monkeypatch):
    # the tree counts are m w_m: w's order-27 recurrence C has 48-bit
    # coefficients, which one 62-bit prime lifts, and the answer is C^2
    seq = tau_sequence(validate_spec(TWO_SPOKE), 130)
    runs = _massey_runs(monkeypatch)
    recurrence = find_recurrence(seq, max_order=64)
    assert runs == [(P0, 27)]
    assert recurrence == find_recurrence(list(seq.values), max_order=64)
    assert len(recurrence) == 55


def _outcome(seq, max_order):
    try:
        return find_recurrence(seq, max_order=max_order)
    except (OrderExceeded, NonMonicDenominator) as exc:
        return type(exc).__name__, str(exc)


@given(
    parts=st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), min_size=1, max_size=4),
    repeated=st.integers(-2, 2),
    scale=st.just(1),
    max_order=st.sampled_from([3, 8, 128]),
)
@settings(max_examples=60, deadline=None)
# m (3^m + 1) / 4: tau_m / m is a half-integer at even m, so D = 2
@example(parts=[(1, 3), (1, 1)], repeated=0, scale=4, max_order=128)
# w = 2^m + m 2^m has a double root: the peel falls back
@example(parts=[(1, 2)], repeated=1, scale=1, max_order=128)
def test_peeled_recurrence_equals_the_direct_one_on_exponential_polynomials(parts, repeated, scale, max_order):
    # tau_m = m u_m / scale, u an exponential polynomial, with a double root
    # when ``repeated`` is nonzero; peeled or not, the answer or the refusal
    # is the direct path's
    u = [sum(c * a**m for c, a in parts) + repeated * m * parts[0][1] ** m for m in range(1, 41)]
    values = [m * v // scale for m, v in enumerate(u, 1)]
    assert all(m * v % scale == 0 for m, v in enumerate(u, 1))
    assert _outcome(TauSequence(1, tuple(values)), max_order) == _outcome(values, max_order)


def test_tau_sequence_is_the_closed_count_at_every_order():
    # lead -3: the sweep's pseudo-remainders carry powers of lc K the
    # doubling does not, over 300 orders
    lead = validate_spec({"n": 20, "alphas": [], "betas": [4, 5, 6], "gammas": [3, 9]})
    specs = random_connected_specs(40, seed=11, n_max=14, r_max=2, t_max=2, s_max=3)
    for spec, count in [(spec, 40) for spec in specs] + [(lead, 300)]:
        system = spectral_system(spec)
        expected = tuple(closed_count_formal(system, system.stride * k).tau for k in range(1, count + 1))
        assert tau_sequence(spec, count).values == expected, spec


@pytest.mark.parametrize("count", [0, -1])
def test_tau_sequence_needs_a_positive_count(family_specs, count):
    with pytest.raises(OutOfRange, match=f"got {count}"):
        tau_sequence(family_specs[1], count)


def test_import_finds_no_primes():
    # the prime run is found on the first call that needs it, not at import
    path = [str(pathlib.Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import bforest; from bforest.genfun import _PRIMES; print(len(_PRIMES))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


def test_integer_recurrence_matches_the_oracle_on_tree_counts(family_specs):
    two_spoke = validate_spec(
        {"n": 4, "alphas": [1], "betas": [1], "gammas": [0, 1], "half_r": True, "half_t": True}
    )
    cases = [(family_specs[1], 40), (family_specs[2], 40), (family_specs[3], 40), (two_spoke, 110)]
    for spec, count in cases:
        seq = tau_sequence(spec, count)
        recurrence = find_recurrence(seq)
        assert recurrence == find_recurrence_fractions(seq.values)
        # the minimal order reaches the spectral bound on these specs
        assert len(recurrence) - 1 == spectral_system(spec).recurrence_bound


def test_prism_family_recurrence(family_specs):
    seq = tau_sequence(family_specs[1], 24)
    assert seq.values[:6] == (1, 12, 75, 384, 1805, 8100)
    rec = find_recurrence(seq)
    # characteristic polynomial ((x-1)(x^2-4x+1))^2
    assert rec == (1, -10, 35, -52, 35, -10, 1)


def test_variant_families_reuse_same_shape(family_specs):
    seq2 = tau_sequence(family_specs[2], 24)
    assert seq2.values[:3] == (3, 16, 81)
    assert find_recurrence(seq2) == (1, -10, 35, -52, 35, -10, 1)
    seq3 = tau_sequence(family_specs[3], 24)
    assert seq3.values[:2] == (7, 64)
    assert find_recurrence(seq3) == (1, -22, 187, -780, 1683, -1782, 729)


def test_genfun_reproduces_series(family_specs):
    seq = tau_sequence(family_specs[1], 24)
    gf = genfun(seq, find_recurrence(seq))
    assert gf.order == 6
    assert tuple(expand_series(gf, 24)) == seq.values


def test_genfun_predicts_held_out_terms(family_specs):
    for fam in (1, 2, 3, 4):
        full = tau_sequence(family_specs[fam], 34)
        head = type(full)(full.family, full.values[:24])
        gf = genfun(head, find_recurrence(head))
        assert tuple(expand_series(gf, 34)) == full.values


def test_genfun_numeric_fixture_values(family_specs):
    gf1 = genfun(*(lambda s: (s, find_recurrence(s)))(tau_sequence(family_specs[1], 24)))
    assert abs(float(gf_eval(gf1, Fraction(1, 10))) - 0.365659) < 1e-5
    gf2 = genfun(*(lambda s: (s, find_recurrence(s)))(tau_sequence(family_specs[2], 24)))
    assert abs(float(gf_eval(gf2, Fraction(1, 10))) - 0.612573) < 1e-5


def test_symmetry_scales(family_specs):
    assert symmetry_scale(family_specs[1]) == 1
    assert symmetry_scale(family_specs[2]) == 1
    assert symmetry_scale(family_specs[3]) == 3
    assert symmetry_scale(family_specs[4]) == 3


def test_symmetry_holds_at_family_scale(family_specs):
    for fam in (1, 2, 3, 4):
        seq = tau_sequence(family_specs[fam], 24)
        gf = genfun(seq, find_recurrence(seq))
        scale = symmetry_scale(family_specs[fam])
        assert verify_symmetry(gf, scale)


def test_symmetry_fails_at_wrong_scale(family_specs):
    seq = tau_sequence(family_specs[3], 24)
    gf = genfun(seq, find_recurrence(seq))
    assert verify_symmetry(gf, 3)
    assert not verify_symmetry(gf, 1)


def test_gf_eval_is_exact_rational():
    gf = genfun([1, 2, 4, 8, 16, 32], (1, -2))
    assert gf.numerator == IntPoly([0, 1])
    assert gf.denominator == IntPoly([1, -2])
    assert gf_eval(gf, Fraction(1, 3)) == Fraction(1, 1)


def test_genfun_rejects_non_monic_recurrence():
    with pytest.raises(NonMonicDenominator):
        genfun([1, 2, 4, 8, 16, 32], (2, -1))


def test_expand_series_rejects_non_monic_denominator():
    gf = RationalGF(IntPoly([0, 1]), IntPoly([2, -1]), (2, -1))
    with pytest.raises(NonMonicDenominator):
        expand_series(gf, 5)

"""The witness-first exact count: tau = prefactor * fixed * a^2, with a built
from half-size Chebyshev-U resultants, against the full-size V_m oracle,
the Bareiss oracle and the isqrt witness of ``verify_square_structure``."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import pytest

from bforest import (
    BforestError,
    NonPositiveStructure,
    closed_count_formal,
    spectral_system,
    tree_count_closed,
    tree_count_oracle,
    validate_spec,
    verify_square_structure,
)
from bforest import polynomials
from bforest.polynomials import half_resultant, squarefree_part
from tests.conftest import (
    abs_resultant_with_power,
    base_and_family,
    closed_count_by_lucas,
    random_connected_specs,
)

BIG = {"alphas": [1, 3, 5], "betas": [2, 7], "gammas": [0, 1, 4]}
ORACLE_VERTICES = 60


def _at(spec, n):
    return dataclasses.replace(spec, n=n)


def _square_part(value: int) -> int:
    """r with value = squarefree_part(value) * r^2, for value > 0."""
    return math.isqrt(value // squarefree_part(value))


def mapped_witness(spec) -> Fraction:
    """The direct witness prod_f a_f, in the convention of
    ``verify_square_structure``, whose cofactor keeps only the square-free
    part of the branch's value at x = -2.

    At even m the base's fixed part is K_red(2) K_red(-2) = q base(-2) / 4,
    because base = (x - 2) K_red and K_red(2) = -q: the square part of
    base(-2) and a 1/2 go into the witness.  At odd m in families 2-4 the
    family factor's fixed part is its value at x = -2, whose square part goes
    in; the base's is K_red(2) = -q.  Family 1 at odd m has only -q.
    """
    sys = spectral_system(spec)
    m, _ = sys.order(spec.n)
    witness = Fraction(math.prod(half_resultant(k, m, c)[1] for k, c in sys.trace_factors))
    base, family = base_and_family(sys)
    if m % 2 == 0:
        witness *= Fraction(_square_part(base(-2)), 2)
    elif sys.stride == 2:
        witness *= _square_part(family(-2))
    return witness


def test_direct_witness_matches_both_oracles_and_the_isqrt_witness():
    specs = random_connected_specs(120, seed=99, n_max=24, r_max=3, t_max=3, s_max=4)
    seen = set()
    for spec in specs:
        sys = spectral_system(spec)
        leads = {"monic" if abs(k.lead) == 1 else "non-monic" for k, _ in sys.trace_factors}
        leads |= {"constant" for k, _ in sys.trace_factors if k.degree == 0}
        for n in (spec.n, spec.n + sys.stride):
            at = _at(spec, n)
            tau = closed_count_formal(sys, n).tau
            assert tau == closed_count_by_lucas(at), at
            if 2 * n <= ORACLE_VERTICES:
                assert tau == tree_count_oracle(at), at
            try:
                witness = verify_square_structure(at, tau).witness
            except NonPositiveStructure:
                continue
            assert mapped_witness(at) == witness, at
            seen |= {(spec.family, n // sys.stride % 2)} | {(spec.family, lead) for lead in leads}
    # every family at both parities of m, with monic, non-monic and constant factors
    assert {(f, p) for f in (1, 2, 3, 4) for p in (0, 1)} <= seen
    assert {lead for _, lead in seen if isinstance(lead, str)} == {"monic", "non-monic", "constant"}


@pytest.mark.parametrize("half", [False, True], ids=["big", "big-family4"])
@pytest.mark.parametrize("m", [1000, 1001])
def test_direct_witness_at_large_orders(half, m):
    # big-family4 at odd m puts the square part of its K(-2) into the witness
    spec = validate_spec({**BIG, "n": 2 * m if half else m, "half_r": half, "half_t": half})
    assert mapped_witness(spec) == verify_square_structure(spec, tree_count_closed(spec)).witness


LEAD_SPECS = {
    "lead-3": ({"n": 15, "alphas": [], "betas": [4, 5, 6], "gammas": [3, 9]}, [(5, -3)]),
    "leads-2-2": (
        {"n": 16, "alphas": [3, 5, 7], "betas": [], "gammas": [7, 10], "half_r": True},
        [(7, -2), (6, -2)],
    ),
    "constant-3": ({"n": 5, "alphas": [], "betas": [1], "gammas": [0, 1]}, [(0, -3)]),
}


@pytest.mark.parametrize("label", sorted(LEAD_SPECS))
def test_non_monic_factors_match_the_lucas_oracle(label):
    data, degrees_and_leads = LEAD_SPECS[label]
    spec = validate_spec(data)
    sys = spectral_system(spec)
    assert [(k.degree, k.lead) for k, _ in sys.trace_factors] == degrees_and_leads
    for m in (1000, 1001):
        for k, c in sys.trace_factors:
            fixed, root = half_resultant(k, m, c)
            assert abs(fixed) * root**2 == abs_resultant_with_power(k, m, c), (label, m, c)
            # the lc(K) powers cancel, so the witness stays half-size off the monic case
            assert root.bit_length() <= closed_count_formal(sys, sys.stride * m).tau.bit_length() // 2
        n = sys.stride * m
        assert closed_count_formal(sys, n).tau == closed_count_by_lucas(_at(spec, n)), (label, n)
    for n in range(spec.n, ORACLE_VERTICES // 2 + 1, sys.stride):
        tau = closed_count_formal(sys, n).tau
        assert tau == closed_count_by_lucas(_at(spec, n)) == tree_count_oracle(_at(spec, n)), (label, n)


def test_random_counts_match_their_pinned_digest():
    # 900 closed counts, or the class name of the typed error an order raises
    out = []
    for spec in random_connected_specs(300, seed=99, n_max=24, r_max=3, t_max=3, s_max=4):
        for n in (spec.n, spec.n + 14, 3 * spec.n + 2):
            data = {**dataclasses.asdict(spec), "n": n}
            try:
                out.append(tree_count_closed(validate_spec(data)).tau)
            except BforestError as exc:
                out.append(type(exc).__name__)
    assert len(out) == 900
    assert hashlib.sha256(repr(out).encode()).hexdigest().startswith("c4eb9ac5")


def test_count_takes_half_size_resultants(monkeypatch):
    bits = []

    def recorded(f, g):
        value = subresultants(f, g)
        bits.append(abs(value[0]).bit_length())
        return value

    subresultants = polynomials._subresultants
    monkeypatch.setattr(polynomials, "_subresultants", recorded)
    tau = tree_count_closed(validate_spec({**BIG, "n": 2000})).tau
    assert bits and max(bits) <= tau.bit_length() // 2 + 64, (bits, tau.bit_length())

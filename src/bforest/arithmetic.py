"""Perfect-square structure of the tree counts.

Every bicirculant tree count factors as (cofactor) * (integer witness)^2,
where the cofactor depends only on parity data of the connection sets.
``verify_square_structure`` recovers the witness and checks the claimed
branch exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .counting import TreeCount, spectral_system
from .errors import DegenerateSystem, NonDivisible, NonPositiveStructure, NotAPerfectSquare
from .graphs import ConnectionSpec
from .polynomials import squarefree_part

__all__ = ["ArithmeticProfile", "SquareWitness", "arithmetic_profile", "verify_square_structure"]


@dataclass(frozen=True)
class ArithmeticProfile:
    odd_alphas: int
    even_alphas: int
    odd_betas: int
    even_betas: int
    odd_gammas: int
    even_gammas: int
    structure_odd: int | None  # square-free constant for the odd branch; family 1 uses none
    structure_even: int | None  # None when the evaluation at z=-1 vanishes


@dataclass(frozen=True)
class SquareWitness:
    branch: str  # "odd" or "even"
    cofactor: Fraction  # tau == cofactor * witness^2 exactly
    witness: int


def _structure_value(raw: int) -> int | None:
    # a vanishing evaluation at z=-1 means the graph is disconnected at the
    # orders that would use this branch, so no constant exists for it
    if raw <= 0:
        return None
    return squarefree_part(raw)


def arithmetic_profile(spec: ConnectionSpec) -> ArithmeticProfile:
    """Parity counts plus the two square-free structure constants.

    The raw values are evaluations of the spectral polynomials at z=-1,
    which is x = -2 for their trace polynomials:
    the even-branch constant comes from the base polynomial, the odd-branch
    constant from the family polynomial.  Family 1's family polynomial is the
    base, so its ``structure_odd`` is the base's value, which no row uses:
    at odd n its cofactor is n * s.
    """
    k1 = sum(1 for a in spec.alphas if a % 2 == 1)
    m1 = sum(1 for b in spec.betas if b % 2 == 1)
    h1 = sum(1 for g in spec.gammas if g % 2 == 1)
    try:
        sys = spectral_system(spec)
        family_raw = sys.family_poly(-2)
        base_raw = sys.base_poly(-2)
    except DegenerateSystem:  # a vanishing base polynomial has no branches
        family_raw = base_raw = 0
    return ArithmeticProfile(
        odd_alphas=k1,
        even_alphas=spec.r - k1,
        odd_betas=m1,
        even_betas=spec.t - m1,
        odd_gammas=h1,
        even_gammas=spec.s - h1,
        structure_odd=_structure_value(family_raw),
        structure_even=_structure_value(base_raw),
    )


def verify_square_structure(spec: ConnectionSpec, tau: TreeCount | int) -> SquareWitness:
    """Factor tau as cofactor * witness^2 and return the integer witness.

    With (m, prefactor) = ``SpectralSystem.order(n)``, the branch is the
    parity of m, and the cofactor is prefactor * q = n * s / stride^2 times
    the square-free part of K(-2), the value at z = -1, for the factor (K, c)
    whose z^m + c vanishes there (no such factor: times 1).  An order without
    a count raises as the count does.  Raises :class:`NotAPerfectSquare` (a
    negative tau included) or :class:`NonDivisible` if the claimed
    decomposition fails.
    """
    value = tau.tau if isinstance(tau, TreeCount) else int(tau)
    sys = spectral_system(spec)
    m, prefactor = sys.order(spec.n)
    branch = "odd" if m % 2 == 1 else "even"
    structure = 1
    for k, c in sys.factors:
        if (-1) ** m + c == 0:
            structure = _structure_value(k(-2))
            if structure is None:
                raise NonPositiveStructure(
                    "structure constant undefined: the spectral value at z=-1 "
                    "vanishes, so the graph is disconnected on this branch"
                )
    cofactor = prefactor * sys.degeneracy * structure

    ratio = Fraction(value) / cofactor
    if ratio.denominator != 1:
        raise NonDivisible(f"cofactor {cofactor} does not divide tau={value}")
    square = int(ratio)
    witness = math.isqrt(max(square, 0))
    if witness * witness != square:
        raise NotAPerfectSquare(
            f"tau/cofactor = {square} is not a perfect square (tau={value})"
        )
    # odd n/2, odd s and an odd structure constant force an even witness
    if sys.stride == 2 and branch == "odd" and spec.s % 2 == 1 and structure % 2 == 1 and witness % 2:
        raise NonDivisible(f"odd n/2, s and structure force an even witness, got {witness}")
    return SquareWitness(branch, cofactor, witness)

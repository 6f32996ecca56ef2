"""Perfect-square structure of the tree counts.

Every bicirculant tree count factors as (cofactor) * (integer witness)^2,
where the cofactor depends only on parity data of the connection sets.
``verify_square_structure`` recovers the witness and checks the claimed
branch exactly; ``square_witness`` does so over a table already built.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .counting import SpectralSystem, TreeCount, spectral_system
from .errors import DegenerateSystem, NonDivisible, NonPositiveStructure, NotAPerfectSquare
from .graphs import ConnectionSpec
from .polynomials import fixed_part, squarefree_part

__all__ = ["ArithmeticProfile", "SquareWitness", "arithmetic_profile", "square_witness",
           "verify_square_structure"]


@dataclass(frozen=True)
class ArithmeticProfile:
    structure_odd: int | None  # square-free constant for the odd branch; family 1 uses none
    structure_even: int | None  # None when the evaluation at z=-1 vanishes


@dataclass(frozen=True)
class SquareWitness:
    branch: str  # "odd" or "even"
    cofactor: Fraction  # tau == cofactor * witness^2 exactly
    witness: int


def _structure(sys: SpectralSystem, m: int) -> int | None:
    """The square-free part of prod |``fixed_part``(K, m, c)| / q over the
    trace table, the values at x = +-2 the count takes outside its square;
    None for a product 0: the graph is disconnected at the orders of m's parity."""
    fixed = math.prod(abs(fixed_part(k, m, c)) for k, c in sys.trace_factors)
    return squarefree_part(fixed // sys.degeneracy) if fixed else None


def arithmetic_profile(spec: ConnectionSpec) -> ArithmeticProfile:
    """The two square-free structure constants of the spec's trace table.

    ``structure_even`` is the constant at m = 2, ``structure_odd`` the one
    at m = 1 for stride 2.  Family 1 reports its even constant as its odd
    one, which no row uses: at odd n its constant is 1.
    """
    try:
        sys = spectral_system(spec)
        structure_even = _structure(sys, 2)
        structure_odd = _structure(sys, 1) if sys.stride == 2 else structure_even
    except DegenerateSystem:  # a vanishing base or no spokes: no branches
        structure_odd = structure_even = None
    return ArithmeticProfile(structure_odd, structure_even)


def verify_square_structure(spec: ConnectionSpec, tau: TreeCount | int) -> SquareWitness:
    """``square_witness`` at the spec's order, over the spec's trace table."""
    return square_witness(spectral_system(spec), spec.n, tau)


def square_witness(sys: SpectralSystem, n: int, tau: TreeCount | int) -> SquareWitness:
    """Factor tau as cofactor * witness^2 and return the integer witness.

    With (m, prefactor) = ``sys.order(n)``, the branch is the parity of m,
    and the cofactor is prefactor * q = n * s / stride^2 times the structure
    constant at m, the one ``arithmetic_profile`` reports for m's parity.  An
    order without a count raises as the count does.  Raises
    :class:`NotAPerfectSquare` (a negative tau included) or
    :class:`NonDivisible` if the claimed decomposition fails.
    """
    value = tau.tau if isinstance(tau, TreeCount) else operator.index(tau)
    m, prefactor = sys.order(n)
    branch = "odd" if m % 2 == 1 else "even"
    structure = _structure(sys, m)
    if structure is None:
        raise NonPositiveStructure(
            "structure constant undefined: the spectral value at z=-1 "
            "vanishes, so the graph is disconnected on this branch"
        )
    cofactor = prefactor * sys.degeneracy * structure

    # sizes, not values, in the messages: tau may pass the int digit limit
    ratio = Fraction(value) / cofactor
    if ratio.denominator != 1:
        raise NonDivisible(f"cofactor {cofactor} does not divide the {value.bit_length()}-bit tau")
    square = int(ratio)
    witness = math.isqrt(max(square, 0))
    if witness * witness != square:
        size = "negative" if square < 0 else f"{square.bit_length()}-bit"
        raise NotAPerfectSquare(f"the {size} tau/cofactor is not a perfect square")
    return SquareWitness(branch, cofactor, witness)

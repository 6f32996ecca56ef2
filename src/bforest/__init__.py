"""Exact spanning-tree counts of bicirculant graphs.

The package counts spanning trees of the two-layer circulant graphs
BC(Z_n; R, T, S) three independent ways (Kirchhoff matrix-tree, exact
resultants, high-precision Chebyshev evaluation) and exposes the
arithmetic square structure, Mahler-measure asymptotics and rational
generating functions of the resulting integer sequences.

The exact core imports only the standard library.  The float names (roots,
Mahler measures, asymptotics, the Chebyshev check) live in ``mahler``,
which this package imports, with mpmath and numpy, on first use of one.
"""

from .arithmetic import (
    ArithmeticProfile,
    SquareWitness,
    arithmetic_profile,
    verify_square_structure,
)
from .counting import (
    SpectralSystem,
    TreeCount,
    closed_count_formal,
    spectral_system,
    tree_count_closed,
)
from .errors import (
    BforestError,
    DegenerateSystem,
    HalfWithoutEvenN,
    InexactDivision,
    InvariantViolation,
    NonConvergence,
    NonDivisible,
    NonIntegralResult,
    NonMonicDenominator,
    NonPositiveStructure,
    NotAPerfectSquare,
    NotConnected,
    OrderExceeded,
    OutOfRange,
    SpecError,
)
from .genfun import (
    RationalGF,
    TauSequence,
    expand_series,
    find_recurrence,
    genfun,
    gf_eval,
    symmetry_scale,
    tau_sequence,
    verify_symmetry,
)
from .graphs import (
    ConnectionSpec,
    check_connectivity,
    is_connected,
    realize,
    validate_spec,
)
from .matrixtree import det_fraction_free, tree_count_oracle
from .polynomials import (
    IntPoly,
    exact_divide,
    resultant,
    squarefree_part,
    trace_polynomial,
)

__version__ = "1.0.0"

__all__ = [
    "ArithmeticProfile",
    "SquareWitness",
    "arithmetic_profile",
    "verify_square_structure",
    "SpectralSystem",
    "TreeCount",
    "closed_count_formal",
    "spectral_system",
    "tree_count_chebyshev",
    "tree_count_closed",
    "BforestError",
    "DegenerateSystem",
    "HalfWithoutEvenN",
    "InexactDivision",
    "InvariantViolation",
    "NonConvergence",
    "NonDivisible",
    "NonIntegralResult",
    "NonMonicDenominator",
    "NonPositiveStructure",
    "NotAPerfectSquare",
    "NotConnected",
    "OrderExceeded",
    "OutOfRange",
    "SpecError",
    "RationalGF",
    "TauSequence",
    "expand_series",
    "find_recurrence",
    "genfun",
    "gf_eval",
    "symmetry_scale",
    "tau_sequence",
    "verify_symmetry",
    "ConnectionSpec",
    "check_connectivity",
    "is_connected",
    "realize",
    "validate_spec",
    "MahlerEstimate",
    "asymptotic_prediction",
    "convergence_report",
    "growth_base",
    "mahler_quadrature",
    "mahler_root_product",
    "det_fraction_free",
    "tree_count_oracle",
    "IntPoly",
    "exact_divide",
    "resultant",
    "roots_numeric",
    "squarefree_part",
    "trace_polynomial",
]


def __getattr__(name):
    # every name of __all__ not bound above is a float name (PEP 562)
    if name in __all__:
        from . import mahler

        return getattr(mahler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

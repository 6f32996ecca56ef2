"""Exact spanning-tree counts of bicirculant graphs.

The package counts spanning trees of the two-layer circulant graphs
BC(Z_n; R, T, S) three independent ways (Kirchhoff matrix-tree, exact
resultants, high-precision Chebyshev evaluation) and exposes the
arithmetic square structure, Mahler-measure asymptotics and rational
generating functions of the resulting integer sequences.

The package imports only the standard library.  The float names (roots,
Mahler measures, asymptotics, the Chebyshev check) live in ``mahler``, whose
arithmetic is ``decimal``, and which this package imports on first use of one.
Each module's ``__all__`` is the one list of its public names; the package
exports their union.
"""

import sys as _sys

from .arithmetic import *
from .counting import *
from .errors import *
from .genfun import *
from .graphs import *
from .matrixtree import *
from .polynomials import *

__version__ = "1.0.0"

_EXACT_MODULES = ("arithmetic", "counting", "errors", "genfun", "graphs", "matrixtree", "polynomials")
# the float layer's public names: mahler takes its __all__ from here, so
# importing the package leaves the float layer unloaded
_FLOAT_NAMES = (
    "roots_numeric",
    "tree_count_chebyshev",
    "MahlerEstimate",
    "mahler_quadrature",
    "growth_base",
    "convergence_report",
)

# a star import binds e.g. ``genfun`` to the function, so read each list
# from the module object itself
__all__ = [name for m in _EXACT_MODULES for name in _sys.modules[f"{__name__}.{m}"].__all__]
__all__ += _FLOAT_NAMES


def __getattr__(name):
    # the float names resolve through mahler on first use (PEP 562)
    if name in _FLOAT_NAMES:
        from . import mahler

        return getattr(mahler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

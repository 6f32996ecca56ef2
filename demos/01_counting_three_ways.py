"""Count spanning trees of a bicirculant three independent ways.

The triangular prism is the bicirculant on Z_3 with one generator on each
layer and a single straight spoke.  We count its spanning trees by the
Kirchhoff matrix-tree cofactor, by the exact resultant closed form, and by
a high-precision Chebyshev evaluation, then push the closed form to orders
far beyond what a dense Laplacian could handle.
"""

import sys
import time

sys.set_int_max_str_digits(100000)  # counts at n=10000 have ~6000 digits

from bforest import (
    closed_count_formal,
    spectral_system,
    tree_count_chebyshev,
    tree_count_closed,
    tree_count_oracle,
    validate_spec,
)

spec = validate_spec({"n": 3, "alphas": [1], "betas": [1], "gammas": [0]})
print("spec:", spec.to_json())
print("family:", spec.family)

oracle = tree_count_oracle(spec)
closed = tree_count_closed(spec)
value, rel_error = tree_count_chebyshev(spec)
print(f"matrix-tree oracle : {oracle}")
print(f"resultant closed   : {closed.tau}")
print(f"chebyshev decimal  : {value:.30g} (relative error bound {rel_error:.1e})")
assert oracle == closed.tau == 75

# The closed form takes one small integer resultant per trace factor, with the
# Lucas polynomial V_n reduced modulo K in O(log n) steps, so enormous orders
# stay cheap.
sys = spectral_system(spec)
for n in (100, 1000, 10000):
    start = time.perf_counter()
    tau = closed_count_formal(sys, n).tau
    elapsed = time.perf_counter() - start
    print(f"n={n:>6}: tau has {len(str(tau))} digits ({elapsed * 1000:.1f} ms)")

# A family with the n/2 chord on the right layer (K4 with pendant vertices
# at n=4): counts exist only at even orders.
variant = validate_spec({"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_r": True})
print("variant family:", variant.family, "tau:", tree_count_closed(variant).tau)

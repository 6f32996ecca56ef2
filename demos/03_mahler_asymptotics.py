"""Tree counts grow geometrically with a Mahler-measure growth base.

The base is computed two independent ways -- from the roots of the
spectral polynomial and from the defining log-integral over the unit
circle -- and the resulting leading-order prediction is compared with the
exact counts.
"""

import math

from bforest import (
    IntPoly,
    convergence_report,
    growth_base,
    mahler_quadrature,
    spectral_system,
    validate_spec,
)

spec = validate_spec({"n": 3, "alphas": [1], "betas": [1], "gammas": [0]})
root = growth_base(spec)
# the quadrature is the midpoint rule for the mean of log|K(2 cos theta)|, over
# the prism's base x - 2 and its trace factor K, on 2^20 points: x - 2 in closed
# form, 2 ln 2 / 2^20 (the 1.3e-6 it sits above the root product), and K by its
# exact midpoint sum on 2048 points, a resultant against z^2048 + 1
factors = [IntPoly([-2, 1]), *(k for k, _ in spectral_system(spec).trace_factors)]
quad = mahler_quadrature(*factors)
print(f"root-product measure: {root.value:.12f} (error bound {root.error_bound:.1e})")
print(f"quadrature measure  : {quad.value:.12f} (error bound {quad.error_bound:.1e})")
print(f"algebraic value     : {2 + math.sqrt(3):.12f} = 2 + sqrt(3)")
print()

print(" n        exact tau        prediction     |ratio - 1|")
for row in convergence_report(spec, [5, 10, 15, 20, 25]):
    print(f"{row['n']:>2} {row['tau']:>16} {row['prediction']:>17.6g} {row['deviation']:>14.3e}")

# The variant families grow with the measure of the product of the family
# and base polynomials, at half the exponent.
variant = validate_spec(
    {"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_r": True, "half_t": True}
)
print()
print(f"variant growth base: {growth_base(variant).value:.9f}"
      f" (= 7 + 2*sqrt(10) = {7 + 2 * math.sqrt(10):.9f})")
for row in convergence_report(variant, [10, 20, 40]):
    print(f"n={row['n']:>2}: |ratio - 1| = {row['deviation']:.3e}")

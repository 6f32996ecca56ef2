"""The perfect-square structure of bicirculant tree counts.

Every tree count factors as a small parity-determined cofactor times a
perfect square.  The cofactor branches on the parity of the order (or of
half the order for the families carrying an n/2 chord).
"""

from dataclasses import replace

from bforest import (
    arithmetic_profile,
    closed_count_formal,
    spectral_system,
    validate_spec,
    verify_square_structure,
)

spec = validate_spec({"n": 3, "alphas": [1], "betas": [1], "gammas": [0]})
profile = arithmetic_profile(spec)
print("structure constants:", profile)
print()

sys = spectral_system(spec)
print(" n        tau  branch  cofactor  witness")
for n in range(3, 13):
    tau = closed_count_formal(sys, n).tau
    w = verify_square_structure(replace(spec, n=n), tau)
    print(f"{n:>2} {tau:>10}  {w.branch:<6}  {str(w.cofactor):>8}  {w.witness:>7}")
    assert w.cofactor * w.witness ** 2 == tau

# For the half-chord families the cofactor can be a quarter-integer; when
# order/2, spoke count and structure constant are all odd the witness is
# forced to be even, which makes the product integral anyway.
variant = validate_spec(
    {"n": 6, "alphas": [1], "betas": [], "gammas": [0], "half_r": True, "half_t": True}
)
vsys = spectral_system(variant)
tau = closed_count_formal(vsys, 6).tau
w = verify_square_structure(variant, tau)
print()
print(f"variant n=6: tau={tau}, cofactor={w.cofactor}, witness={w.witness} (even)")

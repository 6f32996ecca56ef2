"""Exact rational generating functions of tree-count sequences.

The counts of a fixed connection pattern satisfy a short linear recurrence
recovered exactly by Berlekamp-Massey modulo word-size primes, combined by
CRT, lifted to the balanced range and checked on every term.  The resulting
rational function obeys an x <-> 1/x symmetry after rescaling by the
leading spectral coefficients.
"""

from fractions import Fraction

from bforest import (
    expand_series,
    find_recurrence,
    genfun,
    gf_eval,
    symmetry_scale,
    tau_sequence,
    validate_spec,
    verify_symmetry,
)

spec = validate_spec({"n": 3, "alphas": [1], "betas": [1], "gammas": [0]})
seq = tau_sequence(spec, 24)
print("first terms:", seq.values[:8])

recurrence = find_recurrence(seq)
print("minimal recurrence coefficients:", recurrence)

gf = genfun(seq, recurrence)
print("generating function:", gf.to_dict())

# The generating function certifies itself: it reproduces the training
# terms and predicts new ones.
future = expand_series(gf, 30)[24:]
check = tau_sequence(spec, 30).values[24:]
print("predicted terms 25-30:", future)
assert tuple(future) == check

scale = symmetry_scale(spec)
print(f"symmetry F(x/{scale}) = F(1/({scale}x)):", verify_symmetry(gf, scale))
print("F(1/10) =", float(gf_eval(gf, Fraction(1, 10))))

# A variant family whose symmetry only appears at scale 3.
variant = validate_spec({"n": 4, "alphas": [1], "betas": [], "gammas": [0], "half_t": True})
vseq = tau_sequence(variant, 24)
vgf = genfun(vseq, find_recurrence(vseq))
vscale = symmetry_scale(variant)
print()
print("variant recurrence:", vgf.recurrence)
print(f"variant symmetric at scale {vscale}:", verify_symmetry(vgf, vscale))
print("variant symmetric at scale 1:", verify_symmetry(vgf, 1))

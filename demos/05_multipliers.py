"""Split Fourier multipliers: constants, the inequality ledger, estimation.

The exactly known operator norms are the half-line constant
c_p = csc(pi/p), its real-data variant c_p^R, and the segment constant
n_p = max(tan, cot)(pi/(2p)).  Around them sits a two-sided ledger for
split multipliers, an equality case for positive kernels, and a lower
estimator: any test function's quotient bounds the grid operator's norm
from below, but the estimator computes it in floating point, so its values
are floating-point lower estimates, not proved bounds.
"""

import math

from splitnorm import (
    bound_report,
    constants,
    estimate_lower,
    exact_norm_positive_kernel,
    halfline_multiplier,
    segment_multiplier,
    split_multiplier,
    tent,
    tent_multiplier,
)

print("== the constants ==")
for p in (2.0, 3.0, 4.0):
    c = constants(p)
    print(f"p = {p}: n_p = {c.n_p:.6f}, c_p = {c.c_p:.6f}, c_p^R = {c.c_p_real:.6f}")
print(f"(p = 2 checks: c_2^R = 1/sqrt2 = {1 / math.sqrt(2):.6f})")

print()
print("== the positive-kernel equality case ==")
ell = exact_norm_positive_kernel(tent(-1, 0, 1))
c4 = constants(4.0)
print(f"tent multiplier: |||m||| = m(0) = {ell}; halves: "
      f"|||m_+||| = c_p * {ell} = {c4.c_p * ell:.6f} at p = 4")

print()
print("== the split-square ledger line at p = 4 ==")
rep = bound_report("square", {"p": 4, "A": 1.0, "t": 0.5})
print(f"{rep.lower:.6f} <= |||S_t chi_square||| <= {rep.upper:.6f}")
rep2 = bound_report("two_way", {"p": 4, "A": 1.0, "t": 0.6, "ell": 1.0,
                                "m_norm": 1.0, "in_R": True})
print(f"split tent two-way: [{rep2.lower:.6f}, {rep2.upper:.6f}]")

print()
print("== floating-point lower estimates from the estimator (N = 4096) ==")
n = 2 ** 12
half = halfline_multiplier(n, 8.0)
r = estimate_lower(half, 4.0, iterations=200, seed=1)
print(f"half line, p = 4:  {r.estimate:.5f}  (c_4 = {c4.c_p:.5f}; "
      f"ratio {r.estimate / c4.c_p:.3f} -- power-law convergence)")

seg = segment_multiplier(n, 2.0)
r2 = estimate_lower(seg, 4.0, iterations=200, seed=1)
print(f"segment,  p = 4:  {r2.estimate:.5f}  (c_4 = {c4.c_p:.5f}; "
      f"ratio {r2.estimate / c4.c_p:.3f} -- with omega = 2 the segment")
print("                   (-1, 1) is half the periodic band: the grid operator")
print("                   is the half-band projection shifted by N/4 bins, so")
print(f"                   its target is c_4, not n_4 = {c4.n_p:.5f}; the ratio")
print(f"                   to n_4 approaches 2 - sqrt2 = {2 - math.sqrt(2):.3f})")

shifted = halfline_multiplier(n, 8.0, shift=-1.0)
r3 = estimate_lower(shifted, 2.0, iterations=100, seed=1, real_test_functions=True)
print(f"shifted half line, p = 2, real data: {r3.estimate:.5f} "
      f"(vs 1/sqrt2 = {1 / math.sqrt(2):.5f} unshifted: translation matters "
      "for the real-data norm)")

print()
print("== splitting a discrete multiplier ==")
stm, snapped = split_multiplier(tent_multiplier(n, 4.0), 1.5)
r4 = estimate_lower(stm, 4.0, iterations=200, seed=1)
print(f"split tent at t = {snapped}: estimate {r4.estimate:.5f}, "
      f"{r4.estimate / rep2.lower:.3f} of the lower edge of "
      f"[{rep2.lower:.5f}, {rep2.upper:.5f}]")
print("                   it lies below the interval: the estimate is a lower")
print("                   estimate for the grid operator, and the interval")
print("                   bounds the continuum one")

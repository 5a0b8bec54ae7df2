"""The p = 3 experiments: constancy and monotonicity both fail for odd p.

For the unit indicator, even p gives a profile that is constant past
(p-2)A/4 and nonincreasing.  At p = 3 neither survives: numerical
integration shows the profile keeps oscillating (tiny, decaying wiggles)
and rises between t = 3/4 and t = 1.  The rise rests on error budgets whose
tail part is proved and whose quadrature part is the |K15 - G7| estimate,
so it is not a proof.
"""

from splitnorm import indicator, norm_numeric

chi = indicator(-1, 1)

print("== (N_t f)^3 along the reference shifts ==")
for t in (0.25, 1.0, 5.0, 12.0):
    res = norm_numeric(chi, 3.0, t, target_abs_err=1e-3)
    print(f"t = {t:5}: {res.value:.5f} +- {res.abs_error:.1e}")

print()
print("== a rise beyond the error budgets (proved tail, estimated quadrature) ==")
lo = norm_numeric(chi, 3.0, 0.75, target_abs_err=2e-5)
hi = norm_numeric(chi, 3.0, 1.0, target_abs_err=2e-5)
print(f"t = 3/4: {lo.value:.6f} +- {lo.abs_error:.1e}")
print(f"t = 1:   {hi.value:.6f} +- {hi.abs_error:.1e}")
print(f"rise {hi.value - lo.value:.2e} > 3x summed budgets "
      f"{3 * (lo.abs_error + hi.abs_error):.2e}: "
      f"{hi.value - lo.value > 3 * (lo.abs_error + hi.abs_error)}")

print()
print("== the t = 5 vs t = 12 comparison is finer than it looks ==")
a = norm_numeric(chi, 3.0, 5.0, target_abs_err=2e-5)
b = norm_numeric(chi, 3.0, 12.0, target_abs_err=2e-5)
print(f"t = 5:  {a.value:.7f} +- {a.abs_error:.1e}")
print(f"t = 12: {b.value:.7f} +- {b.abs_error:.1e}")
print(f"difference {a.value - b.value:+.1e}: the values straddle within "
      "4e-6 of each other, far below 5-digit table resolution")

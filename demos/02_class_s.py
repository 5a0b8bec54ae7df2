"""Class-S membership: when is f_+ * f_- nonincreasing on [0, oo)?

Membership is what makes the norm profile decrease.  The decision is fully
exact: the convolution is computed in rational arithmetic and monotonicity
is decided by real-root isolation, producing a rational witness pair on
failure.
"""

from splitnorm import class_s_check, class_s_sufficient, convolve, indicator, split, tent
from splitnorm.scalars import rat

print("== single bumps are members ==")
for name, f, r in [
    ("indicator chi_[-1,1]", indicator(-1, 1), 0),
    ("tent (1-|x|)_+", tent(-1, 0, 1), 0),
]:
    print(f"{name}: member = {class_s_check(f).ok}, "
          f"bump criterion at r={r}: {class_s_sufficient(f, r)}")

print()
print("== nested steps (single-bump criterion with positive radius) ==")
steps = indicator(1, 2) + indicator(rat(1, 2), 3) * rat(1, 3)
f = steps + steps.reflect()
print(f"nested steps: member = {class_s_check(f).ok}, "
      f"criterion at r = 3/2: {class_s_sufficient(f, rat(3, 2))}")

print()
print("== two distant bumps are NOT a member ==")
g = indicator(-1, 1) + indicator(10, 11) + indicator(-11, -10)
verdict = class_s_check(g)
print(f"member = {verdict.ok}, witness = {verdict.witness}")
pair = split(g)
conv = convolve(pair.plus, pair.minus)
x1, x2 = verdict.witness
print(f"f_+ * f_- at the witness pair: {conv.eval(x1)} < {conv.eval(x2)}")
print("(the cross-bump correlation resurges near x = 10)")

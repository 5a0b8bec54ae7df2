"""Split operators and the class-S machinery.

The split operator translates the positive-support half of a function
right by t and the negative-support half left by t.  Class S consists of
the real functions whose positive half convolved with the negative half is
nonincreasing on [0, oo); "decreases" is implemented as weak monotonicity,
since indicator bumps (the canonical members) are only weakly decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SplitnormError
from .polyalg import (
    ZERO_POLY,
    MonotoneVerdict,
    PiecewisePoly,
    convolve,
    is_nonincreasing_on,
    is_nonnegative,
)
from .scalars import RAT_ZERO, rat

__all__ = [
    "SplitPair",
    "split",
    "apply_split",
    "apply_gen_split",
    "class_s_check",
    "class_s_sufficient",
]


@dataclass(frozen=True)
class SplitPair:
    """The two moving halves of a split and the interval data they live in.

    ``plus`` is supported in [-b, A] and moves right; ``minus`` is supported
    in [-A, b] and moves left; |b| <= A.  The standard split is b = 0.
    """

    plus: PiecewisePoly
    minus: PiecewisePoly
    A: object
    b: object

    def __post_init__(self):
        object.__setattr__(self, "A", rat(self.A))
        object.__setattr__(self, "b", rat(self.b))
        if abs(self.b) > self.A:
            raise SplitnormError(f"need |b| <= A, got b={self.b}, A={self.A}")
        s = self.plus.support()
        if s is not None and not (-self.b <= s[0] and s[1] <= self.A):
            raise SplitnormError("plus must be supported in [-b, A]")
        s = self.minus.support()
        if s is not None and not (-self.A <= s[0] and s[1] <= self.b):
            raise SplitnormError("minus must be supported in [-A, b]")


def split(f: PiecewisePoly) -> SplitPair:
    """Restrictions to x > 0 and x < 0, with A the support radius and b = 0;
    plus + minus = f almost everywhere.  Cut on f's breakpoints and 0, each
    half keeps the pieces on its side and zeros on the other."""
    if f.is_zero():
        return SplitPair(f, f, RAT_ZERO, RAT_ZERO)
    bps = sorted({*f.breakpoints, RAT_ZERO})
    pieces = [f.piece_at(a) for a in bps[:-1]]
    plus = PiecewisePoly(bps, [q if a >= 0 else ZERO_POLY for a, q in zip(bps, pieces)])
    minus = PiecewisePoly(bps, [ZERO_POLY if a >= 0 else q for a, q in zip(bps, pieces)])
    return SplitPair(plus, minus, f.support_radius(), RAT_ZERO)


def apply_split(f: PiecewisePoly, t) -> PiecewisePoly:
    """S_t f = f_+ translated right by t plus f_- translated left by t.

    An exact L2 isometry for t >= 0 (the translated halves keep disjoint
    interiors).
    """
    t = rat(t)
    if t < 0:
        raise SplitnormError(f"split shift must be nonnegative, got {t}")
    return apply_gen_split(split(f), t)


def apply_gen_split(pair: SplitPair, t) -> PiecewisePoly:
    """plus(x - t) + minus(x + t) for any rational t."""
    t = rat(t)
    return pair.plus.translate(t) + pair.minus.translate(-t)


def class_s_check(f: PiecewisePoly) -> MonotoneVerdict:
    """Decide exactly whether f_+ * f_- is nonincreasing on [0, oo).

    The verdict is that monotone decision itself: ``ok`` is membership, and
    a nonmember's ``witness`` is a pair where f_+ * f_- increases.
    """
    if not f.is_real():
        raise SplitnormError("class-S membership applies to real functions")
    pair = split(f)
    return is_nonincreasing_on(convolve(pair.plus, pair.minus), RAT_ZERO)


def class_s_sufficient(f: PiecewisePoly, r) -> bool:
    """Single-bump sufficient condition at radius r >= 0.

    True iff f is even, nonnegative, and f_+ is nondecreasing on (0, r] and
    nonincreasing on [r, oo) -- all decided exactly.  True implies
    membership (``class_s_check(f).ok``).
    """
    r = rat(r)
    if r < 0:
        raise ValueError("bump radius must be nonnegative")
    if not f.is_real():
        raise SplitnormError("the bump criterion applies to real functions")
    if f.reflect() != f:
        return False
    if not is_nonnegative(f).ok:
        return False
    plus = split(f).plus
    # nondecreasing on (0, r] is nonincreasing of -f_+ there
    if r > 0 and not is_nonincreasing_on(-plus, RAT_ZERO, r).ok:
        return False
    return is_nonincreasing_on(plus, r).ok


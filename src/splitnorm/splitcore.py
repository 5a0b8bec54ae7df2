"""Split operators and the class-S machinery.

The split operator translates the positive-support half of a function
right by t and the negative-support half left by t.  Class S consists of
the real functions whose positive half convolved with the negative half is
nonincreasing on [0, oo); "decreases" is implemented as weak monotonicity,
since indicator bumps (the canonical members) are only weakly decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidSpec, NegativeShift, NonRealInput
from .polyalg import (
    PiecewisePoly,
    convolve,
    is_nondecreasing_on,
    is_nonincreasing_on,
    is_nonnegative,
    zero_function,
)
from .scalars import RAT_ZERO, format_rat, rat

__all__ = [
    "SplitPair",
    "GenSplitSpec",
    "ClassSVerdict",
    "split",
    "apply_split",
    "apply_gen_split",
    "even_odd",
    "class_s_check",
    "class_s_sufficient",
]


@dataclass(frozen=True)
class SplitPair:
    """The two halves of a function: plus on [0, oo), minus on (-oo, 0]."""

    plus: PiecewisePoly
    minus: PiecewisePoly

    def reconstruct(self) -> PiecewisePoly:
        return self.plus + self.minus


@dataclass(frozen=True)
class GenSplitSpec:
    """Generalized split data: f1 supported in [-A, b], f2 in [-b, A], |b| <= A."""

    f1: PiecewisePoly
    f2: PiecewisePoly
    A: object
    b: object

    def __post_init__(self):
        object.__setattr__(self, "A", rat(self.A))
        object.__setattr__(self, "b", rat(self.b))
        if abs(self.b) > self.A:
            raise InvalidSpec(f"need |b| <= A, got b={self.b}, A={self.A}")
        s1 = self.f1.support()
        if s1 is not None and not (-self.A <= s1[0] and s1[1] <= self.b):
            raise InvalidSpec("f1 must be supported in [-A, b]")
        s2 = self.f2.support()
        if s2 is not None and not (-self.b <= s2[0] and s2[1] <= self.A):
            raise InvalidSpec("f2 must be supported in [-b, A]")


@dataclass(frozen=True)
class ClassSVerdict:
    """Membership verdict; the witness is a pair where f_+ * f_- increases."""

    member: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.member

    def to_json_dict(self) -> dict:
        return {
            "member": self.member,
            "witness": None
            if self.witness is None
            else [format_rat(self.witness[0]), format_rat(self.witness[1])],
        }


def split(f: PiecewisePoly) -> SplitPair:
    """Restrictions to x > 0 and x < 0; plus + minus = f almost everywhere."""
    return SplitPair(plus=f.restrict(lo=RAT_ZERO), minus=f.restrict(hi=RAT_ZERO))


def apply_split(f: PiecewisePoly, t) -> PiecewisePoly:
    """S_t f = f_+ translated right by t plus f_- translated left by t.

    An exact L2 isometry for t >= 0 (the translated halves keep disjoint
    interiors).
    """
    t = rat(t)
    if t < 0:
        raise NegativeShift(f"split shift must be nonnegative, got {t}")
    pair = split(f)
    return pair.plus.translate(t) + pair.minus.translate(-t)


def apply_gen_split(spec: GenSplitSpec, t) -> PiecewisePoly:
    """f2(x - t) + f1(x + t) for any rational t."""
    t = rat(t)
    return spec.f2.translate(t) + spec.f1.translate(-t)


def even_odd(f: PiecewisePoly) -> tuple[PiecewisePoly, PiecewisePoly]:
    """Exact even/odd decomposition (f_e, f_o) with f_e + f_o = f."""
    even = (f + f.reflect()) * rat(1, 2)
    return even, f - even


def class_s_check(f: PiecewisePoly) -> ClassSVerdict:
    """Decide exactly whether f_+ * f_- is nonincreasing on [0, oo)."""
    if not f.is_real():
        raise NonRealInput("class-S membership is defined for real functions")
    pair = split(f)
    conv = convolve(pair.plus, pair.minus) if not (pair.plus.is_zero() or pair.minus.is_zero()) else zero_function()
    verdict = is_nonincreasing_on(conv, RAT_ZERO)
    return ClassSVerdict(member=verdict.ok, witness=verdict.witness)


def class_s_sufficient(f: PiecewisePoly, r) -> bool:
    """Single-bump sufficient condition at radius r >= 0.

    True iff f is even, nonnegative, and f_+ is nondecreasing on (0, r] and
    nonincreasing on [r, oo) -- all decided exactly.  True implies
    membership (``class_s_check(f).member``).
    """
    r = rat(r)
    if r < 0:
        raise ValueError("bump radius must be nonnegative")
    if not f.is_real():
        raise NonRealInput("the bump criterion applies to real functions")
    if f.reflect() != f:
        return False
    if not is_nonnegative(f):
        return False
    plus = split(f).plus
    if r > 0 and not is_nondecreasing_on(plus, RAT_ZERO, r):
        return False
    return bool(is_nonincreasing_on(plus, r))


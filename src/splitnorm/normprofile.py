"""The exact engine: (N_t f)^p as a piecewise polynomial in the shift t.

For even p = 2m, Plancherel turns the p-th power of the L^p norm of the
Fourier transform of the split function into the squared L2 norm of an
m-fold convolution power:

    int |F[S_t f]|^{2m} dy = || (S_t f)^{*m} ||_2^2.

Expanding the m-fold power binomially in the two translated halves gives

    (N_t f)^{2m} = sum_{i,j} C(m,i) C(m,j) K_ij(2(i-j)t),
    K_ij = correlate(G_i, G_j),   G_i = plus^{*i} * minus^{*(m-i)},

a finite sum of exactly computable piecewise polynomials in t.  The
diagonal terms are constants; every off-diagonal correlation has compact
support, which is why the profile is eventually constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import InvalidOffsets, InvariantViolation, NegativeNorm, OddOrNonintegerP
from .polyalg import (
    MonotoneVerdict,
    PiecewisePoly,
    Poly,
    convolve,
    is_nonincreasing_on,
    l2_inner,
    real_correlation_sum,
)
from .scalars import RAT_ZERO, as_scalar, format_rat, parts, rat
from .splitcore import GenSplitSpec, split

__all__ = [
    "NormProfile",
    "ConstancyVerdict",
    "CoeffSeq",
    "SeriesProfile",
    "norm_profile",
    "gen_profile",
    "check_constancy",
    "check_monotone",
    "newt_constant",
    "gen_t0",
    "gen_t0_2",
    "series_profile",
    "separable_profile",
]


def _half_exponent(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or p < 2 or p % 2 != 0:
        raise OddOrNonintegerP(f"the exact engine needs an even integer p >= 2, got {p!r}")
    return p // 2


@dataclass(frozen=True)
class NormProfile:
    """(N_t f)^p on [0, oo) as a finite window plus a constant tail.

    ``profile`` covers [0, t_max]; from ``constancy_onset`` on, the value
    is exactly ``tail_value`` (and t_max > constancy_onset, so the window
    always exhibits the constant tail explicitly).
    """

    p: int
    profile: PiecewisePoly
    t0: object
    tail_value: object
    constancy_onset: object
    t_max: object

    def value_at(self, t):
        """Exact profile value for rational t >= 0."""
        t = rat(t)
        if t < 0:
            raise ValueError("profiles live on t >= 0")
        if t >= self.constancy_onset:
            return self.tail_value
        return self.profile.eval(t)

    def scaled(self, factor) -> "NormProfile":
        factor = as_scalar(factor)
        if factor == 0:
            return NormProfile(self.p, PiecewisePoly([], []), self.t0, RAT_ZERO, RAT_ZERO, self.t_max)
        return NormProfile(
            self.p,
            self.profile * factor,
            self.t0,
            self.tail_value * factor,
            self.constancy_onset,
            self.t_max,
        )

    def to_json_dict(self) -> dict:
        doc = self.profile.to_json_dict()
        return {
            "p": self.p,
            "t0": format_rat(self.t0),
            "breakpoints": doc["breakpoints"],
            "pieces": doc["pieces"],
            "tail_value": format_rat(self.tail_value),
            "constant_from": format_rat(self.constancy_onset),
        }


@dataclass(frozen=True)
class ConstancyVerdict:
    constant_from: object
    threshold: object
    theorem_holds: bool

    def __bool__(self):
        return self.theorem_holds


def _convolution_blocks(plus: PiecewisePoly, minus: PiecewisePoly, m: int):
    """G_i = plus^{*i} * minus^{*(m-i)} for i = 0..m, reusing partial powers."""
    pow_plus = [None, plus]
    pow_minus = [None, minus]
    for k in range(2, m + 1):
        pow_plus.append(convolve(pow_plus[k - 1], plus))
        pow_minus.append(convolve(pow_minus[k - 1], minus))
    blocks = []
    for i in range(m + 1):
        if i == 0:
            blocks.append(pow_minus[m])
        elif i == m:
            blocks.append(pow_plus[m])
        else:
            blocks.append(convolve(pow_plus[i], pow_minus[m - i]))
    return blocks


def _assemble_profile(plus: PiecewisePoly, minus: PiecewisePoly, m: int):
    """Window, tail value, constancy onset, and t_max of the profile.

    For i < j the (i, j) and (j, i) terms are complex conjugates, and
    together they make ``2 w_i w_j Re K_ji(2(j-i)t)``: all off-diagonal
    pairs go into one real accumulation.
    """
    blocks = _convolution_blocks(plus, minus, m)
    weights = [math.comb(m, i) for i in range(m + 1)]

    tail = RAT_ZERO
    for i, g in enumerate(blocks):
        norm_sq = l2_inner(g, g)
        if isinstance(norm_sq, tuple):
            raise InvariantViolation("the diagonal terms of the profile must be real")
        tail = tail + rat(weights[i] ** 2) * norm_sq

    offdiag = real_correlation_sum(
        (2 * weights[i] * weights[j], 2 * (j - i), blocks[j], blocks[i])
        for i in range(m + 1)
        for j in range(i + 1, m + 1)
    )
    sup = offdiag.support()
    t_max = (sup[1] if sup is not None else RAT_ZERO) + 1
    window = offdiag + PiecewisePoly([RAT_ZERO, t_max], [Poly([tail])])
    onset = _constancy_onset(window, tail)
    return window, tail, onset, t_max


def _constancy_onset(window: PiecewisePoly, tail):
    """Least breakpoint after which the window is literally the constant tail."""
    if window.is_zero():
        return RAT_ZERO
    const = Poly([tail])
    onset = window.breakpoints[-1]
    for k in range(len(window.pieces) - 1, -1, -1):
        if window.pieces[k] == const:
            onset = window.breakpoints[k]
        else:
            break
    return onset


def norm_profile(f: PiecewisePoly, p: int) -> NormProfile:
    """Exact (N_t f)^p for even p, as a piecewise polynomial in t >= 0.

    Equals int |F[S_t f](y)|^p dy for every t >= 0; the engine never touches
    the frequency side.
    """
    m = _half_exponent(p)
    pair = split(f)
    window, tail, onset, t_max = _assemble_profile(pair.plus, pair.minus, m)
    a = f.support_radius()
    return NormProfile(
        p=p,
        profile=window,
        t0=rat(p - 2) * a / 4,
        tail_value=tail,
        constancy_onset=onset,
        t_max=t_max,
    )


def gen_profile(spec: GenSplitSpec, p: int) -> NormProfile:
    """Profile of the generalized split: f2 moves right, f1 moves left."""
    m = _half_exponent(p)
    window, tail, onset, t_max = _assemble_profile(spec.f2, spec.f1, m)
    threshold = gen_t0(spec.A, spec.b, p)
    return NormProfile(
        p=p,
        profile=window,
        t0=max(threshold, RAT_ZERO),
        tail_value=tail,
        constancy_onset=onset,
        t_max=t_max,
    )


def check_constancy(profile: NormProfile, A) -> ConstancyVerdict:
    """Compare the observed constancy onset with the threshold (p-2)A/4."""
    threshold = rat(profile.p - 2) * rat(A) / 4
    return ConstancyVerdict(
        constant_from=profile.constancy_onset,
        threshold=threshold,
        theorem_holds=profile.constancy_onset <= threshold,
    )


def check_monotone(profile: NormProfile) -> MonotoneVerdict:
    """Exact nonincreasing decision for the profile on [0, oo)."""
    return is_nonincreasing_on(profile.profile, RAT_ZERO, profile.t_max)


def newt_constant(f: PiecewisePoly, p: int):
    """C(p, p/2) * (f_+^{*p/2} * f_-^{*p/2})(0), the exact tail value
    whenever the transform of the split function is real-valued (for
    instance f real and even)."""
    m = _half_exponent(p)
    pair = split(f)
    if pair.plus.is_zero() or pair.minus.is_zero():
        return RAT_ZERO
    u = pair.plus
    w = pair.minus
    for _ in range(m - 1):
        u = convolve(u, pair.plus)
        w = convolve(w, pair.minus)
    # C(p, m) (u * w)(0) = int C(p, m) u(y) w(-y) dy
    return l2_inner(u * rat(math.comb(p, m)), w.reflect().conjugate())


def gen_t0(A, b, p: int):
    """Constancy threshold (p-2)(A+b)/4 + b of the generalized split."""
    _half_exponent(p)
    A, b = rat(A), rat(b)
    if abs(b) > A:
        raise InvalidOffsets(f"need |b| <= A, got b={b}, A={A}")
    return rat(p - 2) * (A + b) / 4 + b


def gen_t0_2(A, b1, b2, p: int):
    """Two-offset threshold (p-2)/4 (A + |b1+b2|/2) + (p-2)/8 (b1-b2).

    Included as the printed formula only.  The exact engine refutes it as a
    constancy onset: for indicator halves with b1 = -b2 = 1/2, A = 1, p = 4
    the true onset is 5/4 (the single-offset threshold of :func:`gen_t0`),
    strictly above this formula's 3/4.  Do not rely on it as a bound.
    """
    _half_exponent(p)
    A, b1, b2 = rat(A), rat(b1), rat(b2)
    if abs(b1) > A or abs(b2) > A:
        raise InvalidOffsets(f"need |b1|, |b2| <= A, got {b1}, {b2}, A={A}")
    return rat(p - 2) / 4 * (A + abs(b1 + b2) / 2) + rat(p - 2) / 8 * (b1 - b2)


# ---------------------------------------------------------------------------
# trigonometric-series analog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffSeq:
    """Finite Gaussian-rational coefficient sequence indexed by [-A, A].

    ``entries`` holds ``(k, re, im)`` for every nonzero c_k, ascending in k:
    the real and imaginary parts of c_k as two rationals.  ``from_mapping``
    takes each c_k as a rational or an ``(re, im)`` pair.
    """

    entries: tuple
    bound: int

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, object], bound: Optional[int] = None) -> "CoeffSeq":
        items = []
        for k, v in mapping.items():
            re, im = parts(as_scalar(v))
            if re or im:
                items.append((int(k), re, im))
        items.sort(key=lambda e: e[0])
        inferred = max((abs(k) for k, _, _ in items), default=0)
        if bound is None:
            bound = inferred
        if inferred > bound:
            raise ValueError(f"coefficient index exceeds the stated bound {bound}")
        return cls(entries=tuple(items), bound=int(bound))


def _split_numerators(c: CoeffSeq, t: int):
    """The split sequence at shift t as ``(index -> (re, im), D)``: integer
    numerators over one even denominator D, so that the halved central
    coefficient stays an integer."""
    den = 2 * math.lcm(*(int(x.denominator) for _, re, im in c.entries for x in (re, im)))

    def numerator(x):
        return int(x.numerator) * (den // int(x.denominator))

    out: dict = {}
    for k, re, im in c.entries:
        num = (numerator(re), numerator(im))
        if k:
            out[k + t if k > 0 else k - t] = num
        elif t:
            out[t] = out[-t] = (num[0] // 2, num[1] // 2)
        else:  # the two halves of c_0 recombine at t = 0
            out[0] = num
    return out, den


def _sequence_convolve(a: dict, b: dict) -> dict:
    """Convolution of two sequences of integer ``(re, im)`` pairs."""
    out: dict = {}
    for k1, (r1, i1) in a.items():
        for k2, (r2, i2) in b.items():
            r, i = out.get(k1 + k2, (0, 0))
            out[k1 + k2] = (r + r1 * r2 - i1 * i2, i + r1 * i2 + i1 * r2)
    return {k: v for k, v in out.items() if v != (0, 0)}


@dataclass(frozen=True)
class SeriesProfile:
    """Exact map t -> int_0^1 |transform of the split sequence|^p dx."""

    seq: CoeffSeq
    p: int

    def value(self, t):
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise OddOrNonintegerP(f"series shifts must be nonnegative integers, got {t!r}")
        m = self.p // 2
        b, den = _split_numerators(self.seq, t)
        d = b
        for _ in range(m - 1):
            d = _sequence_convolve(d, b)
        # Parseval: the sum of |d_k|^2, each d_k over den^m
        return rat(sum(r * r + i * i for r, i in d.values()), den ** (2 * m))

    @property
    def threshold(self) -> int:
        """max(1, ceil((p-2)A/4)), the nominal constancy onset.

        Shifts are positive integers; t = 0 is evaluable but special (the
        two half-weight copies of the central coefficient recombine), so
        no constancy claim starts below 1.  When (p-2)A/4 is itself an
        integer this onset can fail by exactly one step -- see
        ``guaranteed_onset``.
        """
        return max(1, int(math.ceil(rat(self.p - 2) * self.seq.bound / 4)))

    @property
    def guaranteed_onset(self) -> int:
        """max(1, floor((p-2)A/4) + 1): provable constancy onset.

        The vanishing argument needs the shifted frequency 2(j-l)t to pass
        strictly beyond the coefficient support of the cross products; at
        t = (p-2)A/4 exactly, a nonzero edge coefficient survives (unlike
        the continuum case, where convolutions vanish continuously at the
        endpoints of their support).  Hence strict inequality: t > (p-2)A/4.
        """
        return max(1, int(math.floor(rat(self.p - 2) * self.seq.bound / 4)) + 1)


def series_profile(c: CoeffSeq, p: int) -> SeriesProfile:
    """Exact L^p[0,1] powers of the split trigonometric polynomial.

    For p = 2m the integral is Parseval's sum of squared moduli of the
    m-fold coefficient self-convolution, so every value is rational.
    """
    _half_exponent(p)
    return SeriesProfile(seq=c, p=p)


def separable_profile(gnorm, h: PiecewisePoly, p: int) -> NormProfile:
    """Profile of a separable product g (x) h: gnorm^p times the h-profile.

    ``gnorm`` is the L^p norm of the transform of the other factor,
    supplied exactly by the caller.
    """
    gnorm = rat(gnorm)
    if gnorm < 0:
        raise NegativeNorm(f"a norm factor cannot be negative: {gnorm}")
    base = norm_profile(h, p)
    return base.scaled(gnorm ** p)

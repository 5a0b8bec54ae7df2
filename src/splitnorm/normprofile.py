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

from .errors import BudgetExceeded, InvariantViolation, SplitnormError
from .polyalg import IntLayout, MonotoneVerdict, PiecewisePoly, Poly, is_nonincreasing_on, real_correlation_sum
from .scalars import RAT_ZERO, as_scalar, format_rat, gauss, parts, rat
from .splitcore import SplitPair, split

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
    "series_profile",
]


def _half_exponent(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or p < 2 or p % 2 != 0:
        raise SplitnormError(f"the exact engine needs an even integer p >= 2, got {p!r}")
    return p // 2


# the largest predicted work m^6 n^2 (d+1)^2 the exact engine takes on: n
# pieces of degree at most d in the two halves, m = p/2.  Benchmark jobs
# predict at most 2.5e5 (tent at p = 10), tier-1 ones 2.6e8 (the
# indicator at p = 40).  tent at p = 30 (1.8e8) and two-bump at p = 22
# (6.4e7) take 0.35 and 0.38 s of CPU on one core of an Intel Xeon (2
# shared cores, Python 3.11.7): both are mirrored, which the model does
# not see, and the general path took 0.58 and 0.59 s on them.  The series
# engine takes on the same cap (see SeriesProfile.values)
_EXACT_CAP = 10 ** 9


def _check_size(plus: PiecewisePoly, minus: PiecewisePoly, m: int) -> None:
    """Raise BudgetExceeded before any convolution when the work predicted
    for the m-fold convolution powers of the halves passes ``_EXACT_CAP``."""
    pieces = plus.pieces + minus.pieces
    degree = max((q.degree for q in pieces), default=0)
    work = m ** 6 * len(pieces) ** 2 * (degree + 1) ** 2
    if work > _EXACT_CAP:
        raise BudgetExceeded(
            f"the exact engine's predicted work m^6 n^2 (d+1)^2 at m = p/2, with "
            f"n = {len(pieces)} pieces of degree at most d = {degree}, is "
            f"10^{math.log10(work):.1f}, over its cap of 10^{math.log10(_EXACT_CAP):.0f}"
        )


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


def _ladder(h: IntLayout, m: int) -> list:
    """Layouts [h, h*h, ..., h^{*m}] for m >= 1 at the scale of h, each rung one convolution from the last."""
    rungs = [h]
    for _ in range(m - 1):
        rungs.append(rungs[-1].convolve(h))
    return rungs


def _mirror(plus: IntLayout, minus: IntLayout):
    """``conj`` with ``minus == plus.reflected(conj)``, or None: the pair is not mirrored."""
    flags = (False,) if plus.im is None else (False, True)  # a real half's two reflections are one
    return next((conj for conj in flags if plus.reflected(conj) == minus), None)


def _convolution_blocks(plus: IntLayout, minus: IntLayout, m: int, conj: Optional[bool]):
    """Layouts of G_i = plus^{*i} * minus^{*(m-i)} for i = 0..m, read off the
    ladders of the two halves (laid out at one scale): the end blocks are
    their top rungs, and each inner block is one more convolution.  For a
    mirrored pair, minus = R plus with R = ``reflected(conj)``, G_{m-i} = R G_i:
    the minus rungs and the blocks past m/2 are reflections, and m - 1 +
    floor(m/2) convolutions do for 3(m - 1).  Every block keeps its jumps."""
    up = _ladder(plus, m)
    down = _ladder(minus, m) if conj is None else [h.reflected(conj) for h in up]
    blocks = [down[-1], *(up[i - 1].convolve(down[m - i - 1]) for i in range(1, m if conj is None else m // 2 + 1))]
    return [*blocks, *(g.reflected(conj) for g in blocks[m - len(blocks):0:-1]), up[-1]]


def _constancy_onset(window: PiecewisePoly, tail):
    """Least breakpoint after which the window is literally the constant tail.

    Equal neighbours are merged and the window runs past the off-diagonal
    support, so the constant tail is at most the one last piece.
    """
    if window.is_zero():
        return RAT_ZERO
    return window.breakpoints[-2 if window.pieces[-1] == Poly([tail]) else -1]


def norm_profile(f: PiecewisePoly, p: int) -> NormProfile:
    """Exact (N_t f)^p for even p, as a piecewise polynomial in t >= 0.

    Equals int |F[S_t f](y)|^p dy for every t >= 0; the engine never touches
    the frequency side.
    """
    return gen_profile(split(f), p)


def gen_profile(pair: SplitPair, p: int) -> NormProfile:
    """Profile of the generalized split: plus moves right, minus moves left.

    The two halves are laid out once, at one scale, and every block,
    diagonal term and correlation is formed on those integer layouts.  For
    i < j the (i, j) and (j, i) terms are complex conjugates, and together
    they make ``2 w_i w_j Re K_ji(2(j-i)t)``: all off-diagonal pairs go into
    one real accumulation, the one result brought back to rationals in x.
    A mirrored pair (minus the reflection of plus, conjugated or not: f even
    or Hermitian) has G_{m-i} = R G_i, and equal (i, j) and (m-j, m-i)
    terms: only those with i + j <= m are formed, twice where i + j < m.
    """
    m = _half_exponent(p)
    _check_size(pair.plus, pair.minus, m)
    plus, minus = IntLayout.of(pair.plus, pair.minus)
    conj = _mirror(plus, minus)
    blocks = _convolution_blocks(plus, minus, m, conj)
    weights = [math.comb(m, i) for i in range(m + 1)]

    def times(i, j):  # how often the (i, j) term is counted
        return 1 if conj is None or i + j == m else 2

    tail = RAT_ZERO
    for i in range(m + 1 if conj is None else m // 2 + 1):
        norm_sq = blocks[i].inner(blocks[i])
        if isinstance(norm_sq, tuple):
            raise InvariantViolation("the diagonal terms of the profile must be real")
        tail = tail + rat(times(i, i) * weights[i] ** 2) * norm_sq

    offdiag = real_correlation_sum(
        (2 * times(i, j) * weights[i] * weights[j], 2 * (j - i), blocks[j], blocks[i])
        for i in range(m + 1)
        for j in range(i + 1, m + 1)
        if conj is None or i + j <= m
    )
    # the tail added to the constant term of every off-diagonal piece, and
    # one constant piece on either side of their support (from t >= 0 on)
    const = Poly([tail])
    pieces = [Poly([q.coeffs[0] + tail, *q.coeffs[1:]] if q else [tail], ()) for q in offdiag.pieces]
    bps = list(offdiag.breakpoints) or [RAT_ZERO]
    if bps[0] > 0:
        bps, pieces = [RAT_ZERO, *bps], [const, *pieces]
    t_max = bps[-1] + 1
    window = PiecewisePoly([*bps, t_max], [*pieces, const])
    return NormProfile(
        p=p,
        profile=window,
        t0=max(gen_t0(pair.A, pair.b, p), RAT_ZERO),
        tail_value=tail,
        constancy_onset=_constancy_onset(window, tail),
        t_max=t_max,
    )


def check_constancy(profile: NormProfile, A) -> ConstancyVerdict:
    """Compare the observed constancy onset with the threshold (p-2)A/4."""
    threshold = gen_t0(A, 0, profile.p)
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
    instance f real and even).  The halves are laid out once, each power is
    the top rung of its half's ladder of layouts (m - 1 convolutions), and
    the value is one inner product of the two: no function is brought back.
    A mirrored pair's minus power is the reflection of its plus power."""
    m = _half_exponent(p)
    pair = split(f)
    if pair.plus.is_zero() or pair.minus.is_zero():
        return RAT_ZERO
    _check_size(pair.plus, pair.minus, m)
    plus, minus = IntLayout.of(pair.plus, pair.minus)
    conj = _mirror(plus, minus)
    u = _ladder(plus, m)[-1]
    w = _ladder(minus, m)[-1] if conj is None else u.reflected(conj)
    # (u * w)(0) = int u(y) w(-y) dy, scaled part by part by C(p, m)
    re, im = parts(u.inner(w.reflected(True)))
    return gauss(math.comb(p, m) * re, math.comb(p, m) * im)


def gen_t0(A, b, p: int):
    """Constancy threshold (p-2)(A+b)/4 + b of the generalized split."""
    _half_exponent(p)
    A, b = rat(A), rat(b)
    if abs(b) > A:
        raise SplitnormError(f"need |b| <= A, got b={b}, A={A}")
    return rat(p - 2) * (A + b) / 4 + b


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
    den = 2 * math.lcm(*(x.denominator for _, re, im in c.entries for x in (re, im)))

    def numerator(x):
        return x.numerator * (den // x.denominator)

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


def _series_work(b: dict, m: int) -> int:
    """m^3 L n for the split sequence ``b``, n entries over L indices: the
    j-th of the m - 1 convolutions multiplies at most j (L - 1) + 1 entries
    by n, their integers growing by a bounded number of bits per step.  A
    prediction of 1e8 ran for 0.3-0.9 s on one core of a Xeon, Python 3.11."""
    return m ** 3 * (max(b) - min(b) + 1) * len(b) if b else 0


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
        return self.values(t, t)[t]

    def values(self, t_min: int, t_max: int) -> dict:
        """``{t: value(t)}`` for the shifts t_min..t_max, the series engine's
        one entry point (``value(t)`` is the walk t..t).  A non-integer,
        negative or reversed walk is refused.  Before the first convolution,
        the work ``_series_work`` predicts, summed over the walk, is checked
        against ``_EXACT_CAP``: from t = 1 on the split sequence keeps its n
        entries and its index range L grows linearly in t, so the sum over
        t >= 1 is an arithmetic progression's, taken from its two ends.  The
        sequences built for that are reused at their own shifts, so each
        shift's split sequence is built once."""
        for t in (t_min, t_max):
            if not isinstance(t, int) or isinstance(t, bool) or t < 0:
                raise SplitnormError(f"series shifts must be nonnegative integers, got {t!r}")
        if t_min > t_max:
            raise SplitnormError(f"the series walk {t_min}..{t_max} is empty: t_min must be at most t_max")
        m = self.p // 2
        lo = max(t_min, 1)
        seqs = {t: _split_numerators(self.seq, t) for t in {t_min, lo, t_max} if t <= t_max}
        work = {t: _series_work(b, m) for t, (b, _) in seqs.items()}
        total = work[0] if t_min == 0 else 0
        if lo <= t_max:
            total += (t_max - lo + 1) * (work[lo] + work[t_max]) // 2
        if total > _EXACT_CAP:
            raise BudgetExceeded(
                f"the series engine's predicted work m^3 L n at m = p/2, summed over the "
                f"shifts {t_min}..{t_max}, is 10^{math.log10(total):.1f}, over its cap of "
                f"10^{math.log10(_EXACT_CAP):.0f}"
            )
        out = {}
        for t in range(t_min, t_max + 1):
            b, den = seqs.get(t) or _split_numerators(self.seq, t)
            d = b
            for _ in range(m - 1):
                d = _sequence_convolve(d, b)
            # Parseval: the sum of |d_k|^2, each d_k over den^m
            out[t] = rat(sum(r * r + i * i for r, i in d.values()), den ** (2 * m))
        return out

    @property
    def threshold(self) -> int:
        """max(1, ceil((p-2)A/4)), the nominal constancy onset.

        Shifts are positive integers; t = 0 is evaluable but special (the
        two half-weight copies of the central coefficient recombine), so
        no constancy claim starts below 1.  When (p-2)A/4 is itself an
        integer this onset can fail by exactly one step -- see
        ``guaranteed_onset``.
        """
        return max(1, math.ceil(gen_t0(self.seq.bound, 0, self.p)))

    @property
    def guaranteed_onset(self) -> int:
        """max(1, floor((p-2)A/4) + 1): provable constancy onset.

        The vanishing argument needs the shifted frequency 2(j-l)t to pass
        strictly beyond the coefficient support of the cross products; at
        t = (p-2)A/4 exactly, a nonzero edge coefficient survives (unlike
        the continuum case, where convolutions vanish continuously at the
        endpoints of their support).  Hence strict inequality: t > (p-2)A/4.
        """
        return max(1, math.floor(gen_t0(self.seq.bound, 0, self.p)) + 1)


def series_profile(c: CoeffSeq, p: int) -> SeriesProfile:
    """Exact L^p[0,1] powers of the split trigonometric polynomial.

    For p = 2m the integral is Parseval's sum of squared moduli of the
    m-fold coefficient self-convolution, so every value is rational.
    """
    _half_exponent(p)
    return SeriesProfile(seq=c, p=p)

"""Numerical engine: closed-form transforms, panel quadrature, tail bounds.

One closed form serves everything here.  Integrating by parts piece by
piece, the transform of a piecewise polynomial f with breakpoints b_k is
the exact finite sum, for every y != 0,

    f^(y) = sum_k e^{-2 pi i b_k y} sum_r J[k][r] / (2 pi i y)^{r+1},

where J[k][r] is the jump of f^(r) at b_k (right limit minus left limit).
A translation moves a row and keeps it, so ``FTEvaluator(f, t)`` reads the
rows of S_t f off f's two halves, exactly, in integers, and floats them
once; the evaluator and both tails read them.  The evaluator works on the
panel grid: at a node y = mid + half x the phase is e^{-2 pi i b mid}
e^{-2 pi i b half x}, one exp per panel and breakpoint and one table per
panel width, and near the origin a moment series dodges cancellation, each
moment one integer sum over the same rows, rounded once.
|F[S_t f]|^p is integrated over a phase-aligned panel grid on [-Y, Y] (on
[0, Y], counted twice, for a real S_t f, whose |F|^p is even) with an
embedded Gauss/Kronrod error estimate and closed with a tail beyond Y
(p = 2 skips all this: by Plancherel, (N_t f)^2 = ||S_t f||_2^2 exactly):

- the periodic-mean tail: the r = 0 part
  P(y) = sum_k J[k][0] e^{-2 pi i b_k y} is periodic, because the b_k are
  exact rationals, so the tail is the mean of |P|^p over a period times
  (2 pi)^{-p} Y^{1-p}/(p-1) on each side, with a proved O(Y^{-p})
  remainder (``_periodic_tail``).  The mean takes n midpoint samples of P,
  n a power of two, in one FFT (``_periodic_mean``); Y grows like err^{-1/p}.
- the envelope: |f^(y)| <= K(Y) / (2 pi |y|) for |y| >= Y,
  with K(Y) = sum_{k,r} |J[k][r]| (2 pi Y)^{-r}, bounds the tail by
  2 (K/2pi)^p Y^{1-p} / (p-1), so Y grows like err^{-1/(p-1)}.  It runs
  where it needs no larger a Y: where both stop at the floor max(8, 2R),
  as a large p at a modest budget does, and for a float t, whose exact
  value gives P a period near 2^55.

numpy is imported inside each function that uses it, so importing the
package, and the p = 2 norm, load no numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import BudgetExceeded, SplitnormError
from .polyalg import IntLayout, PiecewisePoly, l2_inner
from .scalars import rat

__all__ = ["FTEvaluator", "NumericNorm", "norm_numeric"]


# 7/15 Gauss-Kronrod pair on [-1, 1], stored as QUADPACK's qk15 stores it:
# the Kronrod nodes from 1 down to 0 with their weights, and the weights of
# the G7 nodes among them, every other one
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)
# the full rule on -1 ... 1, mirrored about 0; G7's weights sit in the odd
# slots with zeros between
_GK_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_GK_WK = _WGK + _WGK[-2::-1]
_GK_WG = tuple(w for g in _WG + _WG[-2::-1] for w in (0.0, g)) + (0.0,)

_SERIES_TERMS = 12


class FTEvaluator:
    """Closed-form evaluator of the transform of S_t f (f at t = 0) on a panel grid.

    Its jump rows are f's off 0 and the cut at 0 (the plus half starts with
    the piece right of 0, the minus half ends with minus the piece left of
    0), moved to b + t (plus) or b - t (minus), summed as integers where
    they meet (at 0, for t = 0), and rounded once, as S_t f's own layout
    rounds them.  ``on_panels(mid, half)`` gives the transform at the nodes
    y = mid_k + half_k x_j of every panel; ``__call__(y)`` is its one-node
    case, mid = y and half = 0.  Away from the origin it sums the jump rows
    exactly, e^{-2 pi i b_k y} sum_r J[k][r] s^{r+1} with s = 1 / (2 pi i y),
    on the split phase e^{-2 pi i b mid} e^{-2 pi i b half x}: one exp per
    panel and breakpoint, one (breakpoints, nodes) table per panel width.
    Every panel of one grid level of ``norm_numeric`` has one bitwise width
    (its ends mid -+ half tile the grid up to the rounding of mid), so a
    call from one level is one contraction of its rows as they are
    (``_jump_sum``).  Each r contracts over the breakpoints once,
    H_r = sum_k e^{-2 pi i b_k mid} J[k][r] e^{-2 pi i b_k half x_j}, and a
    Horner pass in s finishes each node.  Where |2 pi y| * (support radius)
    < 1/2 a 12-term moment series avoids the cancellation between the terms.

    Phase rounding, u = 2^-53: the direct e^{-2 pi i b y} carries an argument
    error of about |2 pi b y| u; the product form about
    (|2 pi b mid| + |2 pi b half|) u plus the roundings of its two products.
    The term of b_k moves by that times sum_r |J[k][r]| |s|^{r+1}.

    The moments come from the same rows, M_n = -n! sum_{k,r} (-1)^r J[k][r]
    b_k^{n+r+1} / (n+r+1)!, each one integer sum rounded once, and the
    series sum_n M_n z^n / n!, z = -2 pi i y, is taken by Horner in z.
    """

    def __init__(self, f: PiecewisePoly, t=0):
        import numpy as np

        (lay,) = IntLayout.of(f)
        t, L, R, terms = rat(t), lay.scale, lay.degree, range(_SERIES_TERMS)
        # the breakpoints B/L -+ t of S_t f, as integers beta over D
        D = math.lcm(L, t.denominator)
        move = t.numerator * (D // t.denominator)
        fact = [math.factorial(m) for m in range(_SERIES_TERMS + R + 1)]
        right, left = bisect_right(lay.bps, 0) - 1, bisect_left(lay.bps, 0) - 1
        rows, sums, zeros = {}, {}, [0] * _SERIES_TERMS
        for part, unit in (("re", 1.0),) if lay.im is None else (("re", 1.0), ("im", 1j)):
            pieces, ints = getattr(lay, part), {}
            moved = [(B * (D // L) + (move if B > 0 else -move), row) for B, row in lay.jumps(part) if B]
            moved += [(beta, [sign * w * c for w, c in zip(fact, pieces[k])])  # the cut at 0
                      for beta, k, sign in ((move, right, 1), (-move, left, -1)) if 0 <= k < len(pieces)]
            for beta, row in moved:  # two rows meet only at t = 0, at 0: f's own jump there
                ints[beta] = [a + b for a, b in zip(ints[beta], row)] if beta in ints else row
            for beta, row in ((beta, row) for beta, row in ints.items() if any(row)):
                rows[beta] = rows.get(beta, 0j) + unit * np.array([L ** r * c / lay.den for r, c in enumerate(row)])
                powers = [beta ** m for m in range(_SERIES_TERMS + R + 1)]
                for r, c in enumerate(row):  # sums[part, r][n] = sum_k c_kr beta_k^{n+r+1}
                    sums[part, r] = [s + c * x for s, x in zip(sums.get((part, r), zeros), powers[r + 1:])]
        betas = sorted(rows)
        self.breaks = [rat(beta, D) for beta in betas]
        self.jumps = np.array([rows[beta] for beta in betas], dtype=complex).reshape(len(betas), R + 1)
        self._freqs = -2.0 * np.pi * np.array([float(b) for b in self.breaks])
        self.radius = max(1e-300, max(abs(betas[0]), abs(betas[-1])) / D if betas else 0.0)
        # M_n = -n! sum_{k,r} (-1)^r J[k][r] b_k^{n+r+1} / (n+r+1)!, b_k = beta_k / D, is minus the
        # sum over r of (-L)^r D^{R-r} (n+R+1)! / (n+r+1)! sums[part, r][n], over den D^{n+R+1} (n+R+1)! / n!
        nums = [[-sum((-L) ** r * D ** (R - r) * fact[n + R + 1] // fact[n + r + 1] * sums.get((part, r), zeros)[n]
                      for r in range(R + 1)) for n in terms] for part in ("re", "im")]
        dens = [lay.den * D ** (n + R + 1) * (fact[n + R + 1] // fact[n]) for n in terms]
        self._moments = np.array([complex(a / d, b / d) for a, b, d in zip(*nums, dens)])
        self._series = self._moments / np.array(fact[:_SERIES_TERMS], dtype=float)

    def __call__(self, y):
        import numpy as np

        ys = np.atleast_1d(np.asarray(y, dtype=float))
        out = self.on_panels(ys.ravel(), np.zeros(ys.size), (0.0,)).reshape(ys.shape)
        return complex(out[0]) if np.isscalar(y) else out

    def on_panels(self, mid, half, nodes=_GK_NODES):
        """f^ at the nodes mid_k + half_k x_j: a (len(mid), len(nodes)) array."""
        import numpy as np

        y = mid[:, None] + half[:, None] * np.asarray(nodes)
        w = 2.0 * np.pi * y
        small = np.abs(w) * self.radius < 0.5
        # s = 1 / (i w) = -i / w only where the jump rows serve, so y = 0
        # divides nothing: its imaginary part has the bits of numpy's complex
        # quotient, and its real part is 0 where that quotient's is +-0
        s = np.zeros(y.shape, dtype=complex)
        np.divide(-1.0, w, out=s.imag, where=~small)
        out = self._jump_sum(mid, half, nodes, s)
        if small.any():
            out[small] = self._eval_series(y[small])
        return out

    def _eval_series(self, ys):
        import numpy as np

        # sum_n M_n z^n / n! by Horner in z
        z = -2j * np.pi * ys
        acc = np.full(ys.shape, self._series[-1])
        for c in self._series[-2::-1]:
            acc = acc * z + c
        return acc

    def _jump_sum(self, mid, half, nodes, s):
        """sum_k e^{-2 pi i b_k y} sum_r J[k][r] s^{r+1} at the nodes y = mid_k + half_k x_j.

        The panels of one width share their node phases.  A call whose panels
        all have one width, as every chunk of a grid level has (the level's
        ends mid -+ half tile it up to the rounding of mid), is one
        contraction of its rows as they are; a call that mixes widths, as a
        bisection round can, contracts each width's rows apart.  Either way
        each panel's bits are those of a call holding it alone.
        """
        import numpy as np

        e_mid = np.exp(1j * (mid[:, None] * self._freqs))
        if half.size and (half == half[0]).all():
            return self._width_sum(e_mid, half[0], nodes, s)
        out = np.full(s.shape, np.nan, dtype=complex)  # a NaN width matches no group
        # a dict groups the widths (np.unique imports numpy.ma, and a first
        # np.argsort maps the vectorized sort's code: each costs a cold
        # process some hundred KB)
        for width in dict.fromkeys(half.tolist()):
            group = np.flatnonzero(half == width)
            out[group] = self._width_sum(e_mid[group], width, nodes, s[group])
        return out

    def _width_sum(self, e_mid, width, nodes, s):
        """``_jump_sum`` for panels of the one half-width ``width``, from their e^{-2 pi i b_k mid}."""
        import numpy as np

        e_node = np.exp(1j * np.outer(self._freqs, width * np.asarray(nodes)))
        acc = 0.0
        for r in reversed(range(self.jumps.shape[1])):
            # einsum sums over k in order for each node on its own; BLAS
            # would sum in an order that depends on how many panels came
            acc = (acc + np.einsum("pk,kj->pj", e_mid * self.jumps[:, r], e_node)) * s
        return acc


@dataclass(frozen=True)
class NumericNorm:
    """(N_t f)^p with an explicit error budget (quadrature + tail)."""

    value: float
    abs_error: float
    p: float
    t: float

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "t": self.t,
            "value_pth_power": self.value,
            "abs_error": self.abs_error,
        }


# ---------------------------------------------------------------------------
# the tails beyond the panel grid
# ---------------------------------------------------------------------------


def _envelope_tail(jumps, p: float, Y: float) -> float:
    """Proved bound 2 (K/2pi)^p Y^{1-p} / (p-1) for int_{|y|>Y} |f^(y)|^p dy.

    K = sum_{k,r} |J[k][r]| (2 pi Y)^{-r}, so that |f^(y)| <= K / (2 pi |y|)
    for |y| >= Y, term by term from the jump rows.
    """
    import numpy as np

    s = 1.0 / (2.0 * math.pi * Y)
    K = np.float64(0.0)  # a numpy float, so that its power below overflows quietly
    for row in jumps:
        K += _fsum(abs(c) * s ** r for r, c in enumerate(row))
    K *= 1.0 + 1e-12
    # a huge p overflows to inf (or inf * 0 = nan), which the node cap then
    # rejects: numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * (K / (2.0 * math.pi)) ** p * Y ** (1.0 - p) / (p - 1.0)


# unit roundoff of a float
_U = 2.0 ** -53
# midpoint samples of |P|^p that the periodic mean takes at least, and at
# most: the cap bounds its one n-entry complex array, 1 MB at 2^16
_MEAN_SAMPLES = (256, 2 ** 16)
# the share of the target the periodic-mean tail's error may take.  The
# bisection stops below half of what the tail leaves, so tail and quadrature
# take at most 0.55 of the target and leave 0.45 to the floating-point
# allowance 1e-13 (1 + |I|); at 0.45, `ind` at p = 8, t = 1/4, 1e-11 (where
# that allowance is 0.45 of the target) missed its target
_PERIODIC_SHARE = 0.1


def _fsum(xs) -> float:
    """math.fsum of nonnegative terms, inf where the sum overflows: the same on every Python."""
    try:
        return math.fsum(xs)
    except OverflowError:
        return math.inf


def _pow(x: float, e: float) -> float:
    """x ** e for x >= 0, inf where that overflows."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def _periodic_mean(steps, coeffs, C1: float, p: float, n: int):
    """(mu, allowance): the mean of |P / C1|^p at n midpoints of a period.

    P(y_j), y_j = (j + 1/2) T / n, is up to a unit factor the length-n DFT of
    a[s_k mod n] += c_k w^{s_k}, w = e^{-i pi / n}: its K entries are within
    (K + 32) u C1 (the exp about 21 u), and ||a||_2 <= sum_k |c_k| <= C1.
    The FFT is bounded pass by pass, as in Higham (2002), Thm 24.2: numpy's
    (pocketfft's) passes of radix r = 2, 3, 4, 5, 7, 8, 11 or a generic prime
    are within 8 r^{3/2} u, and the radices multiply to n; Bluestein's
    algorithm, which it may take for a large prime factor, is within
    1100 sqrt(n) (log2 n + 2) u.  ``_periodic_tail`` takes n a power of two,
    so Bluestein never runs, but rho still covers either: the mean of the
    samples' errors is within rho C1 and each within rho sqrt(n) C1; abs and
    the quotient add 3 u a sample, the power, the sum and the division
    (log2 n + 21) u.
    """
    import numpy as np

    a = np.zeros(n, dtype=complex)
    for s, c in zip(steps, coeffs):
        a[s % n] += c * np.exp(-1j * math.pi * (s % (2 * n)) / n)
    mu = float(np.sum((np.abs(np.fft.fft(a)) / C1) ** p)) / n
    passes = (8.0 * n + 1100.0 * (math.log2(n) + 2.0)) * math.sqrt(n) * _U
    delta = (len(coeffs) + 32) * _U
    rho = delta + (1.0 + delta) * passes / (1.0 - passes)
    fp = p * _pow(1.0 + rho * math.sqrt(n) + 3.0 * _U, p - 1.0) * (rho + 3.0 * _U)
    return mu, fp + (math.log2(n) + 21.0) * _U


def _periodic_tail(breaks, jumps, p: float, budget: float, lo: float, hi: float):
    """(Y, tail value, tail error) with lo <= Y < hi and error <= budget, or None.

    For |y| >= Y the jump rows give F(y) = P(y) / (2 pi i y) + R(y), with
    P(y) = sum_k J[k][0] e^{-2 pi i b_k y} and |R| <= M2 / (2 pi y)^2,
    M2 = sum_k sum_{r>=1} |J[k][r]| (2 pi Y)^{1-r}.  The b_k are exact
    rationals, so |P|^p has the period T = 1 / gcd(b_k - b_0).  With mu its
    mean over a period (the same for P(-y)) and C1 = sum_k |J[k][0]|, each
    half-line contributes
      - mu (2 pi)^{-p} Y^{1-p} / (p-1): the reported value;
      - at most T mu (2 pi Y)^{-p}: integrate by parts against the periodic
        antiderivative Phi of |P|^p - mu, which oscillates by at most T mu;
      - at most (C1 + M2/(2 pi Y))^{p-1} M2 (2 pi)^{-(p+1)} Y^{-p}, from
        ||a+b|^p - |a|^p| <= p (|a|+|b|)^{p-1} |b|.
    mu is the mean of n midpoint samples on [0, T], n the least power of two
    at or above the goal, within L T / (4n) for L = p C1^{p-1} 2 pi sum_k
    |J[k][0]| |b_k - c| (c the middle of the b_k), the Lipschitz constant of
    |P|^p, plus the floating-point allowance of its one FFT
    (``_periodic_mean``).  All of it is carried in units of C1^p, so that a
    huge p stays finite where it can.

    None where no Y below hi meets the budget, or where n would pass the
    cap: a float t, whose exact value has a period near 2^55, does.
    """
    tau = 2.0 * math.pi
    pad = 1.0 + 1e-12
    # Python floats from here on: they overflow to inf quietly, or raise for _pow
    lead = [(b, complex(row[0])) for b, row in zip(breaks, jumps) if row[0] != 0]
    # higher[r-1] = sum_k |J[k][r]|, r >= 1
    higher = [_fsum(abs(complex(c)) for c in col) for col in jumps.T[1:]]
    C1 = pad * _fsum(abs(c) for _, c in lead)
    period = lip = 0.0
    if lead:
        b0 = min(b for b, _ in lead)
        den = math.lcm(*((b - b0).denominator for b, _ in lead))
        nums = [(b - b0).numerator * (den // (b - b0).denominator) for b, _ in lead]
        g = math.gcd(*nums)  # 0 for one breakpoint: |P| is then constant
        steps = [k // g if g else 0 for k in nums]  # (b_k - b_0) / gcd
        try:
            period = den / g if g else 0.0
        except OverflowError:  # beyond any sample cap
            return None
        middle = (b0 + max(b for b, _ in lead)) / 2
        lip = pad * p * tau * _fsum(abs(c) * float(abs(b - middle)) for b, c in lead) / C1

    def bound(Y, mu, eps):
        """(value, error) at Y for a mean mu within eps, both in units of C1^p."""
        s = 1.0 / (tau * Y)
        m2 = pad * _fsum(a * s ** r for r, a in enumerate(higher))
        q = _pow(C1 * s, p)
        main = 2.0 * mu * q * Y / (p - 1.0)
        err = 2.0 * (
            eps * q * Y / (p - 1.0)
            + period * (mu + eps) * q
            + _pow((C1 + m2 * s) * s, p - 1.0) * m2 * s * s * Y
        )
        return main, err + 4.0 * (p + 8.0) * _U * main

    def smallest_y(mu, eps):
        """The smallest Y in [lo, hi), within 0.1%, whose error fits the budget."""
        if bound(lo, mu, eps)[1] <= budget:
            return lo
        if not bound(hi, mu, eps)[1] <= budget:
            return None
        a, b = lo, hi
        while b > a * 1.001:
            mid = a * math.sqrt(b / a)
            if bound(mid, mu, eps)[1] <= budget:
                b = mid
            else:
                a = mid
        return b if b < hi else None

    # samples enough that the mean's error takes at most a quarter of the
    # budget at the Y that mu <= C1^p certainly allows
    y_ref = smallest_y(1.0, 0.0) or hi
    q_ref = _pow(C1 / (tau * y_ref), p)
    n_goal = 2.0 * lip * period * q_ref * y_ref / (budget * (p - 1.0))
    if not n_goal <= _MEAN_SAMPLES[1]:
        return None
    n = 1 << (max(_MEAN_SAMPLES[0], math.ceil(n_goal)) - 1).bit_length()
    if n > _MEAN_SAMPLES[1]:
        return None
    mu = eps = 0.0
    if lead:
        mu, fp = _periodic_mean(steps, [c for _, c in lead], C1, p, n)
        eps = lip * period / (4.0 * n) + fp
    Y = smallest_y(mu, eps)
    if Y is None:
        return None
    main, err = bound(Y, mu, eps)
    return Y, main, err


def _place_tail(evaluator: FTEvaluator, p: float, target_abs_err: float):
    """(Y, tail value, tail error): where the panel grid ends, and what lies beyond it.

    Y is at least max(8, 2R), R the support radius.  For p != 2 (p = 2 is
    exact by Plancherel and integrates nothing) it takes whichever of two
    tails needs the smaller Y, the envelope on a tie: the envelope bound,
    solved to be 0.45 of the target and reported as its midpoint
    (Y ~ err^{-1/(p-1)}), or the periodic-mean tail, placed where its error
    is ``_PERIODIC_SHARE`` of the target (Y ~ err^{-1/p}).  Every tail error
    here is proved.
    """
    half = 0.45 * target_abs_err
    floor = max(8.0, evaluator.radius * 2.0)
    jumps = evaluator.jumps
    # the envelope tail falls like Y^{1-p}: solve for the Y where it is `half`
    log_y = math.log(max(_envelope_tail(jumps, p, 1.0) / half, 1e-300)) / (p - 1.0)
    Y = max(floor, math.exp(min(log_y, 700.0)))
    if Y > floor:
        periodic = _periodic_tail(evaluator.breaks, jumps, p, _PERIODIC_SHARE * target_abs_err, floor, Y)
        if periodic is not None:
            return periodic
    # the tail lies in [0, bound]: report the midpoint
    bound = _envelope_tail(jumps, p, Y)
    return Y, 0.5 * bound, 0.5 * bound + 1e-300


# ---------------------------------------------------------------------------
# the norm computation
# ---------------------------------------------------------------------------

# the most integrand evaluations norm_numeric makes (15 per panel), which no
# bisection round passes, counted on the full grid: a grid folded onto [0, Y]
# counts 2Y/width panels and 30 per bisected panel, as the full line would
_NODE_CAP = 2 ** 20
# panels per vectorized Gauss-Kronrod batch of the initial grid: it bounds
# the batch's memory and moves no result
_PANEL_CHUNK = 2048


def _panel_width(radius: float) -> float:
    """The initial panel width: half the period of the fastest phase e^{-2 pi i b y}, |b| <= radius."""
    return 1.0 / (2.0 * max(1.0, radius))


def _panel_integrate(fn, mid, half):
    """Gauss-Kronrod on the panels [mid - half, mid + half]: (K15 values, |K15 - G7| errors).

    One integrand call, ``fn(mid, half)``, covers every panel's 15 nodes.
    The panels of one grid level share one bitwise ``half``, and their ends
    mid -+ half tile the grid up to the rounding of mid (``norm_numeric``).
    einsum takes each panel's weight sums over its own nodes, in order, so a
    panel's bits do not depend on which panels share its call.
    """
    import numpy as np

    fx = fn(mid, half)
    k15 = np.einsum("pj,j->p", fx, np.asarray(_GK_WK)) * half
    g7 = np.einsum("pj,j->p", fx, np.asarray(_GK_WG)) * half
    return k15, np.abs(k15 - g7)


def norm_numeric(
    f: PiecewisePoly,
    p: float,
    t: float,
    target_abs_err: float = 1e-6,
) -> NumericNorm:
    """(N_t f)^p = int |F[S_t f](y)|^p dy: exact at p = 2, else by adaptive quadrature.

    At p = 2, Plancherel gives (N_t f)^2 = ||S_t f||_2^2 = ||f||_2^2 (S_t f
    is two disjoint translates of the halves of f), an exact rational,
    rounded once: ``abs_error`` is 0 where the float is exact, else ulp(value).

    Any other p integrates phase-aligned Gauss-Kronrod panels on [-Y, Y]
    (panel width half the period of the fastest phase; for a real S_t f,
    whose transform is Hermitian, panels on [0, Y] integrate 2 |f^|^p), plus
    a tail beyond Y: the periodic mean of the transform's leading term with
    a proved remainder, or the proved envelope bound where that needs the
    smaller Y (``_place_tail``).  A panel is its (mid, half), as in QUADPACK:
    the n panels of the initial grid on [start, Y] have the one bitwise half
    h/2, h = (Y - start) / n, and mid_k = start + (k + 1/2) h, and a bisected
    panel's halves are (mid -+ half/2, half/2), so every panel of a grid
    level has one width.  The ends mid -+ half tile [start, Y] up to the
    rounding of mid.  Each bisection round sorts the panels by their error
    estimate and halves the worst: at least one, 1/64 of the panels, and the
    fewest whose estimates reach the excess of the sum over half the
    quadrature target, but no more than the node cap leaves room for.  It
    evaluates all the halves' nodes in one batch, and the rounds go on until
    the summed estimates fall below half the quadrature target.

    The reported ``abs_error`` adds the quadrature part, the tail
    remainder, and a floating-point allowance.  The tail part is proved;
    the quadrature part is the embedded |K15 - G7| estimate, not yet a
    proved bound.

    Raises :class:`BudgetExceeded` when the panel grid alone would need
    more than ``_NODE_CAP`` = 2^20 integrand evaluations (counted on the
    full grid, folded or not), and (carrying the result) when the error
    misses the target or the result is not finite (|f^|^p overflows for a
    huge p, or ||S_t f||_2^2 passes the float range).
    """
    p = float(p)
    if p <= 1:
        raise SplitnormError(f"(N_t f)^p requires p > 1, got {p}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if f.is_zero():
        return NumericNorm(value=0.0, abs_error=0.0, p=p, t=float(t))

    shift = rat(t)  # refuses an infinite or NaN t, at p = 2 too
    if p == 2.0:
        # S_t f is two disjoint translates of the halves of f: ||S_t f||_2 = ||f||_2
        exact = l2_inner(f, f)
        try:
            value = float(exact)
        except OverflowError:
            value = math.inf
        abs_error = 0.0 if math.isfinite(value) and rat(value) == exact else math.ulp(value)
        return _checked(NumericNorm(value=value, abs_error=abs_error, p=p, t=float(t)), target_abs_err)

    import numpy as np

    try:
        evaluator = FTEvaluator(f, shift)
    except OverflowError as exc:
        raise ValueError(f"t = {t} is too large: the moments of the split function overflow a float") from exc
    Y, tail_value, tail_err = _place_tail(evaluator, p, target_abs_err)
    width = _panel_width(evaluator.radius)
    nodes = 2.0 * Y / width * 15.0
    if nodes > _NODE_CAP:
        raise BudgetExceeded(
            f"{nodes:.3g} nodes (15 per panel) would exceed the node cap {_NODE_CAP}"
        )
    n_half = int(math.ceil(Y / width))
    # a real S_t f (f real) has a Hermitian transform, so |f^|^p is even: the
    # grid covers [0, Y] and each node counts twice, for itself and its mirror
    fold = f.is_real()
    n_panels = n_half if fold else 2 * n_half

    def integrand(mid, half):
        return np.abs(evaluator.on_panels(mid, half)) ** p * (2.0 if fold else 1.0)

    # a huge p overflows |f^|^p: the finiteness check below decides, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        # the initial grid level: one bitwise half for every panel, so each
        # chunk is one contraction in the evaluator
        start = 0.0 if fold else -Y
        h = (Y - start) / n_panels
        mid = start + (np.arange(n_panels) + 0.5) * h
        half = np.full(n_panels, 0.5 * h)
        vals, errs = np.empty(n_panels), np.empty(n_panels)
        for k in range(0, n_panels, _PANEL_CHUNK):
            chunk = slice(k, min(k + _PANEL_CHUNK, n_panels))
            vals[chunk], errs[chunk] = _panel_integrate(integrand, mid[chunk], half[chunk])
        nodes_used = 30 * n_half  # the full grid's, folded or not (see _NODE_CAP)

        # adaptive bisection of the worst panels, rows (mid, half, value, error).
        # The rows stay in the order of a list sorted stably by error each
        # round, with the halves appended, and the stopping sum and the
        # worst-first sum run left to right (cumsum, not the pairwise np.sum):
        # the rounds and every bit of the result are those of bisecting one
        # panel at a time.
        quad_target = max(target_abs_err - tail_err, target_abs_err * 0.5)
        panels = np.column_stack((mid, half, vals, errs))
        while (excess := np.cumsum(panels[:, 3])[-1] - 0.5 * quad_target) > 0 and nodes_used + 30 <= _NODE_CAP:
            n = len(panels)
            panels = panels[np.argsort(panels[:, 3], kind="stable")]
            # the fewest worst panels whose estimates, summed worst first, reach the excess
            reach = np.searchsorted(np.cumsum(panels[::-1, 3]), excess) + 1
            keep = n - min(max(1, n // 64, reach), n, (_NODE_CAP - nodes_used) // 30)
            # each panel's halves (mid - half/2, half/2) and (mid + half/2,
            # half/2) side by side, in the order of appending them when each
            # panel was bisected alone; half/2 is exact, one grid level down
            m, q = panels[keep:, 0], 0.5 * panels[keep:, 1]
            sub_mid = np.column_stack((m - q, m + q)).ravel()
            sub_half = np.repeat(q, 2)
            sub_vals, sub_errs = _panel_integrate(integrand, sub_mid, sub_half)
            panels = np.concatenate((panels[:keep], np.column_stack((sub_mid, sub_half, sub_vals, sub_errs))))
            nodes_used += 15 * len(sub_mid)

    integral = math.fsum(panels[:, 2])
    quad_err = math.fsum(panels[:, 3])
    fp_err = 1e-13 * (1.0 + abs(integral))
    value = integral + tail_value
    abs_error = quad_err + tail_err + fp_err
    return _checked(NumericNorm(value=value, abs_error=abs_error, p=p, t=float(t)), target_abs_err)


def _checked(result: NumericNorm, target_abs_err: float) -> NumericNorm:
    """``result``, or :class:`BudgetExceeded` carrying it where it is not finite or misses the target."""
    if not math.isfinite(result.value):
        raise BudgetExceeded(f"the result {result.value:.3g} +- {result.abs_error:.3g} is not finite", result=result)
    if not result.abs_error <= target_abs_err:  # a NaN error fails too
        raise BudgetExceeded(
            f"achieved error {result.abs_error:.3g} exceeds the target {target_abs_err:.3g}",
            result=result,
        )
    return result

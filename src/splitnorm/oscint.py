"""Numerical engine: closed-form transforms, panel quadrature, tail bounds.

One closed form serves everything here.  Integrating by parts piece by
piece, the transform of a piecewise polynomial f with breakpoints b_k is
the exact finite sum, for every y != 0,

    f^(y) = sum_k e^{-2 pi i b_k y} sum_r J[k][r] / (2 pi i y)^{r+1},

where J[k][r] is the jump of f^(r) at b_k (right limit minus left limit).
``_boundary_expansion`` computes these jump rows exactly and floats them
once; the evaluator (with a moment series near the origin to dodge
cancellation), the p = 2 tail and the envelope tail all read them.  |F[S_t f]|^p is integrated over a phase-aligned panel grid
with an embedded Gauss/Kronrod error estimate and closed with a tail.

Bounding term by term gives the envelope |f^(y)| <= K(Y) / (2 pi |y|) for
|y| >= Y, with K(Y) = sum_{k,r} |J[k][r]| (2 pi Y)^{-r}, hence
int_{|y|>Y} |f^|^p <= 2 (K/2pi)^p Y^{1-p} / (p-1).  For p = 2 the tail is
computed, not merely bounded: the r = 0 part integrates against
sine/cosine integrals in closed form, and the rest carries a rigorous
O(1/Y^2) bound.  That is what makes 1e-6 error budgets reachable at p = 2,
where the envelope bound would need Y ~ 1e6.

numpy is imported inside each function that uses it (scipy only inside
``_cos_tail``), so importing the package loads neither for exact work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, SplitnormError
from .polyalg import ZERO_POLY, PiecewisePoly, Poly
from .scalars import RAT_ZERO, parts, rat
from .splitcore import apply_split

__all__ = ["FTEvaluator", "NumericNorm", "norm_numeric"]


# 7/15 Gauss-Kronrod pair on [-1, 1] (QUADPACK values); _panel_integrate
# turns these into arrays, G7's weights in the odd slots with zeros between
_GK_NODES = (
    -0.991455371120813,
    -0.949107912342759,
    -0.864864423359769,
    -0.741531185599394,
    -0.586087235467691,
    -0.405845151377397,
    -0.207784955007898,
    0.0,
    0.207784955007898,
    0.405845151377397,
    0.586087235467691,
    0.741531185599394,
    0.864864423359769,
    0.949107912342759,
    0.991455371120813,
)
_GK_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
    0.204432940075298,
    0.190350578064785,
    0.169004726639267,
    0.140653259715525,
    0.104790010322250,
    0.063092092629979,
    0.022935322010529,
)
_GK_WG = (
    0.0,
    0.129484966168870,
    0.0,
    0.279705391489277,
    0.0,
    0.381830050505119,
    0.0,
    0.417959183673469,
    0.0,
    0.381830050505119,
    0.0,
    0.279705391489277,
    0.0,
    0.129484966168870,
    0.0,
)

_SERIES_TERMS = 12


class FTEvaluator:
    """Closed-form evaluator of f^(y) = int f(x) e^{-2 pi i x y} dx.

    Vectorized over y.  Away from the origin it sums the jump rows of
    ``_boundary_expansion``, ``e^{-i w b_k} sum_r J[k][r] / (i w)^{r+1}``
    with w = 2 pi y, which is exact; for |2 pi y| * (support radius) < 1/2
    a 12-term moment series avoids the cancellation between the terms.
    """

    def __init__(self, f: PiecewisePoly):
        import numpy as np

        self.radius = max(1e-300, float(f.support_radius()))
        self.betas, self.rows = _boundary_expansion(f)
        self._moments = np.zeros(_SERIES_TERMS, dtype=complex)
        for a, b, xnp in f._intervals():
            for n in range(_SERIES_TERMS):
                # moment int_a^b x^n p(x) dx, computed exactly then floated
                self._moments[n] += complex(*map(float, parts(xnp.integral(a, b))))
                xnp = Poly((RAT_ZERO,) + xnp.coeffs, (RAT_ZERO,) + xnp.im)  # x * xnp

    def __call__(self, y):
        import numpy as np

        scalar = np.isscalar(y)
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.zeros(ys.shape, dtype=complex)
        small = np.abs(2.0 * np.pi * ys) * self.radius < 0.5
        if small.any():
            out[small] = self._eval_series(ys[small])
        big = ~small
        if big.any():
            out[big] = self._eval_boundary(ys[big])
        return complex(out[0]) if scalar else out

    def _eval_series(self, ys):
        import numpy as np

        z = -2j * np.pi * ys
        acc = np.zeros(ys.shape, dtype=complex)
        term = np.ones(ys.shape, dtype=complex)
        for n in range(_SERIES_TERMS):
            acc += term * self._moments[n]
            term = term * z / (n + 1)
        return acc

    def _eval_boundary(self, ys):
        import numpy as np

        w = 2.0 * np.pi * ys
        s = 1.0 / (1j * w)
        powers = [s]  # s, s^2, ...: the longest row's worth, shared by all rows
        for _ in range(1, max(map(len, self.rows), default=0)):
            powers.append(powers[-1] * s)
        # one exp per |b|: the phase at -|b| is the conjugate of the one at |b|
        phases = {}
        acc = np.zeros(ys.shape, dtype=complex)
        for b, row in zip(self.betas, self.rows):
            g = np.zeros(ys.shape, dtype=complex)
            for d, pw in zip(row, powers):
                g += d * pw
            e = phases.pop(abs(b), None)  # breakpoints are distinct: |b| recurs at most once
            if e is None:
                e = phases[abs(b)] = np.exp(-1j * w * abs(b))
            acc += (np.conj(e) if b < 0 else e) * g
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
# the jump rows: f^(y) = sum_k e^{-2 pi i b_k y} sum_r J[k][r] / (2 pi i y)^{r+1}
# ---------------------------------------------------------------------------


def _boundary_expansion(f: PiecewisePoly):
    """Breakpoints b_k (floats) and jump rows J[k][r] (complex arrays).

    J[k][r] is the jump of f^(r) at b_k, right limit minus left limit,
    computed exactly and floated once; breakpoints where no derivative
    jumps are left out.
    """
    import numpy as np

    rows = []
    betas = []
    prev = ZERO_POLY
    for k, b in enumerate(f.breakpoints):
        cur = f.pieces[k] if k < len(f.pieces) else ZERO_POLY
        jumps = []
        ql, qr = prev, cur
        while not (ql.is_zero() and qr.is_zero()):
            jumps.append(complex(*map(float, parts((qr - ql).eval(b)))))
            ql = ql.derivative()
            qr = qr.derivative()
        if any(jumps):
            betas.append(float(b))
            rows.append(np.array(jumps, dtype=complex))
        prev = cur
    return betas, rows


def _envelope_tail(rows, p: float, Y: float) -> float:
    """Proved bound 2 (K/2pi)^p Y^{1-p} / (p-1) for int_{|y|>Y} |f^(y)|^p dy.

    K = sum_{k,r} |J[k][r]| (2 pi Y)^{-r}, so that |f^(y)| <= K / (2 pi |y|)
    for |y| >= Y, term by term from the jump rows.
    """
    import numpy as np

    s = 1.0 / (2.0 * math.pi * Y)
    K = 0.0
    for row in rows:
        K += sum(abs(c) * s ** r for r, c in enumerate(row))
    K *= 1.0 + 1e-12
    # a huge p overflows to inf, which the node cap then rejects: numpy stays quiet
    with np.errstate(over="ignore"):
        return 2.0 * (K / (2.0 * math.pi)) ** p * Y ** (1.0 - p) / (p - 1.0)


def _cos_tail(a: float, Y: float) -> float:
    """int_Y^inf cos(a y) / y^2 dy for a >= 0 (exact, via Si)."""
    from scipy.special import sici  # imported here: only the p = 2 tail needs scipy

    si, _ = sici(a * Y)
    return math.cos(a * Y) / Y - a * (math.pi / 2.0 - si)


def _sharp_tail_p2(betas, rows, Y: float):
    """(tail integral of |f^|^2 beyond Y, rigorous remainder bound).

    The r = 0 jumps integrate in closed form; the rows' r >= 1 entries
    only enter the remainder bound.
    """
    import numpy as np

    c0 = np.array([row[0] for row in rows], dtype=complex)
    inv4pi2 = 1.0 / (4.0 * math.pi ** 2)
    main = float(np.sum(np.abs(c0) ** 2)) * 2.0 / Y * inv4pi2
    slop = 0.0
    for k in range(len(betas)):
        for l in range(k + 1, len(betas)):
            a = 2.0 * math.pi * abs(betas[k] - betas[l])
            t = _cos_tail(a, Y)
            main += 2.0 * float(np.real(c0[k] * np.conj(c0[l]))) * 2.0 * t * inv4pi2
            slop += abs(c0[k]) * abs(c0[l]) * (a * 4e-16 + 4e-16 / Y)
    s_Y = 1.0 / (2.0 * math.pi * Y)
    C1 = float(np.sum(np.abs(c0)))
    M2 = 0.0
    for row in rows:
        M2 += sum(abs(c) * s_Y ** (r - 1) for r, c in enumerate(row) if r >= 1)
    rem = (
        2.0 * C1 * M2 / ((2.0 * math.pi) ** 3 * Y ** 2)
        + M2 ** 2 * 2.0 / (3.0 * (2.0 * math.pi) ** 4 * Y ** 3)
        + slop
        + 1e-13 * (1.0 + abs(main))
    )
    return main, rem


# ---------------------------------------------------------------------------
# the norm computation
# ---------------------------------------------------------------------------

# the most integrand evaluations norm_numeric makes (15 per panel)
_NODE_CAP = 2 ** 20
# panels per vectorized Gauss-Kronrod batch of the initial grid
_PANEL_CHUNK = 2048


def _panel_integrate(fn, lo, hi, rows: int):
    """Gauss-Kronrod on the panels [lo, hi]: (K15 values, |K15 - G7| errors).

    One integrand call covers every node.  The weight sums are taken on
    blocks of ``rows`` consecutive panels (``rows`` divides the panel
    count): BLAS sums a block in an order that depends on its row count,
    so a caller that keeps its block sizes keeps every bit.
    """
    import numpy as np

    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * np.asarray(_GK_NODES)[None, :]
    fx = fn(x.ravel()).reshape(-1, rows, len(_GK_NODES))
    k15 = (fx @ np.asarray(_GK_WK)).ravel() * half
    g7 = (fx @ np.asarray(_GK_WG)).ravel() * half
    return k15, np.abs(k15 - g7)


def norm_numeric(
    f: PiecewisePoly,
    p: float,
    t: float,
    target_abs_err: float = 1e-6,
) -> NumericNorm:
    """(N_t f)^p = int |F[S_t f](y)|^p dy by adaptive numerical integration.

    Phase-aligned Gauss-Kronrod panels on [-Y, Y] (panel width a quarter of
    the fastest oscillation), plus a tail: computed semi-analytically for
    p = 2, bounded by the proved envelope otherwise.  Each bisection round
    halves the worst 1/64 of the panels (at least one) by their error
    estimate and evaluates all the halves' nodes in one batch, until the
    summed estimates fall below half the quadrature target.

    The reported ``abs_error`` adds the quadrature part, the tail
    remainder, and a floating-point allowance.  The tail part is proved;
    the quadrature part is the embedded |K15 - G7| estimate, not yet a
    proved bound.

    Raises :class:`BudgetExceeded` when the panel grid alone would need
    more than ``_NODE_CAP`` = 2^20 integrand evaluations, and (carrying the
    result) when the error misses the target or the result is not finite
    (|f^|^p overflows for a huge p).
    """
    import numpy as np

    p = float(p)
    if p <= 1:
        raise SplitnormError(f"(N_t f)^p requires p > 1, got {p}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if f.is_zero():
        return NumericNorm(value=0.0, abs_error=0.0, p=p, t=float(t))

    g = apply_split(f, rat(t))
    try:
        evaluator = FTEvaluator(g)
    except OverflowError as exc:
        raise ValueError(f"t = {t} is too large: the moments of the split function overflow a float") from exc
    betas, rows = evaluator.betas, evaluator.rows

    # tail placement
    half = 0.45 * target_abs_err
    radius = float(g.support_radius())
    if p == 2.0:
        Y = max(8.0, radius * 2.0)
        main, rem = _sharp_tail_p2(betas, rows, Y)
        while rem > half and Y < 1e9:
            Y *= 2.0
            main, rem = _sharp_tail_p2(betas, rows, Y)
        tail_value, tail_err = main, rem
    else:
        # the envelope tail falls like Y^{1-p}: solve for the Y where it is `half`
        log_y = math.log(max(_envelope_tail(rows, p, 1.0) / half, 1e-300)) / (p - 1.0)
        Y = max(8.0, radius * 2.0, math.exp(min(log_y, 700.0)))

    width = 1.0 / (4.0 * max(1.0, radius))
    nodes = 2.0 * Y / width * 15.0
    if nodes > _NODE_CAP:
        raise BudgetExceeded(
            f"{nodes:.3g} nodes (15 per panel) would exceed the node cap {_NODE_CAP}"
        )
    if p != 2.0:
        # the tail lies in [0, bound]: report the midpoint
        bound = _envelope_tail(rows, p, Y)
        tail_value, tail_err = 0.5 * bound, 0.5 * bound + 1e-300
    n_panels = 2 * int(math.ceil(Y / width))

    def integrand(y):
        return np.abs(evaluator(y)) ** p

    # a huge p overflows |f^|^p: the finiteness check below decides, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(-Y, Y, n_panels + 1)
        lo, hi = edges[:-1], edges[1:]
        vals, errs = np.empty(n_panels), np.empty(n_panels)
        for k in range(0, n_panels, _PANEL_CHUNK):
            chunk = slice(k, min(k + _PANEL_CHUNK, n_panels))
            vals[chunk], errs[chunk] = _panel_integrate(integrand, lo[chunk], hi[chunk], chunk.stop - k)
        nodes_used = n_panels * 15

        # adaptive bisection of the worst panels, rows (lo, hi, value, error).
        # The rows stay in the order of a list sorted stably by error each
        # round, with the halves appended, and the stopping sum runs left to
        # right (cumsum, not the pairwise np.sum): the rounds and every bit
        # of the result are those of bisecting one panel at a time.
        quad_target = max(target_abs_err - tail_err, target_abs_err * 0.5)
        panels = np.column_stack((lo, hi, vals, errs))
        while np.cumsum(panels[:, 3])[-1] > 0.5 * quad_target and nodes_used + 30 <= _NODE_CAP:
            panels = panels[np.argsort(panels[:, 3], kind="stable")]
            keep = len(panels) - max(1, len(panels) // 64)
            a, b = panels[keep:, 0], panels[keep:, 1]
            mid = 0.5 * (a + b)
            # each panel's halves [a, mid] and [mid, b] side by side, with the
            # weight sums taken per pair, as when each panel was bisected alone
            sub_lo = np.column_stack((a, mid)).ravel()
            sub_hi = np.column_stack((mid, b)).ravel()
            sub_vals, sub_errs = _panel_integrate(integrand, sub_lo, sub_hi, 2)
            panels = np.concatenate((panels[:keep], np.column_stack((sub_lo, sub_hi, sub_vals, sub_errs))))
            nodes_used += 15 * len(sub_lo)

    integral = math.fsum(panels[:, 2])
    quad_err = math.fsum(panels[:, 3])
    fp_err = 1e-13 * (1.0 + abs(integral))
    value = integral + tail_value
    abs_error = quad_err + tail_err + fp_err
    result = NumericNorm(value=value, abs_error=abs_error, p=p, t=float(t))
    if not math.isfinite(value):
        raise BudgetExceeded(f"the result {value:.3g} +- {abs_error:.3g} is not finite", result=result)
    if not abs_error <= target_abs_err:  # a NaN error fails too
        raise BudgetExceeded(
            f"achieved error {abs_error:.3g} exceeds the target {target_abs_err:.3g}",
            result=result,
        )
    return result

"""Numerical engine: closed-form transforms, panel quadrature, tail bounds.

Evaluates the Fourier transform of a piecewise polynomial in closed form
(per-piece antiderivatives, with a series branch near the origin to dodge
cancellation), integrates |F[S_t f]|^p over a phase-aligned panel grid
with an embedded Gauss/Kronrod error estimate, and closes the integral
with a certified tail.

For p = 2 the tail is computed, not merely bounded: the transform of a
piecewise polynomial is an exact finite sum of boundary terms
``e^{-i w b_k} W_k(1/w)``, whose leading (jump) part integrates against
sine/cosine integrals in closed form; the higher-order remainder carries a
rigorous O(1/Y^2) bound.  That is what makes 1e-6 error budgets reachable
at p = 2, where the crude envelope bound would need Y ~ 1e6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, TailDivergence
from .polyalg import ZERO_POLY, PiecewisePoly, Poly, isolate_real_roots
from .scalars import RAT_ZERO, im_part, rat, rat_from_float, re_part, to_float
from .splitcore import apply_split, split

__all__ = ["FTEvaluator", "NumericNorm", "ft_eval", "norm_numeric", "tail_bound"]


# 7/15 Gauss-Kronrod pair on [-1, 1] (QUADPACK values)
_GK_NODES = np.array(
    [
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
    ]
)
_GK_WK = np.array(
    [
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
    ]
)
_GK_WG = np.zeros(15)
_GK_WG[1::2] = [
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
    0.381830050505119,
    0.279705391489277,
    0.129484966168870,
]

_SERIES_TERMS = 12


class FTEvaluator:
    """Closed-form evaluator of f^(y) = int f(x) e^{-2 pi i x y} dx.

    Vectorized over y.  Away from the origin the per-piece antiderivative
    ``e^{-i w x} g(x)``, ``g = -sum_r P^(r)(x) / (i w)^{r+1}``, is exact;
    for |2 pi y| * (support radius) < 1/2 a 12-term moment series avoids
    the cancellation of the boundary differences.
    """

    def __init__(self, f: PiecewisePoly):
        self.source = f
        self.radius = max(1e-300, float(f.support_radius()))
        # boundary tables: per piece endpoint, derivatives P^(r)(x) as floats
        self._ends = []  # (x_float, sign, [P^(r)(x)]) ; sign +1 at b, -1 at a
        self._moments = np.zeros(_SERIES_TERMS, dtype=complex)
        for k, p in enumerate(f.pieces):
            a = f.breakpoints[k]
            b = f.breakpoints[k + 1]
            derivs_a, derivs_b = [], []
            q = p
            while not q.is_zero():
                derivs_a.append(to_float(q.eval(a)))
                derivs_b.append(to_float(q.eval(b)))
                q = q.derivative()
            if derivs_a:
                self._ends.append((float(a), -1.0, np.array(derivs_a, dtype=complex)))
                self._ends.append((float(b), +1.0, np.array(derivs_b, dtype=complex)))
            xnp = p
            for n in range(_SERIES_TERMS):
                # moment int_a^b x^n p(x) dx, computed exactly then floated
                self._moments[n] += to_float(xnp.integral(a, b))
                xnp = _shift_up(xnp)

    def __call__(self, y):
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
        z = -2j * np.pi * ys
        acc = np.zeros(ys.shape, dtype=complex)
        term = np.ones(ys.shape, dtype=complex)
        for n in range(_SERIES_TERMS):
            acc += term * self._moments[n]
            term = term * z / (n + 1)
        return acc

    def _eval_boundary(self, ys):
        w = 2.0 * np.pi * ys
        s = 1.0 / (1j * w)
        acc = np.zeros(ys.shape, dtype=complex)
        for x, sign, derivs in self._ends:
            g = np.zeros(ys.shape, dtype=complex)
            pw = s
            for d in derivs:
                g -= d * pw
                pw = pw * s
            acc += sign * np.exp(-1j * w * x) * g
        return acc


def _shift_up(p):
    """x * p(x)."""
    return Poly([RAT_ZERO] + list(p.coeffs))


def ft_eval(f: PiecewisePoly, y):
    """f^(y), scalar or vectorized; relative error ~1e-12 away from the
    series/boundary branch point."""
    return FTEvaluator(f)(y)


@dataclass(frozen=True)
class NumericNorm:
    """(N_t f)^p with an explicit error budget (quadrature + tail)."""

    value: float
    abs_error: float
    p: float
    t: float

    @property
    def norm(self) -> float:
        return self.value ** (1.0 / self.p)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "t": self.t,
            "value_pth_power": self.value,
            "abs_error": self.abs_error,
        }


# ---------------------------------------------------------------------------
# boundary (jump) expansion: f^(y) = sum_k e^{-2 pi i b_k y} W_k(1/(2 pi y))
# ---------------------------------------------------------------------------


def _boundary_expansion(f: PiecewisePoly):
    """Per-breakpoint coefficient rows c[k][r]: W_k(s) = sum_r c[k][r] s^{r+1}.

    Exact finite identity for every y != 0; c[k][0] = i * (downward jump).
    """
    rows = []
    betas = []
    prev = ZERO_POLY
    for k, b in enumerate(f.breakpoints):
        cur = f.pieces[k] if k < len(f.pieces) else ZERO_POLY
        coeffs = []
        ql, qr = prev, cur
        r = 0
        while not (ql.is_zero() and qr.is_zero()):
            delta = to_float(ql.eval(b)) - to_float(qr.eval(b))
            coeffs.append(-delta * (-1j) ** (r + 1))
            ql = ql.derivative()
            qr = qr.derivative()
            r += 1
        if coeffs:
            betas.append(float(b))
            rows.append(np.array(coeffs, dtype=complex))
        prev = cur
    return betas, rows


def _envelope_constant(betas, rows, Y: float) -> float:
    """K with |f^(y)| <= K / (2 pi |y|) for |y| >= Y (from the expansion)."""
    s = 1.0 / (2.0 * math.pi * Y)
    K = 0.0
    for row in rows:
        K += sum(abs(c) * s ** r for r, c in enumerate(row))
    return K * (1.0 + 1e-12)


def tail_bound(f: PiecewisePoly, p: float, Y: float) -> float:
    """Proved upper bound for int_{|y|>Y} |F[S_t f]|^p dy, uniform in t >= 0.

    Uses |F[S_t f](y)| <= TV / (2 pi |y|) where TV sums the jump heights and
    the total variation of the halves of f; splitting translates the halves
    rigidly, so the envelope does not depend on t.
    """
    if p <= 1:
        raise TailDivergence(f"the tail of |f^|^p diverges for p <= 1 (p={p})")
    if Y <= 0:
        raise ValueError("Y must be positive")
    pair_tv = 0.0
    pair = split(f)
    for half in (pair.plus, pair.minus):
        pair_tv += _total_variation(half)
    env = pair_tv / (2.0 * math.pi)
    return 2.0 * env ** p * Y ** (1.0 - p) / (p - 1.0) * (1.0 + 1e-12)


def _total_variation(f: PiecewisePoly) -> float:
    """Certified upper bound for the TV of a piecewise C^1 function:
    jump heights plus int |f'| (complex pieces via |Re'| + |Im'|)."""
    tv = 0.0
    prev = ZERO_POLY
    for k, b in enumerate(f.breakpoints):
        cur = f.pieces[k] if k < len(f.pieces) else ZERO_POLY
        tv += abs(to_float(cur.eval(b)) - to_float(prev.eval(b)))
        prev = cur
    for a, b, piece in f._intervals():
        for part in _real_imag_parts(piece):
            tv += _piece_variation_upper(part, a, b)
    return tv * (1.0 + 1e-12)


def _piece_variation_upper(piece, a, b) -> float:
    """Upper bound for the variation of a real polynomial piece on [a, b]:
    partition at the isolating intervals of the critical points, plus a
    width * max|P'| allowance inside each cell that holds a critical point."""
    d = piece.derivative()
    if d.is_zero():
        return 0.0
    if d.is_constant():
        return abs(to_float(piece.eval(b)) - to_float(piece.eval(a)))
    cells = isolate_real_roots(d, a, b)
    points = [a]
    for c, e in cells:
        points.extend([c, e] if c < e else [c])
    points.append(b)
    tv = 0.0
    for u, v in zip(points, points[1:]):
        if u < v:
            tv += abs(to_float(piece.eval(v)) - to_float(piece.eval(u)))
    for c, e in cells:
        if c < e:
            radius = max(abs(float(c)), abs(float(e)), 1.0)
            slope = sum(abs(to_float(co)) * radius ** k for k, co in enumerate(d.coeffs))
            tv += float(e - c) * slope
    return tv


def _real_imag_parts(piece):
    re = Poly([re_part(c) for c in piece.coeffs])
    im = Poly([im_part(c) for c in piece.coeffs])
    return [q for q in (re, im) if not q.is_zero()]


def _cos_tail(a: float, Y: float) -> float:
    """int_Y^inf cos(a y) / y^2 dy for a > 0 (exact, via Si)."""
    from scipy.special import sici  # imported here: only the p = 2 tail needs scipy

    si, _ = sici(a * Y)
    return math.cos(a * Y) / Y - a * (math.pi / 2.0 - si)


def _sharp_tail_p2(betas, rows, Y: float):
    """(tail integral of |f^|^2 beyond Y, rigorous remainder bound)."""
    c0 = np.array([row[0] for row in rows], dtype=complex)
    inv4pi2 = 1.0 / (4.0 * math.pi ** 2)
    main = float(np.sum(np.abs(c0) ** 2)) * 2.0 / Y * inv4pi2
    slop = 0.0
    for k in range(len(betas)):
        for l in range(k + 1, len(betas)):
            a = 2.0 * math.pi * abs(betas[k] - betas[l])
            if a == 0.0:
                main += 2.0 * float(np.real(c0[k] * np.conj(c0[l]))) * 2.0 / Y * inv4pi2
                continue
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


def _panel_integrate(fn, edges: np.ndarray, chunk: int = 2048):
    """Gauss-Kronrod over the given panel edges; returns (values, errors)."""
    vals = np.empty(len(edges) - 1)
    errs = np.empty(len(edges) - 1)
    for lo in range(0, len(edges) - 1, chunk):
        hi = min(lo + chunk, len(edges) - 1)
        a = edges[lo:hi]
        b = edges[lo + 1 : hi + 1]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * _GK_NODES[None, :]
        fx = fn(x.ravel()).reshape(x.shape)
        k15 = (fx @ _GK_WK) * half
        g7 = (fx @ _GK_WG) * half
        vals[lo:hi] = k15
        errs[lo:hi] = np.abs(k15 - g7)
    return vals, errs


def norm_numeric(
    f: PiecewisePoly,
    p: float,
    t: float,
    target_abs_err: float = 1e-6,
    *,
    node_cap: int = 2 ** 20,
    strict: bool = True,
) -> NumericNorm:
    """(N_t f)^p = int |F[S_t f](y)|^p dy by certified numerical integration.

    Phase-aligned Gauss-Kronrod panels on [-Y, Y] (panel width a quarter of
    the fastest oscillation, adaptively bisected), plus a tail: computed
    semi-analytically for p = 2, bounded by the proved envelope otherwise.
    The reported ``abs_error`` adds the quadrature estimate, the tail
    remainder, and a floating-point allowance.

    Raises :class:`BudgetExceeded` (carrying the best result) when the
    target cannot be met within ``node_cap`` evaluations and ``strict``.
    """
    p = float(p)
    if p <= 1:
        raise TailDivergence(f"(N_t f)^p requires p > 1, got {p}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if f.is_zero():
        return NumericNorm(value=0.0, abs_error=0.0, p=p, t=float(t))

    g = apply_split(f, rat(t) if not isinstance(t, float) else rat_from_float(t))
    try:
        evaluator = FTEvaluator(g)
    except OverflowError as exc:
        raise ValueError(f"t = {t} is too large: the moments of the split function overflow a float") from exc
    betas, rows = _boundary_expansion(g)

    # tail placement
    half = 0.45 * target_abs_err
    if p == 2.0:
        Y = max(8.0, float(g.support_radius()) * 2.0)
        main, rem = _sharp_tail_p2(betas, rows, Y)
        while rem > half and Y < 1e9:
            Y *= 2.0
            main, rem = _sharp_tail_p2(betas, rows, Y)
        tail_value, tail_err = main, rem
    else:
        # tail <= 2 (K / 2 pi)^p Y^{1-p} / (p-1) with K the envelope constant
        env = _envelope_constant(betas, rows, 1.0)
        bound = 2.0 * (env / (2.0 * math.pi)) ** p / (p - 1.0)  # at Y = 1
        log_y = math.log(max(bound / half, 1e-300)) / (p - 1.0)
        Y = max(8.0, float(g.support_radius()) * 2.0, math.exp(min(log_y, 700.0)))
        env = _envelope_constant(betas, rows, Y)
        bound = 2.0 * (env / (2.0 * math.pi)) ** p * Y ** (1.0 - p) / (p - 1.0)
        tail_value, tail_err = 0.5 * bound, 0.5 * bound + 1e-300

    fastest = max(1.0, float(g.support_radius()))
    width = 1.0 / (4.0 * fastest)
    nodes = 2.0 * Y / width * 15.0
    if nodes > node_cap:
        if strict:
            raise BudgetExceeded(
                f"{nodes:.3g} nodes (15 per panel) would exceed the node cap {node_cap}"
            )
        Y = node_cap * width / 30.0
        env = _envelope_constant(betas, rows, Y)
        bound = 2.0 * (env / (2.0 * math.pi)) ** p * Y ** (1.0 - p) / (p - 1.0)
        tail_value, tail_err = 0.5 * bound, 0.5 * bound + 1e-300
    n_panels = 2 * int(math.ceil(Y / width))

    def integrand(y):
        return np.abs(evaluator(y)) ** p

    edges = np.linspace(-Y, Y, n_panels + 1)
    vals, errs = _panel_integrate(integrand, edges)
    nodes_used = n_panels * 15

    # adaptive bisection of the worst panels
    quad_target = max(target_abs_err - tail_err, target_abs_err * 0.5)
    intervals = list(zip(edges[:-1], edges[1:], vals, errs))
    while sum(iv[3] for iv in intervals) > 0.5 * quad_target and nodes_used + 30 <= node_cap:
        intervals.sort(key=lambda iv: iv[3])
        worst = intervals[-max(1, len(intervals) // 64) :]
        keep = intervals[: -len(worst)]
        new_edges = []
        for a, b, _, _ in worst:
            new_edges.extend([a, 0.5 * (a + b), b])
        sub_edges = np.array(new_edges)
        for k in range(0, len(sub_edges), 3):
            e = sub_edges[k : k + 3]
            v, er = _panel_integrate(integrand, e)
            keep.extend([(e[0], e[1], v[0], er[0]), (e[1], e[2], v[1], er[1])])
            nodes_used += 30
        intervals = keep

    integral = math.fsum(iv[2] for iv in intervals)
    quad_err = math.fsum(iv[3] for iv in intervals)
    fp_err = 1e-13 * (1.0 + abs(integral))
    value = integral + tail_value
    abs_error = quad_err + tail_err + fp_err
    result = NumericNorm(value=value, abs_error=abs_error, p=p, t=float(t))
    if strict and abs_error > target_abs_err:
        raise BudgetExceeded(
            f"achieved error {abs_error:.3g} exceeds the target {target_abs_err:.3g}",
            result=result,
        )
    return result

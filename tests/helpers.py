"""Shared random generators and independent numeric oracles for the tests."""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter

import numpy as np

from splitnorm import oscint
from splitnorm.errors import BudgetExceeded, InapplicableHypothesis, SplitnormError
from splitnorm.multnorm import BoundReport, DiscreteMultiplier, _binom_factor, constants
from splitnorm.oscint import FTEvaluator, NumericNorm
from splitnorm.polyalg import (
    ZERO_PP,
    IntLayout,
    MonotoneVerdict,
    PiecewisePoly,
    Poly,
    _int_mul_add,
    _pairs,
    _product_jumps,
    _taylor_shift,
    _weighted,
    convolve,
    indicator,
    is_nonincreasing_on,
    tent,
)
from splitnorm.scalars import gauss, parse_rat, parse_scalar, rat
from splitnorm.splitcore import apply_split

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def exactly(message: str) -> str:
    """A ``pytest.raises(match=...)`` pattern for exactly this message."""
    return f"^{re.escape(message)}$"


def is_constant(p: Poly) -> bool:
    return len(p.coeffs) <= 1


def evaluate_float(f: PiecewisePoly, xs):
    """Float evaluation of f at a scalar or numpy array of points."""
    arr = np.asarray(xs, dtype=float)
    out = np.zeros(arr.shape, dtype=complex)
    for k, p in enumerate(f.pieces):
        mask = (arr >= float(f.breakpoints[k])) & (arr < float(f.breakpoints[k + 1]))
        if not mask.any():
            continue
        acc = np.zeros(int(mask.sum()), dtype=complex)
        for real, imag in reversed(_pairs(p)):
            acc = acc * arr[mask] + complex(float(real), float(imag))
        out[mask] = acc
    return out if out.shape else complex(out)


def from_json_dict(doc: dict) -> PiecewisePoly:
    """The inverse of ``PiecewisePoly.to_json_dict``."""
    bps = [parse_rat(b) for b in doc["breakpoints"]]
    pieces = [Poly([parse_scalar(c) for c in piece]) for piece in doc["pieces"]]
    return PiecewisePoly(bps, pieces)


def reconstruct(pair) -> PiecewisePoly:
    """f = f_+ + f_- from a ``SplitPair``."""
    return pair.plus + pair.minus


def sup_norm(m: DiscreteMultiplier) -> float:
    return float(np.max(np.abs(m.samples)))


def to_dict(cfg) -> dict:
    """An ``ExperimentConfig`` as a declarative job: its given inputs."""
    given = {k: v for k, v in vars(cfg.args).items() if v is not None}
    return {"command": cfg.command, **given}


def rnd_rat(rng, span=3, dens=3):
    return rat(int(rng.integers(-span, span + 1)), int(rng.integers(1, dens + 1)))


def rnd_poly(rng, max_deg=2, complex_ok=False, span=3, dens=3):
    deg = int(rng.integers(0, max_deg + 1))
    coeffs = []
    for _ in range(deg + 1):
        re = rnd_rat(rng, span, dens)
        im = rnd_rat(rng, span, dens) if (complex_ok and rng.random() < 0.4) else 0
        coeffs.append(gauss(re, im))
    return Poly(coeffs)


def rnd_pp(rng, halfwidth=rat(1), max_pieces=3, max_deg=2, complex_ok=False):
    """Random piecewise polynomial supported in [-halfwidth, halfwidth]."""
    halfwidth = rat(halfwidth)
    for _ in range(50):
        n = int(rng.integers(1, max_pieces + 1))
        ks = rng.choice(np.arange(-4, 5), size=n + 1, replace=False)
        grid = sorted({rat(int(k)) * halfwidth / 4 for k in ks})
        if len(grid) < 2:
            continue
        pieces = [rnd_poly(rng, max_deg, complex_ok) for _ in range(len(grid) - 1)]
        f = PiecewisePoly(grid, pieces)
        if not f.is_zero():
            return f
    raise RuntimeError("failed to generate a nonzero function")


def rnd_class_s_member(rng, max_steps=2):
    """A class-S member via the bump generators: nested steps or a tent.

    Nested-step form: g_+ = sum_j c_j chi_{A_j} with A_1 subset ... subset
    A_k subset [0, oo) sharing an interior point, mirrored evenly; tents are
    even single bumps.  Both satisfy the single-bump sufficient condition.
    """
    if rng.random() < 0.4:
        a = rat(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
        return tent(-a, 0, a) * rat(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
    k = int(rng.integers(1, max_steps + 1))
    lo = rat(int(rng.integers(0, 3)), 2)
    hi = lo + rat(int(rng.integers(1, 3)), 2)
    plus = PiecewisePoly([], [])
    for _ in range(k):
        c = rat(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        plus = plus + indicator(lo, hi) * c
        lo = lo * rat(int(rng.integers(0, 2)))  # widen downward (or keep)
        hi = hi + rat(int(rng.integers(1, 3)), 2)  # widen upward
    return plus + plus.reflect()


def rnd_even_nonneg(rng, max_atoms=2):
    """Random real, even, nonnegative function (sums of even atoms)."""
    f = PiecewisePoly([], [])
    n = int(rng.integers(1, max_atoms + 1))
    for _ in range(n):
        c = rat(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        a = rat(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
        kind = rng.random()
        if kind < 0.4:
            f = f + indicator(-a, a) * c
        elif kind < 0.7:
            f = f + tent(-a, 0, a) * c
        else:
            b = a + rat(int(rng.integers(1, 3)), 2)
            f = f + (indicator(a, b) + indicator(-b, -a)) * c
    return f


def conv_numeric(f: PiecewisePoly, g: PiecewisePoly, x: float, n: int = 20000) -> complex:
    """Independent convolution oracle: trapezoid quadrature of the integral."""
    sup = f.support()
    assert sup is not None
    lo, hi = float(sup[0]), float(sup[1])
    ys = np.linspace(lo - 1e-9, hi + 1e-9, n)
    vals = np.asarray(evaluate_float(f, ys)) * np.asarray(evaluate_float(g, x - ys))
    return complex(_trapezoid(vals, ys))


def conv_power(f: PiecewisePoly, k: int) -> PiecewisePoly:
    """k-fold convolution power by binary splitting, k >= 1: an oracle for
    the one-convolution-per-rung ladder of the exact engine."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("conv_power needs a positive integer exponent")
    if k == 1:
        return f
    half = conv_power(f, k // 2)
    out = convolve(half, half)
    if k % 2:
        out = convolve(out, f)
    return out


def conjugate(p: Poly) -> Poly:
    """The polynomial with conjugated coefficients."""
    return Poly(p.coeffs, [-c for c in p.im])


def conj_reflect(f: PiecewisePoly) -> PiecewisePoly:
    """x -> conj(f(-x)), the correlation kernel: an oracle for the exact
    engine's ``IntLayout.conj_reflected``."""
    g = f.reflect()
    return PiecewisePoly(g.breakpoints, [conjugate(p) for p in g.pieces])


def grid_increase_search(f: PiecewisePoly, a, n=400):
    """Dense-grid falsification: a pair x1 < x2 (non-breakpoint rationals)
    with f(x1) < f(x2), or None."""
    sup = f.support()
    if sup is None:
        return None
    lo = rat(a)
    hi = sup[1] + 1
    if lo >= hi:
        return None
    xs = [lo + (hi - lo) * rat(2 * k + 1, 2 * n) for k in range(n)]
    xs = [x for x in xs if x not in set(f.breakpoints)]
    vals = [f.eval(x) for x in xs]
    min_idx = 0
    for j in range(1, len(xs)):
        if vals[j] > vals[min_idx]:
            return (xs[min_idx], xs[j])
        if vals[j] < vals[min_idx]:
            min_idx = j
    return None


def reference_is_nondecreasing_on(f: PiecewisePoly, a, b) -> MonotoneVerdict:
    """Test oracle: the nondecreasing decision as the library once made it,
    by reflection.  f is nondecreasing on [a, b] iff its reflection is
    nonincreasing on [-b, -a]; a witness there is mirrored back to a pair
    (x1, x2) with x1 < x2 and f(x1) > f(x2)."""
    v = is_nonincreasing_on(f.reflect(), -rat(b), -rat(a))
    if v.ok:
        return v
    x1, x2 = v.witness
    return MonotoneVerdict(False, (-x2, -x1))


def reference_restrict(f: PiecewisePoly, lo=None, hi=None) -> PiecewisePoly:
    """Test oracle: f zeroed outside [lo, hi), by slicing its breakpoints,
    as ``PiecewisePoly.restrict`` once did."""
    if f.is_zero():
        return f
    bps = list(f.breakpoints)
    pieces = list(f.pieces)
    if lo is not None:
        lo = rat(lo)
        if lo >= bps[-1]:
            return ZERO_PP
        if lo > bps[0]:
            k = bisect_right(bps, lo) - 1
            bps = [lo] + bps[k + 1 :]
            pieces = pieces[k:]
    if hi is not None:
        hi = rat(hi)
        if hi <= bps[0]:
            return ZERO_PP
        if hi < bps[-1]:
            k = bisect_right(bps, hi) - 1
            if bps[k] == hi:
                bps = bps[: k + 1]
                pieces = pieces[:k]
            else:
                bps = bps[: k + 1] + [hi]
                pieces = pieces[: k + 1]
    return PiecewisePoly(bps, pieces)


def rational_isolation_reference(p: Poly, lo, hi) -> list:
    """Root isolation by rational Descartes bisection, the algorithm the
    integer windows of ``polyalg`` replaced: at every node the window
    polynomial is rebuilt with rational Taylor shifts.  Equal intervals from
    both are the check that the integer windows change no decision."""
    from splitnorm.polyalg import _poly_divmod, _poly_gcd

    def divide_out(q, r):
        while q.degree > 0 and q.eval(r) == 0:
            q, rem = _poly_divmod(q, Poly([-r, 1]))
            assert rem.is_zero()
        return q

    def bound_01(q):  # sign variations of (x + 1)^n q(1 / (x + 1))
        signs = [c > 0 for c in Poly(list(reversed(q.coeffs))).shift(1).coeffs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def window_bound(a, b):
        return bound_01(divide_out(divide_out(sf, a), b).shift(a).scale_arg(b - a))

    g = _poly_gcd(p, p.derivative())
    sf = p if g.degree <= 0 else _poly_divmod(p, g)[0]
    lo, hi = rat(lo), rat(hi)
    sf = divide_out(divide_out(sf, lo), hi)
    if sf.degree <= 0:
        return []
    out = []

    def recurse(a, b):
        n = window_bound(a, b)
        if n == 1:
            out.append((a, b))
        elif n > 1:
            mid = (a + b) / 2
            if sf.eval(mid) == 0:
                out.append((mid, mid))
            recurse(a, mid)
            recurse(mid, b)

    recurse(lo, hi)
    refined = []
    for a, b in sorted(out, key=lambda iv: iv[0]):
        while a != b and (sf.eval(a) == 0 or sf.eval(b) == 0 or not (lo < a and b < hi)):
            mid = (a + b) / 2
            if sf.eval(mid) == 0:
                a = b = mid
            elif bound_01(divide_out(divide_out(sf, a), mid).shift(a).scale_arg(mid - a)) % 2:
                b = mid
            else:
                a = mid
        refined.append((a, b))
    return refined


def require_applicable(report):
    """The report itself, or InapplicableHypothesis when a gate failed."""
    if not report.applicable:
        raise InapplicableHypothesis(f"{report.quantity}: {report.reason}")
    return report


# the ledger as it stood before its hypotheses became one table, with A and t
# read one by one, so that a missing-input message names only what is missing
_REFERENCE_QUANTITIES = {
    "split_upper",
    "split_upper_real",
    "dual",
    "m_plus_upper",
    "m_plus_upper_real",
    "split_lower",
    "two_way",
    "m_plus_two_way",
    "poly_two_way",
    "square",
}


def _reference_need(inputs: dict, *names):
    missing = [n for n in names if inputs.get(n) is None]
    if missing:
        raise SplitnormError(f"missing inputs: {', '.join(missing)}")
    return [inputs[n] for n in names]


def _reference_gate_even_p(inputs):
    p = inputs.get("p")
    if not isinstance(p, int) or p % 2 or p < 2:
        return f"requires an even integer p (got {p!r})"
    return None


def _reference_gate_t_at_least_t0(inputs):
    p = inputs.get("p")
    A, t = _reference_need(inputs, "A", "t")
    if A < 0:
        raise ValueError("A must be nonnegative")
    # float arithmetic, not normprofile.gen_t0: a huge A gives inf, which the
    # gate reports, where float() of the exact value would overflow
    thr = (p - 2) * float(A) / 4.0
    if float(t) < thr:
        return f"requires t >= t0 = {thr} (got t = {t})"
    return None


def reference_bound_report(quantity: str, inputs: dict) -> BoundReport:
    """``multnorm.bound_report`` as one branch per quantity, each with its
    own gates: the oracle of the table-driven ledger."""
    if quantity not in _REFERENCE_QUANTITIES:
        raise SplitnormError(f"unknown quantity {quantity!r}; choose from {sorted(_REFERENCE_QUANTITIES)}")
    inputs = dict(inputs)
    p = inputs.get("p")
    if p is None:
        raise SplitnormError("missing inputs: p")

    def report(lower=None, upper=None, gate=None):
        if gate:
            return BoundReport(quantity, inputs, None, None, False, gate)
        return BoundReport(quantity, inputs, lower, upper, True)

    if quantity in ("split_upper", "dual"):
        gate = _reference_gate_even_p(inputs) or _reference_gate_t_at_least_t0(inputs)
        if not gate and not inputs.get("in_R", False):
            gate = "requires the split multiplier to map real data to real data (declare in_R)"
        if gate:
            return report(gate=gate)
        mp, mm = _reference_need(inputs, "m_plus_norm", "m_minus_norm")
        upper = _binom_factor(p) * math.sqrt(mp * mm)
        if quantity == "dual":
            inputs["p_dual"] = p / (p - 1)
        return report(upper=upper)

    if quantity == "split_upper_real":
        gate = _reference_gate_even_p(inputs) or _reference_gate_t_at_least_t0(inputs)
        if not gate and not inputs.get("even_real", False):
            gate = "requires m real and even in the split variable (declare even_real)"
        if gate:
            return report(gate=gate)
        (mp,) = _reference_need(inputs, "m_plus_norm")
        return report(upper=_binom_factor(p) * mp)

    if quantity == "m_plus_upper":
        (mn,) = _reference_need(inputs, "m_norm")
        return report(upper=constants(p).c_p * mn)

    if quantity == "m_plus_upper_real":
        if not inputs.get("in_R", False):
            return report(gate="requires T_m to preserve real data (declare in_R)")
        (mn,) = _reference_need(inputs, "m_norm_real")
        return report(upper=constants(p).c_p_real * mn)

    if quantity == "split_lower":
        (ell,) = _reference_need(inputs, "ell")
        if not ell > 0:
            return report(gate=f"requires ell > 0 (got {ell})")
        if inputs.get("t") is not None and not float(inputs["t"]) > 0:
            return report(gate="requires t > 0")
        return report(lower=ell * constants(p).c_p)

    if quantity == "two_way":
        gate = _reference_gate_even_p(inputs) or _reference_gate_t_at_least_t0(inputs)
        if not gate and not inputs.get("in_R", False):
            gate = "requires the split multiplier to map real data to real data (declare in_R)"
        if gate:
            return report(gate=gate)
        ell, mn = _reference_need(inputs, "ell", "m_norm")
        if not ell > 0:
            return report(gate=f"requires ell > 0 (got {ell})")
        c = constants(p).c_p
        return report(lower=ell * c, upper=c * _binom_factor(p) * mn)

    if quantity == "m_plus_two_way":
        ell = _reference_need(inputs, "ell")[0]
        if ell == 0:
            return report(gate="requires ell = m(0) != 0")
        if inputs.get("real_variant", False):
            if not inputs.get("even_real", False):
                return report(gate="the real variant requires m real-valued and even")
            (mn,) = _reference_need(inputs, "m_norm")
            cr = constants(p).c_p_real
            return report(lower=cr * abs(ell), upper=cr * mn)
        (mn,) = _reference_need(inputs, "m_norm")
        c = constants(p).c_p
        return report(lower=c * abs(ell), upper=c * mn)

    if quantity == "poly_two_way":
        gate = _reference_gate_even_p(inputs) or _reference_gate_t_at_least_t0(inputs)
        if not gate and not inputs.get("symmetric", False):
            gate = "requires the polygon indicator to be even in both variables"
        if gate:
            return report(gate=gate)
        (mp,) = _reference_need(inputs, "m_plus_norm")
        cs = constants(p)
        return report(lower=cs.n_p * cs.c_p, upper=_binom_factor(p) * mp)

    if quantity == "square":
        gate = _reference_gate_even_p(inputs) or _reference_gate_t_at_least_t0(inputs)
        if gate:
            return report(gate=gate)
        cs = constants(p)
        return report(lower=cs.n_p * cs.c_p, upper=_binom_factor(p) * cs.c_p ** 3)

    raise AssertionError("unreachable")


def is_even_real(m: DiscreteMultiplier) -> bool:
    """True when m is real and even on the grid, so T_m preserves real
    data (the zero-frequency bin sits at index N/2)."""
    s = m.samples
    if np.abs(s.imag).max() > 0:
        return False
    flipped = np.empty_like(s)
    flipped[1:] = s[1:][::-1]
    flipped[0] = s[0]
    return bool(np.allclose(s, flipped, rtol=0, atol=0))


def from_function(fn, n: int, omega: float) -> DiscreteMultiplier:
    """Sample a callable multiplier on the standard grid."""
    step = 2.0 * omega / n
    ys = -omega + step * np.arange(n)
    return DiscreteMultiplier(np.asarray([fn(y) for y in ys], dtype=complex), omega)


def reference_split_multiplier(m: DiscreteMultiplier, t: float):
    """Test oracle: ``split_multiplier`` as it once was, shifting the halves
    through index arrays of the kept and the off-grid bins."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    k = int(round(float(t) / m.step))
    t_snapped = k * m.step
    n = m.n
    zero_idx = n // 2
    out = np.zeros(n, dtype=complex)
    pos = np.arange(zero_idx + 1, n)
    neg = np.arange(0, zero_idx)
    if k:
        if (pos + k >= n).any() and np.abs(m.samples[pos[pos + k >= n]]).max(initial=0.0) > 0:
            raise SplitnormError("positive support would shift beyond the grid")
        if (neg - k < 0).any() and np.abs(m.samples[neg[neg - k < 0]]).max(initial=0.0) > 0:
            raise SplitnormError("negative support would shift beyond the grid")
    keep_pos = pos[pos + k < n]
    keep_neg = neg[neg - k >= 0]
    out[keep_pos + k] = m.samples[keep_pos]
    out[keep_neg - k] = m.samples[keep_neg]
    v0 = m.samples[zero_idx]
    if v0 != 0:
        if zero_idx + k >= n or zero_idx - k < 0:
            raise SplitnormError("the origin sample would shift beyond the grid")
        out[zero_idx + k] += v0
        if k:
            out[zero_idx - k] += v0
    return DiscreteMultiplier(out, m.omega, ell=m.ell), t_snapped


def _reference_pnorm(v, p):
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def _reference_dual_power(v, q):
    av = np.abs(v)
    scale = np.where(av > 0, av ** (q - 1.0), 0.0)
    phase = np.where(av > 0, v / np.where(av > 0, av, 1.0), 0.0)
    return scale * phase


def reference_estimate_lower(m, p, *, iterations=200, seed=0, real_test_functions=False,
                             paths=None):
    """Test oracle: the estimator loop before the accepted image was carried
    over, which recomputes ``apply(f)`` at the top of every step.

    Returns ``(estimate, test_function, converged, iterations, history)``.
    ``paths``, a ``collections.Counter`` if given, counts the entries into
    the damped branch ("damped") and the exits on a stalled quotient
    ("stall").
    """
    rng = np.random.default_rng(seed)
    mhat = np.fft.ifftshift(m.samples)
    conj_mhat = np.conj(mhat)

    def apply(v):
        return np.fft.ifft(mhat * np.fft.fft(v))

    def apply_adj(v):
        return np.fft.ifft(conj_mhat * np.fft.fft(v))

    q_dual = p / (p - 1.0)
    best_q = 0.0
    best_f = None
    history = []
    total_iters = 0
    converged = False
    paths = paths if paths is not None else Counter()

    starts = []
    for _ in range(3):
        f0 = rng.standard_normal(m.n).astype(complex)
        if not real_test_functions:
            f0 = f0 + 1j * rng.standard_normal(m.n)
        starts.append(f0)

    for idx, f in enumerate(starts):
        if real_test_functions:
            f = f.real.astype(complex)
        nf = _reference_pnorm(f, p)
        if nf == 0:
            continue
        f = f / nf
        q_here = 0.0
        stall = 0
        budget = max(1, (iterations - total_iters) // (len(starts) - idx))
        if total_iters >= iterations:
            break
        for _ in range(budget):
            total_iters += 1
            g = apply(f)
            q = _reference_pnorm(g, p)
            if q > best_q:
                best_q = q
                best_f = f.copy()
            history.append(best_q)
            if q <= q_here * (1.0 + 1e-13):
                stall += 1
            else:
                stall = 0
            q_here = max(q_here, q)
            if stall >= 4:
                converged = True
                paths["stall"] += 1
                break
            u = apply_adj(_reference_dual_power(g, p))
            if real_test_functions:
                u = u.real
            cand = _reference_dual_power(u, q_dual)
            nc = _reference_pnorm(cand, p)
            if nc == 0:
                break
            cand = cand / nc
            q_cand = _reference_pnorm(apply(cand), p)
            if q_cand >= q * (1.0 - 1e-13):
                f = cand
            else:
                paths["damped"] += 1
                damped = f + 0.5 * (cand - f)
                nd = _reference_pnorm(damped, p)
                if nd == 0:
                    break
                damped = damped / nd
                if _reference_pnorm(apply(damped), p) >= q * (1.0 - 1e-13):
                    f = damped
                else:
                    converged = True
                    break

    test_function = best_f if best_f is not None else np.zeros(m.n, dtype=complex)
    return best_q, test_function, converged, total_iters, history


def poly_integral(q, a, b):
    """Test oracle: the exact int_a^b q(x) dx of a ``Poly``, a rational or an
    ``(re, im)`` pair, from the antiderivative's coefficients by Horner."""

    def definite(cs):
        at_a = at_b = rat(0)
        for k in range(len(cs), 0, -1):  # antiderivative coefficient c_{k-1} / k of x^k
            at_a = (at_a + cs[k - 1] / rat(k)) * a
            at_b = (at_b + cs[k - 1] / rat(k)) * b
        return at_b - at_a

    return gauss(definite(q.coeffs), definite(q.im))


class ReferenceEvaluator(FTEvaluator):
    """Test oracle: the evaluator with the boundary sum in its direct form, one
    complex exp of the node itself per breakpoint, as it was before the
    phases were split on the panel grid."""

    def direct(self, ys):
        """sum_k e^{-2 pi i b_k y} sum_r J[k][r] / (2 pi i y)^{r+1} at the nodes ys."""
        w = 2.0 * np.pi * ys
        s = 1.0 / (1j * w)
        acc = np.zeros(ys.shape, dtype=complex)
        for b, row in zip(map(float, self.breaks), self.jumps):
            g = np.zeros(ys.shape, dtype=complex)
            pw = s
            for d in row:
                g += d * pw
                pw = pw * s
            acc += np.exp(-1j * w * b) * g
        return acc


def reference_periodic_mean(steps, coeffs, C1, p, n):
    """Test oracle: ``oscint._periodic_mean`` as it was before the FFT, a sum
    over a table of 2n roots of unity, one gather per term and block of
    samples, with its allowance: each sample within (K + 32) u C1 for K terms
    (the roots about 15 u, each product and sum one more), and the power, the
    quotient and the pairwise sum (log2 n + 2) u."""
    u = 2.0 ** -53
    roots = np.exp(-1j * math.pi / n * np.arange(2 * n))
    total = 0.0
    for j in range(0, n, oscint._PANEL_CHUNK * 15):
        odd = 2 * np.arange(j, min(j + oscint._PANEL_CHUNK * 15, n)) + 1
        P = np.zeros(len(odd), dtype=complex)
        for k, c in zip(steps, coeffs):
            P += c * roots[(k % (2 * n)) * odd % (2 * n)]
        total += float(np.sum((np.abs(P) / C1) ** p))
    delta = (len(coeffs) + 32) * u
    return total / n, p * (1.0 + delta) ** (p - 1.0) * (delta + u) + (math.log2(n) + 2.0) * u


def _reference_panel_integrate(fn, mid, half):
    vals = np.empty(len(mid))
    errs = np.empty(len(mid))
    for lo in range(0, len(mid), oscint._PANEL_CHUNK):
        hi = min(lo + oscint._PANEL_CHUNK, len(mid))
        fx = fn(mid[lo:hi], half[lo:hi])
        k15 = np.einsum("pj,j->p", fx, np.asarray(oscint._GK_WK)) * half[lo:hi]
        g7 = np.einsum("pj,j->p", fx, np.asarray(oscint._GK_WG)) * half[lo:hi]
        vals[lo:hi] = k15
        errs[lo:hi] = np.abs(k15 - g7)
    return vals, errs


def reference_norm_numeric(f, p, t, target_abs_err=1e-6, stats=None, full_line=False):
    """Test oracle: ``norm_numeric`` as it was before the bisection rounds
    were batched, with a list of panel tuples and one ``_panel_integrate``
    call per bisected panel.  Panels are (mid, half) pairs: the initial
    grid gives every panel the half-width h/2 of its n panels of width h,
    and a bisected panel's halves are (mid -+ half/2, half/2).  A round
    bisects the worst panels the library's rule picks, its excess summed
    left to right as the library's cumsum sums it.  The evaluator's panel
    form and the tail from ``_place_tail`` are the library's own.  A real
    split function is integrated on [0, Y], counted twice, with nodes
    counted on the full grid, as the library does; ``full_line`` integrates
    every input on [-Y, Y], as the library did before it folded.

    ``stats``, a ``collections.Counter`` if given, counts the bisection
    rounds ("rounds") and the panels they bisect ("bisected").
    """
    stats = stats if stats is not None else Counter()
    p = float(p)
    if p <= 1:
        raise SplitnormError(f"(N_t f)^p requires p > 1, got {p}")
    if f.is_zero():
        return NumericNorm(value=0.0, abs_error=0.0, p=p, t=float(t))

    g = apply_split(f, rat(t))
    evaluator = FTEvaluator(g)
    Y, tail_value, tail_err = oscint._place_tail(evaluator, p, target_abs_err)
    radius = float(g.support_radius())
    width = oscint._panel_width(radius)
    nodes = 2.0 * Y / width * 15.0
    if nodes > oscint._NODE_CAP:
        raise BudgetExceeded(
            f"{nodes:.3g} nodes (15 per panel) would exceed the node cap {oscint._NODE_CAP}"
        )
    n_half = int(math.ceil(Y / width))
    fold = g.is_real() and not full_line

    def integrand(mid, half):
        return np.abs(evaluator.on_panels(mid, half)) ** p * (2.0 if fold else 1.0)

    with np.errstate(over="ignore", invalid="ignore"):
        start, n_panels = (0.0, n_half) if fold else (-Y, 2 * n_half)
        h = (Y - start) / n_panels
        mid = start + (np.arange(n_panels) + 0.5) * h
        half = np.full(n_panels, 0.5 * h)
        vals, errs = _reference_panel_integrate(integrand, mid, half)
        nodes_used = 2 * n_half * 15

        quad_target = max(target_abs_err - tail_err, target_abs_err * 0.5)
        intervals = list(zip(mid, half, vals, errs))
        while True:
            excess = 0.0  # summed left to right, as the library's cumsum sums
            for iv in intervals:
                excess += iv[3]
            excess -= 0.5 * quad_target
            if not (excess > 0 and nodes_used + 30 <= oscint._NODE_CAP):
                break
            intervals.sort(key=lambda iv: iv[3])
            # the fewest worst panels whose estimates, summed worst first, reach the excess
            n = len(intervals)
            reach, acc = n, 0.0
            for i, iv in enumerate(reversed(intervals)):
                acc += iv[3]
                if acc >= excess:
                    reach = i + 1
                    break
            count = min(max(1, n // 64, reach), n, (oscint._NODE_CAP - nodes_used) // 30)
            worst, keep = intervals[-count:], intervals[:-count]
            stats["rounds"] += 1
            stats["bisected"] += len(worst)
            for m, q, _, _ in worst:
                sub_mid = np.array([m - 0.5 * q, m + 0.5 * q])
                sub_half = np.array([0.5 * q, 0.5 * q])
                v, er = _reference_panel_integrate(integrand, sub_mid, sub_half)
                keep.extend(zip(sub_mid, sub_half, v, er))
                nodes_used += 30
            intervals = keep

    integral = math.fsum(iv[2] for iv in intervals)
    quad_err = math.fsum(iv[3] for iv in intervals)
    fp_err = 1e-13 * (1.0 + abs(integral))
    value = integral + tail_value
    abs_error = quad_err + tail_err + fp_err
    result = NumericNorm(value=value, abs_error=abs_error, p=p, t=float(t))
    if not math.isfinite(value):
        raise BudgetExceeded(f"the result {value:.3g} +- {abs_error:.3g} is not finite", result=result)
    if not abs_error <= target_abs_err:
        raise BudgetExceeded(
            f"achieved error {abs_error:.3g} exceeds the target {target_abs_err:.3g}",
            result=result,
        )
    return result


def schoolbook_jump_pair_products(fj: list, gj: list) -> dict:
    """start -> sum of the coefficient products of the jump pairs starting
    there, one schoolbook product per pair: the oracle of the packed
    ``polyalg._jump_pair_products``."""
    acc: dict = {}
    for b, a in fj:
        for c, e in gj:
            acc[b + c] = _int_mul_add(a, e, acc.get(b + c))
    return acc


def reference_real_correlation_sum(terms) -> PiecewisePoly:
    """``polyalg.real_correlation_sum`` with one Taylor shift per one-sided
    term: each term is moved to X on its own, then rescaled to Z, cut off at
    t = 0, summed per start and then in a running sum."""
    terms = [(w, c, F, G) for w, c, F, G in terms if w and F.re and G.re]
    if not terms:
        return ZERO_PP
    lcm_c = math.lcm(*(c for _, c, _, _ in terms))
    parts = []
    for w, c, F, G in terms:
        re, _, weights, den = _product_jumps(G, F.conj_reflected(), real_only=True)
        re = _weighted(re, weights)
        parts.append((w, lcm_c // c, {s: _taylor_shift(cs, -s) for s, cs in re.items()}, den))
    width = 2 * max(h.degree for _, _, F, G in terms for h in (F, G)) + 2
    common = math.lcm(*(den * r ** (width - 1) for _, r, _, den in parts))
    acc: dict = {}
    for w, r, re, den in parts:
        mult = [w * (common // (den * r**j)) for j in range(width)]
        for s, cs in re.items():
            z = max(s * r, 0)
            cs = [m * x for m, x in zip(mult, cs)] + [0] * (width - len(cs))
            cur = acc.get(z)
            acc[z] = cs if cur is None else [a + b for a, b in zip(cur, cs)]
    starts = sorted(acc.keys() | {0})
    running, pieces = [0] * width, []
    for s in starts:
        running = [a + c for a, c in zip(running, acc.get(s, [0] * width))]
        pieces.append(running)
    assert not any(running), "the one-sided terms must cancel past the last start"
    return IntLayout(starts, terms[0][2].scale * lcm_c, common, pieces[:-1], None, width - 1).to_piecewise()

"""Split Fourier multipliers: exact constants, the inequality ledger, and a
discretized lower-bound estimator for multiplier operator norms.

The classical constants (the only exactly known ones):

    n_p  = max(tan(pi/(2p)), cot(pi/(2p)))      segment multiplier
    c_p  = csc(pi/p)                             half line, complex data
    c_p^R = max(sec(pi/(2p)), csc(pi/(2p))) / 2  half line, real data

Some printed sources show the argument as ``p/(2p)``; dimensionally it must
be ``pi/(2p)`` -- the value c_2^R = 1/sqrt(2) pins the reading, since
sec(pi/4)/2 = csc(pi/4)/2 = 1/sqrt(2).  Both readings are recorded here;
the implementation uses pi/(2p).

Numerics only ever exhibit *lower* estimates (the floating-point quotient
of an explicit discrete test function, not a proved bound); upper bounds
come exclusively from the analytic ledger.

numpy is imported inside each function that uses it: the constants and the
ledger are plain floats, and importing the package loads no numpy for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .errors import InapplicableHypothesis, SplitnormError
from .polyalg import PiecewisePoly, tent as tent_function
from .scalars import rat

if TYPE_CHECKING:  # annotations only
    import numpy as np

__all__ = [
    "MultConstants",
    "BoundReport",
    "DiscreteMultiplier",
    "EstimateResult",
    "constants",
    "bound_report",
    "exact_norm_positive_kernel",
    "split_multiplier",
    "estimate_lower",
    "halfline_multiplier",
    "segment_multiplier",
    "tent_multiplier",
]


@dataclass(frozen=True)
class MultConstants:
    """The trio (n_p, c_p, c_p^R); all are p <-> p/(p-1) symmetric."""

    p: float
    n_p: float
    c_p: float
    c_p_real: float

    def to_json_dict(self) -> dict:
        return {"p": self.p, "n": self.n_p, "c": self.c_p, "cR": self.c_p_real}


def constants(p: float) -> MultConstants:
    """Exact multiplier constants evaluated in floating point."""
    p = float(p)
    if not (1.0 < p < math.inf):
        raise SplitnormError(f"constants are defined for 1 < p < oo, got {p}")
    half = math.pi / (2.0 * p)
    n_p = max(math.tan(half), 1.0 / math.tan(half))
    c_p = 1.0 / math.sin(math.pi / p)
    c_p_real = 0.5 * max(1.0 / math.cos(half), 1.0 / math.sin(half))
    return MultConstants(p=p, n_p=n_p, c_p=c_p, c_p_real=c_p_real)


def _binom_factor(p: int) -> float:
    return math.comb(p, p // 2) ** (1.0 / p)


@dataclass(frozen=True)
class BoundReport:
    """One line of the inequality ledger.

    ``lower``/``upper`` are None when the quantity only bounds one side;
    ``applicable`` is False (with a reason) when a hypothesis gate fails,
    in which case no numbers are emitted.
    """

    quantity: str
    inputs: dict
    lower: Optional[float]
    upper: Optional[float]
    applicable: bool
    reason: str = ""

    def to_json_dict(self) -> dict:
        doc = {"quantity": self.quantity}
        for k in sorted(self.inputs):
            doc[k] = self.inputs[k]
        doc["lower"] = self.lower
        doc["upper"] = self.upper
        doc["applicable"] = self.applicable
        if self.reason:
            doc["reason"] = self.reason
        return doc


_REAL_SPLIT = ("in_R", "requires the split multiplier to map real data to real data (declare in_R)")

# quantity -> (rests on the split theorem, the property it needs declared as (flag, reason) or None)
_HYPOTHESES = {
    "split_upper": (True, _REAL_SPLIT),
    "split_upper_real": (True, ("even_real", "requires m real and even in the split variable (declare even_real)")),
    "dual": (True, _REAL_SPLIT),
    "m_plus_upper": (False, None),
    "m_plus_upper_real": (False, ("in_R", "requires T_m to preserve real data (declare in_R)")),
    "split_lower": (False, None),
    "two_way": (True, _REAL_SPLIT),
    "m_plus_two_way": (False, None),
    "poly_two_way": (True, ("symmetric", "requires the polygon indicator to be even in both variables")),
    "square": (True, None),
}


def _need(inputs: dict, *names):
    missing = [n for n in names if inputs.get(n) is None]
    if missing:
        raise SplitnormError(f"missing inputs: {', '.join(missing)}")
    return [inputs[n] for n in names]


def _split_theorem(inputs):
    """The first hypothesis of the split theorem that ``inputs`` fail, or None:
    an even integer p, then t >= t0 = (p-2)A/4."""
    p = inputs["p"]
    if not isinstance(p, int) or p % 2 or p < 2:
        return f"requires an even integer p (got {p!r})"
    A, t = _need(inputs, "A", "t")
    if A < 0:
        raise ValueError("A must be nonnegative")
    # float arithmetic, not normprofile.gen_t0: a huge A gives inf, which the
    # gate reports, where float() of the exact value would overflow
    thr = (p - 2) * float(A) / 4.0
    if float(t) < thr:
        return f"requires t >= t0 = {thr} (got t = {t})"
    return None


def bound_report(quantity: str, inputs: dict) -> BoundReport:
    """Evaluate one inequality of the ledger on the given named inputs.

    The first failing check decides, in this order: no input is NaN; ``p``
    is given; a bound that rests on the split theorem has an even integer
    p, then t >= t0 = (p-2)A/4 (A and t given, A >= 0); the property the
    quantity needs is declared (``in_R``, ``even_real`` or ``symmetric``);
    its other inputs are given; their values meet its conditions (ell > 0,
    ell != 0, t > 0, the real variant's ``even_real``), where
    ``m_plus_two_way`` reads ``m_norm`` last.  A failed hypothesis,
    declaration or value condition gives an ``applicable=False`` report; a
    NaN or missing input raises :class:`SplitnormError`, and a negative A
    ``ValueError``.
    """
    if quantity not in _HYPOTHESES:
        raise SplitnormError(f"unknown quantity {quantity!r}; choose from {sorted(_HYPOTHESES)}")
    nan = sorted(n for n, v in inputs.items() if isinstance(v, float) and math.isnan(v))
    if nan:
        raise SplitnormError(f"NaN inputs: {', '.join(nan)}")
    inputs = dict(inputs)
    (p,) = _need(inputs, "p")
    theorem, declared = _HYPOTHESES[quantity]
    reason = _split_theorem(inputs) if theorem else None
    if reason is None and declared and not inputs.get(declared[0], False):
        reason = declared[1]

    def report(lower=None, upper=None, reason=""):
        return BoundReport(quantity, inputs, lower, upper, not reason, reason)

    if reason:
        return report(reason=reason)
    if quantity in ("split_upper", "dual"):
        mp, mm = _need(inputs, "m_plus_norm", "m_minus_norm")
        if quantity == "dual":
            inputs["p_dual"] = p / (p - 1)
        return report(upper=_binom_factor(p) * math.sqrt(mp * mm))
    if quantity == "split_upper_real":
        (mp,) = _need(inputs, "m_plus_norm")
        return report(upper=_binom_factor(p) * mp)
    if quantity == "m_plus_upper":
        (mn,) = _need(inputs, "m_norm")
        return report(upper=constants(p).c_p * mn)
    if quantity == "m_plus_upper_real":
        (mn,) = _need(inputs, "m_norm_real")
        return report(upper=constants(p).c_p_real * mn)
    if quantity == "split_lower":
        (ell,) = _need(inputs, "ell")
        if not ell > 0:
            return report(reason=f"requires ell > 0 (got {ell})")
        if inputs.get("t") is not None and not float(inputs["t"]) > 0:
            return report(reason="requires t > 0")
        return report(lower=ell * constants(p).c_p)
    if quantity == "two_way":
        ell, mn = _need(inputs, "ell", "m_norm")
        if not ell > 0:
            return report(reason=f"requires ell > 0 (got {ell})")
        c = constants(p).c_p
        return report(lower=ell * c, upper=c * _binom_factor(p) * mn)
    if quantity == "m_plus_two_way":
        (ell,) = _need(inputs, "ell")
        if ell == 0:
            return report(reason="requires ell = m(0) != 0")
        real = inputs.get("real_variant", False)
        if real and not inputs.get("even_real", False):
            return report(reason="the real variant requires m real-valued and even")
        (mn,) = _need(inputs, "m_norm")
        c = constants(p).c_p_real if real else constants(p).c_p
        return report(lower=c * abs(ell), upper=c * mn)
    cs = constants(p)
    if quantity == "poly_two_way":
        (mp,) = _need(inputs, "m_plus_norm")
        return report(lower=cs.n_p * cs.c_p, upper=_binom_factor(p) * mp)
    return report(lower=cs.n_p * cs.c_p, upper=_binom_factor(p) * cs.c_p ** 3)  # square


# ---------------------------------------------------------------------------
# positive-kernel exact norms
# ---------------------------------------------------------------------------


def exact_norm_positive_kernel(m: PiecewisePoly, *, positive_transform_asserted: bool = False) -> float:
    """|||m|||_{p,p} = m(0) for every p, valid when the inverse transform of
    m is integrable and nonnegative.

    The built-in registry covers positive multiples of the unit tent
    (1-|x|) on (-1,1), whose transform (sin(pi y) / (pi y))^2 is manifestly
    nonnegative.  Other kernels need ``positive_transform_asserted=True``.
    Combine the returned value with :func:`constants`: the halves then have
    |||m_+||| = c_p * m(0) and |||m_+|||^R = c_p^R * m(0) exactly.
    """
    if not m.is_real():
        raise SplitnormError("the positive-kernel norm applies to real multipliers")
    lv, rv = m.left_limit(rat(0)), m.eval(rat(0))
    if lv != rv:
        raise InapplicableHypothesis(
            "a multiplier with integrable nonnegative kernel is continuous, "
            "but the one-sided limits at 0 differ"
        )
    ell = rv
    if not positive_transform_asserted:
        if not (ell > 0 and m == tent_function(-1, 0, 1) * ell):
            raise InapplicableHypothesis(
                "kernel positivity is only known for positive multiples of the "
                "unit tent; pass positive_transform_asserted=True to override"
            )
    return float(ell)


# ---------------------------------------------------------------------------
# discrete multipliers and the lower-bound estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteMultiplier:
    """Samples of a multiplier on the uniform grid -Omega + k * (2 Omega / N).

    ``samples`` is ordered by ascending frequency; N must be a power of two
    (the estimator uses the FFT), and omega positive with 2 omega finite and
    the grid step 2 omega / N positive.
    ``ell`` optionally records a declared continuity value at 0.
    """

    samples: np.ndarray
    omega: float
    ell: Optional[float] = None

    def __post_init__(self):
        import numpy as np

        arr = np.asarray(self.samples, dtype=complex)
        n = arr.shape[0]
        if n == 0 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two, got {n}")
        if not (self.omega > 0 and math.isfinite(2.0 * float(self.omega))):
            raise SplitnormError(f"omega must be positive with 2 * omega finite, got {self.omega}")
        if not 2.0 * float(self.omega) / n > 0:
            raise SplitnormError(f"omega must give a positive grid step 2 * omega / N, got {self.omega} with N = {n}")
        if not np.isfinite(arr).all():
            raise ValueError("multiplier samples must be bounded")
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.shape[0])

    @property
    def step(self) -> float:
        return 2.0 * self.omega / self.n

    def grid(self) -> np.ndarray:
        import numpy as np

        return -self.omega + self.step * np.arange(self.n)


def halfline_multiplier(n: int, omega: float, shift: float = 0.0) -> DiscreteMultiplier:
    """chi_{(shift, oo)} sampled on the grid; the boundary bin takes 1/2."""
    return segment_multiplier(n, omega, shift, math.inf)


def segment_multiplier(n: int, omega: float, a: float = -1.0, b: float = 1.0) -> DiscreteMultiplier:
    """chi_{(a, b)} sampled on the grid; endpoint bins take 1/2.

    The grid symbol is periodic with period 2 omega (the estimator's FFT
    wraps frequencies), so the segment is an arc of the frequency circle,
    not a bounded piece of a line.  When b - a = omega the arc is half the
    circle: for the defaults a = -1, b = 1 with omega = 2, the samples are
    those of the symmetric half-band projection (``halfline_multiplier``
    with the bin at -omega also set to 1/2) rolled by N/4 bins.  Rolling
    the symbol conjugates the operator by a modulation, an isometry of
    l^p, so that grid's operator is the half-band (Riesz) projection,
    whose continuum constant is c_p rather than the segment constant n_p.
    """
    import numpy as np

    dm = DiscreteMultiplier(np.zeros(n), omega)
    ys = dm.grid()
    samples = ((ys > a) & (ys < b)).astype(complex)
    edge = np.isclose(ys, a, rtol=0, atol=dm.step * 1e-9) | np.isclose(
        ys, b, rtol=0, atol=dm.step * 1e-9
    )
    samples[edge] = 0.5
    return DiscreteMultiplier(samples, omega, ell=1.0)


def tent_multiplier(n: int, omega: float) -> DiscreteMultiplier:
    import numpy as np

    dm = DiscreteMultiplier(np.zeros(n), omega)
    ys = dm.grid()
    samples = np.clip(1.0 - np.abs(ys), 0.0, None).astype(complex)
    return DiscreteMultiplier(samples, omega, ell=1.0)


def split_multiplier(m: DiscreteMultiplier, t: float) -> tuple[DiscreteMultiplier, float]:
    """Samples of S_t m: positive frequencies shift right by t, negative
    left, zeros in between; returns (split multiplier, t snapped to grid).

    The sample at frequency 0 is duplicated onto both moving edges, which
    preserves the sup norm exactly (matching the continuum a.e. picture,
    where neither half owns the origin).
    """
    import numpy as np

    if t < 0:
        raise ValueError("t must be nonnegative")
    bins = float(t) / m.step
    if not math.isfinite(bins):
        raise SplitnormError(f"the shift must be a finite number t / step of grid bins, got t = {t} with step {m.step}")
    k = int(round(bins))
    t_snapped = k * m.step
    n = m.n
    zero_idx = n // 2
    s = m.samples
    # the clamps keep every slice bound in [0, n], so none wraps around
    if k:
        if np.abs(s[max(zero_idx + 1, n - k):]).max(initial=0.0) > 0:
            raise SplitnormError("positive support would shift beyond the grid")
        if np.abs(s[:min(k, zero_idx)]).max(initial=0.0) > 0:
            raise SplitnormError("negative support would shift beyond the grid")
    out = np.zeros(n, dtype=complex)
    out[zero_idx + 1 + k:] = s[zero_idx + 1:max(n - k, zero_idx + 1)]
    out[:max(zero_idx - k, 0)] = s[min(k, zero_idx):zero_idx]
    v0 = s[zero_idx]
    if v0 != 0:
        if zero_idx + k >= n or zero_idx - k < 0:
            raise SplitnormError("the origin sample would shift beyond the grid")
        out[zero_idx + k] += v0
        if k:
            out[zero_idx - k] += v0
    return DiscreteMultiplier(out, m.omega, ell=m.ell), t_snapped


@dataclass
class EstimateResult:
    """Outcome of the p-norm power iteration.

    ``estimate`` is ||T_m f||_p / ||f||_p for the explicit test function
    ``test_function``, evaluated in floating point on the finest grid (the
    multiplier's own): a lower estimate of the discrete operator norm, not
    a proved bound, and the continuum norm is only approximated by the
    grid.  ``history`` is that grid's nondecreasing best-so-far quotient
    per iteration, so ``history[-1] == estimate``; ``iterations`` counts
    the iterations of every grid, and ``converged`` says that the finest
    grid's quotient stalled.
    """

    estimate: float
    test_function: np.ndarray
    converged: bool
    iterations: int
    history: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _pnorm(v: np.ndarray, p: float) -> float:
    import numpy as np

    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def _dual_power(v: np.ndarray, q: float) -> np.ndarray:
    """|v|^{q-1} sgn(v), the duality map used by the ascent, up to a
    positive factor: where the power would overflow or underflow (q near 1
    makes q - 1 large), v is first divided by max|v|.  The ascent
    normalises the result, so only the overflow or underflow changes."""
    import numpy as np

    av = np.abs(v)
    top = av.max(initial=0.0)
    if top > 0 and abs((q - 1.0) * math.log(top)) > 700.0:
        v = v / top
        av = np.abs(v)
    nonzero = av > 0
    scale = np.power(av, q - 1.0, out=np.zeros_like(av), where=nonzero)
    phase = np.divide(v, av, out=np.zeros_like(v), where=nonzero)
    return scale * phase


# seeded random starts of estimate_lower's coarsest grid, sharing that
# grid's part of the iteration budget
_RANDOM_STARTS = 3
# the coarsest grid of the continuation: a finer multiplier is first
# ascended on its samples subsampled to N = 2^12
_COARSEST_N = 2 ** 12


def _ascend(mhat: np.ndarray, p: float, starts: list, budget: int, real_test_functions: bool):
    """The power iteration on one grid, ``mhat`` the symbol in FFT order:
    the starts (real if ``real_test_functions``) share ``budget`` iterations
    in order, and a start that ends early passes its leftover on.  Returns
    ``(best quotient, its test function or None, stalled, iterations, history)``."""
    import numpy as np

    conj_mhat = np.conj(mhat)

    def apply(v):
        return np.fft.ifft(mhat * np.fft.fft(v))

    def apply_adj(v):
        return np.fft.ifft(conj_mhat * np.fft.fft(v))

    q_dual = p / (p - 1.0)
    best_q = 0.0
    best_f = None
    history: list = []
    total_iters = 0
    converged = False
    for idx, f in enumerate(starts):
        nf = _pnorm(f, p)
        if nf == 0:
            continue
        f = f / nf
        q_here = 0.0
        stall = 0
        share = max(1, (budget - total_iters) // (len(starts) - idx))
        if total_iters >= budget:
            break
        # (f, g, q) = (iterate, its image, ||g||_p); an accepted step carries
        # the image it was tested with, so no image is computed twice
        g = apply(f)
        q = _pnorm(g, p)
        for step in range(share):
            total_iters += 1
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
                break
            if step == share - 1:  # no iteration is left to record a further step
                break
            u = apply_adj(_dual_power(g, p))
            if real_test_functions:
                u = u.real
            cand = _dual_power(u, q_dual)
            nc = _pnorm(cand, p)
            if nc == 0:
                break
            cand = cand / nc
            g_cand = apply(cand)
            q_cand = _pnorm(g_cand, p)
            if not q_cand >= q * (1.0 - 1e-13):
                break
            f, g, q = cand, g_cand, q_cand
    return best_q, best_f, converged, total_iters, history


def estimate_lower(
    m: DiscreteMultiplier,
    p: float,
    *,
    iterations: int = 200,
    seed: int = 0,
    real_test_functions: bool = False,
) -> EstimateResult:
    """Lower-bound the (p,p) norm of the discrete multiplier operator.

    Power iteration on the quotient ||T_m f||_p / ||f||_p with the
    dual-exponent signed-power map

        f  <-  Psi_{p'}( T_m^* Psi_p(T_m f) ),     Psi_r(u) = |u|^{r-1} sgn(u),

    and best-so-far tracking.  A start ends when its quotient stalls,
    when a step would lower it, or once the last iteration of its share is
    recorded; a step whose dual power overflows gives NaN, which ends the
    start too.  The image T_m f of an accepted step is the one computed to
    test it and is carried into the next step, so a step costs two FFT
    pairs (T_m^* and the candidate's image).

    Grid continuation: for N > 2^12 the ascent runs on the grids 2^12,
    2^13, ..., N in turn.  The coarsest runs three seeded random starts on
    a third of the ``iterations`` budget; each finer grid runs one start
    on an even share of what is left, and a grid that stops early passes
    its leftover on.  That start is the coarser grid's best test function
    with zeros appended: every grid keeps ``omega``, so the spatial period
    doubles and the coarse period becomes the first half of the fine one.
    (A grid whose coarser one found no nonzero quotient draws the three
    random starts afresh.)  A grid's symbol is ``m.samples[::N // n]``,
    the fine samples at the coarse frequencies, not a rebuilt multiplier,
    so any multiplier ascends on its own values (a rebuilt split symbol
    would snap its shift to another bin).  N <= 2^12 and a budget of fewer
    than 9 iterations leave the one grid N; a budget too small to give
    every finer grid an iteration drops the coarsest grids.

    The estimate is the floating-point quotient of an explicit test
    function: up to rounding a lower bound for the discrete norm, not a
    proved one, and only an approximation to the continuum norm.
    Deterministic for a fixed seed, and writes no file (see ``--checkpoint``).
    """
    import numpy as np

    if not 1.0 < p < math.inf:
        raise SplitnormError(f"estimation needs 1 < p < oo, got {p}")
    if iterations < 1:
        raise SplitnormError(f"estimation needs at least one iteration, got {iterations}")
    rng = np.random.default_rng(seed)
    coarse_share = iterations // 3
    levels = [m.n]
    if coarse_share >= _RANDOM_STARTS:
        while levels[0] > _COARSEST_N and iterations - coarse_share >= len(levels):
            levels.insert(0, levels[0] // 2)
    best_f = None
    used = 0
    for k, n in enumerate(levels):
        starts = []
        if best_f is not None:
            starts.append(np.concatenate([best_f, np.zeros(n - best_f.size, dtype=complex)]))
        else:
            for _ in range(_RANDOM_STARTS):
                f0 = rng.standard_normal(n).astype(complex)
                if not real_test_functions:
                    f0 = f0 + 1j * rng.standard_normal(n)
                starts.append(f0)
        share = (iterations - used) // (len(levels) - k)
        if k == 0 and len(levels) > 1:
            share = coarse_share
        mhat = np.fft.ifftshift(m.samples[:: m.n // n])
        with np.errstate(over="ignore", invalid="ignore"):
            best_q, best_f, converged, its, history = _ascend(
                mhat, p, starts, share, real_test_functions
            )
        used += its

    return EstimateResult(
        estimate=best_q,
        test_function=best_f if best_f is not None else np.zeros(m.n, dtype=complex),
        converged=converged,
        iterations=used,
        history=history,
    )

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

Numerics only ever certify *lower* bounds (any discrete test function
exhibits a quotient); upper bounds come exclusively from the analytic
ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    GridOverflow,
    InapplicableHypothesis,
    MissingInput,
    NonRealInput,
    OddP,
    POutOfRange,
    UnverifiedPositivity,
)
from .polyalg import PiecewisePoly, tent as tent_function
from .scalars import rat

__all__ = [
    "MultConstants",
    "BoundReport",
    "DiscreteMultiplier",
    "EstimateResult",
    "constants",
    "t0",
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
        raise POutOfRange(f"constants are defined for 1 < p < oo, got {p}")
    half = math.pi / (2.0 * p)
    n_p = max(math.tan(half), 1.0 / math.tan(half))
    c_p = 1.0 / math.sin(math.pi / p)
    c_p_real = 0.5 * max(1.0 / math.cos(half), 1.0 / math.sin(half))
    return MultConstants(p=p, n_p=n_p, c_p=c_p, c_p_real=c_p_real)


def t0(A: float, p: int) -> float:
    """(p-2)A/4, the split threshold for compact support of halfwidth A."""
    if not isinstance(p, int) or p < 2 or p % 2:
        raise OddP(f"the threshold applies to even integer p, got {p!r}")
    if A < 0:
        raise ValueError("A must be nonnegative")
    return (p - 2) * float(A) / 4.0


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

    def require_applicable(self) -> "BoundReport":
        if not self.applicable:
            raise InapplicableHypothesis(f"{self.quantity}: {self.reason}")
        return self

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


_QUANTITIES = {
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


def _need(inputs: dict, *names):
    missing = [n for n in names if inputs.get(n) is None]
    if missing:
        raise MissingInput(f"missing inputs: {', '.join(missing)}")
    return [inputs[n] for n in names]


def _gate_even_p(inputs):
    p = inputs.get("p")
    if not isinstance(p, int) or p % 2 or p < 2:
        return f"requires an even integer p (got {p!r})"
    return None


def _gate_t_at_least_t0(inputs):
    p, A, t = inputs.get("p"), inputs.get("A"), inputs.get("t")
    if A is None or t is None:
        raise MissingInput("missing inputs: A, t")
    thr = (p - 2) * float(A) / 4.0
    if float(t) < thr:
        return f"requires t >= t0 = {thr} (got t = {t})"
    return None


def bound_report(quantity: str, inputs: dict) -> BoundReport:
    """Evaluate one inequality of the ledger on the given named inputs.

    Hypothesis failures produce ``applicable=False`` reports; structurally
    missing numbers raise :class:`MissingInput`.
    """
    if quantity not in _QUANTITIES:
        raise MissingInput(f"unknown quantity {quantity!r}; choose from {sorted(_QUANTITIES)}")
    inputs = dict(inputs)
    p = inputs.get("p")
    if p is None:
        raise MissingInput("missing inputs: p")

    def report(lower=None, upper=None, gate=None):
        if gate:
            return BoundReport(quantity, inputs, None, None, False, gate)
        return BoundReport(quantity, inputs, lower, upper, True)

    if quantity in ("split_upper", "dual"):
        gate = _gate_even_p(inputs) or _gate_t_at_least_t0(inputs)
        if not gate and not inputs.get("in_R", False):
            gate = "requires the split multiplier to map real data to real data (declare in_R)"
        if gate:
            return report(gate=gate)
        mp, mm = _need(inputs, "m_plus_norm", "m_minus_norm")
        upper = _binom_factor(p) * math.sqrt(mp * mm)
        if quantity == "dual":
            inputs["p_dual"] = p / (p - 1)
        return report(upper=upper)

    if quantity == "split_upper_real":
        gate = _gate_even_p(inputs) or _gate_t_at_least_t0(inputs)
        if not gate and not inputs.get("even_real", False):
            gate = "requires m real and even in the split variable (declare even_real)"
        if gate:
            return report(gate=gate)
        (mp,) = _need(inputs, "m_plus_norm")
        return report(upper=_binom_factor(p) * mp)

    if quantity == "m_plus_upper":
        (mn,) = _need(inputs, "m_norm")
        return report(upper=constants(p).c_p * mn)

    if quantity == "m_plus_upper_real":
        if not inputs.get("in_R", False):
            return report(gate="requires T_m to preserve real data (declare in_R)")
        (mn,) = _need(inputs, "m_norm_real")
        return report(upper=constants(p).c_p_real * mn)

    if quantity == "split_lower":
        (ell,) = _need(inputs, "ell")
        if not ell > 0:
            return report(gate=f"requires ell > 0 (got {ell})")
        if inputs.get("t") is not None and not float(inputs["t"]) > 0:
            return report(gate="requires t > 0")
        return report(lower=ell * constants(p).c_p)

    if quantity == "two_way":
        gate = _gate_even_p(inputs) or _gate_t_at_least_t0(inputs)
        if not gate and not inputs.get("in_R", False):
            gate = "requires the split multiplier to map real data to real data (declare in_R)"
        if gate:
            return report(gate=gate)
        ell, mn = _need(inputs, "ell", "m_norm")
        if not ell > 0:
            return report(gate=f"requires ell > 0 (got {ell})")
        c = constants(p).c_p
        return report(lower=ell * c, upper=c * _binom_factor(p) * mn)

    if quantity == "m_plus_two_way":
        ell = _need(inputs, "ell")[0]
        if ell == 0:
            return report(gate="requires ell = m(0) != 0")
        if inputs.get("real_variant", False):
            if not inputs.get("even_real", False):
                return report(gate="the real variant requires m real-valued and even")
            (mn,) = _need(inputs, "m_norm")
            cr = constants(p).c_p_real
            return report(lower=cr * abs(ell), upper=cr * mn)
        (mn,) = _need(inputs, "m_norm")
        c = constants(p).c_p
        return report(lower=c * abs(ell), upper=c * mn)

    if quantity == "poly_two_way":
        gate = _gate_even_p(inputs) or _gate_t_at_least_t0(inputs)
        if not gate and not inputs.get("symmetric", False):
            gate = "requires the polygon indicator to be even in both variables"
        if not gate and not inputs.get("segment_intersection", True):
            gate = "requires the polygon to meet the split line in a segment"
        if gate:
            return report(gate=gate)
        (mp,) = _need(inputs, "m_plus_norm")
        cs = constants(p)
        return report(lower=cs.n_p * cs.c_p, upper=_binom_factor(p) * mp)

    if quantity == "square":
        gate = _gate_even_p(inputs) or _gate_t_at_least_t0(inputs)
        if gate:
            return report(gate=gate)
        cs = constants(p)
        return report(lower=cs.n_p * cs.c_p, upper=_binom_factor(p) * cs.c_p ** 3)

    raise AssertionError("unreachable")


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
        raise NonRealInput("the positive-kernel norm applies to real multipliers")
    lv, rv = m.left_limit(rat(0)), m.eval(rat(0))
    if lv != rv:
        raise UnverifiedPositivity(
            "a multiplier with integrable nonnegative kernel is continuous, "
            "but the one-sided limits at 0 differ"
        )
    ell = rv
    if not positive_transform_asserted:
        if not (ell > 0 and m == tent_function(-1, 0, 1) * ell):
            raise UnverifiedPositivity(
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
    (the estimator uses the FFT).  ``ell`` optionally records a declared
    continuity value at 0.
    """

    samples: np.ndarray
    omega: float
    ell: Optional[float] = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        n = arr.shape[0]
        if n == 0 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two, got {n}")
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
        return -self.omega + self.step * np.arange(self.n)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def is_even_real(self) -> bool:
        """True when m is real and even on the grid, so T_m preserves real
        data (the zero-frequency bin sits at index N/2)."""
        s = self.samples
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
    samples = np.asarray([fn(y) for y in ys], dtype=complex)
    return DiscreteMultiplier(samples=samples, omega=omega)


def halfline_multiplier(n: int, omega: float, shift: float = 0.0) -> DiscreteMultiplier:
    """chi_{(shift, oo)} sampled on the grid; the boundary bin takes 1/2."""
    dm = DiscreteMultiplier(np.zeros(n), omega)
    ys = dm.grid()
    samples = np.where(ys > shift, 1.0, 0.0).astype(complex)
    samples[np.isclose(ys, shift, rtol=0, atol=dm.step * 1e-9)] = 0.5
    return DiscreteMultiplier(samples, omega, ell=1.0)


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
    dm = DiscreteMultiplier(np.zeros(n), omega)
    ys = dm.grid()
    samples = ((ys > a) & (ys < b)).astype(complex)
    edge = np.isclose(ys, a, rtol=0, atol=dm.step * 1e-9) | np.isclose(
        ys, b, rtol=0, atol=dm.step * 1e-9
    )
    samples[edge] = 0.5
    return DiscreteMultiplier(samples, omega, ell=1.0)


def tent_multiplier(n: int, omega: float) -> DiscreteMultiplier:
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
            raise GridOverflow("positive support would shift beyond the grid")
        if (neg - k < 0).any() and np.abs(m.samples[neg[neg - k < 0]]).max(initial=0.0) > 0:
            raise GridOverflow("negative support would shift beyond the grid")
    keep_pos = pos[pos + k < n]
    keep_neg = neg[neg - k >= 0]
    out[keep_pos + k] = m.samples[keep_pos]
    out[keep_neg - k] = m.samples[keep_neg]
    v0 = m.samples[zero_idx]
    if v0 != 0:
        if zero_idx + k >= n or zero_idx - k < 0:
            raise GridOverflow("the origin sample would shift beyond the grid")
        out[zero_idx + k] += v0
        if k:
            out[zero_idx - k] += v0
    return DiscreteMultiplier(out, m.omega, ell=m.ell), t_snapped


@dataclass
class EstimateResult:
    """Outcome of the p-norm power iteration.

    ``estimate`` is a certified lower bound for the discrete operator norm
    (the quotient of an explicit test function); ``history`` is the
    nondecreasing best-so-far quotient per iteration.
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
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def _dual_power(v: np.ndarray, q: float) -> np.ndarray:
    """|v|^{q-1} sgn(v), the duality map used by the ascent."""
    av = np.abs(v)
    scale = np.where(av > 0, av ** (q - 1.0), 0.0)
    phase = np.where(av > 0, v / np.where(av > 0, av, 1.0), 0.0)
    return scale * phase


def estimate_lower(
    m: DiscreteMultiplier,
    p: float,
    *,
    iterations: int = 200,
    seed: int = 0,
    real_test_functions: bool = False,
    restarts: int = 3,
    initial: Optional[np.ndarray] = None,
    checkpoint_path: Optional[str] = None,
) -> EstimateResult:
    """Lower-bound the (p,p) norm of the discrete multiplier operator.

    Power iteration on the quotient ||T_m f||_p / ||f||_p with the
    dual-exponent signed-power map

        f  <-  Psi_{p'}( T_m^* Psi_p(T_m f) ),     Psi_r(u) = |u|^{r-1} sgn(u),

    a damped half-step on oscillation, and best-so-far tracking.
    ``iterations`` is the total budget, shared across ``restarts`` seeded
    random starts (plus the optional ``initial`` warm start, e.g. a test
    function recovered from a checkpoint).  Any quotient reached is a valid
    lower bound for the discrete norm (and an approximate lower bound for
    the continuum one).  Deterministic for a fixed seed.
    """
    if p <= 1:
        raise POutOfRange(f"estimation needs p > 1, got {p}")
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
    history: list = []
    total_iters = 0
    converged = False

    starts: list = []
    if initial is not None:
        f0 = np.asarray(initial, dtype=complex).copy()
        if f0.shape != (m.n,):
            raise ValueError(f"initial test function must have shape ({m.n},)")
        starts.append(f0)
    for _ in range(max(1, restarts)):
        f0 = rng.standard_normal(m.n).astype(complex)
        if not real_test_functions:
            f0 = f0 + 1j * rng.standard_normal(m.n)
        starts.append(f0)

    for idx, f in enumerate(starts):
        if real_test_functions:
            f = f.real.astype(complex)
        nf = _pnorm(f, p)
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
            q = _pnorm(g, p)
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
            u = apply_adj(_dual_power(g, p))
            if real_test_functions:
                u = u.real
            cand = _dual_power(u, q_dual)
            nc = _pnorm(cand, p)
            if nc == 0:
                break
            cand = cand / nc
            q_cand = _pnorm(apply(cand), p)
            if q_cand >= q * (1.0 - 1e-13):
                f = cand
            else:
                damped = f + 0.5 * (cand - f)
                nd = _pnorm(damped, p)
                if nd == 0:
                    break
                damped = damped / nd
                if _pnorm(apply(damped), p) >= q * (1.0 - 1e-13):
                    f = damped
                else:
                    converged = True
                    break

    result = EstimateResult(
        estimate=best_q,
        test_function=best_f if best_f is not None else np.zeros(m.n, dtype=complex),
        converged=converged,
        iterations=total_iters,
        history=history,
    )
    if checkpoint_path:
        np.savez(
            checkpoint_path,
            samples=result.test_function,
            estimate=result.estimate,
            p=p,
            seed=seed,
            n=m.n,
            omega=m.omega,
        )
    return result

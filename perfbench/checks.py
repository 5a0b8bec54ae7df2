"""Output checks, each made apart from the program.

Every check takes a job description and the job's output and returns a list
of error strings (empty when the output is right).  The references are
computed here: closed forms, exact rational integrals of the benchmark's own
piece tables, numpy evaluations of the benchmark's own samples, or
properties the method must have.  ``selftest.py`` feeds these functions
corrupted outputs to show that each one can fail.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction as Q

import numpy as np

from inputs import c_p, support_radius

# relative tolerance of the float Plancherel reference (Richardson-extrapolated
# from grid steps 1/64 and 1/128; its error is below 1e-6 on the workload)
PLANCHEREL_RTOL = 1e-5
# relative tolerance of the trigonometric-series FFT reference
SERIES_RTOL = 1e-9
# relative tolerance of the recomputed estimator quotient
QUOTIENT_RTOL = 1e-9
# the paper's p = 3 values for ind:-1,1 at t = 1/4, 1, 5, 12
PAPER_P3 = {0.25: 2.6247, 1.0: 2.6124, 5.0: 2.6116, 12.0: 2.6121}


def as_fraction(x) -> Q:
    """An exact library rational (Fraction or mpq) as a Fraction."""
    return Q(int(x.numerator), int(x.denominator))


# ---------------------------------------------------------------------------
# float evaluation of piece tables
# ---------------------------------------------------------------------------


def eval_table(table, xs: np.ndarray) -> np.ndarray:
    out = np.zeros(xs.shape, dtype=complex)
    for a, b, cs in table:
        mask = (xs >= float(a)) & (xs < float(b))
        acc = np.zeros(int(mask.sum()), dtype=complex)
        for re, im in reversed(cs):
            acc = acc * xs[mask] + complex(float(re), float(im))
        out[mask] = acc
    return out


def split_samples(table, t: Q, h: Q):
    """Midpoint samples of S_t f on a grid of step h covering its support."""
    lo = -(support_radius(table) + t)
    n = int((-2 * lo) / h)
    xs = float(lo) + (np.arange(n) + 0.5) * float(h)
    tf = float(t)
    plus = [(a, b, cs) for a, b, cs in _cut_at_zero(table) if a >= 0]
    minus = [(a, b, cs) for a, b, cs in _cut_at_zero(table) if b <= 0]
    return eval_table(plus, xs - tf) + eval_table(minus, xs + tf)


def _cut_at_zero(table):
    out = []
    for a, b, cs in table:
        if a < 0 < b:
            out.extend([(a, Q(0), cs), (Q(0), b, cs)])
        else:
            out.append((a, b, cs))
    return out


def plancherel_float(table, p: int, t: Q) -> float:
    """int |F[S_t f]|^p = ||(S_t f)^{*p/2}||_2^2 from midpoint samples at steps
    h = 1/64 and h/2, Richardson-extrapolated (the sampled value has an O(h^2)
    error: breakpoints and shifts lie on the grid)."""
    coarse, fine = _plancherel_samples(table, p, t, Q(1, 64)), _plancherel_samples(table, p, t, Q(1, 128))
    return (4.0 * fine - coarse) / 3.0


def _plancherel_samples(table, p: int, t: Q, h: Q) -> float:
    m = p // 2
    g = split_samples(table, t, h)
    size = 1 << int(math.ceil(math.log2(m * len(g) + 1)))
    spec = np.fft.fft(g, size)
    hf = float(h)
    return float(hf ** (2 * m - 1) / size * np.sum(np.abs(spec) ** (2 * m)))


def l2_squared(table) -> Q:
    """Exact int |f|^2 from the piece table."""
    total = Q(0)
    for a, b, cs in table:
        for j, (rj, ij) in enumerate(cs):
            for k, (rk, ik) in enumerate(cs):
                re = rj * rk + ij * ik  # Re(c_j conj(c_k))
                e = j + k + 1
                total += re * (b ** e - a ** e) / e
    return total


# ---------------------------------------------------------------------------
# exact-profiles
# ---------------------------------------------------------------------------


def ind_p4_closed_form(t: Q) -> Q:
    """16 (1/24) (6 + (1-2t)^3 + |1-2t|^3), the corrected published form."""
    u = 1 - 2 * t
    return Q(16, 24) * (6 + u ** 3 + abs(u) ** 3)


TWO_BUMP_P4 = {Q(4): Q(76, 3), Q(9, 2): Q(88, 3), Q(5): Q(76, 3)}


def _profile_value(out, t: Q) -> Q:
    prof = out["profile"]
    return as_fraction(prof.value_at(t))


def check_exact_job(job, out) -> list:
    """A profile job: norm_profile, check_constancy, check_monotone, newt_constant."""
    errs = []
    name, table, p = job["name"], job["table"], job["p"]
    prof, cons, mono, newt = out["profile"], out["constancy"], out["monotone"], out["newt"]
    a = support_radius(table)
    threshold = Q(p - 2) * a / 4
    onset = as_fraction(prof.constancy_onset)
    tail, t_max = as_fraction(prof.tail_value), as_fraction(prof.t_max)
    if as_fraction(cons.threshold) != threshold:
        errs.append(f"{name}: threshold {cons.threshold} != (p-2)A/4 = {threshold}")
    if not onset <= threshold:
        errs.append(f"{name}: onset {onset} exceeds (p-2)A/4 = {threshold}")
    if cons.theorem_holds != (onset <= threshold):
        errs.append(f"{name}: constancy verdict disagrees with its onset")
    if not onset < t_max:
        errs.append(f"{name}: window ends at {t_max}, not past the onset {onset}")
    # every value past the onset equals the tail, read from the window itself
    window = prof.profile
    bps = [as_fraction(b) for b in window.breakpoints]
    for k, piece in enumerate(window.pieces):
        lo, hi = bps[k], bps[k + 1]
        if hi <= onset:
            continue
        for t in (max(lo, onset), (max(lo, onset) + hi) / 2):
            if as_fraction(piece.eval(t)) != tail:
                errs.append(f"{name}: window value at {t} past the onset differs from the tail")
                break
    if newt is not None and job["even_real"] and as_fraction(newt) != tail:
        errs.append(f"{name}: newt_constant {newt} != tail {tail}")
    if job["even_real"] and newt is None:
        errs.append(f"{name}: newt_constant missing for a real even function")
    # the monotone decision: a witness must re-evaluate, a yes must hold on samples
    if mono.ok:
        ts = [t_max * k / 64 for k in range(65)]
        vals = [_profile_value(out, t) for t in ts]
        if any(v2 > v1 for v1, v2 in zip(vals, vals[1:])):
            errs.append(f"{name}: declared nonincreasing, but a sampled value rises")
    else:
        x1, x2 = (as_fraction(x) for x in mono.witness)
        if not (x1 < x2 and _profile_value(out, x1) < _profile_value(out, x2)):
            errs.append(f"{name}: monotonicity witness ({x1}, {x2}) does not re-evaluate")
    # float Plancherel reference at the sampled shifts
    for t in job["t_samples"]:
        exact = float(_profile_value(out, t))
        ref = plancherel_float(table, p, t)
        if abs(exact - ref) > PLANCHEREL_RTOL * max(1.0, abs(ref)):
            errs.append(f"{name}: value {exact:.9g} at t={t} vs float Plancherel {ref:.9g}")
    # pinned values
    if job.get("pin") == "ind-p4":
        for k in range(0, 97):
            t = Q(k, 64)
            if _profile_value(out, t) != ind_p4_closed_form(t):
                errs.append(f"{name}: value at {t} differs from 16/24 (6+(1-2t)^3+|1-2t|^3)")
                break
    if job.get("pin") == "two-bump-p4":
        for t, v in TWO_BUMP_P4.items():
            if _profile_value(out, t) != v:
                errs.append(f"{name}: value at {t} is {_profile_value(out, t)}, want {v}")
        if not (tail == 24 and onset <= Q(11, 2)):
            errs.append(f"{name}: tail {tail} from {onset}, want 24 from 11/2")
    return errs


def split_sequence(seq: dict, t: int) -> dict:
    out: dict = {}
    for k, (re, im) in seq.items():
        c = complex(float(re), float(im))
        if k > 0:
            targets = [(k + t, c)]
        elif k < 0:
            targets = [(k - t, c)]
        else:
            targets = [(t, c / 2), (-t, c / 2)]
        for idx, v in targets:
            out[idx] = out.get(idx, 0) + v
    return out


def series_float(seq: dict, p: int, t: int) -> float:
    """int_0^1 |P|^p from L > p K samples of P = sum b_k e^{2 pi i k x}."""
    b = split_sequence(seq, t)
    big_k = max(abs(k) for k in b)
    size = 1 << int(math.ceil(math.log2(p * big_k + 2)))
    coeff = np.zeros(size, dtype=complex)
    for k, v in b.items():
        coeff[k % size] += v
    vals = size * np.fft.ifft(coeff)
    return float(np.mean(np.abs(vals) ** p))


def check_series_job(job, out) -> list:
    errs = []
    name, seq, p = job["name"], job["seq"], job["p"]
    values = [as_fraction(v) for v in out["values"]]
    for t, v in enumerate(values):
        ref = series_float(seq, p, t)
        if abs(float(v) - ref) > SERIES_RTOL * max(1.0, abs(ref)):
            errs.append(f"{name}: value {float(v):.12g} at t={t} vs FFT {ref:.12g}")
    onset = out["guaranteed_onset"]
    if onset != max(1, math.floor(Q(p - 2) * job["bound"] / 4) + 1):
        errs.append(f"{name}: guaranteed onset {onset} is not max(1, floor((p-2)A/4) + 1)")
    tail = values[onset:]
    if any(v != tail[0] for v in tail):
        errs.append(f"{name}: values change past the guaranteed onset {onset}")
    return errs


# ---------------------------------------------------------------------------
# numeric-norms
# ---------------------------------------------------------------------------


def check_numeric_job(job, out, exact_value=None) -> list:
    """One norm_numeric result; ``exact_value`` is the exact engine's value for even p."""
    errs = []
    name, p, t, target = job["name"], job["p"], job["t"], job["target"]
    value, err = out.value, out.abs_error
    if not (math.isfinite(value) and 0 <= err <= target):
        errs.append(f"{name}: abs_error {err:.3g} exceeds the target {target:.3g}")
    if exact_value is not None and abs(value - float(exact_value)) > err:
        errs.append(f"{name}: exact value {float(exact_value):.12g} outside {value:.12g} +- {err:.3g}")
    if p == 2:
        ref = float(l2_squared(job["table"]))
        if abs(value - ref) > err:
            errs.append(f"{name}: ||f||_2^2 = {ref:.12g} outside {value:.12g} +- {err:.3g}")
    if p == 3 and job["fn"] == "ind" and t in PAPER_P3 and abs(value - PAPER_P3[t]) > 0.01:
        errs.append(f"{name}: {value:.6f} is not within 0.01 of the paper's {PAPER_P3[t]}")
    return errs


def check_log_convexity(v2, v25, v3, label: str) -> list:
    """V(2.5) <= sqrt(V(2) V(3)) (Cauchy-Schwarz), widened by the error bars."""
    lower25 = v25.value - v25.abs_error
    upper = math.sqrt((v2.value + v2.abs_error) * (v3.value + v3.abs_error))
    if lower25 > upper:
        return [f"{label}: V(2.5) >= {lower25:.9g} exceeds sqrt(V(2) V(3)) <= {upper:.9g}"]
    return []


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------


def operator(samples: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.fft.ifft(np.fft.ifftshift(samples) * np.fft.fft(f))


def kernel_is_nonnegative(samples: np.ndarray) -> bool:
    k = np.fft.ifft(np.fft.ifftshift(samples))
    scale = float(np.max(np.abs(k)))
    return bool(np.all(k.real >= -1e-12 * scale) and np.all(np.abs(k.imag) <= 1e-12 * scale))


def check_estimator_job(job, out) -> list:
    errs = []
    name, p, samples = job["name"], job["p"], job["samples"]
    f = out.test_function
    nf = float(np.sum(np.abs(f) ** p) ** (1.0 / p))
    q = float(np.sum(np.abs(operator(samples, f)) ** p) ** (1.0 / p)) / nf if nf > 0 else 0.0
    if not abs(q - out.estimate) <= QUOTIENT_RTOL * abs(q):
        errs.append(f"{name}: recomputed quotient {q:.15g} != estimate {out.estimate:.15g}")
    if out.iterations != job["iterations"] and not out.converged:
        errs.append(f"{name}: {out.iterations} iterations of {job['iterations']} without convergence")
    if job["grid"] == "tent":
        if not kernel_is_nonnegative(samples):
            errs.append(f"{name}: the tent grid's kernel is not nonnegative")
        m0 = float(samples[len(samples) // 2].real)
        if out.estimate > m0 * (1.0 + 1e-12):
            errs.append(f"{name}: estimate {out.estimate:.9g} exceeds m(0) = {m0}")
    if job["grid"] in ("halfline", "segment") and job["n"] == 2 ** 12 and p == 4:
        if out.estimate < 0.95 * c_p(4):
            errs.append(f"{name}: estimate {out.estimate:.6f} below 0.95 c_4")
    return errs


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _close(a: float, b: float, rtol: float = 1e-15) -> bool:
    return abs(a - b) <= rtol * abs(b)


def check_cli_command(job, code: int, stdout: str, files: dict) -> list:
    """One README command: its exit code, and its document against a reference."""
    name = job["name"]
    if code != 0:
        return [f"{name}: exit code {code}"]
    kind = job["kind"]
    errs = []
    if kind == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["t", "value"] or len(rows) < 3:
            return [f"{name}: not a t,value table"]
        for t, v in rows[1:]:
            ref = float(ind_p4_closed_form(Q(t)))
            if abs(float(v) - ref) > 1e-12 * ref:
                errs.append(f"{name}: row t={t} value {v} vs closed form {ref!r}")
                break
        return errs
    doc = json.loads(stdout)
    if kind == "profile":
        if doc["tail_value"] != "4" or doc["constant_from"] != "1/2":
            errs.append(f"{name}: tail {doc['tail_value']} from {doc['constant_from']}, want 4 from 1/2")
    elif kind == "norm":
        if doc["abs_error"] > 1e-3 or abs(doc["value_pth_power"] - PAPER_P3[0.25]) > 0.01:
            errs.append(f"{name}: {doc['value_pth_power']} +- {doc['abs_error']} vs the paper's 2.6247")
    elif kind == "class-s":
        w = doc["witness"]
        if doc["member"] or w is None or not Q(w[0]) < Q(w[1]):
            errs.append(f"{name}: the two-bump function must fail class S with a witness")
    elif kind == "constants":
        want = {
            "c": 1.0 / math.sin(math.pi / 4),
            "n": 1.0 + math.sqrt(2.0),
            "cR": max(1.0 / math.cos(math.pi / 8), 1.0 / math.sin(math.pi / 8)) / 2.0,
        }
        for key, ref in want.items():
            if not _close(doc[key], ref):
                errs.append(f"{name}: {key} = {doc[key]!r}, want {ref!r}")
    elif kind == "bounds":
        if not (doc["applicable"] and doc["lower"] <= doc["upper"]):
            errs.append(f"{name}: bounds {doc['lower']}..{doc['upper']} (applicable {doc['applicable']})")
    elif kind == "estimate":
        if doc["estimate"] < 0.95 * c_p(4):
            errs.append(f"{name}: estimate {doc['estimate']} below 0.95 c_4")
    elif kind == "exact-positive":
        if doc["m_norm"] != 1 or not _close(doc["m_plus_norm"], c_p(4)):
            errs.append(f"{name}: m_norm {doc['m_norm']}, m_plus_norm {doc['m_plus_norm']}")
    elif kind == "series":
        errs.extend(_check_series_doc(name, doc, job["seq"], job["p"]))
    elif kind == "batch":
        for entry in doc["jobs"]:
            if entry["status"] != 0:
                errs.append(f"{name}: batch job {entry} has status {entry['status']}")
        for out_name in job["outputs"]:
            if not files.get(out_name):
                errs.append(f"{name}: batch output {out_name} missing or empty")
        if "batch_series.json" in files:
            errs.extend(
                _check_series_doc(name, json.loads(files["batch_series.json"]), job["seq"], 6)
            )
    return errs


def _check_series_doc(name, doc, seq, p) -> list:
    errs = []
    for t, v in doc["values"].items():
        ref = series_float(seq, p, int(t))
        if abs(float(Q(v)) - ref) > SERIES_RTOL * max(1.0, abs(ref)):
            errs.append(f"{name}: series value {v} at t={t} vs FFT {ref:.12g}")
    if not doc["constant_from_guaranteed_onset"]:
        errs.append(f"{name}: series not constant from its guaranteed onset")
    return errs

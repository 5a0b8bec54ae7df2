"""Command-line surface: profile, norm, class-s, mult, series, batch.

Output is deterministic: one canonical JSON document (fixed field order,
floats at 17 significant digits, rationals as strings) or CSV rows.  Exit
codes: 0 success, 2 parse/config error, 3 hypothesis inapplicable,
4 numeric budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .errors import (
    BudgetExceeded,
    GridOverflow,
    InapplicableHypothesis,
    InvalidOffsets,
    InvalidSpec,
    MissingInput,
    NegativeShift,
    NonRealInput,
    OddOrNonintegerP,
    POutOfRange,
    ParseError,
    SplitnormError,
    TailDivergence,
    UnverifiedPositivity,
    ZeroPolynomial,
)
from .multnorm import (
    bound_report,
    constants,
    estimate_lower,
    exact_norm_positive_kernel,
    halfline_multiplier,
    segment_multiplier,
    split_multiplier,
    tent_multiplier,
)
from .normprofile import (
    CoeffSeq,
    check_constancy,
    check_monotone,
    newt_constant,
    norm_profile,
    series_profile,
)
from .oscint import norm_numeric
from .polyalg import PiecewisePoly, Poly, indicator, tent
from .scalars import format_rat, gauss, parse_rat, rat
from .splitcore import class_s_check, class_s_sufficient

__all__ = ["main", "console_main", "parse_function_spec", "canonical_json", "ExperimentConfig"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3
EXIT_BUDGET = 4


# ---------------------------------------------------------------------------
# canonical output
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """JSON with insertion-ordered keys and 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {canonical_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    return json.dumps(obj)


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    tmp = f"{out_path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
    os.replace(tmp, out_path)


# ---------------------------------------------------------------------------
# the function mini-language
# ---------------------------------------------------------------------------

_COEF_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)?([+-]?i)?$")


def _parse_coef(text: str):
    s = text.strip().replace(" ", "")
    m = _COEF_RE.match(s)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ParseError(f"bad coefficient {text!r}")
    ratpart, ipart = m.group(1), m.group(2)
    if ipart is None:
        return parse_rat(ratpart)
    sign = -1 if ipart.startswith("-") else 1
    mag = parse_rat(ratpart) if ratpart is not None else rat(1)
    return gauss(0, sign * mag)


def _parse_atom(text: str) -> PiecewisePoly:
    s = text.strip()
    if s.startswith("ind:"):
        parts = s[4:].split(",")
        if len(parts) != 2:
            raise ParseError(f"ind needs two endpoints: {text!r}")
        a, b = (parse_rat(x) for x in parts)
        if not a < b:
            raise ParseError(f"ind needs a < b: {text!r}")
        return indicator(a, b)
    if s.startswith("tent:"):
        parts = s[5:].split(",")
        if len(parts) != 3:
            raise ParseError(f"tent needs three knots: {text!r}")
        a, b, c = (parse_rat(x) for x in parts)
        if not a < b < c:
            raise ParseError(f"tent needs a < b < c: {text!r}")
        return tent(a, b, c)
    if s.startswith("poly:"):
        m = re.match(r"^poly:\[([^,\]]+),([^,\]]+)\]:(.+)$", s)
        if not m:
            raise ParseError(f"bad poly atom {text!r}")
        a, b = parse_rat(m.group(1)), parse_rat(m.group(2))
        if not a < b:
            raise ParseError(f"poly needs a < b: {text!r}")
        coeffs = [_parse_coef(c) for c in m.group(3).split(",")]
        return PiecewisePoly([a, b], [Poly(coeffs)])
    raise ParseError(f"unknown atom {text!r} (want ind:, tent:, or poly:)")


def parse_function_spec(text: str) -> PiecewisePoly:
    """Parse the mini-language: atoms ind/tent/poly, sums with +, scalar
    multiples with k*, imaginary unit i."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty function spec")
    total = PiecewisePoly([], [])
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ParseError(f"empty term in {text!r}")
        factors = term.split("*")
        atom = _parse_atom(factors[-1])
        for coef_text in factors[:-1]:
            atom = atom * _parse_coef(coef_text)
        total = total + atom
    return total


# ---------------------------------------------------------------------------
# command implementations (each returns a JSON-able document)
# ---------------------------------------------------------------------------


def _profile_samples(profile, per_piece: int):
    rows = []
    window = profile.profile
    bps = list(window.breakpoints) or [rat(0), rat(1)]
    for a, b in zip(bps, bps[1:]):
        for k in range(per_piece):
            t = a + (b - a) * rat(k, per_piece)
            rows.append((t, profile.value_at(t)))
    rows.append((bps[-1], profile.value_at(bps[-1])))
    return rows


def run_profile(spec: str, p: int) -> dict:
    f = parse_function_spec(spec)
    prof = norm_profile(f, p)
    a = f.support_radius()
    cons = check_constancy(prof, a)
    mono = check_monotone(prof)
    newt = newt_constant(f, p)
    doc = prof.to_json_dict()
    doc["support_halfwidth"] = format_rat(a)
    doc["constancy"] = {
        "constant_from": format_rat(cons.constant_from),
        "threshold": format_rat(cons.threshold),
        "theorem_holds": cons.theorem_holds,
    }
    doc["monotone"] = {
        "nonincreasing": mono.ok,
        "witness": None
        if mono.witness is None
        else [format_rat(mono.witness[0]), format_rat(mono.witness[1])],
    }
    from .scalars import GaussRat

    is_real_newt = not isinstance(newt, GaussRat)
    doc["newt_constant"] = format_rat(newt) if is_real_newt else None
    doc["newt_matches_tail"] = bool(is_real_newt and newt == prof.tail_value)
    return doc


def profile_csv(doc_spec: str, p: int, samples: int) -> str:
    f = parse_function_spec(doc_spec)
    prof = norm_profile(f, p)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "value"])
    for t, v in _profile_samples(prof, samples):
        writer.writerow([_fmt_float(float(t)), _fmt_float(float(v))])
    return buf.getvalue()


def run_norm(spec: str, p: float, t: float, err: float, engine: str = "both") -> dict:
    from .scalars import rat_from_float

    f = parse_function_spec(spec)
    even = float(p) == int(p) and int(p) % 2 == 0 and int(p) >= 2
    if engine == "exact":
        if not even:
            raise OddOrNonintegerP(f"the exact engine needs an even integer p, got {p}")
        exact = norm_profile(f, int(p)).value_at(rat_from_float(float(t)))
        return {"p": p, "t": t, "value_pth_power": float(exact), "abs_error": 0.0}
    result = norm_numeric(f, p, t, target_abs_err=err)
    doc = result.to_json_dict()
    if engine == "both" and even:
        exact = norm_profile(f, int(p)).value_at(rat_from_float(float(t)))
        doc["exact_value"] = float(exact)
        doc["discrepancy"] = abs(result.value - float(exact))
    return doc


def run_class_s(spec: str, bump_radius=None) -> dict:
    f = parse_function_spec(spec)
    if not f.is_real():
        raise NonRealInput("class-S membership applies to real functions")
    verdict = class_s_check(f)
    doc = verdict.to_json_dict()
    if bump_radius is not None:
        radius = parse_rat(bump_radius) if isinstance(bump_radius, str) else rat(bump_radius)
        doc["bump_radius"] = format_rat(radius)
        doc["bump_sufficient"] = class_s_sufficient(f, radius)
    return doc


def run_series(coeff_doc: dict, p: int, t_min: int, t_max: int) -> dict:
    coeffs = {}
    raw = coeff_doc.get("coeffs")
    if not isinstance(raw, dict):
        raise ParseError('coefficient file needs a "coeffs" mapping')
    for k, v in raw.items():
        try:
            idx = int(k)
        except ValueError as exc:
            raise ParseError(f"bad coefficient index {k!r}") from exc
        coeffs[idx] = _parse_coef(v) if isinstance(v, str) else gauss(
            parse_rat(v[0]), parse_rat(v[1])
        )
    seq = CoeffSeq.from_mapping(coeffs, coeff_doc.get("A"))
    prof = series_profile(seq, p)
    values = {}
    for t in range(t_min, t_max + 1):
        values[str(t)] = format_rat(prof.value(t))
    thr = prof.threshold
    tail = [prof.value(t) for t in range(max(thr, t_min), t_max + 1)]
    constant = all(v == tail[0] for v in tail) if tail else True
    safe = prof.guaranteed_onset
    safe_tail = [prof.value(t) for t in range(max(safe, t_min), t_max + 1)]
    return {
        "p": p,
        "A": seq.bound,
        "threshold": thr,
        "values": values,
        "constant_from_threshold": constant,
        "guaranteed_onset": safe,
        "constant_from_guaranteed_onset": all(v == safe_tail[0] for v in safe_tail)
        if safe_tail
        else True,
    }


def series_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "value"])
    for t, v in doc["values"].items():
        writer.writerow([t, v])
    return buf.getvalue()


_MULT_BUILDERS = {
    "halfline": lambda n, omega: halfline_multiplier(n, omega),
    "segment": lambda n, omega: segment_multiplier(n, omega),
    "tent": lambda n, omega: tent_multiplier(n, omega),
    "tent-plus": lambda n, omega: _tent_plus(n, omega),
}


def _tent_plus(n, omega):
    base = tent_multiplier(n, omega)
    ys = base.grid()
    samples = base.samples.copy()
    samples[ys < 0] = 0.0
    samples[ys == 0] *= 0.5
    from .multnorm import DiscreteMultiplier

    return DiscreteMultiplier(samples, omega, ell=1.0)


def run_mult(args) -> tuple[dict, int]:
    if args.mult_cmd == "constants":
        return constants(args.p).to_json_dict(), EXIT_OK
    if args.mult_cmd == "bounds":
        inputs = {"p": int(args.p) if float(args.p).is_integer() else args.p}
        for name, key in [
            ("A", "A"),
            ("t", "t"),
            ("ell", "ell"),
            ("m_norm", "m_norm"),
            ("m_norm_real", "m_norm_real"),
            ("m_plus_norm", "m_plus_norm"),
            ("m_minus_norm", "m_minus_norm"),
        ]:
            v = getattr(args, key)
            if v is not None:
                inputs[name] = v
        for flag in ("in_R", "even_real", "real_variant", "symmetric"):
            if getattr(args, flag):
                inputs[flag] = True
        rep = bound_report(args.quantity, inputs)
        return rep.to_json_dict(), EXIT_OK if rep.applicable else EXIT_INAPPLICABLE
    if args.mult_cmd == "estimate":
        builder = _MULT_BUILDERS.get(args.multiplier)
        if builder is None:
            raise ParseError(
                f"unknown multiplier {args.multiplier!r}; choose from {sorted(_MULT_BUILDERS)}"
            )
        m = builder(args.n, args.omega)
        doc = {"multiplier": args.multiplier, "p": args.p, "N": args.n, "omega": args.omega}
        if args.shift is not None:
            if args.multiplier != "halfline":
                raise ParseError("--shift only applies to the halfline multiplier")
            m = halfline_multiplier(args.n, args.omega, shift=args.shift)
            doc["shift"] = args.shift
        if args.t is not None:
            m, snapped = split_multiplier(m, args.t)
            doc["t_requested"] = args.t
            doc["t_snapped"] = snapped
        result = estimate_lower(
            m,
            args.p,
            iterations=args.iterations,
            seed=args.seed,
            real_test_functions=args.real,
            checkpoint_path=args.checkpoint,
        )
        doc.update(result.to_json_dict())
        doc["seed"] = args.seed
        return doc, EXIT_OK
    if args.mult_cmd == "exact-positive":
        f = parse_function_spec(args.spec)
        ell = exact_norm_positive_kernel(f, positive_transform_asserted=args.assert_positive)
        doc = {"m_norm": ell, "ell": ell}
        if args.p is not None:
            cs = constants(args.p)
            doc["p"] = args.p
            doc["m_plus_norm"] = cs.c_p * ell
            doc["m_plus_norm_real"] = cs.c_p_real * ell
        return doc, EXIT_OK
    raise ParseError(f"unknown mult subcommand {args.mult_cmd!r}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="splitnorm",
        description="Exact and numerical L^p Fourier norms of split functions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_profile = sub.add_parser("profile", help="exact (N_t f)^p profile, even p")
    p_profile.add_argument("spec")
    p_profile.add_argument("--p", type=int, required=True)
    p_profile.add_argument("--emit", choices=["json", "csv"], default="json")
    p_profile.add_argument("--samples", type=int, default=8, help="CSV samples per piece")
    p_profile.add_argument("--out", default=None)

    p_norm = sub.add_parser("norm", help="numerical (N_t f)^p, any p > 1")
    p_norm.add_argument("spec")
    p_norm.add_argument("--p", type=float, required=True)
    p_norm.add_argument("--t", type=float, required=True)
    p_norm.add_argument("--err", type=float, default=1e-6)
    p_norm.add_argument("--out", default=None)

    p_cs = sub.add_parser("class-s", help="exact class-S membership")
    p_cs.add_argument("spec")
    p_cs.add_argument("--bump-radius", default=None)
    p_cs.add_argument("--out", default=None)

    p_mult = sub.add_parser("mult", help="multiplier constants/bounds/estimates")
    msub = p_mult.add_subparsers(dest="mult_cmd", required=True)

    m_const = msub.add_parser("constants")
    m_const.add_argument("--p", type=float, required=True)
    m_const.add_argument("--out", default=None)

    m_bounds = msub.add_parser("bounds")
    m_bounds.add_argument("quantity")
    m_bounds.add_argument("--p", type=float, required=True)
    m_bounds.add_argument("--A", type=float, default=None)
    m_bounds.add_argument("--t", type=float, default=None)
    m_bounds.add_argument("--ell", type=float, default=None)
    m_bounds.add_argument("--m-norm", dest="m_norm", type=float, default=None)
    m_bounds.add_argument("--m-norm-real", dest="m_norm_real", type=float, default=None)
    m_bounds.add_argument("--m-plus-norm", dest="m_plus_norm", type=float, default=None)
    m_bounds.add_argument("--m-minus-norm", dest="m_minus_norm", type=float, default=None)
    m_bounds.add_argument("--in-R", dest="in_R", action="store_true")
    m_bounds.add_argument("--even-real", dest="even_real", action="store_true")
    m_bounds.add_argument("--real-variant", dest="real_variant", action="store_true")
    m_bounds.add_argument("--symmetric", action="store_true")
    m_bounds.add_argument("--out", default=None)

    m_est = msub.add_parser("estimate")
    m_est.add_argument("multiplier", help="halfline | segment | tent | tent-plus")
    m_est.add_argument("--p", type=float, required=True)
    m_est.add_argument("--n", type=int, default=4096)
    m_est.add_argument("--omega", type=float, default=8.0)
    m_est.add_argument("--iterations", type=int, default=200)
    m_est.add_argument("--seed", type=int, default=0)
    m_est.add_argument("--real", action="store_true", help="restrict to real test functions")
    m_est.add_argument("--t", type=float, default=None, help="apply the split at shift t first")
    m_est.add_argument("--shift", type=float, default=None, help=argparse.SUPPRESS)
    m_est.add_argument("--checkpoint", default=None)
    m_est.add_argument("--out", default=None)

    m_pos = msub.add_parser("exact-positive")
    m_pos.add_argument("spec")
    m_pos.add_argument("--p", type=float, default=None)
    m_pos.add_argument("--assert-positive", action="store_true")
    m_pos.add_argument("--out", default=None)

    p_series = sub.add_parser("series", help="exact trigonometric-series profile")
    p_series.add_argument("coeff_file")
    p_series.add_argument("--p", type=int, required=True)
    p_series.add_argument("--t-min", type=int, default=0)
    p_series.add_argument("--t-max", type=int, required=True)
    p_series.add_argument("--emit", choices=["json", "csv"], default="json")
    p_series.add_argument("--out", default=None)

    p_batch = sub.add_parser("batch", help="run a JSON config of jobs")
    p_batch.add_argument("config")

    return ap


def _dispatch(args) -> tuple[str, int]:
    if args.command == "profile":
        if args.emit == "csv":
            return profile_csv(args.spec, args.p, args.samples), EXIT_OK
        return canonical_json(run_profile(args.spec, args.p)), EXIT_OK
    if args.command == "norm":
        return canonical_json(run_norm(args.spec, args.p, args.t, args.err)), EXIT_OK
    if args.command == "class-s":
        return canonical_json(run_class_s(args.spec, args.bump_radius)), EXIT_OK
    if args.command == "mult":
        doc, code = run_mult(args)
        return canonical_json(doc), code
    if args.command == "series":
        try:
            with open(args.coeff_file) as fh:
                coeff_doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read coefficient file: {exc}") from exc
        doc = run_series(coeff_doc, args.p, args.t_min, args.t_max)
        if args.emit == "csv":
            return series_csv(doc), EXIT_OK
        return canonical_json(doc), EXIT_OK
    raise ParseError(f"unknown command {args.command!r}")


@dataclass
class ExperimentConfig:
    """One declarative batch job: command plus its inputs.

    ``t`` accepts a single shift, a list, or {"start", "stop", "count"};
    ``engine`` selects exact / numeric / both for the norm command (the
    exact engine requires even p).  Round-trips through JSON.
    """

    command: str
    spec: Optional[str] = None
    multiplier: Optional[str] = None
    coeff_file: Optional[str] = None
    p: float = 4
    t: object = None
    engine: str = "both"
    emit: str = "json"
    output: Optional[str] = None
    seed: int = 0
    target_abs_err: float = 1e-6
    iterations: int = 200
    grid_n: int = 4096
    omega: float = 8.0
    bump_radius: Optional[str] = None
    t_min: int = 0
    t_max: int = 8

    _FIELDS = (
        "command", "spec", "multiplier", "coeff_file", "p", "t", "engine",
        "emit", "output", "seed", "target_abs_err", "iterations", "grid_n",
        "omega", "bump_radius", "t_min", "t_max",
    )

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - set(cls._FIELDS)
        if unknown:
            raise ParseError(f"unknown job fields: {sorted(unknown)}")
        if "command" not in doc:
            raise ParseError('a declarative job needs a "command"')
        return cls(**doc)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self._FIELDS if getattr(self, k) is not None}

    def t_values(self) -> list:
        if self.t is None:
            return [0.0]
        if isinstance(self.t, (int, float)):
            return [float(self.t)]
        if isinstance(self.t, list):
            return [float(x) for x in self.t]
        if isinstance(self.t, dict):
            start = float(self.t.get("start", 0.0))
            stop = float(self.t["stop"])
            count = int(self.t.get("count", 9))
            if count < 2:
                return [start]
            step = (stop - start) / (count - 1)
            return [start + step * k for k in range(count)]
        raise ParseError(f"bad t specification: {self.t!r}")

    def run(self) -> str:
        p_int = int(self.p) if float(self.p).is_integer() else None
        if self.command == "profile":
            if p_int is None:
                raise OddOrNonintegerP(f"profile needs an even integer p, got {self.p}")
            if self.emit == "csv":
                return profile_csv(self.spec, p_int, 8)
            return canonical_json(run_profile(self.spec, p_int))
        if self.command == "norm":
            docs = [
                run_norm(self.spec, self.p, t, self.target_abs_err, self.engine)
                for t in self.t_values()
            ]
            return canonical_json(docs[0] if len(docs) == 1 else {"results": docs})
        if self.command == "class-s":
            return canonical_json(run_class_s(self.spec, self.bump_radius))
        if self.command == "series":
            if p_int is None:
                raise OddOrNonintegerP(f"series needs an even integer p, got {self.p}")
            with open(self.coeff_file) as fh:
                coeff_doc = json.load(fh)
            doc = run_series(coeff_doc, p_int, self.t_min, self.t_max)
            return series_csv(doc) if self.emit == "csv" else canonical_json(doc)
        if self.command == "mult-constants":
            return canonical_json(constants(self.p).to_json_dict())
        if self.command == "mult-estimate":
            builder = _MULT_BUILDERS.get(self.multiplier)
            if builder is None:
                raise ParseError(f"unknown multiplier {self.multiplier!r}")
            m = builder(self.grid_n, self.omega)
            doc = {"multiplier": self.multiplier, "p": self.p, "N": self.grid_n}
            ts = self.t_values()
            if self.t is not None:
                m, snapped = split_multiplier(m, ts[0])
                doc["t_snapped"] = snapped
            result = estimate_lower(
                m, self.p, iterations=self.iterations, seed=self.seed
            )
            doc.update(result.to_json_dict())
            doc["seed"] = self.seed
            return canonical_json(doc)
        raise ParseError(f"unknown job command {self.command!r}")


def _run_batch(config_path: str) -> int:
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_PARSE
    jobs = config.get("jobs")
    if not isinstance(jobs, list):
        sys.stderr.write('config error: need a "jobs" list\n')
        return EXIT_PARSE
    workers = int(os.environ.get("SPLITNORM_THREADS", "0")) or min(8, len(jobs)) or 1

    def run_argv_job(job):
        argv = list(job["argv"])
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            return {"argv": argv, "status": EXIT_PARSE}, None
        text, code = _dispatch(args)
        return {"argv": argv, "status": code}, text

    def run_job(job):
        out = job.get("output")
        label = {"argv": job["argv"]} if "argv" in job else {"command": job.get("command")}
        try:
            if "argv" in job:
                summary, text = run_argv_job(job)
            else:
                text = ExperimentConfig.from_dict(job).run()
                summary = {**label, "status": EXIT_OK}
        except SplitnormError as exc:
            return {**label, "status": _error_code(exc), "error": str(exc)}
        if out and text is not None:
            _write_output(text, out)
            summary["output"] = out
        return summary

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run_job, jobs))
    sys.stdout.write(canonical_json({"jobs": results}) + "\n")
    return max((r["status"] for r in results), default=EXIT_OK)


def _error_code(exc: Exception) -> int:
    if isinstance(exc, BudgetExceeded):
        return EXIT_BUDGET
    if isinstance(exc, (InapplicableHypothesis, UnverifiedPositivity)):
        return EXIT_INAPPLICABLE
    return EXIT_PARSE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    if args.command == "batch":
        return _run_batch(args.config)
    try:
        text, code = _dispatch(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (InapplicableHypothesis, UnverifiedPositivity) as exc:
        sys.stderr.write(f"inapplicable: {exc}\n")
        return EXIT_INAPPLICABLE
    except (
        ParseError,
        NonRealInput,
        OddOrNonintegerP,
        InvalidOffsets,
        InvalidSpec,
        NegativeShift,
        MissingInput,
        POutOfRange,
        TailDivergence,
        ZeroPolynomial,
        GridOverflow,
        ValueError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    _write_output(text, getattr(args, "out", None))
    return code


def console_main():
    sys.exit(main())

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
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from typing import Optional, get_args, get_type_hints

from .errors import (
    BudgetExceeded,
    InapplicableHypothesis,
    NonRealInput,
    OddOrNonintegerP,
    ParseError,
    SplitnormError,
    UnverifiedPositivity,
)
from .multnorm import (
    DiscreteMultiplier,
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
from .scalars import GaussRat, format_rat, gauss, parse_rat, rat, rat_from_float
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
        return '"NaN"'
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
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    if not err > 0:
        raise ValueError(f"the error target must be positive, got {err}")
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


def _tent_plus(n, omega):
    base = tent_multiplier(n, omega)
    ys = base.grid()
    samples = base.samples.copy()
    samples[ys < 0] = 0.0
    samples[ys == 0] *= 0.5
    return DiscreteMultiplier(samples, omega, ell=1.0)


_MULT_BUILDERS = {"halfline": halfline_multiplier, "segment": segment_multiplier,
                  "tent": tent_multiplier, "tent-plus": _tent_plus}

# the inputs of `mult bounds` as (option dest, is a switch); they make both
# the parser's options and the inputs handed to bound_report
_BOUND_INPUTS = (
    ("A", False), ("t", False), ("ell", False), ("m_norm", False), ("m_norm_real", False),
    ("m_plus_norm", False), ("m_minus_norm", False),
    ("in_R", True), ("even_real", True), ("real_variant", True), ("symmetric", True),
)


# ---------------------------------------------------------------------------
# argument parsing
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

    p_norm = sub.add_parser("norm", help="numerical (N_t f)^p, any p > 1")
    p_norm.add_argument("spec")
    p_norm.add_argument("--p", type=float, required=True)
    p_norm.add_argument("--t", type=float, required=True)
    p_norm.add_argument("--err", dest="target_abs_err", metavar="ERR", type=float, default=1e-6)

    p_cs = sub.add_parser("class-s", help="exact class-S membership")
    p_cs.add_argument("spec")
    p_cs.add_argument("--bump-radius", default=None)

    p_mult = sub.add_parser("mult", help="multiplier constants/bounds/estimates")
    msub = p_mult.add_subparsers(dest="mult_cmd", required=True)

    m_const = msub.add_parser("constants")
    m_const.add_argument("--p", type=float, required=True)

    m_bounds = msub.add_parser("bounds")
    m_bounds.add_argument("quantity")
    m_bounds.add_argument("--p", type=float, required=True)
    for name, switch in _BOUND_INPUTS:
        kind = {"action": "store_true"} if switch else {"type": float, "default": None}
        m_bounds.add_argument("--" + name.replace("_", "-"), dest=name, **kind)

    m_est = msub.add_parser("estimate")
    m_est.add_argument("multiplier", help="halfline | segment | tent | tent-plus")
    m_est.add_argument("--p", type=float, required=True)
    m_est.add_argument("--n", dest="grid_n", metavar="N", type=int, default=4096)
    m_est.add_argument("--omega", type=float, default=8.0)
    m_est.add_argument("--iterations", type=int, default=200)
    m_est.add_argument("--seed", type=int, default=0)
    m_est.add_argument("--real", action="store_true", help="restrict to real test functions")
    m_est.add_argument("--t", type=float, default=None, help="apply the split at shift t first")
    m_est.add_argument("--shift", type=float, default=None, help=argparse.SUPPRESS)
    m_est.add_argument("--checkpoint", default=None)

    m_pos = msub.add_parser("exact-positive")
    m_pos.add_argument("spec")
    m_pos.add_argument("--p", type=float, default=None)
    m_pos.add_argument("--assert-positive", action="store_true")

    p_series = sub.add_parser("series", help="exact trigonometric-series profile")
    p_series.add_argument("coeff_file")
    p_series.add_argument("--p", type=int, required=True)
    p_series.add_argument("--t-min", type=int, default=0)
    p_series.add_argument("--t-max", type=int, required=True)
    p_series.add_argument("--emit", choices=["json", "csv"], default="json")

    for cmd in (p_profile, p_norm, p_cs, m_const, m_bounds, m_est, m_pos, p_series):
        cmd.add_argument("--out", dest="output", metavar="OUT", default=None)

    p_batch = sub.add_parser("batch", help="run a JSON config of jobs")
    p_batch.add_argument("config")

    return ap


# ---------------------------------------------------------------------------
# the job record (one per CLI call or batch job), batch and main
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """One job: a command and its inputs, named by the CLI option dests.

    ``mult X`` is the command ``mult-X``; ``--err``, ``--n`` and ``--out``
    are ``target_abs_err``, ``grid_n`` and ``output``.  ``t`` also accepts
    a list or {"start", "stop", "count"} (norm runs each shift), and
    ``engine`` selects exact / numeric / both for norm (the exact engine
    requires even p).  Built by argparse (``from_args``) or from a
    declarative batch job (``from_dict``); round-trips through JSON.
    """

    command: str
    spec: Optional[str] = None
    multiplier: Optional[str] = None
    quantity: Optional[str] = None
    coeff_file: Optional[str] = None
    p: Optional[float] = 4  # None only for mult-exact-positive
    t: object = None
    engine: str = "both"
    emit: str = "json"
    samples: int = 8
    output: Optional[str] = None
    seed: int = 0
    target_abs_err: float = 1e-6
    iterations: int = 200
    grid_n: int = 4096
    omega: float = 8.0
    shift: Optional[float] = None
    real: bool = False
    checkpoint: Optional[str] = None
    assert_positive: bool = False
    bump_radius: Optional[str] = None
    t_min: int = 0
    t_max: int = 8
    A: Optional[float] = None
    ell: Optional[float] = None
    m_norm: Optional[float] = None
    m_norm_real: Optional[float] = None
    m_plus_norm: Optional[float] = None
    m_minus_norm: Optional[float] = None
    in_R: bool = False
    even_real: bool = False
    real_variant: bool = False
    symmetric: bool = False

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "ExperimentConfig":
        names = {f.name for f in fields(cls)}
        doc = {k: v for k, v in vars(ns).items() if k in names}
        if ns.command == "mult":
            doc["command"] = f"mult-{ns.mult_cmd}"
        return cls(**doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ParseError(f"unknown job fields: {sorted(unknown)}")
        if "command" not in doc:
            raise ParseError('a declarative job needs a "command"')
        hints = get_type_hints(cls)
        for name, value in doc.items():
            allowed = get_args(hints[name]) or (hints[name],)  # Optional[X] is (X, NoneType)
            if object in allowed:
                continue
            if float in allowed:
                allowed += (int,)
            if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
                raise ParseError(f"job field {name!r} has the wrong type: {value!r}")
        return cls(**doc)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v for k, v in doc.items() if v is not None}

    def t_values(self) -> list:
        """The shifts ``t`` names, as finite floats."""
        t = self.t
        try:
            if t is None:
                ts = [0.0]
            elif isinstance(t, (int, float)):
                ts = [float(t)]
            elif isinstance(t, list):
                ts = [float(x) for x in t]
            elif isinstance(t, dict) and "stop" in t:
                start, stop = float(t.get("start", 0.0)), float(t["stop"])
                count = int(t.get("count", 9))
                step = (stop - start) / (count - 1) if count > 1 else 0.0
                ts = [start + step * k for k in range(max(count, 1))]
            else:
                raise ParseError(f"bad t specification: {t!r}")
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad t specification: {t!r}") from exc
        if not all(math.isfinite(x) for x in ts):
            raise ParseError(f"t must be finite, got {t!r}")
        return ts

    def _int_p(self) -> int:
        if not float(self.p).is_integer():
            raise OddOrNonintegerP(f"{self.command} needs an even integer p, got {self.p}")
        return int(self.p)

    def run(self) -> tuple[str, int]:
        """(output text, exit code); failures raise ``_JOB_ERRORS``, see ``_exit_status``."""
        cmd, code = self.command, EXIT_OK
        if self.p is None and cmd != "mult-exact-positive":
            raise ParseError(f"{cmd} needs p")
        if cmd == "profile":
            if self.emit == "csv":
                return profile_csv(self.spec, self._int_p(), self.samples), EXIT_OK
            doc = run_profile(self.spec, self._int_p())
        elif cmd == "norm":
            docs = [
                run_norm(self.spec, self.p, t, self.target_abs_err, self.engine)
                for t in self.t_values()
            ]
            doc = docs[0] if len(docs) == 1 else {"results": docs}
        elif cmd == "class-s":
            doc = run_class_s(self.spec, self.bump_radius)
        elif cmd == "series":
            p = self._int_p()
            try:
                with open(self.coeff_file) as fh:
                    coeff_doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ParseError(f"cannot read coefficient file: {exc}") from exc
            doc = run_series(coeff_doc, p, self.t_min, self.t_max)
            if self.emit == "csv":
                return series_csv(doc), EXIT_OK
        elif cmd == "mult-constants":
            doc = constants(self.p).to_json_dict()
        elif cmd == "mult-bounds":
            inputs = {"p": int(self.p) if float(self.p).is_integer() else self.p}
            for name, switch in _BOUND_INPUTS:
                v = getattr(self, name)
                if (v if switch else v is not None):  # a switch counts when it is on
                    inputs[name] = v
            rep = bound_report(self.quantity, inputs)
            doc, code = rep.to_json_dict(), EXIT_OK if rep.applicable else EXIT_INAPPLICABLE
        elif cmd == "mult-estimate":
            builder = _MULT_BUILDERS.get(self.multiplier)
            if builder is None:
                raise ParseError(
                    f"unknown multiplier {self.multiplier!r}; choose from {sorted(_MULT_BUILDERS)}"
                )
            m = builder(self.grid_n, self.omega)
            doc = {"multiplier": self.multiplier, "p": self.p, "N": self.grid_n,
                   "omega": self.omega}
            if self.shift is not None:
                if self.multiplier != "halfline":
                    raise ParseError("--shift only applies to the halfline multiplier")
                m = halfline_multiplier(self.grid_n, self.omega, shift=self.shift)
                doc["shift"] = self.shift
            if self.t is not None:
                t = self.t_values()[0]
                m, snapped = split_multiplier(m, t)
                doc["t_requested"] = t
                doc["t_snapped"] = snapped
            result = estimate_lower(
                m, self.p, iterations=self.iterations, seed=self.seed,
                real_test_functions=self.real, checkpoint_path=self.checkpoint,
            )
            doc.update(result.to_json_dict())
            doc["seed"] = self.seed
        elif cmd == "mult-exact-positive":
            f = parse_function_spec(self.spec)
            ell = exact_norm_positive_kernel(f, positive_transform_asserted=self.assert_positive)
            doc = {"m_norm": ell, "ell": ell}
            if self.p is not None:
                cs = constants(self.p)
                doc["p"] = self.p
                doc["m_plus_norm"] = cs.c_p * ell
                doc["m_plus_norm_real"] = cs.c_p_real * ell
        else:
            raise ParseError(f"unknown command {cmd!r}")
        return canonical_json(doc), code


# the errors a job reports as an exit code; any other exception is a bug
_JOB_ERRORS = (SplitnormError, ValueError)


def _exit_status(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr prefix for an error a job raised."""
    if isinstance(exc, BudgetExceeded):
        return EXIT_BUDGET, "budget exceeded"
    if isinstance(exc, (InapplicableHypothesis, UnverifiedPositivity)):
        return EXIT_INAPPLICABLE, "inapplicable"
    return EXIT_PARSE, "error"


def _run_job(job) -> dict:
    """Run one batch job, raw argv or declarative; return its summary row."""
    if not isinstance(job, dict):
        return {"command": None, "status": EXIT_PARSE, "error": "a job must be a JSON object"}
    label = {"argv": job["argv"]} if "argv" in job else {"command": job.get("command")}
    try:
        if "argv" in job:
            try:
                args = _build_parser().parse_args(list(job["argv"]))
            except SystemExit:
                return {**label, "status": EXIT_PARSE}
            cfg = ExperimentConfig.from_args(args)
        else:
            cfg = ExperimentConfig.from_dict(job)
        text, code = cfg.run()
    except _JOB_ERRORS as exc:
        return {**label, "status": _exit_status(exc)[0], "error": str(exc)}
    except Exception as exc:  # a bug: report it in this job and run the next
        import traceback

        traceback.print_exc()
        return {**label, "status": EXIT_PARSE, "error": f"internal error: {exc!r}"}
    summary = {**label, "status": code}
    if job.get("output"):
        _write_output(text, job["output"])
        summary["output"] = job["output"]
    return summary


def _run_batch(config_path: str) -> int:
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_PARSE
    jobs = config.get("jobs") if isinstance(config, dict) else None
    if not isinstance(jobs, list):
        sys.stderr.write('config error: need a "jobs" list\n')
        return EXIT_PARSE
    results = [_run_job(job) for job in jobs]
    sys.stdout.write(canonical_json({"jobs": results}) + "\n")
    return max((r["status"] for r in results), default=EXIT_OK)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    if args.command == "batch":
        return _run_batch(args.config)
    try:
        text, code = ExperimentConfig.from_args(args).run()
    except _JOB_ERRORS as exc:
        code, prefix = _exit_status(exc)
        sys.stderr.write(f"{prefix}: {exc}\n")
        return code
    _write_output(text, args.output)
    return code


def console_main():
    sys.exit(main())

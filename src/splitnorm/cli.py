"""Command-line surface: profile, norm, class-s, mult, series, batch.

Output is deterministic: one canonical JSON document (fixed field order,
floats at 17 significant digits, rationals as strings) or CSV rows.  Exit
codes: 0 success, 2 parse/config error, 3 hypothesis inapplicable,
4 numeric budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceeded, InapplicableHypothesis, SplitnormError
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
from .scalars import format_rat, gauss, parse_rat, parse_scalar, rat
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
    """Write to stdout, or atomically to ``out_path``; a failed write is a SplitnormError."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = f"{out_path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise SplitnormError(f"cannot write {out_path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# the function mini-language
# ---------------------------------------------------------------------------

_COEF_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)?([+-]?i)?$")


def _parse_coef(text: str):
    s = text.strip().replace(" ", "")
    m = _COEF_RE.match(s)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise SplitnormError(f"bad coefficient {text!r}")
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
            raise SplitnormError(f"ind needs two endpoints: {text!r}")
        a, b = (parse_rat(x) for x in parts)
        if not a < b:
            raise SplitnormError(f"ind needs a < b: {text!r}")
        return indicator(a, b)
    if s.startswith("tent:"):
        parts = s[5:].split(",")
        if len(parts) != 3:
            raise SplitnormError(f"tent needs three knots: {text!r}")
        a, b, c = (parse_rat(x) for x in parts)
        if not a < b < c:
            raise SplitnormError(f"tent needs a < b < c: {text!r}")
        return tent(a, b, c)
    if s.startswith("poly:"):
        m = re.match(r"^poly:\[([^,\]]+),([^,\]]+)\]:(.+)$", s)
        if not m:
            raise SplitnormError(f"bad poly atom {text!r}")
        a, b = parse_rat(m.group(1)), parse_rat(m.group(2))
        if not a < b:
            raise SplitnormError(f"poly needs a < b: {text!r}")
        coeffs = [_parse_coef(c) for c in m.group(3).split(",")]
        return PiecewisePoly([a, b], [Poly(coeffs)])
    raise SplitnormError(f"unknown atom {text!r} (want ind:, tent:, or poly:)")


def parse_function_spec(text: str) -> PiecewisePoly:
    """Parse the mini-language: atoms ind/tent/poly, sums with +, scalar
    multiples with k*, imaginary unit i."""
    if not isinstance(text, str) or not text.strip():
        raise SplitnormError("empty function spec")
    total = PiecewisePoly([], [])
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise SplitnormError(f"empty term in {text!r}")
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


def _witness_json(verdict) -> Optional[list]:
    """A monotone verdict's witness pair as two rational strings, or None."""
    w = verdict.witness
    return None if w is None else [format_rat(w[0]), format_rat(w[1])]


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
    doc["monotone"] = {"nonincreasing": mono.ok, "witness": _witness_json(mono)}
    is_real_newt = not isinstance(newt, tuple)
    doc["newt_constant"] = format_rat(newt) if is_real_newt else None
    doc["newt_matches_tail"] = bool(is_real_newt and newt == prof.tail_value)
    return doc


# the most rows ``profile --emit csv`` writes: pieces times --samples.  The
# largest tier-1, demo and benchmark CSV writes a few hundred rows; 10^6 rows
# of the indicator at p = 4 took 34 s on one core of a Xeon under Python 3.11
_CSV_ROW_CAP = 10 ** 6


def profile_csv(doc_spec: str, p: int, samples: int) -> str:
    if samples < 1:
        raise SplitnormError(f"--samples must be at least 1, got {samples}")
    f = parse_function_spec(doc_spec)
    prof = norm_profile(f, p)
    pieces = max(len(prof.profile.pieces), 1)
    if pieces * samples > _CSV_ROW_CAP:
        raise BudgetExceeded(
            f"{pieces} pieces times {samples} samples is {pieces * samples} CSV rows, "
            f"over the cap of 10^{math.log10(_CSV_ROW_CAP):.0f}"
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "value"])
    for t, v in _profile_samples(prof, samples):
        writer.writerow([_fmt_float(float(t)), _fmt_float(float(v))])
    return buf.getvalue()


def run_norm(spec: str, p: float, ts: list, err: float, engine: str = "both") -> list:
    """One document per shift of ``ts``.  The spec is parsed once, and the
    exact profile is built once, at the first shift that reads it."""
    if not ts:
        return []
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    if not err > 0:
        raise ValueError(f"the error target must be positive, got {err}")
    f = parse_function_spec(spec)
    even = float(p) == int(p) and int(p) % 2 == 0 and int(p) >= 2
    if engine == "exact" and not even:
        raise SplitnormError(f"the exact engine needs an even integer p, got {p}")
    exact_profile = functools.cache(lambda: norm_profile(f, int(p)))
    docs = []
    for t in ts:
        if engine == "exact":
            exact = exact_profile().value_at(rat(float(t)))
            docs.append({"p": p, "t": t, "value_pth_power": float(exact), "abs_error": 0.0})
            continue
        result = norm_numeric(f, p, t, target_abs_err=err)
        doc = result.to_json_dict()
        if engine == "both" and even:
            exact = exact_profile().value_at(rat(float(t)))
            doc["exact_value"] = float(exact)
            doc["discrepancy"] = abs(result.value - float(exact))
        docs.append(doc)
    return docs


def run_class_s(spec: str, bump_radius=None) -> dict:
    f = parse_function_spec(spec)
    verdict = class_s_check(f)
    doc = {"member": verdict.ok, "witness": _witness_json(verdict)}
    if bump_radius is not None:
        radius = parse_rat(bump_radius)
        doc["bump_radius"] = format_rat(radius)
        doc["bump_sufficient"] = class_s_sufficient(f, radius)
    return doc


def run_series(coeff_doc: dict, p: int, t_min: int, t_max: int) -> dict:
    raw = coeff_doc.get("coeffs") if isinstance(coeff_doc, dict) else None
    if not isinstance(raw, dict):
        raise SplitnormError('coefficient file needs a "coeffs" mapping')
    bound = coeff_doc.get("A")
    if bound is not None and (type(bound) is not int or bound < 0):
        raise SplitnormError(f'"A" must be a nonnegative integer, got {bound!r}')
    coeffs = {}
    for k, v in raw.items():
        try:
            idx = int(k)
        except ValueError as exc:
            raise SplitnormError(f"bad coefficient index {k!r}") from exc
        coeffs[idx] = _parse_coef(v) if isinstance(v, str) else parse_scalar(v)
    seq = CoeffSeq.from_mapping(coeffs, bound)
    prof = series_profile(seq, p)
    values = prof.values(t_min, t_max)

    def constant_from(start: int) -> bool:
        return len({v for t, v in values.items() if t >= start}) <= 1

    return {
        "p": p,
        "A": seq.bound,
        "threshold": prof.threshold,
        "values": {str(t): format_rat(v) for t, v in values.items()},
        "constant_from_threshold": constant_from(prof.threshold),
        "guaranteed_onset": prof.guaranteed_onset,
        "constant_from_guaranteed_onset": constant_from(prof.guaranteed_onset),
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


# ---------------------------------------------------------------------------
# the inputs of every command: the parser, job checks and run() read them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Input:
    """One input of a command, as the command line and a declarative job take it.

    ``spelling`` is a positional's name or an ``--option``, and ``None``
    for a field that only a declarative job gives.  The job field (and
    argparse dest) is ``dest`` if given, else the spelling without dashes
    and with ``-`` as ``_``.  ``type`` is int, float, str, or bool for a
    switch; positionals are strings, declared ``required``.  ``json_types``
    are further JSON types a declarative job may give (the list and range
    forms of ``t``).
    """

    spelling: Optional[str]
    type: type = str
    default: object = None
    required: bool = False
    choices: Optional[tuple] = None
    help: Optional[str] = None
    dest: Optional[str] = None
    json_types: tuple = ()

    @property
    def name(self) -> str:
        return self.dest or self.spelling.lstrip("-").replace("-", "_")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.spelling is None:
            return
        if not self.spelling.startswith("-"):
            parser.add_argument(self.spelling, help=self.help)
        elif self.type is bool:
            parser.add_argument(self.spelling, dest=self.name, action="store_true",
                                default=self.default, help=self.help)
        else:
            # a renamed dest keeps the option's metavar: --err ERR, not TARGET_ABS_ERR
            parser.add_argument(
                self.spelling, dest=self.name,
                metavar=self.spelling[2:].upper() if self.dest else None,
                type=self.type, default=self.default, required=self.required,
                choices=self.choices, help=self.help,
            )

    def read(self, job: dict):
        """This input's value in a declarative job, checked; the default if left out."""
        value = job.get(self.name)
        if value is None and self.default is None:  # left out, or JSON null
            return None
        if self.name not in job:
            return self.default
        types = ((int, float) if self.type is float else (self.type,)) + self.json_types
        if not isinstance(value, types) or isinstance(value, bool) != (self.type is bool):
            raise SplitnormError(f"job field {self.name!r} has the wrong type: {value!r}")
        if self.choices and value not in self.choices:
            raise SplitnormError(
                f"job field {self.name!r} must be one of {list(self.choices)}, got {value!r}"
            )
        return value


_SPEC = _Input("spec", required=True)
_P_INT = _Input("--p", int, required=True)
_P_REAL = _Input("--p", float, required=True)
_EMIT = _Input("--emit", default="json", choices=("json", "csv"))
_T_FORMS = (list, dict)  # a list of shifts, or {"start", "stop", "count"}
# the largest count the range form takes; tier-1, demo and benchmark jobs take at most 9
_SHIFT_CAP = 10 ** 4
_OUT = _Input("--out", dest="output")  # every command takes it, after its own inputs

# command -> (help, inputs in --help order); ``mult X`` is the command ``mult-X``,
# and its help is None: `splitnorm mult --help` lists the four names alone
_COMMANDS = {
    "profile": ("exact (N_t f)^p profile, even p", (
        _SPEC, _P_INT, _EMIT, _Input("--samples", int, 8, help="CSV samples per piece"),
    )),
    "norm": ("numerical (N_t f)^p, any p > 1", (
        _SPEC,
        _P_REAL,
        _Input("--t", float, required=True, json_types=_T_FORMS),
        _Input("--err", float, 1e-6, dest="target_abs_err"),
        _Input(None, default="both", choices=("exact", "numeric", "both"), dest="engine"),
    )),
    "class-s": ("exact class-S membership", (_SPEC, _Input("--bump-radius"))),
    "mult-constants": (None, (_P_REAL,)),
    "mult-bounds": (None, (
        _Input("quantity", required=True),
        _P_REAL,
        *(_Input(f"--{name}", float)
          for name in ("A", "t", "ell", "m-norm", "m-norm-real", "m-plus-norm", "m-minus-norm")),
        *(_Input(f"--{name}", bool, False)
          for name in ("in-R", "even-real", "real-variant", "symmetric")),
    )),
    "mult-estimate": (None, (
        _Input("multiplier", required=True, help="halfline | segment | tent | tent-plus"),
        _P_REAL,
        _Input("--n", int, 4096, dest="grid_n"),
        _Input("--omega", float, 8.0),
        _Input("--iterations", int, 200),
        _Input("--seed", int, 0),
        _Input("--real", bool, False, help="restrict to real test functions"),
        _Input("--t", float, help="apply the split at shift t first", json_types=_T_FORMS),
        _Input("--checkpoint"),
    )),
    "mult-exact-positive": (None, (
        _SPEC, _Input("--p", float), _Input("--assert-positive", bool, False),
    )),
    "series": ("exact trigonometric-series profile", (
        _Input("coeff_file", required=True), _P_INT, _Input("--t-min", int, 0),
        _Input("--t-max", int, required=True), _EMIT,
    )),
}


def _inputs_of(command) -> tuple:
    if not isinstance(command, str) or command not in _COMMANDS:
        raise SplitnormError(f"unknown command {command!r}")
    return _COMMANDS[command][1] + (_OUT,)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="splitnorm",
        description="Exact and numerical L^p Fourier norms of split functions",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    mult = None
    for command, (help_text, _) in _COMMANDS.items():
        if command.startswith("mult-"):
            if mult is None:
                p_mult = sub.add_parser("mult", help="multiplier constants/bounds/estimates")
                mult = p_mult.add_subparsers(dest="mult_cmd", required=True)
            parser = mult.add_parser(command[len("mult-"):])
        else:
            parser = sub.add_parser(command, help=help_text)
        for inp in _inputs_of(command):
            inp.add_to(parser)
    sub.add_parser("batch", help="run a JSON config of jobs").add_argument("config")
    return ap


# ---------------------------------------------------------------------------
# the job record (one per CLI call or batch job), batch and main
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """One job: a command and its inputs, named by the CLI option dests.

    ``mult X`` is the command ``mult-X``; ``args`` holds every input of the
    command in ``_COMMANDS``, defaults filled in.  Built by argparse
    (``from_args``) or from a declarative batch job (``from_dict``), whose
    fields are exactly the command's inputs.
    """

    command: str
    args: argparse.Namespace

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "ExperimentConfig":
        command = f"mult-{ns.mult_cmd}" if ns.command == "mult" else ns.command
        args = {i.name: getattr(ns, i.name, i.default) for i in _inputs_of(command)}
        return cls(command, argparse.Namespace(**args))

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        command = doc.get("command")
        inputs = _inputs_of(command)
        unknown = set(doc) - {i.name for i in inputs} - {"command"}
        if unknown:
            raise SplitnormError(f"unknown job fields for {command}: {sorted(unknown)}")
        return cls(command, argparse.Namespace(**{i.name: i.read(doc) for i in inputs}))

    def t_values(self) -> list:
        """The shifts ``t`` names, as finite floats; a range form's ``count``
        is checked against ``_SHIFT_CAP`` before its list is built."""
        t = self.args.t
        try:
            if isinstance(t, list):
                ts = [float(x) for x in t]
            elif isinstance(t, dict):
                start, stop = float(t.get("start", 0.0)), float(t["stop"])
                count = int(t.get("count", 9))
                if count > _SHIFT_CAP:
                    raise BudgetExceeded(
                        f"a range of t with count = {count} passes the cap of "
                        f"10^{math.log10(_SHIFT_CAP):.0f} shifts"
                    )
                step = (stop - start) / (count - 1) if count > 1 else 0.0
                ts = [start + step * k for k in range(max(count, 1))]
            else:  # a number: the table admits no other type
                ts = [float(t)]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SplitnormError(f"bad t specification: {t!r}") from exc
        if not all(math.isfinite(x) for x in ts):
            raise SplitnormError(f"t must be finite, got {t!r}")
        return ts

    def run(self) -> tuple[str, int]:
        """(output text, exit code); failures raise ``_JOB_ERRORS``, see ``_exit_status``."""
        cmd, a, code = self.command, self.args, EXIT_OK
        missing = [i.name for i in _inputs_of(cmd) if i.required and getattr(a, i.name) is None]
        if missing:
            raise SplitnormError(f"{cmd} needs {', '.join(missing)}")
        if cmd == "profile":
            if a.emit == "csv":
                return profile_csv(a.spec, a.p, a.samples), EXIT_OK
            doc = run_profile(a.spec, a.p)
        elif cmd == "norm":
            docs = run_norm(a.spec, a.p, self.t_values(), a.target_abs_err, a.engine)
            doc = docs[0] if len(docs) == 1 else {"results": docs}
        elif cmd == "class-s":
            doc = run_class_s(a.spec, a.bump_radius)
        elif cmd == "series":
            try:
                with open(a.coeff_file) as fh:
                    coeff_doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise SplitnormError(f"cannot read coefficient file: {exc}") from exc
            doc = run_series(coeff_doc, a.p, a.t_min, a.t_max)
            if a.emit == "csv":
                return series_csv(doc), EXIT_OK
        elif cmd == "mult-constants":
            doc = constants(a.p).to_json_dict()
        elif cmd == "mult-bounds":
            inputs = {"p": int(a.p) if float(a.p).is_integer() else a.p}
            for name, v in vars(a).items():
                # the optional inputs given: a value, or a switch that is on
                if name not in ("quantity", "p", "output") and v is not None and v is not False:
                    inputs[name] = v
            rep = bound_report(a.quantity, inputs)
            doc, code = rep.to_json_dict(), EXIT_OK if rep.applicable else EXIT_INAPPLICABLE
        elif cmd == "mult-estimate":
            builder = _MULT_BUILDERS.get(a.multiplier)
            if builder is None:
                raise SplitnormError(
                    f"unknown multiplier {a.multiplier!r}; choose from {sorted(_MULT_BUILDERS)}"
                )
            m = builder(a.grid_n, a.omega)
            doc = {"multiplier": a.multiplier, "p": a.p, "N": a.grid_n, "omega": a.omega}
            if a.t is not None:
                t = self.t_values()[0]
                m, snapped = split_multiplier(m, t)
                doc["t_requested"] = t
                doc["t_snapped"] = snapped
            result = estimate_lower(
                m, a.p, iterations=a.iterations, seed=a.seed,
                real_test_functions=a.real, checkpoint_path=a.checkpoint,
            )
            doc.update(result.to_json_dict())
            doc["seed"] = a.seed
        else:  # mult-exact-positive
            f = parse_function_spec(a.spec)
            ell = exact_norm_positive_kernel(f, positive_transform_asserted=a.assert_positive)
            doc = {"m_norm": ell, "ell": ell}
            if a.p is not None:
                cs = constants(a.p)
                doc["p"] = a.p
                doc["m_plus_norm"] = cs.c_p * ell
                doc["m_plus_norm_real"] = cs.c_p_real * ell
        return canonical_json(doc), code


# the errors a job reports as an exit code; any other exception is a bug
_JOB_ERRORS = (SplitnormError, ValueError)


def _exit_status(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr prefix for an error a job raised."""
    if isinstance(exc, BudgetExceeded):
        return EXIT_BUDGET, "budget exceeded"
    if isinstance(exc, InapplicableHypothesis):
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
            if cfg.args.output:
                raise SplitnormError('an argv job names its output file in the job\'s "output" '
                                 "field, not with --out")
            output = _OUT.read(job)
        else:
            cfg = ExperimentConfig.from_dict(job)
            output = cfg.args.output
        text, code = cfg.run()
        if output:
            _write_output(text, output)
    except _JOB_ERRORS as exc:
        return {**label, "status": _exit_status(exc)[0], "error": str(exc)}
    except Exception as exc:  # a bug: report it in this job and run the next
        import traceback

        traceback.print_exc()
        return {**label, "status": EXIT_PARSE, "error": f"internal error: {exc!r}"}
    summary = {**label, "status": code}
    if output:
        summary["output"] = output
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
        _write_output(text, args.output)
    except _JOB_ERRORS as exc:
        code, prefix = _exit_status(exc)
        sys.stderr.write(f"{prefix}: {exc}\n")
    return code


def console_main():
    sys.exit(main())

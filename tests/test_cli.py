"""The command-line surface: parsing, determinism, exit codes, batch."""

import argparse
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from splitnorm.cli import (
    EXIT_BUDGET,
    EXIT_INAPPLICABLE,
    EXIT_OK,
    EXIT_PARSE,
    canonical_json,
    main,
    parse_function_spec,
)
from splitnorm.errors import InvariantViolation, SplitnormError
from splitnorm.polyalg import PiecewisePoly, Poly, indicator, tent
from splitnorm.scalars import gauss, rat

from .helpers import exactly, from_json_dict, to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# the function mini-language
# ---------------------------------------------------------------------------


def test_parse_indicator_and_sum():
    assert parse_function_spec("ind:-1,1") == indicator(-1, 1)
    got = parse_function_spec("ind:-1,1 + ind:10,11 + ind:-11,-10")
    assert got == indicator(-1, 1) + indicator(10, 11) + indicator(-11, -10)


def test_parse_scalar_multiples_and_rationals():
    assert parse_function_spec("3/4*ind:0,1") == indicator(0, 1) * rat(3, 4)
    assert parse_function_spec("-2*ind:0,1") == indicator(0, 1) * rat(-2)
    assert parse_function_spec("1/2*tent:-1,0,1") == tent(-1, 0, 1) * rat(1, 2)


def test_parse_imaginary_unit():
    got = parse_function_spec("ind:0,1 + i*ind:-1,0")
    assert got == indicator(0, 1) + indicator(-1, 0) * gauss(0, 1)
    assert parse_function_spec("-i*ind:0,1") == indicator(0, 1) * gauss(0, -1)
    assert parse_function_spec("3/2i*ind:0,1") == indicator(0, 1) * gauss(0, rat(3, 2))


def test_parse_poly_atom():
    got = parse_function_spec("poly:[-1/2,2]:1,-2/3,i")
    want = PiecewisePoly([rat(-1, 2), 2], [Poly([1, rat(-2, 3), gauss(0, 1)])])
    assert got == want


def test_parse_rejects_garbage():
    for bad, message in [
        ("", "empty function spec"),
        ("ind:1,0", "ind needs a < b: 'ind:1,0'"),
        ("blob:1,2", "unknown atom 'blob:1,2' (want ind:, tent:, or poly:)"),
        ("ind:0.5,1", "not a rational: '0.5'"),
        ("poly:[1,0]:1", "poly needs a < b: 'poly:[1,0]:1'"),
        ("2**ind:0,1", "bad coefficient ''"),
        ("ind:1", "ind needs two endpoints: 'ind:1'"),
        ("tent:0,1", "tent needs three knots: 'tent:0,1'"),
        ("tent:0,2,1", "tent needs a < b < c: 'tent:0,2,1'"),
        ("poly:1,2", "bad poly atom 'poly:1,2'"),
        ("ind:0,1 + ", "empty term in 'ind:0,1 + '"),
    ]:
        with pytest.raises(SplitnormError, match=exactly(message)):
            parse_function_spec(bad)


@pytest.mark.parametrize("bad", ["1_0", "1/-2", "1/+2", "\u0661\u0662", "3 / 4", "1/0"])
def test_a_rational_is_ascii_digits_over_ascii_digits(capsys, tmp_path, bad):
    # int() took the first four, so "ind:1_0,2_0" was the indicator of [10, 20)
    want = f"error: not a rational: {bad!r}\n"
    if "+" not in bad:  # in a spec, + starts a new term
        code = main(["class-s", f"ind:{bad},100"])
        assert (code, capsys.readouterr().err) == (EXIT_PARSE, want)
    code = main(["class-s", "ind:-1,1", "--bump-radius", bad])
    assert (code, capsys.readouterr().err) == (EXIT_PARSE, want)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"coeffs": {"0": ["1", bad]}}))
    code = main(["series", os.fspath(path), "--p", "4", "--t-max", "1"])
    assert (code, capsys.readouterr().err) == (EXIT_PARSE, want)


def test_coefficient_with_a_second_sign_is_a_parse_error(capsys, tmp_path):
    # "2-i" was read as -2i: the spec exited 0 with exact_value 10.67 (2 - i
    # gives 16.67) and the series file printed 16 at t = 0 (2 - i gives 25)
    code = main(["norm", "2-i*ind:0,1", "--p", "4", "--t", "0.5"])
    assert (code, capsys.readouterr().err) == (EXIT_PARSE, "error: bad coefficient '2-i'\n")
    (tmp_path / "c.json").write_text(json.dumps({"coeffs": {"0": "2-i"}}))
    code = main(["series", os.fspath(tmp_path / "c.json"), "--p", "4", "--t-max", "1"])
    assert (code, capsys.readouterr().err) == (EXIT_PARSE, "error: bad coefficient '2-i'\n")
    from splitnorm.cli import _run_job

    for job in [
        {"command": "norm", "spec": "2-i*ind:0,1", "p": 4, "t": 0.5},
        {"command": "profile", "spec": "poly:[0,1]:1,2-i", "p": 4},
        {"command": "series", "coeff_file": os.fspath(tmp_path / "c.json"), "p": 4, "t_max": 1},
    ]:
        row = _run_job(job)
        assert row == {"command": job["command"], "status": EXIT_PARSE, "error": "bad coefficient '2-i'"}


def test_series_file_coefficients_take_the_spec_grammar(capsys, tmp_path):
    path = tmp_path / "c.json"
    for coeff, want in [("3/4 i", "81/256"), ("-i", "1"), (["2", "-1"], "25"), ("+2", "16")]:
        path.write_text(json.dumps({"coeffs": {"0": coeff}}))
        code, out = run_cli(capsys, "series", os.fspath(path), "--p", "4", "--t-max", "0")
        assert (code, json.loads(out)["values"]["0"]) == (EXIT_OK, want), coeff


def test_spec_to_json_roundtrip_identity():
    f = parse_function_spec("1/2*tent:-2,0,2 + i*ind:-1,1 + poly:[0,1]:0,1")
    doc = json.loads(json.dumps(f.to_json_dict()))
    assert from_json_dict(doc) == f


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_profile_command_json(capsys):
    code, out = run_cli(capsys, "profile", "ind:-1,1", "--p", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["t0"] == "1/2"
    assert doc["tail_value"] == "4"
    assert doc["constant_from"] == "1/2"
    assert doc["constancy"]["theorem_holds"] is True
    assert doc["monotone"]["nonincreasing"] is True
    assert doc["newt_constant"] == "4"


def test_profile_command_two_bump(capsys):
    code, out = run_cli(capsys, "profile", "ind:-1,1 + ind:10,11 + ind:-11,-10", "--p", "4")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["monotone"]["nonincreasing"] is False
    assert doc["monotone"]["witness"] is not None


def test_profile_command_p2_constant(capsys):
    code, out = run_cli(capsys, "profile", "ind:-1,1", "--p", "2")
    doc = json.loads(out)
    assert doc["constant_from"] == "0"
    assert doc["tail_value"] == "2"


def test_profile_csv(capsys):
    code, out = run_cli(capsys, "profile", "ind:-1,1", "--p", "4", "--emit", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "value"]
    assert len(rows) > 8
    ts = [float(r[0]) for r in rows[1:]]
    assert ts == sorted(ts)
    assert any(abs(t - 0.5) < 1e-12 for t in ts)  # breakpoints always sampled


def test_norm_command_with_exact_cross_check(capsys):
    code, out = run_cli(capsys, "norm", "ind:-1,1", "--p", "4", "--t", "0.25", "--err", "1e-6")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert abs(doc["value_pth_power"] - doc["exact_value"]) <= doc["abs_error"]
    assert doc["discrepancy"] <= doc["abs_error"]


def test_norm_command_budget_exit(capsys):
    code, _ = run_cli(capsys, "norm", "ind:-1,1", "--p", "1.01", "--t", "0.5", "--err", "1e-9")
    assert code == EXIT_BUDGET


def test_class_s_command(capsys):
    code, out = run_cli(capsys, "class-s", "ind:-1,1", "--bump-radius", "0")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["member"] is True and doc["bump_sufficient"] is True
    code, out = run_cli(capsys, "class-s", "ind:-1,1 + ind:10,11 + ind:-11,-10")
    doc = json.loads(out)
    assert doc["member"] is False and doc["witness"] is not None


def test_class_s_spec_with_a_leading_dash_after_double_dash(capsys):
    # argparse reads "-1*ind:-1,1" as an option; after "--" it is the spec,
    # and it means what the spec with a leading space means
    code, out = run_cli(capsys, "class-s", "--", "-1*ind:-1,1")
    assert code == EXIT_OK
    assert run_cli(capsys, "class-s", " -1*ind:-1,1") == (EXIT_OK, out)


def test_mult_constants_command(capsys):
    code, out = run_cli(capsys, "mult", "constants", "--p", "4")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["n"] == pytest.approx(1 + 2 ** 0.5)
    assert doc["c"] == pytest.approx(2 ** 0.5)


def test_mult_bounds_square_command(capsys):
    code, out = run_cli(capsys, "mult", "bounds", "square", "--p", "4", "--A", "1", "--t", "0.5")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["applicable"] is True
    assert doc["lower"] == pytest.approx((1 + 2 ** 0.5) * 2 ** 0.5)


def test_mult_bounds_names_only_the_missing_inputs(capsys):
    # --A was given, and the message once read "missing inputs: A, t"
    for given, missing in [(["--A", "1"], "t"), (["--t", "1"], "A"), ([], "A, t")]:
        code = main(["mult", "bounds", "square", "--p", "4", *given])
        assert (code, capsys.readouterr().err) == (EXIT_PARSE, f"error: missing inputs: {missing}\n")


@pytest.mark.parametrize("argv, names", [
    (["square", "--p", "4", "--A", "1", "--t", "nan"], "t"),
    (["square", "--p", "4", "--A", "nan", "--t", "0"], "A"),
    (["m_plus_two_way", "--p", "4", "--ell", "nan", "--m-norm", "1"], "ell"),
    (["m_plus_upper", "--p", "4", "--m-norm", "nan"], "m_norm"),
    (["square", "--p", "nan", "--A", "1", "--t", "1"], "p"),  # was exit 3
])
def test_mult_bounds_refuses_a_nan_input(capsys, argv, names):
    # the first two printed "applicable": true, the next two a "NaN" bound
    argv = ["mult", "bounds", *argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_PARSE, "", f"error: NaN inputs: {names}\n")
    from splitnorm.cli import _run_job

    assert _run_job({"argv": argv}) == {"argv": argv, "status": EXIT_PARSE, "error": f"NaN inputs: {names}"}


def test_mult_bounds_inapplicable_exit(capsys):
    code, out = run_cli(capsys, "mult", "bounds", "split_lower", "--p", "4", "--ell", "0")
    assert code == EXIT_INAPPLICABLE
    assert json.loads(out)["applicable"] is False


def test_mult_estimate_command(capsys, tmp_path):
    ck = os.fspath(tmp_path / "est.npz")
    code, out = run_cli(
        capsys,
        "mult", "estimate", "halfline", "--p", "4", "--n", "512",
        "--iterations", "50", "--seed", "7", "--checkpoint", ck,
    )
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["estimate"] > 1.2
    assert os.path.exists(ck)


def test_mult_estimate_checkpoint_is_written_to_exactly_its_path(capsys, tmp_path):
    # np.savez wrote "ck.npz" for "--checkpoint ck"
    import numpy as np

    from splitnorm.multnorm import estimate_lower, halfline_multiplier

    ck = os.fspath(tmp_path / "ck")
    code, _ = run_cli(capsys, "mult", "estimate", "halfline", "--p", "4", "--n", "256",
                      "--iterations", "5", "--seed", "3", "--checkpoint", ck)
    assert code == EXIT_OK and os.listdir(tmp_path) == ["ck"]
    want = estimate_lower(halfline_multiplier(256, 8.0), 4.0, iterations=5, seed=3)
    with np.load(ck) as saved:
        assert np.array_equal(saved["samples"], want.test_function)
        fields = {k: saved[k].item() for k in ("estimate", "p", "seed", "n", "omega")}
    assert fields == {"estimate": want.estimate, "p": 4.0, "seed": 3, "n": 256, "omega": 8.0}


def test_unwritable_checkpoint_is_one_error_line(tmp_path):
    # np.savez ended in a FileNotFoundError traceback with exit 1
    missing = os.fspath(tmp_path / "missing" / "x.npz")
    argv = ["mult", "estimate", "halfline", "--p", "4", "--n", "256", "--iterations", "5"]
    proc = _run_subprocess([*argv, "--checkpoint", missing], tmp_path)
    assert (proc.returncode, proc.stdout) == (EXIT_PARSE, "")
    assert proc.stderr == f"error: cannot write {missing}: No such file or directory\n"
    from splitnorm.cli import _run_job

    job = {"command": "mult-estimate", "multiplier": "halfline", "p": 4, "grid_n": 256,
           "iterations": 5, "checkpoint": missing}
    row = _run_job(job)
    assert row == {"command": "mult-estimate", "status": EXIT_PARSE,
                   "error": f"cannot write {missing}: No such file or directory"}
    assert os.listdir(tmp_path) == []


def test_mult_estimate_split_and_shift_options(capsys):
    code, out = run_cli(
        capsys,
        "mult", "estimate", "tent", "--p", "4", "--n", "512",
        "--iterations", "40", "--t", "1.3",
    )
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["t_requested"] == 1.3
    assert abs(doc["t_snapped"] - 1.3) <= 16 / 512  # snapped to the grid step
    # a shifted half line is a library call (halfline_multiplier's shift), not an option
    code, _ = run_cli(capsys, "mult", "estimate", "halfline", "--p", "2", "--shift", "-1.0")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("option, want", [
    (("--p", "nan"), "estimation needs 1 < p < oo, got nan"),
    (("--p", "inf"), "estimation needs 1 < p < oo, got inf"),
    (("--p", "4", "--iterations", "0"), "estimation needs at least one iteration, got 0"),
    (("--p", "4", "--iterations", "-5"), "estimation needs at least one iteration, got -5"),
])
def test_mult_estimate_refuses_a_meaningless_p_or_budget(capsys, tmp_path, option, want):
    code = main(["mult", "estimate", "halfline", "--n", "256", *option])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_PARSE, "")
    assert want in captured.err
    # a batch job reports the same status and message
    job = {"command": "mult-estimate", "multiplier": "halfline", "grid_n": 256, "p": 4}
    name, value = option[-2:]
    job.update({"p": float(value)} if name == "--p" else {"iterations": int(value)})
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"jobs": [job]}))
    code = main(["batch", os.fspath(cfg)])
    summary = json.loads(capsys.readouterr().out)
    assert code == EXIT_PARSE
    assert summary["jobs"][0]["status"] == EXIT_PARSE and summary["jobs"][0]["error"] == want


@pytest.mark.parametrize("option, omega", [
    (("tent", "--omega", "0", "--t", "1"), "0.0"),
    (("halfline", "--omega", "nan"), "nan"),
    (("tent", "--omega", "0"), "0.0"),
    (("tent", "--omega", "-8"), "-8.0"),
    (("tent", "--omega", "nan"), "nan"),
    (("tent", "--omega", "1e308"), "1e+308"),
], ids=["zero-split", "nan-halfline", "zero", "negative", "nan-tent", "overflowing"])
def test_mult_estimate_refuses_a_grid_width_that_is_not_positive_and_finite(capsys, option, omega):
    # these ended in a ZeroDivisionError traceback, numpy RuntimeWarnings, a
    # misleading message, or an estimate of a zero-width or reversed grid
    code = main(["mult", "estimate", *option, "--p", "4", "--n", "256", "--iterations", "5"])
    captured = capsys.readouterr()
    want = f"error: omega must be positive with 2 * omega finite, got {omega}\n"
    assert (code, captured.out, captured.err) == (EXIT_PARSE, "", want)


@pytest.mark.parametrize("option, want", [
    (("--omega", "5e-324", "--t", "1"), "omega must give a positive grid step 2 * omega / N, got 5e-324 with N = 256"),
    (("--omega", "5e-324"), "omega must give a positive grid step 2 * omega / N, got 5e-324 with N = 256"),
    (("--omega", "1e-300", "--t", "1e300"),
     "the shift must be a finite number t / step of grid bins, got t = 1e+300 with step 7.8125e-303"),
], ids=["vanishing-step-split", "vanishing-step", "overflowing-bins"])
def test_mult_estimate_refuses_a_vanishing_grid_step_or_an_overflowing_shift(capsys, option, want):
    # these ended in a ZeroDivisionError traceback, an "estimate" of 1 from a
    # grid of N copies of -omega, and an OverflowError traceback
    code = main(["mult", "estimate", "tent", *option, "--p", "4", "--n", "256", "--iterations", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_PARSE, "", f"error: {want}\n")


def test_mult_exact_positive_command(capsys):
    code, out = run_cli(capsys, "mult", "exact-positive", "tent:-1,0,1", "--p", "4")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["m_norm"] == 1
    assert doc["m_plus_norm"] == pytest.approx(2 ** 0.5)
    code, _ = run_cli(capsys, "mult", "exact-positive", "ind:-1,1")
    assert code == EXIT_INAPPLICABLE


def test_series_command(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"A": 1, "coeffs": {"0": "1"}}))
    code, out = run_cli(capsys, "series", os.fspath(path), "--p", "4", "--t-max", "4")
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["values"]["0"] == "1"
    assert doc["values"]["1"] == doc["values"]["4"] == "3/8"
    assert doc["constant_from_threshold"] is True
    code, out = run_cli(
        capsys, "series", os.fspath(path), "--p", "4", "--t-max", "3", "--emit", "csv"
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["0", "1"] and rows[2] == ["1", "3/8"]


def test_parse_error_exit_code(capsys):
    code, _ = run_cli(capsys, "profile", "blob:1", "--p", "4")
    assert code == EXIT_PARSE
    code, _ = run_cli(capsys, "profile", "ind:-1,1", "--p", "3")
    assert code == EXIT_PARSE


def test_grid_overflow_exit_code_without_traceback():
    # a split that shifts the multiplier's support off the 64-point grid is a
    # parameter error: one "error:" line on stderr and exit code 2
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "splitnorm", "mult", "estimate", "halfline",
         "--p", "4", "--n", "64", "--t", "100"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_PARSE
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_byte_identical_reruns(capsys):
    _, out1 = run_cli(capsys, "profile", "ind:-1,1 + 1/3*tent:-2,0,2", "--p", "4")
    _, out2 = run_cli(capsys, "profile", "ind:-1,1 + 1/3*tent:-2,0,2", "--p", "4")
    assert out1 == out2
    _, est1 = run_cli(capsys, "mult", "estimate", "segment", "--p", "4", "--n", "256", "--iterations", "30")
    _, est2 = run_cli(capsys, "mult", "estimate", "segment", "--p", "4", "--n", "256", "--iterations", "30")
    assert est1 == est2


def test_float_formatting_17_digits():
    text = canonical_json({"x": 1 / 3, "y": 2.0})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1 / 3

    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    text = canonical_json({"a": float("nan"), "b": float("inf"), "c": float("-inf")})
    doc = json.loads(text, parse_constant=reject)
    assert doc == {"a": "NaN", "b": "Infinity", "c": "-Infinity"}


def test_out_file_written_atomically(capsys, tmp_path):
    out_path = os.fspath(tmp_path / "profile.json")
    code, out = run_cli(capsys, "profile", "ind:-1,1", "--p", "4", "--out", out_path)
    assert code == EXIT_OK and out == ""
    with open(out_path) as fh:
        doc = json.load(fh)
    assert doc["tail_value"] == "4"
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_experiment_config_roundtrip_and_engines():
    from splitnorm.cli import ExperimentConfig

    cfg = ExperimentConfig.from_dict(
        {"command": "norm", "spec": "ind:-1,1", "p": 4, "t": [0.0, 0.25], "engine": "both"}
    )
    assert ExperimentConfig.from_dict(json.loads(json.dumps(to_dict(cfg)))) == cfg
    doc = json.loads(cfg.run()[0])
    assert len(doc["results"]) == 2
    for row in doc["results"]:
        assert abs(row["value_pth_power"] - row["exact_value"]) <= row["abs_error"]
    exact_only = ExperimentConfig.from_dict(
        {"command": "norm", "spec": "ind:-1,1", "p": 4, "t": 0.25, "engine": "exact"}
    )
    row = json.loads(exact_only.run()[0])
    assert row["abs_error"] == 0 and row["value_pth_power"] == pytest.approx(25 / 6)
    with pytest.raises(SplitnormError, match=exactly("unknown job fields for norm: ['speling']")):
        ExperimentConfig.from_dict({"command": "norm", "speling": "x"})
    ts = ExperimentConfig.from_dict(
        {"command": "norm", "spec": "ind:0,1", "t": {"start": 0, "stop": 2, "count": 5}}
    ).t_values()
    assert ts == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_batch_declarative_jobs(capsys, tmp_path):
    out1 = os.fspath(tmp_path / "p.json")
    out2 = os.fspath(tmp_path / "n.json")
    config = {
        "jobs": [
            {"command": "profile", "spec": "ind:-1,1", "p": 4, "output": out1},
            {
                "command": "norm",
                "spec": "ind:-1,1",
                "p": 3,
                "t": [0.25, 1.0],
                "target_abs_err": 1e-3,
                "output": out2,
            },
            {"command": "mult-constants", "p": 4},
        ]
    }
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps(config))
    code = main(["batch", os.fspath(cfg)])
    summary = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert [j["status"] for j in summary["jobs"]] == [EXIT_OK] * 3
    assert json.load(open(out1))["tail_value"] == "4"
    assert len(json.load(open(out2))["results"]) == 2


def test_batch_command(capsys, tmp_path):
    out1 = os.fspath(tmp_path / "a.json")
    out2 = os.fspath(tmp_path / "b.json")
    config = {
        "jobs": [
            {"argv": ["profile", "ind:-1,1", "--p", "4"], "output": out1},
            {"argv": ["mult", "constants", "--p", "2"], "output": out2},
            {"argv": ["profile", "garbage", "--p", "4"]},
        ]
    }
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps(config))
    code = main(["batch", os.fspath(cfg)])
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    statuses = [j["status"] for j in summary["jobs"]]
    assert statuses == [EXIT_OK, EXIT_OK, EXIT_PARSE]
    assert code == EXIT_PARSE  # worst job status propagates
    assert json.load(open(out1))["tail_value"] == "4"
    assert json.load(open(out2))["c"] == pytest.approx(1.0)


def test_batch_job_errors_do_not_abort_the_batch(tmp_path):
    # a bad shift and a missing coefficient file are per-job errors: the
    # batch reports them and still runs the good job
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    config = {
        "jobs": [
            {"command": "norm", "spec": "ind:-1,1", "p": 4, "t": -1},
            {"command": "series", "coeff_file": "missing.json", "p": 4, "t_max": 3},
            {"command": "mult-constants", "p": 4, "output": "good.json"},
        ]
    }
    (tmp_path / "jobs.json").write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "splitnorm", "batch", "jobs.json"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    summary = json.loads(proc.stdout)
    assert [j["status"] for j in summary["jobs"]] == [EXIT_PARSE, EXIT_PARSE, EXIT_OK]
    assert all(j["error"] for j in summary["jobs"][:2])
    assert proc.returncode == EXIT_PARSE
    assert "Traceback" not in proc.stderr
    assert json.loads((tmp_path / "good.json").read_text())["c"] == pytest.approx(2 ** 0.5)


def _run_subprocess(args, cwd, timeout=120):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "splitnorm", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout,
    )


def test_batch_wrongly_typed_field_is_a_job_error(tmp_path):
    # a null p used to end the batch in a TypeError traceback, with no summary
    config = {"jobs": [{"command": "mult-constants", "p": None}, {"command": "mult-constants", "p": 4}]}
    (tmp_path / "jobs.json").write_text(json.dumps(config))
    proc = _run_subprocess(["batch", "jobs.json"], tmp_path)
    summary = json.loads(proc.stdout)
    assert [j["status"] for j in summary["jobs"]] == [EXIT_PARSE, EXIT_OK]
    assert summary["jobs"][0]["error"]
    assert proc.returncode == EXIT_PARSE
    assert "Traceback" not in proc.stderr


def test_unwritable_output_is_one_error_line(tmp_path):
    # a failed write is exit 2 with one error line; in batch it is that
    # job's status 2, later jobs run, and no temp file is left behind
    missing = str(tmp_path / "missing" / "b.json")
    proc = _run_subprocess(["mult", "constants", "--p", "4", "--out", missing], tmp_path)
    assert proc.returncode == EXIT_PARSE
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    argv = ["mult", "constants", "--p", "4"]
    (tmp_path / "taken").mkdir()  # the temp file is written, the rename fails
    config = {
        "jobs": [
            {"argv": argv, "output": missing},
            {"command": "mult-constants", "p": 4, "output": missing},
            {"argv": argv, "output": 5},
            {"argv": argv, "output": "taken"},
            {"argv": argv, "output": "good.json"},
        ]
    }
    (tmp_path / "jobs.json").write_text(json.dumps(config))
    proc = _run_subprocess(["batch", "jobs.json"], tmp_path)
    summary = json.loads(proc.stdout)
    assert [j["status"] for j in summary["jobs"]] == [EXIT_PARSE] * 4 + [EXIT_OK]
    assert all(j["error"] for j in summary["jobs"][:4])
    assert proc.returncode == EXIT_PARSE
    assert "Traceback" not in proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["good.json", "jobs.json", "taken"]
    assert os.listdir(tmp_path / "taken") == []


@pytest.mark.parametrize(
    "job",
    [
        {"command": "profile", "spec": "ind:-1,1", "p": True},
        {"command": "profile", "spec": 3, "p": 4},
        {"command": "mult-estimate", "multiplier": "halfline", "p": 4, "iterations": 2.5},
        {"command": "norm", "spec": "ind:-1,1", "p": 4, "t": [1, None]},
        {"command": "norm", "spec": "ind:-1,1", "p": 4, "t": {"stop": "x"}},
        {"command": 3},
    ],
)
def test_declarative_job_field_types(job):
    from splitnorm.cli import _run_job

    row = _run_job(job)
    assert row["status"] == EXIT_PARSE and row["error"]


def test_declarative_exact_positive_without_p(capsys):
    from splitnorm.cli import ExperimentConfig

    code, out = run_cli(capsys, "mult", "exact-positive", "tent:-1,0,1")
    job = {"command": "mult-exact-positive", "spec": "tent:-1,0,1", "p": None}
    assert ExperimentConfig.from_dict(job).run() == (out.rstrip("\n"), code)


def test_declarative_job_p_is_required_as_on_the_command_line(capsys):
    from splitnorm.cli import ExperimentConfig, _run_job

    # a job that leaves p out is the command line without --p
    code, out = run_cli(capsys, "mult", "exact-positive", "tent:-1,0,1")
    job = {"command": "mult-exact-positive", "spec": "tent:-1,0,1"}
    assert ExperimentConfig.from_dict(job).run() == (out.rstrip("\n"), code)
    assert "m_plus_norm" not in out
    row = _run_job({"command": "profile", "spec": "ind:-1,1"})
    assert row["status"] == EXIT_PARSE and "needs p" in row["error"]


@pytest.mark.parametrize("samples", [0, -1])
def test_profile_csv_rejects_samples_below_one(capsys, samples):
    from splitnorm.cli import _run_job

    code, out = run_cli(capsys, "profile", "ind:-1,1", "--p", "4", "--emit", "csv", "--samples", str(samples))
    assert code == EXIT_PARSE and out == ""
    row = _run_job({"command": "profile", "spec": "ind:-1,1", "p": 4, "emit": "csv", "samples": samples})
    assert row["status"] == EXIT_PARSE and "samples" in row["error"]


def test_norm_huge_p_exits_budget_without_traceback(tmp_path):
    # |f^|^p overflows: the numeric engine reports inf +- NaN, which is no
    # result; before this was caught, the even p = 1e300 went on to the
    # exact engine and did not finish
    proc = _run_subprocess(["norm", "ind:-1,1", "--p", "1e300", "--t", "1", "--err", "1e-3"], tmp_path, timeout=30)
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "not finite" in proc.stderr


def test_norm_huge_p_stderr_is_one_budget_line(tmp_path):
    # |f^|^p overflows inside the quadrature; numpy's overflow and invalid
    # warnings used to reach stderr ahead of the error line
    proc = _run_subprocess(["norm", "ind:-1,1", "--p", "1e300", "--t", "1", "--err", "1e-3"], tmp_path, timeout=30)
    assert proc.returncode == EXIT_BUDGET
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded: "), proc.stderr


def test_norm_huge_p_envelope_tail_is_quiet(tmp_path):
    # the envelope tail's K^p overflows before the quadrature starts; numpy's
    # overflow warning used to reach stderr ahead of the error line
    proc = _run_subprocess(["norm", "5*ind:-1,1", "--p", "1e300", "--t", "1", "--err", "1e-3"], tmp_path, timeout=30)
    assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded: "), proc.stderr


def test_norm_p2_is_exact_for_any_shift_and_refuses_a_norm_past_float_range(tmp_path):
    # p = 2 is ||S_t f||_2^2 = ||f||_2^2 by Plancherel, computed exactly: a
    # norm of 10^400 exits 4 with one line, where numpy's overflow
    # warnings from a p = 2 tail once came first; and a shift whose moments
    # overflow a float, refused at p = 3 (huge-t below), is no obstacle
    proc = _run_subprocess(["norm", f"poly:[0,1]:{10 ** 200}", "--p", "2", "--t", "1"], tmp_path, timeout=30)
    assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0] == "budget exceeded: the result inf +- inf is not finite", proc.stderr
    proc = _run_subprocess(["norm", "ind:-1,1", "--p", "2", "--t", "1e200"], tmp_path, timeout=30)
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["value_pth_power"] == 2 and doc["abs_error"] == 0


@pytest.mark.parametrize("argv", [
    ["mult", "bounds", "square", "--p", "4", "--A", "-1", "--t", "0.5"],
    ["mult", "bounds", "two_way", "--p", "4", "--A", "-5", "--t", "-1", "--ell", "1", "--m-norm", "1", "--in-R"],
])
def test_bounds_reject_negative_halfwidth(capsys, argv):
    # the t >= t0 gate once reported a negative A as applicable; it now
    # refuses it before computing (p-2)A/4
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: A must be nonnegative\n"


def test_exact_engine_huge_p_is_a_budget_error(tmp_path):
    # the exact engine ran p = 1e300 and did not finish; it now refuses
    # before any convolution, and the next job still runs
    config = {"jobs": [
        {"command": "norm", "spec": "ind:-1,1", "p": 1e300, "t": 1, "engine": "exact"},
        {"command": "norm", "spec": "ind:-1,1", "p": 4, "t": 1, "engine": "exact"},
    ]}
    (tmp_path / "jobs.json").write_text(json.dumps(config))
    proc = _run_subprocess(["batch", "jobs.json"], tmp_path, timeout=30)
    summary = json.loads(proc.stdout)
    assert [j["status"] for j in summary["jobs"]] == [EXIT_BUDGET, EXIT_OK]
    assert "exact engine" in summary["jobs"][0]["error"]
    assert proc.returncode == EXIT_BUDGET
    proc = _run_subprocess(["profile", "ind:-1,1", "--p", "1000"], tmp_path, timeout=30)
    assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: ") and proc.stderr.count("\n") == 1


def test_series_huge_p_is_a_budget_error(tmp_path):
    # p/2 - 1 = 5e7 sequence convolutions ran until killed; the series
    # engine now refuses before the first one
    coeffs = {"A": 1, "coeffs": {"-1": "1/2", "0": "1", "1": "2"}}
    (tmp_path / "c.json").write_text(json.dumps(coeffs))
    proc = _run_subprocess(["series", "c.json", "--p", "100000000", "--t-max", "1"], tmp_path, timeout=30)
    assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: ") and proc.stderr.count("\n") == 1
    assert "series engine" in proc.stderr


def test_series_walk_past_its_cap_is_a_budget_error(tmp_path):
    # 1e8 shifts ran until killed; the walk's summed work is checked first
    coeffs = {"A": 1, "coeffs": {"-1": "1/2", "0": "1", "1": "2"}}
    (tmp_path / "c.json").write_text(json.dumps(coeffs))
    proc = _run_subprocess(["series", "c.json", "--p", "4", "--t-max", "100000000"], tmp_path, timeout=30)
    assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: ") and proc.stderr.count("\n") == 1
    assert "summed over the shifts 0..100000000" in proc.stderr and "cap of 10^9" in proc.stderr


def test_profile_csv_rows_past_their_cap_are_a_budget_error(tmp_path):
    proc = _run_subprocess(["profile", "ind:-1,1", "--p", "4", "--emit", "csv", "--samples", "100000000"],
                           tmp_path, timeout=30)
    assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
    assert proc.stderr == "budget exceeded: 2 pieces times 100000000 samples is 200000000 CSV rows, " \
                          "over the cap of 10^6\n"


def test_norm_job_shift_count_past_its_cap_is_a_budget_error(tmp_path):
    config = {"jobs": [
        {"command": "norm", "spec": "ind:-1,1", "p": 3, "t": {"start": 0, "stop": 1, "count": 100000000}},
        {"command": "norm", "spec": "ind:-1,1", "p": 4, "t": {"start": 0, "stop": 1, "count": 3},
         "engine": "exact"},
    ]}
    (tmp_path / "jobs.json").write_text(json.dumps(config))
    proc = _run_subprocess(["batch", "jobs.json"], tmp_path, timeout=30)
    summary = json.loads(proc.stdout)
    assert [j["status"] for j in summary["jobs"]] == [EXIT_BUDGET, EXIT_OK]
    assert summary["jobs"][0]["error"] == "a range of t with count = 100000000 passes the cap of 10^4 shifts"
    assert proc.returncode == EXIT_BUDGET


@pytest.mark.parametrize("engine", ["exact", "both"])
def test_norm_job_builds_one_profile_for_all_its_shifts(monkeypatch, engine):
    import splitnorm.cli as cli
    from splitnorm.normprofile import norm_profile

    calls = []

    def counted(f, p):
        calls.append(p)
        return norm_profile(f, p)

    monkeypatch.setattr(cli, "norm_profile", counted)
    job = {"command": "norm", "spec": "ind:-1,1 + ind:10,11 + ind:-11,-10", "p": 4,
           "t": [0.25, 4.5, 12.0], "target_abs_err": 1e-3, "engine": engine}
    text, code = cli.ExperimentConfig.from_dict(job).run()
    assert code == EXIT_OK and calls == [4]
    singles = [json.loads(cli.ExperimentConfig.from_dict({**job, "t": t}).run()[0]) for t in job["t"]]
    assert text == canonical_json({"results": singles})


def test_batch_argv_job_out_option_is_a_job_error(tmp_path):
    # an --out inside an argv job was dropped: status 0, no file, and the
    # result printed nowhere
    argv = ["mult", "constants", "--p", "4"]
    config = {"jobs": [{"argv": [*argv, "--out", "inner.json"]}, {"argv": argv, "output": "good.json"}]}
    (tmp_path / "jobs.json").write_text(json.dumps(config))
    proc = _run_subprocess(["batch", "jobs.json"], tmp_path)
    summary = json.loads(proc.stdout)
    assert [j["status"] for j in summary["jobs"]] == [EXIT_PARSE, EXIT_OK]
    assert '"output"' in summary["jobs"][0]["error"]
    assert proc.returncode == EXIT_PARSE
    assert sorted(os.listdir(tmp_path)) == ["good.json", "jobs.json"]


@pytest.mark.parametrize("flags", [[], ["--assert-positive"]])
@pytest.mark.parametrize("spec", ["i*tent:-1,0,1", "1/2*tent:-1,0,1 + i*tent:-1,0,1"])
def test_exact_positive_rejects_complex_multipliers(tmp_path, spec, flags):
    # a complex multiplier ended in a TypeError traceback, or with
    # --assert-positive reported Re m(0) as its norm
    proc = _run_subprocess(["mult", "exact-positive", spec, *flags], tmp_path)
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "real" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_batch_unexpected_exception_stays_in_its_job(capsys, monkeypatch, tmp_path):
    import splitnorm.cli as cli

    def broken(p):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "constants", broken)
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"jobs": [
        {"command": "mult-constants", "p": 4},
        {"command": "profile", "spec": "ind:-1,1", "p": 4},
    ]}))
    code = main(["batch", os.fspath(cfg)])
    summary = json.loads(capsys.readouterr().out)
    assert code == EXIT_PARSE
    assert [j["status"] for j in summary["jobs"]] == [EXIT_PARSE, EXIT_OK]
    assert "a bug" in summary["jobs"][0]["error"]


@pytest.mark.parametrize(
    "flags",
    [["--t", "inf"], ["--t", "1e300"], ["--t", "5", "--err", "0"], ["--t", "5", "--err", "-1"]],
    ids=["t-inf", "t-1e300", "err-0", "err-negative"],
)
def test_norm_rejects_nonfinite_t_and_nonpositive_err(tmp_path, flags):
    proc = _run_subprocess(["norm", "ind:-1,1", "--p", "3", *flags], tmp_path)
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_nonfinite_t_and_p_are_job_errors():
    from splitnorm.cli import _run_job

    inf = float("inf")
    jobs = [{"command": "norm", "spec": "ind:-1,1", "p": 4, "t": inf, "engine": e}
            for e in ("exact", "numeric", "both")]
    jobs += [
        {"command": "norm", "spec": "ind:-1,1", "p": 4, "t": {"start": -1e308, "stop": 1e308}},
        {"command": "mult-estimate", "multiplier": "halfline", "p": 4, "grid_n": 64, "t": inf},
        {"command": "norm", "spec": "ind:-1,1", "p": inf, "t": 1},
    ]
    for job in jobs:
        row = _run_job(job)
        assert row["status"] == EXIT_PARSE and "finite" in row["error"], job
    row = _run_job({"command": "norm", "spec": "ind:-1,1", "p": 4, "t": {"stop": 1, "count": inf}})
    assert row == {"command": "norm", "status": EXIT_PARSE, "error": "bad t specification: {'stop': 1, 'count': inf}"}


@pytest.mark.parametrize("t", [
    [],
    {"stop": 1, "count": 0},
    {"stop": 1, "count": -3},
    {"stop": 1, "count": 2.5},
    {"stop": 1, "count": "3"},
    {"stop": 1, "count": True},
], ids=["empty-list", "count-0", "count-negative", "count-fraction", "count-string", "count-bool"])
@pytest.mark.parametrize("command", ["norm", "mult-estimate"])
def test_a_shift_set_names_at_least_one_shift(capsys, command, t):
    # an empty list ended mult-estimate in an IndexError traceback, and a
    # count below 1 ran its start; int() truncated 2.5 and converted "3"
    from splitnorm.cli import _run_job

    job = {"command": command, "p": 4, "t": t}
    job.update({"spec": "ind:-1,1"} if command == "norm"
               else {"multiplier": "halfline", "grid_n": 256, "iterations": 5})
    row = _run_job(job)
    # mult-estimate takes one shift, so a list or a range is the wrong type
    error = (f"bad t specification: {t!r}" if command == "norm"
             else f"job field 't' has the wrong type: {t!r}")
    assert row == {"command": command, "status": EXIT_PARSE, "error": error}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("t", [[0.5, 1.0, 2.0], {"start": 0.5, "stop": 2.0, "count": 3}])
def test_mult_estimate_takes_one_shift(t):
    # it ran the first shift alone and dropped the others, with status 0
    from splitnorm.cli import _run_job

    job = {"command": "mult-estimate", "multiplier": "tent", "p": 4, "grid_n": 256,
           "iterations": 5, "t": t}
    row = _run_job(job)
    assert row == {"command": "mult-estimate", "status": EXIT_PARSE,
                   "error": f"job field 't' has the wrong type: {t!r}"}


def test_batch_declarative_mult_bounds_inapplicable(capsys, tmp_path):
    out = os.fspath(tmp_path / "b.json")
    config = {"jobs": [
        {"command": "mult-bounds", "quantity": "split_lower", "p": 4, "ell": 0, "output": out},
    ]}
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps(config))
    code = main(["batch", os.fspath(cfg)])
    summary = json.loads(capsys.readouterr().out)
    assert code == EXIT_INAPPLICABLE
    assert [j["status"] for j in summary["jobs"]] == [EXIT_INAPPLICABLE]
    assert json.load(open(out))["applicable"] is False


def test_batch_malformed_config_and_jobs(capsys, tmp_path):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([{"command": "mult-constants", "p": 4}]))
    assert main(["batch", os.fspath(cfg)]) == EXIT_PARSE
    assert capsys.readouterr().err == 'config error: need a "jobs" list\n'
    cfg.write_text(json.dumps({"jobs": [
        "mult-constants",
        {"command": "norm", "spec": "ind:-1,1", "p": 4, "t": {"start": 0}},
        {"argv": ["batch", "other.json"]},
        {"command": "mult-constants", "p": 4},
    ]}))
    code = main(["batch", os.fspath(cfg)])
    summary = json.loads(capsys.readouterr().out)
    assert code == EXIT_PARSE
    assert [j["status"] for j in summary["jobs"]] == [EXIT_PARSE] * 3 + [EXIT_OK]
    assert [bool(j.get("error")) for j in summary["jobs"]] == [True] * 3 + [False]


def test_invariant_violation_exit_code(capsys, monkeypatch):
    import splitnorm.cli as cli

    def broken(f, p):
        raise InvariantViolation("an exact identity failed")

    monkeypatch.setattr(cli, "norm_profile", broken)
    code = main(["profile", "ind:-1,1", "--p", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert captured.err == "error: an exact identity failed\n"
    assert captured.out == ""


def test_one_error_class_per_exit():
    import splitnorm.errors as errors
    from splitnorm.cli import _exit_status

    defined = {n for n, v in vars(errors).items() if isinstance(v, type) and v.__module__ == errors.__name__}
    assert defined == {"SplitnormError", "BudgetExceeded", "InapplicableHypothesis", "InvariantViolation"}
    assert _exit_status(errors.SplitnormError("x")) == (EXIT_PARSE, "error")
    assert _exit_status(errors.InvariantViolation("x")) == (EXIT_PARSE, "error")
    assert _exit_status(errors.InapplicableHypothesis("x")) == (EXIT_INAPPLICABLE, "inapplicable")
    assert _exit_status(errors.BudgetExceeded("x")) == (EXIT_BUDGET, "budget exceeded")


def test_estimate_near_p_one_is_quiet_and_converges(tmp_path):
    # at p = 1.001 the dual power |u|^1000 overflows unless u is scaled
    # first: that once printed three numpy RuntimeWarnings, and later ended
    # every start after its first step (6 iterations, not converged)
    proc = _run_subprocess(["mult", "estimate", "halfline", "--p", "1.001", "--n", "1024"], tmp_path)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["converged"] is True and doc["iterations"] > 6


@pytest.mark.parametrize(
    "argv, job",
    [
        (["profile", "ind:-1,1", "--p", "4"], {"command": "profile", "spec": "ind:-1,1", "p": 4}),
        (
            ["profile", "tent:-1,0,1", "--p", "4", "--emit", "csv", "--samples", "3"],
            {"command": "profile", "spec": "tent:-1,0,1", "p": 4, "emit": "csv", "samples": 3},
        ),
        (
            ["norm", "ind:-1,1", "--p", "3", "--t", "0.25", "--err", "1e-3"],
            {"command": "norm", "spec": "ind:-1,1", "p": 3, "t": 0.25, "target_abs_err": 1e-3},
        ),
        (
            ["class-s", "ind:-1,1", "--bump-radius", "0"],
            {"command": "class-s", "spec": "ind:-1,1", "bump_radius": "0"},
        ),
        (["mult", "constants", "--p", "4"], {"command": "mult-constants", "p": 4}),
        (
            ["mult", "bounds", "two_way", "--p", "4", "--A", "1", "--t", "0.6", "--ell", "1",
             "--m-norm", "1", "--in-R"],
            {"command": "mult-bounds", "quantity": "two_way", "p": 4, "A": 1, "t": 0.6,
             "ell": 1, "m_norm": 1, "in_R": True},
        ),
        (
            ["mult", "bounds", "split_lower", "--p", "4", "--ell", "0"],
            # 0.0, not 0: the message echoes the value as the job gives it
            {"command": "mult-bounds", "quantity": "split_lower", "p": 4, "ell": 0.0},
        ),
        (
            ["mult", "estimate", "tent", "--p", "4", "--n", "256", "--iterations", "30",
             "--t", "0.5"],
            {"command": "mult-estimate", "multiplier": "tent", "p": 4, "grid_n": 256,
             "iterations": 30, "t": 0.5},
        ),
        (
            ["mult", "exact-positive", "tent:-1,0,1", "--p", "4"],
            {"command": "mult-exact-positive", "spec": "tent:-1,0,1", "p": 4},
        ),
        (
            ["series", "{coeffs}", "--p", "4", "--t-max", "5"],
            {"command": "series", "coeff_file": "{coeffs}", "p": 4, "t_max": 5},
        ),
    ],
    ids=["profile", "profile-csv", "norm", "class-s", "mult-constants", "mult-bounds",
         "mult-bounds-inapplicable", "mult-estimate", "mult-exact-positive", "series"],
)
def test_cli_and_declarative_job_agree(capsys, tmp_path, argv, job):
    from splitnorm.cli import ExperimentConfig

    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps({"A": 1, "coeffs": {"-1": "1/2", "0": ["1", "-1"], "1": "2"}}))
    argv = [os.fspath(coeffs) if a == "{coeffs}" else a for a in argv]
    job = {k: os.fspath(coeffs) if v == "{coeffs}" else v for k, v in job.items()}
    code, out = run_cli(capsys, *argv)
    text, job_code = ExperimentConfig.from_dict(job).run()
    assert out == (text if text.endswith("\n") else text + "\n")
    assert code == job_code


def _subcommands():
    """(command, argparse subparser) for every job command, ``mult X`` as ``mult-X``."""
    from splitnorm.cli import _build_parser

    def children(parser):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices.items()

    for name, parser in children(_build_parser()):
        if name == "mult":
            yield from ((f"mult-{leaf}", sub) for leaf, sub in children(parser))
        elif name != "batch":
            yield name, parser


_SUBCOMMANDS = list(_subcommands())


@pytest.mark.parametrize("command, parser", _SUBCOMMANDS, ids=[c for c, _ in _SUBCOMMANDS])
def test_parser_and_declarative_job_take_the_same_inputs(command, parser):
    # the dests, defaults, required set, types and choices of each subparser
    # are the fields of a declarative job; only norm's engine is job-only, and
    # only norm's t takes the list and range forms
    from splitnorm.cli import ExperimentConfig

    actions = [a for a in parser._actions if a.dest != "help"]
    fields = vars(ExperimentConfig.from_dict({"command": command}).args)
    assert set(fields) - ({"engine"} if command == "norm" else set()) == {a.dest for a in actions}
    assert {a.dest: a.default for a in actions} == {a.dest: fields[a.dest] for a in actions}
    with pytest.raises(SplitnormError, match=f"^{command} needs ") as exc:
        ExperimentConfig.from_dict({"command": command}).run()
    needs = str(exc.value).split(" needs ", 1)[1].split(", ")
    assert sorted(needs) == sorted(a.dest for a in actions if a.required)

    def accepts(dest, value):
        try:
            ExperimentConfig.from_dict({"command": command, dest: value})
        except SplitnormError:
            return False
        return True

    for a in actions:
        if isinstance(a, argparse._StoreTrueAction):
            good, bad = [True], ["yes", 1]
        elif a.type is int:
            good, bad = [2], [2.5, "2", True]
        elif a.type is float:
            good, bad = [2, 2.5], ["2", True]
        else:
            good, bad = [a.choices[0] if a.choices else "x"], [1, True]
        bad += ["not-a-choice"] if a.choices else []
        shifts = a.dest == "t" and command == "norm"
        assert accepts(a.dest, [1.0]) == shifts, a.dest
        assert all(accepts(a.dest, v) for v in good), a.dest
        assert not any(accepts(a.dest, v) for v in bad), a.dest


@pytest.mark.parametrize(
    "job",
    [
        {"command": "profile", "spec": "ind:-1,1", "p": 4, "emit": "xml"},
        {"command": "norm", "spec": "ind:-1,1", "p": 4, "t": 1, "engine": "exact-ish"},
        {"command": "series", "coeff_file": "c.json", "p": 4},
        {"command": "norm", "spec": "ind:-1,1", "p": 4},
        {"command": "mult-constants", "p": 4, "samples": 3},
        {"command": "class-s", "spec": "ind:-1,1", "t_max": 3},
        {"command": "series", "p": 4, "t_max": 3},
    ],
    ids=["emit-xml", "engine-exact-ish", "series-without-t_max", "norm-without-t",
         "field-of-another-command", "field-of-series", "series-without-coeff_file"],
)
def test_declarative_job_inputs_are_those_of_its_command(capsys, monkeypatch, tmp_path, job):
    # each of these jobs used to run (with a default, or ignoring the field)
    # or to end in an internal error
    from splitnorm.cli import _run_job

    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"A": 1, "coeffs": {"0": "1"}}))
    row = _run_job(job)
    assert row["status"] == EXIT_PARSE and row["error"]
    assert "internal error" not in row["error"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, err", [
    (["norm", "ind:-1,1", "--p", "3", "--t", "0.25", "--err", "0"],
     "the error target must be positive, got 0.0"),
    (["series", "{}", "--p", "4", "--t-max", "2"], 'coefficient file needs a "coeffs" mapping'),
    (["series", '{"A": -1, "coeffs": {"0": "1"}}', "--p", "4", "--t-max", "2"],
     '"A" must be a nonnegative integer, got -1'),
    (["series", '{"coeffs": {"x": "1"}}', "--p", "4", "--t-max", "2"], "bad coefficient index 'x'"),
    (["series", '{"A": 0, "coeffs": {"1": "1"}}', "--p", "4", "--t-max", "2"],
     "coefficient index exceeds the stated bound 0"),
    (["series", None, "--p", "4", "--t-max", "2"],
     "cannot read coefficient file: [Errno 2] No such file or directory: '{missing}'"),
    (["mult", "estimate", "foo", "--p", "4"],
     "unknown multiplier 'foo'; choose from ['halfline', 'segment', 'tent', 'tent-plus']"),
    (["class-s", "ind:-1,1", "--bump-radius", "-1"], "bump radius must be nonnegative"),
    (["norm", "ind:-1,1", "--p", "3", "--t", "1e200"],
     "t = 1e+200 is too large: the moments of the split function overflow a float"),
], ids=["err-0", "series-no-coeffs", "series-negative-A", "series-bad-index",
        "series-index-past-A", "series-missing-file", "unknown-multiplier",
        "negative-bump-radius", "huge-t"])
def test_refusals_are_one_exact_error_line(capsys, tmp_path, argv, err):
    # for series, the second item is the coefficient file's text, or None
    # for a file that does not exist
    if argv[0] == "series":
        path = tmp_path / "c.json"
        if argv[1] is not None:
            path.write_text(argv[1])
        argv = ["series", os.fspath(path), *argv[2:]]
        err = err.replace("{missing}", os.fspath(path))
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_PARSE, "", f"error: {err}\n")


def test_a_reversed_series_walk_is_refused(capsys, tmp_path):
    # --t-min 5 --t-max 3 exited 0 with "values": {} and a constancy claim
    # about no shifts
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"A": 1, "coeffs": {"-1": "1/2", "0": "1", "1": "2"}}))
    err = "the series walk 5..3 is empty: t_min must be at most t_max"
    code = main(["series", os.fspath(path), "--p", "4", "--t-min", "5", "--t-max", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_PARSE, "", f"error: {err}\n")
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"jobs": [
        {"command": "series", "coeff_file": os.fspath(path), "p": 4, "t_min": 5, "t_max": 3}
    ]}))
    assert main(["batch", os.fspath(cfg)]) == EXIT_PARSE
    summary = json.loads(capsys.readouterr().out)
    assert summary["jobs"] == [{"command": "series", "status": EXIT_PARSE, "error": err}]


@pytest.mark.parametrize("argv", [[1, 2], "profile"], ids=["numbers", "string"])
def test_batch_argv_job_needs_a_list_of_strings(capsys, tmp_path, argv):
    # numbers were an "internal error" with a traceback on stderr, and a
    # string was split into characters for argparse to refuse
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"jobs": [{"argv": argv}, {"command": "mult-constants", "p": 4}]}))
    code = main(["batch", os.fspath(cfg)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_PARSE, "")
    assert json.loads(captured.out)["jobs"] == [
        {"argv": argv, "status": EXIT_PARSE, "error": "an argv job needs a list of strings"},
        {"command": "mult-constants", "status": EXIT_OK},
    ]


@pytest.mark.parametrize(
    "doc",
    [
        {"A": 1, "coeffs": {"0": ["1"]}},
        {"A": 1, "coeffs": {"0": 5}},
        {"A": 1, "coeffs": {"0": [1, 2]}},
        [{"A": 1, "coeffs": {"0": "1"}}],
        {"A": [1], "coeffs": {"0": "1"}},
    ],
    ids=["one-part-entry", "number-entry", "number-parts", "top-level-list", "list-A"],
)
def test_malformed_coefficient_file_is_one_error_line(tmp_path, doc):
    # each of these files ended in a traceback with exit 1
    (tmp_path / "c.json").write_text(json.dumps(doc))
    proc = _run_subprocess(["series", "c.json", "--p", "4", "--t-max", "3"], tmp_path)
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


# ---------------------------------------------------------------------------
# golden output of the README commands and of complex inputs
# ---------------------------------------------------------------------------

_REAL_COEFFS = {"A": 2, "coeffs": {"-2": "1/2", "-1": "-1", "0": "3/4", "1": "2", "2": "-1/3"}}
_COMPLEX_COEFFS = {"A": 2, "coeffs": {"-2": ["0", "-1/3"], "-1": ["1/2", "1"], "0": ["-1", "3"], "2": "2/3i"}}
_BATCH = {
    "jobs": [
        {"argv": ["profile", "ind:0,1 + i*ind:-1,0", "--p", "4"], "output": "a.json"},
        {"command": "series", "coeff_file": "complex.json", "p": 6, "t_max": 4, "output": "b.json"},
        {"command": "mult-constants", "p": 3, "output": "c.json"},
    ]
}

# SHA-256 of json.dumps([exit code, stdout]) for every README command but
# `mult estimate` (its bits depend on the FFT build), and for complex inputs;
# the batch digest also covers the files its jobs write
GOLDEN_COMMANDS = [
    (["profile", "ind:-1,1", "--p", "4"],
     "0c4364e9d03f13feeffd1ae211649c04f8c19c8866b0caf241613e5815139872"),
    (["profile", "ind:-1,1", "--p", "4", "--emit", "csv"],
     "90aadfe02f79e6dc14e31509a3fa226da4fe1dc0fc8ca0cc92698db93eef23ea"),
    (["norm", "ind:-1,1", "--p", "3", "--t", "0.25", "--err", "1e-3"],
     "cb54365e932284ca22c4e03ae4e1cad705f494b56b3e4964c9dab4376adc5e3d"),
    (["class-s", "ind:-1,1 + ind:10,11 + ind:-11,-10"],
     "11e22ae3c22aed7790b4b7d7d6cedde5d7ce743bc9d39d857b1fb0814e8953d5"),
    (["mult", "constants", "--p", "4"],
     "eacc82042e683631fe500e4f57a181c91470009239b213165815be00c12e48f2"),
    (["mult", "bounds", "square", "--p", "4", "--A", "1", "--t", "0.5"],
     "3201e28174e8369bb5943651b93b51765093892c12dcfa9ce84752cdad7840a7"),
    (["mult", "bounds", "two_way", "--p", "4", "--A", "1", "--t", "0.6", "--ell", "1", "--m-norm", "1", "--in-R"],
     "ab13eb08c39efdd6555e2b97c12e4476935974b8cad9e50eaa5072ee83cad892"),
    (["mult", "exact-positive", "tent:-1,0,1", "--p", "4"],
     "1d3b6afd4ddb16266eb170682b8a3ea115846505dbbcc5077f5dfdba68f77b05"),
    (["series", "coeffs.json", "--p", "4", "--t-max", "6"],
     "0bcf904ff3e0454a43430401c0950f8ae84f82e521fef34643544f55e46f5acd"),
    (["batch", "jobs.json"],
     "477d298149a4ca6c9820d4a6157b0b66e43442d9c39f5aec8e7ca029f5ddf61b"),
    (["profile", "ind:0,1 + i*ind:-1,0", "--p", "6"],
     "b88564ae02c78c73e4052a8d82983e9241fee33e27213cf12154ba4e1317d7d5"),
    (["profile", "ind:0,1 + i*ind:-1,0", "--p", "6", "--emit", "csv"],
     "12af185c7ecf37984f914dac7f9ca58ffc379e523dbd89c8ee18f086f031ffb1"),
    (["series", "complex.json", "--p", "6", "--t-max", "5"],
     "63375e1d61f927ddbffa30de109d38dfded3ba260c5a7d651afbb7be9c49b9a9"),
    (["series", "complex.json", "--p", "6", "--t-max", "5", "--emit", "csv"],
     "482927f358056419442de207a730b07cbbfab73111c0b69b97c1f356042c724e"),
    (["class-s", "i*ind:-1,1"],
     "10c44fa294ce3bc545a6f5ca087c2c5cb4fb67d0519c611da04493a309eec426"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_COMMANDS, ids=[" ".join(a[:2]) for a, _ in GOLDEN_COMMANDS])
def test_cli_golden_hashes(capsys, monkeypatch, tmp_path, argv, digest):
    import hashlib

    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeffs.json").write_text(json.dumps(_REAL_COEFFS))
    (tmp_path / "complex.json").write_text(json.dumps(_COMPLEX_COEFFS))
    (tmp_path / "jobs.json").write_text(json.dumps(_BATCH))
    code, out = run_cli(capsys, *argv)
    doc = [code, out]
    if argv[0] == "batch":
        doc += [(tmp_path / j["output"]).read_text() for j in _BATCH["jobs"]]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


def test_readme_commands_are_pinned():
    # every command the README's command-line block shows has a golden digest;
    # `mult estimate` is left out for the reason given above GOLDEN_COMMANDS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```")[1]
    shown = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
             if line.startswith("splitnorm ")]
    pinned = [argv for argv, _ in GOLDEN_COMMANDS]
    assert len(shown) > 1
    assert [argv for argv in shown if argv not in pinned] == [
        argv for argv in shown if argv[:2] == ["mult", "estimate"]
    ]

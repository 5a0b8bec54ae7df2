"""The four workloads: their jobs, how each job runs, and how it is checked.

A workload is a list of jobs, one round.  The benchmark repeats whole
rounds, so every run attempts the same jobs in the same proportions.  Each
job is a dict with

- ``name``: unique within the workload;
- ``run``: a callable with no arguments, the timed call into the library or
  the CLI;
- ``check``: output -> list of errors (see ``checks.py``);
- ``fingerprint``: output -> value compared across rounds, so that every
  round's output is checked, not just the first;
- ``size``: the figures that set the job's cost, written to the result file;
- ``warm_up`` (optional): a cheap call made once before the timed loop.

Library functions are looked up on their modules at call time, so the
tracer's wrappers (``tracer.py``) see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction as Q

import checks
import inputs
from inputs import NAMED, c_p

WORKLOADS = ("exact-profiles", "numeric-norms", "estimator", "cli-cold")


def _shuffled(jobs: list, seed: int) -> list:
    random.Random(f"order-{seed}").shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# exact-profiles
# ---------------------------------------------------------------------------

# the ROADMAP sweep of even p, up to the cost where one job stays below about
# a second here (two-bump p=10 and p=12 and tent p=12 take 3-12 s each)
SWEEP_P = {"ind": (4, 6, 8, 10, 12), "tent": (4, 6, 8, 10), "two-bump": (4, 6, 8)}
COMPLEX_P = (4, 6, 8)
RANDOM_DRAWS = (("real", False, False), ("real-even", False, True), ("complex", True, False),
                ("complex-even", True, True))
RANDOM_P = (4, 6)
SERIES_SLOTS = ((1, 4), (1, 6), (2, 4), (2, 6), (3, 4), (3, 6))


def _profile_job(name: str, table: list, p: int, rng: random.Random, pin=None) -> dict:
    import splitnorm.normprofile as NP

    f = inputs.to_piecewise(table)
    real = inputs.is_real(table)
    radius = f.support_radius()

    def run():
        prof = NP.norm_profile(f, p)
        return {
            "profile": prof,
            "constancy": NP.check_constancy(prof, radius),
            "monotone": NP.check_monotone(prof),
            "newt": NP.newt_constant(f, p) if real else None,
        }

    # two seeded shifts on the 1/8 grid inside the window [0, (p-2)A/4 + 1]
    top = int(8 * (Q(p - 2) * inputs.support_radius(table) / 4 + 1))
    job = {
        "name": name,
        "table": table,
        "p": p,
        "even_real": real and inputs.is_even(table),
        "t_samples": sorted({Q(rng.randint(0, top), 8) for _ in range(2)}),
        "pin": pin,
        "run": run,
        "fingerprint": _profile_fingerprint,
        "size": {"p": p, "pieces": len(table), "degree": max(len(cs) - 1 for _, _, cs in table)},
    }
    job["check"] = lambda out, job=job: checks.check_exact_job(job, out)
    return job


def _profile_fingerprint(out) -> str:
    doc = out["profile"].to_json_dict()
    mono = out["monotone"]
    doc["verdicts"] = [
        str(out["constancy"].constant_from),
        mono.ok,
        None if mono.witness is None else [str(x) for x in mono.witness],
        None if out["newt"] is None else str(out["newt"]),
    ]
    return json.dumps(doc, sort_keys=True)


def _series_job(name: str, seq: dict, bound: int, p: int) -> dict:
    import splitnorm.normprofile as NP

    cs = inputs.to_coeffseq(seq, bound)

    def run():
        prof = NP.series_profile(cs, p)
        onset = prof.guaranteed_onset
        return {"values": [prof.value(t) for t in range(onset + 3)], "guaranteed_onset": onset}

    job = {
        "name": name,
        "seq": seq,
        "bound": bound,
        "p": p,
        "run": run,
        "fingerprint": lambda out: [str(v) for v in out["values"]],
        "size": {"p": p, "A": bound},
    }
    job["check"] = lambda out, job=job: checks.check_series_job(job, out)
    return job


def exact_profiles(seed: int) -> list:
    rng = random.Random(f"exact-profiles-{seed}")
    jobs = []
    for fn, ps in SWEEP_P.items():
        for p in ps:
            pin = {("ind", 4): "ind-p4", ("two-bump", 4): "two-bump-p4"}.get((fn, p))
            jobs.append(_profile_job(f"{fn}/p{p}", NAMED[fn], p, rng, pin))
    for p in COMPLEX_P:
        jobs.append(_profile_job(f"complex/p{p}", NAMED["complex"], p, rng))
    for label, complex_, even in RANDOM_DRAWS:
        table = inputs.random_table(rng, complex_=complex_, even=even)
        for p in RANDOM_P:
            jobs.append(_profile_job(f"random-{label}/p{p}", table, p, rng))
    for k, (bound, p) in enumerate(SERIES_SLOTS):
        seq = inputs.random_sequence(rng, bound)
        jobs.append(_series_job(f"series{k}/A{bound}/p{p}", seq, bound, p))
    return _shuffled(jobs, seed)


# ---------------------------------------------------------------------------
# numeric-norms
# ---------------------------------------------------------------------------

NUMERIC_P = (2.0, 2.5, 3.0, 4.0, 6.0)
NUMERIC_T = (0.25, 1.0, 5.0, 12.0)
NUMERIC_FNS = ("ind", "tent", "two-bump", "complex")
# (function, p, t) at which norm_numeric cannot reach 1e-6 (BudgetExceeded)
FAILS_AT_1E6 = (
    {(fn, 2.5, t) for fn in NUMERIC_FNS for t in NUMERIC_T} - {("tent", 2.5, 0.25)}
    | {("ind", 3.0, 12.0), ("complex", 3.0, 12.0)}
    | {("two-bump", 3.0, t) for t in NUMERIC_T}
)


def numeric_norms(seed: int) -> list:
    import splitnorm.oscint as OS

    jobs = []
    for fn in NUMERIC_FNS:
        f = inputs.to_piecewise(NAMED[fn])
        for p in NUMERIC_P:
            for t in NUMERIC_T:
                for target in (1e-3, 1e-6):
                    if target == 1e-6 and (fn, p, t) in FAILS_AT_1E6:
                        continue
                    job = {
                        "name": f"{fn}/p{p:g}/t{t:g}/err{target:g}",
                        "fn": fn,
                        "table": NAMED[fn],
                        "p": p,
                        "t": t,
                        "target": target,
                        "run": lambda f=f, p=p, t=t, e=target: OS.norm_numeric(
                            f, p, t, target_abs_err=e
                        ),
                        "fingerprint": lambda out: (out.value, out.abs_error),
                        "size": {"p": p, "t": t, "target": target},
                    }
                    jobs.append(job)
    return _shuffled(jobs, seed)


def numeric_references(jobs: list) -> dict:
    """Exact values for the even-p jobs, from the exact engine, keyed by job name."""
    import splitnorm.normprofile as NP

    profiles, refs = {}, {}
    for job in jobs:
        p = job["p"]
        if p not in (4.0, 6.0):
            continue
        key = (job["fn"], int(p))
        if key not in profiles:
            profiles[key] = NP.norm_profile(inputs.to_piecewise(job["table"]), int(p))
        refs[job["name"]] = checks.as_fraction(profiles[key].value_at(Q(job["t"])))
    return refs


def check_numeric_round(jobs: list, outputs: dict) -> list:
    """Per-job checks plus log-convexity across p = 2, 2.5, 3 at 1e-3."""
    refs = numeric_references(jobs)
    errs = []
    for job in jobs:
        if job["name"] in outputs:
            errs += checks.check_numeric_job(job, outputs[job["name"]], refs.get(job["name"]))
    for fn in NUMERIC_FNS:
        for t in NUMERIC_T:
            names = [f"{fn}/p{p:g}/t{t:g}/err0.001" for p in (2.0, 2.5, 3.0)]
            if all(n in outputs for n in names):
                errs += checks.check_log_convexity(*(outputs[n] for n in names), f"{fn}/t{t:g}")
    return errs


def numeric_ratio(jobs: list, outputs: dict) -> float:
    """Geometric mean of certified lower bound / reference over p = 2, 4, 6."""
    refs = numeric_references(jobs)
    logs = []
    for job in jobs:
        out = outputs.get(job["name"])
        if out is None:
            continue
        if job["p"] == 2.0:
            ref = float(checks.l2_squared(job["table"]))
        elif job["name"] in refs:
            ref = float(refs[job["name"]])
        else:
            continue
        logs.append(math.log((out.value - out.abs_error) / ref))
    return math.exp(sum(logs) / len(logs))


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------

ESTIMATOR_P = (4.0, 4.0 / 3.0, 3.0)
ESTIMATOR_GRIDS = ("halfline", "segment", "tent", "tent-plus-split")
# (log2 N, grid, p) above N = 2^12, where every grid runs at every p; one or
# two jobs per size keep a round near 10 s (a 2^16 job takes about 4 s)
ESTIMATOR_PLAN = (
    (13, "halfline", 3.0),
    (13, "segment", 4.0 / 3.0),
    (14, "tent", 4.0),
    (14, "tent-plus-split", 3.0),
    (15, "segment", 4.0),
    (16, "halfline", 4.0 / 3.0),
)
ESTIMATOR_ITERATIONS = 200
ESTIMATOR_SEED = 1


def build_grid(grid: str, n: int):
    """The discrete multiplier of one estimator grid, from the public builders."""
    import numpy as np
    import splitnorm.multnorm as MN

    if grid == "halfline":
        return MN.halfline_multiplier(n, 8.0)
    if grid == "segment":
        return MN.segment_multiplier(n, 2.0)
    if grid == "tent":
        return MN.tent_multiplier(n, 8.0)
    base = MN.tent_multiplier(n, 8.0)
    ys = base.grid()
    samples = np.where(ys < 0, 0.0, base.samples)
    samples[ys == 0] *= 0.5
    split, _ = MN.split_multiplier(MN.DiscreteMultiplier(samples, 8.0, ell=1.0), 1.0)
    return split


def reference_constant(grid: str, p: float) -> float:
    """c_p for half-line and segment grids, m(0) = 1 for the tent, and
    c_p m(0) = c_p, the ledger's bound for the one-sided tent, for the split
    tent-plus grid."""
    return 1.0 if grid == "tent" else c_p(p)


def _estimator_job(grid: str, n: int, p: float) -> dict:
    import splitnorm.multnorm as MN

    m = build_grid(grid, n)
    job = {
        "name": f"{grid}/N2^{n.bit_length() - 1}/p{p:.4g}",
        "grid": grid,
        "n": n,
        "p": p,
        "iterations": ESTIMATOR_ITERATIONS,
        "samples": m.samples,
        "reference": reference_constant(grid, p),
        "run": lambda: MN.estimate_lower(
            m, p, iterations=ESTIMATOR_ITERATIONS, seed=ESTIMATOR_SEED
        ),
        # two iterations on the same grid: numpy's FFT plans and the memory
        # for this N are in place before the timed loop
        "warm_up": lambda: MN.estimate_lower(m, p, iterations=2, seed=ESTIMATOR_SEED),
        "fingerprint": lambda out: (
            out.estimate,
            out.iterations,
            hashlib.sha256(out.test_function.tobytes()).hexdigest(),
        ),
        "size": {"N": n, "p": p, "iterations": ESTIMATOR_ITERATIONS},
    }
    job["check"] = lambda out, job=job: checks.check_estimator_job(job, out)
    return job


def estimator(seed: int) -> list:
    jobs = [_estimator_job(g, 2 ** 12, p) for g in ESTIMATOR_GRIDS for p in ESTIMATOR_P]
    jobs += [_estimator_job(g, 2 ** k, p) for k, g, p in ESTIMATOR_PLAN]
    return _shuffled(jobs, seed)


def ratio_of(jobs: list, estimates: dict) -> float:
    """Geometric mean of estimate / reference constant."""
    logs = [math.log(estimates[j["name"]] / j["reference"]) for j in jobs if j["name"] in estimates]
    return math.exp(sum(logs) / len(logs))


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

BATCH_OUTPUTS = ("batch_profile.json", "batch_norm.json", "batch_both.json",
                 "batch_est.json", "batch_series.json")


def cli_commands(seed: int, workdir: str) -> list:
    """The README's Command line section, with the input files it needs."""
    rng = random.Random(f"cli-cold-{seed}")
    seq = inputs.random_sequence(rng, 2)
    with open(os.path.join(workdir, "coeffs.json"), "w") as fh:
        json.dump(inputs.sequence_file_doc(seq, 2), fh)
    batch = {
        "jobs": [
            {"argv": ["profile", "tent:-1,0,1", "--p", "6"], "output": "batch_profile.json"},
            {"command": "norm", "spec": "ind:-1,1", "p": 3, "t": [0.25, 1],
             "target_abs_err": 1e-3, "engine": "numeric", "output": "batch_norm.json"},
            {"command": "norm", "spec": "tent:-1,0,1", "p": 4, "t": 1,
             "target_abs_err": 1e-3, "engine": "both", "output": "batch_both.json"},
            {"command": "mult-estimate", "multiplier": "tent-plus", "p": 4, "t": 1,
             "grid_n": 4096, "iterations": 200, "seed": 1, "output": "batch_est.json"},
            {"command": "series", "coeff_file": "coeffs.json", "p": 6, "t_max": 6,
             "output": "batch_series.json"},
        ]
    }
    with open(os.path.join(workdir, "jobs.json"), "w") as fh:
        json.dump(batch, fh)
    commands = [
        ("profile-json", "profile", ["profile", "ind:-1,1", "--p", "4"]),
        ("profile-csv", "csv", ["profile", "ind:-1,1", "--p", "4", "--emit", "csv"]),
        ("norm", "norm", ["norm", "ind:-1,1", "--p", "3", "--t", "0.25", "--err", "1e-3"]),
        ("class-s", "class-s", ["class-s", "ind:-1,1 + ind:10,11 + ind:-11,-10"]),
        ("constants", "constants", ["mult", "constants", "--p", "4"]),
        ("bounds-square", "bounds", ["mult", "bounds", "square", "--p", "4", "--A", "1", "--t", "0.5"]),
        ("bounds-two-way", "bounds", ["mult", "bounds", "two_way", "--p", "4", "--A", "1", "--t",
                                      "0.6", "--ell", "1", "--m-norm", "1", "--in-R"]),
        ("estimate", "estimate", ["mult", "estimate", "halfline", "--p", "4", "--n", "4096",
                                  "--iterations", "200"]),
        ("exact-positive", "exact-positive", ["mult", "exact-positive", "tent:-1,0,1", "--p", "4"]),
        ("series", "series", ["series", "coeffs.json", "--p", "4", "--t-max", "6"]),
        ("batch", "batch", ["batch", "jobs.json"]),
    ]
    jobs = []
    for name, kind, argv in commands:
        job = {
            "name": name,
            "kind": kind,
            "argv": argv,
            "seq": seq,
            "p": 4,
            "outputs": BATCH_OUTPUTS if kind == "batch" else (),
            "fingerprint": lambda out: out,
            "size": {"argv": argv},
        }
        job["check"] = lambda out, job=job: checks.check_cli_command(job, *out)
        jobs.append(job)
    return jobs


def child_env(root: str) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources first, a fixed hash seed, and no more threads than cores."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["SPLITNORM_THREADS"] = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_process(cmd: list, *, env: dict, cwd=None, limit_s: float = 120.0) -> tuple:
    """(exit code, stdout, stderr) of a child process.

    The wait blocks in ``waitpid``: ``subprocess.run(timeout=...)`` polls the
    child at 50 ms steps, which would round every timing to 50 ms.  A timer
    kills a child that outlives ``limit_s`` instead.
    """
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, out, err


def attach_cli_runners(jobs: list, workdir: str, env: dict, in_process: bool) -> None:
    """Each command as a fresh ``python -m splitnorm`` process, or, for the
    traced run, as ``main(argv)`` in this process."""
    for job in jobs:
        def read_outputs(job=job):
            files = {}
            for out_name in job["outputs"]:
                path = os.path.join(workdir, out_name)
                if os.path.exists(path):
                    with open(path) as fh:
                        files[out_name] = fh.read()
                    os.remove(path)
            return files

        if in_process:
            def run(job=job, read_outputs=read_outputs):
                import contextlib
                import io

                import splitnorm.cli as CLI

                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = CLI.main(list(job["argv"]))
                return code, buf.getvalue(), read_outputs()
        else:
            def run(job=job, read_outputs=read_outputs):
                code, out, _ = run_process(
                    [sys.executable, "-m", "splitnorm", *job["argv"]], env=env, cwd=workdir
                )
                return code, out, read_outputs()
        job["run"] = run


def cli_ratio(jobs: list, outputs: dict) -> float:
    """Geometric mean of estimate / c_4 over the README estimate and the batch's."""
    ests = []
    if "estimate" in outputs and outputs["estimate"][0] == 0:
        ests.append(json.loads(outputs["estimate"][1])["estimate"])
    batch = outputs.get("batch")
    if batch and "batch_est.json" in batch[2]:
        ests.append(json.loads(batch[2]["batch_est.json"])["estimate"])
    logs = [math.log(e / c_p(4)) for e in ests]
    return math.exp(sum(logs) / len(logs)) if logs else float("nan")

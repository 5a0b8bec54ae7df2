"""One measured run of one workload, in a fresh process.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this process; it prints one JSON document as its last
line.  ``--setup-only`` imports splitnorm, builds the workload's inputs and
exits, which is what ``setup_s`` times.

The timed loop is one client with one job at a time (a closed loop).  It
runs whole rounds of the workload's jobs, at least two, and starts another
round only if that round is expected to end within ``--seconds``.  Each
job's latency is the mean of its repeats.  Before each job, outside the timed region, the
garbage collector runs; during the job it is off.  Every job's output is
checked: the first round's outputs in full, later rounds' outputs against
the first round's (cli-cold's stdout must repeat byte for byte).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import workloads  # this file's directory is sys.path[0]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_ROUNDS = 2


def layer_metric_units() -> dict:
    """Name -> unit of every per-layer metric, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def build(name: str, seed: int, workdir: str) -> list:
    if name == "exact-profiles":
        return workloads.exact_profiles(seed)
    if name == "numeric-norms":
        return workloads.numeric_norms(seed)
    if name == "estimator":
        return workloads.estimator(seed)
    return workloads.cli_commands(seed, workdir)


def warm_up(name: str, jobs: list) -> None:
    """Let lazy set-up finish before timing: first calls into the exact
    engine, scipy, and numpy's FFT at every grid size.  cli-cold pays set-up
    on every run, so it has none."""
    import splitnorm as S

    f = S.indicator(-1, 1)
    if name == "exact-profiles":
        S.check_monotone(S.norm_profile(f, 4))
    elif name == "numeric-norms":
        S.norm_numeric(f, 2.0, 1.0, target_abs_err=1e-3)
        S.norm_numeric(f, 3.0, 1.0, target_abs_err=1e-3)
    for job in jobs:
        if "warm_up" in job:
            job["warm_up"]()


def timed_rounds(jobs: list, seconds: float, min_rounds: int):
    """Whole rounds of the jobs; returns (latencies per job, first outputs,
    failed jobs, check errors, rounds)."""
    latencies = {job["name"]: [] for job in jobs}
    first: dict = {}
    fingerprints: dict = {}
    errors, failures, rounds = [], [], 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for job in jobs:
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            try:
                out = job["run"]()
            except Exception as exc:  # a failed job counts; the run goes on
                out = exc
            dt = time.perf_counter() - t0
            gc.enable()
            name = job["name"]
            if isinstance(out, Exception):
                failures.append(f"{name}: {type(out).__name__}: {out}")
                continue
            latencies[name].append(dt)
            fp = job["fingerprint"](out)
            if name not in first:
                first[name] = out
                fingerprints[name] = fp
            elif fp != fingerprints[name]:
                errors.append(f"{name}: output of round {rounds + 1} differs from round 1")
        rounds += 1
        last = time.perf_counter() - round_start
        if rounds >= min_rounds and time.perf_counter() - start + last > seconds:
            break
    return latencies, first, failures, errors, rounds


def latency_metrics(latencies: dict) -> dict:
    """Each job's latency is the mean of its repeats.  jobs_per_s is one
    round's jobs over the sum of their latencies; p50 and p90 are taken over
    the jobs of one round, with linear interpolation."""
    per_job = [statistics.fmean(v) for v in latencies.values() if v]
    deciles = statistics.quantiles(per_job, n=10, method="inclusive")
    return {
        "jobs_per_s": len(per_job) / sum(per_job),
        "job_p50_ms": 1000.0 * statistics.median(per_job),
        "job_p90_ms": 1000.0 * deciles[8],
    }


def coeff_bits_max(name: str, first: dict) -> int:
    """Largest numerator or denominator bit length in returned profiles and series values."""
    best = 0

    def see(x):
        nonlocal best
        for part in (getattr(x, "re", x), getattr(x, "im", 0)):
            best = max(best, int(part.numerator).bit_length(), int(part.denominator).bit_length())

    if name == "exact-profiles":
        for out in first.values():
            if "profile" in out:
                prof = out["profile"]
                for b in prof.profile.breakpoints:
                    see(b)
                for piece in prof.profile.pieces:
                    for c in piece.coeffs:
                        see(c)
                see(prof.tail_value)
            else:
                for v in out["values"]:
                    see(v)
    elif name == "cli-cold":
        from fractions import Fraction

        for key in ("profile-json", "series"):
            if key in first:
                doc = json.loads(first[key][1])
                texts = doc.get("values", {}).values() if key == "series" else (
                    [c for piece in doc["pieces"] for pair in piece for c in pair] + doc["breakpoints"]
                )
                for text in texts:
                    see(Fraction(text))
    return best


def import_times(env: dict) -> tuple:
    """(import splitnorm, scipy's share) in ms, from ``python -X importtime``.

    scipy's share is the cumulative time of the outermost scipy imports,
    the packages splitnorm's own modules ask for (numpy is loaded before).
    """
    _, _, stderr = workloads.run_process(
        [sys.executable, "-X", "importtime", "-c", "import splitnorm"], env=env
    )
    total_us, scipy = 0, []
    for line in stderr.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        module = fields[2].strip()
        depth = len(fields[2]) - len(fields[2].lstrip())
        if module == "splitnorm":
            total_us = int(fields[1])
        if module == "scipy" or module.startswith("scipy."):
            scipy.append((depth, int(fields[1])))
    top = min((d for d, _ in scipy), default=0)
    return total_us / 1000.0, sum(us for d, us in scipy if d == top) / 1000.0


def layer_metrics(tracer, name: str, rounds: int, build_ms: float, first: dict,
                  job_total_s: float, jobs_per_s: float, env: dict) -> dict:
    per_round = 1.0 / rounds

    def busy(span):
        return 1000.0 * tracer.busy.get(span, 0.0) * per_round

    def self_ms(span):
        return 1000.0 * tracer.self_time.get(span, 0.0) * per_round

    def calls(span):
        return tracer.calls.get(span, 0) * per_round

    def count(key):
        return tracer.counts.get(key, 0) * per_round

    iterations = count("multnorm.estimate_lower.iterations")
    import_ms, scipy_ms = import_times(env)
    values = {
        "scalars.coeff_bits_max": coeff_bits_max(name, first),
        "polyalg.convolve.calls": calls("polyalg.convolve"),
        "polyalg.convolve.busy_ms": busy("polyalg.convolve"),
        "polyalg.convolve.out_pieces": count("polyalg.convolve.out_pieces"),
        "polyalg.correlate.calls": calls("polyalg.correlate"),
        "polyalg.correlate.busy_ms": busy("polyalg.correlate"),
        "polyalg.l2_inner.busy_ms": busy("polyalg.l2_inner"),
        "polyalg.is_nonincreasing_on.busy_ms": busy("polyalg.is_nonincreasing_on"),
        "polyalg.isolate_real_roots.calls": calls("polyalg.isolate_real_roots"),
        "polyalg.isolate_real_roots.busy_ms": busy("polyalg.isolate_real_roots"),
        "splitcore.split.busy_ms": busy("splitcore.split"),
        "splitcore.apply_split.busy_ms": busy("splitcore.apply_split"),
        "splitcore.class_s_check.busy_ms": busy("splitcore.class_s_check"),
        "normprofile.norm_profile.busy_ms": busy("normprofile.norm_profile"),
        "normprofile.norm_profile.self_ms": self_ms("normprofile.norm_profile"),
        "normprofile.check_monotone.busy_ms": busy("normprofile.check_monotone"),
        "normprofile.newt_constant.busy_ms": busy("normprofile.newt_constant"),
        "normprofile.series_value.calls": calls("normprofile.series_value"),
        "normprofile.series_value.busy_ms": busy("normprofile.series_value"),
        "oscint.norm_numeric.busy_ms": busy("oscint.norm_numeric"),
        "oscint.norm_numeric.self_ms": self_ms("oscint.norm_numeric"),
        "oscint.FTEvaluator.init_ms": busy("oscint.FTEvaluator.init"),
        "oscint.FTEvaluator.eval_ms": busy("oscint.FTEvaluator.eval"),
        "oscint.FTEvaluator.calls": calls("oscint.FTEvaluator.eval"),
        "oscint.FTEvaluator.nodes": count("oscint.FTEvaluator.nodes"),
        "multnorm.estimate_lower.busy_ms": busy("multnorm.estimate_lower"),
        "multnorm.estimate_lower.iterations": iterations,
        "multnorm.iter_ms": busy("multnorm.estimate_lower") / iterations if iterations else 0.0,
        "multnorm.fft.calls": count("multnorm.fft.calls"),
        "multnorm.fft.points": count("multnorm.fft.points"),
        "multnorm.iters_after_best": count("multnorm.iters_after_best"),
        "multnorm.build_ms": build_ms + busy("multnorm.build"),
        "cli.import_ms": import_ms,
        "cli.import_scipy_ms": scipy_ms,
        "cli.main.busy_ms": busy("cli.main"),
        "cli.parse_function_spec.busy_ms": busy("cli.parse_function_spec"),
        "cli.canonical_json.busy_ms": busy("cli.canonical_json"),
        "cli.batch.wall_ms": busy("cli.batch"),
        "trace.coverage_pct": 100.0 * tracer.root_s / job_total_s,
        "trace.jobs_per_s": jobs_per_s,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in layer_metric_units().items()}


def span_table(tracer, rounds: int) -> dict:
    return {
        span: {
            "calls_per_round": tracer.calls[span] / rounds,
            "busy_ms_per_round": 1000.0 * tracer.busy.get(span, 0.0) / rounds,
            "self_ms_per_round": 1000.0 * tracer.self_time[span] / rounds,
        }
        for span in sorted(tracer.calls)
    }


def check_all(name: str, jobs: list, first: dict) -> list:
    errs = []
    for job in jobs:
        if job["name"] in first and "check" in job:
            errs += job["check"](first[job["name"]])
    if name == "numeric-norms":
        errs += workloads.check_numeric_round(jobs, first)
    return errs


def estimate_ratio(name: str, jobs: list, first: dict) -> float:
    """Geometric mean of certified lower bound / reference (see README)."""
    if name == "estimator":
        return workloads.ratio_of(jobs, {k: v.estimate for k, v in first.items()})
    if name == "numeric-norms":
        return workloads.numeric_ratio(jobs, first)
    if name == "cli-cold":
        return workloads.cli_ratio(jobs, first)
    return 1.0  # exact-profiles: every value is exact, so bound = reference


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    name = args.workload
    env = workloads.child_env(ROOT)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = build(name, args.seed, args.workdir)
    if args.setup_only:
        return 0
    build_ms = 1000.0 * tracer.busy.get("multnorm.build", 0.0) if tracer is not None else 0.0
    if name == "cli-cold":
        in_process = tracer is not None
        if in_process:
            os.chdir(args.workdir)
            os.environ["SPLITNORM_THREADS"] = env["SPLITNORM_THREADS"]
        workloads.attach_cli_runners(jobs, args.workdir, env, in_process)
    else:
        warm_up(name, jobs)
    if tracer is not None:
        tracer.reset()
    gc.collect()
    gc.freeze()

    latencies, first, failures, errors, rounds = timed_rounds(jobs, args.seconds, MIN_ROUNDS)
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" and tracer is None else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    job_total_s = sum(sum(v) for v in latencies.values())
    lat = latency_metrics(latencies)
    if tracer is not None:
        tracer.uninstall()
    errors += check_all(name, jobs, first)

    import numpy
    import scipy
    import splitnorm.scalars

    rat_type = type(splitnorm.scalars.RAT_ONE)
    doc = {
        "versions": {
            "backend": f"{rat_type.__module__}.{rat_type.__name__}",
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "attempted": rounds * len(jobs),
        "failed": len(failures),
        "failures": failures[:50],
        "errors": errors[:50],
        "rounds": rounds,
        "jobs": [
            {
                "name": job["name"],
                "size": job["size"],
                "latencies_ms": [1000.0 * x for x in latencies[job["name"]]],
            }
            for job in jobs
        ],
    }
    if tracer is None:
        doc["metrics"] = {
            "jobs_per_s": {"value": lat["jobs_per_s"], "unit": "1/s"},
            "job_p50_ms": {"value": lat["job_p50_ms"], "unit": "ms"},
            "job_p90_ms": {"value": lat["job_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "estimate_ratio": {"value": estimate_ratio(name, jobs, first), "unit": "ratio"},
        }
    else:
        doc["metrics"] = layer_metrics(
            tracer, name, rounds, build_ms, first, job_total_s, lat["jobs_per_s"], env
        )
        doc["spans"] = span_table(tracer, rounds)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

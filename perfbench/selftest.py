"""Checker self-tests: each check must pass a real output and reject a corrupted one.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes a few seconds.  It is a plain script,
not collected by the package's pytest suite.  For every workload it runs a
few small jobs, shows that the checks accept their outputs, then corrupts
one output at a time (one changed rational, a value moved outside its
certified bracket, a test-function quotient that does not match, a changed
CLI figure) and shows that the checks reject it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from fractions import Fraction as Q

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(label: str, errors: list, should_fail: bool) -> None:
    ok = bool(errors) == should_fail
    verdict = "rejected" if errors else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({errors[0]})" if errors else ""))
    if not ok:
        FAILURES.append(label)


def exact_profiles() -> None:
    from splitnorm.polyalg import PiecewisePoly, Poly
    from splitnorm.scalars import rat

    jobs = {j["name"]: j for j in workloads.exact_profiles(seed=1)}
    for name in ("ind/p4", "two-bump/p4", "complex/p4", "random-real-even/p4"):
        job = jobs[name]
        out = job["run"]()
        expect(f"exact-profiles {name} as computed", job["check"](out), False)

    job = jobs["ind/p4"]
    out = job["run"]()
    window = out["profile"].profile
    first = list(window.pieces[0].coeffs)
    first[0] = first[0] + rat(1, 1000)  # one changed rational
    bad_window = PiecewisePoly(window.breakpoints, [Poly(first)] + list(window.pieces[1:]))
    bad = dict(out, profile=dataclasses.replace(out["profile"], profile=bad_window))
    expect("exact-profiles ind/p4 with one changed coefficient", job["check"](bad), True)

    job = jobs["two-bump/p4"]
    out = job["run"]()
    bad = dict(out, profile=dataclasses.replace(out["profile"], tail_value=rat(25)))
    expect("exact-profiles two-bump/p4 with a changed tail", job["check"](bad), True)

    job = jobs["tent/p6"]
    out = job["run"]()
    bad = dict(out, monotone=dataclasses.replace(out["monotone"], ok=False, witness=(rat(0), rat(1))))
    expect("exact-profiles tent/p6 with a false monotonicity witness", job["check"](bad), True)

    series = next(j for j in jobs.values() if j["name"].startswith("series"))
    out = series["run"]()
    expect(f"exact-profiles {series['name']} as computed", series["check"](out), False)
    values = list(out["values"])
    values[1] = values[1] + rat(1, 1000)
    expect(f"exact-profiles {series['name']} with one changed value",
           series["check"](dict(out, values=values)), True)


def numeric_norms() -> None:
    jobs = [j for j in workloads.numeric_norms(seed=1)
            if j["fn"] == "ind" and j["t"] == 1.0 and j["target"] == 1e-3]
    outputs = {j["name"]: j["run"]() for j in jobs}
    expect("numeric-norms ind/t1 as computed", workloads.check_numeric_round(jobs, outputs), False)
    for p in (4.0, 2.0, 3.0):
        name = f"ind/p{p:g}/t1/err0.001"
        out = outputs[name]
        moved = dataclasses.replace(out, value=out.value + 3 * out.abs_error + 0.02)
        errs = workloads.check_numeric_round(jobs, dict(outputs, **{name: moved}))
        expect(f"numeric-norms {name} moved outside its bracket", errs, True)
    name = "ind/p2.5/t1/err0.001"
    out = outputs[name]
    raised = dataclasses.replace(out, value=out.value * 1.5)
    errs = workloads.check_numeric_round(jobs, dict(outputs, **{name: raised}))
    expect("numeric-norms V(2.5) above sqrt(V(2) V(3))", errs, True)


def estimator() -> None:
    import numpy as np

    job = next(j for j in workloads.estimator(seed=1) if j["name"] == "tent/N2^12/p4")
    out = job["run"]()
    expect("estimator tent/N2^12/p4 as computed", job["check"](out), False)
    bad = dataclasses.replace(out, estimate=out.estimate * (1 + 1e-6))
    expect("estimator quotient that does not match", job["check"](bad), True)
    tf = out.test_function.copy()
    tf[0] *= 2.0
    perturbed = dataclasses.replace(out, test_function=tf)
    expect("estimator perturbed test function", job["check"](perturbed), True)
    job = next(j for j in workloads.estimator(seed=1) if j["name"] == "halfline/N2^12/p4")
    out = job["run"]()
    expect("estimator halfline/N2^12/p4 as computed", job["check"](out), False)
    # a consistent but weak output: the true quotient of a random test function
    rng = np.random.default_rng(0)
    tf = rng.standard_normal(job["n"]) + 1j * rng.standard_normal(job["n"])
    q = np.sum(np.abs(checks.operator(job["samples"], tf)) ** 4) ** 0.25 / np.sum(np.abs(tf) ** 4) ** 0.25
    weak = dataclasses.replace(out, estimate=float(q), test_function=tf)
    expect("estimator halfline/N2^12/p4 below 0.95 c_4", job["check"](weak), True)


def cli_cold() -> None:
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "results")) as workdir:
        jobs = {j["name"]: j for j in workloads.cli_commands(seed=1, workdir=workdir)}
        workloads.attach_cli_runners(list(jobs.values()), workdir, {}, in_process=True)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            outs = {n: jobs[n]["run"]() for n in ("constants", "profile-json", "series", "profile-csv")}
        finally:
            os.chdir(cwd)
    for name, out in outs.items():
        expect(f"cli-cold {name} as computed", jobs[name]["check"](out), False)
    code, text, files = outs["constants"]
    doc = json.loads(text)
    doc["c"] = doc["c"] * (1 + 1e-13)
    expect("cli-cold constants with c off in the 13th digit",
           jobs["constants"]["check"]((code, json.dumps(doc), files)), True)
    code, text, files = outs["profile-json"]
    changed = text.replace('"tail_value": "4"', '"tail_value": "5"')
    expect("cli-cold profile with tail 4 changed", jobs["profile-json"]["check"]((code, changed, files)), True)
    code, text, files = outs["series"]
    doc = json.loads(text)
    key = next(iter(doc["values"]))
    doc["values"][key] = str(Q(doc["values"][key]) + Q(1, 10 ** 6))
    expect("cli-cold series with one changed rational",
           jobs["series"]["check"]((code, json.dumps(doc), files)), True)
    expect("cli-cold a command exiting 4", jobs["constants"]["check"]((4, "", {})), True)
    batch_doc = json.dumps({"jobs": [{"status": 0}, {"status": 4}]})
    expect("cli-cold a batch job with status 4", jobs["batch"]["check"]((0, batch_doc, {})), True)


def main() -> int:
    for section in (exact_profiles, numeric_norms, estimator, cli_cold):
        section()
    if FAILURES:
        print(f"{len(FAILURES)} self-test(s) failed: {FAILURES}")
        return 1
    print("all checker self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
fuller record (machine, versions, per-job sizes and latencies, spans) goes
to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, child_env, run_process  # this file's directory is sys.path[0]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 3
DEADLINE_S = 170.0


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def src_files() -> list:
    src = os.path.join(ROOT, "src", "splitnorm")
    return sorted(os.path.join(src, n) for n in os.listdir(src) if n.endswith(".py"))


def machine_record(seed: int) -> dict:
    """What the figures depend on, besides the versions ``measure.py`` adds:
    Python, cores, revision, and the size of src/ (ROADMAP aim 2)."""
    lines, digest = 0, hashlib.sha256()
    for path in src_files():
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(os.path.basename(path).encode() + b"\0" + data)
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        rev = git.stdout.strip() or rev
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


def time_setup(workload: str, seed: int, env: dict, workdir: str) -> float:
    """Median wall time of fresh processes that import splitnorm and build the
    workload's inputs (a bare cold import for cli-cold)."""
    if workload == "cli-cold":
        cmd = [sys.executable, "-c", "import splitnorm"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "measure.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--workdir", workdir, "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _, err = run_process(cmd, env=env)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}: {err}")
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "splitnorm", "__init__.py")):
        return fail(f"no splitnorm sources under {os.path.join(ROOT, 'src')}; "
                    "run from the root of a splitnorm checkout")
    env = child_env(ROOT)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                  "machine": machine_record(args.seed)}
        if not args.trace:
            record["setup_s"] = time_setup(args.workload, args.seed, env, workdir)
        cmd = [sys.executable, os.path.join(HERE, "measure.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
        remaining = DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            return fail(f"the measured run did not end within {DEADLINE_S:.0f} s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return fail(f"the measured run exited with code {proc.returncode}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = doc["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": record["setup_s"], "unit": "s"}, **metrics}
    result = {
        "correct": not doc["errors"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    record["machine"].update(doc.pop("versions"))
    record.update(doc)
    record["result"] = result
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for err in doc["errors"]:
        sys.stderr.write(f"check failed: {err}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

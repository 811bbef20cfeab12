"""spinstar benchmark: reference sweeps and single points through the CLI.

    python3 perfbench/run.py --workload sweep-m3 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. Each run starts fresh interpreters (see worker.py): several set-up
probes, each timing ``import spinstar`` plus the first one-cell call, and one
measured process that repeats the workload's pass for ``--seconds``. Every
output record is checked (checks.py). The last line of standard output is
the result; the line before it holds the details: environment, output
sha256, failures and the raw samples.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (spans.py).
README.md lists which layer metric should move which end-to-end metric.
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
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# Set-up is probed before and after the measured process, each time at least
# SETUP_PROBES times and for at least SETUP_SECONDS, so that the samples span
# the run rather than one moment of a machine whose speed drifts.
SETUP_PROBES = 3
SETUP_SECONDS = 2.0
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def environment(worker: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            cpu_model = next((line.split(":", 1)[1].strip() for line in stream
                              if line.startswith("model name")), None)
    except OSError:
        pass
    head = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                   capture_output=True, text=True, check=False)
            head = probe.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "blas": worker.get("blas"),
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "git_head": head,
    }


def spawn(mode: str, plan_path: str, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), mode, plan_path],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the run's time limit") from None
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_setup(plan_path: str, deadline: float) -> list[float]:
    """Set-up times of fresh interpreters: import plus the first one-cell call."""
    samples = []
    started = time.monotonic()
    while len(samples) < SETUP_PROBES or time.monotonic() - started < SETUP_SECONDS:
        probe = spawn("setup", plan_path, deadline)
        if probe["code"] != 0:
            raise BenchError(f"set-up call exited with code {probe['code']}")
        samples.append(probe["setup_s"])
    return samples


def check_outputs(workload, worker: dict, out_dir: str) -> dict:
    """Failures over every measured pass, and the sha256 of each pass's output."""
    reference = checks.load_reference(workload)
    failures, digests = [], []
    codes = iter(worker["codes"])
    for index in range(worker["passes"]):
        digest = hashlib.sha256()
        offset = 0
        for i, call in enumerate(workload.calls):
            text = None
            if next(codes) == 0:
                with open(os.path.join(out_dir, f"pass{index}_call{i}.{call.fmt}"),
                          encoding="ascii") as stream:
                    text = stream.read()
                digest.update(text.encode("ascii"))
            expected = None if reference is None else reference[1][offset:offset + len(call.keys)]
            failures += [f"pass {index} call {i} {reason}"
                         for reason in checks.check_call(text, call, expected)]
            offset += len(call.keys)
        digests.append(digest.hexdigest())
    reference_sha = (None if reference is None
                     else hashlib.sha256(reference[0].encode("ascii")).hexdigest())
    return {
        "attempted": worker["passes"] * workload.records,
        "failures": failures,
        "output_sha256": digests[0],
        "passes_identical": len(set(digests)) == 1,
        "reference_sha256": reference_sha,
        "matches_reference": None if reference is None else digests[0] == reference_sha,
    }


def run(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The result line and the detail record of one benchmark run."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        plan = {
            "src": os.path.join(ROOT, "src"),
            "calls": [{"argv": list(call.argv), "fmt": call.fmt} for call in workload.calls],
            "setup": list(workload.setup),
            "seconds": seconds,
            "trace": trace,
            "out_dir": out_dir,
        }
        plan_path = os.path.join(out_dir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as stream:
            json.dump(plan, stream)

        setup_samples = [] if trace else probe_setup(plan_path, deadline)
        worker = spawn("measure", plan_path, deadline)
        if not trace:
            setup_samples += probe_setup(plan_path, deadline)
        if worker["setup_code"] != 0:
            raise BenchError(f"set-up call exited with code {worker['setup_code']}")
        outcome = check_outputs(workload, worker, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    records = workload.records
    if trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in worker["layers"].items()}
    else:
        metrics = {
            "cells_per_s": {"value": statistics.median(records / s for s in worker["plain_s"]),
                            "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mib": {"value": worker["peak_rss_mib"], "unit": "MiB"},
        }
    failed = len(outcome["failures"])
    result = {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload.name,
        "trace": trace,
        "environment": environment(worker),
        "failed_frac": failed / outcome["attempted"],
        "failures": outcome["failures"][:20],
        "output_sha256": outcome["output_sha256"],
        "passes_identical": outcome["passes_identical"],
        "reference_sha256": outcome["reference_sha256"],
        "matches_reference": outcome["matches_reference"],
        "records_per_pass": records,
        "passes": worker["passes"],
        "plain_pass_s": worker["plain_s"],
        "traced_pass_s": worker["traced_s"],
        "setup_samples_s": setup_samples,
        "absent_spans": worker.get("absent", []),
    }
    return result, detail


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".bytes_in"):
        return "bytes_computed"
    if name in ("sweep.concurrency", "trace.overhead_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spinstar", "cli.py")):
        print(f"error: no spinstar sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result, detail = run(workloads.build(args.workload, args.seed), args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail["seed"] = args.seed
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

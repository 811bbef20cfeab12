"""One fresh interpreter of the benchmark: a set-up probe or a measured run.

    python3 perfbench/worker.py setup PLAN.json
    python3 perfbench/worker.py measure PLAN.json

The plan (written by run.py) names the package source directory, the CLI
calls of one pass, the set-up call, the run length, whether to trace, and the
directory for outputs. The worker drives ``spinstar.cli.main`` in-process and
prints one JSON line with its timings. It never sets thread counts.
"""

from time import perf_counter

_STARTED = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def call_cli(cli, argv) -> int:
    """Exit code of one in-process CLI call; a traceback counts as a failure."""
    try:
        return int(cli.main(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def blas_info(numpy) -> dict:
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {"name": None, "version": None}


def run_pass(cli, plan, index, codes) -> float:
    start = perf_counter()
    for i, call in enumerate(plan["calls"]):
        output = os.path.join(plan["out_dir"], f"pass{index}_call{i}.{call['fmt']}")
        codes.append(call_cli(cli, [*call["argv"], "--output", output]))
    return perf_counter() - start


def main(mode: str, plan_path: str) -> dict:
    with open(plan_path, encoding="utf-8") as stream:
        plan = json.load(stream)
    sys.path.insert(0, plan["src"])
    import spinstar.cli as cli

    package_dir = os.path.dirname(os.path.realpath(cli.__file__))
    if not package_dir.startswith(os.path.realpath(plan["src"]) + os.sep):
        raise SystemExit(f"imported spinstar from {package_dir}, not from {plan['src']}")

    first = os.path.join(plan["out_dir"], f"setup_{mode}_{os.getpid()}.out")
    setup_code = call_cli(cli, [*plan["setup"], "--output", first])
    setup_s = perf_counter() - _STARTED
    if mode == "setup":
        return {"setup_s": setup_s, "code": setup_code}

    import numpy

    tracer = None
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer()

    # untraced passes only, or untraced and traced passes alternating
    plain, traced, codes = [], [], []
    start = perf_counter()
    index = 0
    while True:
        if tracer is not None and index % 2 == 1:
            tracer.install()
            try:
                traced.append(run_pass(cli, plan, index, codes))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(cli, plan, index, codes))
        index += 1
        if perf_counter() - start >= plan["seconds"] and (tracer is None or traced):
            break

    result = {
        "setup_code": setup_code,
        "passes": index,
        "plain_s": plain,
        "traced_s": traced,
        "codes": codes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "blas": blas_info(numpy),
    }
    if tracer is not None:
        layers = tracer.metrics(len(traced))
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        result["layers"] = layers
        result["absent"] = tracer.absent
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2])))

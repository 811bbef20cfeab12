"""Store one pass of each workload, at the default seed, under reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

The stored files are the outputs the benchmark compares records against, so
regenerate them only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import gzip
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spinstar.cli import main as cli_main  # noqa: E402


def main(names) -> int:
    for name in names or workloads.NAMES:
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        parts = []
        with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE), prefix=".perfbench-") as tmp:
            for i, call in enumerate(workload.calls):
                output = os.path.join(tmp, f"call{i}.{call.fmt}")
                if cli_main([*call.argv, "--output", output]) != 0:
                    raise SystemExit(f"{name}: {' '.join(call.argv)} failed")
                with open(output, encoding="ascii") as stream:
                    parts.append(stream.read())
        path = os.path.join(checks.REFERENCE_DIR, workload.reference)
        os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as stream:
            stream.write("".join(parts).encode("ascii"))
        print(f"{name}: {workload.records} records -> {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

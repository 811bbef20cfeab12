"""Correctness of the CLI's output records.

Every record is checked against the invariants any input must satisfy; at
the default seed it is also compared with the stored output of the seed
commit (reference/). A record that is missing, malformed, non-finite,
outside tolerance of the reference or breaks an invariant fails.
"""

from __future__ import annotations

import gzip
import json
import math
import os

TOL = 1e-9
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def cut_names(m: int) -> list[str]:
    return [f"neg_cut_{k}" for k in range(1, m + 1)]


def float_fields(m: int) -> list[str]:
    return ["epsilon", "eta", "t", "neg_multi", *cut_names(m), "ground_energy"]


def csv_header(m: int) -> str:
    return ",".join([*float_fields(m), "ground_degeneracy", "degenerate_cell"])


def parse(text: str, fmt: str, m: int) -> list[dict]:
    """Records of one CLI output; raises ValueError on a malformed output."""
    lines = text.splitlines()
    if fmt == "json":
        rows = [json.loads(line) for line in lines]
    else:
        if not lines or lines[0] != csv_header(m):
            raise ValueError("missing or unexpected CSV header")
        names = lines[0].split(",")
        rows = []
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != len(names):
                raise ValueError(f"row has {len(fields)} fields, expected {len(names)}")
            row = dict(zip(names, fields))
            row["degenerate_cell"] = {"true": True, "false": False}.get(row["degenerate_cell"])
            rows.append(row)
    records = []
    for row in rows:
        record = {name: float(row[name]) for name in float_fields(m)}
        record["ground_degeneracy"] = int(row["ground_degeneracy"])
        if not isinstance(row["degenerate_cell"], bool):
            raise ValueError(f"bad degenerate_cell {row['degenerate_cell']!r}")
        record["degenerate_cell"] = row["degenerate_cell"]
        records.append(record)
    return records


def geometric_mean(values: list[float]) -> float:
    if min(values) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def problem(record: dict, key, m: int, reference: dict | None) -> str | None:
    """Why a record fails, or None when it passes."""
    for name, expected in zip(("epsilon", "eta", "t"), key):
        if not abs(record[name] - expected) <= TOL:
            return f"{name}={record[name]!r}, expected {expected!r}"
    for name in float_fields(m):
        if not math.isfinite(record[name]):
            return f"{name} is not finite"
    cuts = [record[name] for name in cut_names(m)]
    if min(cuts + [record["neg_multi"]]) < 0.0:
        return "negative negativity"
    if max(cuts) - min(cuts) > TOL:
        return f"cuts differ by {max(cuts) - min(cuts):.3e}"
    if abs(record["neg_multi"] - geometric_mean(cuts)) > TOL:
        return "neg_multi is not the geometric mean of the cuts"
    if record["ground_degeneracy"] < 1:
        return "ground_degeneracy below 1"
    if record["degenerate_cell"] != (record["ground_degeneracy"] > 1):
        return "degenerate_cell disagrees with ground_degeneracy"
    if reference is not None:
        for name in float_fields(m):
            if not abs(record[name] - reference[name]) <= TOL:
                return f"{name}={record[name]!r}, reference {reference[name]!r}"
        for name in ("ground_degeneracy", "degenerate_cell"):
            if record[name] != reference[name]:
                return f"{name}={record[name]!r}, reference {reference[name]!r}"
    return None


def check_call(text: str | None, call, reference: list[dict] | None) -> list[str]:
    """One failure reason per failed record of one CLI call (text None: the call failed)."""
    expected = len(call.keys)
    if text is None:
        return ["call exited nonzero"] * expected
    try:
        records = parse(text, call.fmt, call.m)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc}"] * expected
    if len(records) > expected:
        return [f"{len(records)} records, expected {expected}"] * expected
    failures = []
    for i, key in enumerate(call.keys):
        if i >= len(records):
            failures.append(f"record {i} missing")
            continue
        reason = problem(records[i], key, call.m, None if reference is None else reference[i])
        if reason is not None:
            failures.append(f"record {i}: {reason}")
    return failures


def load_reference(workload) -> tuple[str, list[dict]] | None:
    """Text and records of the stored pass, or None when the workload has none."""
    if workload.reference is None:
        return None
    with gzip.open(os.path.join(REFERENCE_DIR, workload.reference), "rt", encoding="ascii") as stream:
        text = stream.read()
    records = parse(text, workload.calls[0].fmt, workload.m)
    if len(records) != workload.records:
        raise ValueError(f"reference {workload.reference} holds {len(records)} records, "
                         f"expected {workload.records}")
    return text, records

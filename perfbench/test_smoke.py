"""Smoke test of the benchmark on a tiny grid.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    name="tiny", m=3,
    calls=(workloads.sweep_call(3, "0.5:1.5:3", "0.5:1.5:3", "0,5"),),
    setup=workloads.sweep_setup(3), reference=None)


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def assert_schema(result, entries):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= TINY.records
    assert set(result["metrics"]) == {entry["name"] for entry in entries}
    for entry in entries:
        metric = result["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)


def test_end_to_end_schema(declared):
    result, detail = run.run(TINY, seconds=0.1, trace=False)
    assert_schema(result, declared["end_to_end"])
    assert all(result["metrics"][name]["value"] > 0 for name in result["metrics"])
    assert detail["failed_frac"] == 0.0 and detail["passes_identical"]
    assert set(detail["environment"]) >= {"python", "numpy", "blas", "thread_variables",
                                          "nproc", "cpu_model", "git_head"}


def test_per_layer_schema(declared, tmp_path):
    result, detail = run.run(TINY, seconds=0.1, trace=True)
    assert_schema(result, declared["per_layer"])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["sweep.evaluate_cell.calls"] == 9
    assert metrics["entanglement.negativity.calls"] == 54
    assert detail["absent_spans"] == []
    called = [name[:-len(".calls")] for name in metrics
              if name.endswith(".calls") and metrics[name] > 0]
    assert all(metrics[f"{span}.self_s"] > 0 for span in called)
    # child spans are subtracted: the CLI's own time is a sliver of the pass
    assert metrics["cli.main.self_s"] < 0.5 * min(detail["traced_pass_s"])

    from spinstar.cli import main as cli_main

    output = tmp_path / "tiny.csv"
    assert cli_main([*TINY.calls[0].argv, "--output", str(output)]) == 0
    records = checks.parse(output.read_text(encoding="ascii"), "csv", 3)
    zero_cuts = sum(record[name] == 0.0 for record in records for name in checks.cut_names(3))
    assert metrics["entanglement.negativity.zero"] == zero_cuts > 0
    # one record per cell at each of the two temperatures
    degenerate = sum(record["degenerate_cell"] for record in records) / 2
    assert metrics["spectra.ground_manifold.degenerate"] == degenerate > 0


def test_perturbed_record_counts_in_failed_frac(tmp_path):
    from spinstar.cli import main as cli_main

    call = TINY.calls[0]
    assert cli_main([*call.argv, "--output", str(tmp_path / "pass0_call0.csv")]) == 0
    lines = (tmp_path / "pass0_call0.csv").read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    row = lines[4].split(",")
    cut = header.index("neg_cut_2")
    row[cut] = repr(float(row[cut]) + 1e-6)
    lines[4] = ",".join(row)
    (tmp_path / "pass0_call0.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

    outcome = run.check_outputs(TINY, {"passes": 1, "codes": [0]}, str(tmp_path))
    assert len(outcome["failures"]) == 1
    assert len(outcome["failures"]) / outcome["attempted"] == pytest.approx(1 / 18)

    failed_call = run.check_outputs(TINY, {"passes": 1, "codes": [2]}, str(tmp_path))
    assert len(failed_call["failures"]) == 18


GOOD = {"epsilon": 1.3, "eta": 0.7, "t": 0.1, "neg_multi": 0.2, "neg_cut_1": 0.2,
        "neg_cut_2": 0.2, "neg_cut_3": 0.2, "ground_energy": -1.5,
        "ground_degeneracy": 1, "degenerate_cell": False}


@pytest.mark.parametrize("change", [
    {"epsilon": 1.4},
    {"ground_energy": float("nan")},
    {"neg_cut_1": -0.1, "neg_cut_2": -0.1, "neg_cut_3": -0.1, "neg_multi": -0.1},
    {"neg_cut_1": 0.2 + 2e-9, "neg_cut_3": 0.2 - 2e-9},  # cuts differ, mean unchanged
    {"neg_multi": 0.2 + 1e-8},
    {"degenerate_cell": True},
])
def test_each_invariant_fails_a_record(change):
    call = workloads.point_call(3, "1.3", "0.7", "0.1")
    assert checks.check_call(json.dumps(GOOD) + "\n", call, None) == []
    assert len(checks.check_call(json.dumps(dict(GOOD, **change)) + "\n", call, None)) == 1


def test_reference_mismatch_fails():
    call = workloads.point_call(3, "1.3", "0.7", "0.1")
    text = json.dumps(GOOD) + "\n"
    assert checks.check_call(text, call, [GOOD]) == []
    assert len(checks.check_call(text, call, [dict(GOOD, ground_energy=-1.5 + 1e-8)])) == 1
    assert len(checks.check_call(text, call, [dict(GOOD, ground_degeneracy=2)])) == 1


def test_missing_function_is_reported_absent(monkeypatch):
    import spinstar.cli
    import spinstar.thermal

    monkeypatch.delattr(spinstar.thermal, "zero_temperature_state")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spinstar.cli.main(["negativity", "--m", "3", "--epsilon", "1", "--eta", "0.5",
                                  "--t", "0.1", "--output", os.devnull]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == ["thermal.zero_temperature_state"]
    metrics = tracer.metrics(1)
    assert metrics["thermal.zero_temperature_state.calls"] == 0
    assert metrics["entanglement.negativity.calls"] == 3

import io
import json
import math

import numpy as np
import pytest

from spinstar import (
    SpinStarParams,
    SweepGrid,
    evaluate_point,
    run_sweep,
    sweep_records,
)
from spinstar.operators import MAX_M
from spinstar.sweep import write_records

HEADER_M3 = ("epsilon,eta,t,neg_multi,neg_cut_1,neg_cut_2,neg_cut_3,"
             "ground_energy,ground_degeneracy,degenerate_cell")


def csv_lines(records):
    stream = io.StringIO()
    write_records(records, stream)
    return stream.getvalue().splitlines()


def small_grid(**overrides):
    fields = dict(m=3, omega=1.0, epsilon_axis=(0.0, 1.0, 3), eta_axis=(0.0, 1.0, 2),
                  temperatures=(0.5, 0.01))
    fields.update(overrides)
    return SweepGrid(**fields)


def test_grid_validation():
    with pytest.raises(ValueError):
        small_grid(m=MAX_M + 1)
    with pytest.raises(ValueError):
        small_grid(m=1)
    with pytest.raises(ValueError):
        small_grid(epsilon_axis=(0.0, 1.0, 0))
    with pytest.raises(ValueError):
        small_grid(eta_axis=(2.0, 1.0, 3))
    with pytest.raises(ValueError):
        small_grid(temperatures=())
    with pytest.raises(ValueError):
        small_grid(temperatures=(0.5, -1.0))
    with pytest.raises(ValueError):
        small_grid(omega=0.0)
    with pytest.raises(ValueError, match="omega"):
        small_grid(omega=math.inf)
    # refused before any cell runs: the axis reaches past the energy bound
    with pytest.raises(ValueError, match="energy bound"):
        small_grid(epsilon_axis=(-1e150, 0.0, 3))


def test_single_cell_grid(tmp_path):
    path = tmp_path / "one.csv"
    grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(1.0, 1.0, 1), eta_axis=(0.5, 0.5, 1),
                     temperatures=(0.01,), output_path=str(path))
    run_sweep(grid)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == HEADER_M3


def test_row_order_is_lexicographic_in_t_eta_epsilon():
    records = sweep_records(small_grid(temperatures=(0.5, 0.01)))
    keys = [(r.t, r.eta, r.epsilon) for r in records]
    assert keys == sorted(keys)
    assert len(records) == 3 * 2 * 2


def test_sweep_matches_single_point_evaluation():
    grid = small_grid(temperatures=(0.01,))
    records = sweep_records(grid)
    probe = next(r for r in records if r.epsilon == 1.0 and r.eta == 1.0)
    single = evaluate_point(SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=1.0), 0.01)
    assert csv_lines([probe]) == csv_lines([single])


def test_repeated_runs_are_byte_identical(tmp_path):
    texts = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.csv"
        grid = SweepGrid(m=4, omega=1.0, epsilon_axis=(0.0, 3.0, 3), eta_axis=(0.0, 3.0, 3),
                         temperatures=(0.1,), output_path=str(path))
        run_sweep(grid)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_csv_schema_matches_m():
    def header(m):
        return csv_lines([evaluate_point(SpinStarParams(m=m, omega=1.0, epsilon=1.0, eta=0.5),
                                         0.1)])[0]

    assert header(3) == HEADER_M3
    assert "neg_cut_5" in header(5)


def test_degenerate_cells_are_flagged():
    grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(1.0, 1.0, 1), eta_axis=(0.5, 2.0, 2),
                     temperatures=(0.0,))
    records = sweep_records(grid)
    by_eta = {r.eta: r for r in records}
    assert by_eta[0.5].ground_degeneracy == 1
    assert not by_eta[0.5].degenerate_cell
    assert by_eta[2.0].ground_degeneracy == 4
    assert by_eta[2.0].degenerate_cell


def test_zero_temperature_rows_use_ground_limit():
    grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(1.0, 1.0, 1), eta_axis=(2.0, 2.0, 1),
                     temperatures=(0.0, 0.01))
    records = sweep_records(grid)
    cold, frozen = records[1], records[0]
    assert frozen.t == 0.0
    assert abs(cold.neg_multi - frozen.neg_multi) < 1e-6


def test_json_records_roundtrip():
    grid = small_grid(temperatures=(0.2,))
    records = sweep_records(grid)
    stream = io.StringIO()
    write_records(records, stream, fmt="json")
    lines = stream.getvalue().splitlines()
    assert len(lines) == len(records)
    obj = json.loads(lines[0])
    assert set(obj) == {"epsilon", "eta", "t", "neg_multi", "neg_cut_1", "neg_cut_2",
                        "neg_cut_3", "ground_energy", "ground_degeneracy", "degenerate_cell"}
    assert isinstance(obj["degenerate_cell"], bool)


def test_write_records_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_records([], io.StringIO(), fmt="yaml")


def test_float_formatting_is_stable():
    from spinstar.sweep import format_float

    assert format_float(-0.0) == "0"
    assert format_float(0.1) == "0.1"
    assert format_float(1e-17) == "1e-17"
    assert len(format_float(np.pi).replace(".", "").replace("-", "")) <= 12


def test_negativity_vs_eta_dips_then_plateaus():
    # epsilon = omega: the curve falls on the way to the crossing and is flat past it
    etas = np.round(np.arange(0.0, 2.0 + 1e-12, 0.1), 10)
    values = []
    for eta in etas:
        values.append(evaluate_point(SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=float(eta)),
                                     0.01).neg_multi)
    values = np.array(values)
    diffs = np.diff(values)
    assert diffs.min() <= -1e-3
    tail = values[etas > 1.0]
    assert tail.max() - tail.min() <= 1e-3


def test_full_grid_row_count_and_crossing_column(tmp_path):
    path = tmp_path / "fig_grid.csv"
    grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(0.0, 10.0, 41), eta_axis=(0.0, 10.0, 41),
                     temperatures=(0.01,), output_path=str(path))
    records = run_sweep(grid)
    assert len(path.read_text().splitlines()) == 1 + 1681
    values = np.array([r.neg_multi for r in records]).reshape(41, 41)  # [eta, eps]
    eta_one = values[4, :]  # eta = 1.0 on the 0.25-step axis
    drops = np.maximum.accumulate(eta_one) - eta_one
    rises = np.maximum.accumulate(eta_one[::-1])[::-1] - eta_one
    assert np.any((drops >= 1e-3) & (rises >= 1e-3))


def test_axis_sweeps_each_coupling_alone_entangles():
    ring_only = SweepGrid(m=3, omega=1.0, epsilon_axis=(0.0, 0.0, 1),
                          eta_axis=(0.0, 10.0, 11), temperatures=(0.01,))
    star_only = SweepGrid(m=3, omega=1.0, epsilon_axis=(0.0, 10.0, 11),
                          eta_axis=(0.0, 0.0, 1), temperatures=(0.01,))
    for grid in (ring_only, star_only):
        values = np.array([r.neg_multi for r in sweep_records(grid)])
        assert values.min() >= 0.0
        assert values.max() > 0.0


def test_high_temperature_grid_washes_out():
    def grid_max(t):
        grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(0.0, 10.0, 11),
                         eta_axis=(0.0, 10.0, 11), temperatures=(t,))
        return max(r.neg_multi for r in sweep_records(grid))

    assert grid_max(5.0) < grid_max(0.01)

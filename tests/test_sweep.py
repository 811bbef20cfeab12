import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from spinstar import (
    SpinStarParams,
    SweepGrid,
    evaluate_point,
    sweep_records,
)
from spinstar.operators import MAX_M
from spinstar import sweep
from spinstar.sweep import MAX_SWEEP_RECORDS, open_output, write_records

HEADER_M3 = ("epsilon,eta,t,neg_multi,neg_cut_1,neg_cut_2,neg_cut_3,"
             "ground_energy,ground_degeneracy,degenerate_cell")


def csv_lines(columns):
    stream = io.StringIO()
    write_records(columns, stream)
    return stream.getvalue().splitlines()


def per_cut(columns, row=0):
    """The neg_cut_k values of one row, k = 1..m."""
    return [values[row] for name, values in columns.items() if name.startswith("neg_cut_")]


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
    with pytest.raises(ValueError, match="integer"):
        small_grid(epsilon_axis=(0.0, 1.0, 2.5))
    with pytest.raises(ValueError, match="integer"):
        small_grid(eta_axis=(0.0, 1.0, 3.0))
    with pytest.raises(ValueError, match="integer"):
        small_grid(m=3.0)
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
    # refused before the axes are allocated: every record is held until it is written
    with pytest.raises(ValueError, match="MAX_SWEEP_RECORDS"):
        small_grid(epsilon_axis=(0.0, 1.0, 10 ** 12), eta_axis=(0.0, 1.0, 1))
    with pytest.raises(ValueError, match="MAX_SWEEP_RECORDS"):
        small_grid(epsilon_axis=(0.0, 1.0, MAX_SWEEP_RECORDS // 2 + 1), eta_axis=(0.0, 1.0, 1))
    small_grid(epsilon_axis=(0.0, 1.0, MAX_SWEEP_RECORDS // 2), eta_axis=(0.0, 1.0, 1))


def test_single_cell_grid(tmp_path):
    path = tmp_path / "one.csv"
    grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(1.0, 1.0, 1), eta_axis=(0.5, 0.5, 1),
                     temperatures=(0.01,))
    with open_output(str(path)) as stream:
        write_records(sweep_records(grid), stream)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == HEADER_M3


def test_row_order_is_lexicographic_in_t_eta_epsilon():
    columns = sweep_records(small_grid(temperatures=(0.5, 0.01)))
    keys = list(zip(columns["t"], columns["eta"], columns["epsilon"]))
    assert keys == sorted(keys)
    assert {len(values) for values in columns.values()} == {3 * 2 * 2}


def test_sweep_matches_single_point_evaluation():
    grid = small_grid(temperatures=(0.01,))
    columns = sweep_records(grid)
    i = next(i for i, key in enumerate(zip(columns["epsilon"], columns["eta"])) if key == (1.0, 1.0))
    single = evaluate_point(SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=1.0), 0.01)
    assert csv_lines({name: values[i:i + 1] for name, values in columns.items()}) == csv_lines(single)


def test_repeated_runs_are_byte_identical(tmp_path):
    texts = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.csv"
        grid = SweepGrid(m=4, omega=1.0, epsilon_axis=(0.0, 3.0, 3), eta_axis=(0.0, 3.0, 3),
                         temperatures=(0.1,))
        with open_output(str(path)) as stream:
            write_records(sweep_records(grid), stream)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("m, temps, default", [
    # the default budget: one eigensolve of the 15 cells below m=8 (728 cells fit at m=3, 170 at
    # m=5, 28 at m=7) and two of 8 and 7 at m=8; Gibbs calls of every cell at once at m=3 (1213
    # states fit) and m=5 (127), of 2 cells at four temperatures at m=7 (10 states fit), and of one
    # cell at m=8 (2 states fit)
    (3, (0.0, 1e-15, 0.3, 2.0), (1, 1)),
    (5, (0.0, 1e-15, 0.3, 2.0), (1, 1)),
    (7, (0.0, 1e-15, 0.3, 2.0), (1, 8)),
    (8, (0.0, 0.3), (2, 15)),
], ids=["3", "5", "7", "8"])
def test_output_does_not_depend_on_the_stack_budget(monkeypatch, m, temps, default):
    # t = 0, t = 1e-15 and the epsilon = eta = 1 cells included, degenerate at odd m; from m=7 on the
    # largest sectors are solved in dihedral blocks
    grid = small_grid(m=m, epsilon_axis=(0.0, 2.0, 5), eta_axis=(0.0, 2.0, 3), temperatures=temps)
    texts, counts, calls = [], [], []
    for name in ("stacked_spectra", "reduced_state"):
        monkeypatch.setattr(sweep, name, lambda *args, call=getattr(sweep, name), name=name:
                            calls.append(name) or call(*args))
    for budget in (1, sweep.MAX_STACK_BYTES, 10 ** 9):
        monkeypatch.setattr(sweep, "MAX_STACK_BYTES", budget)
        calls.clear()
        texts.append("\n".join(csv_lines(sweep_records(grid))))
        counts.append((calls.count("stacked_spectra"), calls.count("reduced_state")))
    # one cell per eigensolve and one state per Gibbs call, then the whole grid in one of each
    assert counts[0] == (15, 15 * len(temps)) and counts[2] == (1, 1)
    assert counts[1] == default
    assert texts[0] == texts[1] == texts[2]
    columns = sweep_records(grid)
    assert any(flag and eps == eta == 1.0 for flag, eps, eta
               in zip(columns["degenerate_cell"], columns["epsilon"], columns["eta"])) == (m % 2 == 1)


def test_an_m3_sweep_solves_cut_zero_once_per_gibbs_call(monkeypatch):
    # the paper's 41 x 41 map at four temperatures: each _spectra call holds a whole Gibbs call's states,
    # and every per-cut call of evaluate_cell is a lookup
    from spinstar import entanglement

    grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(0.0, 10.0, 41), eta_axis=(0.0, 10.0, 41),
                     temperatures=(0.01, 0.1, 1.0, 5.0))
    shapes, states = [], []
    solve, gibbs = entanglement._spectra, sweep.reduced_state
    monkeypatch.setattr(entanglement, "_spectra", lambda blocks, split: shapes.append(blocks.shape[:2]) or
                        solve(blocks, split))
    monkeypatch.setattr(sweep, "reduced_state", lambda *args: states.append(len(args[0]) * len(args[2])) or
                        gibbs(*args))
    sweep_records(grid)
    layout = [shape for _, shape, _ in entanglement._cut(3, entanglement.SYMMETRY_MIN_DIM, 0)[3]]
    assert len(states) == 7 and sum(states) == 41 * 41 * 4
    assert shapes == [(count, shape[0]) for count in states for shape in layout]


def test_a_sweep_holds_at_most_a_few_budgets_over_one_lone_cell(monkeypatch):
    # tracemalloc's peak of an m=8 sweep of 16 cells at two temperatures: the stack's spectra, the
    # last stack's still read by its last cell, and one Gibbs call each fit MAX_STACK_BYTES, on top
    # of what one lone cell holds; at the default budget it reads 1.7 budgets over the lone cell
    grid = SweepGrid(m=8, omega=1.0, epsilon_axis=(0.5, 2.0, 4), eta_axis=(0.5, 2.0, 4),
                     temperatures=(0.1, 1.0))
    lone = SweepGrid(m=8, omega=1.0, epsilon_axis=(0.5, 0.5, 1), eta_axis=(0.5, 0.5, 1),
                     temperatures=(0.1,))
    sweep_records(lone)  # the m=8 caches (sectors, dihedral blocks, cut indices) outside the traces

    def peak(grid):
        tracemalloc.start()
        try:
            sweep_records(grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for budget in (sweep.MAX_STACK_BYTES, 4 * sweep.MAX_STACK_BYTES):
        monkeypatch.setattr(sweep, "MAX_STACK_BYTES", budget)
        assert peak(grid) <= 3 * budget + peak(lone)


def test_csv_schema_matches_m():
    def header(m):
        return csv_lines(evaluate_point(SpinStarParams(m=m, omega=1.0, epsilon=1.0, eta=0.5),
                                        0.1))[0]

    assert header(3) == HEADER_M3
    assert "neg_cut_5" in header(5)


def test_degenerate_cells_are_flagged():
    grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(1.0, 1.0, 1), eta_axis=(0.5, 2.0, 2),
                     temperatures=(0.0,))
    columns = sweep_records(grid)
    by_eta = {eta: i for i, eta in enumerate(columns["eta"])}
    assert columns["ground_degeneracy"][by_eta[0.5]] == 1
    assert not columns["degenerate_cell"][by_eta[0.5]]
    assert columns["ground_degeneracy"][by_eta[2.0]] == 4
    assert columns["degenerate_cell"][by_eta[2.0]]


def test_zero_temperature_rows_use_ground_limit():
    grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(1.0, 1.0, 1), eta_axis=(2.0, 2.0, 1),
                     temperatures=(0.0, 0.01))
    columns = sweep_records(grid)
    (frozen, cold), (frozen_t, _) = columns["neg_multi"], columns["t"]
    assert frozen_t == 0.0
    assert abs(cold - frozen) < 1e-6


def test_json_records_roundtrip():
    grid = small_grid(temperatures=(0.2,))
    columns = sweep_records(grid)
    stream = io.StringIO()
    write_records(columns, stream, fmt="json")
    lines = stream.getvalue().splitlines()
    assert len(lines) == len(columns["t"])
    obj = json.loads(lines[0])
    assert set(obj) == {"epsilon", "eta", "t", "neg_multi", "neg_cut_1", "neg_cut_2",
                        "neg_cut_3", "ground_energy", "ground_degeneracy", "degenerate_cell"}
    assert isinstance(obj["degenerate_cell"], bool)


def test_write_records_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_records({}, io.StringIO(), fmt="yaml")


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
                                     0.01)["neg_multi"][0])
    values = np.array(values)
    diffs = np.diff(values)
    assert diffs.min() <= -1e-3
    tail = values[etas > 1.0]
    assert tail.max() - tail.min() <= 1e-3


def test_full_grid_row_count_and_crossing_column(tmp_path):
    path = tmp_path / "fig_grid.csv"
    grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(0.0, 10.0, 41), eta_axis=(0.0, 10.0, 41),
                     temperatures=(0.01,))
    columns = sweep_records(grid)
    with open_output(str(path)) as stream:
        write_records(columns, stream)
    assert len(path.read_text().splitlines()) == 1 + 1681
    values = np.array(columns["neg_multi"]).reshape(41, 41)  # [eta, eps]
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
        values = np.array(sweep_records(grid)["neg_multi"])
        assert values.min() >= 0.0
        assert values.max() > 0.0


def test_high_temperature_grid_washes_out():
    def grid_max(t):
        grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(0.0, 10.0, 11),
                         eta_axis=(0.0, 10.0, 11), temperatures=(t,))
        return max(sweep_records(grid)["neg_multi"])

    assert grid_max(5.0) < grid_max(0.01)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e6, 1e12])
def test_results_do_not_depend_on_the_energy_unit(m, scale):
    # t is in units of omega, so scaling (omega, epsilon, eta) together changes nothing
    for t in (0.0, 0.01, 0.3):
        unit = evaluate_point(SpinStarParams(m=m, omega=1.0, epsilon=1.0, eta=0.5), t)
        scaled = evaluate_point(SpinStarParams(m=m, omega=scale, epsilon=scale, eta=0.5 * scale), t)
        assert scaled["ground_degeneracy"] == unit["ground_degeneracy"] == [1]
        assert abs(scaled["neg_multi"][0] - unit["neg_multi"][0]) <= 1e-12
        assert np.max(np.abs(np.subtract(per_cut(scaled), per_cut(unit)))) <= 1e-12

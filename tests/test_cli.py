import json
import math
import warnings

import numpy as np
import pytest

from spinstar import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_spectrum_six_fold_crossing(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--m", "3", "--epsilon", "1",
                             "--eta", "1", "--omega", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["index", "eigenvalue", "sector", "analytic", "abs_dev"]
    eigenvalues = np.array([float(r["eigenvalue"]) for r in rows])
    assert int(np.sum(np.abs(eigenvalues + 2.0) < 1e-9)) == 6
    assert max(float(r["abs_dev"]) for r in rows) < 1e-9
    assert "max_abs_deviation=" in err


def test_spectrum_free_spin_multiplicities(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--m", "3", "--epsilon", "0", "--eta", "0")
    assert code == 0
    _, rows = parse_csv(out)
    eigenvalues = np.round([float(r["eigenvalue"]) for r in rows], 9)
    values, counts = np.unique(eigenvalues, return_counts=True)
    assert list(values) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert list(counts) == [1, 4, 6, 4, 1]


def test_spectrum_m4_traceless(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--m", "4", "--epsilon", "1", "--eta", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert "analytic" not in header
    eigenvalues = [float(r["eigenvalue"]) for r in rows]
    assert len(eigenvalues) == 32
    assert abs(sum(eigenvalues)) < 1e-10


def test_spectrum_json_format(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--m", "3", "--epsilon", "2",
                           "--eta", "0.3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["eigenvalues"]) == 16
    assert payload["max_abs_deviation"] < 1e-9
    assert payload["sector_labels"][0] in range(5)


def test_negativity_uncoupled_is_zero(capsys):
    code, out, _ = run_cli(capsys, "negativity", "--m", "3", "--epsilon", "0",
                           "--eta", "0", "--t", "0.5")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["neg_multi"]) == 0.0


def test_negativity_cuts_agree_for_symmetric_state(capsys):
    code, out, _ = run_cli(capsys, "negativity", "--m", "3", "--epsilon", "1",
                           "--eta", "0.5", "--t", "0.01")
    assert code == 0
    _, rows = parse_csv(out)
    cuts = [float(rows[0][f"neg_cut_{k}"]) for k in (1, 2, 3)]
    assert max(cuts) - min(cuts) < 1e-10


def test_negativity_plateau_pair(capsys):
    values = []
    for eta in ("1.5", "2"):
        code, out, _ = run_cli(capsys, "negativity", "--m", "3", "--epsilon", "1",
                               "--eta", eta, "--t", "0.01")
        assert code == 0
        _, rows = parse_csv(out)
        values.append(float(rows[0]["neg_multi"]))
    assert abs(values[0] - values[1]) < 1e-3


def test_ground_nondegenerate_overlap(capsys):
    code, out, _ = run_cli(capsys, "ground", "--m", "3", "--epsilon", "1", "--eta", "0.5")
    assert code == 0
    _, rows = parse_csv(out)
    assert int(rows[0]["ground_degeneracy"]) == 1
    assert float(rows[0]["analytic_ground_fidelity"]) >= 1.0 - 1e-10


def test_ground_four_fold(capsys):
    code, out, _ = run_cli(capsys, "ground", "--m", "3", "--epsilon", "1", "--eta", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert int(rows[0]["ground_degeneracy"]) == 4
    assert float(rows[0]["ground_energy"]) == -3.0
    assert rows[0]["analytic_ground_fidelity"] == ""


def test_ground_six_fold(capsys):
    code, out, _ = run_cli(capsys, "ground", "--m", "3", "--epsilon", "1", "--eta", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ground_degeneracy"] == 6
    assert payload["ground_energy"] == pytest.approx(-2.0, abs=1e-12)
    assert payload["analytic_ground_fidelity"] is None


def test_sweep_writes_csv_file(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "sweep", "--m", "3", "--epsilon-range", "0:2:3",
                         "--eta-range", "0:2:3", "--temps", "0.01,0.5",
                         "--output", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 3 * 3 * 2
    assert lines[0].startswith("epsilon,eta,t,neg_multi")


def test_sweep_json_lines_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--m", "3", "--epsilon-range", "0:1:2",
                           "--eta-range", "0:1:2", "--temps", "0.1",
                           "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all("neg_multi" in json.loads(line) for line in lines)


def test_sweep_cell_matches_negativity_command(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "sweep", "--m", "3", "--epsilon-range", "0:2:3",
                         "--eta-range", "0:2:3", "--temps", "0.01", "--output", str(path))
    assert code == 0
    sweep_lines = path.read_text().splitlines()
    code, out, _ = run_cli(capsys, "negativity", "--m", "3", "--epsilon", "1",
                           "--eta", "2", "--t", "0.01")
    assert code == 0
    row = out.strip().splitlines()[1]
    assert row in sweep_lines


def test_one_cell_m9_sweep_matches_negativity_command(capsys):
    # sweeps share the point commands' m ceiling
    code, sweep_out, _ = run_cli(capsys, "sweep", "--m", "9", "--epsilon-range", "1:1:1",
                                 "--eta-range", "1:1:1", "--temps", "0.1")
    assert code == 0
    code, point_out, _ = run_cli(capsys, "negativity", "--m", "9", "--epsilon", "1",
                                 "--eta", "1", "--t", "0.1")
    assert code == 0
    assert sweep_out == point_out and len(sweep_out.splitlines()) == 2


@pytest.mark.parametrize("omega, t", [
    ("1e-300", "1e-30"),  # t * omega underflows to 0: the t -> 0+ limit
    ("1e-300", "1e-15"),  # every gap / (t * omega) overflows: weight 0 above the ground level
    ("1e10", "1e300"),  # t * omega overflows to inf: the maximally mixed state
])
def test_extreme_thermal_energy_gives_finite_equal_cuts(capsys, omega, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "negativity", "--m", "3", "--omega", omega,
                                 "--epsilon", "1", "--eta", "1", "--t", t)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    values = {name: float(value) for name, value in rows[0].items() if name != "degenerate_cell"}
    assert all(math.isfinite(value) for value in values.values())
    cuts = [values[f"neg_cut_{k}"] for k in (1, 2, 3)]
    assert max(cuts) - min(cuts) <= 1e-12


def test_invalid_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_bad_range_string_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep", "--epsilon-range", "0:10", "--eta-range", "0:10:3",
                  "--temps", "0.1"])
    assert excinfo.value.code == 2


def test_invalid_params_return_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--m", "1")
    assert code == 2
    assert "error:" in err
    code, _, _ = run_cli(capsys, "negativity", "--m", "3", "--t", "-1")
    assert code == 2
    code, _, _ = run_cli(capsys, "spectrum", "--omega", "-2")
    assert code == 2


SWEEP = ("sweep", "--m", "3", "--epsilon-range", "0:1:2", "--eta-range", "0:1:2")


@pytest.mark.parametrize("argv, named", [
    pytest.param(("negativity", "--t", "nan"), "temperature must be finite and >= 0, got nan",
                 id="t-nan"),
    pytest.param(("negativity", "--t", "inf"), "temperature must be finite and >= 0, got inf",
                 id="t-inf"),
    pytest.param((*SWEEP, "--temps", "0.1,nan"), "temperature must be finite and >= 0, got nan",
                 id="temps-nan"),
    pytest.param(("sweep", "--m", "3", "--epsilon-range", "0:inf:3", "--eta-range", "0:1:2",
                  "--temps", "0.1"), "epsilon axis bounds must be finite, got 0.0:inf",
                 id="epsilon-range-inf"),
    # never evaluated: m above MAX_M is refused before any matrix is built
    pytest.param(("spectrum", "--m", "13"), "got m=13", id="spectrum-m13"),
    pytest.param(("negativity", "--m", "13", "--t", "0.1"), "got m=13", id="negativity-m13"),
    pytest.param(("ground", "--m", "40"), "got m=40", id="ground-m40"),
    pytest.param(("sweep", "--m", "12", "--epsilon-range", "0:1:2", "--eta-range", "0:1:2",
                  "--temps", "0.1"), "got m=12", id="sweep-m12"),
    # couplings past the energy bound, which the m=3 closed forms would square
    pytest.param(("spectrum", "--m", "3", "--epsilon", "1e155", "--eta", "1"),
                 "epsilon=1e+155", id="spectrum-epsilon-1e155"),
    pytest.param(("ground", "--m", "3", "--epsilon", "1e155", "--eta", "0"),
                 "epsilon=1e+155", id="ground-epsilon-1e155"),
    pytest.param(("negativity", "--m", "4", "--epsilon", "1e308", "--eta", "1e308", "--t", "0"),
                 "epsilon=1e+308, eta=1e+308", id="negativity-t0-couplings-1e308"),
    pytest.param(("sweep", "--m", "4", "--epsilon-range", "1e308:1e308:1",
                  "--eta-range", "1e308:1e308:1", "--temps", "0"),
                 "epsilon=1e+308, eta=1e+308", id="sweep-couplings-1e308"),
    pytest.param(("negativity", "--m", "3", "--epsilon", "1e308", "--eta", "1e308", "--t", "1"),
                 "epsilon=1e+308, eta=1e+308", id="negativity-t1-couplings-1e308"),
])
def test_out_of_range_inputs_exit_2_up_front(capsys, argv, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and named in err


def test_unwritable_output_returns_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "ground", "--output", str(tmp_path / "no" / "dir.csv"))
    assert code == 2
    assert "error:" in err


def test_numerical_invariant_maps_to_exit_3(monkeypatch, capsys):
    from spinstar.entanglement import NumericalInvariantError

    def boom(params, t):
        raise NumericalInvariantError("synthetic violation")

    monkeypatch.setattr(cli, "evaluate_point", boom)
    code, _, err = run_cli(capsys, "negativity", "--m", "3", "--epsilon", "1",
                           "--eta", "1", "--t", "0.1")
    assert code == 3
    assert "invariant" in err


# Golden output: the exact bytes every command writes, one writer for all of them.

GOLDEN_CSV = [
    # nondegenerate m=3 ground state: the closed-form fidelity is filled in
    pytest.param(("ground", "--m", "3", "--epsilon", "1", "--eta", "0.5"),
                 "m,omega,epsilon,eta,ground_energy,ground_degeneracy,analytic_ground_fidelity\n"
                 "3,1,1,0.5,-2.30277563773,1,1\n", id="ground-m3"),
    # no closed form at m=4: the fidelity field is empty
    pytest.param(("ground", "--m", "4", "--epsilon", "1", "--eta", "2"),
                 "m,omega,epsilon,eta,ground_energy,ground_degeneracy,analytic_ground_fidelity\n"
                 "4,1,1,2,-6.17558231893,1,\n", id="ground-m4"),
    pytest.param(("spectrum", "--m", "2", "--epsilon", "1", "--eta", "0.5"),
                 "index,eigenvalue,sector\n0,-1.5,1\n1,-1.5,0\n2,-1.5,1\n3,-0.5,2\n"
                 "4,-0.5,2\n5,1.5,3\n6,1.5,1\n7,2.5,2\n", id="spectrum-m2"),
    pytest.param(("negativity", "--m", "3", "--epsilon", "1", "--eta", "0.5", "--t", "0.1"),
                 "epsilon,eta,t,neg_multi,neg_cut_1,neg_cut_2,neg_cut_3,ground_energy,"
                 "ground_degeneracy,degenerate_cell\n"
                 "1,0.5,0.1,0.0757379250809,0.0757379250809,0.0757379250809,0.0757379250809,"
                 "-2.30277563773,1,false\n", id="negativity-m3"),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_CSV)
def test_golden_csv_bytes(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_golden_spectrum_m3_header(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--m", "3", "--epsilon", "1", "--eta", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,eigenvalue,sector,analytic,abs_dev"
    assert lines[1] == "0,-2.30277563773,1,-2.30277563773,0"
    assert len(lines) == 17
    assert err.startswith("max_abs_deviation=")


@pytest.mark.parametrize("argv, types", [
    (("ground", "--m", "3", "--epsilon", "1", "--eta", "0.5"),
     {"m": int, "omega": float, "epsilon": float, "eta": float, "ground_energy": float,
      "ground_degeneracy": int, "analytic_ground_fidelity": float}),
    (("ground", "--m", "4", "--epsilon", "1", "--eta", "2"),
     {"m": int, "omega": float, "epsilon": float, "eta": float, "ground_energy": float,
      "ground_degeneracy": int, "analytic_ground_fidelity": type(None)}),
    (("negativity", "--m", "3", "--epsilon", "1", "--eta", "0.5", "--t", "0.1"),
     {"epsilon": float, "eta": float, "t": float, "neg_multi": float, "neg_cut_1": float,
      "neg_cut_2": float, "neg_cut_3": float, "ground_energy": float,
      "ground_degeneracy": int, "degenerate_cell": bool}),
])
def test_golden_json_keys_and_types(capsys, argv, types):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 and out.endswith("\n")
    payload = json.loads(lines[0])
    assert list(payload) == list(types)
    assert {key: type(value) for key, value in payload.items()} == types

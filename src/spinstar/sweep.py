"""Deterministic parameter-grid sweeps over (epsilon, eta, t).

Grid cells are pure functions of their inputs and are evaluated one after
another; rows are written in canonical order (lexicographic by t, then eta,
then epsilon), so the output is byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .entanglement import multipartite_negativity
from .operators import MAX_M, SpinStarParams
from .spectra import ground_manifold
from .thermal import check_temperature, reduced_state, star_spectrum


@dataclass(frozen=True)
class SweepGrid:
    """Axes of a sweep: (min, max, count) per coupling plus a temperature list."""

    m: int
    omega: float
    epsilon_axis: tuple[float, float, int]
    eta_axis: tuple[float, float, int]
    temperatures: tuple[float, ...]
    output_path: str = "-"

    def __post_init__(self):
        if not 2 <= self.m <= MAX_M:
            raise ValueError(f"sweep supports 2 <= m <= {MAX_M}, got m={self.m}")
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        for name, axis in (("epsilon", self.epsilon_axis), ("eta", self.eta_axis)):
            lo, hi, count = axis
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} axis bounds must be finite, got {lo}:{hi}")
            if count < 1:
                raise ValueError(f"{name} axis needs count >= 1, got {count}")
            if lo > hi:
                raise ValueError(f"{name} axis has min {lo} > max {hi}")
        if not self.temperatures:
            raise ValueError("at least one temperature is required")
        for t in self.temperatures:
            check_temperature(t)


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated (epsilon, eta, t) cell."""

    epsilon: float
    eta: float
    t: float
    neg_multi: float
    per_cut: tuple[float, ...]
    ground_energy: float
    ground_degeneracy: int
    degenerate_cell: bool


def axis_values(axis: tuple[float, float, int]) -> np.ndarray:
    lo, hi, count = axis
    return np.linspace(lo, hi, count)


def evaluate_cell(m: int, omega: float, epsilon: float, eta: float,
                  temperatures) -> list[SweepRecord]:
    """All requested temperatures for one coupling pair, one diagonalization."""
    params = SpinStarParams(m=m, omega=omega, epsilon=epsilon, eta=eta)
    for t in temperatures:
        check_temperature(t)
    spec = star_spectrum(params)
    manifold = ground_manifold(spec)
    records = []
    for t in temperatures:
        report = multipartite_negativity(reduced_state(spec, params, t), m)
        records.append(SweepRecord(
            epsilon=float(epsilon),
            eta=float(eta),
            t=float(t),
            neg_multi=report.multipartite,
            per_cut=report.per_cut,
            ground_energy=manifold.energy,
            ground_degeneracy=manifold.degeneracy,
            degenerate_cell=manifold.degeneracy > 1,
        ))
    return records


def evaluate_point(params: SpinStarParams, t: float) -> SweepRecord:
    """Single-cell evaluation; shares the code path used by grid sweeps."""
    return evaluate_cell(params.m, params.omega, params.epsilon, params.eta, (t,))[0]


def sweep_records(grid: SweepGrid) -> list[SweepRecord]:
    """Evaluate every grid cell; rows ordered lexicographically by (t, eta, epsilon)."""
    eps_values = axis_values(grid.epsilon_axis)
    temps = tuple(sorted(grid.temperatures))
    per_cell = [evaluate_cell(grid.m, grid.omega, eps, eta, temps)
                for eta in axis_values(grid.eta_axis) for eps in eps_values]
    return [cell[t_index] for t_index in range(len(temps)) for cell in per_cell]


def format_float(value: float) -> str:
    """12 significant digits; normalizes negative zero for stable diffs."""
    return f"{float(value) + 0.0:.12g}"


def csv_header(m: int) -> str:
    cut_names = ",".join(f"neg_cut_{k}" for k in range(1, m + 1))
    return f"epsilon,eta,t,neg_multi,{cut_names},ground_energy,ground_degeneracy,degenerate_cell"


def record_to_csv(record: SweepRecord) -> str:
    fields = [
        format_float(record.epsilon),
        format_float(record.eta),
        format_float(record.t),
        format_float(record.neg_multi),
        *(format_float(value) for value in record.per_cut),
        format_float(record.ground_energy),
        str(record.ground_degeneracy),
        "true" if record.degenerate_cell else "false",
    ]
    return ",".join(fields)


def record_to_json(record: SweepRecord) -> str:
    obj = {
        "epsilon": record.epsilon,
        "eta": record.eta,
        "t": record.t,
        "neg_multi": record.neg_multi,
    }
    for k, value in enumerate(record.per_cut, start=1):
        obj[f"neg_cut_{k}"] = value
    obj["ground_energy"] = record.ground_energy
    obj["ground_degeneracy"] = record.ground_degeneracy
    obj["degenerate_cell"] = record.degenerate_cell
    return json.dumps(obj)


def write_records(records, m: int, stream, fmt: str = "csv") -> None:
    if fmt == "csv":
        stream.write(csv_header(m) + "\n")
        for record in records:
            stream.write(record_to_csv(record) + "\n")
    elif fmt == "json":
        for record in records:
            stream.write(record_to_json(record) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


@contextlib.contextmanager
def open_output(path: str):
    """Text stream for path, or stdout for '-'."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii") as stream:
            yield stream


def run_sweep(grid: SweepGrid, fmt: str = "csv") -> list[SweepRecord]:
    """Evaluate the grid and write it to grid.output_path ('-' for stdout)."""
    records = sweep_records(grid)
    with open_output(grid.output_path) as stream:
        write_records(records, grid.m, stream, fmt)
    return records

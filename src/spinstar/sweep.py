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
from .operators import SpinStarParams
from .spectra import ground_manifold
from .thermal import check_temperature, reduced_state, star_spectrum

# A sweep holds every record until it writes them, about 350 B each at m=3 and
# 500 B at m=11 (tracemalloc): this keeps a sweep's records under 0.5 GB.
MAX_SWEEP_RECORDS = 10 ** 6


@dataclass(frozen=True)
class SweepGrid:
    """Axes of a sweep: (min, max, count) per coupling plus a temperature list."""

    m: int
    omega: float
    epsilon_axis: tuple[float, float, int]
    eta_axis: tuple[float, float, int]
    temperatures: tuple[float, ...]

    def __post_init__(self):
        for name, axis in (("epsilon", self.epsilon_axis), ("eta", self.eta_axis)):
            lo, hi, count = axis
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} axis bounds must be finite, got {lo}:{hi}")
            if count < 1:
                raise ValueError(f"{name} axis needs count >= 1, got {count}")
            if lo > hi:
                raise ValueError(f"{name} axis has min {lo} > max {hi}")
        records = self.epsilon_axis[2] * self.eta_axis[2] * len(self.temperatures)
        if records > MAX_SWEEP_RECORDS:
            raise ValueError(f"{records} records exceed MAX_SWEEP_RECORDS={MAX_SWEEP_RECORDS}")
        # the largest |coupling| of each axis: no cell can then fail the parameter checks
        SpinStarParams(self.m, self.omega, max(map(abs, self.epsilon_axis[:2])),
                       max(map(abs, self.eta_axis[:2])))
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

    def row(self) -> dict:
        """Output fields in column order, one neg_cut_k per peripheral spin."""
        row = {"epsilon": self.epsilon, "eta": self.eta, "t": self.t, "neg_multi": self.neg_multi}
        for k, value in enumerate(self.per_cut, start=1):
            row[f"neg_cut_{k}"] = value
        row.update(ground_energy=self.ground_energy, ground_degeneracy=self.ground_degeneracy,
                   degenerate_cell=self.degenerate_cell)
        return row


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


def format_field(value) -> str:
    """One CSV field: None is empty, a bool is true/false, a number goes through format_float."""
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    return format_float(value)


def write_rows(rows, stream, fmt: str = "csv") -> None:
    """Write dicts as CSV, headed by the first row's keys, or as JSON lines."""
    if fmt == "json":
        for row in rows:
            stream.write(json.dumps(row) + "\n")
    elif fmt == "csv":
        for i, row in enumerate(rows):
            if i == 0:
                stream.write(",".join(row) + "\n")
            stream.write(",".join(map(format_field, row.values())) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def write_records(records, stream, fmt: str = "csv") -> None:
    write_rows((record.row() for record in records), stream, fmt)


@contextlib.contextmanager
def open_output(path: str):
    """Text stream for path, or stdout for '-'."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii") as stream:
            yield stream

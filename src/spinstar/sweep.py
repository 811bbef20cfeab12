"""Deterministic parameter-grid sweeps over (epsilon, eta, t).

Grid cells are pure functions of their inputs, solved and evaluated in
stacks (see stacks); rows are written in canonical order (lexicographic by
t, then eta, then epsilon), so the output is byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .entanglement import multipartite_negativity
from .operators import SpinStarParams, symmetry_hamiltonians
from .spectra import SpectralDecomposition, ground_manifold, stacked_spectra
from .thermal import check_temperature, reduced_state, star_spectrum

# A sweep holds every record until it writes them, about 350 B each at m=3 and
# 500 B at m=11 (tracemalloc): this keeps a sweep's records under 0.5 GB.
MAX_SWEEP_RECORDS = 10 ** 6

# A stacked eigh or Gibbs product holds about this many bytes: an item costs a
# cell's sector blocks, C(2m+2, m+1) floats, plus a reduced state, 4^m.  An m=3
# stack holds 61 cells and from m=6 on one.  1 MiB ran sweep-m3 0-9 % faster but
# raised its peak RSS from 35.3 to 38.6 MiB.
MAX_STACK_BYTES = 64 * 1024


def stacks(items, m: int) -> list:
    """items (cells or temperatures) in consecutive slices that fit MAX_STACK_BYTES."""
    size = max(1, MAX_STACK_BYTES // (8 * (math.comb(2 * m + 2, m + 1) + 4 ** m)))
    return [items[i:i + size] for i in range(0, len(items), size)]


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


def evaluate_cell(spec: SpectralDecomposition, params: SpinStarParams,
                  temperatures) -> list[SweepRecord]:
    """All requested temperatures for one coupling pair, from its star_spectrum."""
    manifold = ground_manifold(spec)
    records = []
    for chunk in stacks(temperatures, params.m):
        for t, rho in zip(chunk, reduced_state(spec, params, chunk)):
            report = multipartite_negativity(rho, params.m)
            records.append(SweepRecord(
                epsilon=float(params.epsilon), eta=float(params.eta), t=float(t),
                neg_multi=report.multipartite, per_cut=report.per_cut,
                ground_energy=manifold.energy, ground_degeneracy=manifold.degeneracy,
                degenerate_cell=manifold.degeneracy > 1))
    return records


def evaluate_point(params: SpinStarParams, t: float) -> SweepRecord:
    """Single-cell evaluation; shares the code path used by grid sweeps."""
    check_temperature(t)
    return evaluate_cell(star_spectrum(params), params, (t,))[0]


def sweep_records(grid: SweepGrid) -> list[SweepRecord]:
    """Evaluate every grid cell; rows ordered lexicographically by (t, eta, epsilon)."""
    eps_values = axis_values(grid.epsilon_axis)
    temps = tuple(sorted(grid.temperatures))
    cells = [SpinStarParams(grid.m, grid.omega, eps, eta)
             for eta in axis_values(grid.eta_axis) for eps in eps_values]
    per_cell = [evaluate_cell(spec, params, temps) for chunk in stacks(cells, grid.m)
                for spec, params in zip(stacked_spectra(symmetry_hamiltonians(chunk)), chunk)]
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

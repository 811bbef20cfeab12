"""Deterministic parameter-grid sweeps over (epsilon, eta, t).

Grid cells are pure functions of their inputs: each stack of them that fits MAX_STACK_BYTES is
diagonalized with one call and its Gibbs states formed with another (solve_stack), then each cell is
evaluated (evaluate_cell); rows are written in canonical order (lexicographic by t, eta, epsilon),
byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .entanglement import multipartite_negativity
from .operators import SpinStarParams, symmetry_hamiltonians
from .spectra import SpectralDecomposition, ground_manifold, stacked_spectra
from .thermal import check_temperature, reduced_state

# A sweep holds every record until it writes them, about 350 B each at m=3 and
# 500 B at m=11 (tracemalloc): this keeps a sweep's records under 0.5 GB.
MAX_SWEEP_RECORDS = 10 ** 6

# A stack holds about this many bytes: per cell, its sector blocks (C(2m+2, m+1) floats) and all its
# packed states (C(2m, m) floats per temperature); at four temperatures 54 m=3 cells, 4 at m=5 and
# one at m=6, and a lone cell overflows it from m=7 on.
# 1 MiB, with 4^m-float states, ran sweep-m3 0-9 % faster but raised its peak RSS from 35.3 to 38.6 MiB.
MAX_STACK_BYTES = 64 * 1024


def solve_stack(cells, temps):
    """Yield (spectrum, reduced states) per cell, from one stacked_spectra and one reduced_state call per
    stack of consecutive cells that fits MAX_STACK_BYTES; a lone cell that overflows it yields its
    states lazily, as many temperatures per reduced_state call as fit."""
    m = cells[0].m
    per_state = math.comb(2 * m, m)
    size = MAX_STACK_BYTES // (8 * (math.comb(2 * m + 2, m + 1) + len(temps) * per_state))
    for i in range(0, len(cells), max(1, size)):
        spectra = stacked_spectra(symmetry_hamiltonians(cells[i:i + max(1, size)]))
        if size:
            yield from zip(spectra, reduced_state(spectra, cells[0], temps))
        else:
            fit = max(1, MAX_STACK_BYTES // (8 * per_state))
            yield spectra[0], (rho for j in range(0, len(temps), fit)
                               for rho in reduced_state(spectra, cells[0], temps[j:j + fit])[0])


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
            try:
                operator.index(count)
            except TypeError:
                raise ValueError(f"{name} axis count must be an integer, got {count!r}") from None
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


def evaluate_cell(spec: SpectralDecomposition, params: SpinStarParams,
                  temperatures, states) -> list[SweepRecord]:
    """One record per temperature for a coupling pair, from its spectrum and its states (see solve_stack)."""
    manifold = ground_manifold(spec)
    records = []
    for t, rho in zip(temperatures, states):
        report = multipartite_negativity(rho, params.m)
        records.append(SweepRecord(
            epsilon=float(params.epsilon), eta=float(params.eta), t=float(t),
            neg_multi=report.multipartite, per_cut=report.per_cut,
            ground_energy=manifold.energy, ground_degeneracy=manifold.degeneracy,
            degenerate_cell=manifold.degeneracy > 1))
    return records


def evaluate_point(params: SpinStarParams, t: float) -> SweepRecord:
    """Single-cell evaluation, a stack of one; shares the code path used by grid sweeps."""
    check_temperature(t)
    [(spec, states)] = solve_stack([params], (t,))
    return evaluate_cell(spec, params, (t,), states)[0]


def sweep_records(grid: SweepGrid) -> list[SweepRecord]:
    """Evaluate every grid cell; rows ordered lexicographically by (t, eta, epsilon)."""
    eps_values = np.linspace(*grid.epsilon_axis)
    temps = tuple(sorted(grid.temperatures))
    cells = [SpinStarParams(grid.m, grid.omega, eps, eta)
             for eta in np.linspace(*grid.eta_axis) for eps in eps_values]
    per_cell = [evaluate_cell(spec, params, temps, states)
                for params, (spec, states) in zip(cells, solve_stack(cells, temps))]
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

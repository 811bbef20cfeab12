"""Deterministic parameter-grid sweeps over (epsilon, eta, t).

Grid cells are pure functions of their inputs: each stack of them that fits MAX_STACK_BYTES is
diagonalized with one call and its Gibbs states formed with another (solve_stack), then each cell is
evaluated into columns (evaluate_cell); write_records, the writer of every command, writes the rows in
canonical order (lexicographic by t, eta, epsilon), byte-identical across runs.
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

# A sweep holds every record until it writes them, about 170 B each at m=3 and
# 490 B at m=11 (tracemalloc): this keeps a sweep's records under 0.5 GB.
MAX_SWEEP_RECORDS = 10 ** 6

# A stack holds at most about this many bytes of packed states, C(2m, m) floats per cell and
# temperature: at four temperatures 102 m=3 cells, 8 at m=5 and 2 at m=6, and from m=7 on a lone
# cell overflows it. Its dihedral sector blocks are not counted: from m=3 on they hold no more floats
# than one of its states (20 against 20 at m=3, 116 against 252 at m=5).
MAX_STACK_BYTES = 64 * 1024


def solve_stack(cells, temps):
    """Yield (spectrum, reduced states) per cell. One rule sizes every stack: fit = MAX_STACK_BYTES // (8 *
    C(2m, m)) packed states go to one reduced_state call, so fit // len(temps) consecutive cells share a
    stacked_spectra and a reduced_state call; when that is 0, a lone cell yields its states lazily, fit
    temperatures per reduced_state call."""
    fit = max(1, MAX_STACK_BYTES // (8 * math.comb(2 * cells[0].m, cells[0].m)))
    size = fit // len(temps)
    for i in range(0, len(cells), max(1, size)):
        spectra = stacked_spectra(symmetry_hamiltonians(cells[i:i + max(1, size)]))
        if size:
            yield from zip(spectra, reduced_state(spectra, cells[0], temps))
        else:
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


def evaluate_cell(spec: SpectralDecomposition, params: SpinStarParams,
                  temperatures, states) -> dict[str, list]:
    """Columns of a coupling pair's rows, one per temperature, from its spectrum and its states (see
    solve_stack): each output name, in output order, to its list; one neg_cut_k per peripheral spin."""
    manifold = ground_manifold(spec)
    reports = [multipartite_negativity(rho) for rho in states]
    rows = len(reports)
    columns = {"epsilon": [float(params.epsilon)] * rows, "eta": [float(params.eta)] * rows,
               "t": [float(t) for t in temperatures], "neg_multi": [r.multipartite for r in reports]}
    for k in range(params.m):
        columns[f"neg_cut_{k + 1}"] = [r.per_cut[k] for r in reports]
    columns.update(ground_energy=[manifold.energy] * rows, ground_degeneracy=[manifold.degeneracy] * rows,
                   degenerate_cell=[manifold.degeneracy > 1] * rows)
    return columns


def evaluate_point(params: SpinStarParams, t: float) -> dict[str, list]:
    """Single-cell evaluation, a stack of one; shares the code path used by grid sweeps."""
    check_temperature(t)
    [(spec, states)] = solve_stack([params], (t,))
    return evaluate_cell(spec, params, (t,), states)


def sweep_records(grid: SweepGrid) -> dict[str, list]:
    """Evaluate every grid cell into columns (see evaluate_cell); rows ordered lexicographically by
    (t, eta, epsilon).  Each cell's values go to their rows as the cell arrives."""
    eps_values = np.linspace(*grid.epsilon_axis)
    temps = tuple(sorted(grid.temperatures))
    cells = [SpinStarParams(grid.m, grid.omega, eps, eta)
             for eta in np.linspace(*grid.eta_axis) for eps in eps_values]
    for i, (params, (spec, states)) in enumerate(zip(cells, solve_stack(cells, temps))):
        cell = evaluate_cell(spec, params, temps, states)
        if i == 0:
            columns = {name: [None] * (len(temps) * len(cells)) for name in cell}
        for name, values in cell.items():
            columns[name][i::len(cells)] = values  # rows t_index * len(cells) + i
    return columns


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


def write_records(columns: dict, stream, fmt: str = "csv") -> None:
    """Write columns, each output name to an equal-length list, row by row: as CSV headed by the
    names, or as JSON lines."""
    names, rows = list(columns), zip(*columns.values())
    if fmt == "json":
        for row in rows:
            stream.write(json.dumps(dict(zip(names, row))) + "\n")
    elif fmt == "csv":
        stream.write(",".join(names) + "\n")
        for row in rows:
            stream.write(",".join(map(format_field, row)) + "\n")
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

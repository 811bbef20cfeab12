"""Deterministic parameter-grid sweeps over (epsilon, eta, t).

Grid cells are pure functions of their inputs: the cells whose spectra fit MAX_STACK_BYTES are diagonalized
with one call, and the states that fit it formed with each Gibbs call (solve_stack); each cell is then
evaluated into columns (evaluate_cell); write_records, the writer of every command, writes the rows in
canonical order (lexicographic by t, eta, epsilon), byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .entanglement import keep_ring_states, multipartite_negativity
from .operators import SpinStarParams, dihedral_blocks, symmetry_hamiltonians
from .spectra import SpectralDecomposition, ground_manifold, stacked_spectra
from .thermal import check_temperature, reduced_state

# A sweep holds every record until it writes them, about 170 B each at m=3 and
# 490 B at m=11 (tracemalloc): this keeps a sweep's records under 0.5 GB.
MAX_SWEEP_RECORDS = 10 ** 6

# One budget sizes both calls of solve_stack: an eigensolve takes 728 m=3 cells, 170 at m=5, 8 at m=8, 3
# at m=9 and one from m=10 on; a Gibbs call 1213 m=3 states, 127 at m=5, 2 at m=8 and one from m=9 on.
# Twice this ran an m=8 sweep 3-9 % faster, but the m=3 map peaked at 36.8 MiB against 35.7 (34.5 at 64 KiB).
MAX_STACK_BYTES = 512 * 1024


def solve_stack(cells, temps):
    """Yield (spectrum, reduced states) per cell, the spectrum a view of its stack's (see stacked_spectra).

    A stacked_spectra call takes the consecutive cells whose spectra fit MAX_STACK_BYTES: per cell, its
    sectors' padded solved-block eigenvectors and four arrays over its 2^(m+1) eigenvalues.  A reduced_state
    call takes the states that fit it: per state, C(2m, m) packed floats, 2^(m+1) weights and the largest
    gather of thermal._orbit_rows: fit // len(temps) cells, or a lone cell's states lazily, fit at a time.
    """
    m = cells[0].m
    blocks = [dihedral_blocks(m, k) for k in range(m + 2)]
    spectrum = sum((b.solved.max() + 1) * b.width ** 2 for b in blocks) + 4 * 2 ** (m + 1)
    gather = max(half[0].shape[0] * half[2].size for b in blocks for half in b.halves)
    size = max(1, MAX_STACK_BYTES // (8 * spectrum))
    fit = max(1, MAX_STACK_BYTES // (8 * (math.comb(2 * m, m) + 2 ** (m + 1) + gather)))
    group = max(1, fit // len(temps))
    for i in range(0, len(cells), size):
        spectra = stacked_spectra(symmetry_hamiltonians(cells[i:i + size]))
        for j in range(0, len(spectra), group):
            part = spectra[j:j + group]
            calls = (keep_ring_states(reduced_state(part, cells[0], temps[t:t + fit]))  # cut 0 of all at once
                     for t in range(0, len(temps), fit))
            if len(part) > 1:  # every temperature in one call
                yield from zip(part, next(calls))
            else:
                yield part[0], (rho for states in calls for rho in states[0])


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
    for k, values in enumerate(zip(*[r.per_cut for r in reports]) if rows else [()] * params.m, 1):
        columns[f"neg_cut_{k}"] = list(values)
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
    stride = len(cells)
    for i, (params, (spec, states)) in enumerate(zip(cells, solve_stack(cells, temps))):
        cell = evaluate_cell(spec, params, temps, states)
        if i == 0:
            columns = {name: [None] * (len(temps) * stride) for name in cell}
        for name, values in cell.items():
            columns[name][i::stride] = values  # rows t_index * len(cells) + i
    return columns


def format_field(value) -> str:
    """One CSV field: None is empty, a bool is true/false, a number has 12 significant digits (no -0)."""
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    return f"{float(value) + 0.0:.12g}"


def write_records(columns: dict, stream, fmt: str = "csv") -> None:
    """Write columns, each output name to an equal-length list, one write per row: as CSV headed by the names,
    a field formatted once while its value and type (True, 1 and 1.0 are three) are among the last 256 met, as
    a 41x41 map's axes, flags and a row's equal cuts are (a bounded cache, for large sweeps), or as JSON lines."""
    names = list(columns)
    if fmt == "json":
        for row in zip(*columns.values()):
            stream.write(json.dumps(dict(zip(names, row))) + "\n")
    elif fmt == "csv":
        stream.write(",".join(names) + "\n")
        field = functools.lru_cache(maxsize=256, typed=True)(format_field)
        stream.writelines(map("{}\n".format, map(",".join, zip(*(map(field, c) for c in columns.values())))))
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

"""Partial transpose, bipartite negativity, and the multipartite negativity
defined as the geometric mean over all one-spin-versus-rest cuts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import excitations, qubit_count, qubit_subset

# Values in [NEGATIVITY_FLOOR, ZERO_SNAP] are floating-point noise around an
# exact zero and are reported as 0; anything below the floor means the input
# was not a valid state and must surface as an error, not be clamped away.
NEGATIVITY_FLOOR = -1e-9
ZERO_SNAP = 1e-12


class NumericalInvariantError(RuntimeError):
    """A computed quantity broke a floor that only an invalid state can break."""


@dataclass(frozen=True)
class NegativityReport:
    """Per-cut negativities, entry k for spin k against the rest, and their geometric mean."""

    per_cut: tuple[float, ...]
    multipartite: float


def partial_transpose(rho: np.ndarray, part_a, n_qubits: int) -> np.ndarray:
    """Transpose of the part_a tensor factors of rho.

    Entry <ab| out |a'b'> equals <a'b| rho |ab'> where a runs over the
    part_a bits; the result is Hermitian with the same trace.
    """
    rho = np.asarray(rho)
    dim = 2 ** n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {rho.shape}")
    part = qubit_subset(part_a, n_qubits)
    tensor = rho.reshape((2,) * (2 * n_qubits))
    perm = list(range(2 * n_qubits))
    for q in part:
        perm[q], perm[n_qubits + q] = perm[n_qubits + q], perm[q]
    return tensor.transpose(perm).reshape(dim, dim)


@lru_cache(maxsize=64, typed=True)
def _cut(shape: tuple, *part_a):
    """(n_qubits, part, index, layout) of a square power-of-two shape cut by a proper subset part_a.

    index is one flat index into rho gathering the blocks of its partial transpose over part; layout
    holds, per block size, the slice of the gathered values holding those blocks and their
    (count, size, size) shape.  Where rho conserves the excitation number, its partial transpose
    conserves the charge q = popcount(rest bits) - popcount(part bits) = popcount(i) - 2*popcount(i & mask).
    typed stops a float index from hitting a cached int's entry.
    """
    n_qubits = qubit_count(shape)
    part = qubit_subset(part_a, n_qubits)
    if len(part) == n_qubits:
        raise ValueError("part_a must be a proper subset of the qubits")
    dim = 2 ** n_qubits
    mask = sum(1 << (n_qubits - 1 - q) for q in part)
    excited = excitations(n_qubits)
    charge = excited - 2 * excited[np.arange(dim) & mask]
    by_size = {}
    for q in range(-len(part), n_qubits - len(part) + 1):
        rows = np.flatnonzero(charge == q)
        by_size.setdefault(rows.size, []).append(rows)
    groups = []
    for rows in by_size.values():
        r, c = np.stack(rows)[:, :, None], np.stack(rows)[:, None, :]
        # <ab| rho^T_A |a'b'> = <a'b| rho |ab'>: swap the part bits of row and column
        groups.append(((r & ~mask) | (c & mask)) * dim + ((c & ~mask) | (r & mask)))
    ends = np.cumsum([flat.size for flat in groups])
    index = np.concatenate([flat.ravel() for flat in groups], dtype=np.int32)  # 4^m < 2^31
    index.setflags(write=False)
    return n_qubits, part, index, tuple((slice(end - flat.size, end), flat.shape)
                                        for flat, end in zip(groups, ends))


def negativity(rho: np.ndarray, part_a) -> float:
    """Sum of |eigenvalues| of the partial transpose, minus one.

    Zero for states that stay positive under partial transposition.  Noise
    around zero is snapped to exactly 0.  A value below -1e-9, or a trace
    off 1 by more than 1e-9 (or NaN), signals an invalid input state and
    raises NumericalInvariantError.  Each charge block (see
    _cut) is diagonalized alone when an exact count puts every
    nonzero entry of rho on them; else the whole transpose is one.
    """
    rho = np.asarray(rho)
    n_qubits, part, index, layout = _cut(rho.shape, *part_a)
    gathered = rho.take(index)
    blocks = [gathered[span].reshape(shape) for span, shape in layout]
    if np.count_nonzero(gathered) != np.count_nonzero(rho):
        blocks = [partial_transpose(rho, part, n_qubits)]
    # a 1x1 block is its own eigenvalue; add.reduce skips ndarray.sum's Python wrapper
    try:
        spectra = [np.linalg.eigvalsh(block) if block.shape[-1] > 1 else block.real for block in blocks]
    except np.linalg.LinAlgError as exc:  # eigvalsh may not converge on a NaN or inf entry
        raise NumericalInvariantError(f"partial transpose: {exc}; input is not a valid state") from exc
    raw = float(sum(np.add.reduce(np.abs(values), axis=None) for values in spectra)) - 1.0
    if not raw >= NEGATIVITY_FLOOR:  # NaN fails too
        raise NumericalInvariantError(
            f"negativity {raw:.3e} fails the {NEGATIVITY_FLOOR} floor; input is not a valid state")
    trace = sum(rho.diagonal().real.tolist())  # the eigenvalues' sum; the floor misses an excess
    if not abs(trace - 1.0) <= -NEGATIVITY_FLOOR:  # NaN fails too
        raise NumericalInvariantError(f"trace {trace:.12g} is not 1; input is not a valid state")
    if raw <= ZERO_SNAP:
        return 0.0
    return raw


def multipartite_negativity(rho: np.ndarray, m: int) -> NegativityReport:
    """Geometric mean of the m one-spin-versus-rest negativities.

    Exactly zero whenever any single cut is zero, so separable and
    bi-separable states report no multipartite entanglement.
    """
    if m < 2:
        raise ValueError(f"need at least 2 spins, got m={m}")
    rho = np.asarray(rho)
    if rho.shape != (2 ** m, 2 ** m):
        raise ValueError(f"expected a {2 ** m}x{2 ** m} matrix for m={m}, got {rho.shape}")
    values = tuple(negativity(rho, (k,)) for k in range(m))
    if min(values) == 0.0:
        mean = 0.0
    else:
        # geometric mean through logs: robust to underflow of the raw product
        mean = math.exp(sum(map(math.log, values)) / m)
    return NegativityReport(per_cut=values, multipartite=mean)

"""Partial transpose, bipartite negativity, and the multipartite negativity
defined as the geometric mean over all one-spin-versus-rest cuts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _infer_n_qubits(rho: np.ndarray) -> int:
    dim = rho.shape[0]
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def partial_transpose(rho: np.ndarray, part_a, n_qubits: int) -> np.ndarray:
    """Transpose of the part_a tensor factors of rho.

    Entry <ab| out |a'b'> equals <a'b| rho |ab'> where a runs over the
    part_a bits; the result is Hermitian with the same trace.
    """
    rho = np.asarray(rho)
    dim = 2 ** n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {rho.shape}")
    part = sorted(set(int(q) for q in part_a))
    if not part:
        raise ValueError("part_a must name at least one qubit")
    if part[0] < 0 or part[-1] >= n_qubits:
        raise ValueError(f"part_a indices {part} out of range for {n_qubits} qubits")
    tensor = rho.reshape((2,) * (2 * n_qubits))
    perm = list(range(2 * n_qubits))
    for q in part:
        perm[q], perm[n_qubits + q] = perm[n_qubits + q], perm[q]
    return tensor.transpose(perm).reshape(dim, dim)


def negativity(rho: np.ndarray, part_a) -> float:
    """Sum of |eigenvalues| of the partial transpose, minus one.

    Zero for states that stay positive under partial transposition.  Noise
    around zero is snapped to exactly 0; a value below -1e-9 signals an
    invalid input state and raises NumericalInvariantError.
    """
    rho = np.asarray(rho)
    n_qubits = _infer_n_qubits(rho)
    part = sorted(set(int(q) for q in part_a))
    if len(part) >= n_qubits:
        raise ValueError("part_a must be a proper subset of the qubits")
    transposed = partial_transpose(rho, part, n_qubits)
    raw = float(np.sum(np.abs(np.linalg.eigvalsh(transposed))) - 1.0)
    if raw < NEGATIVITY_FLOOR:
        raise NumericalInvariantError(
            f"negativity {raw:.3e} below the {NEGATIVITY_FLOOR} floor; input is not a valid state")
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
        mean = float(np.exp(np.mean(np.log(values))))
    return NegativityReport(per_cut=values, multipartite=mean)

"""Gibbs states of the full network, their zero-temperature limit, and the reduction
to the peripheral spins, formed as packed states for a stack of cells x temperatures at once
(reduced_state).

Temperatures are dimensionless, t = k_B T / (hbar omega); t = 0 selects the
uniform mixture over the (possibly degenerate) ground manifold, which is the
t -> 0+ limit of the Gibbs family.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import (SpinStarParams, packed_entries, packed_positions, packed_qubits, qubit_subset,
                        symmetry_hamiltonians)
from .spectra import SpectralDecomposition, stacked_spectra

# Boltzmann weights below this, relative to the ground level's 1, are dropped.
WEIGHT_FLOOR = 1e-300


def check_temperature(t: float) -> float:
    """t, if finite and >= 0 (t = 0 selects the ground-manifold limit); ValueError otherwise."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"temperature must be finite and >= 0, got {t}")
    return t


def _boltzmann(gaps: np.ndarray, kts) -> np.ndarray:
    """Boltzmann weights of the level gaps (last axis), one row per kt, relative to the ground level's 1.

    Each level (see level_energies) gets one weight, so degenerate levels stay symmetric; kt = 0 keeps
    the ground level.  Weights below WEIGHT_FLOOR are 0, so each row keeps a prefix of the levels.
    """
    kts = np.asarray(kts, dtype=float)[:, None]
    cold = kts == 0
    with np.errstate(over="ignore"):  # a gap/kt past the float range is weight 0, not a warning
        weights = np.where(cold, gaps == 0, np.exp(-gaps / np.where(cold, 1.0, kts)))
    weights[weights < WEIGHT_FLOOR] = 0.0
    return weights


def gibbs_state_from_spectrum(spec: SpectralDecomposition, t: float) -> np.ndarray:
    """Gibbs state exp(-H/t) / Z from a precomputed spectrum, t in the unit of its eigenvalues.

    A test and benchmark oracle for reduced_state.  t = 0 keeps the ground
    level alone (the ground-manifold mixture).
    """
    check_temperature(t)
    weights = _boltzmann(spec.gaps, [t])[0]
    vectors = spec.vectors(np.count_nonzero(weights))
    rho = (vectors * weights[:vectors.shape[1]]) @ vectors.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def zero_temperature_state(spec: SpectralDecomposition) -> np.ndarray:
    """Uniform mixture over the ground manifold, the t -> 0+ Gibbs limit; a test and benchmark oracle."""
    return gibbs_state_from_spectrum(spec, 0.0)


def partial_trace(rho: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """Reduced density matrix on the kept qubits; a test and benchmark oracle for reduced_state.

    Parameters
    ----------
    rho : density matrix of dimension 2**n_qubits
    keep : indices of the qubits to retain; the reduced matrix keeps them
        in their original relative order
    n_qubits : total number of qubits
    """
    rho = np.asarray(rho)
    dim = 2 ** n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {rho.shape}")
    kept = list(qubit_subset(keep, n_qubits))
    # row bits then column bits, most significant first, kept qubits moved ahead
    axes = kept + [q for q in range(n_qubits) if q not in kept]
    tensor = rho.reshape((2,) * (2 * n_qubits)).transpose(axes + [n_qubits + q for q in axes])
    size = 2 ** len(kept)
    return np.trace(tensor.reshape(size, dim // size, size, dim // size), axis1=1, axis2=3)


def star_spectrum(params: SpinStarParams) -> SpectralDecomposition:
    """Spectrum of the spin-star Hamiltonian, diagonalized sector by sector."""
    return stacked_spectra(symmetry_hamiltonians([params]))[0]


def reduced_state(spectra, params: SpinStarParams, temperatures) -> np.ndarray:
    """Gibbs states with the central spin traced out, packed: a (cells, temperatures, C(2m, m)) stack.

    spectra come from one stacked_spectra call, of cells sharing params.m and params.omega; ValueError
    if their sector 0, the vacuum, does not sit at -(m+1)*omega/2.  Of sector k's Gibbs block
    V_k diag(w) V_k^T only the centre-0 part (its first C(m, k) states) and the centre-1 part are formed,
    one product over all cells x temperatures each, from the eigenvectors that any cell keeps; peripheral
    block j, the centre-0 part of sector j plus the centre-1 part of sector j+1, is symmetrized and
    written to its place in the packed layout (operators.packed_positions), and each state divided by
    its own trace.  No 2^m x 2^m matrix is formed.
    """
    kts, m = [check_temperature(t) * params.omega for t in temperatures], params.m
    if any([block[0] for block in spec.blocks] != list(range(m + 2)) for spec in spectra):
        raise ValueError(f"expected the excitation-sector spectrum of an m={m} star")
    vacuum = np.array([spec.eigenvalues[spec.blocks[0][3][0]] for spec in spectra])
    if not np.all(abs(vacuum + (m + 1) * params.omega / 2) <= 1e-12 * (m + 1) * params.omega):
        raise ValueError(f"the spectra's vacuum levels {vacuum} are not -(m+1)*omega/2 "
                         f"for omega={params.omega}")
    # each sector's levels in its own order: a stable sort by label, since ranks ascend within a sector
    order = np.array([spec.sector_labels for spec in spectra]).argsort(axis=-1, kind="stable")
    gaps = np.take_along_axis(np.array([spec.gaps for spec in spectra]), order, axis=-1)
    weights = _boltzmann(gaps[:, None], kts)
    sizes = np.array([math.comb(m + 1, k) for k in range(m + 2)])
    starts = np.cumsum(sizes) - sizes
    # weights fall along a sector's levels, so each state keeps a prefix of them
    kept = np.add.reduceat(weights.any(axis=(0, 1)), starts)
    sectors = [(np.array([s.blocks[k][2][:, :n] for s in spectra])[:, None],
                weights[..., None, start:start + n]) for k, (start, n) in enumerate(zip(starts, kept))]
    base, rank = packed_positions(m)
    rho = np.empty((*weights.shape[:2], math.comb(2 * m, m)))
    for j in range(m + 1):
        # the centre-0 rows of sector j (its first C(m, j)) and the centre-1 rows of sector j+1
        (low, low_w), (high, high_w) = sectors[j], sectors[j + 1]
        size = math.comb(m, j)
        low, high = low[..., :size, :], high[..., math.comb(m, j + 1):, :]
        block = (low * low_w) @ low.swapaxes(-1, -2) + (high * high_w) @ high.swapaxes(-1, -2)
        start = base[(1 << j) - 1]  # the block's least state, all j excitations in the lowest bits
        out = rho[..., start:start + size * size].reshape(*rho.shape[:-1], size, size)
        np.add(block, block.swapaxes(-1, -2), out=out)
        out *= 0.5
    rho /= rho.take(base + rank, axis=-1).sum(axis=-1)[..., None]  # the diagonal, summed in basis-index order
    return rho


def unpack(packed) -> np.ndarray:
    """The dense 2^m x 2^m matrix of each packed state (see operators.packed_positions) in a stack."""
    packed = np.asarray(packed)
    m = packed_qubits(packed.shape[-1:])
    dense = np.zeros((*packed.shape[:-1], 4 ** m), packed.dtype)
    dense[..., packed_entries(m)] = packed
    return dense.reshape(*packed.shape[:-1], 2 ** m, 2 ** m)


def reduced_thermal_state(params: SpinStarParams, t: float) -> np.ndarray:
    """Dense thermal state of the full star with the central spin traced out; reduced_state checks t."""
    return unpack(reduced_state([star_spectrum(params)], params, [t])[0, 0])

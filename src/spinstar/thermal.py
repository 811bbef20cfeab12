"""Gibbs states of the full network, their zero-temperature limit, and the
reduction to the peripheral spins.

Temperatures are dimensionless, t = k_B T / (hbar omega); t = 0 selects the
uniform mixture over the (possibly degenerate) ground manifold, which is the
t -> 0+ limit of the Gibbs family.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import SpinStarParams, qubit_subset, symmetry_hamiltonians
from .spectra import SpectralDecomposition, stacked_spectra

# Boltzmann weights below this, relative to the ground level's 1, are dropped.
WEIGHT_FLOOR = 1e-300


def check_temperature(t: float) -> None:
    """Accept only a finite t >= 0; t = 0 selects the ground-manifold limit."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"temperature must be finite and >= 0, got {t}")


def _as_state(rho: np.ndarray) -> np.ndarray:
    rho = 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _boltzmann(spec: SpectralDecomposition, kts) -> np.ndarray:
    """Boltzmann weights of the lowest eigenvalues, one row per kt, relative to the ground level's 1.

    Each level (see level_energies) gets one weight, so degenerate levels stay
    symmetric; kt = 0 keeps the ground level.  Weights below WEIGHT_FLOOR are 0
    and rows are cut to the longest kept prefix; the caller normalizes by the trace.
    """
    kts = np.asarray(kts, dtype=float)[:, None]
    cold = kts == 0
    with np.errstate(over="ignore"):  # a gap/kt past the float range is weight 0, not a warning
        weights = np.where(cold, spec.gaps == 0, np.exp(-spec.gaps / np.where(cold, 1.0, kts)))
    weights[weights < WEIGHT_FLOOR] = 0.0
    return weights[:, :np.count_nonzero(weights.any(axis=0))]


def gibbs_state_from_spectrum(spec: SpectralDecomposition, t: float) -> np.ndarray:
    """Gibbs state exp(-H/t) / Z from a precomputed spectrum, t in the unit of its eigenvalues.

    A test and benchmark oracle for reduced_state.  t = 0 keeps the ground
    level alone (the ground-manifold mixture).
    """
    check_temperature(t)
    weights = _boltzmann(spec, [t])[0]
    vectors = spec.vectors(weights.size)
    return _as_state((vectors * weights) @ vectors.conj().T)


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


def reduced_state(spec: SpectralDecomposition, params: SpinStarParams, temperatures) -> np.ndarray:
    """Gibbs states at each t, from star_spectrum(params), with the central spin traced out.

    Returns a stack of 2^m x 2^m states.  Of sector k's Gibbs block V_k diag(w) V_k^T only the
    centre-0 part (its first C(m, k) states) and the centre-1 part are formed, one stacked
    product over t each; peripheral block j, the centre-0 part of sector j plus the centre-1
    part of sector j+1, is symmetrized and divided by the trace.  No 2^(m+1) matrix is formed.
    """
    for t in temperatures:
        check_temperature(t)
    m = params.m
    if [block[0] for block in spec.blocks] != list(range(m + 2)):
        raise ValueError(f"expected the excitation-sector spectrum of an m={m} star")
    weights = _boltzmann(spec, [t * params.omega for t in temperatures])
    sectors = list(spec.lowest(weights.shape[1]))
    rho = np.zeros((len(temperatures), 2 ** m, 2 ** m), dtype=sectors[0][2].dtype)
    for j in range(m + 1):
        # the centre-0 rows of sector j (its first C(m, j)) and the centre-1 rows of sector j+1
        (_, states, low, low_ranks), (_, _, high, high_ranks) = sectors[j], sectors[j + 1]
        low, high, states = low[:math.comb(m, j)], high[math.comb(m, j + 1):], states[:math.comb(m, j)]
        block = (low * weights[:, None, low_ranks]) @ low.T + (high * weights[:, None, high_ranks]) @ high.T
        rho[:, states[:, None], states] = 0.5 * (block + block.swapaxes(-1, -2))
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
    return rho


def reduced_thermal_state(params: SpinStarParams, t: float) -> np.ndarray:
    """Thermal state of the full star with the central spin traced out."""
    check_temperature(t)
    return reduced_state(star_spectrum(params), params, [t])[0]

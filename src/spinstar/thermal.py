"""Gibbs states of the full network, their zero-temperature limit, and the
reduction to the peripheral spins.

Temperatures are dimensionless, t = k_B T / (hbar omega); t = 0 selects the
uniform mixture over the (possibly degenerate) ground manifold, which is the
t -> 0+ limit of the Gibbs family.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import SpinStarParams, build_hamiltonian, sector_map
from .spectra import SpectralDecomposition, eigh, level_energies, spectrum_blocked

# Boltzmann weights below this, relative to the ground level's 1, are dropped.
WEIGHT_FLOOR = 1e-300


def check_temperature(t: float) -> None:
    """Accept only a finite t >= 0; t = 0 selects the ground-manifold limit."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"temperature must be finite and >= 0, got {t}")


def _as_state(rho: np.ndarray) -> np.ndarray:
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def gibbs_state_from_spectrum(spec: SpectralDecomposition, t: float,
                              energy_scale: float = 1.0) -> np.ndarray:
    """Gibbs state exp(-H/(t*energy_scale)) / Z from a precomputed spectrum.

    Each level (see level_energies) gets one weight, taken relative to the
    ground level, which keeps degenerate levels symmetric; t*energy_scale = 0,
    also by underflow, keeps the ground level alone (the ground-manifold mixture).
    """
    check_temperature(t)
    if not energy_scale > 0:
        raise ValueError(f"energy scale must be positive, got {energy_scale}")
    kt = t * energy_scale
    gaps = level_energies(spec.eigenvalues) - spec.eigenvalues[0]
    if kt == 0:
        weights = (gaps == 0).astype(float)
    else:
        # a gap/kt past the float range is weight 0, not a warning
        with np.errstate(over="ignore"):
            weights = np.exp(-gaps / kt)
    keep = weights >= WEIGHT_FLOOR
    vectors = spec.eigenvectors[:, keep]
    weights = weights[keep] / weights[keep].sum()
    return _as_state((vectors * weights) @ vectors.conj().T)


def gibbs_state(h: np.ndarray, t: float) -> np.ndarray:
    """Thermal state exp(-h/t) / Z of a dense Hermitian matrix, by full eigh.

    t = 0 returns the uniform mixture over the ground manifold.
    """
    check_temperature(t)
    return gibbs_state_from_spectrum(eigh(h), t)


def zero_temperature_state(spec: SpectralDecomposition) -> np.ndarray:
    """Uniform mixture over the ground manifold, the t -> 0+ Gibbs limit."""
    return gibbs_state_from_spectrum(spec, 0.0)


def partial_trace(rho: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """Reduced density matrix on the kept qubits.

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
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise ValueError("keep must name at least one qubit")
    if kept[0] < 0 or kept[-1] >= n_qubits:
        raise ValueError(f"keep indices {kept} out of range for {n_qubits} qubits")
    if len(kept) == n_qubits:
        return rho.copy()

    # 2*n_qubits tensor axes: row bits then column bits, most significant first
    letters = "abcdefghijklmnopqrstuvwxyz"
    kept_set = set(kept)
    row = [letters[q] for q in range(n_qubits)]
    col = [letters[n_qubits + q] if q in kept_set else letters[q] for q in range(n_qubits)]
    out = [row[q] for q in kept] + [col[q] for q in kept]
    subs = "".join(row) + "".join(col) + "->" + "".join(out)
    tensor = rho.reshape((2,) * (2 * n_qubits))
    reduced_dim = 2 ** len(kept)
    return np.einsum(subs, tensor).reshape(reduced_dim, reduced_dim)


def star_spectrum(params: SpinStarParams) -> SpectralDecomposition:
    """Sector-blocked spectrum of the spin-star Hamiltonian."""
    return spectrum_blocked(build_hamiltonian(params), sector_map(params.n_qubits))


def reduced_state(spec: SpectralDecomposition, params: SpinStarParams, t: float) -> np.ndarray:
    """Gibbs state of the star at t, from its spectrum, with the central spin traced out."""
    full = gibbs_state_from_spectrum(spec, t, params.omega)
    return partial_trace(full, range(1, params.m + 1), params.n_qubits)


def reduced_thermal_state(params: SpinStarParams, t: float) -> np.ndarray:
    """Thermal state of the full star with the central spin traced out."""
    check_temperature(t)
    return reduced_state(star_spectrum(params), params, t)

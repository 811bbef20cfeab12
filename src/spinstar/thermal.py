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

from .operators import (SpinStarParams, packed_entries, packed_positions, packed_qubits, qubit_count,
                        qubit_subset, symmetry_hamiltonians)
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
        weights = np.divide(gaps, np.where(cold, -1.0, -kts))  # one array, exponentiated in place
        np.exp(weights, out=weights)
    np.copyto(weights, gaps == 0, where=cold)
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


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix on the kept qubits; a test and benchmark oracle for reduced_state.

    Parameters
    ----------
    rho : density matrix of dimension 2**n, which fixes the number of qubits n
    keep : indices of the qubits to retain; the reduced matrix keeps them
        in their original relative order
    """
    rho = np.asarray(rho)
    n_qubits = qubit_count(rho.shape)
    kept = list(qubit_subset(keep, n_qubits))
    # row bits then column bits, most significant first, kept qubits moved ahead
    axes = kept + [q for q in range(n_qubits) if q not in kept]
    tensor = rho.reshape((2,) * (2 * n_qubits)).transpose(axes + [n_qubits + q for q in axes])
    size = 2 ** len(kept)
    return np.trace(tensor.reshape(size, len(rho) // size, size, len(rho) // size), axis1=1, axis2=3)


def star_spectrum(params: SpinStarParams) -> SpectralDecomposition:
    """Spectrum of the spin-star Hamiltonian, diagonalized sector by sector."""
    return stacked_spectra(symmetry_hamiltonians([params]))[0]


def _orbit_rows(gibbs, half) -> np.ndarray:
    """A dihedral sector's Gibbs block Q (+)_c M_solved[c] Q^T, one part, at its orbits' least rows only.

    gibbs holds M_p = U_p diag(w) U_p^T per solved block p over cells x temperatures, padded to
    (..., blocks, width, width); half is the part's gathers (operators.DihedralBlocks.halves): each row
    and column gathers its <= 2 entries per copy of the basis.
    """
    rows, row_entries, columns, column_entries = half
    flat = gibbs.reshape(*gibbs.shape[:-3], -1, gibbs.shape[-1])
    # Q[least] M, per copy, in multiply-adds (5x an einsum at m=3); the einsum below sums from +0: same bits
    left = np.take(flat, rows[..., 0], axis=-2) * row_entries[..., 0, None]
    left += np.take(flat, rows[..., 1], axis=-2) * row_entries[..., 1, None]
    picked = np.take(left.reshape(*left.shape[:-2], -1), columns, axis=-1)
    return np.einsum("...rsk,sk->...rs", picked, column_entries)


def reduced_state(spectra: SpectralDecomposition, params: SpinStarParams, temperatures) -> np.ndarray:
    """Gibbs states with the central spin traced out, packed: a (cells, temperatures, C(2m, m)) stack.

    spectra is a stack of stacked_spectra of symmetry_hamiltonians, or a slice (spectra[i:j], spec[None]),
    of cells sharing params.m and params.omega; ValueError for any other (one cell's view, a dense oracle's),
    or if their sector 0, the vacuum, does not sit at -(m+1)*omega/2.  Of sector k's Gibbs block only the
    centre-0 part (its first C(m, k) states) and the centre-1 part are formed, over all cells x
    temperatures at once, from the eigenvectors that any cell keeps: M_p = U_p diag(w) U_p^T per solved
    dihedral block, then only the rows of each ring orbit's least state, sum_c Q_c[least] M_p Q_c^T,
    through the basis's gathers (operators.DihedralBlocks.halves).  Peripheral block j sums those rows of
    the centre-0 part of sector j and the centre-1 part of sector j+1 and is filled from them by rotation
    (operators.DihedralBlocks.fill): the Gibbs state commutes with the ring rotation, and each block is
    exactly invariant under it.  The block is symmetrized and written to its place in the packed layout
    (operators.packed_positions), and each state divided by its own trace.  No 2^m x 2^m matrix is formed.
    """
    kts, m = [check_temperature(t) * params.omega for t in temperatures], params.m
    if (spectra.eigenvalues.ndim != 2 or [block[0] for block in spectra.blocks] != list(range(m + 2))
            or any(block[2] is None for block in spectra.blocks)):
        raise ValueError(f"expected the dihedral excitation-sector spectra of a stack of m={m} stars")
    vacuum = np.take_along_axis(spectra.eigenvalues, spectra.ranks[:, :1], axis=-1)[:, 0]
    if not np.all(abs(vacuum + (m + 1) * params.omega / 2) <= 1e-12 * (m + 1) * params.omega):
        raise ValueError(f"the spectra's vacuum levels {vacuum} are not -(m+1)*omega/2 "
                         f"for omega={params.omega}")
    # each sector's weights in its blocks' order, gathered once
    weights = _boltzmann(np.take_along_axis(spectra.gaps, spectra.ranks, axis=-1)[:, None], kts)
    # the rows of peripheral block j's orbits' least states, from sector j's centre-0 part (its first
    # C(m, j) states) and sector j+1's centre-1 part
    rows, start = [[] for _ in range(m + 1)], 0
    for k in range(m + 2):
        (_, _, dihedral, vectors), d = spectra.blocks[k], math.comb(m + 1, k)
        w, start = weights[..., start:start + d], start + d
        padded = np.zeros((*w.shape[:2], dihedral.solved.max() + 1, 1, dihedral.width))
        padded.reshape(*w.shape[:2], -1)[..., dihedral.slots] = w  # a partner copy writes its block's again
        n = int(np.count_nonzero(padded.any(axis=(0, 1, 2, 3))))
        if n:
            kept = vectors[:, None, ..., :n]
            gibbs = (kept * padded[..., :n]) @ kept.swapaxes(-1, -2)
            for j, half in zip((k, k - 1), dihedral.halves):
                if 0 <= j <= m:
                    rows[j].append(_orbit_rows(gibbs, half))
    base, rank = packed_positions(m)
    rho = np.zeros((*weights.shape[:2], math.comb(2 * m, m)))
    for j, least in enumerate(rows):
        if not least:
            continue
        size, start = math.comb(m, j), base[(1 << j) - 1]  # the block's least state: j excitations lowest
        out = rho[..., start:start + size * size].reshape(*rho.shape[:-1], size, size)
        least = sum(least[1:], least[0])
        block = least.reshape(*least.shape[:-2], -1).take(spectra.blocks[j][2].fill, axis=-1)
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
    return unpack(reduced_state(star_spectrum(params)[None], params, [t])[0, 0])

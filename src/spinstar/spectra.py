"""Exact Hermitian eigendecomposition, its sector-blocked variant, and the
closed-form three-spin-star spectrum used as an independent oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SectorMap

HERMITICITY_TOL = 1e-10
BLOCK_TOL = 1e-10


@dataclass
class SpectralDecomposition:
    """Eigenvalues in ascending order with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sector_labels: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


@dataclass
class GroundManifold:
    """Lowest eigenvalue, its degeneracy, and an orthonormal spanning set."""

    energy: float
    degeneracy: int
    basis: np.ndarray


def degeneracy_tolerance(energy: float) -> float:
    """Default band for grouping numerically degenerate eigenvalues."""
    return 1e-9 * max(1.0, abs(energy))


def _hermitian(op: np.ndarray) -> np.ndarray:
    """op as an array of its own dtype; rejected if not Hermitian to 1e-10 in max-norm."""
    op = np.asarray(op)
    deviation = np.max(np.abs(op - op.conj().T))
    if deviation > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    return op


def eigh(op: np.ndarray) -> SpectralDecomposition:
    """Full spectrum of a Hermitian matrix (checked to 1e-10), eigenvalues ascending."""
    op = _hermitian(op)
    eigenvalues, eigenvectors = np.linalg.eigh(op)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def spectrum_blocked(op: np.ndarray, sectors: SectorMap) -> SpectralDecomposition:
    """Spectrum assembled from independent per-sector diagonalizations.

    Requires op to be block diagonal under the sector partition (checked to
    1e-10 in max-norm).  Eigenvectors are embedded back into the full space
    and the result is sorted by eigenvalue, with exact ties broken by sector
    label and then insertion order so output is reproducible.
    """
    dim = sectors.dim
    if np.shape(op) != (dim, dim):
        raise ValueError(f"operator shape {np.shape(op)} does not match {dim}-dim sector map")
    op = _hermitian(op)

    labels_by_index = np.empty(dim, dtype=int)
    for k, idx in sectors.sectors:
        labels_by_index[idx] = k
    off_block = labels_by_index[:, None] != labels_by_index[None, :]
    leakage = np.max(np.abs(op[off_block])) if off_block.any() else 0.0
    if leakage > BLOCK_TOL:
        raise ValueError(f"matrix is not block diagonal under the sector map (leakage {leakage:.3e})")

    eigenvalues = []
    labels = []
    columns = []
    for k, idx in sectors.sectors:
        w, v = np.linalg.eigh(op[np.ix_(idx, idx)])
        embedded = np.zeros((dim, idx.size), dtype=v.dtype)
        embedded[idx, :] = v
        eigenvalues.append(w)
        labels.append(np.full(idx.size, k, dtype=int))
        columns.append(embedded)
    lam = np.concatenate(eigenvalues)
    lab = np.concatenate(labels)
    vecs = np.hstack(columns)
    order = np.lexsort((np.arange(lam.size), lab, lam))
    return SpectralDecomposition(eigenvalues=lam[order], eigenvectors=vecs[:, order],
                                 sector_labels=lab[order])


def analytic_spectrum_m3(omega: float, epsilon: float, eta: float) -> np.ndarray:
    """Closed-form 16-value spectrum for three peripheral spins, ascending."""
    root = np.sqrt(3.0 * epsilon ** 2 + eta ** 2)
    values = [
        eta - root - omega,
        -2.0 * omega,
        -epsilon - eta,
        -epsilon - eta,
        -2.0 * (epsilon - eta),
        epsilon - eta,
        epsilon - eta,
        2.0 * (epsilon + eta),
        -eta - omega,
        -eta - omega,
        eta + root - omega,
        2.0 * omega,
        -eta + omega,
        -eta + omega,
        eta - root + omega,
        eta + root + omega,
    ]
    return np.sort(np.asarray(values, dtype=float))


def analytic_ground_state_m3(epsilon: float, eta: float) -> np.ndarray:
    """Closed-form single-excitation eigenvector for three peripheral spins.

    Superposition of the excited central spin over the peripheral vacuum and
    the symmetric one-excitation (W) state of the ring; it is the ground
    state in the regime where the central coupling dominates the ring one.
    """
    root = np.sqrt(3.0 * epsilon ** 2 + eta ** 2)
    vec = np.zeros(16)
    vec[0b1000] = eta + root
    vec[0b0100] = -epsilon
    vec[0b0010] = -epsilon
    vec[0b0001] = -epsilon
    norm = np.linalg.norm(vec)
    if norm < 1e-15:
        raise ValueError("closed-form state is undefined for epsilon=0 with eta<=0")
    return vec / norm


def level_energies(eigenvalues: np.ndarray) -> np.ndarray:
    """Each ascending eigenvalue replaced by the lowest eigenvalue of its level.

    A level is a run of eigenvalues whose neighbouring gaps are all at most
    degeneracy_tolerance of the lowest eigenvalue, so floating-point
    splittings inside a degenerate level never separate it.
    """
    opens = np.concatenate(([True], np.diff(eigenvalues) > degeneracy_tolerance(eigenvalues[0])))
    return eigenvalues[opens][np.cumsum(opens) - 1]


def ground_manifold(spec: SpectralDecomposition) -> GroundManifold:
    """Eigenpairs of the lowest level (see level_energies), as an orthonormal basis."""
    if spec.dim == 0:
        raise ValueError("empty spectral decomposition")
    energy = float(spec.eigenvalues[0])
    count = int(np.count_nonzero(level_energies(spec.eigenvalues) == energy))
    return GroundManifold(energy=energy, degeneracy=count,
                          basis=spec.eigenvectors[:, :count].copy())

"""Exact Hermitian eigendecomposition, its sector-blocked variant, and the
closed-form three-spin-star spectrum used as an independent oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import excitations, qubit_count

HERMITICITY_TOL = 1e-10
BLOCK_TOL = 1e-10


class SpectralDecomposition:
    """Spectrum of a Hermitian operator, as ordered by stacked_spectra.

    eigenvalues ascend, exact ties in block order; sector_labels holds each
    one's block label and gaps its level energy minus the lowest.  blocks holds
    (label, states, eigenvectors over states, ranks of their eigenvalues).
    """

    def __init__(self, eigenvalues, sector_labels, gaps, blocks):
        self.dim = eigenvalues.size
        self.eigenvalues, self.sector_labels = eigenvalues, sector_labels
        self.gaps, self.blocks = gaps, blocks

    def lowest(self, count: int):
        """Yield (label, states, eigenvectors, ranks) per block, cut to the count lowest eigenvalues."""
        for k, states, vectors, ranks in self.blocks:
            kept = int(ranks.searchsorted(count))  # ranks ascend within a block
            yield k, states, vectors[:, :kept], ranks[:kept]

    def vectors(self, count: int) -> np.ndarray:
        """The eigenvectors of the count lowest eigenvalues, as columns in the full space."""
        out = np.zeros((self.dim, count), dtype=self.blocks[0][2].dtype)
        for _, states, vectors, ranks in self.lowest(count):
            if ranks.size:
                out[states[:, None], ranks] = vectors
        return out


@dataclass
class GroundManifold:
    """Lowest eigenvalue and its degeneracy; spec.vectors(degeneracy) spans the manifold."""

    energy: float
    degeneracy: int


def degeneracy_tolerance(eigenvalues: np.ndarray):
    """Band for grouping degenerate eigenvalues, ascending along the last axis: 1e-9 of the largest |value|.

    It scales with H, so a change of energy unit groups the same levels.
    """
    return 1e-9 * np.maximum(abs(eigenvalues[..., 0]), abs(eigenvalues[..., -1]))


def _hermitian(op: np.ndarray) -> np.ndarray:
    """op, a matrix or a stack, as an array; rejected if any is not Hermitian to 1e-10 in max-norm."""
    op = np.asarray(op)
    deviation = np.max(np.abs(op - np.swapaxes(op, -1, -2).conj()))
    if deviation > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    return op


def _eigh(stack):
    """Ascending eigenpairs of a (cells, d, d) stack or of a sector's translation-block parts."""
    if isinstance(stack, np.ndarray):
        return np.linalg.eigh(_hermitian(stack))
    values, rows = [], []
    for columns, coefficients, blocks in stack:
        w, u = np.linalg.eigh(_hermitian(blocks))
        u = u.swapaxes(-1, -2)  # eigenvectors as rows: Q u gathers the basis's <= 2 entries per state
        values.append(w)
        rows.append(sum(u[..., i] * c for i, c in zip(columns.T, coefficients.T)))
    values = np.concatenate(values, axis=-1)
    order = values.argsort(axis=-1)
    rows = np.concatenate(rows, axis=-2)[np.arange(len(order))[:, None], order]
    return np.take_along_axis(values, order, axis=-1), rows.swapaxes(-1, -2)


def stacked_spectra(stacks) -> list[SpectralDecomposition]:
    """One SpectralDecomposition per cell from the (label, states, stack) blocks of symmetry_hamiltonians.

    Each stack, or part of one, is checked by _hermitian and solved by one eigh call; the
    spectra are then sorted and leveled at once.
    """
    solved = [(k, states, *_eigh(stack)) for k, states, stack in stacks]
    values = np.concatenate([w for _, _, w, _ in solved], axis=-1)
    if values.shape[-1] == 0:
        raise ValueError("empty spectral decomposition")
    order = values.argsort(axis=-1, kind="stable")  # exact ties stay in block order
    sizes = [w.shape[-1] for _, _, w, _ in solved]
    ranks = np.split(order.argsort(axis=-1), np.cumsum(sizes)[:-1], axis=-1)
    values = np.take_along_axis(values, order, axis=-1)
    labels = np.repeat([k for k, _, _, _ in solved], sizes)[order]
    gaps = level_energies(values) - values[:, :1]
    return [SpectralDecomposition(values[i], labels[i], gaps[i],
                                  [(k, states, v[i], r[i]) for (k, states, _, v), r in zip(solved, ranks)])
            for i in range(len(values))]


def eigh(op: np.ndarray) -> SpectralDecomposition:
    """Full spectrum of a Hermitian matrix (checked to 1e-10) as one block with label 0."""
    return stacked_spectra([(0, np.arange(len(op)), np.asarray(op)[None])])[0]


def spectrum_blocked(op: np.ndarray) -> SpectralDecomposition:
    """Spectrum of a dense 2^n x 2^n operator from one diagonalization per excitation sector.

    A test and benchmark oracle for star_spectrum: op must be Hermitian and
    block diagonal under the excitation sectors, both checked to 1e-10 in
    max-norm; ValueError otherwise, or when op is not square of power-of-two size.
    """
    excited = excitations(qubit_count(np.shape(op)))
    op = _hermitian(op)
    leakage = np.max(np.abs(op[excited[:, None] != excited]), initial=0.0)
    if leakage > BLOCK_TOL:
        raise ValueError(f"matrix is not block diagonal in the excitation sectors (leakage {leakage:.3e})")
    sectors = [np.flatnonzero(excited == k) for k in range(excited.max() + 1)]
    return stacked_spectra([(k, idx, op[np.ix_(idx, idx)][None]) for k, idx in enumerate(sectors)])[0]


def analytic_spectrum_m3(omega: float, epsilon: float, eta: float) -> np.ndarray:
    """Closed-form 16-value spectrum for three peripheral spins, ascending."""
    # an exact power-of-two scale: tiny couplings do not underflow, others keep every bit
    scale = math.ldexp(1.0, math.frexp(max(abs(epsilon), abs(eta)))[1])
    root = scale * math.sqrt(3.0 * (epsilon / scale) ** 2 + (eta / scale) ** 2)
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
    It depends on epsilon:eta alone, so both are first divided by the larger.
    """
    scale = max(abs(epsilon), abs(eta)) or 1.0
    epsilon, eta = epsilon / scale, eta / scale
    vec = np.zeros(16)
    vec[0b1000] = eta + np.sqrt(3.0 * epsilon ** 2 + eta ** 2)
    vec[[0b0100, 0b0010, 0b0001]] = -epsilon
    peak = np.max(np.abs(vec))
    if peak == 0:
        raise ValueError("closed-form state is undefined for epsilon=0 with eta<=0")
    vec /= peak
    return vec / np.linalg.norm(vec)


def level_energies(eigenvalues: np.ndarray) -> np.ndarray:
    """Each eigenvalue, ascending along the last axis, replaced by the lowest of its level.

    A level is a run of eigenvalues whose neighbouring gaps are all at most
    degeneracy_tolerance(eigenvalues), so floating-point splittings inside
    a degenerate level never separate it.
    """
    opens = np.diff(eigenvalues, axis=-1, prepend=-np.inf) > degeneracy_tolerance(eigenvalues)[..., None]
    first = np.maximum.accumulate(np.where(opens, np.arange(eigenvalues.shape[-1]), 0), axis=-1)
    return np.take_along_axis(eigenvalues, first, axis=-1)


def ground_manifold(spec: SpectralDecomposition) -> GroundManifold:
    """Energy and size of the lowest level (see level_energies)."""
    return GroundManifold(float(spec.eigenvalues[0]), int(np.count_nonzero(spec.gaps == 0)))

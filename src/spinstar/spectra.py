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
    """Spectra of Hermitian operators, as ordered by stacked_spectra: a stack of cells, or one cell's view.

    eigenvalues ascend along the last axis, exact ties in block order; sector_labels holds each one's
    block label and gaps its level energy minus the lowest.  blocks holds (label, states, dihedral,
    eigenvectors) per block: the sector's operators.DihedralBlocks and its solved blocks' eigenvectors,
    padded to (blocks, width, width), or, from a dense oracle such as spectrum_blocked, dihedral None and
    the eigenvectors over states.  ranks holds the place in eigenvalues of each block's eigenvalues, block
    after block, in the order _eigh returns them.  Every array but states and dihedral leads with the
    cells axis of a stack; spec[key] indexes it in each, so spec[i] is cell i's view, spec[None] a stack.
    """

    def __init__(self, eigenvalues, sector_labels, gaps, ranks, blocks):
        self.dim = eigenvalues.shape[-1]
        self.eigenvalues, self.sector_labels = eigenvalues, sector_labels
        self.gaps, self.ranks, self.blocks = gaps, ranks, blocks

    def __len__(self):
        return len(self.eigenvalues)

    def __getitem__(self, key):
        return SpectralDecomposition(self.eigenvalues[key], self.sector_labels[key], self.gaps[key],
                                     self.ranks[key], [(k, s, d, v[key]) for k, s, d, v in self.blocks])

    def vectors(self, count: int) -> np.ndarray:
        """One cell's eigenvectors of the count lowest eigenvalues, as columns in the full space."""
        out = np.zeros((self.dim, count), dtype=self.blocks[0][3].dtype)
        start = 0
        for _, states, dihedral, vectors in self.blocks:
            ranks = self.ranks[start:start + states.size]
            start += states.size
            kept = np.flatnonzero(ranks < count)
            if dihedral is not None:
                # each kept eigenvector through its copy's basis: <= 2 of its entries per state
                block, i = np.divmod(dihedral.slots[kept], dihedral.width)
                copy = dihedral.copies[kept]
                picked = vectors[block[:, None], dihedral.columns[:, copy], i[:, None]]
                vectors = np.einsum("snj,snj->sn", picked, dihedral.coefficients[:, copy])
                ranks = ranks[kept]
                kept = slice(None)
            out[states[:, None], ranks[kept]] = vectors[:, kept]
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
    """(dihedral, eigenvalues, eigenvectors) of a dense oracle's (cells, d, d) stack, dihedral None,
    ascending, or of a sector's (DihedralBlocks, [stack per group of equal solved blocks]): its
    eigenvalues copy after copy, and its solved blocks' eigenvectors padded to (cells, blocks, width,
    width)."""
    if isinstance(stack, np.ndarray):
        return None, *np.linalg.eigh(_hermitian(stack))
    dihedral, groups = stack
    values = np.zeros((len(groups[0]), dihedral.solved.max() + 1, dihedral.width))
    vectors = np.zeros((*values.shape, dihedral.width))
    for (same, *_), group in zip(dihedral.groups, groups):
        b = group.shape[-1]
        values[:, same, :b], vectors[:, same, :b, :b] = np.linalg.eigh(_hermitian(group))
    return dihedral, values.reshape(len(values), -1)[:, dihedral.slots], vectors


def stacked_spectra(stacks) -> SpectralDecomposition:
    """The spectra of a stack of cells from the (label, states, stack) blocks of symmetry_hamiltonians.

    Each stack, or group of equal solved dihedral blocks, is checked by _hermitian and solved by one
    eigh call; the spectra are then sorted and leveled at once.
    """
    solved = [(k, states, *_eigh(stack)) for k, states, stack in stacks]
    values = np.concatenate([w for *_, w, _ in solved], axis=-1)
    order = values.argsort(axis=-1, kind="stable")  # exact ties stay in block order
    values = np.take_along_axis(values, order, axis=-1)
    labels = np.repeat([k for k, *_ in solved], [w.shape[-1] for *_, w, _ in solved])[order]
    gaps, ranks = level_energies(values) - values[:, :1], order.argsort(axis=-1)
    return SpectralDecomposition(values, labels, gaps, ranks, [(k, s, d, v) for k, s, d, _, v in solved])


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

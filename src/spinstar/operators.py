"""Pauli operators, spin-star Hamiltonians, and excitation-number sectors.

Qubit ordering convention: basis index i encodes the product state
|q_0 q_1 ... q_m> with the central spin q_0 as the most significant bit.
Tracing out the central spin then acts on contiguous half-blocks of the
density matrix.  Units are hbar = k_B = 1, with the common level splitting
omega setting the energy scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_IDENTITY = np.eye(2)

# Single-qubit operators in basis order |0>, |1> with the convention
# sigma_z|1> = +|1>, sigma_z|0> = -|0> and sigma_+|0> = |1>; all but sigma_y are real.
_SINGLE_SITE = {
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]]),
    "plus": np.array([[0.0, 0.0], [1.0, 0.0]]),
    "minus": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]]),
}

# One negativity point takes 0.8 s and 102 MiB at m=9, 4.9 s and 268 MiB at
# m=10, and 26 s and 1.0 GiB at m=11 on a 2-vCPU machine; each further spin
# quadruples the dense 2^(m+1)-dimensional real matrices.
MAX_M = 11

# SpinStarParams rejects a norm bound (m+1)*omega/2 + m*(|epsilon|+|eta|) of H
# above this: the m=3 closed forms square energies and the Gibbs weights take
# their differences, so every step stays far from the float64 range.
MAX_ENERGY = 1e150


@dataclass(frozen=True)
class SpinStarParams:
    """Physical parameters of a spin-star network.

    m is the number of peripheral spins (2 to MAX_M), omega the common
    natural frequency, epsilon the central<->peripheral exchange coupling
    and eta the exchange coupling along the peripheral ring.
    """

    m: int
    omega: float
    epsilon: float
    eta: float

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least 2 peripheral spins, got m={self.m}")
        if self.m > MAX_M:
            raise ValueError(f"at most MAX_M={MAX_M} peripheral spins are supported, got m={self.m}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be a positive finite real, got {self.omega}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")
        bound = (self.m + 1) * self.omega / 2 + self.m * (abs(self.epsilon) + abs(self.eta))
        if not bound <= MAX_ENERGY:
            raise ValueError(f"energy bound (m+1)*omega/2 + m*(|epsilon|+|eta|) = {bound} exceeds "
                             f"MAX_ENERGY={MAX_ENERGY:g} (omega={self.omega}, "
                             f"epsilon={self.epsilon}, eta={self.eta})")

    @property
    def n_qubits(self) -> int:
        return self.m + 1


@dataclass(frozen=True)
class SectorMap:
    """Partition of the computational basis by total excitation number."""

    n_qubits: int
    sectors: tuple[tuple[int, np.ndarray], ...]

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def _embedded(site_ops: dict[int, np.ndarray], n_qubits: int) -> np.ndarray:
    """Kronecker chain with the given operators at their sites, identity elsewhere."""
    out = np.ones((1, 1))
    for site in range(n_qubits):
        out = np.kron(out, site_ops.get(site, _IDENTITY))
    return out


def pauli_operator(site: int, kind: str, n_qubits: int) -> np.ndarray:
    """Single-site operator embedded in the full 2^n_qubits-dimensional space.

    kind is one of 'z', 'plus', 'minus', 'x', 'y'; the result is real
    float64 for every kind but 'y', which is complex.
    """
    if n_qubits <= 0:
        raise ValueError(f"n_qubits must be positive, got {n_qubits}")
    if not 0 <= site < n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    try:
        mat = _SINGLE_SITE[kind]
    except KeyError:
        raise ValueError(f"unknown operator kind {kind!r}") from None
    return _embedded({site: mat}, n_qubits)


@lru_cache(maxsize=16)
def hamiltonian_terms(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient matrices (T_omega, T_epsilon, T_eta) for m peripheral spins.

    The full Hamiltonian is omega*T_omega + epsilon*T_epsilon + eta*T_eta,
    so parameter sweeps can reuse these instead of rebuilding Kronecker
    chains per grid cell.  Cached arrays are read-only.
    """
    if m < 2:
        raise ValueError(f"need at least 2 peripheral spins, got m={m}")
    n = m + 1
    plus, minus = _SINGLE_SITE["plus"], _SINGLE_SITE["minus"]

    def hop(a: int, b: int) -> np.ndarray:
        return _embedded({a: plus, b: minus}, n) + _embedded({a: minus, b: plus}, n)

    t_omega = 0.5 * sum(_embedded({k: _SINGLE_SITE["z"]}, n) for k in range(n))
    t_epsilon = sum(hop(k, 0) for k in range(1, m + 1))
    # ring neighbors, cyclic: site m couples back to site 1
    t_eta = sum(hop(k, k % m + 1) for k in range(1, m + 1))
    for term in (t_omega, t_epsilon, t_eta):
        term.setflags(write=False)
    return t_omega, t_epsilon, t_eta


def build_hamiltonian(params: SpinStarParams) -> np.ndarray:
    """Dense spin-star Hamiltonian with excitation-conserving couplings.

    Sum of the free splitting (omega/2) sigma_z on every spin, the exchange
    coupling epsilon between each peripheral spin and the central one, and
    the exchange coupling eta between neighboring peripheral spins on the
    ring.  The result is real symmetric float64, traceless, and commutes
    with the total excitation number.
    """
    t_omega, t_epsilon, t_eta = hamiltonian_terms(params.m)
    return params.omega * t_omega + params.epsilon * t_epsilon + params.eta * t_eta


@lru_cache(maxsize=32)
def sector_map(n_qubits: int) -> SectorMap:
    """Basis indices grouped by excitation number k = 0 .. n_qubits; cached, read-only."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be at least 1, got {n_qubits}")
    counts = np.array([i.bit_count() for i in range(2 ** n_qubits)])
    sectors = []
    for k in range(n_qubits + 1):
        idx = np.where(counts == k)[0]
        idx.setflags(write=False)
        sectors.append((k, idx))
    return SectorMap(n_qubits=n_qubits, sectors=tuple(sectors))


def restrict_to_sector(op: np.ndarray, sector) -> np.ndarray:
    """Submatrix of op on the given basis indices, preserving index order."""
    op = np.asarray(op)
    idx = np.asarray(sector, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("sector must be a nonempty index list")
    if np.unique(idx).size != idx.size:
        raise ValueError("duplicate indices in sector")
    if idx.min() < 0 or idx.max() >= op.shape[0]:
        raise ValueError("sector index out of range")
    return op[np.ix_(idx, idx)]

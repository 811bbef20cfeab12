"""Spin-star Hamiltonians and excitation-number sectors.

Qubit ordering convention: basis index i encodes the product state
|q_0 q_1 ... q_m> with the central spin q_0 as the most significant bit.
Tracing out the central spin then acts on contiguous half-blocks of the
density matrix.  Units are hbar = k_B = 1; omega, epsilon and eta are
energies in one common unit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# A whole negativity --t 0.1 process takes 0.30 s and 38 MiB at m=9, 0.47 s and
# 56 MiB at m=10, and 0.89 s and 117 MiB at m=11 on a 2-vCPU machine; the largest
# excitation-sector block of H has C(m+1, (m+1)//2) rows.
MAX_M = 11

# SpinStarParams rejects a norm bound (m+1)*omega/2 + m*(|epsilon|+|eta|) of H
# above this: the m=3 closed forms square energies and the Gibbs weights take
# their differences, so every step stays far from the float64 range.
MAX_ENERGY = 1e150

# Sectors of at least this dimension are solved in ring-translation blocks, and a
# one-spin cut's charge blocks of at least this dimension are split by the ring
# reflection that fixes the cut spin (entanglement.negativity), from m=7 and m=8
# on respectively.  One sector's build and solve, single-threaded, direct against
# blocks: 0.41 against 0.48 ms at d=55, 0.67 against 0.60 ms at d=66, 0.75 against
# 0.53 ms at d=70.
SYMMETRY_MIN_DIM = 60


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
        try:
            operator.index(self.m)
        except TypeError:
            raise ValueError(f"m must be an integer, got {self.m!r}") from None
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


def qubit_subset(qubits, n_qubits: int) -> tuple[int, ...]:
    """The distinct indices in qubits, sorted; ValueError unless they are integers in 0..n_qubits-1."""
    try:
        subset = tuple(sorted(set(map(operator.index, qubits))))
    except TypeError:
        raise ValueError(f"expected integer qubit indices, got {qubits!r}") from None
    if not subset or subset[0] < 0 or subset[-1] >= n_qubits:
        raise ValueError(f"expected qubit indices in 0..{n_qubits - 1}, got {qubits!r}")
    return subset


def qubit_count(shape) -> int:
    """n for a (2^n, 2^n) shape; ValueError for any other shape."""
    if len(shape) != 2 or shape[0] != shape[1] or shape[0].bit_count() != 1:
        raise ValueError(f"expected a square matrix of power-of-two dimension, got shape {shape}")
    return shape[0].bit_length() - 1


def excitations(n_qubits: int) -> np.ndarray:
    """Excitation number (popcount) of each basis index 0 .. 2^n_qubits - 1."""
    return (np.arange(2 ** n_qubits)[:, None] >> np.arange(n_qubits) & 1).sum(axis=1)


# the packed sizes that entanglement's int32 cut index can address: C(2n, n) < 2^31 up to n = 15
_PACKED_QUBITS = {(math.comb(2 * n, n),): n for n in range(1, 16)}


@lru_cache(maxsize=16)
def packed_positions(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(base, rank) over the basis indices of the packed layout; cached, read-only.

    A matrix that conserves the excitation number is packed as its n_qubits+1
    excitation blocks (the basis indices with j excitations, ascending), each
    raveled row-major, one after the other by j: C(2n, n) entries.  rank is an
    index's place in its block, and entry (i, j) of a block sits at base[i] + rank[j].
    """
    excited = excitations(n_qubits)
    sizes = np.bincount(excited)
    order = np.argsort(excited, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    base = (np.cumsum(sizes ** 2) - sizes ** 2)[excited] + rank * sizes[excited]
    for array in (base, rank):
        array.setflags(write=False)
    return base, rank


@lru_cache(maxsize=16)
def packed_entries(n_qubits: int) -> np.ndarray:
    """Flat index i * 2^n + j in the dense matrix of each packed entry; cached, read-only."""
    rank, excited = packed_positions(n_qubits)[1], excitations(n_qubits)
    order = np.argsort(excited, kind="stable")  # the basis indices in block order
    width = np.bincount(excited)[excited[order]]  # each row's block size
    rows = np.repeat(order, width)
    first = np.repeat(np.arange(order.size) - rank[order], width)  # where each row's block starts in order
    cols = order[first + np.arange(rows.size) - np.repeat(np.cumsum(width) - width, width)]
    entries = rows * 2 ** n_qubits + cols
    entries.setflags(write=False)
    return entries


def packed_qubits(shape) -> int:
    """n for a packed (C(2n, n),) shape (see packed_positions); ValueError for any other shape."""
    n = _PACKED_QUBITS.get(tuple(shape), -1)
    if n < 1:
        raise ValueError(f"expected a packed state of C(2n, n) entries, got shape {tuple(shape)}")
    return n


def build_hamiltonian(params: SpinStarParams) -> np.ndarray:
    """Dense spin-star Hamiltonian: the sector_terms blocks placed in the full space.

    Sum of the free splitting (omega/2) sigma_z on every spin, the exchange
    coupling epsilon between each peripheral spin and the central one, and
    the exchange coupling eta between neighboring peripheral spins on the
    ring.  The result is real symmetric float64, traceless, and commutes
    with the total excitation number.  A test and benchmark oracle: the
    evaluation path never forms it.
    """
    h = np.zeros((2 ** params.n_qubits,) * 2)
    for k, states, *terms in sector_terms(params.m):
        shift = params.omega * (k - (params.m + 1) / 2)
        h[states[:, None], states] = _stack(shift, [[params.epsilon]], [[params.eta]], states.size, *terms)[0]
    return h


@lru_cache(maxsize=16)
def sector_terms(m: int) -> tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """(k, states, flat, E_k, R_k) per excitation sector k of an m-spin star; cached, read-only.

    The one place that names the star's bonds.  states holds the basis
    indices with k excitations (see excitations), ascending; flat the
    row-major positions in sector k's block that a bit-flip hop reaches,
    and E_k, R_k the epsilon and eta coefficients there; the m=2 ring
    counts its one bond both ways.
    """
    n = m + 1
    bonds = np.array([(0, q) for q in range(1, m + 1)] + [(q, q % m + 1) for q in range(1, m + 1)])
    excited, (base, rank) = excitations(n), packed_positions(n)
    # each (bond, state) whose two bits differ hops to the state with both bits flipped
    bits = np.arange(2 ** n) >> (n - 1 - bonds[:, :, None]) & 1
    bond, source = np.nonzero(bits[:, 0] != bits[:, 1])
    target = source ^ (1 << (n - 1 - bonds[bond])).sum(axis=1)
    if not np.array_equal(excited[target], excited[source]):
        raise AssertionError("a hop leaves its excitation sector")
    # entry (target, source) of its sector's block sits at base[target] + rank[source] in the packed
    # layout, where the sectors' row-major blocks follow one another: the positions sort by (k, flat)
    where, slot = np.unique(base[target] + rank[source], return_inverse=True)
    on_ring = bond >= m  # the first m bonds are the centre's
    central, ring = (np.bincount(slot.ravel(), term, where.size) for term in (~on_ring, on_ring))
    sizes = np.bincount(excited)
    starts = np.cumsum(sizes ** 2) - sizes ** 2
    cut = np.searchsorted(where, starts)
    out = []
    for k, (lo, hi) in enumerate(zip(cut, [*cut[1:], where.size])):
        states = np.flatnonzero(excited == k)
        entries = (where[lo:hi] - starts[k], central[lo:hi], ring[lo:hi])
        for array in (states, *entries):
            array.setflags(write=False)
        out.append((k, states, *entries))
    return tuple(out)


@lru_cache(maxsize=64)
def translation_blocks(m: int, k: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """(columns, coefficients, E, R) per real ring-translation block of sector k; cached, read-only.

    The ring rotation commutes with H and splits the sector into orbits.  An
    orbit of period L takes momentum kappa when kappa*L = 0 (mod m): kappa = 0
    and m/2 give it one cosine column, each +-kappa pair a cosine and a sine
    (Sandvik, arXiv:1101.3281).  Row s of a block's basis Q holds
    coefficients[s] at columns[s]; E = Q^T E_k Q and R = Q^T R_k Q.  Raises
    AssertionError unless the basis is orthonormal and E_k Q = Q E, R_k Q = Q R, to 1e-12.
    """
    _, states, flat, central, ring = sector_terms(m)[k]
    d, periphery, shifts = states.size, (1 << m) - 1, np.arange(m)[:, None]
    turns = (states & ~periphery) | ((states & periphery) >> shifts | states << (m - shifts)) & periphery
    period = np.vstack([turns[1:] == states, np.ones(d, bool)]).argmax(axis=0) + 1
    orbit = np.unique(turns.min(axis=0), return_inverse=True)[1].ravel()
    position = -turns.argmin(axis=0) % period  # the state is its orbit's least one turned this far
    blocks = []
    for kappa in range(m // 2 + 1):
        allowed = kappa * period % m == 0
        p = 1 if 2 * kappa % m == 0 else 2  # kappa = 0 or m/2: cosines alone
        rank = np.cumsum(np.bincount(orbit, allowed) > 0) - 1
        angle = 2 * np.pi * (kappa * position % m) / m
        columns = np.where(allowed[:, None], rank[orbit, None] + [0, rank[-1] + 1], 0)
        phases = np.stack([np.cos(angle), np.sin(angle)], axis=1) * np.sqrt(allowed * p / period)[:, None]
        if rank[-1] >= 0:
            blocks.append((columns[:, :p], phases[:, :p]))
    sizes = [columns.max() + 1 for columns, _ in blocks]
    index = np.concatenate([c + offset for (c, _), offset in zip(blocks, np.cumsum([0] + sizes))], axis=1)
    weight = np.concatenate([w for _, w in blocks], axis=1)
    gram = np.bincount((index[:, :, None] * d + index[:, None, :]).ravel(),
                       (weight[:, :, None] * weight[:, None, :]).ravel(), d * d)
    gram[::d + 1] -= 1.0
    if sum(sizes) != d or np.max(np.abs(gram)) > 1e-12:
        raise AssertionError(f"the translation basis of sector {k} is not orthonormal")
    row, col = np.divmod(flat, d)
    out = []
    for (columns, coefficients), b in zip(blocks, sizes):
        basis = np.zeros((d, b))
        np.put_along_axis(basis, columns, coefficients, axis=1)
        # X Q from the hops (row, col) of X = E_k, R_k: Q (Q^T X Q) = X Q when X keeps Q's span
        targets = (row[:, None] * b + columns[col]).ravel()
        moved = np.stack([np.bincount(targets, (x[:, None] * coefficients[col]).ravel(), d * b)
                          for x in (central, ring)], dtype=float).reshape(2, d, b)
        terms = basis.T @ moved
        terms = 0.5 * (terms + terms.swapaxes(1, 2))
        if np.max(np.abs(moved - basis @ terms)) > 1e-12:
            raise AssertionError(f"translation block of sector {k} does not reconstruct its terms")
        for array in (columns, coefficients, terms):
            array.setflags(write=False)
        out.append((columns, coefficients, *terms))
    return tuple(out)


def _stack(shift: float, epsilon, eta, size: int, flat, central, ring) -> np.ndarray:
    """shift*I + epsilon_i*central + eta_i*ring (raveled, at flat) per row i of the (cells, 1) couplings."""
    blocks = np.zeros((len(epsilon), size * size))
    blocks[:, flat] = epsilon * central.ravel() + eta * ring.ravel()
    blocks[:, ::size + 1] += shift
    return blocks.reshape(-1, size, size)


def symmetry_hamiltonians(cells):
    """Yield (k, states, stack) for k = 0..m+1, stacked over cells sharing m and omega, for stacked_spectra.

    stack[i] = omega*(k - (m+1)/2)*I + epsilon_i*E_k + eta_i*R_k for the i-th SpinStarParams of
    cells; a sector of SYMMETRY_MIN_DIM states or more comes as a tuple of (columns,
    coefficients, stack) parts instead, one per translation_blocks block.  ValueError if they do not.
    """
    m, omega = cells[0].m, cells[0].omega
    if any(p.m != m or p.omega != omega for p in cells):
        raise ValueError(f"the cells of a stack must share m={m} and omega={omega}")
    epsilon, eta = np.array([[p.epsilon, p.eta] for p in cells]).T[:, :, None]  # each (cells, 1)
    for k, states, *terms in sector_terms(m):
        shift = omega * (k - (m + 1) / 2)
        if states.size < SYMMETRY_MIN_DIM:
            yield k, states, _stack(shift, epsilon, eta, states.size, *terms)
        else:
            yield k, states, tuple((q, c, _stack(shift, epsilon, eta, len(e), slice(None), e, r))
                                   for q, c, e, r in translation_blocks(m, k))

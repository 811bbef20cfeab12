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
from typing import NamedTuple

import numpy as np

# README's CLI section gives the measured cost of a whole negativity process
# at m=9..11; the largest excitation sector, C(m+1, (m+1)//2) states, is solved in dihedral
# blocks, and the m equal cuts once.
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
    excited = excitations(n_qubits)
    blocks = (np.flatnonzero(excited == j) for j in range(n_qubits + 1))  # ascending, by excitations
    entries = np.concatenate([(states[:, None] * 2 ** n_qubits + states).ravel() for states in blocks])
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
    h = np.zeros((2 ** (params.m + 1),) * 2)
    for k, states, flat, central, ring in sector_terms(params.m):
        block = np.zeros(states.size ** 2)
        block[flat] = params.epsilon * central + params.eta * ring
        block[::states.size + 1] += params.omega * (k - (params.m + 1) / 2)
        h[states[:, None], states] = block.reshape(states.size, states.size)
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


def ring_turns(states: np.ndarray, m: int) -> np.ndarray:
    """Each state turned r = 0..m-1 times around the ring (spin j to spin j + r), as an (m, states) array.

    Bits above the ring are kept.  The one rotation formula: the dihedral orbits and the one-spin cuts
    of entanglement._cut are turned with it.
    """
    periphery, shifts = (1 << m) - 1, np.arange(m)[:, None]
    return (states & ~periphery) | ((states & periphery) >> shifts | states << (m - shifts)) & periphery


def ring_mirror(states: np.ndarray, m: int) -> np.ndarray:
    """Each state with ring spin j (bit m-1-j) moved to spin -j (mod m), bits above the ring kept."""
    spins = np.arange(m)
    return (states & ~((1 << m) - 1)) | ((states[..., None] >> (m - 1 - spins) & 1)
                                         << (m - 1 - (-spins) % m)).sum(axis=-1)


class DihedralBlocks(NamedTuple):
    """A sector's real dihedral blocks (see dihedral_blocks); every array read-only.

    Copy c of the sector's basis carries the eigenvectors of solved block solved[c]: its row s holds
    coefficients[s, c] at columns[s, c], at most two entries.  The sector's eigenpairs come copy after
    copy, each in its block's order; slots holds each one's place p * width + i among the solved
    blocks' eigenpairs padded to (blocks, width), and copies its copy.  groups holds, per size of
    solved block, (the blocks of that size, their E and R stacked).  halves holds thermal._orbit_rows'
    gathers for the centre-0 part (the first C(m, k) states), then the centre-1 part: the rows of each
    orbit's least state in the padded solved blocks, each state's c * width + column, and coefficients.
    fill rebuilds the centre-0 part of a matrix G with G[T s, T s'] = G[s, s'] from its rows at the part's
    orbits' least states, ascending, raveled: G[s, s'] = G[a, T^r s'], where T^r s = a is s's least state.
    """

    columns: np.ndarray  # (states, copies, 2)
    coefficients: np.ndarray  # (states, copies, 2)
    solved: np.ndarray  # (copies,)
    slots: np.ndarray  # (states,)
    copies: np.ndarray  # (states,)
    width: int
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    halves: tuple[tuple[np.ndarray, ...], ...]  # (orbits, copies, 2) twice, (states, 2 * copies) twice
    fill: np.ndarray  # (C(m, k), C(m, k)), int32


@lru_cache(maxsize=64)
def dihedral_blocks(m: int, k: int) -> DihedralBlocks:
    """Sector k in real blocks of the ring's rotation T (spin j to j+1) and reflection R (j to -j); cached.

    Both commute with H and fix the centre; R is ring_mirror.  T splits the sector into orbits, and an
    orbit of period L carries momentum kappa when kappa*L = 0 (mod m).  R maps an orbit's cosine and sine
    states (Sandvik, arXiv:1101.3281) to those of its mirror orbit, and kappa to -kappa.  So for 0 < kappa
    < m/2 the R-even combinations, one per orbit, give one block that is solved, and J = (T - T^-1) / (2
    sin 2pi kappa/m), which commutes with H and maps them onto the R-odd ones, gives its partner copy with
    the same spectrum.  kappa = 0 and m/2 split into an R-even and an R-odd block.  Each row of a copy
    holds at most two entries, built from the orbits' least states in O(states * m), and E = Q^T E_k Q,
    R = Q^T R_k Q come from the hops.  The same orbits give the Gibbs step's gathers (halves) and the
    centre-0 part's fill.  Raises AssertionError unless the basis is orthonormal on each orbit and its
    mirror, and E_k Q = Q E, R_k Q = Q R hold on each orbit's least state, to 1e-12.
    """
    _, states, flat, central, ring = sector_terms(m)[k]
    d, turns = states.size, ring_turns(states, m)
    period = np.vstack([turns[1:] == states, np.ones(d, bool)]).argmax(axis=0) + 1
    least, orbit = np.unique(turns.min(axis=0), return_inverse=True)
    orbit, least = orbit.ravel(), np.searchsorted(states, least)
    lowest = turns.argmin(axis=0)  # the turn that takes each state to its orbit's least one
    position = -lowest % period  # the state is its orbit's least one turned this far
    # each orbit's mirror orbit, turned `shift` from its least state
    mirror = np.searchsorted(states, ring_mirror(states[least], m))
    partner, shift = orbit[mirror][orbit], position[mirror][orbit]
    lower, upper, alone = orbit < partner, orbit > partner, orbit == partner
    group = np.minimum(orbit, partner)
    copies, block = [], 0  # (solved block, columns, coefficients, each column's orbit group); a counter

    def columns_of(owns):  # a column per orbit that owns one, in orbit order
        return np.cumsum(owns[least]) - 1, group[least][owns[least]]

    for kappa in range(m // 2 + 1):
        allowed = kappa * period % m == 0
        if not allowed.any():
            continue
        special = 2 * kappa % m == 0  # kappa = 0 or m/2: cosines alone
        # psi in units of pi/m: the state's angle, less the mirror's for an upper orbit, half of it if alone
        phase = np.where(lower, 2 * kappa * position,
                         np.where(upper, 2 * kappa * (position - shift), kappa * (2 * position - shift)))
        angle = np.pi * (phase % (2 * m)) / m
        c, s = np.cos(angle), np.sin(angle)
        scale = np.where(alone, math.sqrt(2), 1.0) / np.sqrt(period * (2 if special else 1))
        if special:
            even = alone & (kappa * shift % m == 0)  # R keeps the cosine state of an orbit alone
            for owns, owner, value in ((allowed & (lower | even), group, c),
                                       (allowed & (upper | alone & ~even), np.maximum(orbit, partner),
                                        np.where(lower, -c, np.where(upper, c, s)))):
                if not owns.any():
                    continue
                rank, owned = columns_of(owns)
                used = allowed & (~alone | owns)
                columns = np.stack([np.where(used, rank[owner], 0), np.zeros(d, int)], axis=1)
                coefficients = np.stack([np.where(used, value * scale, 0.0), np.zeros(d)], axis=1)
                copies.append((block, columns, coefficients, owned))
                block += 1
        else:
            rank, owned = columns_of(allowed)
            columns = np.where(allowed[:, None], np.stack([rank[orbit], rank[partner]], axis=1), 0)
            # each entry (lower, upper, alone) of the R-even copy, then of its partner J Q
            for first, second in (((c, -s, c), (s, c, 0.0)), ((s, c, s), (-c, s, 0.0))):
                values = [np.where(lower, a, np.where(upper, b, e)) for a, b, e in (first, second)]
                coefficients = np.where(allowed[:, None], np.stack(values, axis=1) * scale[:, None], 0.0)
                copies.append((block, columns, coefficients, owned))
            block += 1
    solved = np.array([p for p, *_ in copies])
    columns, coefficients = (np.stack([copy[i] for copy in copies], axis=1) for i in (1, 2))
    owner = np.concatenate([copy[3] for copy in copies])  # the orbit group of each column of Q
    sizes = np.array([copy[3].size for copy in copies])
    # orthonormal on each orbit group: one square matrix per group, its states' rows on its columns
    offsets = np.cumsum(sizes) - sizes
    entries = (columns + offsets[:, None]).reshape(d, -1)  # each entry's column of Q
    state, entry = np.nonzero(coefficients.reshape(d, -1))
    span = np.bincount(owner, minlength=orbit.max() + 1)  # each group's columns
    if (np.any(owner[entries[state, entry]] != group[state])
            or np.any(np.bincount(group, minlength=span.size) != span)):
        raise AssertionError(f"the dihedral basis of sector {k} does not keep its orbit groups")
    place, line = np.empty(d, int), np.empty(d, int)  # each column's and each state's place in its group
    for array, key in ((place, owner), (line, group)):
        array[np.argsort(key, kind="stable")] = np.arange(d) - np.repeat(np.cumsum(span) - span, span)
    blocks = np.zeros((span.size, span.max(), span.max()))
    values = coefficients.reshape(d, -1)[state, entry]
    blocks[group[state], line[state], place[entries[state, entry]]] = values
    gram = blocks.swapaxes(1, 2) @ blocks - (np.arange(span.max()) < span[:, None, None]) * np.eye(span.max())
    if np.max(np.abs(gram)) > 1e-12:
        raise AssertionError(f"the dihedral basis of sector {k} is not orthonormal")
    row, col = np.divmod(flat, d)
    width, first = int(sizes.max()), np.flatnonzero(np.diff(solved, prepend=-1))  # each block's first copy
    # Q^T X Q = U + U^T per solved block, U from the hops (row < col) of X = E_k, R_k: <= 4 entries each
    q, e, half = columns[:, first], coefficients[:, first], row < col
    keys = ((np.arange(first.size)[:, None] * width + q[row[half]])[..., :, None] * width
            + q[col[half]][..., None, :]).ravel()
    products = (e[row[half]][..., :, None] * e[col[half]][..., None, :]).reshape(-1, 4 * first.size)
    terms = np.stack([np.bincount(keys, (x[half, None] * products).ravel(), first.size * width ** 2)
                      for x in (central, ring)]).reshape(2, first.size, width, width)
    terms += terms.swapaxes(-1, -2).copy()
    # X Q = Q (Q^T X Q) on each orbit's least state, for every copy
    at_least = np.full(d, -1)
    at_least[least] = np.arange(least.size)
    hop = at_least[row] >= 0  # the hops out of each orbit's least state
    keys = (((at_least[row[hop], None] * solved.size + np.arange(solved.size))[..., None] * width
             + columns[col[hop]]).ravel())
    for x, term in zip((central, ring), terms):
        moved = np.bincount(keys, (x[hop, None, None] * coefficients[col[hop]]).ravel(),
                            least.size * solved.size * width)
        rebuilt = sum(coefficients[least][..., i, None] * term[solved, columns[least][..., i]]
                      for i in range(2))
        if np.max(np.abs(moved.reshape(rebuilt.shape) - rebuilt)) > 1e-12:
            raise AssertionError(f"a dihedral block of sector {k} does not reconstruct its terms")
    copy = np.repeat(np.arange(solved.size), sizes)
    slots = solved[copy] * width + np.arange(d) - np.repeat(offsets, sizes)
    # one eigh call per block size (a plain np.unique would import numpy.ma, 26 ms, on numpy 2.4)
    part = sizes[first]
    groups = tuple((np.flatnonzero(part == b), *terms[:, part == b, :b, :b])
                   for b in sorted(set(part.tolist())))
    split = math.comb(m, k)  # the centre-0 part's states come first, and so do its orbits
    fill = (orbit[:split, None] * split + np.searchsorted(states[:split], turns[:, :split])[lowest[:split]])
    fill = fill.astype(np.int32)  # C(m, k)^2 < 2^31 up to m = 15, as for entanglement's cut index
    by_state = (columns + width * np.arange(solved.size)[:, None]).reshape(d, -1), coefficients.reshape(d, -1)
    parts = zip(np.split(least, [np.searchsorted(least, split)]), (slice(split), slice(split, d)))
    halves = tuple((solved[:, None] * width + columns[at], coefficients[at], *(x[piece] for x in by_state))
                   for at, piece in parts)
    for array in (columns, coefficients, solved, slots, copy, fill,
                  *(a for b in (*groups, *halves) for a in b)):
        array.setflags(write=False)
    return DihedralBlocks(columns, coefficients, solved, slots, copy, width, groups, halves, fill)


def symmetry_hamiltonians(cells):
    """Yield (k, states, (dihedral_blocks(m, k), stacks)) for k = 0..m+1, for stacked_spectra.

    stacks holds, per group of sector k's equal solved blocks, their (cells, blocks, size, size) stack
    omega*(k - (m+1)/2)*I + epsilon_i*E + eta_i*R for the i-th SpinStarParams of cells, with E and R the
    blocks of E_k and R_k.  The cells must share m and omega; ValueError if they do not.
    """
    m, omega = cells[0].m, cells[0].omega
    if any(p.m != m or p.omega != omega for p in cells):
        raise ValueError(f"the cells of a stack must share m={m} and omega={omega}")
    epsilon, eta = np.array([[p.epsilon, p.eta] for p in cells]).T[:, :, None, None, None]  # (cells, 1, 1, 1)
    for k, states, *_ in sector_terms(m):
        shift, blocks = omega * (k - (m + 1) / 2), dihedral_blocks(m, k)
        yield k, states, (blocks, [epsilon * e + eta * r + shift * np.eye(len(e[0]))
                                   for _, e, r in blocks.groups])

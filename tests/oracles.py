"""Brute-force reference implementations used to cross-check the library.

Everything here manipulates explicit basis indices bit by bit, on purpose:
the point is independence from the reshape/einsum code paths under test.
Bit convention matches the library: qubit 0 is the most significant bit.
The one exception is eigh, the dense full-space spectrum that the sector
route is compared against.
"""

import math

import numpy as np

from spinstar.spectra import SpectralDecomposition, stacked_spectra


def bit_of(index, qubit, n_qubits):
    return (index >> (n_qubits - 1 - qubit)) & 1


def set_bit(index, qubit, value, n_qubits):
    mask = 1 << (n_qubits - 1 - qubit)
    return (index | mask) if value else (index & ~mask)


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for mat in mats:
        out = np.kron(out, mat)
    return out


def basis_vector(bits):
    n = len(bits)
    vec = np.zeros(2 ** n, dtype=complex)
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    vec[index] = 1.0
    return vec


def dm(vec):
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def eigh(op: np.ndarray) -> SpectralDecomposition:
    """Full spectrum of a Hermitian matrix (checked to 1e-10) as one block with label 0."""
    return stacked_spectra([(0, np.arange(len(op)), np.asarray(op)[None])])[0]


def bell_state():
    vec = np.zeros(4, dtype=complex)
    vec[0b00] = vec[0b11] = 1.0 / np.sqrt(2.0)
    return vec


def ghz_state(n=3):
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
    return vec


def w_state():
    vec = np.zeros(8, dtype=complex)
    vec[0b100] = vec[0b010] = vec[0b001] = 1.0 / np.sqrt(3.0)
    return vec


def brute_partial_transpose(rho, part_a, n_qubits):
    """Element-by-element partial transpose: swap the part_a bits of row and column."""
    dim = 2 ** n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            i2, j2 = i, j
            for q in part_a:
                i2 = set_bit(i2, q, bit_of(j, q, n_qubits), n_qubits)
                j2 = set_bit(j2, q, bit_of(i, q, n_qubits), n_qubits)
            out[i, j] = rho[i2, j2]
    return out


def brute_partial_trace(rho, keep, n_qubits):
    """Partial trace by explicit summation over the traced-out bit patterns."""
    keep = sorted(keep)
    traced = [q for q in range(n_qubits) if q not in keep]
    dim_keep = 2 ** len(keep)
    out = np.zeros((dim_keep, dim_keep), dtype=complex)
    for a in range(dim_keep):
        for b in range(dim_keep):
            total = 0.0 + 0j
            for c in range(2 ** len(traced)):
                i = j = 0
                for pos, q in enumerate(keep):
                    i = set_bit(i, q, bit_of(a, pos, len(keep)), n_qubits)
                    j = set_bit(j, q, bit_of(b, pos, len(keep)), n_qubits)
                for pos, q in enumerate(traced):
                    value = bit_of(c, pos, len(traced))
                    i = set_bit(i, q, value, n_qubits)
                    j = set_bit(j, q, value, n_qubits)
                total += rho[i, j]
            out[a, b] = total
    return out


def brute_star_hamiltonian(m, omega, eps, eta):
    """Spin-star Hamiltonian assembled entry by entry from bit flips.

    Qubit 0 is the centre; each exchange term sigma+ sigma- + h.c. moves one
    excitation between two sites whose bits differ.
    """
    n = m + 1
    dim = 2 ** n
    bonds = [(0, k, eps) for k in range(1, m + 1)]
    bonds += [(k, 1 if k == m else k + 1, eta) for k in range(1, m + 1)]
    h = np.zeros((dim, dim))
    for i in range(dim):
        h[i, i] = 0.5 * omega * sum(2 * bit_of(i, q, n) - 1 for q in range(n))
        for a, b, coupling in bonds:
            if bit_of(i, a, n) != bit_of(i, b, n):
                j = set_bit(set_bit(i, a, 1 - bit_of(i, a, n), n), b, bit_of(i, a, n), n)
                h[j, i] += coupling
    return h


def qubit_permutation_matrix(mapping, n_qubits):
    """Unitary sending each basis state to the one with bit k moved to mapping[k]."""
    dim = 2 ** n_qubits
    perm = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = 0
        for q in range(n_qubits):
            j = set_bit(j, mapping[q], bit_of(i, q, n_qubits), n_qubits)
        perm[j, i] = 1.0
    return perm


def random_density(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_separable(rng, dims_a, dims_b, n_terms=4):
    """Convex mixture of product states over an (A, B) split."""
    weights = rng.uniform(0.1, 1.0, n_terms)
    weights /= weights.sum()
    rho = np.zeros((dims_a * dims_b, dims_a * dims_b), dtype=complex)
    for w in weights:
        rho += w * np.kron(random_density(rng, dims_a), random_density(rng, dims_b))
    return rho


def restrict_to_sector(op, sector):
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


def free_fermion_spectrum(m, omega, eta):
    """Closed-form spectrum of the star at epsilon = 0, ascending, for the tests at every m.

    The centre decouples, so each level is omega*(k - (m+1)/2), k the excitations of centre and ring,
    plus the XX ring's energy.  Jordan-Wigner makes the ring free fermions (Lieb, Schultz & Mattis,
    Ann. Phys. 16, 407 (1961)): its boundary bond carries (-1)^(N-1) for N fermions, so the modes are
    2 eta cos(2 pi (q + phi)/m), q = 0..m-1, phi = 0 for odd N and 1/2 for even N, and an N-fermion
    level sums N distinct modes.  At m=2 the one bond, counted both ways, gives +-2 eta.
    """
    count, ring = free_fermion_ring(m, eta)
    return np.sort(np.concatenate([omega * (centre + count - (m + 1) / 2) + ring for centre in (0, 1)]))


def free_fermion_ring(m, eta):
    """(fermion number, XX energy) of each of the ring's 2^m occupation sets (see free_fermion_spectrum)."""
    occupied = np.arange(2 ** m)[:, None] >> np.arange(m) & 1
    count = occupied.sum(axis=1)
    phi = np.where(count % 2 == 1, 0.0, 0.5)[:, None]
    return count, (occupied * 2 * eta * np.cos(2 * np.pi * (np.arange(m) + phi) / m)).sum(axis=1)


def collective_spin_spectrum(m, omega, eps):
    """Closed-form spectrum of the star at eta = 0, ascending, for the tests at every m.

    The ring enters only through its collective spin J (Hutton & Bose, Phys. Rev. A 69, 042312 (2004)):
    H = omega (s_z + J_z) + eps (s+ J- + s- J+).  Total ring spin j comes C(m, m/2 - j) - C(m, m/2 - j - 1)
    times.  Each copy pairs |down, M> with |up, M - 1>, M = -j+1..j, both at omega (M - 1/2), into a 2x2
    block of coupling eps sqrt((j + M)(j - M + 1)); |down, -j> and |up, j> stay alone at -+omega (j + 1/2).
    """
    levels = []
    for k in range(m // 2 + 1):  # j = m/2 - k
        j = m / 2 - k
        copies = math.comb(m, k) - (math.comb(m, k - 1) if k else 0)
        spins = np.arange(-j + 1, j + 1)
        split = eps * np.sqrt((j + spins) * (j - spins + 1))
        multiplet = np.concatenate([omega * np.array([-j - 0.5, j + 0.5]),
                                    omega * (spins - 0.5) - split, omega * (spins - 0.5) + split])
        levels += [multiplet] * copies
    return np.sort(np.concatenate(levels))


def einsum_orbit_rows(gibbs, half):
    """thermal._orbit_rows as two einsum contractions, the form it had before its row sum became two
    multiply-adds; an oracle for its bits."""
    rows, row_entries, columns, column_entries = half
    left = np.einsum("...rcij,rci->...rcj", np.take(gibbs.reshape(*gibbs.shape[:-3], -1, gibbs.shape[-1]),
                                                    rows, axis=-2), row_entries)
    picked = np.take(left.reshape(*left.shape[:-2], -1), columns, axis=-1)
    return np.einsum("...rsk,sk->...rs", picked, column_entries)

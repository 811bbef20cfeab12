import numpy as np
import pytest

from spinstar import SpinStarParams
from spinstar.operators import build_hamiltonian, excitations, sector_terms

from oracles import kron_chain, qubit_permutation_matrix, restrict_to_sector


def test_params_validation():
    with pytest.raises(ValueError):
        SpinStarParams(m=1, omega=1.0, epsilon=0.0, eta=0.0)
    with pytest.raises(ValueError):
        SpinStarParams(m=3, omega=0.0, epsilon=0.0, eta=0.0)
    with pytest.raises(ValueError):
        SpinStarParams(m=3, omega=-1.0, epsilon=0.0, eta=0.0)
    with pytest.raises(ValueError):
        SpinStarParams(m=3, omega=1.0, epsilon=float("nan"), eta=0.0)
    with pytest.raises(ValueError):
        SpinStarParams(m=3, omega=1.0, epsilon=0.0, eta=float("inf"))


def test_free_hamiltonian_is_diagonal_popcount():
    h = build_hamiltonian(SpinStarParams(m=3, omega=1.0, epsilon=0.0, eta=0.0))
    expected = np.diag([0.5 * (2 * i.bit_count() - 4) for i in range(16)]).astype(complex)
    assert np.allclose(h, expected, atol=1e-14)


def test_hamiltonian_matches_explicit_kron_build():
    # independent construction: raw Kronecker chains, no embedding helper
    sz = np.array([[-1, 0], [0, 1]], dtype=complex)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    sm = sp.conj().T
    eye = np.eye(2, dtype=complex)

    def site_ops(mapping, n):
        return kron_chain([mapping.get(k, eye) for k in range(n)])

    rng = np.random.default_rng(70)
    for m in range(2, 8):
        omega, eps, eta = rng.uniform(0.1, 3.0), *rng.uniform(-3.0, 3.0, 2)
        n = m + 1
        expected = sum(0.5 * omega * site_ops({k: sz}, n) for k in range(n))
        for k in range(1, m + 1):
            expected = expected + eps * (site_ops({k: sp, 0: sm}, n) + site_ops({k: sm, 0: sp}, n))
        for k in range(1, m + 1):
            j = 1 if k == m else k + 1
            expected = expected + eta * (site_ops({k: sp, j: sm}, n) + site_ops({k: sm, j: sp}, n))

        h = build_hamiltonian(SpinStarParams(m=m, omega=omega, epsilon=eps, eta=eta))
        assert np.max(np.abs(h - expected)) < 1e-14


def test_hamiltonian_m2_ring_pair_counted_twice():
    # the cyclic ring sum visits the single (1,2) pair from both sides
    sz = np.array([[-1, 0], [0, 1]], dtype=complex)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    sm = sp.conj().T
    eye = np.eye(2, dtype=complex)

    def site_ops(mapping):
        return kron_chain([mapping.get(k, eye) for k in range(3)])

    eta = 0.9
    expected = sum(0.5 * site_ops({k: sz}) for k in range(3))
    expected = expected + 2.0 * eta * (site_ops({1: sp, 2: sm}) + site_ops({1: sm, 2: sp}))
    h = build_hamiltonian(SpinStarParams(m=2, omega=1.0, epsilon=0.0, eta=eta))
    assert np.max(np.abs(h - expected)) < 1e-14


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_hamiltonian_hermitian_and_traceless(m):
    rng = np.random.default_rng(7 + m)
    for _ in range(5):
        eps, eta = rng.uniform(-5, 5, 2)
        h = build_hamiltonian(SpinStarParams(m=m, omega=1.0, epsilon=eps, eta=eta))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert abs(np.trace(h)) < 1e-12 * h.shape[0]


def test_lowest_eigenvalue_closed_form():
    h = build_hamiltonian(SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=0.5))
    lam = np.linalg.eigvalsh(h)
    assert abs(lam[0] - (0.5 - np.sqrt(3.25) - 1.0)) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_hamiltonian_commutes_with_number_operator(m):
    rng = np.random.default_rng(11 + m)
    eps, eta = rng.uniform(-3, 3, 2)
    h = build_hamiltonian(SpinStarParams(m=m, omega=1.0, epsilon=eps, eta=eta))
    num = np.diag([float(i.bit_count()) for i in range(2 ** (m + 1))])
    assert np.max(np.abs(h @ num - num @ h)) < 1e-12


def test_hamiltonian_vanishes_between_sectors():
    h = build_hamiltonian(SpinStarParams(m=3, omega=1.0, epsilon=2.0, eta=1.0))
    for i in range(16):
        for j in range(16):
            if i.bit_count() != j.bit_count():
                assert h[i, j] == 0.0


def test_cyclic_permutation_invariance():
    # relabel peripheral spins 1 -> 2 -> 3 -> 1, central spin fixed
    h = build_hamiltonian(SpinStarParams(m=3, omega=1.0, epsilon=1.7, eta=0.6))
    perm = qubit_permutation_matrix({0: 0, 1: 2, 2: 3, 3: 1}, 4)
    assert np.max(np.abs(perm @ h @ perm.conj().T - h)) < 1e-12


def test_cyclic_permutation_invariance_m5():
    h = build_hamiltonian(SpinStarParams(m=5, omega=1.0, epsilon=0.8, eta=1.1))
    mapping = {0: 0}
    mapping.update({k: k % 5 + 1 for k in range(1, 6)})
    perm = qubit_permutation_matrix(mapping, 6)
    assert np.max(np.abs(perm @ h @ perm.conj().T - h)) < 1e-12


def test_sector_map_two_qubits():
    assert list(excitations(2)) == [0, 1, 1, 2]
    assert list(excitations(1)) == [0, 1]


def test_sector_map_sizes_are_binomial():
    # the production partition: sector_terms' ascending state lists, here of 4 qubits
    sizes = [states.size for _, states, *_ in sector_terms(3)]
    assert sizes == [1, 4, 6, 4, 1]
    assert sum(sizes) == 16
    covered = np.sort(np.concatenate([states for _, states, *_ in sector_terms(3)]))
    assert np.array_equal(covered, np.arange(16))


def test_sector_membership_is_popcount():
    for k, states, *_ in sector_terms(4):
        assert all(int(i).bit_count() == k for i in states)
        assert np.all(np.diff(states) > 0)
    assert [int(i).bit_count() for i in range(64)] == list(excitations(6))


def test_restrict_identity():
    for _, states, *_ in sector_terms(3):
        block = restrict_to_sector(np.eye(16, dtype=complex), states)
        assert np.array_equal(block, np.eye(states.size, dtype=complex))


def test_restrict_vacuum_sector_of_star():
    omega = 1.0
    h = build_hamiltonian(SpinStarParams(m=3, omega=omega, epsilon=1.0, eta=0.7))
    block = restrict_to_sector(h, sector_terms(3)[0][1])
    assert block.shape == (1, 1)
    assert abs(block[0, 0] - (-2.0 * omega)) < 1e-14


def test_restrict_single_excitation_sector_eigenvalues():
    omega, eps, eta = 1.0, 1.4, 0.3
    h = build_hamiltonian(SpinStarParams(m=3, omega=omega, epsilon=eps, eta=eta))
    block = restrict_to_sector(h, sector_terms(3)[1][1])
    lam = np.sort(np.linalg.eigvalsh(block))
    root = np.sqrt(3 * eps ** 2 + eta ** 2)
    expected = np.sort([eta - root - omega, -eta - omega, -eta - omega, eta + root - omega])
    assert np.max(np.abs(lam - expected)) < 1e-12


def test_restrict_input_errors():
    op = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        restrict_to_sector(op, [0, 0])
    with pytest.raises(ValueError):
        restrict_to_sector(op, [3, 4])
    with pytest.raises(ValueError):
        restrict_to_sector(op, [])

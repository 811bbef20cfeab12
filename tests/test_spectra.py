import numpy as np
import pytest

from spinstar import (
    SpinStarParams,
    analytic_ground_state_m3,
    analytic_spectrum_m3,
    ground_manifold,
)
from spinstar.operators import MAX_M, build_hamiltonian
from spinstar.spectra import spectrum_blocked
from spinstar.thermal import star_spectrum

from oracles import collective_spin_spectrum, eigh, free_fermion_spectrum, random_unitary


def star(m, omega, eps, eta):
    return build_hamiltonian(SpinStarParams(m=m, omega=omega, epsilon=eps, eta=eta))


def test_eigh_sorts_diagonal():
    spec = eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])


def test_eigh_sigma_x():
    spec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(abs(minus.conj() @ spec.vectors(spec.dim)[:, 0]) - 1.0) < 1e-12
    assert abs(abs(plus.conj() @ spec.vectors(spec.dim)[:, 1]) - 1.0) < 1e-12


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_stacked_hermiticity_check_covers_every_cell():
    from spinstar.spectra import stacked_spectra

    sym = np.array([[1.0, 0.5], [0.5, 2.0]])
    skewed = sym + np.array([[0.0, 1e-9], [0.0, 0.0]])
    assert len(stacked_spectra([(0, np.arange(2), np.stack([sym, sym]))])) == 2
    with pytest.raises(ValueError, match="not Hermitian"):
        stacked_spectra([(0, np.arange(2), np.stack([sym, skewed, sym]))])


def test_eigh_orthonormality_and_reconstruction():
    rng = np.random.default_rng(3)
    for dim in (4, 9, 16):
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = mat + mat.conj().T
        spec = eigh(mat)
        v = spec.vectors(spec.dim)
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10
        rebuilt = (v * spec.eigenvalues) @ v.conj().T
        assert np.max(np.abs(mat - rebuilt)) < 1e-10 * np.max(np.abs(mat))


def test_analytic_spectrum_free_spins():
    lam = analytic_spectrum_m3(1.0, 0.0, 0.0)
    values, counts = np.unique(lam, return_counts=True)
    assert np.allclose(values, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert list(counts) == [1, 4, 6, 4, 1]


def test_analytic_spectrum_sums_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        omega = rng.uniform(0.2, 3.0)
        eps, eta = rng.uniform(-10, 10, 2)
        assert abs(analytic_spectrum_m3(omega, eps, eta).sum()) < 1e-10


def test_analytic_spectrum_six_fold_crossing():
    lam = analytic_spectrum_m3(1.0, 1.0, 1.0)
    assert int(np.sum(np.abs(lam + 2.0) < 1e-12)) == 6


def test_numerical_spectrum_matches_analytic():
    rng = np.random.default_rng(12)
    for _ in range(100):
        eps, eta = rng.uniform(0, 10, 2)
        lam = eigh(star(3, 1.0, eps, eta)).eigenvalues
        assert np.max(np.abs(lam - analytic_spectrum_m3(1.0, eps, eta))) < 1e-9


def test_blocked_matches_full_m3():
    rng = np.random.default_rng(21)
    for _ in range(50):
        eps, eta = rng.uniform(0, 10, 2)
        h = star(3, 1.0, eps, eta)
        assert np.max(np.abs(spectrum_blocked(h).eigenvalues
                             - eigh(h).eigenvalues)) < 1e-10


@pytest.mark.parametrize("m", [4, 5])
def test_blocked_matches_full_larger_rings(m):
    rng = np.random.default_rng(31 + m)
    for _ in range(5):
        eps, eta = rng.uniform(0, 8, 2)
        h = star(m, 1.0, eps, eta)
        assert np.max(np.abs(spectrum_blocked(h).eigenvalues
                             - eigh(h).eigenvalues)) < 1e-10


def test_blocked_sector_labels_of_lowest_states():
    # epsilon = omega, 0 < eta < omega: single-excitation state below the vacuum
    spec = spectrum_blocked(star(3, 1.0, 1.0, 0.5))
    assert list(spec.sector_labels[:2]) == [1, 0]


def test_blocked_rejects_sector_mixing_operator():
    with pytest.raises(ValueError, match="not block diagonal"):
        spectrum_blocked(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_blocked_rejects_wrong_dimension():
    # only a square matrix of power-of-two size has excitation sectors
    for shape in [(4, 8), (8, 4), (6, 6), (12, 12), (8,), (2, 4, 4), (0, 0)]:
        with pytest.raises(ValueError, match="square matrix of power-of-two dimension"):
            spectrum_blocked(np.zeros(shape))


def test_blocked_output_is_reproducible():
    h = star(4, 1.0, 2.0, 2.0)
    a = spectrum_blocked(h)
    b = spectrum_blocked(h)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.sector_labels, b.sector_labels)
    assert np.array_equal(a.vectors(a.dim), b.vectors(b.dim))


def test_blocked_eigenvectors_reconstruct_operator():
    h = star(4, 1.0, 1.3, 0.9)
    spec = spectrum_blocked(h)
    v = spec.vectors(spec.dim)
    assert np.max(np.abs(v.conj().T @ v - np.eye(32))) < 1e-10
    rebuilt = (v * spec.eigenvalues) @ v.conj().T
    assert np.max(np.abs(h - rebuilt)) < 1e-10 * np.max(np.abs(h))


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(40)
    for m in (2, 3, 4):
        eps, eta = rng.uniform(-4, 4, 2)
        h = star(m, 1.0, eps, eta)
        spec = spectrum_blocked(h)
        assert abs(spec.eigenvalues.sum() - np.trace(h).real) < 1e-10 * h.shape[0]


def test_ground_energy_piecewise_in_eta():
    # at epsilon = omega the ground energy switches branch at eta = omega
    omega = 1.0
    for eta in (0.2, 0.6, 0.9):
        lam = eigh(star(3, omega, omega, eta)).eigenvalues
        assert abs(lam[0] - (eta - np.sqrt(3 * omega ** 2 + eta ** 2) - omega)) < 1e-12
    for eta in (1.1, 1.7, 3.0):
        lam = eigh(star(3, omega, omega, eta)).eigenvalues
        assert abs(lam[0] - (-eta - omega)) < 1e-12
    # both branches meet at -2*omega when eta = omega
    eta = omega
    assert abs((eta - np.sqrt(3 * omega ** 2 + eta ** 2) - omega) - (-2 * omega)) < 1e-15
    assert abs((-eta - omega) - (-2 * omega)) < 1e-15


def test_analytic_ground_state_is_eigenvector():
    # tiny couplings and a tiny epsilon:eta ratio, whose squares underflow, are defined too
    for eps, eta in ((1.0, 0.5), (1e-20, 5e-21), (1e-200, -1.0)):
        h = star(3, 1.0, eps, eta)
        vec = analytic_ground_state_m3(eps, eta)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        energy = eta - np.sqrt(3 * eps ** 2 + eta ** 2) - 1.0
        assert np.max(np.abs(h @ vec - energy * vec)) < 1e-12


def test_analytic_ground_state_undefined_when_empty():
    with pytest.raises(ValueError):
        analytic_ground_state_m3(0.0, -1.0)


def test_ground_manifold_nondegenerate_overlap():
    spec = spectrum_blocked(star(3, 1.0, 1.0, 0.5))
    manifold = ground_manifold(spec)
    assert manifold.degeneracy == 1
    ref = analytic_ground_state_m3(1.0, 0.5)
    assert abs(ref.conj() @ spec.vectors(1)[:, 0]) ** 2 >= 1.0 - 1e-10


def test_ground_manifold_six_fold_at_crossing():
    spec = spectrum_blocked(star(3, 1.0, 1.0, 1.0))
    manifold = ground_manifold(spec)
    assert manifold.degeneracy == 6
    assert abs(manifold.energy + 2.0) < 1e-12


def test_ground_manifold_four_fold_beyond_crossing():
    spec = spectrum_blocked(star(3, 1.0, 1.0, 2.0))
    manifold = ground_manifold(spec)
    assert manifold.degeneracy == 4
    assert abs(manifold.energy + 3.0) < 1e-12
    basis = spec.vectors(manifold.degeneracy)
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def test_spectrum_invariant_under_global_unitary_sanity():
    # eigh itself: spectrum of U A U^dag equals spectrum of A
    rng = np.random.default_rng(55)
    mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    mat = mat + mat.conj().T
    u = random_unitary(rng, 8)
    rotated = u @ mat @ u.conj().T
    assert np.max(np.abs(eigh(mat).eigenvalues - eigh(rotated).eigenvalues)) < 1e-10


@pytest.mark.parametrize("eta", [0.7, 1.9])
@pytest.mark.parametrize("m", range(2, MAX_M + 1))
def test_spectrum_at_zero_epsilon_is_the_free_fermion_ring(m, eta):
    # epsilon = 0: the centre decouples and the XX ring is free fermions (oracles.free_fermion_spectrum);
    # at these eta the ground level is one- or two-fold and the next level sits >= 2e-3 above it
    spec = star_spectrum(SpinStarParams(m=m, omega=1.0, epsilon=0.0, eta=eta))
    closed = free_fermion_spectrum(m, 1.0, eta)
    assert np.max(np.abs(np.sort(spec.eigenvalues) - closed)) <= 1e-12
    manifold = ground_manifold(spec)
    assert abs(manifold.energy - closed[0]) <= 1e-12
    assert manifold.degeneracy == np.count_nonzero(closed - closed[0] <= 1e-9)


@pytest.mark.parametrize("epsilon", [0.7, 1.9])
@pytest.mark.parametrize("m", range(2, MAX_M + 1))
def test_spectrum_at_zero_eta_is_the_collective_spin(m, epsilon):
    # eta = 0: the ring enters only through its collective spin (oracles.collective_spin_spectrum); at these
    # epsilon the ground level is one-fold and the next level sits >= 1e-2 above it
    spec = star_spectrum(SpinStarParams(m=m, omega=1.0, epsilon=epsilon, eta=0.0))
    closed = collective_spin_spectrum(m, 1.0, epsilon)
    assert np.max(np.abs(np.sort(spec.eigenvalues) - closed)) <= 1e-12
    manifold = ground_manifold(spec)
    assert abs(manifold.energy - closed[0]) <= 1e-12
    assert manifold.degeneracy == np.count_nonzero(closed - closed[0] <= 1e-9)

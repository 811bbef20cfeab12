import numpy as np
import pytest

from spinstar import (
    NumericalInvariantError,
    SpinStarParams,
    multipartite_negativity,
    negativity,
    partial_transpose,
    reduced_thermal_state,
)

from oracles import (
    bell_state,
    brute_partial_transpose,
    dm,
    ghz_state,
    random_density,
    random_separable,
    random_unitary,
    w_state,
)


def test_pt_product_state_factorizes():
    rng = np.random.default_rng(2)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 4)
    rho = np.kron(rho_a, rho_b)
    transposed = partial_transpose(rho, (0,), 3)
    assert np.max(np.abs(transposed - np.kron(rho_a.T, rho_b))) < 1e-14
    # spectrum unchanged, so the cut carries no negativity
    assert negativity(rho, (0,)) == 0.0


def test_pt_is_an_involution():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 8)
    double = partial_transpose(partial_transpose(rho, (0, 2), 3), (0, 2), 3)
    assert np.array_equal(double, rho)


def test_pt_bell_eigenvalues():
    transposed = partial_transpose(dm(bell_state()), (0,), 2)
    lam = np.sort(np.linalg.eigvalsh(transposed))
    assert np.max(np.abs(lam - np.array([-0.5, 0.5, 0.5, 0.5]))) < 1e-12


def test_pt_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 16)
    transposed = partial_transpose(rho, (1, 3), 4)
    assert np.max(np.abs(transposed - transposed.conj().T)) < 1e-14
    assert abs(np.trace(transposed) - 1.0) < 1e-13


def test_pt_matches_bruteforce():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        rho = random_density(rng, 2 ** n)
        for _ in range(4):
            size = int(rng.integers(1, n))
            part = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            got = partial_transpose(rho, part, n)
            ref = brute_partial_transpose(rho, part, n)
            assert np.max(np.abs(got - ref)) < 1e-14


def test_pt_input_errors():
    rho = np.eye(8) / 8
    with pytest.raises(ValueError):
        partial_transpose(rho, (), 3)
    with pytest.raises(ValueError):
        partial_transpose(rho, (3,), 3)
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4) / 4, (0,), 3)


def test_negativity_bell_state_is_one():
    assert abs(negativity(dm(bell_state()), (0,)) - 1.0) < 1e-12


def test_negativity_separable_states_vanish():
    rng = np.random.default_rng(10)
    for _ in range(100):
        rho = random_separable(rng, 2, 2)
        assert negativity(rho, (0,)) == 0.0


def test_negativity_separable_one_vs_two():
    rng = np.random.default_rng(14)
    for _ in range(25):
        rho = random_separable(rng, 2, 4)
        assert negativity(rho, (0,)) == 0.0


def test_negativity_w_state_single_cut():
    value = negativity(dm(w_state()), (0,))
    assert abs(value - 2.0 * np.sqrt(2.0) / 3.0) < 1e-10


def test_negativity_rejects_improper_partition():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        negativity(rho, (0, 1))
    with pytest.raises(ValueError):
        negativity(np.eye(3) / 3, (0,))


def test_negativity_floor_violation_raises():
    # sub-normalized input drives sum(|lam|) - 1 below the -1e-9 floor
    rho = np.eye(4, dtype=complex) / 4 * (1.0 - 2e-9)
    with pytest.raises(NumericalInvariantError):
        negativity(rho, (0,))


def test_multipartite_ghz():
    report = multipartite_negativity(dm(ghz_state()), 3)
    for value in report.per_cut:
        assert abs(value - 1.0) < 1e-10
    assert abs(report.multipartite - 1.0) < 1e-10


def test_multipartite_biseparable_is_exactly_zero():
    rho = np.kron(np.diag([1.0, 0.0]).astype(complex), dm(bell_state()))
    report = multipartite_negativity(rho, 3)
    assert report.per_cut[0] == 0.0
    assert report.multipartite == 0.0


def test_multipartite_fully_mixed_is_zero():
    report = multipartite_negativity(np.eye(8) / 8, 3)
    assert all(value == 0.0 for value in report.per_cut)
    assert report.multipartite == 0.0


def test_multipartite_cut_ordering_and_partitions():
    # spins 1 and 2 share a Bell pair, spins 0 and 3 are product: the cuts differ
    vacuum = np.diag([1.0, 0.0]).astype(complex)
    rho = np.kron(np.kron(vacuum, dm(bell_state())), vacuum)
    report = multipartite_negativity(rho, 4)
    assert report.per_cut[0] == 0.0 < report.per_cut[1]
    for k in range(4):
        assert report.per_cut[k] == negativity(rho, (k,))


def test_multipartite_geometric_mean_value():
    params = SpinStarParams(m=3, omega=1.0, epsilon=2.0, eta=0.7)
    report = multipartite_negativity(reduced_thermal_state(params, 0.2), 3)
    values = report.per_cut
    assert report.multipartite == pytest.approx(np.prod(values) ** (1 / 3), abs=1e-12)


def test_multipartite_input_errors():
    with pytest.raises(ValueError):
        multipartite_negativity(np.eye(8) / 8, 1)
    with pytest.raises(ValueError):
        multipartite_negativity(np.eye(8) / 8, 4)


def test_local_unitary_invariance():
    rng = np.random.default_rng(16)
    for _ in range(10):
        rho = random_density(rng, 8)
        local = np.kron(np.kron(random_unitary(rng, 2), random_unitary(rng, 2)),
                        random_unitary(rng, 2))
        rotated = local @ rho @ local.conj().T
        before = multipartite_negativity(rho, 3).multipartite
        after = multipartite_negativity(rotated, 3).multipartite
        assert abs(before - after) < 1e-10


@pytest.mark.parametrize("m", [3, 4])
def test_thermal_state_cuts_are_symmetric(m):
    params = SpinStarParams(m=m, omega=1.0, epsilon=1.0, eta=0.5)
    report = multipartite_negativity(reduced_thermal_state(params, 0.01), m)
    values = report.per_cut
    assert max(values) - min(values) < 1e-10


def test_w_state_negativity_against_bruteforce():
    rho = dm(w_state())
    ref = np.sum(np.abs(np.linalg.eigvalsh(brute_partial_transpose(rho, (1,), 3)))) - 1.0
    assert abs(negativity(rho, (1,)) - ref) < 1e-12

import math
import tracemalloc

import numpy as np
import pytest

from spinstar import (
    SpinStarParams,
    analytic_ground_state_m3,
    multipartite_negativity,
    reduced_thermal_state,
    star_spectrum,
)
from spinstar import thermal
from spinstar.operators import build_hamiltonian, symmetry_hamiltonians
from spinstar.spectra import spectrum_blocked, stacked_spectra
from spinstar.thermal import gibbs_state_from_spectrum, partial_trace, reduced_state, zero_temperature_state

from oracles import (
    bell_state,
    brute_partial_trace,
    dm,
    eigh,
    qubit_permutation_matrix,
    random_density,
)


def star(m, omega, eps, eta):
    return build_hamiltonian(SpinStarParams(m=m, omega=omega, epsilon=eps, eta=eta))


def test_gibbs_flat_hamiltonian_is_maximally_mixed():
    for dim in (2, 8):
        rho = gibbs_state_from_spectrum(eigh(np.zeros((dim, dim))), 0.7)
        assert np.max(np.abs(rho - np.eye(dim) / dim)) < 1e-14


def test_gibbs_high_temperature_flattens():
    h = star(3, 1.0, 2.0, 1.0)
    rho = gibbs_state_from_spectrum(eigh(h), 1e6)
    assert np.max(np.abs(rho - np.eye(16) / 16)) < 1e-5


def test_gibbs_rejects_negative_temperature():
    with pytest.raises(ValueError):
        gibbs_state_from_spectrum(eigh(np.zeros((2, 2))), -0.1)


def test_gibbs_zero_routes_to_ground_manifold():
    h = np.diag([0.0, 0.0, 1.0, 3.0])
    rho = gibbs_state_from_spectrum(eigh(h), 0.0)
    expected = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert np.max(np.abs(rho - expected)) < 1e-12


def test_gibbs_matches_independent_weight_computation():
    rng = np.random.default_rng(17)
    h = star(3, 1.0, *rng.uniform(0, 5, 2))
    t = 0.4
    rho = gibbs_state_from_spectrum(eigh(h), t)
    lam, v = np.linalg.eigh(h)
    weights = np.exp(-(lam - lam.min()) / t)
    weights /= weights.sum()
    expected = (v * weights) @ v.conj().T
    assert np.max(np.abs(rho - expected)) < 1e-12


def test_gibbs_unit_trace_and_positivity():
    rng = np.random.default_rng(23)
    for t in (0.01, 0.5, 10.0):
        h = star(3, 1.0, *rng.uniform(-5, 5, 2))
        rho = gibbs_state_from_spectrum(eigh(h), t)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_cold_gibbs_concentrates_on_ground_state():
    # gap to the first excited level is about 0.30 here, so exp(-30) leakage
    h = star(3, 1.0, 1.0, 0.5)
    rho = gibbs_state_from_spectrum(eigh(h), 0.01)
    ground = analytic_ground_state_m3(1.0, 0.5)
    population = (ground.conj() @ rho @ ground).real
    assert population > 1.0 - 1e-6


def test_zero_temperature_pure_when_nondegenerate():
    spec = spectrum_blocked(star(3, 1.0, 1.0, 0.5))
    rho = zero_temperature_state(spec)
    lam = np.linalg.eigvalsh(rho)
    assert abs(lam[-1] - 1.0) < 1e-12
    assert np.max(np.abs(lam[:-1])) < 1e-12


def test_zero_temperature_rank_four_projector():
    spec = spectrum_blocked(star(3, 1.0, 1.0, 2.0))
    rho = zero_temperature_state(spec)
    lam = np.sort(np.linalg.eigvalsh(rho))
    assert np.max(np.abs(lam[-4:] - 0.25)) < 1e-12
    assert np.max(np.abs(lam[:-4])) < 1e-12


def test_zero_temperature_state_constant_beyond_crossing():
    # ground eigenstates do not move with eta once eta > omega (epsilon = omega)
    states = [zero_temperature_state(spectrum_blocked(star(3, 1.0, 1.0, eta)))
              for eta in (1.5, 2.0, 5.0)]
    assert np.max(np.abs(states[0] - states[1])) < 1e-10
    assert np.max(np.abs(states[1] - states[2])) < 1e-10


def test_zero_temperature_is_cold_gibbs_limit():
    for eps, eta in ((1.0, 0.5), (1.0, 2.0)):
        h = star(3, 1.0, eps, eta)
        cold = gibbs_state_from_spectrum(eigh(h), 1e-4)
        frozen = zero_temperature_state(eigh(h))
        assert np.max(np.abs(cold - frozen)) < 1e-6


def test_cold_limit_of_degenerate_crossing_keeps_cut_symmetry():
    # six-fold ground level at epsilon = eta = omega, m = 3: the levels above
    # it lie 2 omega higher, so every t below carries the t = 0 state
    params = SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=1.0)
    frozen = multipartite_negativity(reduced_thermal_state(params, 0.0)).multipartite
    assert frozen > 0.03
    for t in (1e-15, 1e-13, 1e-9):
        report = multipartite_negativity(reduced_thermal_state(params, t))
        assert max(report.per_cut) - min(report.per_cut) <= 1e-12
        assert abs(report.multipartite - frozen) <= 1e-9


@pytest.mark.parametrize("m", [3, 5])
def test_star_pipeline_is_real_float64(m):
    params = SpinStarParams(m=m, omega=1.0, epsilon=1.3, eta=0.7)
    assert build_hamiltonian(params).dtype == np.float64
    spec = star_spectrum(params)
    assert spec.vectors(spec.dim).dtype == np.float64
    assert reduced_thermal_state(params, 0.1).dtype == np.float64


def test_partial_trace_bell_marginal():
    rho = dm(bell_state())
    for keep in ((0,), (1,)):
        marginal = partial_trace(rho, keep)
        assert np.max(np.abs(marginal - np.eye(2) / 2)) < 1e-14


def test_partial_trace_product_state_exact():
    rng = np.random.default_rng(29)
    rho_a = random_density(rng, 4)
    rho_b = random_density(rng, 2)
    rho = np.kron(rho_a, rho_b)
    assert np.max(np.abs(partial_trace(rho, (0, 1)) - rho_a)) < 1e-14
    assert np.max(np.abs(partial_trace(rho, (2,)) - rho_b)) < 1e-14


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(31)
    for n, keep in ((3, (1,)), (4, (0, 2)), (4, (1, 2, 3))):
        rho = random_density(rng, 2 ** n)
        reduced = partial_trace(rho, keep)
        assert abs(np.trace(reduced) - 1.0) < 1e-12


def test_partial_trace_matches_bruteforce():
    rng = np.random.default_rng(37)
    for n in (2, 3, 4):
        rho = random_density(rng, 2 ** n)
        for keep in [(0,), (n - 1,), tuple(range(1, n)), (0, n - 1)]:
            keep = tuple(sorted(set(keep)))
            got = partial_trace(rho, keep)
            ref = brute_partial_trace(rho, keep, n)
            assert np.max(np.abs(got - ref)) < 1e-12


def test_partial_trace_input_errors():
    rho = np.eye(8) / 8
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (3,))
    with pytest.raises(ValueError):
        partial_trace(np.eye(6) / 6, (0,))
    with pytest.raises(ValueError):
        partial_trace(rho, (0.9, 2.2))
    assert partial_trace(rho, range(1, 3)).shape == partial_trace(rho, np.arange(2)).shape == (4, 4)


def test_reduced_uncoupled_spins_thermalize_independently():
    t = 0.5
    params = SpinStarParams(m=3, omega=1.0, epsilon=0.0, eta=0.0)
    rho = reduced_thermal_state(params, t)
    p = np.exp(1 / (2 * t)) / (np.exp(1 / (2 * t)) + np.exp(-1 / (2 * t)))
    single = np.diag([p, 1 - p]).astype(complex)
    expected = np.kron(np.kron(single, single), single)
    assert np.max(np.abs(rho - expected)) < 1e-12
    assert multipartite_negativity(rho).multipartite == 0.0


def test_reduced_cold_state_is_ground_reduction():
    params = SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=0.5)
    rho = reduced_thermal_state(params, 0.01)
    expected = brute_partial_trace(dm(analytic_ground_state_m3(1.0, 0.5)), (1, 2, 3), 4)
    assert np.max(np.abs(rho - expected)) < 1e-6
    lam = np.sort(np.linalg.eigvalsh(rho))
    assert np.max(np.abs(lam[:-2])) < 1e-6  # rank two: vacuum plus the W component


def test_reduced_plateau_states_agree():
    states = [reduced_thermal_state(SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=eta), 0.01)
              for eta in (1.5, 2.0, 3.0)]
    assert np.max(np.abs(states[0] - states[1])) < 1e-6
    assert np.max(np.abs(states[1] - states[2])) < 1e-6


@pytest.mark.parametrize("m", [3, 4, 5])
def test_reduced_state_cyclic_invariance(m):
    params = SpinStarParams(m=m, omega=1.0, epsilon=1.2, eta=0.8)
    rho = reduced_thermal_state(params, 0.3)
    mapping = {k: (k + 1) % m for k in range(m)}
    perm = qubit_permutation_matrix(mapping, m)
    assert np.max(np.abs(perm @ rho @ perm.conj().T - rho)) < 1e-12


@pytest.mark.parametrize("m", [3, 4])
def test_reduced_state_washes_out_at_high_temperature(m):
    params = SpinStarParams(m=m, omega=1.0, epsilon=2.0, eta=1.0)
    rho = reduced_thermal_state(params, 1e3)
    assert np.max(np.abs(rho - np.eye(2 ** m) / 2 ** m)) < 1e-3


def test_reduced_state_invariants_random_params():
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        params = SpinStarParams(m=m, omega=float(rng.uniform(0.5, 2.0)),
                                epsilon=float(rng.uniform(-4, 4)),
                                eta=float(rng.uniform(-4, 4)))
        rho = reduced_thermal_state(params, float(rng.uniform(0.05, 2.0)))
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10


@pytest.mark.parametrize("m", [2, 3, 5])
def test_stack_matches_each_cell_alone(m):
    # kept prefixes of different lengths in one stack: at t = 0.01 the first cell keeps the fewest
    # levels; at t = 0 and 1e-15 eps = eta = 1 is degenerate (six-fold at m = 3) and (0.5, 0) has the
    # vacuum ground state
    couplings = [(3.0, -2.0), (1.0, 1.0), (0.5, 0.0), (-0.4, -1.7), (0.0, 0.0), (1.3, 0.7)]
    cells = [SpinStarParams(m=m, omega=1.0, epsilon=eps, eta=eta) for eps, eta in couplings]
    spectra = stacked_spectra(symmetry_hamiltonians(cells))
    for temps in [(0.0, 1e-15), (0.01,), (0.3, 2.0)]:
        stack = reduced_state(spectra, cells[0], temps)
        assert stack.shape == (len(cells), len(temps), math.comb(2 * m, m))
        for spec, params, states in zip(spectra, cells, stack):
            assert np.array_equal(states, reduced_state(spec[None], params, temps)[0])


@pytest.mark.parametrize("other", [SpinStarParams(m=3, omega=2.0, epsilon=1.0, eta=0.5),
                                   SpinStarParams(m=4, omega=1.0, epsilon=1.0, eta=0.5)])
def test_stack_rejects_mixed_m_or_omega(other):
    cells = [SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=0.5), other]
    with pytest.raises(ValueError, match="share m"):
        stacked_spectra(symmetry_hamiltonians(cells))


def test_reduced_state_rejects_spectra_of_another_omega():
    # the vacuum level, sector 0, is -(m+1)*omega/2: omega=2 spectra with omega=1 params are caught
    cell = SpinStarParams(m=3, omega=2.0, epsilon=1.0, eta=0.5)
    spectra = stacked_spectra(symmetry_hamiltonians([cell]))
    with pytest.raises(ValueError, match="vacuum"):
        reduced_state(spectra, SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=0.5), [0.1])
    assert reduced_state(spectra, cell, [0.1]).shape == (1, 1, math.comb(6, 3))


def test_reduced_state_rejects_dense_oracle_spectra():
    # the Gibbs step reads each sector's dihedral blocks: spectrum_blocked's whole sectors are refused
    params = SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=0.5)
    with pytest.raises(ValueError, match="dihedral"):
        reduced_state(spectrum_blocked(build_hamiltonian(params))[None], params, [0.1])
    # so is one cell's view, which has no cells axis: a stack of it is spec[None]
    with pytest.raises(ValueError, match="stack"):
        reduced_state(star_spectrum(params), params, [0.1])


def test_boltzmann_weights_are_formed_in_one_array():
    # tracemalloc's peak of one _boltzmann call on 400 stacked m=3 spectra at five temperatures, the
    # cold one among them: the weights and the floor's mask, not a copy per step
    rng = np.random.default_rng(27)
    cells = [SpinStarParams(m=3, omega=1.0, epsilon=eps, eta=eta) for eps, eta in rng.uniform(-5, 5, (400, 2))]
    spectra = stacked_spectra(symmetry_hamiltonians(cells))
    gaps = np.take_along_axis(spectra.gaps, spectra.ranks, axis=-1)[:, None]
    tracemalloc.start()
    try:
        weights = thermal._boltzmann(gaps, [0.0, 0.01, 0.1, 1.0, 5.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weights.shape == (400, 5, 16) and peak <= 1.6 * weights.nbytes


def test_reduced_rejects_negative_temperature():
    with pytest.raises(ValueError):
        reduced_thermal_state(SpinStarParams(m=3, omega=1.0, epsilon=1.0, eta=1.0), -0.01)

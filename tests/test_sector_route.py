"""The sector-native evaluation path against the dense oracles.

star_spectrum, reduced_state and negativity never form a 2^(m+1)-dimensional
matrix.  The oracles do: build_hamiltonian, spectrum_blocked,
gibbs_state_from_spectrum and partial_trace, imported from their modules.
build_hamiltonian places the sector_terms blocks at their states, so it is
pinned to the bit-flip oracle, and the states to the excitation partition.
"""

import numpy as np
import pytest

from spinstar import SpinStarParams, ground_manifold, negativity, star_spectrum
from spinstar import operators
from spinstar.operators import build_hamiltonian, sector_terms, symmetry_hamiltonians
from spinstar.spectra import level_energies, spectrum_blocked, stacked_spectra
from spinstar.thermal import gibbs_state_from_spectrum, partial_trace, reduced_state

from oracles import brute_partial_transpose, brute_star_hamiltonian, restrict_to_sector


def points(m):
    """Random (epsilon, eta, t), one at t = 0, plus the six-fold crossing just above t = 0."""
    rng = np.random.default_rng(600 + m)
    temps = (0.0, *rng.uniform(0.01, 3.0, 2))
    return [(1.0, 1.0, 1e-15)] + [(*rng.uniform(-3.0, 3.0, 2), t) for t in temps]


@pytest.mark.parametrize("m", range(2, 9))
def test_sector_route_matches_dense_reference(m):
    n = m + 1
    # sector k's states: the basis indices with k excitations, ascending
    assert [k for k, *_ in sector_terms(m)] == list(range(n + 1))
    assert np.concatenate([states for _, states, *_ in sector_terms(m)]).tolist() \
        == sorted(range(2 ** n), key=lambda i: (i.bit_count(), i))
    for epsilon, eta, t in points(m):
        params = SpinStarParams(m=m, omega=1.0, epsilon=epsilon, eta=eta)
        h = build_hamiltonian(params)
        assert np.array_equal(h, brute_star_hamiltonian(m, 1.0, epsilon, eta))
        for _, states, stack in symmetry_hamiltonians([params]):
            if not isinstance(stack, tuple):  # test_translation_blocks_match_dense_route checks the rest
                assert np.array_equal(stack, restrict_to_sector(h, states)[None])

        spec, dense = star_spectrum(params), spectrum_blocked(h)
        scale = np.max(np.abs(dense.eigenvalues))
        assert np.max(np.abs(spec.eigenvalues - dense.eigenvalues)) <= 1e-12 * scale
        assert ground_manifold(spec).degeneracy == ground_manifold(dense).degeneracy

        [rho] = reduced_state(spec, params, [t])
        reference = partial_trace(gibbs_state_from_spectrum(dense, t), range(1, n), n)
        assert np.max(np.abs(rho - reference)) <= 1e-12
        for k in range(m):
            oracle = np.sum(np.abs(np.linalg.eigvalsh(brute_partial_transpose(rho, (k,), m)))) - 1
            assert abs(negativity(rho, (k,)) - oracle) <= 1e-12


def test_stack_orders_each_cell_as_alone():
    # the six-fold crossing, plus cells with exact ties between sectors
    couplings = [(1.0, 1.0), (1.0, 0.5), (1.0, 2.0), (0.0, 1.0), (2.0, 0.5), (-0.4, -1.7), (0.0, 0.0)]
    cells = [SpinStarParams(m=3, omega=1.0, epsilon=eps, eta=eta) for eps, eta in couplings]
    for spec, params in zip(stacked_spectra(symmetry_hamiltonians(cells)), cells):
        alone = star_spectrum(params)
        for name in ("eigenvalues", "sector_labels", "gaps"):
            assert np.array_equal(getattr(spec, name), getattr(alone, name))
        assert np.array_equal(spec.vectors(spec.dim), alone.vectors(alone.dim))
        # exact ties between sectors stay in label order
        assert np.all(np.diff(spec.sector_labels)[np.diff(spec.eigenvalues) == 0] >= 0)
    assert ground_manifold(star_spectrum(cells[0])).degeneracy == 6
    # the level rule on a stack gives each row what it gives that row alone
    stack = np.array([star_spectrum(params).eigenvalues for params in cells])
    for row, values in zip(level_energies(stack), stack):
        assert np.array_equal(row, level_energies(values))


@pytest.mark.parametrize("m", range(2, 8))
def test_translation_blocks_match_dense_route(m, monkeypatch):
    # every sector in ring-translation blocks: short orbits (m=4 0101; m=6 periods 2 and 3)
    # and the m=2 ring's doubled bond
    monkeypatch.setattr(operators, "TRANSLATION_MIN_DIM", 1)
    n = m + 1
    for epsilon, eta, t in [(1.0, 1.0, 0.0)] + points(m):
        params = SpinStarParams(m=m, omega=1.0, epsilon=epsilon, eta=eta)
        spec = star_spectrum(params)
        assert all(isinstance(stack, tuple) for _, _, stack in operators.symmetry_hamiltonians([params]))
        dense = spectrum_blocked(build_hamiltonian(params))
        scale = np.max(np.abs(dense.eigenvalues))
        assert np.max(np.abs(spec.eigenvalues - dense.eigenvalues)) <= 1e-12 * scale
        assert ground_manifold(spec).degeneracy == ground_manifold(dense).degeneracy
        [rho] = reduced_state(spec, params, [t])
        reference = partial_trace(gibbs_state_from_spectrum(dense, t), range(1, n), n)
        assert np.max(np.abs(rho - reference)) <= 1e-12
        for k in range(m):
            assert abs(negativity(rho, (k,)) - negativity(reference, (k,))) <= 1e-12

"""The sector-native evaluation path against the dense oracles.

star_spectrum, reduced_state and negativity never form a 2^(m+1)-dimensional
matrix, and reduced_state returns its states packed (thermal.unpack gives the
dense matrix).  The oracles do: build_hamiltonian, spectrum_blocked,
gibbs_state_from_spectrum and partial_trace, imported from their modules.
build_hamiltonian places the sector_terms blocks at their states, so it is
pinned to the bit-flip oracle, and the states to the excitation partition.
"""

import numpy as np
import pytest

from spinstar import SpinStarParams, ground_manifold, negativity, star_spectrum
from spinstar import entanglement, operators, spectra
from spinstar.operators import build_hamiltonian, sector_terms, symmetry_hamiltonians
from spinstar.spectra import level_energies, spectrum_blocked, stacked_spectra
from spinstar.thermal import gibbs_state_from_spectrum, partial_trace, reduced_state, unpack

from oracles import brute_partial_transpose, brute_star_hamiltonian


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

        spec, dense = star_spectrum(params), spectrum_blocked(h)
        scale = np.max(np.abs(dense.eigenvalues))
        assert np.max(np.abs(spec.eigenvalues - dense.eigenvalues)) <= 1e-12 * scale
        assert ground_manifold(spec).degeneracy == ground_manifold(dense).degeneracy

        [[packed]] = reduced_state(spec[None], params, [t])
        rho = unpack(packed)
        reference = partial_trace(gibbs_state_from_spectrum(dense, t), range(1, n))
        assert np.max(np.abs(rho - reference)) <= 1e-12
        for k in range(m):
            oracle = np.sum(np.abs(np.linalg.eigvalsh(brute_partial_transpose(rho, (k,), m)))) - 1
            assert abs(negativity(rho, (k,)) - oracle) <= 1e-12
            assert negativity(packed, (k,)) == negativity(rho, (k,))


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


def ring_turn(states, m):
    """Each m-spin state turned once around the ring."""
    return (states >> 1 | states << (m - 1)) & ((1 << m) - 1)


def assert_ring_invariant(rho, m, blocks):
    """rho[T s, T s'] == rho[s, s'] exactly on the states of each excitation block j in blocks."""
    for j in blocks:
        states = np.array([i for i in range(2 ** m) if i.bit_count() == j])
        turned = ring_turn(states, m)
        assert np.array_equal(rho[np.ix_(turned, turned)], rho[np.ix_(states, states)]), j


@pytest.mark.parametrize("m", range(2, 8))
def test_translation_blocks_match_dense_route(m, monkeypatch):
    # every sector in dihedral blocks: short orbits (m=4 0101; m=6 periods 2 and 3), orbits that
    # are their own mirror and mirror pairs, and the m=2 ring's doubled bond;
    # and every one-spin cut's charge blocks split by the ring reflection
    monkeypatch.setattr(entanglement, "SYMMETRY_MIN_DIM", 1)
    n = m + 1
    for epsilon, eta, t in [(1.0, 1.0, 0.0)] + points(m):
        params = SpinStarParams(m=m, omega=1.0, epsilon=epsilon, eta=eta)
        spec = star_spectrum(params)
        assert all(isinstance(stack, tuple) for _, _, stack in operators.symmetry_hamiltonians([params]))
        h = build_hamiltonian(params)
        dense = spectrum_blocked(h)
        scale = np.max(np.abs(dense.eigenvalues))
        assert np.max(np.abs(spec.eigenvalues - dense.eigenvalues)) <= 1e-12 * scale
        assert ground_manifold(spec).degeneracy == ground_manifold(dense).degeneracy
        # the block-form eigenvectors, made dense on request
        vectors = spec.vectors(spec.dim)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(spec.dim))) <= 1e-12
        assert np.max(np.abs(h @ vectors - vectors * spec.eigenvalues)) <= 1e-12 * scale
        [[packed]] = reduced_state(spec[None], params, [t])
        rho = unpack(packed)
        reference = partial_trace(gibbs_state_from_spectrum(dense, t), range(1, n))
        assert np.max(np.abs(rho - reference)) <= 1e-12
        # every block fills from the rows of the ring orbits' least states
        assert_ring_invariant(rho, m, range(m + 1))
        for k in range(m):
            assert abs(negativity(rho, (k,)) - negativity(reference, (k,))) <= 1e-12
            oracle = np.sum(np.abs(np.linalg.eigvalsh(brute_partial_transpose(rho, (k,), m)))) - 1
            assert abs(negativity(packed, (k,)) - oracle) <= 1e-12


@pytest.mark.parametrize("m", [7, 8, 9])
def test_dihedral_route_at_the_default_threshold(m):
    # one-spin cuts' charge blocks of 60 states or more split by the ring reflection (m=8 and 9)
    n = m + 1
    for epsilon, eta in [(1.0, 1.0), (1.3, 0.7), (-0.8, 2.4)]:
        params = SpinStarParams(m=m, omega=1.0, epsilon=epsilon, eta=eta)
        spec, dense = star_spectrum(params), spectrum_blocked(build_hamiltonian(params))
        scale = np.max(np.abs(dense.eigenvalues))
        assert np.max(np.abs(spec.eigenvalues - dense.eigenvalues)) <= 1e-12 * scale
        temps = [0.0, 0.01, 1.0]
        for t, packed in zip(temps, reduced_state(spec[None], params, temps)[0]):
            rho = unpack(packed)
            reference = partial_trace(gibbs_state_from_spectrum(dense, t), range(1, n))
            assert np.max(np.abs(rho - reference)) <= 1e-12
            assert_ring_invariant(rho, m, range(m + 1))
            for k in range(m):
                assert abs(negativity(packed, (k,)) - negativity(reference, (k,))) <= 1e-12


@pytest.mark.parametrize("m", range(2, 10))
def test_reduced_states_are_exactly_rotation_invariant(m):
    # every sector in dihedral blocks at the defaults, so every peripheral block fills from the rows of
    # its ring orbits' least states: the six-fold crossing and a random coupling pair, cold to warm
    turned = ring_turn(np.arange(2 ** m), m)
    couplings = [(1.0, 1.0), tuple(np.random.default_rng(90 + m).uniform(-3.0, 3.0, 2))]
    for epsilon, eta in couplings:
        params = SpinStarParams(m=m, omega=1.0, epsilon=epsilon, eta=eta)
        spec = star_spectrum(params)
        assert all(isinstance(dihedral, operators.DihedralBlocks) for _, _, dihedral, _ in spec.blocks)
        for packed in reduced_state(spec[None], params, [0.0, 0.01, 1.0])[0]:
            rho = unpack(packed)
            assert np.array_equal(rho[np.ix_(turned, turned)], rho)


@pytest.mark.parametrize("m", [6, 9, 10])
def test_each_kappa_pair_is_solved_once(m, monkeypatch):
    # an R-even block is solved and its partner copy J Q reuses its eigenpairs; kappa = 0 and m/2 split
    solved, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a.shape) or eigh(a))
    params, partners = SpinStarParams(m=m, omega=1.0, epsilon=1.3, eta=0.7), 0
    for k, states, stack in operators.symmetry_hamiltonians([params]):
        solved.clear()
        dihedral, values, _ = spectra._eigh(stack)
        # one matrix per solved block, none per partner copy, in one call per block size
        assert [shape[1:] for shape in solved] == [e.shape for _, e, _ in dihedral.groups]
        assert len({shape[-1] for shape in solved}) == len(solved)
        partner = np.flatnonzero(dihedral.solved[1:] == dihedral.solved[:-1]) + 1
        assert sum(shape[1] for shape in solved) + partner.size == dihedral.solved.size
        assert sum(np.prod(shape[1:3]) for shape in solved) + np.isin(dihedral.copies, partner).sum() \
            == states.size
        for copy in partner:
            # a partner's eigenvalues are its solved block's, exactly
            assert np.array_equal(values[0, dihedral.copies == copy], values[0, dihedral.copies == copy - 1])
        partners += partner.size
    assert partners > 0


def test_dihedral_blocks_reject_terms_the_ring_does_not_keep(monkeypatch):
    # one hop of m=7 sector 4 made stronger both ways: E_k stays symmetric but no longer commutes with
    # T; one hop of m=3 sector 1 made one-way: each block Q^T E_k Q is symmetric by construction, so
    # the basis check rejects it before any solve, for every cell
    for m, k, both_ways in [(7, 4, True), (3, 1, False)]:
        terms = list(operators.sector_terms(m))
        _, states, flat, central, ring = terms[k]
        row, col = np.divmod(flat, states.size)
        hop = np.flatnonzero(central)[0]
        changed = [hop, np.flatnonzero((row == col[hop]) & (col == row[hop]))[0]] if both_ways else [hop]
        terms[k] = (k, states, flat, np.where(np.isin(np.arange(flat.size), changed), 2.0, central), ring)
        with monkeypatch.context() as patch:
            patch.setattr(operators, "sector_terms", lambda m: terms)
            with pytest.raises(AssertionError, match="does not reconstruct its terms"):
                operators.dihedral_blocks.__wrapped__(m, k)


def ring_rotations(state, m):
    """The m rotations of a state's m ring spins (its low bits), any centre bit kept, in Python ints."""
    ring, mask = state & ((1 << m) - 1), (1 << m) - 1
    return [state & ~mask | (ring << r | ring >> (m - r)) & mask for r in range(m)]


@pytest.mark.parametrize("m", range(2, 10))
def test_dihedral_halves_gather_each_orbit_least_state(m):
    # the Gibbs step's gathers come with the basis: per part, one row per ring orbit at its least
    # state, and every state's entries per copy; sector 0 has no centre-1 part, sector m+1 no centre-0
    for k in range(m + 2):
        dihedral = operators.dihedral_blocks(m, k)
        states = [s for s in range(2 ** (m + 1)) if s.bit_count() == k]
        least = sorted({min(ring_rotations(s, m)) for s in states})
        copies, width = dihedral.solved.size, dihedral.width
        by_state = ((dihedral.columns + width * np.arange(copies)[:, None]).reshape(len(states), -1),
                    dihedral.coefficients.reshape(len(states), -1))
        assert len(dihedral.halves) == 2
        for centre, half in enumerate(dihedral.halves):
            rows = [states.index(s) for s in least if s >> m == centre]
            part = [i for i, s in enumerate(states) if s >> m == centre]
            expected = (dihedral.solved[:, None] * width + dihedral.columns[rows],
                        dihedral.coefficients[rows], *(x[part] for x in by_state))
            shapes = [(len(rows), copies, 2)] * 2 + [(len(part), 2 * copies)] * 2
            assert [array.shape for array in half] == shapes
            for array, reference in zip(half, expected):
                assert np.array_equal(array, reference) and not array.flags.writeable


@pytest.mark.parametrize("m", range(2, 10))
def test_dihedral_fill_rebuilds_a_rotation_invariant_matrix(m):
    # an entry per rotation orbit of the pair (s, s'): exactly invariant, so a pure gather rebuilds it
    # from the rows of sector j's centre-0 part, the m-spin states with j excitations
    values = np.random.default_rng(70 + m).normal(size=4 ** m)
    for j in range(m + 1):
        states = [s for s in range(2 ** m) if s.bit_count() == j]
        turns = np.array([ring_rotations(s, m) for s in states])
        g = values[(turns[:, None, :] << m | turns[None, :, :]).min(axis=-1)]
        least = sorted({min(ring_rotations(s, m)) for s in states})
        fill = operators.dihedral_blocks(m, j).fill
        assert fill.shape == (len(states),) * 2 and not fill.flags.writeable
        assert np.array_equal(g[[states.index(s) for s in least]].ravel()[fill], g)


@pytest.mark.parametrize("m", range(2, 10))
def test_ring_mirror_reflects_through_each_spin(m):
    # ring spin j is bit m-1-j; the centre bit above the ring stays
    # the reflection through spin p, j -> 2p - j, is the one through spin 0 turned 2p times
    states = np.arange(2 ** (m + 1))
    turns = operators.ring_turns(states, m)

    def mirror(states, p):
        return operators.ring_turns(operators.ring_mirror(states, m), m)[2 * p % m]

    for p in range(m):
        brute = [s & ~((1 << m) - 1) | sum((s >> (m - 1 - j) & 1) << (m - 1 - (2 * p - j) % m)
                                           for j in range(m)) for s in range(2 ** (m + 1))]
        mirrored = mirror(states, p)
        assert mirrored.tolist() == brute
        assert np.array_equal(mirror(mirrored, p), states)
        # R T = T^-1 R
        assert np.array_equal(mirror(turns[1], p), operators.ring_turns(mirrored, m)[-1])


@pytest.mark.parametrize("m, epsilon, eta, degeneracy", [(8, 1.0, 1.0, 1), (9, 1.0, 1.0, 2)])
def test_block_form_vectors_give_the_dense_projector(m, epsilon, eta, degeneracy):
    # the ground level in a dihedral sector (sector 3): alone at m=8, a +-kappa pair at m=9
    params = SpinStarParams(m=m, omega=1.0, epsilon=epsilon, eta=eta)
    spec, dense = star_spectrum(params), spectrum_blocked(build_hamiltonian(params))
    assert ground_manifold(spec).degeneracy == ground_manifold(dense).degeneracy == degeneracy
    assert set(spec.sector_labels[:degeneracy]) == {3} and spec.blocks[3][2] is not None
    vectors, reference = spec.vectors(degeneracy), dense.vectors(degeneracy)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(degeneracy))) <= 1e-12
    assert np.max(np.abs(vectors @ vectors.T - reference @ reference.T)) <= 1e-12


@pytest.mark.parametrize("m", [3, 5, 7])
def test_packed_and_dense_states_give_identical_cuts(m):
    # below the split threshold the packed route gathers the blocks the dense one does
    params = SpinStarParams(m=m, omega=1.0, epsilon=1.3, eta=0.7)
    for packed in reduced_state(star_spectrum(params)[None], params, [0.0, 0.1, 5.0])[0]:
        rho = unpack(packed)
        assert np.array_equal(rho.take(operators.packed_entries(m)), packed)
        for k in range(m):
            assert negativity(packed, (k,)) == negativity(rho, (k,))


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_multi_spin_packed_cuts_match_the_brute_transpose(m):
    # ring states, and one mixed with an excitation-conserving state that no ring symmetry fixes
    rng = np.random.default_rng(40 + m)
    params = SpinStarParams(m=m, omega=1.0, epsilon=1.3, eta=0.7)
    states = list(reduced_state(star_spectrum(params)[None], params, [0.0, 0.1])[0])
    root = rng.normal(size=(2 ** m, 2 ** m))
    noise = (root @ root.T).take(operators.packed_entries(m))
    states.append(0.7 * states[1] + 0.3 * noise / unpack(noise).trace())
    for packed in states:
        rho = unpack(packed)
        for part in [(0, 1), (0, m - 1), (1, 2, m - 1)]:
            oracle = np.sum(np.abs(np.linalg.eigvalsh(brute_partial_transpose(rho, part, m)))) - 1
            assert oracle > 1e-3
            assert abs(negativity(packed, part) - oracle) <= 1e-12


@pytest.mark.parametrize("m", [8, 9])
def test_reflection_split_at_the_default_threshold(m, monkeypatch):
    # the 70-state charge blocks at m=8, the 84- and 126-state ones at m=9, split against unsplit
    params = SpinStarParams(m=m, omega=1.0, epsilon=1.3, eta=0.7)
    states = reduced_state(star_spectrum(params)[None], params, [0.0, 0.1])[0]
    split = [[negativity(packed, (k,)) for k in range(m)] for packed in states]
    monkeypatch.setattr(entanglement, "SYMMETRY_MIN_DIM", 10 ** 9)
    whole = [[negativity(packed, (k,)) for k in range(m)] for packed in states]
    assert np.max(np.abs(np.subtract(split, whole))) <= 1e-12


def test_reflection_breaking_state_is_diagonalized_whole(monkeypatch):
    # a ring state mixed with an excitation-conserving state that no reflection fixes
    m, rng = 4, np.random.default_rng(15)
    monkeypatch.setattr(entanglement, "SYMMETRY_MIN_DIM", 1)
    params = SpinStarParams(m=m, omega=1.0, epsilon=1.3, eta=0.7)
    ring = unpack(reduced_state(star_spectrum(params)[None], params, [0.3])[0, 0])
    noise = np.zeros_like(ring)
    for j in range(m + 1):
        states = [i for i in range(2 ** m) if i.bit_count() == j]
        root = rng.normal(size=(len(states), len(states)))
        noise[np.ix_(states, states)] = root @ root.T
    rho = 0.8 * ring + 0.2 * noise / np.trace(noise)
    oracles = [np.sum(np.abs(np.linalg.eigvalsh(brute_partial_transpose(rho, (k,), m)))) - 1
               for k in range(m)]
    for k in range(m):
        assert abs(negativity(rho, (k,)) - oracles[k]) <= 1e-12
    # forced through the split, the same cuts are wrong
    monkeypatch.setattr(entanglement, "REFLECTION_TOL", np.inf)
    assert max(abs(negativity(rho, (k,)) - oracles[k]) for k in range(m)) > 1e-6

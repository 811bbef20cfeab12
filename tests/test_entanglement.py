import hashlib
import sys
import threading

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
from spinstar import entanglement, operators
from spinstar.thermal import reduced_state, star_spectrum, unpack

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
    transposed = partial_transpose(rho, (0,))
    assert np.max(np.abs(transposed - np.kron(rho_a.T, rho_b))) < 1e-14
    # spectrum unchanged, so the cut carries no negativity
    assert negativity(rho, (0,)) == 0.0


def test_pt_is_an_involution():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 8)
    double = partial_transpose(partial_transpose(rho, (0, 2)), (0, 2))
    assert np.array_equal(double, rho)


def test_pt_bell_eigenvalues():
    transposed = partial_transpose(dm(bell_state()), (0,))
    lam = np.sort(np.linalg.eigvalsh(transposed))
    assert np.max(np.abs(lam - np.array([-0.5, 0.5, 0.5, 0.5]))) < 1e-12


def test_pt_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 16)
    transposed = partial_transpose(rho, (1, 3))
    assert np.max(np.abs(transposed - transposed.conj().T)) < 1e-14
    assert abs(np.trace(transposed) - 1.0) < 1e-13


def test_pt_matches_bruteforce():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        rho = random_density(rng, 2 ** n)
        for _ in range(4):
            size = int(rng.integers(1, n))
            part = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            got = partial_transpose(rho, part)
            ref = brute_partial_transpose(rho, part, n)
            assert np.max(np.abs(got - ref)) < 1e-14


def test_pt_input_errors():
    rho = np.eye(8) / 8
    with pytest.raises(ValueError):
        partial_transpose(rho, ())
    with pytest.raises(ValueError):
        partial_transpose(rho, (3,))
    with pytest.raises(ValueError):
        partial_transpose(np.eye(6) / 6, (0,))
    with pytest.raises(ValueError):
        partial_transpose(rho, (1.7,))


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
    # an integral float is not an index either, even once the int cut is cached
    assert negativity(np.eye(8) / 8, (1,)) == negativity(np.eye(8) / 8, [np.int64(1)]) == 0.0
    for part in ((1.7,), (1.0,)):
        with pytest.raises(ValueError):
            negativity(np.eye(8) / 8, part)


def test_packed_state_of_wrong_length_raises():
    # a packed state holds C(2m, m) entries: 6 at m=2, 20 at m=3
    for size in (0, 5, 7, 19, 21):
        with pytest.raises(ValueError, match="packed"):
            negativity(np.full(size, 0.1), (0,))
    with pytest.raises(ValueError):
        negativity(np.ones((2, 20)), (0,))


def test_negativity_floor_violation_raises():
    # sub-normalized input drives sum(|lam|) - 1 below the -1e-9 floor
    rho = np.eye(4, dtype=complex) / 4 * (1.0 - 2e-9)
    with pytest.raises(NumericalInvariantError):
        negativity(rho, (0,))
    # over-normalized input stays above the floor; its trace gives it away
    with pytest.raises(NumericalInvariantError):
        negativity(2 * np.eye(4) / 4, (0,))
    with pytest.raises(NumericalInvariantError):
        multipartite_negativity(3 * np.eye(8) / 8)


def _with_entry(dim, value):
    rho = np.eye(dim) / dim
    rho[0, 3] = rho[3, 0] = value
    return rho


@pytest.mark.parametrize("rho", [_with_entry(4, np.nan), _with_entry(4, np.inf), _with_entry(8, np.nan),
                                 np.full((4, 4), np.nan)], ids=["nan", "inf", "nan-m3", "all-nan"])
def test_non_finite_state_raises(rho):
    # a NaN negativity fails the floor; an eigensolve that does not converge raises the same error
    with pytest.raises(NumericalInvariantError):
        negativity(rho, (0,))
    with pytest.raises(NumericalInvariantError):
        multipartite_negativity(rho)


def test_multipartite_ghz():
    report = multipartite_negativity(dm(ghz_state()))
    for value in report.per_cut:
        assert abs(value - 1.0) < 1e-10
    assert abs(report.multipartite - 1.0) < 1e-10


def test_multipartite_biseparable_is_exactly_zero():
    rho = np.kron(np.diag([1.0, 0.0]).astype(complex), dm(bell_state()))
    report = multipartite_negativity(rho)
    assert report.per_cut[0] == 0.0
    assert report.multipartite == 0.0


def test_multipartite_fully_mixed_is_zero():
    report = multipartite_negativity(np.eye(8) / 8)
    assert all(value == 0.0 for value in report.per_cut)
    assert report.multipartite == 0.0


def test_multipartite_cut_ordering_and_partitions():
    # spins 1 and 2 share a Bell pair, spins 0 and 3 are product: the cuts differ
    vacuum = np.diag([1.0, 0.0]).astype(complex)
    rho = np.kron(np.kron(vacuum, dm(bell_state())), vacuum)
    report = multipartite_negativity(rho)
    assert report.per_cut[0] == 0.0 < report.per_cut[1]
    for k in range(4):
        assert report.per_cut[k] == negativity(rho, (k,))


def test_multipartite_geometric_mean_value():
    params = SpinStarParams(m=3, omega=1.0, epsilon=2.0, eta=0.7)
    report = multipartite_negativity(reduced_thermal_state(params, 0.2))
    values = report.per_cut
    assert report.multipartite == pytest.approx(np.prod(values) ** (1 / 3), abs=1e-12)


def test_multipartite_input_errors():
    # the shape fixes m: C(2m, m) packed entries or a 2^m x 2^m matrix, with m >= 2
    for rho in (np.full(21, 0.05), np.ones((8, 4)) / 8, np.eye(6) / 6, np.eye(2) / 2, np.array([0.5, 0.5])):
        with pytest.raises(ValueError):
            multipartite_negativity(rho)


@pytest.mark.parametrize("rho", [np.eye(2) / 2, np.array([0.5, 0.5])], ids=["dense", "packed"])
def test_a_one_spin_state_has_no_cut(rho):
    # the message names the state, not the part_a argument that negativity takes
    message = "^a one-spin state has no one-spin-versus-rest cut; m >= 2 spins are needed$"
    with pytest.raises(ValueError, match=message):
        multipartite_negativity(rho)


@pytest.mark.parametrize("m", range(2, 12))
def test_multipartite_reads_m_from_the_shape(m):
    packed = ring_states(m, [0.1])[0]
    report = multipartite_negativity(packed)
    assert len(report.per_cut) == m and multipartite_negativity(unpack(packed)) == report
    assert report.per_cut == tuple(negativity(packed, (k,)) for k in range(m))


@pytest.mark.parametrize("m", [2, 5, 8])
def test_a_dense_state_is_packed_once_for_all_cuts(m, monkeypatch):
    # multipartite_negativity packs a dense state once and hands each cut the packed array;
    # negativity alone still packs the dense matrix it is given
    calls, entries = [], entanglement.packed_entries
    monkeypatch.setattr(entanglement, "packed_entries", lambda n: calls.append(n) or entries(n))
    dense = unpack(ring_states(m, [0.1])[0])
    multipartite_negativity(dense)
    assert calls == [m]
    negativity(dense, (0,))
    assert calls == [m, m]


def test_local_unitary_invariance():
    rng = np.random.default_rng(16)
    for _ in range(10):
        rho = random_density(rng, 8)
        local = np.kron(np.kron(random_unitary(rng, 2), random_unitary(rng, 2)),
                        random_unitary(rng, 2))
        rotated = local @ rho @ local.conj().T
        before = multipartite_negativity(rho).multipartite
        after = multipartite_negativity(rotated).multipartite
        assert abs(before - after) < 1e-10


@pytest.mark.parametrize("m", [3, 4])
def test_thermal_state_cuts_are_symmetric(m):
    params = SpinStarParams(m=m, omega=1.0, epsilon=1.0, eta=0.5)
    report = multipartite_negativity(reduced_thermal_state(params, 0.01))
    values = report.per_cut
    assert max(values) - min(values) < 1e-10


def test_w_state_negativity_against_bruteforce():
    rho = dm(w_state())
    ref = np.sum(np.abs(np.linalg.eigvalsh(brute_partial_transpose(rho, (1,), 3)))) - 1.0
    assert abs(negativity(rho, (1,)) - ref) < 1e-12


def test_negativity_charge_block_check_is_exact(monkeypatch):
    # the whole partial transpose is formed only when rho has an entry off
    # the charge blocks, however small
    from spinstar import entanglement

    dense_routes = []
    original = entanglement.partial_transpose
    monkeypatch.setattr(entanglement, "partial_transpose",
                        lambda *args: dense_routes.append(args) or original(*args))

    def check(rho, n_qubits, dense):
        dense_routes.clear()
        for k in range(n_qubits):
            ref = np.sum(np.abs(np.linalg.eigvalsh(brute_partial_transpose(rho, (k,), n_qubits))))
            assert abs(negativity(rho, (k,)) - (ref - 1.0)) <= 1e-12
        assert len(dense_routes) == (n_qubits if dense else 0)

    star = reduced_thermal_state(SpinStarParams(m=4, omega=1.0, epsilon=1.3, eta=0.7), 0.1)
    check(star, 4, dense=False)
    check(dm(w_state()), 3, dense=False)
    # a valid state with one coherence between 0 and 1 excitations
    rho = 0.5 * dm(w_state()) + np.eye(8) / 16
    rho[0b000, 0b001] = rho[0b001, 0b000] = 1e-300
    check(rho, 3, dense=True)


# sha256 (first 16 hex digits) of cut 0's index, diagonal and layout at m=2..11: the index it had when
# every one-spin cut laid out its own rows, mirrored through its own spin
CUT_DIGESTS = {2: "a6861b2ca1bf2e6a", 3: "cfe65378394713d4", 4: "50e8cf2034613dee", 5: "d7132578d11c92d5",
               6: "7de2c19a67ff27c6", 7: "9930de5e8dad0c2a", 8: "a517746c02b228b0", 9: "bc2aa7d87d8da878",
               10: "15f101a252802e30", 11: "4cb75d32dd19ed7b"}


@pytest.mark.parametrize("m", range(2, 12))
def test_one_spin_cut_index_is_unchanged(m):
    entries = operators.packed_entries(m)
    _, index, diagonal, layout = entanglement._cut(m, entanglement.SYMMETRY_MIN_DIM, 0)
    digest = hashlib.sha256(index.tobytes() + diagonal.tobytes() + repr(layout).encode())
    assert digest.hexdigest()[:16] == CUT_DIGESTS[m]
    # cut k gathers cut 0's (row, col) pairs turned k times around the ring, in cut 0's layout
    first, turns = np.divmod(entries[index], 2 ** m), operators.ring_turns(np.arange(2 ** m), m)
    for k in range(m):
        part, index, _, cut_layout = entanglement._cut(m, entanglement.SYMMETRY_MIN_DIM, k)
        assert part == (k,) and cut_layout == layout
        pairs = np.divmod(entries[index], 2 ** m)
        assert np.array_equal(pairs[0], turns[k][first[0]]) and np.array_equal(pairs[1], turns[k][first[1]])
        # each gathered block entry (r, c) is rho's <rest_r own_c| . |rest_c own_r>
        mask = 1 << (m - 1 - k)
        for span, shape, _ in layout:
            rows, cols = np.divmod(entries[index[span]].reshape(shape), 2 ** m)
            states = rows.diagonal(axis1=1, axis2=2)[:, :, None]
            assert np.array_equal(cols.diagonal(axis1=1, axis2=2)[:, :, None], states)
            turned = states.swapaxes(1, 2)
            assert np.array_equal(rows, states & ~mask | turned & mask)
            assert np.array_equal(cols, turned & ~mask | states & mask)


def test_each_spelling_of_a_cut_shares_one_index():
    rho = reduced_thermal_state(SpinStarParams(m=5, omega=1.0, epsilon=1.3, eta=0.7), 0.1)
    for spellings in ([(0,), (np.int64(0),), np.array([0])], [(1,), (True,)], [(0, 1), (1, 0)]):
        cuts = [entanglement._cut(5, entanglement.SYMMETRY_MIN_DIM, *spins) for spins in spellings]
        assert all(cut[1] is cuts[0][1] for cut in cuts)
        assert len({negativity(rho, spins) for spins in spellings}) == 1
    with pytest.raises(ValueError):
        entanglement._cut(5, entanglement.SYMMETRY_MIN_DIM, 0.0)


def ring_states(m, temperatures=(0.0, 0.01, 1.0)):
    params = SpinStarParams(m=m, omega=1.0, epsilon=1.3, eta=0.7)
    return reduced_state(star_spectrum(params)[None], params, list(temperatures))[0]


def recorded_spectra(monkeypatch):
    """A list that records, per state of each _spectra call, its block stack's shape, with an empty memo
    to start from."""
    calls, solve = [], entanglement._spectra

    def record(blocks, split):
        calls.extend([blocks.shape[1:]] * len(blocks))
        return solve(blocks, split)

    monkeypatch.setattr(entanglement, "_last_cut", None)
    monkeypatch.setattr(entanglement, "_spectra", record)
    return calls


@pytest.mark.parametrize("m", range(2, 12))
def test_one_spin_cuts_of_a_ring_state_are_bit_identical(m):
    for packed in ring_states(m):
        gathers = [packed[entanglement._cut(m, entanglement.SYMMETRY_MIN_DIM, k)[1]] for k in range(m)]
        assert all(np.array_equal(gather.view(np.int64), gathers[0].view(np.int64)) for gather in gathers)
        per_cut = multipartite_negativity(packed).per_cut
        assert per_cut == (per_cut[0],) * m


@pytest.mark.parametrize("m", range(2, 12))
def test_equal_cuts_give_their_value_as_the_mean(m):
    for packed in ring_states(m, (0.0, 0.01, 0.1, 1.0)):
        report = multipartite_negativity(packed)
        assert report.multipartite == report.per_cut[0]


@pytest.mark.parametrize("m", [3, 8, 9])
def test_one_cut_is_solved_per_ring_state(m, monkeypatch):
    calls = recorded_spectra(monkeypatch)
    layout = entanglement._cut(m, entanglement.SYMMETRY_MIN_DIM, 0)[3]
    states = ring_states(m)
    for packed in states:
        multipartite_negativity(packed)
    assert calls == [shape for _, shape, _ in layout] * len(states)


def off_the_ring(m):
    """0.9 of a ring state plus 0.1 of spin 0 up and the rest down: no longer invariant under the ring turn."""
    excited = np.zeros((2 ** m, 2 ** m))
    excited[2 ** (m - 1), 2 ** (m - 1)] = 1.0
    return 0.9 * unpack(ring_states(m, [0.1])[0]) + 0.1 * excited


def assert_cuts_match_the_brute_transpose(rho, per_cut):
    m = len(per_cut)
    for k in range(m):
        oracle = np.sum(np.abs(np.linalg.eigvalsh(brute_partial_transpose(rho, (k,), m)))) - 1.0
        assert abs(per_cut[k] - oracle) <= 1e-12


@pytest.mark.parametrize("m", [3, 4, 8])
def test_a_state_off_the_ring_symmetry_solves_every_cut(m, monkeypatch):
    calls = recorded_spectra(monkeypatch)
    rho = off_the_ring(m)
    per_cut = multipartite_negativity(rho).per_cut
    layout = entanglement._cut(m, entanglement.SYMMETRY_MIN_DIM, 0)[3]
    assert calls == [shape for _, shape, _ in layout] * m
    assert_cuts_match_the_brute_transpose(rho, per_cut)


def cut_zero_shapes(m):
    return [shape for _, shape, _ in entanglement._cut(m, entanglement.SYMMETRY_MIN_DIM, 0)[3]]


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("m", range(2, 12))
def test_a_stack_keeps_each_ring_states_fresh_value(m, monkeypatch):
    # five temperatures and the epsilon = eta = 1 crossing at t = 0, degenerate at odd m
    params = SpinStarParams(m=m, omega=1.0, epsilon=1.0, eta=1.0)
    stack = np.concatenate([ring_states(m, (0.0, 0.01, 0.1, 1.0, 5.0)),
                            reduced_state(star_spectrum(params)[None], params, [0.0])[0]])
    fresh = []
    for state in stack:
        monkeypatch.setattr(entanglement, "_last_cut", None)
        fresh.append(negativity(state, (0,)))
    calls = recorded_spectra(monkeypatch)
    assert entanglement.keep_ring_states(stack) is stack
    # one _spectra call per layout stack, each holding every state
    assert calls == [shape for shape in cut_zero_shapes(m) for _ in stack]
    calls.clear()
    kept = [[negativity(state, (k,)) for k in range(m)] for state in stack]
    assert calls == []
    assert [bits(values) for values in kept] == [bits([value] * m) for value in fresh]


def test_a_stack_keeps_every_state_but_the_invalid_ones(monkeypatch):
    m = 3
    stack = ring_states(m, (0.0, 0.01, 0.1, 1.0, 5.0)).copy()
    base, rank = operators.packed_positions(m)
    single = np.flatnonzero(operators.excitations(m) == 1)
    stack[1, base[single] + rank[single]] = np.nan  # still ring invariant; eigvalsh of it fails
    stack[3] *= 1.1  # ring invariant, of trace 1.1
    fresh, errors = [], {}
    for i, state in enumerate(stack):
        monkeypatch.setattr(entanglement, "_last_cut", None)
        try:
            fresh.append(negativity(state, (0,)))
        except NumericalInvariantError as exc:
            errors[i] = str(exc)
    assert sorted(errors) == [1, 3] and errors[3] == "trace 1.1 is not 1; input is not a valid state"
    calls = recorded_spectra(monkeypatch)
    entanglement.keep_ring_states(stack)
    calls.clear()
    good = [stack[i] for i in (0, 2, 4)]
    assert bits([negativity(state, (k,)) for state in good for k in range(m)]) == bits(np.repeat(fresh, m))
    assert calls == []
    # a bad state's own call solves it, and raises as a call with nothing kept does
    for i, message in errors.items():
        with pytest.raises(NumericalInvariantError) as raised:
            negativity(stack[i], (1,))
        assert str(raised.value) == message
    assert calls == cut_zero_shapes(m) * 2


@pytest.mark.parametrize("m", [3, 4, 8])
def test_a_state_off_the_ring_symmetry_in_a_stack_solves_every_cut(m, monkeypatch):
    rho = off_the_ring(m)
    packed = rho.take(operators.packed_entries(m))
    stack = np.stack([ring_states(m, [0.1])[0], packed, ring_states(m, [1.0])[0]])
    calls = recorded_spectra(monkeypatch)
    entanglement.keep_ring_states(stack)
    assert calls == [shape for shape in cut_zero_shapes(m) for _ in range(2)]  # the two ring states
    calls.clear()
    per_cut = multipartite_negativity(stack[1]).per_cut
    assert calls == cut_zero_shapes(m) * m
    assert_cuts_match_the_brute_transpose(rho, per_cut)
    calls.clear()
    multipartite_negativity(stack[0])  # the ring states' values outlive the off-ring state's solves
    multipartite_negativity(stack[2])
    assert calls == []


@pytest.mark.parametrize("m", range(2, 12))
def test_a_ring_state_builds_only_cut_zeros_index(m, monkeypatch):
    monkeypatch.setattr(entanglement, "_last_cut", None)
    states = ring_states(m)
    entanglement._cut.cache_clear()
    for packed in states:
        multipartite_negativity(packed)
    assert entanglement._cut.cache_info().currsize == 1
    # a state off the ring symmetry still builds every one-spin cut's index
    excited = np.zeros((2 ** m, 2 ** m))
    excited[2 ** (m - 1), 2 ** (m - 1)] = 1.0
    entanglement._cut.cache_clear()
    multipartite_negativity(0.9 * unpack(states[0]) + 0.1 * excited)
    assert entanglement._cut.cache_info().currsize == m


def test_the_state_kept_is_a_copy_of_its_bits(monkeypatch):
    m = 5
    calls = recorded_spectra(monkeypatch)
    layout = [shape for _, shape, _ in entanglement._cut(m, entanglement.SYMMETRY_MIN_DIM, 0)[3]]
    packed = ring_states(m, [0.1])[0].copy()
    negativity(packed, (0,))
    calls.clear()
    negativity(packed, (1,))
    assert calls == []
    packed *= 1 + 2 ** -52  # in place: the same array, other bits, still ring invariant
    value = negativity(packed, (1,))
    assert calls == layout
    monkeypatch.setattr(entanglement, "_last_cut", None)
    assert value == negativity(packed, (1,))
    # a float32 state is solved at every cut; the same state in float64 at one
    w = np.zeros(2 ** 4)
    w[[1, 2, 4, 8]] = 0.5
    rho = np.eye(2 ** 4) / 32 + np.outer(w, w) / 2  # entries exact in float32, trace exactly 1
    layout = [shape for _, shape, _ in entanglement._cut(4, entanglement.SYMMETRY_MIN_DIM, 0)[3]]
    for dtype, solved in ((np.float32, 4), (np.float64, 1)):
        calls.clear()
        monkeypatch.setattr(entanglement, "_last_cut", None)
        multipartite_negativity(rho.astype(dtype))
        assert calls == layout * solved


def test_the_last_cut_kept_never_changes_a_value(monkeypatch):
    # states A, B, A: each cut gives exactly what it gives with nothing kept
    m = 5
    a, b = ring_states(m, [0.1])[0], unpack(ring_states(m, [1.0])[0])
    fresh = {}
    for name, rho in (("a", a), ("b", b)):
        for k in range(m):
            monkeypatch.setattr(entanglement, "_last_cut", None)
            fresh[name, k] = negativity(rho, (k,))
    assert fresh["a", 0] != fresh["b", 0]
    for name, rho in (("a", a), ("b", b), ("a", a)):
        assert [negativity(rho, (k,)) for k in range(m)] == [fresh[name, k] for k in range(m)]


def test_threads_sharing_the_last_cut_get_fresh_values(monkeypatch):
    # the entry is read once and replaced whole, so a thread never pairs one state's bits with another's
    # sum: two threads per state, started together, switching as often as the interpreter allows
    m, states = 3, ring_states(3, [0.0, 1.0])
    fresh = []
    for packed in states:
        monkeypatch.setattr(entanglement, "_last_cut", None)
        fresh.append([negativity(packed, (k,)) for k in range(m)])
    results, start = [], threading.Barrier(4)

    def work(j):
        start.wait(timeout=60)
        for _ in range(1000):
            results.append([negativity(states[j], (k,)) for k in range(m)] == fresh[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % 2,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4000 and all(results)


def test_a_ring_state_the_reflection_does_not_fix_is_solved_whole_on_its_own(monkeypatch):
    # m=8: a ring state with more weight on a chiral orbit (spins 0, 1 and 3 up, turned around the ring)
    # than on its mirror fails _spectra's reflection test beside a state that passes it
    m = 8
    good = ring_states(m, [0.1])[0]
    orbit = operators.ring_turns(np.array([0b11010000]), m)[:, 0]
    base, rank = operators.packed_positions(m)
    chiral = good.copy()
    chiral[base[orbit] + rank[orbit]] += 1e-3
    chiral /= 1 + 8e-3  # each entry divided alike: still ring invariant, bit for bit
    assert entanglement._ring(chiral[None])[0]
    monkeypatch.setattr(entanglement, "_last_cut", None)
    fresh = [negativity(good, (0,))]
    calls = recorded_spectra(monkeypatch)
    entanglement.keep_ring_states(np.stack([good, chiral]))
    calls.clear()
    assert bits([negativity(good, (k,)) for k in range(m)]) == bits(fresh * m) and calls == []
    per_cut = multipartite_negativity(chiral).per_cut
    shapes = cut_zero_shapes(m)
    assert calls == shapes  # solved once, on its own, with its split block whole
    assert_cuts_match_the_brute_transpose(unpack(chiral), per_cut)

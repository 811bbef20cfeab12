"""Acceptance suite: one test per criterion, each printing a pass/fail line,
plus a brute-force pin of the cells that criterion 07 finds thermally activated.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they execute (pytest -rA shows them in the summary as well).
"""

import time

import numpy as np

from spinstar import (
    SpinStarParams,
    SweepGrid,
    analytic_ground_state_m3,
    analytic_spectrum_m3,
    evaluate_cell,
    ground_manifold,
    multipartite_negativity,
    negativity,
    reduced_thermal_state,
    star_spectrum,
    sweep_records,
)
from spinstar.operators import build_hamiltonian
from spinstar.spectra import eigh, spectrum_blocked
from spinstar.thermal import gibbs_state_from_spectrum, partial_trace

from oracles import (
    bell_state,
    brute_partial_trace,
    brute_partial_transpose,
    brute_star_hamiltonian,
    dm,
    ghz_state,
    qubit_permutation_matrix,
    random_density,
    random_unitary,
    w_state,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {num:02d} {name}: {status}{suffix}"
    print(line)
    return line


def star(m, omega, eps, eta):
    return build_hamiltonian(SpinStarParams(m=m, omega=omega, epsilon=eps, eta=eta))


def neg_multi(m, eps, eta, t):
    params = SpinStarParams(m=m, omega=1.0, epsilon=eps, eta=eta)
    return multipartite_negativity(reduced_thermal_state(params, t), m).multipartite


def drop_then_rise(values, threshold):
    """True when some sample sits >= threshold below an earlier value and
    >= threshold below a later one."""
    values = np.asarray(values, dtype=float)
    drops = np.maximum.accumulate(values) - values
    rises = np.maximum.accumulate(values[::-1])[::-1] - values
    return bool(np.any((drops >= threshold) & (rises >= threshold)))


def test_criterion_01_analytic_spectrum_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        eps, eta = rng.uniform(0, 10, 2)
        lam = eigh(star(3, 1.0, eps, eta)).eigenvalues
        worst = max(worst, float(np.max(np.abs(lam - analytic_spectrum_m3(1.0, eps, eta)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 1.0
    line = report(1, "analytic-spectrum-oracle", ok,
                  f"max err {worst:.2e}, {elapsed:.2f} s")
    assert ok, line


def test_criterion_02_ground_state_structure():
    fidelities = []
    for eta in (0.2, 0.5, 0.9):
        spec = spectrum_blocked(star(3, 1.0, 1.0, eta))
        manifold = ground_manifold(spec)
        ref = analytic_ground_state_m3(1.0, eta)
        fidelities.append(float(abs(ref.conj() @ spec.vectors(1)[:, 0]) ** 2)
                          if manifold.degeneracy == 1 else 0.0)
    degeneracies = []
    energy_ok = True
    for eta in (1.5, 2.0, 5.0):
        spec = spectrum_blocked(star(3, 1.0, 1.0, eta))
        manifold = ground_manifold(spec)
        degeneracies.append(manifold.degeneracy)
        energy_ok &= abs(manifold.energy - (-1.0 - eta)) <= 1e-9
        energy_ok &= abs(manifold.energy - (-eta - 1.0)) <= 1e-9
    ok = min(fidelities) >= 1.0 - 1e-10 and degeneracies == [4, 4, 4] and energy_ok
    line = report(2, "ground-state-structure", ok,
                  f"min fidelity {min(fidelities):.12f}, degeneracies {degeneracies}")
    assert ok, line


def test_criterion_03_six_level_crossing():
    lam = eigh(star(3, 1.0, 1.0, 1.0)).eigenvalues
    hits = int(np.sum(np.abs(lam + 2.0) <= 1e-9))
    ok = hits == 6
    line = report(3, "six-level-crossing", ok, f"{hits} eigenvalues within 1e-9 of -2")
    assert ok, line


def test_criterion_04_plateau():
    values = [neg_multi(3, 1.0, eta, 0.01) for eta in (1.5, 2.0, 3.0, 5.0)]
    spread = max(values) - min(values)
    ok = spread <= 1e-3
    line = report(4, "plateau", ok, f"spread {spread:.2e} across eta in {{1.5,2,3,5}}")
    assert ok, line


def test_criterion_05_competition_non_monotonicity():
    etas = np.round(np.arange(0.0, 2.0 + 1e-12, 0.05), 10)
    curve_eta = np.array([neg_multi(3, 1.0, eta, 0.01) for eta in etas])
    before = curve_eta[etas <= 1.0]
    max_drop_eta = float(np.max(np.maximum.accumulate(before) - before))

    eps_values = np.round(np.arange(0.0, 10.0 + 1e-12, 0.25), 10)
    curve_eps = np.array([neg_multi(3, eps, 1.0, 0.01) for eps in eps_values])
    eps_ok = drop_then_rise(curve_eps, 1e-3)

    ok = max_drop_eta >= 1e-3 and eps_ok
    line = report(5, "competition-non-monotonicity", ok,
                  f"drop before eta=1: {max_drop_eta:.3f}; eps line dips and recovers: {eps_ok}")
    assert ok, line


def test_criterion_06_single_source_entanglement():
    couplings = (0.5, 1.0, 2.0, 3.0, 5.0, 10.0)
    ring_only = max(neg_multi(3, 0.0, g, 0.01) for g in couplings)
    star_only = max(neg_multi(3, g, 0.0, 0.01) for g in couplings)
    ok = ring_only > 0.01 and star_only > 0.01
    line = report(6, "single-source-entanglement", ok,
                  f"ring-only max {ring_only:.3f}, star-only max {star_only:.3f}")
    assert ok, line


def vacuum_ground(omega, eps, eta):
    """True when the product vacuum |0000> (energy -2 omega) is the
    nondegenerate m=3 ground level, read from the closed-form spectrum."""
    lam = analytic_spectrum_m3(omega, eps, eta)
    return abs(lam[0] + 2.0 * omega) <= 1e-9 and lam[1] - lam[0] > 1e-9


def test_criterion_07_temperature_washout():
    # A cell whose ground level is the product vacuum has zero negativity at
    # t -> 0+ and can gain entanglement once heating populates an entangled
    # excited level (thermally activated entanglement), so washout is asserted
    # on the other cells only.
    temps = (0.01, 0.1, 1.0, 5.0)
    grid = SweepGrid(m=3, omega=1.0, epsilon_axis=(0.0, 10.0, 41),
                     eta_axis=(0.0, 10.0, 41), temperatures=temps)
    records = sweep_records(grid)
    cells = 41 * 41
    coords = [(r.epsilon, r.eta) for r in records[:cells]]
    vacuum = np.array([vacuum_ground(1.0, eps, eta) for eps, eta in coords])
    maxima = []
    whites = []
    for i, t in enumerate(sorted(temps)):
        chunk = records[i * cells:(i + 1) * cells]
        assert all(r.t == t for r in chunk)
        assert [(r.epsilon, r.eta) for r in chunk] == coords
        values = np.array([r.neg_multi for r in chunk])
        maxima.append(float(values.max()))
        whites.append(values < 1e-3)
    max_non_increasing = all(b <= a for a, b in zip(maxima, maxima[1:]))
    white_fractions = [float(np.mean(w)) for w in whites]
    rest_fractions = [float(np.mean(w[~vacuum])) for w in whites]
    washout = (all(b >= a for a, b in zip(rest_fractions, rest_fractions[1:]))
               and rest_fractions[-1] > rest_fractions[0])
    ground_limit = bool(np.all(whites[0][vacuum]))
    left_white = np.any([w & ~w_next for w, w_next in zip(whites, whites[1:])], axis=0)
    activated = [coords[k] for k in np.flatnonzero(left_white)]
    only_activation = not np.any(left_white & ~vacuum)
    ok = max_non_increasing and washout and ground_limit and only_activation
    line = report(7, "temperature-washout", ok,
                  f"max non-increasing: {max_non_increasing}; washout off the "
                  f"{int(vacuum.sum())} vacuum-ground cells: {washout} "
                  f"{[f'{f:.4f}' for f in rest_fractions]}; vacuum-ground cells white "
                  f"at t={temps[0]}: {ground_limit}; only vacuum-ground cells activated: "
                  f"{only_activation} {activated}; fractions "
                  f"{[f'{f:.4f}' for f in white_fractions]}")
    assert ok, line


# (epsilon, eta) cells of the criterion 07 grid that leave the white set
# between t=0.01 and t=0.1: vacuum ground level, entangled level 0.11-0.25 above
ACTIVATED_CELLS = ((0.5, 0.0), (0.75, 0.5), (0.0, 0.75), (0.25, 0.75), (0.5, 0.75))


def brute_cut_negativities(eps, eta, t):
    """One-spin negativities of the peripheral Gibbs state, m=3, omega=1, by
    full eigh, explicit Boltzmann weights and element-wise trace/transpose."""
    lam, vecs = np.linalg.eigh(brute_star_hamiltonian(3, 1.0, eps, eta))
    weights = np.exp(-(lam - lam.min()) / t)
    rho = (vecs * (weights / weights.sum())) @ vecs.T
    reduced = brute_partial_trace(rho, (1, 2, 3), 4)
    return [float(np.sum(np.abs(np.linalg.eigvalsh(
        brute_partial_transpose(reduced, (q,), 3)))) - 1.0) for q in range(3)]


def test_criterion_07_activated_cells_match_oracle():
    worst = 0.0
    for eps, eta in ACTIVATED_CELLS:
        assert vacuum_ground(1.0, eps, eta)
        params = SpinStarParams(m=3, omega=1.0, epsilon=eps, eta=eta)
        cold, warm = evaluate_cell(star_spectrum(params), params, (0.01, 0.1))
        brute_cold = brute_cut_negativities(eps, eta, 0.01)
        brute_warm = brute_cut_negativities(eps, eta, 0.1)
        worst = max(worst, float(np.max(np.abs(np.subtract(cold.per_cut, brute_cold)))),
                    float(np.max(np.abs(np.subtract(warm.per_cut, brute_warm)))))
        assert max(brute_cold) <= 1e-10 and max(cold.per_cut) <= 1e-10, (eps, eta)
        assert min(brute_warm) > 1e-3 and min(warm.per_cut) > 1e-3, (eps, eta)
    assert worst <= 1e-10, worst


def test_criterion_08_blocked_solver_equivalence():
    rng = np.random.default_rng(108)
    worst_spectrum = 0.0
    worst_state = 0.0
    t = 0.5
    for m in (3, 4, 5):
        for _ in range(20):
            eps, eta = rng.uniform(0, 10, 2)
            h = star(m, 1.0, eps, eta)
            full = eigh(h)
            blocked = spectrum_blocked(h)
            worst_spectrum = max(worst_spectrum,
                                 float(np.max(np.abs(full.eigenvalues - blocked.eigenvalues))))
            params = SpinStarParams(m=m, omega=1.0, epsilon=eps, eta=eta)
            via_blocked = reduced_thermal_state(params, t)
            via_full = partial_trace(gibbs_state_from_spectrum(full, t), range(1, m + 1), m + 1)
            worst_state = max(worst_state, float(np.max(np.abs(via_blocked - via_full))))
    ok = worst_spectrum <= 1e-10 and worst_state <= 1e-10
    line = report(8, "blocked-solver-equivalence", ok,
                  f"spectra err {worst_spectrum:.2e}, states err {worst_state:.2e}")
    assert ok, line


def test_criterion_09_measure_sanity():
    # independent brute-force route
    ghz = dm(ghz_state())
    ghz_brute = float(np.sum(np.abs(np.linalg.eigvalsh(
        brute_partial_transpose(ghz, (0,), 3)))) - 1.0)
    w = dm(w_state())
    w_brute = float(np.sum(np.abs(np.linalg.eigvalsh(
        brute_partial_transpose(w, (0,), 3)))) - 1.0)
    # library route
    ghz_lib = negativity(ghz, (0,))
    w_lib = negativity(w, (0,))
    target_w = 2.0 * np.sqrt(2.0) / 3.0
    biseparable = multipartite_negativity(
        np.kron(np.diag([1.0, 0.0]).astype(complex), dm(bell_state())), 3).multipartite
    ok = (abs(ghz_brute - 1.0) <= 1e-10 and abs(ghz_lib - 1.0) <= 1e-10
          and abs(w_brute - target_w) <= 1e-10 and abs(w_lib - target_w) <= 1e-10
          and biseparable == 0.0)
    line = report(9, "measure-sanity", ok,
                  f"GHZ {ghz_lib:.12f}, W {w_lib:.12f}, bi-separable {biseparable}")
    assert ok, line


def test_criterion_10_larger_rings_sweep():
    start = time.perf_counter()
    non_monotone = {}
    for m in (4, 5):
        grid = SweepGrid(m=m, omega=1.0, epsilon_axis=(0.0, 10.0, 41),
                         eta_axis=(0.0, 10.0, 41), temperatures=(0.01,))
        records = sweep_records(grid)
        values = np.array([r.neg_multi for r in records]).reshape(41, 41)  # [eta, eps]
        found = (any(drop_then_rise(values[i, :], 1e-3) for i in range(41))
                 or any(drop_then_rise(values[:, j], 1e-3) for j in range(41)))
        non_monotone[m] = found
    elapsed = time.perf_counter() - start
    ok = elapsed <= 60.0 and all(non_monotone.values())
    line = report(10, "larger-rings-sweep", ok,
                  f"{elapsed:.1f} s single-threaded; non-monotonicity {non_monotone}")
    assert ok, line


def test_criterion_11_invariant_suite():
    rng = np.random.default_rng(111)
    checks = 0
    failures = []

    # 40 x (hermiticity, unit trace, positivity floor) on reduced thermal states
    for _ in range(40):
        m = int(rng.integers(2, 5))
        params = SpinStarParams(m=m, omega=float(rng.uniform(0.5, 2.0)),
                                epsilon=float(rng.uniform(-5, 5)),
                                eta=float(rng.uniform(-5, 5)))
        rho = reduced_thermal_state(params, float(rng.uniform(0.02, 3.0)))
        checks += 3
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            failures.append("hermiticity")
        if abs(np.trace(rho) - 1.0) > 1e-12:
            failures.append("trace")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            failures.append("positivity")

    # 40 local-unitary invariance checks
    for _ in range(40):
        rho = random_density(rng, 8)
        local = np.kron(np.kron(random_unitary(rng, 2), random_unitary(rng, 2)),
                        random_unitary(rng, 2))
        before = multipartite_negativity(rho, 3).multipartite
        after = multipartite_negativity(local @ rho @ local.conj().T, 3).multipartite
        checks += 1
        if abs(before - after) > 1e-10:
            failures.append("local-unitary")

    # 40 cyclic-permutation symmetry checks on reduced thermal states
    for _ in range(40):
        m = int(rng.integers(3, 6))
        params = SpinStarParams(m=m, omega=1.0, epsilon=float(rng.uniform(-3, 3)),
                                eta=float(rng.uniform(-3, 3)))
        rho = reduced_thermal_state(params, float(rng.uniform(0.05, 2.0)))
        perm = qubit_permutation_matrix({k: (k + 1) % m for k in range(m)}, m)
        checks += 1
        if np.max(np.abs(perm @ rho @ perm.conj().T - rho)) > 1e-12:
            failures.append("cyclic-permutation")

    ok = checks == 200 and not failures
    line = report(11, "invariant-suite", ok,
                  f"{checks} checks, failures: {failures if failures else 'none'}")
    assert ok, line

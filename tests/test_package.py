import spinstar

# the sector route and its results; the dense oracles (build_hamiltonian,
# spectrum_blocked, gibbs_state_from_spectrum, zero_temperature_state,
# partial_trace, eigh) are imported from their modules
PUBLIC = {
    "GroundManifold", "NegativityReport", "NumericalInvariantError", "SpectralDecomposition",
    "SpinStarParams", "SweepGrid", "SweepRecord", "analytic_ground_state_m3",
    "analytic_spectrum_m3", "evaluate_cell", "evaluate_point", "ground_manifold",
    "multipartite_negativity", "negativity", "partial_transpose", "reduced_thermal_state",
    "star_spectrum", "sweep_records",
}


def test_public_names_are_the_sector_route():
    assert len(spinstar.__all__) == len(PUBLIC) == 18
    assert set(spinstar.__all__) == PUBLIC
    namespace = {}
    exec("from spinstar import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(spinstar, name)

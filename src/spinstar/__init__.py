"""spinstar: thermal entanglement of the peripheral spins of a spin-star network.

A central qubit exchange-couples to m peripheral qubits, which also
exchange-couple around an outer ring.  The package builds and
diagonalizes the Hamiltonian per excitation-number sector, forms Gibbs
states, traces out the central spin, and quantifies multipartite
entanglement of the periphery through the geometric mean of all
one-spin-versus-rest negativities.
"""

from .entanglement import (
    NegativityReport,
    NumericalInvariantError,
    multipartite_negativity,
    negativity,
    partial_transpose,
)
from .operators import (
    SectorMap,
    SpinStarParams,
    build_hamiltonian,
    sector_map,
)
from .spectra import (
    GroundManifold,
    SpectralDecomposition,
    analytic_ground_state_m3,
    analytic_spectrum_m3,
    degeneracy_tolerance,
    eigh,
    ground_manifold,
    spectrum_blocked,
)
from .sweep import (
    SweepGrid,
    SweepRecord,
    evaluate_cell,
    evaluate_point,
    sweep_records,
)
from .thermal import (
    gibbs_state_from_spectrum,
    partial_trace,
    reduced_thermal_state,
    zero_temperature_state,
)

__version__ = "0.1.0"

__all__ = [
    "GroundManifold",
    "NegativityReport",
    "NumericalInvariantError",
    "SectorMap",
    "SpectralDecomposition",
    "SpinStarParams",
    "SweepGrid",
    "SweepRecord",
    "analytic_ground_state_m3",
    "analytic_spectrum_m3",
    "build_hamiltonian",
    "degeneracy_tolerance",
    "eigh",
    "evaluate_cell",
    "evaluate_point",
    "gibbs_state_from_spectrum",
    "ground_manifold",
    "multipartite_negativity",
    "negativity",
    "partial_trace",
    "partial_transpose",
    "reduced_thermal_state",
    "sector_map",
    "spectrum_blocked",
    "sweep_records",
    "zero_temperature_state",
]

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
from .operators import SpinStarParams
from .spectra import (
    GroundManifold,
    SpectralDecomposition,
    analytic_ground_state_m3,
    analytic_spectrum_m3,
    ground_manifold,
)
from .sweep import (
    SweepGrid,
    evaluate_cell,
    evaluate_point,
    sweep_records,
)
from .thermal import reduced_thermal_state, star_spectrum

__version__ = "0.1.0"

__all__ = [
    "GroundManifold",
    "NegativityReport",
    "NumericalInvariantError",
    "SpectralDecomposition",
    "SpinStarParams",
    "SweepGrid",
    "analytic_ground_state_m3",
    "analytic_spectrum_m3",
    "evaluate_cell",
    "evaluate_point",
    "ground_manifold",
    "multipartite_negativity",
    "negativity",
    "partial_transpose",
    "reduced_thermal_state",
    "star_spectrum",
    "sweep_records",
]

"""Reconstruction of reactor power fields from sparse local-average
sensor measurements, with built-in two-group diffusion and transport
criticality solvers for end-to-end perfect-model versus biased-model
reconstruction studies."""

__version__ = "0.1.0"

from .geometry import (Field, GeometryConfig, Mesh, RegionBox, build_mesh,
                       inner_product, relative_l2_error)
from .materials import (CrossSectionSet, RegionXS, default_cross_sections,
                        map_alpha_to_mu, test_lattice, training_lattice)
from .eigen import ToleranceConfig
from .diffusion import DiffusionSolution, power_map_diffusion, solve_diffusion
from .transport import (AngularQuadrature, TransportSolution,
                        build_quadrature, power_map_transport,
                        solve_transport)
from .rom import ReducedBasis, SnapshotSet, delta_curves, pod
from .sensing import (MeasurementSystem, build_sensors, observe,
                      observe_psi, perturb_observations)
from .pbdw import (PbdwOperator, Reconstruction, assemble, error_bound,
                   reconstruct)
from .bench import ExperimentConfig, generate_snapshots, run_case, sweep_noise

__all__ = [
    "Field", "GeometryConfig", "Mesh", "RegionBox", "build_mesh",
    "inner_product", "relative_l2_error",
    "CrossSectionSet", "RegionXS", "default_cross_sections",
    "map_alpha_to_mu", "test_lattice", "training_lattice",
    "DiffusionSolution", "ToleranceConfig", "power_map_diffusion",
    "solve_diffusion",
    "AngularQuadrature", "TransportSolution", "build_quadrature",
    "power_map_transport", "solve_transport",
    "ReducedBasis", "SnapshotSet", "delta_curves", "pod",
    "MeasurementSystem", "build_sensors", "observe", "observe_psi",
    "perturb_observations",
    "PbdwOperator", "Reconstruction", "assemble", "error_bound",
    "reconstruct",
    "ExperimentConfig", "generate_snapshots", "run_case", "sweep_noise",
]

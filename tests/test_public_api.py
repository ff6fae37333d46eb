"""The public surface, pinned: adding or removing an exported name or a
parameter of an entry point is a change of these lists."""

import inspect

import pytest

import corestate
from corestate import bench, diffusion, transport

PUBLIC_NAMES = [
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

PARAMETERS = [
    (diffusion.solve_diffusion, ("xs", "mesh", "tol", "start")),
    (diffusion.prepare_diffusion, ("xs", "mesh")),
    (transport.solve_transport,
     ("xs", "mesh", "quad", "tol", "scheme", "start")),
    (transport.prepare_transport, ("xs", "mesh", "quad", "scheme")),
    (bench.solve_power_map,
     ("model", "xs", "mesh", "tol", "sn_order", "scheme", "start",
      "keep_solution", "operators")),
    (bench.generate_snapshots, ("cfg", "model", "lattice", "force")),
    (bench.prepare_case, ("cfg", "case")),
    (bench.run_case, ("cfg", "case")),
    (bench.sweep_noise, ("cfg", "eps_list", "n_seeds")),
]


def test_exported_names():
    assert corestate.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(corestate, name) is not None


@pytest.mark.parametrize("function, names", PARAMETERS,
                         ids=[f.__name__ for f, _ in PARAMETERS])
def test_entry_point_parameters(function, names):
    assert tuple(inspect.signature(function).parameters) == names

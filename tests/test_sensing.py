import numpy as np
import pytest

from corestate.bench import _default_bench_geometry
from corestate.errors import ConfigurationError
from corestate.geometry import Field, GeometryConfig, build_mesh, inner_product
from corestate.sensing import (build_sensors, observe, observe_psi,
                               perturb_observations)

from helpers import random_field, uniform_config


def per_block_mean_oracle(u, sensors):
    mesh = u.mesh
    v2d = u.values2d
    bx, by = mesh.nx // sensors.sx, mesh.ny // sensors.sy
    out = []
    for j in range(sensors.sy):
        for i in range(sensors.sx):
            total, count = 0.0, 0
            for jj in range(j * by, (j + 1) * by):
                for ii in range(i * bx, (i + 1) * bx):
                    total += v2d[jj, ii]
                    count += 1
            out.append(total / count)
    return np.array(out)


class TestBuildSensors:
    def test_default_grid_gives_54_sensors(self):
        mesh = build_mesh(_default_bench_geometry())
        sensors = build_sensors(mesh, (9, 6))
        assert sensors.m == 54

    def test_single_sensor_is_domain_mean(self):
        mesh = build_mesh(uniform_config(6, 4, lx=3.0, ly=2.0))
        sensors = build_sensors(mesh, (1, 1))
        omega = sensors.representer(0)
        assert np.allclose(omega.values, 1.0 / 6.0)  # 1/area
        u = random_field(mesh, np.random.default_rng(0))
        assert observe(u, sensors)[0] == pytest.approx(u.values.mean(),
                                                       rel=1e-13)

    def test_blocks_partition_the_domain(self):
        mesh = build_mesh(_default_bench_geometry())
        sensors = build_sensors(mesh, (9, 6))
        assert sensors.block_areas.sum() == pytest.approx(
            mesh.extent_x * mesh.extent_y, rel=1e-12)
        all_cells = np.concatenate(sensors.block_cells)
        assert len(all_cells) == mesh.n_cells
        assert len(np.unique(all_cells)) == mesh.n_cells

    def test_misaligned_grid_rejected(self):
        mesh = build_mesh(GeometryConfig.default())  # 50x50
        with pytest.raises(ConfigurationError, match="align"):
            build_sensors(mesh, (9, 6))

    def test_bad_grid_rejected(self):
        mesh = build_mesh(uniform_config(6, 4))
        with pytest.raises(ConfigurationError):
            build_sensors(mesh, (0, 2))

    def test_orthonormal_basis(self):
        mesh = build_mesh(uniform_config(6, 4))
        sensors = build_sensors(mesh, (3, 2))
        for i in range(sensors.m):
            for j in range(sensors.m):
                ip = inner_product(sensors.orthonormal(i),
                                   sensors.orthonormal(j))
                assert ip == pytest.approx(float(i == j), abs=1e-12)

    def test_representer_realizes_block_average(self):
        mesh = build_mesh(uniform_config(8, 6))
        sensors = build_sensors(mesh, (4, 3))
        u = random_field(mesh, np.random.default_rng(1))
        for i in range(sensors.m):
            via_inner = inner_product(sensors.representer(i), u)
            assert via_inner == pytest.approx(
                u.values[sensors.block_cells[i]].mean(), rel=1e-13)


class TestObserve:
    def test_constant_field(self):
        mesh = build_mesh(uniform_config(6, 4))
        sensors = build_sensors(mesh, (3, 2))
        u = Field(mesh, np.full(24, 3.7))
        assert np.allclose(observe(u, sensors), 3.7, rtol=1e-14)

    def test_orthonormal_basis_field(self):
        mesh = build_mesh(uniform_config(6, 4))
        sensors = build_sensors(mesh, (3, 2))
        u = sensors.orthonormal(0)
        y = observe(u, sensors)
        y_psi = sensors.to_psi_coordinates(y)
        expected = np.zeros(sensors.m)
        expected[0] = 1.0
        assert np.allclose(y_psi, expected, atol=1e-13)
        assert y[0] == pytest.approx(1.0 / np.sqrt(sensors.block_areas[0]),
                                     rel=1e-13)

    def test_matches_per_block_mean_oracle(self):
        mesh = build_mesh(_default_bench_geometry())
        sensors = build_sensors(mesh, (9, 6))
        u = random_field(mesh, np.random.default_rng(2))
        assert np.allclose(observe(u, sensors),
                           per_block_mean_oracle(u, sensors), atol=1e-13)

    @pytest.mark.parametrize("cells, grid", [((45, 30), (9, 6)),
                                             ((15, 10), (3, 2))],
                             ids=["45x30", "15x10"])
    def test_equals_block_slice_means_bitwise(self, cells, grid):
        # One mean per block, over the block's cells sliced out of the
        # 2-D grid row by row: the readings the reports were made with.
        mesh = build_mesh(uniform_config(*cells, lx=45.0, ly=30.0))
        sensors = build_sensors(mesh, grid)
        u = random_field(mesh, np.random.default_rng(4), positive=True)
        (nx, ny), (sx, sy) = cells, grid
        bx, by = nx // sx, ny // sy
        idx = np.arange(mesh.n_cells).reshape(ny, nx)
        expected = np.array([
            u.values[idx[j * by:(j + 1) * by, i * bx:(i + 1) * bx].ravel()]
            .mean() for j in range(sy) for i in range(sx)])
        assert np.array_equal(observe(u, sensors), expected)

    def test_mesh_mismatch_rejected(self):
        sensors = build_sensors(build_mesh(uniform_config(6, 4)), (3, 2))
        other = build_mesh(uniform_config(6, 6))
        with pytest.raises(ValueError, match="mesh"):
            observe(Field(other, np.ones(36)), sensors)

    def test_projection_property(self):
        # observing the projection P_W u reproduces the psi coordinates
        mesh = build_mesh(uniform_config(8, 6))
        sensors = build_sensors(mesh, (4, 3))
        u = random_field(mesh, np.random.default_rng(3))
        y_psi = observe_psi(u, sensors)
        projected = Field(mesh, sensors.psi_matrix.T @ y_psi)
        assert np.allclose(observe_psi(projected, sensors), y_psi,
                           atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturbed_representer_bound(self, seed):
        # |<omega_tilde - omega, u>| <= rho ||u|| for any representer
        # perturbation of norm rho
        mesh = build_mesh(uniform_config(8, 6))
        sensors = build_sensors(mesh, (4, 3))
        rng = np.random.default_rng(seed)
        u = random_field(mesh, rng)
        u_norm = u.norm()
        for i in range(0, sensors.m, 5):
            delta = random_field(mesh, rng)
            rho = 0.05 * rng.uniform(0.1, 1.0)
            delta_scaled = Field(mesh, delta.values / delta.norm() * rho)
            drift = abs(inner_product(delta_scaled, u))
            assert drift <= rho * u_norm * (1 + 1e-12)


class TestObservationCsv:
    def test_round_trip(self, tmp_path):
        from corestate.sensing import load_observations, save_observations
        rows = np.random.default_rng(9).standard_normal((5, 7))
        path = tmp_path / "obs.csv"
        save_observations(path, rows)
        assert np.array_equal(load_observations(path), rows)
        assert len(path.read_text().splitlines()) == 5


class TestPerturbObservations:
    def test_zero_noise_is_identity(self):
        y = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(perturb_observations(y, 0.0, seed=4), y)

    @pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.5])
    def test_exact_noise_norm(self, eps):
        # One vector, and a stack in which every vector along the last
        # axis gets its own direction.
        for shape in ((54,), (3, 32, 54)):
            y = np.random.default_rng(5).standard_normal(shape)
            noise = (perturb_observations(y, eps, seed=6) - y).reshape(-1, 54)
            np.testing.assert_allclose(np.linalg.norm(noise, axis=1), eps,
                                       rtol=1e-12, atol=0)
            assert len(np.unique(noise, axis=0)) == len(noise)

    def test_deterministic_for_fixed_seed(self):
        y = np.random.default_rng(7).standard_normal(10)
        for seed, other in ((8, 9), ((8, 1), (8, 2))):
            a = perturb_observations(y, 1e-2, seed=seed)
            b = perturb_observations(y, 1e-2, seed=seed)
            c = perturb_observations(y, 1e-2, seed=other)
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            perturb_observations(np.ones(3), -0.1, seed=0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_nonfinite_noise_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            perturb_observations(np.ones(3), eps, seed=0)

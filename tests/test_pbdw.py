import math

import numpy as np
import pytest

from corestate.errors import SingularOperatorError
from corestate.geometry import Field, build_mesh, inner_product
from corestate.pbdw import (assemble, beta, error_bound, reconstruct,
                            reconstruct_batch)
from corestate.rom import ReducedBasis, pod
from corestate.sensing import (build_sensors, observe, observe_psi,
                               perturb_observations)

from helpers import (orthonormal_fields, random_field, snapshot_set,
                     uniform_config)


def make_basis(mesh, mode_rows):
    modes = np.stack(mode_rows)
    n = modes.shape[0]
    return ReducedBasis(mesh=mesh, mode_matrix=modes,
                        singular_values=np.ones(n),
                        gram_eigenvalues=np.ones(n))


def beta_sphere_oracle(basis, sensors, n, samples=200_000):
    """Brute-force the inf over unit vectors of V_n of ||P_W e||: dense
    sweep over the unit sphere of coefficient space."""
    rng = np.random.default_rng(123)
    area = basis.mesh.cell_area
    a = sensors.psi_matrix @ basis.mode_matrix[:n].T * area
    if n == 1:
        coefs = np.array([[1.0]])
    elif n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        coefs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        coefs = rng.standard_normal((samples, n))
        coefs /= np.linalg.norm(coefs, axis=1, keepdims=True)
    return float(np.min(np.linalg.norm(coefs @ a.T, axis=1)))


class TestAssembleAndBeta:
    def test_mode_equal_to_sensor_field(self):
        mesh = build_mesh(uniform_config(6, 4))
        sensors = build_sensors(mesh, (3, 2))
        basis = make_basis(mesh, [sensors.psi_matrix[0]])
        op = assemble(basis, 1, sensors)
        expected = np.zeros((sensors.m, 1))
        expected[0, 0] = 1.0
        assert np.allclose(op.cross_gramian, expected, atol=1e-12)
        assert beta(op) == pytest.approx(1.0, abs=1e-12)

    def test_mode_orthogonal_to_observation_space(self):
        # field with zero mean on every sensor block is invisible
        mesh = build_mesh(uniform_config(6, 4))
        sensors = build_sensors(mesh, (3, 2))
        values = np.zeros((4, 6))
        values[:, 0] = [1.0, -1.0, 1.0, -1.0]
        mode = Field(mesh, values.ravel()).normalized()
        basis = make_basis(mesh, [mode.values])
        op = assemble(basis, 1, sensors)
        assert beta(op) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(SingularOperatorError):
            reconstruct(op, np.zeros(sensors.m))

    def test_beta_matches_sphere_sampling_oracle(self):
        # 6-cell mesh, m = 3, n = 2, random orthonormal spaces
        mesh = build_mesh(uniform_config(3, 2))
        sensors = build_sensors(mesh, (3, 1))
        rng = np.random.default_rng(17)
        fields = orthonormal_fields(mesh, 2, rng)
        basis = make_basis(mesh, [f.values for f in fields])
        op = assemble(basis, 2, sensors)
        assert beta(op) == pytest.approx(
            beta_sphere_oracle(basis, sensors, 2), abs=1e-6)

    def test_subspace_of_observation_space_gives_one(self):
        mesh = build_mesh(uniform_config(6, 4))
        sensors = build_sensors(mesh, (3, 2))
        combo = (sensors.psi_matrix[0] + sensors.psi_matrix[3]) / np.sqrt(2)
        basis = make_basis(mesh, [sensors.psi_matrix[1], combo])
        op = assemble(basis, 2, sensors)
        assert beta(op) == pytest.approx(1.0, abs=1e-12)

    def test_beta_nonincreasing_in_n(self):
        mesh = build_mesh(uniform_config(8, 6))
        rng = np.random.default_rng(23)
        fields = orthonormal_fields(mesh, 6, rng)
        basis = make_basis(mesh, [f.values for f in fields])
        sensors = build_sensors(mesh, (4, 3))
        betas = [beta(assemble(basis, n, sensors)) for n in range(1, 7)]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(betas, betas[1:]))

    def test_preconditions(self):
        mesh = build_mesh(uniform_config(6, 4))
        sensors = build_sensors(mesh, (3, 2))  # m = 6
        rng = np.random.default_rng(29)
        fields = orthonormal_fields(mesh, 7, rng)
        basis = make_basis(mesh, [f.values for f in fields])
        with pytest.raises(ValueError, match="beta would be 0"):
            assemble(basis, 7, sensors)
        with pytest.raises(ValueError, match="rank"):
            assemble(make_basis(mesh, [fields[0].values]), 2, sensors)
        with pytest.raises(ValueError, match=">= 1"):
            assemble(basis, 0, sensors)


class TestReconstruct:
    def _setup(self, nx=12, ny=9, n_modes=5, grid=(4, 3), seed=31):
        mesh = build_mesh(uniform_config(nx, ny))
        sensors = build_sensors(mesh, grid)
        rng = np.random.default_rng(seed)
        fields = orthonormal_fields(mesh, n_modes, rng)
        basis = make_basis(mesh, [f.values for f in fields])
        return mesh, sensors, basis, rng

    def test_exact_recovery_of_reduced_space_element(self):
        mesh, sensors, basis, rng = self._setup()
        op = assemble(basis, 5, sensors)
        z_true = rng.standard_normal(5)
        u = Field(mesh, z_true @ basis.mode_matrix)
        rec = reconstruct(op, observe_psi(u, sensors))
        err = np.sqrt(inner_product(
            Field(mesh, u.values - rec.estimate.values),
            Field(mesh, u.values - rec.estimate.values))) / u.norm()
        assert err < 1e-10

    def test_one_by_one_closed_form(self):
        mesh = build_mesh(uniform_config(4, 3))
        sensors = build_sensors(mesh, (1, 1))
        mode = random_field(mesh, np.random.default_rng(2)).normalized()
        basis = make_basis(mesh, [mode.values])
        op = assemble(basis, 1, sensors)
        a = op.cross_gramian[0, 0]
        assert a != 0
        y = np.array([0.37])
        rec = reconstruct(op, y)
        assert rec.vn_coords[0] == pytest.approx(0.37 / a, rel=1e-12)
        assert np.allclose(rec.estimate.values,
                           (0.37 / a) * mode.values, atol=1e-12)

    def test_interpolation_property(self):
        mesh, sensors, basis, rng = self._setup()
        op = assemble(basis, 4, sensors)
        u = random_field(mesh, rng)
        y = observe_psi(u, sensors)
        rec = reconstruct(op, y)
        assert np.linalg.norm(observe_psi(rec.estimate, sensors) - y) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_linearity(self, seed):
        mesh, sensors, basis, rng = self._setup(seed=37 + seed)
        op = assemble(basis, 4, sensors)
        y1 = rng.standard_normal(sensors.m)
        y2 = rng.standard_normal(sensors.m)
        c = 1.618
        lhs = reconstruct(op, c * y1 + y2).estimate.values
        rhs = (c * reconstruct(op, y1).estimate.values
               + reconstruct(op, y2).estimate.values)
        assert np.allclose(lhs, rhs, atol=1e-11)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_sample_error_bound(self, seed):
        mesh, sensors, basis, rng = self._setup(seed=41 + seed)
        n = 4
        op = assemble(basis, n, sensors)
        b = beta(op)
        u = random_field(mesh, rng)
        rec = reconstruct(op, observe_psi(u, sensors))
        err = Field(mesh, u.values - rec.estimate.values).norm()
        coefs = basis.project_coefficients(u.values)[:n]
        proj = coefs @ basis.mode_matrix[:n]
        dist = Field(mesh, u.values - proj).norm()
        assert err <= dist / b * (1 + 1e-9)

    def test_normal_equations_residual(self):
        mesh, sensors, basis, rng = self._setup()
        op = assemble(basis, 5, sensors)
        y = rng.standard_normal(sensors.m)
        rec = reconstruct(op, y)
        grad = op.cross_gramian.T @ (y - op.cross_gramian @ rec.vn_coords)
        assert np.max(np.abs(grad)) < 1e-11

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_noisy_observation_bound(self, eps):
        mesh, sensors, basis, rng = self._setup(seed=53)
        n = 4
        op = assemble(basis, n, sensors)
        b = beta(op)
        for trial in range(5):
            u = random_field(mesh, rng)
            y = observe_psi(u, sensors)
            y_noisy = perturb_observations(y, eps, seed=trial)
            rec = reconstruct(op, y_noisy)
            err = Field(mesh, u.values - rec.estimate.values).norm()
            coefs = basis.project_coefficients(u.values)[:n]
            dist = Field(mesh, u.values
                         - coefs @ basis.mode_matrix[:n]).norm()
            assert err <= (dist + eps) / b * (1 + 1e-9)

    def test_estimate_lives_in_vn_plus_correction(self):
        mesh, sensors, basis, rng = self._setup()
        op = assemble(basis, 3, sensors)
        u = random_field(mesh, rng)
        rec = reconstruct(op, observe_psi(u, sensors))
        recomposed = (rec.vn_coords @ basis.mode_matrix[:3]
                      + rec.correction_coords @ sensors.psi_matrix)
        assert np.allclose(rec.estimate.values, recomposed, atol=1e-13)
        assert rec.residual == pytest.approx(
            np.linalg.norm(rec.correction_coords), rel=1e-12)

    def test_batch_matches_single(self):
        mesh, sensors, basis, rng = self._setup()
        op = assemble(basis, 4, sensors)
        ys = rng.standard_normal((6, sensors.m))
        est, z, eta = reconstruct_batch(op, ys)
        for t in range(6):
            rec = reconstruct(op, ys[t])
            assert np.allclose(est[t], rec.estimate.values, atol=1e-13)
            assert np.allclose(z[t], rec.vn_coords, atol=1e-13)
            assert np.allclose(eta[t], rec.correction_coords, atol=1e-13)

    def test_wrong_observation_length_rejected(self):
        mesh, sensors, basis, _ = self._setup()
        op = assemble(basis, 3, sensors)
        with pytest.raises(ValueError, match="length"):
            reconstruct(op, np.zeros(5))
        with pytest.raises(ValueError, match="length"):
            reconstruct_batch(op, np.zeros((2, sensors.m - 1)))


class TestErrorBound:
    def test_unit_beta(self):
        assert error_bound(1.0, 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_noise_extended_arithmetic(self):
        assert error_bound(0.5, 0.1, eps_noise=0.1) == pytest.approx(
            0.4, rel=1e-15)

    def test_zero_beta_gives_infinite_bound(self):
        assert error_bound(0.0, 0.1) == math.inf

    def test_negative_contribution_rejected(self):
        with pytest.raises(ValueError):
            error_bound(0.5, -0.1)

    @pytest.mark.parametrize("beta_value", [0.5, 0.0])
    @pytest.mark.parametrize("contribution", [
        {"delta_n": math.nan}, {"eps_noise": math.nan},
        {"eps_noise": math.inf}, {"eps_model": math.nan}])
    def test_nonfinite_contribution_rejected(self, beta_value, contribution):
        with pytest.raises(ValueError, match="finite"):
            error_bound(beta_value, **{"delta_n": 0.1, **contribution})


class TestWithPodBasis:
    def test_full_chain_exact_recovery(self):
        mesh = build_mesh(uniform_config(12, 9))
        rng = np.random.default_rng(61)
        snaps = []
        x = mesh.cell_centers_x[None, :]
        y2 = mesh.cell_centers_y[:, None]
        for _ in range(20):
            cx = rng.uniform(2, 8)
            cy = rng.uniform(2, 8)
            vals = np.exp(-((x - cx)**2 + (y2 - cy)**2) / 6.0)
            snaps.append(Field(mesh, vals.ravel()).normalized())
        snapset = snapshot_set(snaps)
        basis = pod(snapset, n_max=6)
        sensors = build_sensors(mesh, (4, 3))
        op = assemble(basis, 6, sensors)
        z = rng.standard_normal(6)
        u = Field(mesh, z @ basis.mode_matrix)
        rec = reconstruct(op, observe_psi(u, sensors))
        rel = Field(mesh, u.values - rec.estimate.values).norm() / u.norm()
        assert rel < 1e-10

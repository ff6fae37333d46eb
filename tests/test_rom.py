import numpy as np
import pytest

from corestate.geometry import Field, build_mesh, inner_product
from corestate.rom import (SnapshotSet, delta_curves, pod,
                           projection_errors)

from helpers import orthonormal_fields, snapshot_set, uniform_config


def gaussian_family(mesh, count, rng=None):
    """Analytic snapshot family with a cleanly decaying spectrum:
    normalized Gaussian bumps with varying centers and widths."""
    rng = rng or np.random.default_rng(42)
    x = mesh.cell_centers_x[None, :]
    y = mesh.cell_centers_y[:, None]
    fields = []
    for _ in range(count):
        cx = rng.uniform(0.25, 0.75) * mesh.extent_x
        cy = rng.uniform(0.25, 0.75) * mesh.extent_y
        w = rng.uniform(0.15, 0.45) * mesh.extent_x
        values = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * w * w))
        fields.append(Field(mesh, values.ravel()).normalized())
    return snapshot_set(fields)


def svd_delta_oracle(snaps: SnapshotSet, testset: SnapshotSet, n_max: int):
    """Projection-error curves from a dense SVD of the sqrt(area)-weighted
    snapshot matrix; fully independent of the Gram-matrix route."""
    area = snaps.mesh.cell_area
    b = (snaps.matrix * np.sqrt(area)).T          # (n_cells, K)
    u_left, _, _ = np.linalg.svd(b, full_matrices=False)
    tv = (testset.matrix * np.sqrt(area)).T       # weighted test vectors
    norms2 = np.sum(tv**2, axis=0)
    coefs = u_left.T @ tv                          # (K, K_test)
    res2 = norms2[None, :] - np.cumsum(coefs**2, axis=0)
    res2 = np.maximum(res2[:n_max], 0.0)
    dist = np.sqrt(res2 / norms2[None, :])
    return dist.max(axis=1), np.sqrt(np.mean(dist**2, axis=1))


def gram_schmidt_projector(fields, mesh):
    """Orthonormalize snapshot fields and return the projector matrix
    application u -> P u (brute-force oracle)."""
    area = mesh.cell_area
    basis = []
    for f in fields:
        v = f.values.copy()
        for q in basis:
            v -= (q @ v) * area * q
        norm = np.sqrt((v @ v) * area)
        if norm > 1e-10:
            basis.append(v / norm)

    def project(u):
        out = np.zeros_like(u)
        for q in basis:
            out += (q @ u) * area * q
        return out

    return project


class TestPod:
    def test_repeated_snapshot_has_rank_one(self):
        mesh = build_mesh(uniform_config(5, 4))
        u = Field(mesh, np.abs(np.random.default_rng(0)
                               .standard_normal(20)) + 0.5).normalized()
        snaps = snapshot_set((u,) * 7)
        with pytest.warns(UserWarning, match="rank"):
            basis = pod(snaps, n_max=3)
        assert basis.n_max == 1
        aligned = basis.mode_matrix[0] * np.sign(basis.mode_matrix[0]
                                                 @ u.values)
        assert np.allclose(aligned, u.values, atol=1e-12)
        dwc, dms = delta_curves(basis, snaps)
        assert dwc[0] < 1e-13 and dms[0] < 1e-13

    def test_two_orthonormal_snapshots_span_their_plane(self):
        mesh = build_mesh(uniform_config(4, 3))
        rng = np.random.default_rng(3)
        f1, f2 = orthonormal_fields(mesh, 2, rng)
        snaps = snapshot_set((f1, f2))
        basis = pod(snaps, n_max=2)
        assert basis.n_max == 2
        project = gram_schmidt_projector([f1, f2], mesh)
        u = rng.standard_normal(mesh.n_cells)
        coefs = basis.project_coefficients(u)
        via_pod = coefs @ basis.mode_matrix
        assert np.allclose(via_pod, project(u), atol=1e-12)

    def test_matches_dense_svd_oracle(self):
        mesh = build_mesh(uniform_config(12, 9))
        snaps = gaussian_family(mesh, 40)
        testset = gaussian_family(mesh, 12, np.random.default_rng(7))
        n_max = 15
        basis = pod(snaps, n_max=n_max)
        dwc, dms = delta_curves(basis, testset)
        owc, oms = svd_delta_oracle(snaps, testset, n_max)
        assert np.allclose(dwc, owc, atol=1e-10)
        assert np.allclose(dms, oms, atol=1e-10)

    def test_modes_orthonormal(self):
        mesh = build_mesh(uniform_config(12, 9))
        basis = pod(gaussian_family(mesh, 30), n_max=12)
        gram = basis.mode_matrix @ basis.mode_matrix.T * mesh.cell_area
        assert np.max(np.abs(gram - np.eye(basis.n_max))) < 1e-10

    def test_energy_identity(self):
        mesh = build_mesh(uniform_config(10, 8))
        snaps = gaussian_family(mesh, 25)
        basis = pod(snaps, n_max=10)
        total = sum(inner_product(f, f) for f in snaps.fields)
        assert np.sum(basis.gram_eigenvalues) == pytest.approx(
            total, rel=1e-10)

    def test_singular_values_nonincreasing(self):
        mesh = build_mesh(uniform_config(10, 8))
        basis = pod(gaussian_family(mesh, 25), n_max=10)
        assert np.all(np.diff(basis.singular_values) <= 0)

    def test_training_set_reconstructed_at_full_rank(self):
        mesh = build_mesh(uniform_config(10, 8))
        unique = gaussian_family(mesh, 10)
        snaps = snapshot_set(unique.fields + unique.fields[:5],
                             unique.alphas + unique.alphas[:5])
        with pytest.warns(UserWarning, match="rank"):
            basis = pod(snaps, n_max=15)
        dwc, _ = delta_curves(basis, snaps)
        assert dwc[-1] < 1e-9

    def test_deterministic_output(self):
        mesh = build_mesh(uniform_config(10, 8))
        snaps = gaussian_family(mesh, 20)
        b1 = pod(snaps, n_max=8)
        b2 = pod(snaps, n_max=8)
        assert np.array_equal(b1.mode_matrix, b2.mode_matrix)
        assert np.array_equal(b1.singular_values, b2.singular_values)

    def test_sign_convention(self):
        mesh = build_mesh(uniform_config(10, 8))
        basis = pod(gaussian_family(mesh, 20), n_max=8)
        for row in basis.mode_matrix:
            assert row[np.argmax(np.abs(row))] > 0

    def test_bad_inputs(self):
        mesh = build_mesh(uniform_config(4, 3))
        with pytest.raises(ValueError, match="empty"):
            SnapshotSet(mesh, np.empty((0, 12)), ())
        snaps = gaussian_family(mesh, 5)
        with pytest.raises(ValueError, match="n_max"):
            pod(snaps, n_max=6)
        with pytest.raises(ValueError, match=">= 1"):
            pod(snaps, n_max=0)

    def test_snapshots_must_be_unit_norm(self):
        mesh = build_mesh(uniform_config(4, 3))
        with pytest.raises(ValueError, match="unit"):
            SnapshotSet(mesh, np.full((1, 12), 2.0), ((0.0,) * 5,))

    @pytest.mark.parametrize("defect, message", [
        ("NaN row", "finite"),
        ("wrong width", "per mesh cell"),
        ("alpha count", "one alpha"),
    ])
    def test_snapshot_set_rejects(self, defect, message):
        # Each check runs once on the whole matrix; one bad row fails it.
        mesh = build_mesh(uniform_config(4, 3))
        matrix = gaussian_family(mesh, 3).matrix.copy()
        alphas = ((0.0,) * 5,) * 3
        if defect == "NaN row":
            matrix[2, 5] = np.nan
        elif defect == "wrong width":
            matrix = matrix[:, :-1]
        else:
            alphas = alphas[:2]
        with pytest.raises(ValueError, match=message):
            SnapshotSet(mesh, matrix, alphas)

    def test_snapshot_set_is_its_matrix(self):
        mesh = build_mesh(uniform_config(4, 3))
        snaps = gaussian_family(mesh, 3)
        assert not snaps.matrix.flags.writeable
        assert len(snaps) == 3
        for row, f in zip(snaps.matrix, snaps.fields, strict=True):
            assert np.shares_memory(f.values, row)
            assert np.array_equal(f.values, row)


class TestDeltaCurves:
    def test_mode_itself_has_zero_distance(self):
        mesh = build_mesh(uniform_config(10, 8))
        basis = pod(gaussian_family(mesh, 20), n_max=6)
        u = Field(mesh, basis.mode_matrix[0]).normalized()
        testset = snapshot_set((u,))
        dwc, dms = delta_curves(basis, testset)
        assert np.all(dwc < 1e-10) and np.all(dms < 1e-10)

    def test_orthogonal_field_has_unit_distance(self):
        mesh = build_mesh(uniform_config(6, 5))
        rng = np.random.default_rng(5)
        fields = orthonormal_fields(mesh, 4, rng)
        snaps = snapshot_set(fields[:3])
        basis = pod(snaps, n_max=3)
        testset = snapshot_set(fields[3:])
        dwc, dms = delta_curves(basis, testset)
        assert np.allclose(dwc, 1.0, atol=1e-10)
        assert np.allclose(dms, 1.0, atol=1e-10)

    def test_monotone_and_ms_below_wc(self):
        mesh = build_mesh(uniform_config(10, 8))
        basis = pod(gaussian_family(mesh, 25), n_max=10)
        testset = gaussian_family(mesh, 9, np.random.default_rng(11))
        dwc, dms = delta_curves(basis, testset)
        assert np.all(np.diff(dwc) <= 0)
        assert np.all(np.diff(dms) <= 0)
        assert np.all(dms <= dwc * (1 + 1e-12))

    def test_mesh_mismatch_rejected(self):
        basis = pod(gaussian_family(build_mesh(uniform_config(6, 5)), 5),
                    n_max=3)
        other = gaussian_family(build_mesh(uniform_config(6, 6)), 3)
        with pytest.raises(ValueError, match="mesh"):
            delta_curves(basis, other)

    def test_projection_errors_columns_nonincreasing(self):
        mesh = build_mesh(uniform_config(10, 8))
        snaps = gaussian_family(mesh, 25)
        basis = pod(snaps, n_max=10)
        dist = projection_errors(basis, gaussian_family(
            mesh, 5, np.random.default_rng(13)).matrix)
        assert np.all(np.diff(dist, axis=0) <= 0)

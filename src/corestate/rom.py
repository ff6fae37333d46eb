"""Reduced bases from snapshot sets (method of snapshots) and the
subspace approximation-error curves they induce.

With K snapshots and far more cells than snapshots, the K x K Gram
matrix route is much cheaper than a dense decomposition of the snapshot
matrix; a dense SVD of the area-weighted snapshot matrix is the natural
cross-check and is exercised by the test suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Field, Mesh

#: Gram eigenvalues below this fraction of the trace count as rank loss.
RANK_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Unit-norm power maps, one matrix row each, with their parameters."""

    mesh: Mesh
    matrix: np.ndarray             # (K, n_cells)
    alphas: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        matrix = self.matrix
        if matrix.ndim != 2 or matrix.shape[1] != self.mesh.n_cells:
            raise ValueError("snapshot rows need one value per mesh cell")
        if not len(matrix):
            raise ValueError("snapshot set is empty")
        if len(matrix) != len(self.alphas):
            raise ValueError("one alpha per snapshot required")
        # Any non-finite value makes its row's sum of squares non-finite.
        norms2 = np.einsum("ij,ij->i", matrix, matrix) * self.mesh.cell_area
        if not np.all(np.isfinite(norms2)):
            raise ValueError("snapshot values must all be finite")
        if np.any(np.abs(np.sqrt(norms2) - 1.0) > 1e-6):
            raise ValueError("snapshots must have unit L2 norm")
        matrix.setflags(write=False)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def fields(self) -> tuple[Field, ...]:
        return tuple(Field(self.mesh, row) for row in self.matrix)


@dataclass(frozen=True, eq=False)
class ReducedBasis:
    """L2-orthonormal modes with their singular values."""

    mesh: Mesh
    mode_matrix: np.ndarray        # (n_max, n_cells)
    singular_values: np.ndarray    # (n_max,), nonincreasing
    gram_eigenvalues: np.ndarray   # full spectrum, for energy accounting

    def __post_init__(self):
        self.mode_matrix.setflags(write=False)
        self.singular_values.setflags(write=False)
        self.gram_eigenvalues.setflags(write=False)

    @property
    def n_max(self) -> int:
        return self.mode_matrix.shape[0]

    @cached_property
    def modes(self) -> tuple[Field, ...]:
        return tuple(Field(self.mesh, row) for row in self.mode_matrix)

    def project_coefficients(self, values: np.ndarray) -> np.ndarray:
        """L2 coefficients of `values` (flat or (K, n_cells)) on the modes."""
        return values @ self.mode_matrix.T * self.mesh.cell_area


def pod(snaps: SnapshotSet, n_max: int) -> ReducedBasis:
    """Method of snapshots.

    Eigendecompose the L2 Gram matrix of the snapshots, keep the leading
    eigenpairs above the relative rank threshold, and assemble modes as
    eigenvector combinations of the snapshots.  Modes get one
    re-orthonormalization pass (span-preserving) so near-threshold modes
    stay orthonormal well beyond the raw 1/sqrt(lambda) scaling, and a
    deterministic sign: the largest-magnitude component is positive.

    If `n_max` exceeds the numerical rank the basis is truncated to the
    rank with a warning.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    k = len(snaps)
    u = snaps.matrix
    if n_max > min(k, u.shape[1]):
        raise ValueError(
            f"n_max = {n_max} exceeds snapshot count {k} or cell count")

    gram = (u @ u.T) * snaps.mesh.cell_area
    gram = 0.5 * (gram + gram.T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]

    trace = float(np.sum(np.abs(eigvals)))
    rank = int(np.sum(eigvals > RANK_RTOL * trace))
    if n_max > rank:
        warnings.warn(
            f"requested {n_max} modes but numerical rank is {rank}; "
            f"basis truncated", stacklevel=2)
    n_keep = min(n_max, rank)

    modes = (eigvecs[:, :n_keep] / np.sqrt(eigvals[:n_keep])).T @ u
    area = snaps.mesh.cell_area
    for i in range(n_keep):                # modified Gram-Schmidt polish
        for j in range(i):
            modes[i] -= (modes[j] @ modes[i]) * area * modes[j]
        modes[i] /= np.sqrt((modes[i] @ modes[i]) * area)
    for i in range(n_keep):
        pivot = np.argmax(np.abs(modes[i]))
        if modes[i][pivot] < 0:
            modes[i] = -modes[i]

    return ReducedBasis(
        mesh=snaps.mesh, mode_matrix=modes,
        singular_values=np.sqrt(eigvals[:n_keep]),
        gram_eigenvalues=eigvals.copy())


def projection_errors(basis: ReducedBasis, values: np.ndarray) -> np.ndarray:
    """Relative L2 distances of each row of `values` to the nested spans.

    Returns (n_max, K): entry [n-1, t] is ||u_t - P_n u_t|| / ||u_t||.
    Residual vectors are deflated mode by mode (no cancellation floor, so
    exact recoveries come out at machine scale); float jitter around the
    mathematically nonincreasing sequence is clipped monotone.
    """
    area = basis.mesh.cell_area
    coefs = basis.mode_matrix @ values.T * area          # (n_max, K)
    norms2 = np.sum(values * values, axis=1) * area      # (K,)
    residual = values.astype(float, copy=True)
    dist2 = np.empty((basis.n_max, values.shape[0]))
    for k in range(basis.n_max):
        residual -= np.outer(coefs[k], basis.mode_matrix[k])
        dist2[k] = np.sum(residual * residual, axis=1) * area
    dist2 = np.minimum.accumulate(dist2, axis=0)
    return np.sqrt(dist2 / norms2[None, :])


def delta_curves(basis: ReducedBasis, testset: SnapshotSet):
    """Worst-case and mean-square relative approximation errors of the
    test set versus reduced dimension n = 1..n_max.

    Returns (delta_wc, delta_ms), each of length n_max.
    """
    if not basis.mesh.same_geometry(testset.mesh):
        raise ValueError("basis and test set live on different meshes")
    dist = projection_errors(basis, testset.matrix)
    delta_wc = dist.max(axis=1)
    delta_ms = np.sqrt(np.mean(dist**2, axis=1))
    return delta_wc, delta_ms

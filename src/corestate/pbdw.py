"""Constrained least-squares state reconstruction from sparse sensors.

Given an n-dimensional reduced space V_n (orthonormal modes zeta_j) and
the m-dimensional observation space W_m (orthonormal sensor fields
psi_i), the cross Gramian A_ij = <psi_i, zeta_j> carries everything:
its minimum singular value is the stability constant beta(V_n, W_m)
(the cosine of the angle between the spaces), and the reconstruction
from an observation vector y (in psi coordinates) is

    z   = argmin ||A z - y||_2        (reduced-space coordinates)
    eta = y - A z                     (observation-space correction)
    u*  = sum_j z_j zeta_j + sum_i eta_i psi_i,

which reproduces the observations exactly and is the unique minimizer
as long as n <= m and beta > 0.  The a priori error of u* is bounded by
beta^-1 (delta_n + eps_noise + eps_model) with delta_n the reduced
space's approximation error of the state manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularOperatorError
from .geometry import Field
from .rom import ReducedBasis
from .sensing import MeasurementSystem

#: Singular values below this fraction of the largest are rank loss.
_SVD_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class PbdwOperator:
    basis: ReducedBasis
    sensors: MeasurementSystem
    n: int
    cross_gramian: np.ndarray          # (m, n)
    _svd: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def m(self) -> int:
        return self.sensors.m

    @property
    def beta(self) -> float:
        """Minimum singular value of the cross Gramian, in [0, 1]."""
        return float(self._svd[1][-1])


def assemble(basis: ReducedBasis, n: int,
             sensors: MeasurementSystem) -> PbdwOperator:
    """Build the reconstruction operator for the first n modes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > sensors.m:
        raise ValueError(
            f"n = {n} exceeds m = {sensors.m}: the observation space "
            "cannot stabilize that many modes (beta would be 0)")
    if n > basis.n_max:
        raise ValueError(f"n = {n} exceeds basis rank {basis.n_max}")
    if not basis.mesh.same_geometry(sensors.mesh):
        raise ValueError("basis and sensors live on different meshes")
    a = sensors.psi_matrix @ basis.mode_matrix[:n].T * basis.mesh.cell_area
    svd = np.linalg.svd(a, full_matrices=False)
    return PbdwOperator(basis=basis, sensors=sensors, n=n,
                        cross_gramian=a, _svd=svd)


def beta(op: PbdwOperator) -> float:
    return op.beta


@dataclass(frozen=True, eq=False)
class Reconstruction:
    estimate: Field
    vn_coords: np.ndarray          # z, length n
    correction_coords: np.ndarray  # eta, length m
    residual: float                # ||y - A z||_2


def reconstruct(op: PbdwOperator, y: np.ndarray) -> Reconstruction:
    """Reconstruct a state from its observation vector (psi coordinates)."""
    estimates, z, eta = reconstruct_batch(op, np.asarray(y, dtype=float)[None])
    return Reconstruction(estimate=Field(op.basis.mesh, estimates[0]),
                          vn_coords=z[0], correction_coords=eta[0],
                          residual=float(np.linalg.norm(eta[0])))


def reconstruct_coordinates(op: PbdwOperator, y_matrix: np.ndarray):
    """The coordinates (z (K, n), eta (K, m)) of the estimates of many
    observation vectors, `y_matrix` (K, m), without forming a field.
    Raises `SingularOperatorError` when the cross Gramian has lost
    rank."""
    y_matrix = np.asarray(y_matrix, dtype=float)
    if y_matrix.ndim != 2 or y_matrix.shape[1] != op.m:
        raise ValueError(f"each observation vector must have length {op.m}")
    u, s, vt = op._svd
    if s[0] <= 0 or s[-1] < _SVD_RTOL * s[0]:
        raise SingularOperatorError(
            f"cross Gramian is numerically rank deficient "
            f"(beta = {float(s[-1]):.3e}); reduce n or move sensors")
    z = (y_matrix @ u / s) @ vt
    return z, y_matrix - z @ op.cross_gramian.T


def reconstruct_batch(op: PbdwOperator, y_matrix: np.ndarray):
    """Vectorized reconstruction of many observation vectors.

    `y_matrix` is (K, m); returns (estimates (K, n_cells), z (K, n),
    eta (K, m)).
    """
    z, eta = reconstruct_coordinates(op, y_matrix)
    estimates = z @ op.basis.mode_matrix[:op.n] + eta @ op.sensors.psi_matrix
    return estimates, z, eta


def error_bound(beta_value: float, delta_n: float, eps_noise: float = 0.0,
                eps_model: float = 0.0) -> float:
    """A priori bound beta^-1 (delta_n + eps_noise + eps_model).

    A nonpositive beta yields an explicit infinite bound rather than an
    error: the operator carries no stability at all there.  A negative
    or non-finite contribution raises `ValueError`.
    """
    if not all(0 <= c < math.inf for c in (delta_n, eps_noise, eps_model)):
        raise ValueError("error contributions must be finite and nonnegative")
    if beta_value <= 0:
        return math.inf
    return (delta_n + eps_noise + eps_model) / beta_value

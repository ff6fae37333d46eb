"""Two-group diffusion criticality solver (cell-centered finite volumes).

Solves the generalized eigenproblem

    -div(D1 grad phi1) + Sa1 phi1 - Ss21 phi2 = (chi1/k) (nuSf1 phi1 + nuSf2 phi2)
    -div(D2 grad phi2) + Sa2 phi2 - Ss12 phi1 = (chi2/k) (nuSf1 phi1 + nuSf2 phi2)

for the fundamental pair (k_eff, phi) by power iteration on the fission
source.  Interface diffusion coefficients are harmonic means, vacuum
sides carry the Robin condition D grad(phi).n + phi/2 = 0 (a zero-flux
Dirichlet variant is available behind `vacuum_model`), reflective sides
are natural zero-current boundaries.

The group-1 equation is discretized exactly as written above: there is
no implicit outscatter removal, so configurations wanting removal-style
group-1 absorption should fold the 1->2 outscatter into sigma_a of
group 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .eigen import (ToleranceConfig, cached_factors, power_iteration,
                    save_solution)
from .errors import ConfigurationError, DegenerateProblemError
from .geometry import Field, Mesh
from .materials import CrossSectionSet, cell_arrays

VACUUM_MODELS = ("robin", "zero_flux")


@dataclass(frozen=True)
class DiffusionSolution:
    k_eff: float
    phi: tuple[Field, Field]
    iterations: int
    residual: float

    def save(self, directory):
        """Persist group fluxes as CSV plus a JSON manifest."""
        save_solution(directory, self.phi, self.k_eff, self.iterations)


class GroupOperator:
    """5-point finite-volume matrix of one group (face transmissibilities
    with harmonic-mean interface D, boundary losses, Sa * area) in LAPACK
    upper band storage, `band[w + i - j, j] = A[i, j]`.  Cells are
    numbered along the shorter mesh side (row-major when nx <= ny,
    column-major otherwise), so the half-bandwidth w is min(nx, ny).
    `key` holds everything the matrix is built from, D and Sa as bytes,
    so operators with equal keys have equal matrices."""

    def __init__(self, mesh: Mesh, d2d: np.ndarray, sigma_a2d: np.ndarray,
                 vacuum_model: str):
        dx, dy = mesh.dx, mesh.dy
        self.key = (mesh.nx, mesh.ny, dx, dy, mesh.bc, vacuum_model,
                    d2d.tobytes(), sigma_a2d.tobytes())
        dl, dr, db, dt = d2d[:, :-1], d2d[:, 1:], d2d[:-1, :], d2d[1:, :]
        tx = dy * 2.0 * dl * dr / ((dl + dr) * dx)
        ty = dx * 2.0 * db * dt / ((db + dt) * dy)
        diag = sigma_a2d * mesh.cell_area
        diag[:, :-1] += tx
        diag[:, 1:] += tx
        diag[:-1, :] += ty
        diag[1:, :] += ty
        self.closed = not sigma_a2d.any()  # until a vacuum side opens it
        for side, cells, delta, face_len in (
                ("xmin", np.s_[:, 0], dx, dy), ("xmax", np.s_[:, -1], dx, dy),
                ("ymin", np.s_[0, :], dy, dx), ("ymax", np.s_[-1, :], dy, dx)):
            if getattr(mesh.bc, side) == "vacuum":  # Robin or zero flux
                self.closed, dv = False, d2d[cells]
                diag[cells] += face_len * 2.0 * dv / (
                    (4.0 * dv if vacuum_model == "robin" else 0.0) + delta)
        self.shape, self.transposed = (mesh.ny, mesh.nx), mesh.nx > mesh.ny
        if self.transposed:  # the axis along the band rows goes first
            diag, tx, ty = diag.T, ty.T, tx.T
        w = diag.shape[1]
        self.band = np.zeros((w + 1, diag.size))
        self.band[w] = diag.ravel()
        self.band[w - 1].reshape(diag.shape)[:, 1:] = -tx
        self.band[0].reshape(diag.shape)[1:, :] = -ty

    def _permute(self, x: np.ndarray, shape) -> np.ndarray:
        """Natural to band cell order, or back with `shape` reversed."""
        return x.reshape(shape).T.ravel() if self.transposed else x

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x (BLAS dsbmv) for a flat natural-order cell vector."""
        y = dsbmv(len(self.band) - 1, 1.0, self.band,
                  self._permute(x, self.shape))
        return self._permute(y, self.shape[::-1])

    def factorize(self, group: int):
        """Band Cholesky (LAPACK dpbtrf); returns `solve(q)` (dpbtrs) for
        flat natural-order vectors.  Raises `DegenerateProblemError`
        naming `group` when the matrix is singular or indefinite."""
        factor, info = dpbtrf(self.band)
        # A closed matrix is singular, but round-off can pass its pivots.
        if self.closed or info:
            why = ("singular: no absorption and no vacuum side"
                   if self.closed else f"leading minor {info}")
            raise DegenerateProblemError(
                f"group {group} diffusion operator is not positive "
                f"definite ({why})")
        return lambda q: self._permute(
            dpbtrs(factor, self._permute(q, self.shape))[0], self.shape[::-1])


def assemble_diffusion_system(xs: CrossSectionSet, mesh: Mesh,
                              vacuum_model: str = "robin"):
    """Group operators plus coupling/fission vectors (all area-scaled).

    Returns (M1, M2, s21, s12, nusf1, nusf2, chi1, chi2) where the
    vectors are flat per-cell arrays; the two-group operator acts as

        M1 phi1 - diag(s21) phi2 = (chi1/k) (nusf1 phi1 + nusf2 phi2)
        M2 phi2 - diag(s12) phi1 = (chi2/k) (nusf1 phi1 + nusf2 phi2)
    """
    if vacuum_model not in VACUUM_MODELS:
        raise ConfigurationError(f"vacuum_model must be one of {VACUUM_MODELS}")
    cx = cell_arrays(xs, mesh)
    if (cx.d <= 0).any():
        raise ConfigurationError("diffusion needs D > 0 in every region")
    area = mesh.cell_area
    m1 = GroupOperator(mesh, cx.d[0], cx.sigma_a[0], vacuum_model)
    m2 = GroupOperator(mesh, cx.d[1], cx.sigma_a[1], vacuum_model)
    s12 = cx.sigma_s[0, 1].ravel() * area
    s21 = cx.sigma_s[1, 0].ravel() * area
    nusf1 = cx.nu_sigma_f[0].ravel() * area
    nusf2 = cx.nu_sigma_f[1].ravel() * area
    return m1, m2, s21, s12, nusf1, nusf2, cx.chi[0].ravel(), cx.chi[1].ravel()


def solve_diffusion(xs: CrossSectionSet, mesh: Mesh,
                    tol: ToleranceConfig | None = None,
                    vacuum_model: str = "robin",
                    start: DiffusionSolution | None = None
                    ) -> DiffusionSolution:
    """Power iteration on the fission source (`corestate.eigen`), each
    group solved directly by band Cholesky of its `GroupOperator`,
    factorized once for a run of solves with equal matrices
    (`eigen.cached_factors`).
    `start`, the solution of a nearby problem on a mesh of the same
    shape (else `ConfigurationError`), replaces the flat start.

    Raises `IterationLimitError`, carrying the last iterate, when
    `tol.max_outer` outer steps or the group-pass cap are exhausted, and
    `DegenerateProblemError` when a group operator is singular.
    """
    tol = tol or ToleranceConfig()
    if start is not None:
        shape = (start.phi[0].mesh.nx, start.phi[0].mesh.ny)
        if shape != (mesh.nx, mesh.ny):
            raise ConfigurationError(
                f"solve_diffusion: a start on a {shape[0]} x {shape[1]} "
                f"mesh given for a {mesh.nx} x {mesh.ny} one")
    m1, m2, s21, s12, nusf1, nusf2, chi1, chi2 = assemble_diffusion_system(
        xs, mesh, vacuum_model)
    solves = [cached_factors("diffusion", g, m.key,
                             functools.partial(m.factorize, g))
              for g, m in ((1, m1), (2, m2))]

    return power_iteration(
        lambda g, q, _phi, _tol: solves[g](q), (nusf1, nusf2), (chi1, chi2),
        (s21, s12), tol, "diffusion",
        lambda k, phi, iterations, residual: DiffusionSolution(
            k, (Field(mesh, phi[0]), Field(mesh, phi[1])), iterations,
            residual),
        start=None if start is None else (
            start.k_eff, [f.values for f in start.phi]))


def eigen_residual(sol: DiffusionSolution, xs: CrossSectionSet,
                   vacuum_model: str = "robin") -> float:
    """||A phi - (1/k) F phi|| / ||F phi|| of the converged discrete pair."""
    m1, m2, s21, s12, nusf1, nusf2, chi1, chi2 = assemble_diffusion_system(
        xs, sol.phi[0].mesh, vacuum_model)
    p1, p2 = sol.phi[0].values, sol.phi[1].values
    fission = nusf1 * p1 + nusf2 * p2
    r1 = m1.matvec(p1) - s21 * p2 - chi1 * fission / sol.k_eff
    r2 = m2.matvec(p2) - s12 * p1 - chi2 * fission / sol.k_eff
    fnorm = np.sqrt(np.sum((chi1 * fission) ** 2 + (chi2 * fission) ** 2))
    return float(np.sqrt(np.sum(r1**2 + r2**2)) / fnorm)


def power_map_diffusion(sol: DiffusionSolution,
                        xs: CrossSectionSet) -> Field:
    """Energy-production map kappaSf1 phi1 + kappaSf2 phi2, unit L2 norm."""
    mesh = sol.phi[0].mesh
    cx = cell_arrays(xs, mesh)
    values = (cx.kappa_sigma_f[0].ravel() * sol.phi[0].values
              + cx.kappa_sigma_f[1].ravel() * sol.phi[1].values)
    if not (values != 0).any():
        raise DegenerateProblemError("power map is identically zero")
    return Field(mesh, values).normalized()

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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .eigen import ToleranceConfig, power_iteration, save_solution
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


def _group_matrix(mesh: Mesh, d2d: np.ndarray, sigma_a2d: np.ndarray,
                  vacuum_model: str) -> sp.csc_matrix:
    """5-point finite-volume matrix for one group: face transmissibilities
    with harmonic-mean interface D, boundary losses, and Sa * area."""
    nx, ny, dx, dy = mesh.nx, mesh.ny, mesh.dx, mesh.dy
    area = mesh.cell_area
    idx = np.arange(nx * ny).reshape(ny, nx)

    diag = sigma_a2d.ravel() * area

    rows, cols, vals = [], [], []

    def couple(r, c, t):
        rows.append(r.ravel()); cols.append(c.ravel()); vals.append(-t.ravel())
        rows.append(c.ravel()); cols.append(r.ravel()); vals.append(-t.ravel())
        np.add.at(diag, r.ravel(), t.ravel())
        np.add.at(diag, c.ravel(), t.ravel())

    dl, dr = d2d[:, :-1], d2d[:, 1:]
    tx = dy * 2.0 * dl * dr / ((dl + dr) * dx)
    couple(idx[:, :-1], idx[:, 1:], tx)

    db, dt = d2d[:-1, :], d2d[1:, :]
    ty = dx * 2.0 * db * dt / ((db + dt) * dy)
    couple(idx[:-1, :], idx[1:, :], ty)

    def boundary(side, cells, dvals, delta, face_len):
        if getattr(mesh.bc, side) != "vacuum":
            return
        if vacuum_model == "robin":
            coef = face_len * 2.0 * dvals / (4.0 * dvals + delta)
        else:  # zero-flux Dirichlet at the boundary face
            coef = face_len * 2.0 * dvals / delta
        np.add.at(diag, cells, coef)

    boundary("xmin", idx[:, 0], d2d[:, 0], dx, dy)
    boundary("xmax", idx[:, -1], d2d[:, -1], dx, dy)
    boundary("ymin", idx[0, :], d2d[0, :], dy, dx)
    boundary("ymax", idx[-1, :], d2d[-1, :], dy, dx)

    n = nx * ny
    mat = sp.coo_matrix(
        (np.concatenate(vals + [diag]),
         (np.concatenate(rows + [np.arange(n)]),
          np.concatenate(cols + [np.arange(n)]))),
        shape=(n, n))
    return mat.tocsc()


def assemble_diffusion_system(xs: CrossSectionSet, mesh: Mesh,
                              vacuum_model: str = "robin"):
    """Group matrices plus coupling/fission vectors (all area-scaled).

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
    m1 = _group_matrix(mesh, cx.d[0], cx.sigma_a[0], vacuum_model)
    m2 = _group_matrix(mesh, cx.d[1], cx.sigma_a[1], vacuum_model)
    s12 = cx.sigma_s[0, 1].ravel() * area
    s21 = cx.sigma_s[1, 0].ravel() * area
    nusf1 = cx.nu_sigma_f[0].ravel() * area
    nusf2 = cx.nu_sigma_f[1].ravel() * area
    return m1, m2, s21, s12, nusf1, nusf2, cx.chi[0].ravel(), cx.chi[1].ravel()


def solve_diffusion(xs: CrossSectionSet, mesh: Mesh,
                    tol: ToleranceConfig | None = None,
                    vacuum_model: str = "robin") -> DiffusionSolution:
    """Power iteration on the fission source (`corestate.eigen`), each
    group solved directly with its factorized finite-volume matrix.

    Raises `IterationLimitError`, carrying the last iterate, when
    `tol.max_outer` outer steps or the group-pass cap are exhausted.
    """
    tol = tol or ToleranceConfig()
    m1, m2, s21, s12, nusf1, nusf2, chi1, chi2 = assemble_diffusion_system(
        xs, mesh, vacuum_model)
    lu = [spla.splu(m1), spla.splu(m2)]

    return power_iteration(
        lambda g, q, _phi, _tol: lu[g].solve(q), (nusf1, nusf2), (chi1, chi2),
        (s21, s12), tol, "diffusion",
        lambda k, phi, iterations, residual: DiffusionSolution(
            k, (Field(mesh, phi[0]), Field(mesh, phi[1])), iterations,
            residual))


def eigen_residual(sol: DiffusionSolution, xs: CrossSectionSet,
                   vacuum_model: str = "robin") -> float:
    """||A phi - (1/k) F phi|| / ||F phi|| of the converged discrete pair."""
    mesh = sol.phi[0].mesh
    m1, m2, s21, s12, nusf1, nusf2, chi1, chi2 = assemble_diffusion_system(
        xs, mesh, vacuum_model)
    p1, p2 = sol.phi[0].values, sol.phi[1].values
    fission = nusf1 * p1 + nusf2 * p2
    r1 = m1 @ p1 - s21 * p2 - chi1 * fission / sol.k_eff
    r2 = m2 @ p2 - s12 * p1 - chi2 * fission / sol.k_eff
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

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
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .eigen import (ToleranceConfig, cached_factors, power_iteration,
                    save_solution)
from .errors import ConfigurationError, DegenerateProblemError
from .geometry import Field, Mesh
from .materials import CrossSectionSet, cell_values

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


def _band_view(mesh: Mesh, a: np.ndarray) -> np.ndarray:
    """The (ny, nx) cell array `a` seen in `GroupOperator`'s cell order,
    as an (nx, ny) transposed view when nx > ny, else `a` itself; applied
    to such a view it gives the (ny, nx) array back."""
    return a.T if mesh.nx > mesh.ny else a


class GroupOperator:
    """5-point finite-volume matrix of one group (face transmissibilities
    with harmonic-mean interface D, boundary losses, Sa * area) in LAPACK
    upper band storage, `band[w + i - j, j] = A[i, j]`.  Cells are
    numbered along the shorter mesh side (row-major when nx <= ny,
    column-major otherwise), so the half-bandwidth w is min(nx, ny).
    `matvec` and `factorize` take and give cells in natural order, flat
    or as (ny, nx) arrays; one laid out in band order in memory (the
    transpose of a C-ordered `_band_view`) is handed to LAPACK without
    a copy."""

    @staticmethod
    def key(mesh: Mesh, d2d: np.ndarray, sigma_a2d: np.ndarray,
            vacuum_model: str) -> tuple:
        """Everything the matrix is built from, D and Sa as bytes:
        operators with equal keys have equal matrices."""
        return (mesh.nx, mesh.ny, mesh.dx, mesh.dy, mesh.bc, vacuum_model,
                d2d.tobytes(), sigma_a2d.tobytes())

    def __init__(self, mesh: Mesh, d2d: np.ndarray, sigma_a2d: np.ndarray,
                 vacuum_model: str):
        dx, dy = mesh.dx, mesh.dy
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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x (BLAS dsbmv) for natural-order cells `x`."""
        y = dsbmv(len(self.band) - 1, 1.0, self.band,
                  _to_band(x, self.shape, self.transposed))
        return _from_band(y, self.shape, self.transposed, x.shape)

    def factorize(self, group: int):
        """Band Cholesky (LAPACK dpbtrf); returns `solve(q)` (dpbtrs) for
        natural-order cells `q`, flat or (ny, nx), giving the shape of
        `q`.  Raises `DegenerateProblemError` naming `group` when the
        matrix is singular or indefinite."""
        factor, info = dpbtrf(self.band)
        # A closed matrix is singular, but round-off can pass its pivots.
        if self.closed or info:
            why = ("singular: no absorption and no vacuum side"
                   if self.closed else f"leading minor {info}")
            raise DegenerateProblemError(
                f"group {group} diffusion operator is not positive "
                f"definite ({why})")
        # The solve holds the factor alone, not the operator's band.
        shape, transposed = self.shape, self.transposed
        return lambda q: _from_band(
            dpbtrs(factor, _to_band(q, shape, transposed))[0], shape,
            transposed, q.shape)


def _to_band(x: np.ndarray, shape, transposed: bool) -> np.ndarray:
    """Natural-order cells, flat or of the (ny, nx) `shape`, as a flat
    band-order vector (`GroupOperator`): a view when `x` is laid out in
    band order."""
    x = x.reshape(shape)
    return (x.T if transposed else x).ravel()


def _from_band(y: np.ndarray, shape, transposed: bool,
               out_shape) -> np.ndarray:
    """The flat band-order vector `y` as natural-order cells of
    `out_shape`, flat or the (ny, nx) `shape`: a view when (ny, nx)."""
    y = y.reshape(shape[::-1] if transposed else shape)
    return (y.T if transposed else y).reshape(out_shape)


def _diffusion_cells(xs: CrossSectionSet, mesh: Mesh, vacuum_model: str):
    """Validated cell D and sigma_a, (2, ny, nx) each, and the
    area-scaled coupling and fission arrays (s21, s12, nusf1, nusf2,
    chi1, chi2), (ny, nx) each."""
    if vacuum_model not in VACUUM_MODELS:
        raise ConfigurationError(f"vacuum_model must be one of {VACUUM_MODELS}")
    d, sigma_a, sigma_s, nu_sigma_f, chi = cell_values(
        xs, mesh, "d", "sigma_a", "sigma_s", "nu_sigma_f", "chi")
    if (d <= 0).any():
        raise ConfigurationError("diffusion needs D > 0 in every region")
    area = mesh.cell_area
    return d, sigma_a, (sigma_s[1, 0] * area, sigma_s[0, 1] * area,
                        nu_sigma_f[0] * area, nu_sigma_f[1] * area,
                        chi[0], chi[1])


def assemble_diffusion_system(xs: CrossSectionSet, mesh: Mesh,
                              vacuum_model: str = "robin"):
    """Group operators plus coupling/fission vectors (all area-scaled).

    Returns (M1, M2, s21, s12, nusf1, nusf2, chi1, chi2) where the
    vectors are flat per-cell arrays; the two-group operator acts as

        M1 phi1 - diag(s21) phi2 = (chi1/k) (nusf1 phi1 + nusf2 phi2)
        M2 phi2 - diag(s12) phi1 = (chi2/k) (nusf1 phi1 + nusf2 phi2)
    """
    d, sigma_a, vectors = _diffusion_cells(xs, mesh, vacuum_model)
    return (GroupOperator(mesh, d[0], sigma_a[0], vacuum_model),
            GroupOperator(mesh, d[1], sigma_a[1], vacuum_model)) \
        + tuple(v.ravel() for v in vectors)


def solve_diffusion(xs: CrossSectionSet, mesh: Mesh,
                    tol: ToleranceConfig | None = None,
                    vacuum_model: str = "robin",
                    start: DiffusionSolution | None = None
                    ) -> DiffusionSolution:
    """Power iteration on the fission source (`corestate.eigen`), each
    group solved directly by band Cholesky of its `GroupOperator`,
    factorized once for a run of solves with equal matrices
    (`eigen.cached_factors`) and assembled only when factorized.  The
    iteration's vectors are laid out in the operators' band order, so
    the cells are permuted once per solve, not in every group solve.
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
    # The iteration runs on (ny, nx) cell arrays seen in band order, so
    # that each group solve hands its source to LAPACK without a copy.
    d_cells, sigma_a, cells = _diffusion_cells(xs, mesh, vacuum_model)
    s21, s12, nusf1, nusf2, chi1, chi2 = (_band_view(mesh, a) for a in cells)

    def factor(g):
        d, sa = d_cells[g - 1], sigma_a[g - 1]
        return cached_factors(
            "diffusion", g, GroupOperator.key(mesh, d, sa, vacuum_model),
            lambda: GroupOperator(mesh, d, sa, vacuum_model).factorize(g))

    solves = [factor(1), factor(2)]

    def solve_group(g, q, _phi, _tol):
        return _band_view(mesh, solves[g](_band_view(mesh, q)))

    def solution(k, phi, iterations, residual):
        return DiffusionSolution(k, tuple(
            Field(mesh, _band_view(mesh, p).ravel()) for p in phi),
            iterations, residual)

    return power_iteration(
        solve_group, (nusf1, nusf2), (chi1, chi2), (s21, s12), tol,
        "diffusion", solution, start=None if start is None else (
            start.k_eff, [_band_view(mesh, f.values2d) for f in start.phi]))


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


def group_power_map(flux: tuple[Field, Field],
                    xs: CrossSectionSet) -> Field:
    """Energy-production map kappaSf1 phi1 + kappaSf2 phi2 of two group
    fluxes, unit L2 norm."""
    mesh = flux[0].mesh
    (kappa,) = cell_values(xs, mesh, "kappa_sigma_f")
    values = (kappa[0].ravel() * flux[0].values
              + kappa[1].ravel() * flux[1].values)
    if not (values != 0).any():
        raise DegenerateProblemError("power map is identically zero")
    return Field(mesh, values).normalized()


def power_map_diffusion(sol: DiffusionSolution,
                        xs: CrossSectionSet) -> Field:
    """Energy-production map of the group fluxes, unit L2 norm."""
    return group_power_map(sol.phi, xs)

"""Two-group diffusion criticality solver (cell-centered finite volumes).

Solves the generalized eigenproblem

    -div(D1 grad phi1) + Sa1 phi1 - Ss21 phi2 = (chi1/k) (nuSf1 phi1 + nuSf2 phi2)
    -div(D2 grad phi2) + Sa2 phi2 - Ss12 phi1 = (chi2/k) (nuSf1 phi1 + nuSf2 phi2)

for the fundamental pair (k_eff, phi) by power iteration on the fission
source.  Interface diffusion coefficients are harmonic means, vacuum
sides carry the Robin (Marshak) condition D grad(phi).n + phi/2 = 0,
reflective sides are natural zero-current boundaries.

The group-1 equation is discretized exactly as written above: there is
no implicit outscatter removal, so configurations wanting removal-style
group-1 absorption should fold the 1->2 outscatter into sigma_a of
group 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .eigen import (Operators, ToleranceConfig, cached_factors,
                    certificate, check_production, power_iteration)
from .errors import ConfigurationError, DegenerateProblemError
from .geometry import Field, Mesh
from .materials import CrossSectionSet, cell_values


@dataclass(frozen=True)
class DiffusionSolution:
    """A diffusion eigenpair; `fission_scale` is that of the solve,
    which `eigen_residual` reads."""

    k_eff: float
    phi: tuple[Field, Field]
    iterations: int
    fission_scale: tuple = (1.0, 1.0)


def _band_view(mesh: Mesh, a: np.ndarray) -> np.ndarray:
    """The (..., ny, nx) cell array `a` in `GroupOperator`'s cell order:
    its last two axes swapped when nx > ny, else `a` itself; applied to
    such a view it gives the (..., ny, nx) array back."""
    return a.swapaxes(-1, -2) if mesh.nx > mesh.ny else a


class GroupOperator:
    """5-point finite-volume matrix of one group (face transmissibilities
    with harmonic-mean interface D, Robin losses on vacuum sides,
    Sa * area) in LAPACK upper band storage, `band[w + i - j, j] =
    A[i, j]`.  Cells are numbered along the shorter mesh side (row-major
    when nx <= ny, column-major otherwise, as `_band_view` lays them
    out), so the half-bandwidth w is min(nx, ny)."""

    def __init__(self, mesh: Mesh, d2d: np.ndarray, sigma_a2d: np.ndarray):
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
            if getattr(mesh.bc, side) == "vacuum":  # Robin
                self.closed, dv = False, d2d[cells]
                diag[cells] += face_len * 2.0 * dv / (4.0 * dv + delta)
        if mesh.nx > mesh.ny:  # the axis along the band rows goes first
            diag, tx, ty = diag.T, ty.T, tx.T
        w = diag.shape[1]
        self.band = np.zeros((w + 1, diag.size))
        self.band[w] = diag.ravel()
        self.band[w - 1].reshape(diag.shape)[:, 1:] = -tx
        self.band[0].reshape(diag.shape)[1:, :] = -ty

    def factorize(self, group: int):
        """Band Cholesky (LAPACK dpbtrf); returns `solve(q)` (dpbtrs) for
        a flat band-order vector `q`.  Raises `DegenerateProblemError`
        naming `group` when the matrix is singular or indefinite."""
        factor, info = dpbtrf(self.band)
        # A closed matrix is singular, but round-off can pass its pivots.
        if self.closed or info:
            why = ("singular: no absorption and no vacuum side"
                   if self.closed else f"leading minor {info}")
            raise DegenerateProblemError(
                f"group {group} diffusion operator is not positive "
                f"definite ({why})")
        # The solve holds the factor alone, not the operator's band.
        return lambda q: dpbtrs(factor, q)[0]


def group_factor(kind: str, group: int, mesh: Mesh, d2d: np.ndarray,
                 sigma_a2d: np.ndarray):
    """The band-order solve of `group`'s `GroupOperator` (D `d2d`, Sa
    `sigma_a2d`, both (ny, nx)), from `eigen.cached_factors` under
    `kind`, keyed on everything the matrix is built from, so equal keys
    give equal matrices; the operator is assembled only on a miss."""
    key = (mesh.nx, mesh.ny, mesh.dx, mesh.dy, mesh.bc, d2d.tobytes(),
           sigma_a2d.tobytes())
    return cached_factors(kind, group, key, lambda: GroupOperator(
        mesh, d2d, sigma_a2d).factorize(group))


def prepare_diffusion(xs: CrossSectionSet, mesh: Mesh) -> Operators:
    """The `eigen.Operators` of `xs` on `mesh` in band cell order
    (`_band_view`), the in-scatter area-scaled, kappaSf in natural cell
    order; `solver` is (solve_group,), `solve_group(g, q, phi_g,
    inner_tol)` solving group g by band Cholesky of its `GroupOperator`
    (`group_factor`), factorized once per run of equal matrices."""
    d, sigma_a, sigma_s, nu_sigma_f, chi, kappa = cell_values(
        xs, mesh, "d", "sigma_a", "sigma_s", "nu_sigma_f", "chi",
        "kappa_sigma_f")
    if (d <= 0).any():
        raise ConfigurationError("diffusion needs D > 0 in every region")

    solves = [group_factor("diffusion", g + 1, mesh, d[g], sigma_a[g])
              for g in range(2)]

    def solve_group(g, q, _phi, _tol):
        return solves[g](q.ravel()).reshape(q.shape)

    inscatter = sigma_s[[1, 0], [0, 1]] * mesh.cell_area
    return Operators.of(*(np.ascontiguousarray(_band_view(mesh, a)) for a in (
        nu_sigma_f, chi, inscatter)), kappa.reshape(2, -1),
        (solve_group,))


def solve_diffusion(xs: CrossSectionSet | Operators, mesh: Mesh,
                    tol: ToleranceConfig | None = None,
                    start: DiffusionSolution | None = None
                    ) -> DiffusionSolution:
    """Power iteration on the fission source (`corestate.eigen`), each
    group solved directly, on the operators of `xs` (`prepare_diffusion`)
    or on `xs` itself, operators prepared on `mesh`.  The iteration's
    vectors are laid out in the operators' band order, so the cells are
    permuted once per solve, not in every group solve.
    `start`, the solution of a nearby problem on a mesh of the same
    shape (else `ConfigurationError`), replaces the flat start.

    Raises `IterationLimitError`, carrying the last iterate, when
    `tol.max_outer` outer steps are exhausted, and
    `DegenerateProblemError` when a group operator is singular.
    """
    tol = tol or ToleranceConfig()
    if start is not None:
        shape = (start.phi[0].mesh.nx, start.phi[0].mesh.ny)
        if shape != (mesh.nx, mesh.ny):
            raise ConfigurationError(
                f"solve_diffusion: a start on a {shape[0]} x {shape[1]} "
                f"mesh given for a {mesh.nx} x {mesh.ny} one")
    ops = xs if isinstance(xs, Operators) else prepare_diffusion(xs, mesh)
    solve_group, = ops.solver

    def solution(k, phi, iterations):
        return DiffusionSolution(k, tuple(
            Field(mesh, _band_view(mesh, p).ravel()) for p in phi),
            iterations, ops.fission_scale)

    return power_iteration(
        solve_group, ops, ops.nusf() * mesh.cell_area, tol, "diffusion",
        solution, start=None if start is None else (
            start.k_eff, [_band_view(mesh, f.values2d) for f in start.phi]))


def eigen_residual(sol: DiffusionSolution, xs: CrossSectionSet) -> float:
    """Convergence certificate of a diffusion eigenpair
    (`eigen.certificate`): one more outer step from `sol` with k_eff
    frozen, on the group factors its solve left in
    `eigen.cached_factors`, and on `xs`'s nuSf at `sol`'s
    `fission_scale`, the production its solve used when `xs` are the
    cross sections its operators were prepared from.  Raises
    `ConfigurationError` when they cannot be (`eigen.check_production`),
    such as a block point's own cross sections, already scaled."""
    mesh = sol.phi[0].mesh
    ops = prepare_diffusion(xs, mesh)
    nusf = ops._replace(
        fission_scale=sol.fission_scale).nusf() * mesh.cell_area
    phi = [_band_view(mesh, f.values2d) for f in sol.phi]
    check_production(nusf, phi, 1.0, sol.fission_scale)
    return certificate(ops.solver[0], nusf, ops.chi, ops.inscatter,
                       sol.k_eff, phi)


def group_power_map(flux: tuple[Field, Field],
                    xs: CrossSectionSet | Operators) -> Field:
    """Energy-production map kappaSf1 phi1 + kappaSf2 phi2 of two group
    fluxes, unit L2 norm, kappaSf read from prepared operators or
    gathered from `xs`.  The values are scaled as `Field.normalized`
    scales them, so the map has its bytes, in one `Field`."""
    mesh = flux[0].mesh
    kappa = xs.kappa_sigma_f if isinstance(xs, Operators) else cell_values(
        xs, mesh, "kappa_sigma_f")[0].reshape(2, -1)
    values = kappa[0] * flux[0].values + kappa[1] * flux[1].values
    norm = math.sqrt(float(np.dot(values, values) * mesh.cell_area))
    if norm == 0.0:
        raise DegenerateProblemError("power map is identically zero")
    return Field(mesh, values / norm)


def power_map_diffusion(sol: DiffusionSolution,
                        xs: CrossSectionSet | Operators) -> Field:
    """Energy-production map of the group fluxes, unit L2 norm, with
    the kappaSf of `xs` or of the operators of its solve."""
    return group_power_map(sol.phi, xs)

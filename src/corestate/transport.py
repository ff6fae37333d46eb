"""Two-group discrete-ordinates transport criticality solver.

Angular discretization is a product quadrature (Gauss in the polar
cosine, equally weighted azimuthal angles per polar level) on the upper
hemisphere, folded for planar z-symmetry so the weights carry the full
4*pi solid angle.  Spatially each direction is swept with the fully
upwinded step scheme or with diamond difference (Lewis & Miller,
Computational Methods of Neutron Transport, 1984, ch. 4), which trades
the step scheme's positivity guarantee for second-order accuracy.
Either is written as a sparse lower-triangular system per direction:
its cells are numbered in the direction's upwind order, and diamond
adds each cell's outgoing x and y face fluxes as unknowns after its
flux, so the LU factorization adds no fill and a solve is one forward
substitution.  A whole sweep is one such system (`_sweep_system`), so
a group's sweep is one triangular solve, and its solve vector, holding
the angular flux and the exit-face fluxes, is the sweeper's state.
The system depends only on the mesh, its side conditions, the
quadrature and the scheme; a problem writes its diagonal and
factorizes.  The factor of each group is kept across solves
(`eigen.cached_factors`, keyed by the bytes of the group's totals), so
consecutive lattice points that share it, and `eigen_residual` after
its solve, factorize nothing.

The eigenpair is found by power iteration on the fission source with a
source iteration per group inside each outer step.  The inner stops on
its estimated error: its last change times rho / (1 - rho), rho being
the group's contraction per sweep, measured as the ratio of two
successive changes and carried over to the group's next inner.  The
inner tolerance follows the outer flux change (`eigen.INNER_TOL_FACTOR`)
down to 1e-9, and a change below 1e-9 always stops.  Accelerated groups
(rho ~ 0.2) then take one sweep per outer, while slowly contracting
ones iterate until their error, not just their last change, is small.
`eigen_residual` certifies a returned eigenpair by one more outer step
with its inners at 1e-9 (`eigen.certificate`); it is the solver's one
convergence report.

The source iteration is diffusion-synthetic accelerated (Adams & Larsen,
Prog. Nucl. Energy 40, 2002): after each sweep the diffusion equation
(-div D grad + sigma_t - sigma_s,gg) delta = sigma_s,gg (phi_swept -
phi_old), D = 1/(3 sigma_t), is solved on the diffusion solver's
finite-volume matrix, factorized once per group, and phi_swept + delta
is the new iterate; delta/4pi also enters the exit-face fluxes that
feed lagged reflective inflows (below).  On the default layout this
takes the contraction per sweep from 0.63-0.72 to 0.18-0.19.  The
correction is inconsistent with the step (and diamond) sweep in thick
cells and diverges there, so a group whose thickest cell exceeds
`_DSA_MAX_MFP` mean free paths runs plain source iteration.

Vacuum sides impose zero inflow, reflective sides mirror the outgoing
face flux of the opposite direction: on xmin and ymin that of the same
sweep, whose quadrant order (`_SWEEP_ORDER`) sweeps the mirror first,
on xmax and ymax that of the previous sweep (a lagged inflow).
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .diffusion import GroupOperator, group_power_map
from .eigen import (ToleranceConfig, cached_factors, certificate,
                    power_iteration, save_solution)
from .errors import ConfigurationError, IterationLimitError
from .geometry import Field, Mesh
from .materials import CrossSectionSet, cell_values

#: Minimum transport total accepted anywhere on the mesh (1/cm); void
#: regions must carry at least this much to keep the sweeps well posed.
MIN_SIGMA_T = 1e-4

FOUR_PI = 4.0 * np.pi

SCHEMES = ("step", "diamond")

#: Quadrant sign patterns (sign_x, sign_y) in storage order.
_QUADRANTS = ((1, 1), (-1, 1), (-1, -1), (1, -1))
#: Sweep order chosen so reflective xmin/ymin inflows are fresh.
_SWEEP_ORDER = (2, 1, 3, 0)
_MIRROR_X_QUAD = (1, 0, 3, 2)
_MIRROR_Y_QUAD = (3, 2, 1, 0)

_INNER_TOL = 1e-9
_MAX_INNER = 500
#: Clamp of a measured inner contraction, so a ratio of successive
#: changes at or above one still gives a finite error estimate.
_MAX_RHO = 0.99

#: Thickest cell, sigma_t * max(dx, dy) in mean free paths, on which a
#: group's source iteration is diffusion-accelerated.  Contraction per
#: sweep on a homogeneous 20 x 20 S4 problem with scattering ratio 0.99
#: (plain source iteration 0.81-0.99 throughout), by cell thickness:
#:
#:     mfp       0.1   0.3   0.5   1.0   1.25  1.5   2.0   4.0
#:     step      0.21  0.18  0.23  0.52  0.66  0.79  1.04  1.95
#:     diamond   0.24  0.24  0.21  0.73  1.13  1.61  2.80  9.65
_DSA_MAX_MFP = 1.0


@dataclass(frozen=True)
class AngularQuadrature:
    order: int
    omega_x: np.ndarray
    omega_y: np.ndarray
    weight: np.ndarray
    quadrant: np.ndarray   # quadrant id per direction
    mirror_x: np.ndarray   # direction index with omega_x negated
    mirror_y: np.ndarray

    @property
    def n_directions(self) -> int:
        return self.omega_x.size


@functools.lru_cache(maxsize=8)
def build_quadrature(order: int) -> AngularQuadrature:
    """Product quadrature with order*(order+2)/2 directions.

    Polar level l (l = 1 nearest the pole) carries 4*l azimuthal angles
    offset by half a step, so no direction is axis-aligned and the set
    is exactly symmetric under sign flips of either component.  Built
    once per order (~0.3 ms for S4) and shared, so its arrays are
    read-only.
    """
    if order < 2 or order % 2 != 0:
        raise ValueError(f"quadrature order must be even and >= 2, got {order}")
    npolar = order // 2
    nodes, wts = np.polynomial.legendre.leggauss(npolar)
    mu = (nodes + 1.0) / 2.0          # polar cosine on (0, 1)
    wpol = wts / 2.0                  # weights summing to 1
    # Most polar point first: level l gets 4*l azimuthal angles.
    sort = np.argsort(-mu)
    mu, wpol = mu[sort], wpol[sort]

    base_x, base_y, base_w = [], [], []
    for level, (m, wp) in enumerate(zip(mu, wpol), start=1):
        sin_theta = np.sqrt(1.0 - m * m)
        phi = (np.arange(level) + 0.5) * (np.pi / 2.0) / level
        base_x.append(sin_theta * np.cos(phi))
        base_y.append(sin_theta * np.sin(phi))
        base_w.append(np.full(level, FOUR_PI * wp / (4.0 * level)))
    bx = np.concatenate(base_x)
    by = np.concatenate(base_y)
    bw = np.concatenate(base_w)
    nb = bx.size

    ox = np.concatenate([sx * bx for sx, _ in _QUADRANTS])
    oy = np.concatenate([sy * by for _, sy in _QUADRANTS])
    w = np.tile(bw, 4)
    quadrant = np.repeat(np.arange(4), nb)
    mirror_x = np.concatenate(
        [_MIRROR_X_QUAD[q] * nb + np.arange(nb) for q in range(4)])
    mirror_y = np.concatenate(
        [_MIRROR_Y_QUAD[q] * nb + np.arange(nb) for q in range(4)])

    quad = AngularQuadrature(order=order, omega_x=ox, omega_y=oy, weight=w,
                             quadrant=quadrant, mirror_x=mirror_x,
                             mirror_y=mirror_y)
    for value in (ox, oy, w, quadrant, mirror_x, mirror_y):
        value.setflags(write=False)
    assert abs(w.sum() - FOUR_PI) < 1e-12 * FOUR_PI
    assert abs(np.dot(w, ox)) < 1e-12 and abs(np.dot(w, oy)) < 1e-12
    assert abs(np.dot(w, ox**2) - np.dot(w, oy**2)) < 1e-12
    return quad


@dataclass(frozen=True)
class TransportSolution:
    """A transport eigenpair.  `residual` is the last outer |dk|;
    `iterations` counts the outer steps and `sweeps` all sweeps of
    both groups.  `quadrature_order` and `scheme` are those of the
    solve, and `angular_flux` (with `retain_angular` only) each group's
    angular flux, shaped (directions, ny, nx).  `eigen_residual`
    certifies the eigenpair.
    """

    k_eff: float
    scalar_flux: tuple[Field, Field]
    iterations: int
    sweeps: int
    residual: float
    quadrature_order: int
    scheme: str
    angular_flux: tuple[np.ndarray, np.ndarray] | None = None

    def save(self, directory):
        """Persist group scalar fluxes as CSV plus a JSON manifest."""
        save_solution(directory, self.scalar_flux, self.k_eff,
                      self.iterations)


class _SweepBlock(NamedTuple):
    """Step or diamond sweep system of a set of directions
    (`_sweep_block`), everything but its diagonal values.

    Each direction's cells are numbered in its upwind order: counting i
    down when ox < 0 and j down when oy < 0 gives every upstream
    neighbour a lower number than the cell it feeds.  With a = |ox| dy,
    b = |oy| dx, a step cell has one unknown, psi, also the flux it
    sends downstream: (sigma_t A + a + b) psi - a psi_x,up - b psi_y,up
    = q A.  A diamond cell has psi, then its outgoing x and y face
    fluxes: (sigma_t A + 2a + 2b) psi - 2a f_x,in - 2b f_y,in = q A and
    f_out - 2 psi + f_in = 0, f_in being the upstream cell's f_out.
    Every entry refers to an earlier unknown, so the matrix is lower
    triangular and its `NATURAL` LU adds no fill (L holds the matrix's
    nonzeros, U its diagonal): a solve is one forward substitution.

    `src` is each unknown's natural cell, or n = nx ny for a face: the
    right-hand side gathers the area-weighted emission, a zero appended
    at n, and the diagonal sigma_t A (likewise) + `diag_add`.  `rank`
    is psi's unknown per direction and natural cell (a diamond cell's
    face fluxes are the next two), `x_out_pos` (`y_out_pos`) that of the
    exit-side outgoing face flux per natural row (column).  `indices`,
    `indptr` and `data` are the CSC matrix with the off-diagonals in
    place and zeros at `diag_pos`.
    """

    src: np.ndarray
    rank: np.ndarray
    x_out_pos: np.ndarray
    y_out_pos: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    data: np.ndarray
    diag_pos: np.ndarray
    diag_add: np.ndarray

    def factorize(self, sigt2d: np.ndarray, cell_area: float):
        """LU of the system for cell totals `sigt2d`: the diagonal is
        written into a copy of `data`.  Without fill, supernodes gain
        nothing; panel size and relaxation 1 halve the factorization
        time."""
        data = self.data.copy()
        data[self.diag_pos] = (np.append(sigt2d.ravel(), 0.0)[self.src]
                               * cell_area + self.diag_add)
        n = self.diag_pos.size
        return spla.splu(sp.csc_matrix((data, self.indices, self.indptr),
                                       shape=(n, n)),
                         permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         panel_size=1, relax=1)


def _sweep_block(nx: int, ny: int, dx: float, dy: float, omega_x,
                 omega_y, scheme: str = "step", feed=None):
    """`_SweepBlock` of the directions (omega_x[k], omega_y[k]) in that
    order, its boundary inflows (per upstream side x and y, the positions
    and weights with which an inflow, one row per direction indexed by
    natural row j (column i), enters the right-hand side, one layer per
    kind of row it enters) and its lagged couplings.  `feed` gives per
    side the direction whose exit face is each direction's inflow there,
    or -1 (the default).  From an earlier direction that coupling (the
    weights, negated) is a matrix entry, and the system stays lower
    triangular; from a later one the weights are entries of the lagged
    sparse matrix, which takes a previous solve vector to its share of
    the right-hand side."""
    n, nd = nx * ny, len(omega_x)
    diamond = scheme == "diamond"
    m = 3 if diamond else 1            # unknowns per cell
    # Weight of the inflow face flux in the cell balance, and the
    # unknowns holding a cell's outgoing x and y face fluxes.
    w, fx, fy = (2.0, 1, 2) if diamond else (1.0, 0, 0)
    pos = np.arange(n).reshape(ny, nx)
    a = np.abs(np.asarray(omega_x, dtype=float))[:, None] * dy
    b = np.abs(np.asarray(omega_y, dtype=float))[:, None] * dx
    steps = [(-1 if oy < 0 else 1, -1 if ox < 0 else 1)
             for ox, oy in zip(omega_x, omega_y)]

    def at(p, c=0):
        """Unknown c at the upwind positions p (flat, or one row per
        direction), per direction."""
        return m * (p + n * np.arange(nd)[:, None]) + c

    # Natural cell at each upwind position; flipping axes is its own
    # inverse, so this is also the position of each natural cell.
    order = np.stack([pos[::sy, ::sx].ravel() for sy, sx in steps])
    cell = pos.ravel()
    # Cells fed through an x (y) face, and their upstream neighbours.
    x_down, x_up = pos[:, 1:].ravel(), pos[:, :-1].ravel()
    y_down, y_up = pos[1:, :].ravel(), pos[:-1, :].ravel()
    entries, lagged = ([], [], []), ([], [], [])

    def couple(row, col, val, into=entries):
        for part, value in zip(into, (row, col, val)):
            part.append(np.broadcast_to(value, row.shape).ravel())

    # Diagonal (placeholder ones), then each cell fed through its
    # upstream x and y faces.
    for c in range(m):
        couple(at(cell, c), at(cell, c), 1.0)
    couple(at(x_down), at(x_up, fx), -w * a)
    couple(at(y_down), at(y_up, fy), -w * b)
    if diamond:
        for c, up, down in ((fx, x_up, x_down), (fy, y_up, y_down)):
            couple(at(cell, c), at(cell), -2.0)
            couple(at(down, c), at(up, c), 1.0)
    # The inflow enters the cell rows times w a (w b) and, as -f_in,
    # diamond's face rows.
    layer = np.arange(2 if diamond else 1)[:, None, None]
    inflows = (
        (at(np.stack([pos[::sy, 0] for sy, _ in steps])) + fx * layer,
         np.where(layer == 0, w * a, -1.0)),
        (at(np.stack([pos[0, ::sx] for _, sx in steps])) + fy * layer,
         np.where(layer == 0, w * b, -1.0)))
    out = (at(np.stack([pos[::sy, -1] for sy, _ in steps]), fx),
           at(np.stack([pos[-1, ::sx] for _, sx in steps]), fy))
    own = np.arange(nd)
    for (in_pos, weight), out_pos, source in zip(
            inflows, out, feed or [np.full(nd, -1)] * 2):
        k = np.flatnonzero((source >= 0) & (source < own))
        couple(in_pos[:, k], out_pos[source[k]], -weight[:, k])
        k = np.flatnonzero(source > own)
        couple(in_pos[:, k], out_pos[source[k]], weight[:, k], lagged)
    size = m * n * nd
    mat, lag = (sp.csc_matrix((np.concatenate(val), (np.concatenate(row),
                                                     np.concatenate(col))),
                              shape=(size, size))
                for row, col, val in (entries, lagged))
    mat.sort_indices()
    # Lower triangular: each column starts at its diagonal.
    diag_pos = mat.indptr[:-1].copy()
    assert (mat.indices[diag_pos] == np.arange(size)).all()
    mat.data[diag_pos] = 0.0
    src = np.full((nd, n, m), n)
    src[:, :, 0] = order
    diag_add = np.ones((nd, n, m))
    diag_add[:, :, 0] = w * (a + b)
    return _SweepBlock(
        src=src.ravel(), rank=at(order).reshape(nd, ny, nx),
        x_out_pos=out[0], y_out_pos=out[1],
        indices=mat.indices.astype(np.intc),
        indptr=mat.indptr.astype(np.intc), data=mat.data,
        diag_pos=diag_pos, diag_add=diag_add.ravel()), inflows, lag


@functools.lru_cache(maxsize=4)
def _sweep_system(nx: int, ny: int, dx: float, dy: float, order: int,
                  scheme: str, bc):
    """The whole `scheme` sweep on an nx x ny mesh of dx x dy cells with
    side conditions `bc` and the S_order quadrature: the read-only
    `_SweepBlock` of all directions, stacked quadrant by quadrant in
    `_SWEEP_ORDER` (`rank`, `x_out_pos` and `y_out_pos` by direction),
    each reflective inflow fed by its mirror direction, and the lagged
    couplings (xmax and ymax sides) or None.  It depends on no cross
    section, so both groups' sweepers, every lattice point and
    `eigen_residual` share it and only refill its diagonal."""
    quad = build_quadrature(order)
    nb = quad.n_directions // 4
    # The directions in sweep order, and the place of each in it.
    dirs = np.concatenate([np.arange(q * nb, (q + 1) * nb)
                           for q in _SWEEP_ORDER])
    place = np.argsort(dirs)
    feed = [np.where([getattr(bc, low if o > 0 else high) == "reflective"
                      for o in omega[dirs]], place[mirror[dirs]], -1)
            for omega, mirror, low, high in (
                (quad.omega_x, quad.mirror_x, "xmin", "xmax"),
                (quad.omega_y, quad.mirror_y, "ymin", "ymax"))]
    block, _, lag = _sweep_block(nx, ny, dx, dy, quad.omega_x[dirs],
                                 quad.omega_y[dirs], scheme, feed)
    system = block._replace(**{name: getattr(block, name)[place] for name
                               in ("rank", "x_out_pos", "y_out_pos")})
    for value in system:
        value.setflags(write=False)
    return system, lag.tocsr() if lag.nnz else None


def sweep_direction(mesh: Mesh, sigma_t2d: np.ndarray, omega, emission2d,
                    inflow_x=None, inflow_y=None) -> np.ndarray:
    """Solve one direction's step-scheme transport with a fixed angular
    source density `emission2d` and prescribed boundary inflows.

    `inflow_x` is the incoming face flux along the upstream x side (one
    value per row j), `inflow_y` along the upstream y side (per column
    i); both default to zero (vacuum).  Returns the cell flux (ny, nx).
    """
    ox, oy = float(omega[0]), float(omega[1])
    if ox == 0.0 or oy == 0.0:
        raise ValueError("sweep directions must have nonzero components")
    block, inflows, _ = _sweep_block(mesh.nx, mesh.ny, mesh.dx, mesh.dy,
                                     [ox], [oy])
    rhs = np.append(np.asarray(emission2d, dtype=float) * mesh.cell_area,
                    0.0)[block.src]
    for (pos, weight), inflow in zip(inflows, (inflow_x, inflow_y)):
        if inflow is not None:
            rhs[pos] += weight * np.asarray(inflow, dtype=float)
    lu = block.factorize(np.asarray(sigma_t2d, dtype=float), mesh.cell_area)
    return lu.solve(rhs)[block.rank[0]]


def _trim_heap():
    """Give the malloc heap's free pages back to the system (glibc
    `malloc_trim`; skipped where the C library has none).

    A SuperLU factorization of a whole 45 x 30 S4 sweep reserves ~33 MB
    of heap; the factor keeps ~1 MB resident, its work arrays touch ~2
    MB more.  While cached factors pin the heap, the pages a dropped
    factor touched can stay resident: peak RSS of perfbench's
    `transport_lattice` read 75.0, 75.2 and 80.8 MB without this trim
    after each drop and 75.0-75.1 MB with it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):  # no C library, or no
        return                                    # malloc_trim in it
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


class _GroupSweeper:
    """Per-group sweep: the whole-sweep system (`_sweep_system`) factorized
    with the group's totals (from `eigen.cached_factors`), and its solve
    vector `x`, the angular flux and exit-face fluxes of the last sweep
    or of the start.  `sweeps` counts the calls of `sweep`."""

    def __init__(self, mesh: Mesh, quad: AngularQuadrature,
                 sigt2d: np.ndarray, scheme: str, group: int):
        self.mesh, self.quad, self.sweeps = mesh, quad, 0
        plan = (mesh.nx, mesh.ny, mesh.dx, mesh.dy, quad.order, scheme,
                mesh.bc)
        self._system, self._lag = _sweep_system(*plan)
        self._lu = cached_factors(
            "sweep", group, (plan, mesh.cell_area, sigt2d.tobytes()),
            lambda: self._system.factorize(sigt2d, mesh.cell_area),
            on_drop=_trim_heap)
        self.x = np.full(self._system.diag_pos.size, 1.0 / FOUR_PI)
        # What `scale` owes `x`; the DSA share of the next lagged inflows.
        self._factor, self._lag_fix = 1.0, 0.0

    @property
    def psi(self) -> np.ndarray:
        """The angular flux (directions, ny, nx), a copy."""
        return self._factor * self.x[self._system.rank]

    def _fill(self, cells: np.ndarray) -> np.ndarray:
        """A solve vector with `cells` (directions, ny, nx) in each cell's
        psi and, in diamond, its face fluxes, exit faces included."""
        x = np.empty_like(self.x)
        for c in range(x.size // self._system.rank.size):
            x[self._system.rank + c] = cells
        return x

    def seed(self, psi: np.ndarray):
        """Start from the angular flux `psi` (directions, ny, nx; or
        (ny, nx), isotropic), each exit-face flux from its exit cell."""
        self.x = self._fill(psi)
        self._factor, self._lag_fix = 1.0, 0.0

    def sweep(self, emission2d: np.ndarray) -> np.ndarray:
        """One full sweep over all directions with the isotropic angular
        emission density `emission2d`; returns the scalar flux (ny, nx)."""
        rhs = np.append(emission2d * self.mesh.cell_area,
                        0.0)[self._system.src]
        if self._lag is not None:
            rhs += self._factor * (self._lag @ self.x) + self._lag_fix
        self._factor, self._lag_fix = 1.0, 0.0
        self.sweeps += 1
        self.x = self._lu.solve(rhs)
        phi = (self.quad.weight @ self.x[self._system.rank].reshape(
            self.quad.n_directions, -1)).reshape(self.mesh.ny, self.mesh.nx)
        return phi

    def correct(self, delta: np.ndarray):
        """Add the isotropic flux correction `delta` (ny, nx) / 4 pi to
        the exit faces that feed the next sweep's lagged inflows.  The
        other reflective inflows are solved within the sweep, so without
        lagged ones this does nothing."""
        if self._lag is not None:
            self._lag_fix = self._lag @ self._fill(delta / FOUR_PI)

    def scale(self, factor: float):
        # Owed: only `psi` and lagged inflows read `x` before a sweep.
        self._factor *= factor
        self._lag_fix *= factor


def _dsa_factor(mesh: Mesh, sigt2d: np.ndarray, sigs2d: np.ndarray,
                group: int):
    """Band-Cholesky solve of one group's DSA correction, or None when
    the group's thickest cell exceeds `_DSA_MAX_MFP`, from
    `eigen.cached_factors`.  The operator is -div D grad + (sigma_t -
    sigma_s,gg), D = 1 / (3 sigma_t), as a `diffusion.GroupOperator`
    with Robin vacuum sides."""
    def build():
        if float(sigt2d.max()) * max(mesh.dx, mesh.dy) > _DSA_MAX_MFP:
            return None
        return GroupOperator(mesh, 1.0 / (3.0 * sigt2d), sigt2d - sigs2d,
                             "robin").factorize(group)

    key = (mesh.nx, mesh.ny, mesh.dx, mesh.dy, mesh.bc, sigt2d.tobytes(),
           sigs2d.tobytes())
    return cached_factors("dsa", group, key, build)


def _group_solvers(xs: CrossSectionSet, mesh: Mesh,
                   quad: AngularQuadrature, scheme: str):
    """The validated cell cross sections that transport reads (sigma_t,
    sigma_s, nu_sigma_f, chi; `materials.cell_values`), one sweeper per
    group, and the within-group source iteration `solve(g, q, phi_g,
    inner_tol)` that `power_iteration` calls, with each group's DSA
    factorization (`_dsa_factor`) bound in."""
    if scheme not in SCHEMES:
        raise ConfigurationError(f"scheme must be one of {SCHEMES}")
    cells = cell_values(xs, mesh, "sigma_t", "sigma_s", "nu_sigma_f", "chi")
    sigma_t, sigma_s = cells[:2]
    if (sigma_t < MIN_SIGMA_T).any():
        raise ConfigurationError(
            f"transport requires sigma_t >= {MIN_SIGMA_T} /cm everywhere; "
            "give void regions a small positive total")
    sweepers = [_GroupSweeper(mesh, quad, sigma_t[g], scheme, g + 1)
                for g in range(2)]
    dsa = [_dsa_factor(mesh, sigma_t[g], sigma_s[g, g], g + 1)
           for g in range(2)]
    area = mesh.cell_area
    # Each group's measured contraction per sweep, kept across calls.
    rho = [None, None]

    def source_iteration(g: int, q: np.ndarray, phi_g: np.ndarray,
                         inner_tol: float):
        stop = max(_INNER_TOL, inner_tol)
        q_fixed = q / FOUR_PI
        sigma_gg = sigma_s[g, g]
        s_old = sigma_gg * phi_g
        last = None
        for _ in range(_MAX_INNER):
            phi_g = sweepers[g].sweep(q_fixed + s_old / FOUR_PI)
            if dsa[g] is not None:
                delta = dsa[g]((sigma_gg * phi_g - s_old) * area)
                phi_g = phi_g + delta
                sweepers[g].correct(delta)
            s_new = sigma_gg * phi_g
            denom = max(float(np.max(np.abs(s_new))), 1e-300)
            change = float(np.max(np.abs(s_new - s_old))) / denom
            s_old = s_new
            if change < _INNER_TOL:
                return phi_g
            if last is not None:
                rho[g] = min(change / last, _MAX_RHO)
            last = change
            # A contraction rho leaves an error of about
            # change * rho / (1 - rho) after this sweep.
            if rho[g] is not None and change * rho[g] / (1.0 - rho[g]) < stop:
                return phi_g
        raise IterationLimitError(
            f"transport source iteration: group {g + 1} reached "
            f"_MAX_INNER = {_MAX_INNER} sweeps (change = {change:.3e})")

    return cells, sweepers, source_iteration


def _check_discretization(sol: TransportSolution, quad: AngularQuadrature,
                          scheme: str, use: str):
    """Raise `ConfigurationError` unless `sol` was solved with `quad`'s
    order and `scheme`; `use` names what `sol` was given as."""
    if (sol.quadrature_order, sol.scheme) != (quad.order, scheme):
        raise ConfigurationError(
            f"{use}: an S{sol.quadrature_order} {sol.scheme!r} solution "
            f"used with S{quad.order} {scheme!r}")


def _check_start(start: TransportSolution, mesh: Mesh,
                 quad: AngularQuadrature, scheme: str):
    """Raise `ConfigurationError` unless `start` can seed this solve."""
    if start.angular_flux is None:
        raise ConfigurationError(
            "solve_transport: the start has no angular flux; solve it with "
            "retain_angular=True")
    shape = (start.scalar_flux[0].mesh.nx, start.scalar_flux[0].mesh.ny)
    if shape != (mesh.nx, mesh.ny):
        raise ConfigurationError(
            f"solve_transport: a start on a {shape[0]} x {shape[1]} mesh "
            f"given for a {mesh.nx} x {mesh.ny} one")
    _check_discretization(start, quad, scheme, "solve_transport start")


def solve_transport(xs: CrossSectionSet, mesh: Mesh,
                    quad: AngularQuadrature | None = None,
                    tol: ToleranceConfig | None = None,
                    scheme: str = "step",
                    retain_angular: bool = False,
                    start: TransportSolution | None = None
                    ) -> TransportSolution:
    """Power iteration on the fission source (`corestate.eigen`); see
    the module docstring.

    Each group is solved by a source iteration on the within-group
    scattering source, with the freshly updated group-1 flux feeding the
    group-2 downscatter source, and diffusion-accelerated unless the
    group has a cell thicker than `_DSA_MAX_MFP`.  The source iteration
    stops once its estimated error (see the module docstring) falls
    below `eigen.INNER_TOL_FACTOR` times the last outer flux change, or
    its relative change below 1e-9.  Raises
    `IterationLimitError` when `tol.max_outer` outer steps or the
    `_MAX_INNER` = 500 inner sweeps are exhausted;
    with `retain_angular` its last iterate carries the angular flux.

    `start`, a solution of a nearby problem solved with
    `retain_angular`, replaces the flat start: its k_eff, scalar fluxes,
    angular fluxes and, from the exit cells, exit-face fluxes.  It must
    have this mesh shape, quadrature order and scheme, or
    `ConfigurationError` is raised.
    """
    quad = quad or build_quadrature(4)
    tol = tol or ToleranceConfig()
    (_, sigma_s, nusf, chi), sweepers, source_iteration = _group_solvers(
        xs, mesh, quad, scheme)
    if start is not None:
        _check_start(start, mesh, quad, scheme)
        for sweeper, psi in zip(sweepers, start.angular_flux):
            sweeper.seed(psi)

    area = mesh.cell_area
    inscatter = [sigma_s[1, 0], sigma_s[0, 1]]

    def rescale(factor: float):
        for sweeper in sweepers:
            sweeper.scale(factor)

    def solution(k_eff, phi, iterations, residual):
        return TransportSolution(
            k_eff, (Field(mesh, phi[0].ravel()), Field(mesh, phi[1].ravel())),
            iterations, sum(s.sweeps for s in sweepers), residual,
            quadrature_order=quad.order, scheme=scheme,
            angular_flux=tuple(s.psi for s in sweepers)
            if retain_angular else None)

    return power_iteration(
        source_iteration, nusf, chi, inscatter, tol, "transport", solution,
        volume=area, rescale=rescale, start=None if start is None else (
            start.k_eff, [f.values.reshape(mesh.ny, mesh.nx)
                          for f in start.scalar_flux]))


def eigen_residual(sol: TransportSolution, xs: CrossSectionSet,
                   quad: AngularQuadrature | None = None,
                   scheme: str | None = None) -> float:
    """Convergence certificate of a transport eigenpair
    (`eigen.certificate`): one more outer step from `sol`'s scalar
    fluxes with k_eff frozen, each group's source iteration run to an
    estimated error of 1e-9.

    It builds its own sweepers on the factors its solve left in
    `eigen.cached_factors` (two sweeps per group on converged default
    solves): ~2 ms (1.1-3.9) right after its
    solve on the default 45 x 30 S4 problem, ~8 ms when the factors
    must be rebuilt (2-vCPU machine, BLAS on one thread).  `quad` and
    `scheme` default to those of the solve; others raise
    `ConfigurationError`, since they certify a different discrete
    problem.
    """
    mesh = sol.scalar_flux[0].mesh
    quad = quad or build_quadrature(sol.quadrature_order)
    _check_discretization(sol, quad, sol.scheme if scheme is None else scheme,
                          "eigen_residual")
    (_, sigma_s, nusf, chi), sweepers, source_iteration = _group_solvers(
        xs, mesh, quad, sol.scheme)
    phi = [f.values.reshape(mesh.ny, mesh.nx) for f in sol.scalar_flux]
    # Lagged reflective inflows start from the isotropic estimate
    # phi / 4 pi of the exit-side cells rather than the flat guess.
    for sweeper, p in zip(sweepers, phi):
        sweeper.seed(p / FOUR_PI)
    return certificate(source_iteration, nusf, chi,
                       (sigma_s[1, 0], sigma_s[0, 1]), sol.k_eff, phi)


def power_map_transport(sol: TransportSolution,
                        xs: CrossSectionSet) -> Field:
    """Energy-production map from the group scalar fluxes, unit L2 norm."""
    return group_power_map(sol.scalar_flux, xs)

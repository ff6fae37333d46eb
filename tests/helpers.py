"""Shared builders for the test suite."""

import multiprocessing
from collections.abc import Mapping
from dataclasses import replace

import numpy as np

from corestate import transport
from corestate.bench import ExperimentConfig
from corestate.geometry import (BoundaryTags, Field, GeometryConfig,
                                RegionBox, build_mesh)
from corestate.materials import (CrossSectionSet, RegionXS, map_alpha_to_mu,
                                 training_lattice)
from corestate.rom import SnapshotSet


def uniform_config(nx, ny, lx=10.0, ly=10.0, region="Fuel",
                   bc=None) -> GeometryConfig:
    """Single-region rectangle."""
    bc = bc or BoundaryTags()
    return GeometryConfig(
        extent_x=lx, extent_y=ly, nx=nx, ny=ny,
        regions=(RegionBox(region, (0.0, lx, 0.0, ly)),), bc=bc)


def reflective_bc() -> BoundaryTags:
    return BoundaryTags(xmin="reflective", xmax="reflective",
                        ymin="reflective", ymax="reflective")


def make_region_xs(sigma_a=(0.012, 0.10), sigma_s_within=(0.10, 0.20),
                   sigma_s_12=0.016, sigma_s_21=0.0,
                   nu_sigma_f=(0.008, 0.18), chi=(1.0, 0.0),
                   d=(1.3, 0.45), kappa_sigma_f=(0.0035, 0.075)) -> RegionXS:
    """Region coefficients with totals balanced against the scatter rows."""
    sigma_s = np.array([[sigma_s_within[0], sigma_s_12],
                        [sigma_s_21, sigma_s_within[1]]])
    return RegionXS(
        d=np.array(d), sigma_a=np.array(sigma_a), sigma_s=sigma_s,
        nu_sigma_f=np.array(nu_sigma_f), chi=np.array(chi),
        kappa_sigma_f=np.array(kappa_sigma_f),
        sigma_t=np.array(sigma_a) + sigma_s.sum(axis=1))


def with_upscatter(xs: CrossSectionSet, fraction: float) -> CrossSectionSet:
    """`xs` with each region's 2 -> 1 scatter set to `fraction` of its
    within-group thermal scatter, the totals balanced again."""
    regions = {}
    for name, region in xs.regions.items():
        sigma_s = region.sigma_s.copy()
        sigma_s[1, 0] = fraction * sigma_s[1, 1]
        regions[name] = replace(region, sigma_s=sigma_s,
                                sigma_t=region.sigma_a + sigma_s.sum(axis=1))
    return CrossSectionSet(regions)


def fuel_xs(**kwargs) -> CrossSectionSet:
    return CrossSectionSet({"Fuel": make_region_xs(**kwargs)})


def homogeneous_problem(nx=6, ny=4, **xs_kwargs):
    """Homogeneous all-reflective problem (infinite-medium analog)."""
    mesh = build_mesh(uniform_config(nx, ny, bc=reflective_bc()))
    return mesh, fuel_xs(**xs_kwargs)


def default_lattice_problem(index):
    """(config, mesh, cross sections) of training-lattice point `index`
    on the default 45 x 30 S4 setup."""
    cfg = ExperimentConfig.default()
    mesh = build_mesh(cfg.geometry)
    xs = map_alpha_to_mu(training_lattice()[index], cfg.cross_sections)
    return cfg, mesh, xs


def finite_volume_oracle(mesh, d, sigma_a, vacuum_model):
    """Dense 5-point matrix in natural cell order, built cell by cell:
    each face conducts face_length / (series resistance), where a half
    cell contributes h / (2 D), and a vacuum face adds the Marshak
    resistance 2 (Robin, J = phi_b / 2) or nothing (phi_b = 0)."""
    nx, ny, dx, dy = mesh.nx, mesh.ny, mesh.dx, mesh.dy
    a = np.zeros((mesh.n_cells, mesh.n_cells))
    faces = ((1, 0, "xmax", dx, dy), (-1, 0, "xmin", dx, dy),
             (0, 1, "ymax", dy, dx), (0, -1, "ymin", dy, dx))
    for j in range(ny):
        for i in range(nx):
            c = j * nx + i
            a[c, c] += sigma_a[j, i] * dx * dy
            for di, dj, side, h, face in faces:
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    t = face / (h / (2 * d[j, i]) + h / (2 * d[jj, ii]))
                    a[c, c] += t
                    a[c, jj * nx + ii] -= t
                elif getattr(mesh.bc, side) == "vacuum":
                    marshak = 2.0 if vacuum_model == "robin" else 0.0
                    a[c, c] += face / (h / (2 * d[j, i]) + marshak)
    return a


def one_direction_flux(mesh, sigma_t2d, omega, emission2d, inflow_x=None,
                       inflow_y=None, scheme="step"):
    """Cell flux (ny, nx) of the single direction `omega` on `mesh`
    with cell totals `sigma_t2d`, a fixed angular source density
    `emission2d` and prescribed face inflows along the upstream x side
    (`inflow_x`, one per row j) and y side (`inflow_y`, one per column
    i), each vacuum when None: the solver's own single-direction system
    (`transport._sweep_block`), factorized and solved once."""
    block, inflows, _ = transport._sweep_block(
        mesh.nx, mesh.ny, mesh.dx, mesh.dy, [omega[0]], [omega[1]], scheme)
    rhs = np.append(np.asarray(emission2d, dtype=float) * mesh.cell_area,
                    0.0)[block.src]
    for (pos, weight), inflow in zip(inflows, (inflow_x, inflow_y)):
        if inflow is not None:
            rhs[pos] += weight * np.asarray(inflow, dtype=float)
    lu = block.factorize(np.asarray(sigma_t2d, dtype=float), mesh.cell_area)
    return lu.solve(rhs)[block.rank[0]]


def random_field(mesh, rng, positive=False) -> Field:
    values = rng.standard_normal(mesh.n_cells)
    if positive:
        values = np.abs(values) + 0.1
    return Field(mesh, values)


def orthonormal_fields(mesh, count, rng):
    """Random L2-orthonormal fields via Gram-Schmidt."""
    area = mesh.cell_area
    vectors = []
    while len(vectors) < count:
        v = rng.standard_normal(mesh.n_cells)
        for q in vectors:
            v = v - (q @ v) * area * q
        norm = np.sqrt((v @ v) * area)
        if norm > 1e-8:
            vectors.append(v / norm)
    return [Field(mesh, v) for v in vectors]


def snapshot_set(fields, alphas=None) -> SnapshotSet:
    """A snapshot set of the given unit-norm fields, at the lattice
    origin unless `alphas` are given."""
    fields = tuple(fields)
    if alphas is None:
        alphas = ((0.0,) * 5,) * len(fields)
    return SnapshotSet(fields[0].mesh, np.stack([f.values for f in fields]),
                       tuple(alphas))


class SharedCounts(Mapping):
    """Counts by name that forked pool workers add to as well as this
    process: each is a `multiprocessing.Value` made before the fork.
    It compares equal to a dict of the same counts."""

    def __init__(self, names):
        self._values = {name: multiprocessing.Value("q", 0)
                        for name in names}

    def add(self, name):
        value = self._values[name]
        with value.get_lock():
            value.value += 1

    def __getitem__(self, name):
        return self._values[name].value

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def __repr__(self):
        return repr(dict(self))

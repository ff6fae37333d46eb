"""Local-average sensors, their Riesz representers, and observations.

The domain is tiled by an sx x sy grid of disjoint rectangular blocks,
one sensor per block.  The Riesz representer of a block average is the
normalized indicator 1_R / |R|, so the representers are mutually
orthogonal and 1_R / sqrt(|R|) is an orthonormal basis of the
observation space.  Observation vectors therefore have two natural
coordinate systems: raw block means, and coordinates in the orthonormal
basis (in which the observation-space norm is plain Euclidean).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .geometry import Field, Mesh


@dataclass(frozen=True, eq=False)
class MeasurementSystem:
    """m disjoint sensor blocks on a mesh."""

    mesh: Mesh
    sx: int
    sy: int
    block_cells: np.ndarray   # (m, cells per block) flat cell indices
    block_areas: np.ndarray   # (m,)

    @property
    def m(self) -> int:
        return len(self.block_cells)

    @cached_property
    def psi_matrix(self) -> np.ndarray:
        """(m, n_cells) orthonormal-basis fields 1_R / sqrt(|R|)."""
        psi = np.zeros((self.m, self.mesh.n_cells))
        np.put_along_axis(psi, self.block_cells,
                          1.0 / np.sqrt(self.block_areas)[:, None], axis=1)
        return psi

    def representer(self, i: int) -> Field:
        """Riesz representer of sensor i: 1_R / |R|."""
        values = np.zeros(self.mesh.n_cells)
        values[self.block_cells[i]] = 1.0 / self.block_areas[i]
        return Field(self.mesh, values)

    def orthonormal(self, i: int) -> Field:
        """Orthonormal observation-space basis field 1_R / sqrt(|R|)."""
        return Field(self.mesh, self.psi_matrix[i])

    def to_psi_coordinates(self, y: np.ndarray) -> np.ndarray:
        """Convert block means to orthonormal-basis coordinates."""
        return np.asarray(y, dtype=float) * np.sqrt(self.block_areas)


def build_sensors(mesh: Mesh, grid: tuple[int, int] = (9, 6)) -> MeasurementSystem:
    """Partition the domain into an sx x sy uniform grid of sensor
    blocks.  The grid must land on cell boundaries (no mixed cells)."""
    sx, sy = grid
    if sx < 1 or sy < 1:
        raise ConfigurationError("sensor grid must be at least 1 x 1")
    if mesh.nx % sx != 0 or mesh.ny % sy != 0:
        raise ConfigurationError(
            f"sensor grid {sx} x {sy} does not align with the "
            f"{mesh.nx} x {mesh.ny} mesh: block edges must fall on cell "
            "boundaries")
    bx, by = mesh.nx // sx, mesh.ny // sy
    # Block (j, i) is row j * sx + i; its cells run row-major inside it.
    blocks = (np.arange(mesh.n_cells).reshape(sy, by, sx, bx)
              .transpose(0, 2, 1, 3).reshape(sx * sy, bx * by))
    blocks.setflags(write=False)
    areas = np.full(sx * sy, bx * by * mesh.cell_area)
    return MeasurementSystem(mesh=mesh, sx=sx, sy=sy,
                             block_cells=blocks, block_areas=areas)


def observe(u: Field, sensors: MeasurementSystem) -> np.ndarray:
    """Sensor readings y_i = mean of u over block i."""
    if not u.mesh.same_geometry(sensors.mesh):
        raise ValueError("field and sensors live on different meshes")
    return u.values[sensors.block_cells].mean(axis=1)


def observe_psi(u: Field, sensors: MeasurementSystem) -> np.ndarray:
    """Observation vector directly in orthonormal-basis coordinates."""
    return sensors.to_psi_coordinates(observe(u, sensors))


def save_observations(path, y_rows: np.ndarray):
    """Write observation vectors as CSV, one vector per row."""
    y_rows = np.atleast_2d(np.asarray(y_rows, dtype=float))
    lines = [",".join(repr(float(v)) for v in row) for row in y_rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_observations(path) -> np.ndarray:
    with open(path) as fh:
        return np.array([[float(v) for v in line.split(",")]
                         for line in fh.read().splitlines() if line])


def perturb_observations(y: np.ndarray, eps_noise: float,
                         seed) -> np.ndarray:
    """Add a pseudo-random perturbation of exact observation-space norm
    `eps_noise` to each observation vector along the last axis of `y`
    (orthonormal-basis coordinates).  Each direction is uniform on the
    sphere; all are drawn in one call, in C order, from one generator
    seeded with `seed` (an int or a sequence of ints).  A negative or
    non-finite `eps_noise` raises `ValueError`."""
    if not 0 <= eps_noise < np.inf:
        raise ValueError("eps_noise must be finite and nonnegative")
    y = np.asarray(y, dtype=float)
    if eps_noise == 0.0:
        return y.copy()
    direction = np.random.default_rng(seed).standard_normal(y.shape)
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    return y + eps_noise * direction

"""Reactor domain, structured mesh, and the L2 inner-product structure.

The domain is a rectangle split into named regions (core, reflector,
void channel, ...) on a uniform cell grid.  Scalar fields (power maps,
group fluxes) are cell-centered piecewise constants, so every L2
quantity reduces to an area-weighted sum over cells; local-average
sensor functionals are then exactly representable.

Cell ordering is row-major: cell (i, j) with i along x and j along y
sits at flat index ``j * nx + i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (ConfigurationError, DegenerateProblemError,
                     config_int, config_number, config_object)

BC_KINDS = ("reflective", "vacuum")

#: Region names of the default core layout.
CORE, REFLECTOR, VOID = "Core", "Reflector", "Void"


@dataclass(frozen=True)
class RegionBox:
    """Axis-aligned box assigning a region name, with a priority used to
    resolve overlaps (lower number wins; defaults to list position)."""

    name: str
    box: tuple[float, float, float, float]  # (x0, x1, y0, y1)
    priority: int | None = None


@dataclass(frozen=True)
class BoundaryTags:
    xmin: str = "reflective"
    xmax: str = "vacuum"
    ymin: str = "reflective"
    ymax: str = "vacuum"

    def __post_init__(self):
        for side in ("xmin", "xmax", "ymin", "ymax"):
            kind = getattr(self, side)
            if kind not in BC_KINDS:
                raise ConfigurationError(
                    f"boundary {side}={kind!r}: expected one of {BC_KINDS}")


@dataclass(frozen=True)
class GeometryConfig:
    extent_x: float
    extent_y: float
    nx: int
    ny: int
    regions: tuple[RegionBox, ...]
    bc: BoundaryTags = field(default_factory=BoundaryTags)

    @staticmethod
    def default() -> "GeometryConfig":
        """25 cm x 25 cm quarter-core layout on a 50 x 50 grid: fissile
        core in [0,15]^2, a void channel in [15,20]x[0,5], reflector
        elsewhere; symmetry sides reflective, outer sides vacuum."""
        return GeometryConfig(
            extent_x=25.0, extent_y=25.0, nx=50, ny=50,
            regions=(
                RegionBox(CORE, (0.0, 15.0, 0.0, 15.0)),
                RegionBox(VOID, (15.0, 20.0, 0.0, 5.0)),
                RegionBox(REFLECTOR, (0.0, 25.0, 0.0, 25.0)),
            ),
        )

    @staticmethod
    def from_dict(d: dict) -> "GeometryConfig":
        """Load a geometry config; a missing or unknown key, an extent
        that is not a finite number, a `bc` side other than xmin, xmax,
        ymin and ymax, a region that is not an object or a region box
        that is not 4 finite numbers raises `ConfigurationError` naming
        the field."""
        d = config_object(d, [f.name for f in fields(GeometryConfig)],
                          "geometry")
        regions = tuple(_region_from_dict(r, i) for i, r in
                        enumerate(_required(d, "regions", "geometry")))
        bc = config_object(d.get("bc", {}),
                           [f.name for f in fields(BoundaryTags)],
                           "geometry bc", "sides")
        return GeometryConfig(
            extent_x=config_number(_required(d, "extent_x", "geometry"),
                                   "geometry extent_x"),
            extent_y=config_number(_required(d, "extent_y", "geometry"),
                                   "geometry extent_y"),
            nx=config_int(_required(d, "nx", "geometry"), "nx"),
            ny=config_int(_required(d, "ny", "geometry"), "ny"),
            regions=regions, bc=BoundaryTags(**bc))

    def to_dict(self) -> dict:
        return {
            "extent_x": self.extent_x, "extent_y": self.extent_y,
            "nx": self.nx, "ny": self.ny,
            "regions": [
                {"name": r.name, "box": list(r.box),
                 **({"priority": r.priority} if r.priority is not None else {})}
                for r in self.regions],
            "bc": {"xmin": self.bc.xmin, "xmax": self.bc.xmax,
                   "ymin": self.bc.ymin, "ymax": self.bc.ymax},
        }


def _required(d: dict, key: str, where: str):
    try:
        return d[key]
    except KeyError:
        raise ConfigurationError(f"{where} is missing {key!r}") from None


def _region_from_dict(r: dict, index: int) -> RegionBox:
    r = config_object(r, ("name", "box", "priority"),
                      f"geometry region {index}")
    name = _required(r, "name", f"geometry region {index}")
    box, values = _required(r, "box", f"region {name!r}"), None
    if isinstance(box, (list, tuple)) and len(box) == 4:
        try:
            values = tuple(config_number(v, "box") for v in box)
        except ConfigurationError:
            pass
    if values is None:
        raise ConfigurationError(f"region {name!r} box must be 4 numbers "
                                 f"(x0, x1, y0, y1), got {box!r}")
    return RegionBox(name, values, None if r.get("priority") is None
                     else config_int(r["priority"], "priority"))


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform structured grid with a per-cell region map.

    Immutable after construction; safe to share across workers.
    """

    extent_x: float
    extent_y: float
    nx: int
    ny: int
    region_names: tuple[str, ...]
    region_map: np.ndarray  # (ny, nx) int indices into region_names
    bc: BoundaryTags

    def __post_init__(self):
        self.region_map.setflags(write=False)

    @property
    def dx(self) -> float:
        return self.extent_x / self.nx

    @property
    def dy(self) -> float:
        return self.extent_y / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_centers_x(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx

    @property
    def cell_centers_y(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.dy

    def region_of(self, i: int, j: int) -> str:
        return self.region_names[self.region_map[j, i]]

    def region_mask(self, name: str) -> np.ndarray:
        """Boolean (ny, nx) mask of cells belonging to region `name`."""
        if name not in self.region_names:
            raise KeyError(f"unknown region {name!r}")
        return self.region_map == self.region_names.index(name)

    def same_geometry(self, other: "Mesh") -> bool:
        return (self.nx == other.nx and self.ny == other.ny
                and self.extent_x == other.extent_x
                and self.extent_y == other.extent_y)


@dataclass(frozen=True, eq=False)
class Field:
    """Cell-centered scalar field on a mesh (flat, row-major values)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.mesh.n_cells,):
            raise ValueError(
                f"field needs {self.mesh.n_cells} values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    @property
    def values2d(self) -> np.ndarray:
        return self.values.reshape(self.mesh.ny, self.mesh.nx)

    def norm(self) -> float:
        return float(np.sqrt(inner_product(self, self)))

    def normalized(self) -> "Field":
        """Return this field scaled to unit L2 norm."""
        n = self.norm()
        if n == 0.0:
            raise DegenerateProblemError("cannot normalize an all-zero field")
        return Field(self.mesh, self.values / n)


def build_mesh(config: GeometryConfig) -> Mesh:
    """Build the structured mesh, assigning each cell the region whose box
    contains the cell center (priority resolves overlaps)."""
    if config.extent_x <= 0 or config.extent_y <= 0:
        raise ConfigurationError("domain extents must be positive")
    if config.nx < 2 or config.ny < 2:
        raise ConfigurationError("need at least 2 cells per direction")
    if not config.regions:
        raise ConfigurationError("at least one region box is required")

    for r in config.regions:
        x0, x1, y0, y1 = r.box
        if not (x0 < x1 and y0 < y1):
            raise ConfigurationError(f"region {r.name!r} has an empty box")
        tol = 1e-12 * max(config.extent_x, config.extent_y)
        if x0 < -tol or y0 < -tol or x1 > config.extent_x + tol or y1 > config.extent_y + tol:
            raise ConfigurationError(
                f"region {r.name!r} box extends outside the domain")

    names: list[str] = []
    for r in config.regions:
        if r.name not in names:
            names.append(r.name)
    priorities = [r.priority if r.priority is not None else k
                  for k, r in enumerate(config.regions)]

    cx = (np.arange(config.nx) + 0.5) * (config.extent_x / config.nx)
    cy = (np.arange(config.ny) + 0.5) * (config.extent_y / config.ny)
    region_map = np.full((config.ny, config.nx), -1, dtype=np.int16)
    best_priority = np.full((config.ny, config.nx), np.iinfo(np.int64).max,
                            dtype=np.int64)
    for r, prio in zip(config.regions, priorities):
        x0, x1, y0, y1 = r.box
        inside = ((cx >= x0) & (cx <= x1))[None, :] & ((cy >= y0) & (cy <= y1))[:, None]
        rid = names.index(r.name)
        tie = inside & (best_priority == prio) & (region_map != rid)
        if np.any(tie):
            j, i = np.argwhere(tie)[0]
            raise ConfigurationError(
                f"regions overlap with equal priority {prio} at cell center "
                f"({cx[i]:g}, {cy[j]:g}); assign distinct priorities")
        wins = inside & (prio < best_priority)
        region_map[wins] = rid
        best_priority[wins] = prio

    if np.any(region_map < 0):
        j, i = np.argwhere(region_map < 0)[0]
        raise ConfigurationError(
            f"cell center ({cx[i]:g}, {cy[j]:g}) is covered by no region box")

    return Mesh(extent_x=config.extent_x, extent_y=config.extent_y,
                nx=config.nx, ny=config.ny, region_names=tuple(names),
                region_map=region_map, bc=config.bc)


def inner_product(f: Field, g: Field) -> float:
    """L2 inner product: area-weighted sum of cellwise products."""
    if not f.mesh.same_geometry(g.mesh):
        raise ValueError("fields live on different meshes")
    return float(np.dot(f.values, g.values) * f.mesh.cell_area)


def relative_l2_error(u: Field, v: Field) -> float:
    """||u - v|| / ||u|| in the mesh-induced L2 norm."""
    if not u.mesh.same_geometry(v.mesh):
        raise ValueError("fields live on different meshes")
    ref = u.norm()
    if ref == 0.0:
        raise DegenerateProblemError("reference field has zero norm")
    diff = Field(u.mesh, u.values - v.values)
    return diff.norm() / ref

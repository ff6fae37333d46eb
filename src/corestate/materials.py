"""Two-group physics coefficients and the 5-component scaling map.

A cross-section set stores, per region, the diffusion and transport
coefficients for two energy groups (group 1 fast, group 2 thermal).
Parametrized problem instances are produced by rescaling a base set
with a vector alpha in [0.8, 1]^5:

    D1 / a1,  D2 / a2,  a1*Sa1,  a2*Sa2,  a3*Ss12,  a4*nuSf1,  a5*nuSf2

with the fission spectrum chi unchanged.  Transport totals are rebuilt
from the balance  St_g = Sa_g + sum_g' Ss_{g->g'}  so that both models
see the same perturbation.

a4 and a5 scale only fission production, so scaling both by c scales
k_eff by c and leaves the eigenvector, and with it the power map (made
with the unscaled kappaSf), unchanged: the power map depends on
(a4, a5) only through a5 / a4.  More generally, the problems of one
(a1, a2, a3) block share every operator but the fission production
(a4 nuSf1, a5 nuSf2) of one base pair: `bench` prepares them once per
block (`eigen.Operators`), each point forming only its own production,
and starts each point from the Rayleigh-Ritz pair of its block's solved
points (`eigen.FissionSpan`).

Training and test parameter grids are full tensor lattices over the
alpha components, enumerated in lexicographic order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, config_number, config_object
from .geometry import Mesh

N_GROUPS = 2
ALPHA_DIM = 5
ALPHA_LO, ALPHA_HI = 0.8, 1.0

#: alpha levels of the training and test tensor lattices.
TRAINING_LEVELS = (0.8, 0.9, 1.0)
TEST_LEVELS = (0.85, 0.95)

AlphaPoint = tuple[float, float, float, float, float]

#: The keys of each group's coefficient block in a cross-section file.
GROUP_KEYS = {g: ("D", "sigma_a", f"sigma_s_{g}1", f"sigma_s_{g}2",
                  "nu_sigma_f", "chi", "kappa_sigma_f", "sigma_t")
              for g in ("1", "2")}


@dataclass(frozen=True)
class RegionXS:
    """Coefficients of one region.  Arrays indexed by group (0 = fast).

    `sigma_s[g, g2]` is the isotropic transfer cross section from group
    g to group g2 (diagonal = within-group scattering, transport only).
    """

    d: np.ndarray            # diffusion coefficient, cm
    sigma_a: np.ndarray      # absorption, 1/cm
    sigma_s: np.ndarray      # (2, 2) scattering transfer matrix, 1/cm
    nu_sigma_f: np.ndarray   # fission production, 1/cm
    chi: np.ndarray          # fission spectrum (sums to 1 where fissile)
    kappa_sigma_f: np.ndarray  # energy production, MeV/cm
    sigma_t: np.ndarray      # transport total, 1/cm

    def __post_init__(self):
        for name in ("d", "sigma_a", "nu_sigma_f", "chi",
                     "kappa_sigma_f", "sigma_t"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (N_GROUPS,):
                raise ConfigurationError(f"{name} must have {N_GROUPS} entries")
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        ss = np.asarray(self.sigma_s, dtype=float)
        if ss.shape != (N_GROUPS, N_GROUPS):
            raise ConfigurationError("sigma_s must be a 2x2 transfer matrix")
        object.__setattr__(self, "sigma_s", ss)
        ss.setflags(write=False)

        if (self.sigma_a < 0).any() or (self.sigma_s < 0).any() \
                or (self.nu_sigma_f < 0).any() or (self.chi < 0).any() \
                or (self.kappa_sigma_f < 0).any() or (self.sigma_t < 0).any():
            raise ConfigurationError("cross sections must be nonnegative")
        if self.fissile and abs(self.chi.sum() - 1.0) > 1e-12:
            raise ConfigurationError(
                f"fission spectrum must sum to 1 in fissile regions "
                f"(got {self.chi.sum()!r})")

    @property
    def fissile(self) -> bool:
        return bool((self.nu_sigma_f > 0).any())


@dataclass(frozen=True)
class CrossSectionSet:
    """Per-region coefficient table for both solvers."""

    regions: dict[str, RegionXS]

    def __getitem__(self, name: str) -> RegionXS:
        return self.regions[name]

    def region_names(self):
        return tuple(self.regions)

    @staticmethod
    def from_dict(d: dict) -> "CrossSectionSet":
        """Load a cross-section set.  A region takes the group blocks
        "1" and "2", each with D and sigma_a and optionally the keys of
        `GROUP_KEYS` (sigma_t defaults to the balance sigma_a + the
        group's outscatter); a missing or unknown key, or a coefficient
        that is not a finite number, raises `ConfigurationError` naming
        the region, group and key, as does a top level that is not an
        object."""
        if not isinstance(d, dict):
            raise ConfigurationError(
                f"cross sections: the top level must be an object, got {d!r}")
        if not isinstance(d.get("regions"), dict):
            raise ConfigurationError(
                f"cross sections need a 'regions' object, got "
                f"{d.get('regions')!r}")
        regions = {}
        for name, groups in d["regions"].items():
            groups = config_object(groups, ("1", "2"), f"region {name!r}",
                                   "groups")
            blocks = []
            for g in ("1", "2"):
                where = f"region {name!r} group {g}"
                if g not in groups:
                    raise ConfigurationError(
                        f"region {name!r} needs coefficient blocks for "
                        f"groups '1' and '2' (missing '{g}')")
                block = config_object(groups[g], GROUP_KEYS[g], where)
                for key in ("D", "sigma_a"):
                    if key not in block:
                        raise ConfigurationError(f"{where}: missing {key!r}")
                blocks.append({key: config_number(value, f"{where} {key}")
                               for key, value in block.items()})
            g1, g2 = blocks
            sigma_s = np.array([
                [g1.get("sigma_s_11", 0.0), g1.get("sigma_s_12", 0.0)],
                [g2.get("sigma_s_21", 0.0), g2.get("sigma_s_22", 0.0)],
            ])
            xs = RegionXS(
                d=np.array([g1["D"], g2["D"]]),
                sigma_a=np.array([g1["sigma_a"], g2["sigma_a"]]),
                sigma_s=sigma_s,
                nu_sigma_f=np.array([g1.get("nu_sigma_f", 0.0),
                                     g2.get("nu_sigma_f", 0.0)]),
                chi=np.array([g1.get("chi", 1.0), g2.get("chi", 0.0)]),
                kappa_sigma_f=np.array([g1.get("kappa_sigma_f", 0.0),
                                        g2.get("kappa_sigma_f", 0.0)]),
                sigma_t=np.array([
                    g1.get("sigma_t",
                           g1["sigma_a"] + sigma_s[0].sum()),
                    g2.get("sigma_t",
                           g2["sigma_a"] + sigma_s[1].sum()),
                ]),
            )
            regions[name] = xs
        return CrossSectionSet(regions)

    def to_dict(self) -> dict:
        out = {}
        for name, xs in self.regions.items():
            out[name] = {
                "1": {
                    "D": xs.d[0], "sigma_a": xs.sigma_a[0],
                    "sigma_s_11": xs.sigma_s[0, 0],
                    "sigma_s_12": xs.sigma_s[0, 1],
                    "nu_sigma_f": xs.nu_sigma_f[0], "chi": xs.chi[0],
                    "kappa_sigma_f": xs.kappa_sigma_f[0],
                    "sigma_t": xs.sigma_t[0],
                },
                "2": {
                    "D": xs.d[1], "sigma_a": xs.sigma_a[1],
                    "sigma_s_21": xs.sigma_s[1, 0],
                    "sigma_s_22": xs.sigma_s[1, 1],
                    "nu_sigma_f": xs.nu_sigma_f[1], "chi": xs.chi[1],
                    "kappa_sigma_f": xs.kappa_sigma_f[1],
                    "sigma_t": xs.sigma_t[1],
                },
            }
        return {"regions": out}

    @staticmethod
    def load(path: str | Path) -> "CrossSectionSet":
        with open(path) as fh:
            return CrossSectionSet.from_dict(json.load(fh))

    def save(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                         sort_keys=True) + "\n")


def default_cross_sections() -> CrossSectionSet:
    """The cross-section file shipped with the package.

    The values are synthetic but self-consistent placeholders (totals
    balance absorption plus outscatter); replace the JSON file with
    benchmark data for quantitative studies.
    """
    path = Path(__file__).parent / "data" / "default_cross_sections.json"
    return CrossSectionSet.load(path)


def validate_alpha(alpha) -> AlphaPoint:
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != ALPHA_DIM:
        raise ValueError(f"alpha must have {ALPHA_DIM} components")
    for k, a in enumerate(alpha):
        if not (ALPHA_LO - 1e-12 <= a <= ALPHA_HI + 1e-12):
            raise ValueError(
                f"alpha[{k}] = {a} outside [{ALPHA_LO}, {ALPHA_HI}]")
    return alpha


def map_alpha_to_mu(alpha, base: CrossSectionSet) -> CrossSectionSet:
    """Apply the 5-component scaling to every region of `base`.

    Scales (D1, D2, Sa1, Sa2, Ss12, nuSf1, nuSf2) as documented in the
    module docstring and rebuilds transport totals from the balance.
    """
    a1, a2, a3, a4, a5 = validate_alpha(alpha)
    regions = {}
    for name, xs in base.regions.items():
        sigma_s = xs.sigma_s.copy()
        sigma_s[0, 1] *= a3
        sigma_a = np.array([a1 * xs.sigma_a[0], a2 * xs.sigma_a[1]])
        regions[name] = RegionXS(
            d=np.array([xs.d[0] / a1, xs.d[1] / a2]),
            sigma_a=sigma_a,
            sigma_s=sigma_s,
            nu_sigma_f=np.array([a4 * xs.nu_sigma_f[0],
                                 a5 * xs.nu_sigma_f[1]]),
            chi=xs.chi,
            kappa_sigma_f=xs.kappa_sigma_f,
            sigma_t=sigma_a + sigma_s.sum(axis=1),
        )
    return CrossSectionSet(regions)


def training_lattice() -> list[AlphaPoint]:
    """Full tensor lattice {0.8, 0.9, 1.0}^5, lexicographic order."""
    return [tuple(a) for a in itertools.product(TRAINING_LEVELS,
                                                repeat=ALPHA_DIM)]


def test_lattice() -> list[AlphaPoint]:
    """Full tensor lattice {0.85, 0.95}^5, lexicographic order."""
    return [tuple(a) for a in itertools.product(TEST_LEVELS,
                                                repeat=ALPHA_DIM)]


@dataclass(frozen=True)
class CellXS:
    """Cross sections expanded to per-cell arrays for one mesh.

    Group-indexed leading axis; spatial arrays are (ny, nx).
    """

    d: np.ndarray            # (2, ny, nx)
    sigma_a: np.ndarray
    sigma_s: np.ndarray      # (2, 2, ny, nx), [g_from, g_to]
    nu_sigma_f: np.ndarray
    chi: np.ndarray
    kappa_sigma_f: np.ndarray
    sigma_t: np.ndarray


def cell_values(xs: CrossSectionSet, mesh: Mesh, *names: str
                ) -> list[np.ndarray]:
    """The region-wise coefficients `names` (`RegionXS` fields) expanded
    onto mesh cells, group-indexed first: (2, ny, nx), or (2, 2, ny, nx)
    for sigma_s.  Each is one gather from a per-region table.

    Raises if any region present in the mesh has no coefficients.
    """
    missing = [region for region in mesh.region_names
               if region not in xs.regions
               and np.any(mesh.region_mask(region))]
    if missing:
        raise ConfigurationError(
            f"no cross sections for mesh regions: {missing}")
    out = []
    for name in names:
        # Last axis: one entry per region, zero for a region without
        # coefficients (it has no cells), and a last zero entry for
        # cells of no region (-1).
        table = np.zeros(getattr(next(iter(xs.regions.values())),
                                 name).shape + (len(mesh.region_names) + 1,))
        for i, region in enumerate(mesh.region_names):
            if region in xs.regions:
                table[..., i] = getattr(xs[region], name)
        out.append(np.take(table, mesh.region_map, axis=-1))
    return out


def cell_arrays(xs: CrossSectionSet, mesh: Mesh) -> CellXS:
    """Every coefficient expanded onto mesh cells (`cell_values`)."""
    return CellXS(*cell_values(xs, mesh, *(f.name for f in fields(CellXS))))

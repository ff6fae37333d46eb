"""Benchmark configurations and the checks every output must pass.

Solves are compared with a reference recorded by `make_reference.py`:
`k_eff` within 10 k_tol, and the block-average observations of the
power map within 10 flux_tol relative to their largest entry.  Report
and noise rows must satisfy their a priori bound.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from corestate.bench import ExperimentConfig
from corestate.geometry import GeometryConfig

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SCALES = ("default", "smoke")

#: Slack on the bound comparison, as in the acceptance suite.
BOUND_RTOL = 1e-9


def make_config(scale: str, out_dir, seed: int = 0,
                truth: str = "transport") -> ExperimentConfig:
    """The paper's 45 x 30, S4, 9 x 6 configuration, or the smoke one
    (15 x 10 mesh, S2, 3 x 2 sensors) of the package's own tests."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    cfg = ExperimentConfig.default(output_dir=out_dir, threads=1)
    if scale == "smoke":
        geometry = GeometryConfig.default()
        cfg = replace(cfg, geometry=replace(geometry, nx=15, ny=10),
                      sn_order=2, sensor_grid=(3, 2), n_range=(1, 6))
    return replace(cfg, seed=seed, model_for_truth=truth)


def reference_path(scale: str) -> Path:
    return REFERENCE_DIR / f"{scale}.json"


def load_reference(scale: str) -> dict:
    return json.loads(reference_path(scale).read_text())


def solve_failures(ref_set: dict, k_effs, observations, k_tol: float,
                   flux_tol: float) -> list[str]:
    """One message per solve that misses its reference point."""
    ref_k, ref_obs = ref_set["k_eff"], ref_set["observations"]
    failures = []
    if len(k_effs) != len(ref_k) or len(observations) != len(ref_obs):
        return [f"{len(k_effs)} solves where the reference has "
                f"{len(ref_k)}"] * max(len(ref_k), 1)
    for i, (k, obs, k0, obs0) in enumerate(
            zip(k_effs, observations, ref_k, ref_obs)):
        obs0 = np.asarray(obs0)
        dk = abs(float(k) - k0)
        dobs = float(np.max(np.abs(np.asarray(obs) - obs0)))
        scale = float(np.max(np.abs(obs0)))
        if not dk <= 10 * k_tol:
            failures.append(f"solve {i}: k_eff {float(k)!r} is {dk:.3e} "
                            f"from the reference {k0!r}")
        elif not dobs <= 10 * flux_tol * scale:
            failures.append(f"solve {i}: observations are {dobs / scale:.3e}"
                            " (relative) from the reference")
    return failures


def row_failures(rows) -> list[str]:
    """One message per report or noise row whose error exceeds its
    bound."""
    return [f"row n={row['n']}: err_wc {row['err_wc']!r} > bound "
            f"{row['bound']!r}"
            for row in rows
            if not row["err_wc"] <= row["bound"] * (1 + BOUND_RTOL)]

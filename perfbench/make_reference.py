"""Record the reference the benchmark checks its solves against.

For every point of the training and test lattices and for both models,
stores `k_eff` and the block-average observations of the power map.
Run once on the commit whose answers are the reference:

    python3 perfbench/make_reference.py --scale default
    python3 perfbench/make_reference.py --scale smoke
"""

import argparse
import json
import sys
import time

import common

common.bootstrap()

from corestate.bench import LATTICES, MODELS, solve_power_map  # noqa: E402
from corestate.geometry import build_mesh  # noqa: E402
from corestate.materials import (map_alpha_to_mu, test_lattice,  # noqa: E402
                                 training_lattice)
from corestate.sensing import build_sensors, observe  # noqa: E402

import checks  # noqa: E402


def record(scale: str) -> dict:
    cfg = checks.make_config(scale, out_dir=".")
    mesh = build_mesh(cfg.geometry)
    sensors = build_sensors(mesh, cfg.sensor_grid)
    lattices = {"training": training_lattice(), "test": test_lattice()}
    sets = {}
    for model in MODELS:
        for lattice in LATTICES:
            t0 = time.perf_counter()
            k_effs, observations = [], []
            for alpha in lattices[lattice]:
                k, power = solve_power_map(
                    model, map_alpha_to_mu(alpha, cfg.cross_sections), mesh,
                    cfg.tolerances, cfg.sn_order, cfg.scheme)
                k_effs.append(float(k))
                observations.append([float(v) for v in observe(power,
                                                               sensors)])
            sets[f"{model}_{lattice}"] = {"k_eff": k_effs,
                                          "observations": observations}
            print(f"{scale} {model}/{lattice}: {len(k_effs)} solves in "
                  f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return {"scale": scale, "k_tol": cfg.tolerances.k_tol,
            "flux_tol": cfg.tolerances.flux_tol, "sets": sets}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=checks.SCALES, required=True)
    args = parser.parse_args()
    ref = record(args.scale)
    # One set per line keeps the file diffable.
    body = ",\n".join(f"{json.dumps(name)}: {json.dumps(data)}"
                      for name, data in ref.pop("sets").items())
    head = json.dumps(ref)[:-1]
    checks.reference_path(args.scale).write_text(
        f'{head}, "sets": {{\n{body}\n}}}}\n')


if __name__ == "__main__":
    main()

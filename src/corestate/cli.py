"""Command-line entry point.

Subcommands:
    snapshots    solve one model over one parameter lattice and persist
    case         run reconstruction study 1 (perfect) or 2 (biased)
    noise-sweep  repeat case 2 with perturbed observations
    info         print the resolved configuration as JSON

Every subcommand accepts --config (JSON experiment file), --out
(output directory override) and --threads (snapshot worker count).
Progress messages go to stderr through `logging`.  Failures exit
nonzero with a machine-readable JSON error on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bench import (ExperimentConfig, generate_snapshots, run_case,
                    sweep_noise)
from .geometry import build_mesh


def _common_options(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, default=None,
                        help="experiment config JSON (default: built-in)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="snapshot solver workers (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corestate",
        description="Power-field reconstruction experiments from sparse "
                    "local-average sensors")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snapshots", help="generate and persist snapshots")
    p.add_argument("--model", choices=("transport", "diffusion"),
                   required=True)
    p.add_argument("--set", dest="lattice", choices=("training", "test"),
                   required=True)
    _common_options(p)

    p = sub.add_parser("case", help="run a reconstruction study")
    p.add_argument("--id", dest="case_id", type=int, choices=(1, 2),
                   required=True)
    _common_options(p)

    p = sub.add_parser("noise-sweep", help="case 2 with observation noise")
    p.add_argument("--eps", type=str, default="0,1e-3,1e-2",
                   help="comma-separated noise levels")
    p.add_argument("--seeds", type=int, default=10,
                   help="number of noise realizations per level")
    _common_options(p)

    p = sub.add_parser("info", help="print the resolved configuration")
    _common_options(p)

    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig.default()
    if args.out is not None:
        cfg = replace(cfg, output_dir=Path(args.out))
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logger = logging.getLogger("corestate")
    if not logger.handlers:  # progress messages, one per line on stderr
        logger.addHandler(logging.StreamHandler())
        logger.setLevel(logging.INFO)
    try:
        cfg = _load_config(args)
        if args.command == "snapshots":
            _, manifest = generate_snapshots(cfg, args.model, args.lattice,
                                             force=True)
            print(json.dumps({"command": "snapshots", "model": args.model,
                              "set": args.lattice,
                              "count": manifest["count"],
                              "content_hash": manifest["content_hash"]}))
        elif args.command == "case":
            report = run_case(cfg, args.case_id)
            print(json.dumps({"command": "case", "id": args.case_id,
                              "rows": len(report.rows),
                              "csv": str(report.csv_path)}))
        elif args.command == "noise-sweep":
            eps_list = [float(e) for e in args.eps.split(",") if e.strip()]
            report = sweep_noise(cfg, eps_list, n_seeds=args.seeds)
            print(json.dumps({"command": "noise-sweep",
                              "rows": len(report.rows),
                              "csv": str(report.csv_path)}))
        elif args.command == "info":
            mesh = build_mesh(cfg.geometry)
            print(json.dumps({
                "version": __version__,
                "geometry": cfg.geometry.to_dict(),
                "cells": mesh.n_cells,
                "regions": list(mesh.region_names),
                "sensors": {"sx": cfg.sensor_grid[0],
                            "sy": cfg.sensor_grid[1],
                            "m": cfg.sensor_grid[0] * cfg.sensor_grid[1]},
                "tolerances": cfg.tolerances.to_dict(),
                "sn_order": cfg.sn_order,
                "scheme": cfg.scheme,
                "n_range": list(cfg.n_range),
                "model_for_truth": cfg.model_for_truth,
                "seed": cfg.seed,
                "threads": cfg.threads,
                "output_dir": str(cfg.output_dir),
            }, indent=2))
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

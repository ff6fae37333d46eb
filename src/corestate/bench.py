"""Experiment driver: snapshot generation, the two reconstruction
studies, and the measurement-noise sweep.

Case 1 reconstructs transport-model truths with a reduced basis built
from transport training snapshots (perfect model); Case 2 builds the
basis from diffusion training snapshots instead, so the reconstruction
carries an irreducible model-bias floor.  Truth states come from the
test lattice, solved by `model_for_truth` (the transport model by
default).

Both case reports and the noise sweep run one per-n reconstruction
loop, which stops at the first beta below `BETA_FLOOR` and flags it in
the run info.  Progress messages go to this module's logger at INFO.

All reports are deterministic: identical config and seed produce
byte-identical CSV files.  Wall-clock timings and other run metadata
live in a separate run_info JSON, outside the determinism contract.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import time
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from itertools import groupby
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .diffusion import power_map_diffusion, prepare_diffusion, solve_diffusion
from .eigen import FissionSpan, Operators, ToleranceConfig
from .errors import (ConfigurationError, IterationLimitError, config_int,
                     config_object)
from .geometry import Field, GeometryConfig, Mesh, build_mesh
from .materials import (CrossSectionSet, cell_values,
                        default_cross_sections, map_alpha_to_mu,
                        test_lattice, training_lattice)
from .pbdw import (assemble, error_bound, reconstruct_batch,
                   reconstruct_coordinates)
from .rom import ReducedBasis, SnapshotSet, delta_curves, pod
from .sensing import (build_sensors, observe, perturb_observations,
                      save_observations)
from .transport import (SCHEMES, build_quadrature, power_map_transport,
                        prepare_transport, solve_transport)

REPORT_COLUMNS = ("n", "beta", "delta_wc", "delta_ms", "err_wc", "bound",
                  "eta_norm_mean")
NOISE_COLUMNS = ("n", "eps", "seed", "beta", "err_wc", "bound")

#: Rows where the stability constant falls below this are flagged and
#: the report is truncated rather than filled with garbage.
BETA_FLOOR = 1e-8

log = logging.getLogger(__name__)

MODELS = ("transport", "diffusion")
LATTICES = ("training", "test")

#: Solver revision per model, part of every snapshot signature.  Bump a
#: model's entry whenever a solver change can move its snapshot values,
#: so caches written by the old solver are regenerated, not reused.
#: Transport 2: inner iterations tied to the outer error; 3: diffusion
#: synthetic acceleration; 4 (diffusion 2): band-Cholesky group solves;
#: 5 (diffusion 3): every lattice point warm-started from PARENT_ALPHA;
#: 6: inner iterations stopped on their estimated error; 7: diamond on
#: the upwind-ordered sweep system; 8 (diffusion 4): Anderson-mixed
#: outer iteration, and the parent's lattice point taken from the parent;
#: 9: inner tolerance 0.03 (was 0.01) times the outer flux change;
#: 10 (diffusion 5): the outer driver's in-place sources, one-dot
#: fission integral and closed-form mixing fit round differently, and
#: diffusion iterates in band cell order; 11: each group's sweep is one
#: lower-triangular solve, its fresh reflective inflows matrix entries;
#: 12 (diffusion 6): the later points of a fission-scaling ray start
#: from its first solution; 13 (diffusion 7): every point starts from the
#: Rayleigh-Ritz pair of its (a1, a2, a3) block's solutions
#: (`_solve_block`).
SOLVER_REVISION = {"transport": 13, "diffusion": 7}

#: Layout of a stored snapshot set, part of every snapshot signature:
#: one `np.save` file of the (count, n_cells) float64 value matrix.  A
#: manifest of the earlier one-CSV-per-point layout lacks it, so its set
#: is regenerated rather than read.
SNAPSHOT_STORE = "npy-matrix"
SNAPSHOT_FILE = "snapshots.npy"

#: The lattice centre, solved once per snapshot set.  Starts made only
#: from it and from a point's own block (`_solve_block`), not from a
#: chain of neighbours, keep each result independent of the worker count.
PARENT_ALPHA = (0.9,) * 5


def _default_bench_geometry() -> GeometryConfig:
    # 45 x 30 is the coarsest grid on which both the region edges
    # (multiples of 5 cm) and the 9 x 6 sensor tiling land on cell
    # boundaries; the 50 x 50 display default does not divide by 9.
    base = GeometryConfig.default()
    return replace(base, nx=45, ny=30)


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: GeometryConfig
    cross_sections: CrossSectionSet
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    sn_order: int = 4
    scheme: str = "step"
    sensor_grid: tuple[int, int] = (9, 6)
    n_range: tuple[int, int] = (1, 54)
    model_for_truth: str = "transport"
    output_dir: Path = Path("bench_out")
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        # Integer fields are read here, built directly or by `from_dict`.
        for name in ("sn_order", "seed", "threads"):
            object.__setattr__(self, name, config_int(getattr(self, name),
                                                      name))
        object.__setattr__(self, "sensor_grid", tuple(
            config_int(count, f"sensors.{name}")
            for name, count in zip(("sx", "sy"), self.sensor_grid)))
        object.__setattr__(self, "n_range", tuple(
            config_int(n, "n_range") for n in self.n_range))
        for name, count in zip(("sx", "sy"), self.sensor_grid):
            if count < 1:
                raise ConfigurationError(
                    f"sensors.{name} must be >= 1, got {count}")
        m = self.sensor_grid[0] * self.sensor_grid[1]
        lo, hi = self.n_range
        if not (1 <= lo <= hi <= m):
            raise ConfigurationError(
                f"n_range {self.n_range} must lie inside [1, m = {m}]")
        if self.model_for_truth not in MODELS:
            raise ConfigurationError(
                f"model_for_truth {self.model_for_truth!r} must be one of "
                f"{MODELS}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"scheme {self.scheme!r} must be one of {SCHEMES}")
        if self.sn_order < 2 or self.sn_order % 2 != 0:
            raise ConfigurationError(
                f"sn_order must be even and >= 2, got {self.sn_order}")
        if self.threads < 1:
            raise ConfigurationError(
                f"threads must be >= 1, got {self.threads}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @staticmethod
    def default(output_dir: str | Path = "bench_out",
                threads: int = 1) -> "ExperimentConfig":
        return ExperimentConfig(
            geometry=_default_bench_geometry(),
            cross_sections=default_cross_sections(),
            output_dir=Path(output_dir), threads=threads)

    @staticmethod
    def from_dict(d: dict, base_dir: Path = Path(".")) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigurationError(
                f"experiment config: the top level must be an object, got "
                f"{d!r}")
        geometry = (GeometryConfig.from_dict(d["geometry"])
                    if "geometry" in d else _default_bench_geometry())
        # A null or empty `cross_sections` selects the default set.
        xs_file = d.get("cross_sections") or ""
        output_dir = d.get("output_dir", "bench_out")
        for name, path in (("cross_sections", xs_file),
                           ("output_dir", output_dir)):
            if not isinstance(path, (str, os.PathLike)):
                raise ConfigurationError(
                    f"{name} must be a path string, got {path!r}")
        xs = (CrossSectionSet.load(base_dir / xs_file) if xs_file
              else default_cross_sections())
        # `m` = sx sy is what `corestate info` prints; it is derived.
        sensors = config_object(d.get("sensors", {}), ("sx", "sy", "m"),
                                "sensors")
        n_range = d.get("n_range", (1, 54))
        if not (isinstance(n_range, (list, tuple)) and len(n_range) == 2):
            raise ConfigurationError(
                f"n_range must be a pair of integers, got {n_range!r}")
        return ExperimentConfig(
            geometry=geometry,
            cross_sections=xs,
            tolerances=ToleranceConfig.from_dict(d.get("tolerances", {})),
            sn_order=d.get("sn_order", 4),
            scheme=d.get("scheme", "step"),
            sensor_grid=(sensors.get("sx", 9), sensors.get("sy", 6)),
            n_range=tuple(n_range),
            model_for_truth=d.get("model_for_truth", "transport"),
            output_dir=Path(output_dir),
            seed=d.get("seed", 0),
            threads=d.get("threads", 1),
        )

    @staticmethod
    def from_json(path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh), path.parent)

    def snapshot_signature(self, model: str, lattice: str) -> dict:
        """Everything a snapshot set depends on, for cache validation."""
        sig = {
            "model": model,
            "solver_revision": SOLVER_REVISION[model],
            "store": SNAPSHOT_STORE,
            "lattice": lattice,
            "geometry": self.geometry.to_dict(),
            "cross_sections": self.cross_sections.to_dict(),
            "tolerances": self.tolerances.to_dict(),
        }
        if model == "transport":
            sig["sn_order"] = self.sn_order
            sig["scheme"] = self.scheme
        return sig


def solve_power_map(model: str, xs: CrossSectionSet, mesh: Mesh,
                    tol: ToleranceConfig, sn_order: int = 4,
                    scheme: str = "step", start=None,
                    keep_solution: bool = False, operators=None):
    """Solve one criticality problem and return (k_eff, unit-norm power),
    starting from the solution `start` of a nearby problem when given
    (see `solve_transport` and `solve_diffusion`).  With `keep_solution`
    return (k_eff, power, solution), the solution able to start another
    solve (a transport one carries its angular flux).  Given, the
    prepared `operators` (at their `fission_scale`) are solved and give
    the power map its kappaSf; `xs` is read only when no operators are
    given."""
    problem = operators or xs
    if model == "diffusion":
        sol = solve_diffusion(problem, mesh, tol, start=start)
    else:
        sol = solve_transport(problem, mesh, build_quadrature(sn_order), tol,
                              scheme=scheme, start=start)
    power = _power_map(model, sol, problem)
    return (sol.k_eff, power, sol) if keep_solution else (sol.k_eff, power)


def _power_map(model: str, sol, xs: CrossSectionSet | Operators) -> Field:
    if model == "diffusion":
        return power_map_diffusion(sol, xs)
    return power_map_transport(sol, xs)


def _solve_parent(cfg: ExperimentConfig, model: str, mesh: Mesh):
    """(solution, converged) of the `PARENT_ALPHA` problem the lattice
    points start from.

    A parent that reaches an iteration cap is still a usable start: its
    last iterate is taken, with a warning, and `converged` is False.
    Any other failure raises `RuntimeError` naming the parent alpha."""
    try:
        xs = map_alpha_to_mu(PARENT_ALPHA, cfg.cross_sections)
        if model == "diffusion":
            return solve_diffusion(xs, mesh, cfg.tolerances), True
        return solve_transport(xs, mesh, build_quadrature(cfg.sn_order),
                               cfg.tolerances, scheme=cfg.scheme), True
    except IterationLimitError as exc:  # always carries the last iterate
        warnings.warn(
            f"{model} parent solve at alpha = {PARENT_ALPHA} did not "
            f"converge ({exc}); the lattice starts from its last iterate",
            RuntimeWarning, stacklevel=3)
        return exc.last_solution, False
    except Exception as exc:
        raise RuntimeError(
            f"{model} parent solve failed at alpha = {PARENT_ALPHA}: "
            f"{type(exc).__name__}: {exc}") from exc


def _solve_block(problem, points) -> list:
    """The (index, start, k_eff, power values, error) of each (index,
    alpha) of one (a1, a2, a3) block's `points`, in `_solve_order`, for
    `problem` = (model, cfg, mesh, parent, converged, nusf): whether the
    parent solve converged, and the base set's (2, n_cells) nuSf.

    a4 and a5 only scale nuSf1 and nuSf2, so the block's points share
    the operators prepared once from its cross sections at a4 = a5 = 1,
    released when this call returns, and each point solves at its own
    `fission_scale` and takes its power map's kappaSf from them.  A
    point starts from the Rayleigh-Ritz pair (`eigen.FissionSpan`) of
    the block's solutions so far that span its fission sources within
    10 flux_tol, the parent among them when it converged and lies in the
    block, or, with no usable pair, from the parent; a point on the ray
    (a1, a2, a3, a5 / a4) of a solved one gets its eigenvector back and
    passes after one outer.  A converged parent is its own point's
    solution.  `start` lists the sorted lattice indices of the solutions
    a start is made from, [-1] for the parent.  A failed point adds
    nothing to the span and gives the failure's text as `error`, and a
    failed preparation gives its text to every point; the caller raises
    with the alpha of the lowest failing index."""
    model, cfg, mesh, parent, converged, nusf = problem
    block = points[0][1][:3]
    try:
        xs = map_alpha_to_mu(block + (1.0, 1.0), cfg.cross_sections)
        operators = prepare_diffusion(xs, mesh) if model == "diffusion" \
            else prepare_transport(xs, mesh, build_quadrature(cfg.sn_order),
                                   cfg.scheme)
    except Exception as exc:  # fails every point of the block
        return [(index, [-1], None, None, f"{type(exc).__name__}: {exc}")
                for index, _ in points]
    span, spanning = FissionSpan(nusf, 10 * cfg.tolerances.flux_tol), []
    if converged and block == PARENT_ALPHA[:3] and span.add(
            parent.k_eff, _fluxes(model, parent), PARENT_ALPHA[3:]):
        spanning.append((-1, parent))
    results = []
    for index, alpha in points:
        origin = [-1]
        try:
            if converged and alpha == PARENT_ALPHA:
                k_eff = parent.k_eff
                power = _power_map(model, parent, operators)
            else:
                ritz = span.ritz(alpha[3:])
                start = parent
                if ritz is not None:
                    start = _combine(model, mesh, span, spanning, *ritz)
                    origin = sorted(i for i, _ in spanning)
                k_eff, power, sol = solve_power_map(
                    model, xs, mesh, cfg.tolerances, cfg.sn_order, cfg.scheme,
                    start=start, keep_solution=True,
                    operators=operators._replace(fission_scale=alpha[3:]))
                if span.add(k_eff, _fluxes(model, sol), alpha[3:]):
                    spanning.append((index, sol))
            results.append((index, origin, k_eff, power.values, None))
        except Exception as exc:
            results.append((index, origin, None, None,
                            f"{type(exc).__name__}: {exc}"))
    return results


def _fluxes(model: str, sol) -> np.ndarray:
    """The (2, n_cells) group scalar fluxes of a solution."""
    return np.array([f.values for f in (
        sol.phi if model == "diffusion" else sol.scalar_flux)])


def _combine(model: str, mesh: Mesh, span: FissionSpan, spanning, k_eff,
             weights):
    """The start k = `k_eff`, fluxes `weights` @ those of the spanning
    solutions (`FissionSpan.ritz`), transport's angular fluxes combined
    the same way."""
    first = spanning[0][1]
    phi = (weights @ span.phi.reshape(len(span), -1)).reshape(2, -1)
    phi = (Field(mesh, phi[0]), Field(mesh, phi[1]))
    if model == "diffusion":
        return replace(first, k_eff=k_eff, phi=phi)
    return replace(first, k_eff=k_eff, scalar_flux=phi, angular_flux=tuple(
        sum(w * sol.angular_flux[g] for w, (_, sol) in zip(weights, spanning))
        for g in range(2)))


#: Thread-count setters of the OpenBLAS copies numpy (64-bit integer
#: interface) and scipy ship, and of a plain OpenBLAS; each has a getter
#: named with "get" for "set".
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads")


@functools.cache
def _openblas_controls() -> tuple:
    """(set, get) of the thread count of every OpenBLAS library mapped
    into this process, none without /proc.  Looked up once: numpy's and
    scipy's copies are both loaded once this module is, and reading the
    process maps took ~0.8 ms a call."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a library file replaced since it loaded
            continue
        controls += [(getattr(lib, name),
                      getattr(lib, name.replace("_set_", "_get_")))
                     for name in _OPENBLAS_SETTERS if hasattr(lib, name)]
    return tuple(controls)


def _one_blas_thread() -> ExitStack:
    """Set one thread on every OpenBLAS library mapped into this process
    (`_openblas_controls`); the returned stack restores each previous
    count on exit, so `with _one_blas_thread():` pins a block and a
    plain call (the pool initializer) pins the process.

    A forked pool worker inherits the parent's multi-threaded BLAS, so
    two workers on two cores run four busy BLAS threads: default
    transport/training snapshots took 25-106 s on 2 workers against
    8.8 s on one (2-vCPU machine), and 4.1-5.0 s with this.  The
    reports are pinned too, since a multi-threaded BLAS rounds their
    products differently.  Libraries other than OpenBLAS, and systems
    without /proc, are left alone."""
    restore = ExitStack()
    for set_threads, get_threads in _openblas_controls():
        restore.callback(set_threads, get_threads())
        set_threads(1)
    return restore


def _solve_order(points):
    """The (index, alpha) `points` sorted so that consecutive lattice
    points share factors: by a2, which sets group 2's operators; then by
    (a1, a3), which set group 1's, reversed on every other a2 level so
    that a level starts on the pair the previous one ended on; then by
    a4 and a5, which scale only fission, so each (a1, a2, a3) block is
    contiguous.  A contiguous run of the order shares factors the same
    way, so the pool hands out contiguous chunks of whole blocks."""
    levels = sorted({alpha[1] for _, alpha in points})

    def key(point):
        a1, a2, a3, a4, a5 = point[1]
        sign = -1 if levels.index(a2) % 2 else 1
        return a2, sign * a1, sign * a3, a4, a5

    return sorted(points, key=key)


def _content_hash(matrix: np.ndarray) -> str:
    """sha256 of the row-major float64 bytes of a snapshot matrix."""
    return hashlib.sha256(matrix.data).hexdigest()


def _read_matrix(path: Path, manifest: dict, n_cells: int) -> np.ndarray:
    """The read-only snapshot matrix stored at `path`; `RuntimeError`
    unless it is the (count, n_cells) float64 matrix the manifest
    hashed."""
    try:
        matrix = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError):  # missing, truncated, garbled
        matrix = None
    if (matrix is None or matrix.dtype != np.float64
            or matrix.shape != (manifest["count"], n_cells)
            or not matrix.flags.c_contiguous
            or _content_hash(matrix) != manifest["content_hash"]):
        raise RuntimeError(
            f"snapshot file {path} does not match its manifest content "
            "hash; regenerate with force=True")
    matrix.setflags(write=False)
    return matrix


def generate_snapshots(cfg: ExperimentConfig, model: str, lattice: str,
                       force: bool = False) -> tuple[SnapshotSet, dict]:
    """Solve the chosen model over a parameter lattice and persist the
    power maps with a manifest; reuse an existing set when its manifest
    matches the current configuration.  The `PARENT_ALPHA` solution
    (`_solve_parent`) is solved first.  Then the points, the parent's
    own among them, are cut in `_solve_order` into their (a1, a2, a3)
    blocks, each solved by one `_solve_block` call: on one worker here,
    one block after another; on `cfg.threads` workers by a pool, which
    hands each worker one contiguous chunk of about equally many whole
    blocks.  A start depends only on its block, so the values do not
    depend on the worker count; the order only decides which cached
    factors are reused.

    A set lives in `snapshots/<model>_<lattice>/` under the output
    directory: `snapshots.npy`, the C-order float64 (count, n_cells)
    matrix whose row i is lattice point i, and `manifest.json`, whose
    `content_hash` is the sha256 of that matrix's bytes; its `starts`
    holds per point the sorted lattice indices of the block solutions
    that span its start, [-1] for the parent (and for the parent's own
    point).  On one worker each block's rows are copied into the matrix
    as the block is solved, so no second copy of the set is made; pool
    workers return each block's rows as one list.  A reused matrix is
    checked against the manifest and read-only, and is the returned
    set's `matrix`.

    Returns (snapshots, manifest).
    """
    if model not in MODELS:
        raise ConfigurationError(f"model must be one of {MODELS}")
    if lattice not in LATTICES:
        raise ConfigurationError(f"lattice must be one of {LATTICES}")
    alphas = training_lattice() if lattice == "training" else test_lattice()
    mesh = build_mesh(cfg.geometry)
    directory = Path(cfg.output_dir) / "snapshots" / f"{model}_{lattice}"
    manifest_path = directory / "manifest.json"
    signature = cfg.snapshot_signature(model, lattice)

    if manifest_path.exists() and not force:
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError:  # truncated or garbled
            raise RuntimeError(
                f"snapshot manifest {manifest_path} is not valid JSON; "
                "regenerate with force=True") from None
        if manifest.get("signature") == signature:
            matrix = _read_matrix(directory / SNAPSHOT_FILE, manifest,
                                  mesh.n_cells)
            log.info("[snapshots] reusing %s/%s (%d snapshots)", model,
                     lattice, manifest["count"])
            return SnapshotSet(mesh, matrix, tuple(alphas)), manifest

    log.info("[snapshots] solving %s/%s: %d problems on %d worker(s)",
             model, lattice, len(alphas), cfg.threads)
    t0 = time.perf_counter()
    matrix = np.empty((len(alphas), mesh.n_cells))
    keffs = [0.0] * len(alphas)
    starts = [None] * len(alphas)
    failures = {}
    # The solves made here, like those of the pool workers, run BLAS on
    # one thread: the caller's count is restored afterwards.
    with _one_blas_thread():
        parent, converged = _solve_parent(cfg, model, mesh)
        nusf = cell_values(cfg.cross_sections, mesh, "nu_sigma_f")[0]
        solve = functools.partial(_solve_block, (
            model, cfg, mesh, parent, converged, nusf.reshape(2, -1)))
        blocks = [list(block) for _, block in groupby(
            _solve_order(list(enumerate(alphas))), key=lambda p: p[1][:3])]
        chunksize = math.ceil(len(blocks) / cfg.threads)
        workers = math.ceil(len(blocks) / chunksize)
        if workers > 1:
            with Pool(workers, initializer=_one_blas_thread) as pool:
                solved = pool.map(solve, blocks, chunksize=chunksize)
        else:
            solved = map(solve, blocks)
        for block in solved:
            for index, start, k_eff, values, error in block:
                starts[index] = start
                if error is not None:
                    failures[index] = error
                else:
                    matrix[index] = values
                    keffs[index] = k_eff
    if failures:
        index = min(failures)
        raise RuntimeError(f"{model} solve failed at alpha = "
                           f"{alphas[index]}: {failures[index]}")
    snaps = SnapshotSet(mesh, matrix, tuple(alphas))

    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / SNAPSHOT_FILE, matrix)
    manifest = {
        "signature": signature,
        "count": len(snaps),
        "alphas": [list(a) for a in alphas],
        "k_eff": keffs,
        "starts": starts,
        "content_hash": _content_hash(matrix),
        "field_manifest": {"nx": mesh.nx, "ny": mesh.ny,
                           "extent_x": mesh.extent_x,
                           "extent_y": mesh.extent_y},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")
    log.info("[snapshots] %s/%s done in %.1f s", model, lattice,
             time.perf_counter() - t0)
    return snaps, manifest


@dataclass(frozen=True, eq=False)
class CaseContext:
    """Shared artifacts of one case run."""

    case: int
    mesh: Mesh
    basis: ReducedBasis
    sensors: object
    testset: SnapshotSet
    delta_wc: np.ndarray
    delta_ms: np.ndarray
    y_psi: np.ndarray          # (K_test, m) noiseless observations
    eps_model: float           # max test distance to the full-rank span
    train_manifest: dict
    test_manifest: dict


def prepare_case(cfg: ExperimentConfig, case: int) -> CaseContext:
    if case not in (1, 2):
        raise ValueError("case must be 1 or 2")
    rom_model = "transport" if case == 1 else "diffusion"
    train, train_manifest = generate_snapshots(cfg, rom_model, "training")
    test, test_manifest = generate_snapshots(cfg, cfg.model_for_truth,
                                             "test")
    mesh = train.mesh
    n_hi = min(cfg.n_range[1], len(train))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rank truncation recorded below
        basis = pod(train, n_max=n_hi)
    sensors = build_sensors(mesh, cfg.sensor_grid)
    delta_wc, delta_ms = delta_curves(basis, test)
    y_psi = np.stack([
        sensors.to_psi_coordinates(observe(u, sensors))
        for u in test.fields])
    return CaseContext(case=case, mesh=mesh, basis=basis, sensors=sensors,
                       testset=test, delta_wc=delta_wc, delta_ms=delta_ms,
                       y_psi=y_psi, eps_model=float(delta_wc[-1]),
                       train_manifest=train_manifest,
                       test_manifest=test_manifest)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    case: int
    rows: tuple[dict, ...]
    csv_path: Path
    run_info: dict

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])


def _keff_stats(manifest: dict) -> dict:
    k = np.array(manifest["k_eff"], dtype=float)
    return {"min": float(k.min()), "max": float(k.max()),
            "mean": float(k.mean())}


def _write_csv(path: Path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            str(row[c]) if isinstance(row[c], int) else repr(float(row[c]))
            for c in columns))
    path.write_text("\n".join(lines) + "\n")


def _write_report(cfg: ExperimentConfig, case: int, name: str, columns,
                  rows: list, run_info: dict, label: str) -> ExperimentReport:
    """Write `rows` to `<name>.csv` and `run_info` beside it, in
    `<name>_run_info.json` with a `_report` suffix dropped from `name`
    (case1_report.csv, case1_run_info.json), log the row count under
    `label`, and return the report."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    _write_csv(csv_path, columns, rows)
    (out_dir / f"{name.removesuffix('_report')}_run_info.json").write_text(
        json.dumps(run_info, indent=2, sort_keys=True) + "\n")
    log.info("%s %d rows -> %s", label, len(rows), csv_path)
    return ExperimentReport(case=case, rows=tuple(rows), csv_path=csv_path,
                            run_info=run_info)


def _reconstruct(cfg: ExperimentConfig, ctx: CaseContext,
                 observations: np.ndarray, flags: list):
    """Yield (operator, relative errors (M, K) of the test set) for each
    n of `cfg.n_range` up to the basis rank, given the M stacked
    observation matrices `observations` (M, K, m): per n, one operator
    and one reconstruction of the whole stack.  Stop at the first beta
    below `BETA_FLOOR`, appending a flag to `flags`; a range that starts
    above the basis rank yields nothing, and is flagged and logged.

    No estimate is formed as a field.  Every estimate lies in the span
    of the modes zeta_j and sensor fields psi_i, so with Q R the reduced
    QR of their area-weighted values [zeta; psi]^T, the estimate's
    coordinates in Q are c* = R_zeta z + R_psi eta, and a truth with
    coordinates c_t and out-of-span norm r_t = ||u_t - Q c_t|| (all
    norms area-weighted) is off it by sqrt(||c_t - c*||^2 + r_t^2).

    Each truth is taken as its mode coordinates a_t plus a remainder
    e_t, c_t = R_zeta a_t + Q^T e_t, and c_t - c* is summed as
    R_zeta (a_t - z) - R_psi eta + Q^T e_t: the large part shared by a
    truth and its estimate cancels in a_t - z, where it carries no
    rounding of the frame.  The per-truth terms are broadcast over the
    stack, and each matrix's products are taken on their own."""
    rank = ctx.basis.n_max
    if cfg.n_range[0] > rank:
        reason = (f"n_range starts at {cfg.n_range[0]}, above the basis "
                  f"rank {rank}")
        flags.append({"n": cfg.n_range[0], "basis_rank": rank,
                      "reason": reason})
        log.warning("[reconstruct] no rows: %s", reason)
        return
    sqrt_area = np.sqrt(ctx.mesh.cell_area)
    n_hi = min(cfg.n_range[1], rank)
    modes = sqrt_area * ctx.basis.mode_matrix[:n_hi]
    q, r = np.linalg.qr(
        np.vstack([modes, sqrt_area * ctx.sensors.psi_matrix]).T)
    r_modes, r_psi = r[:, :n_hi], r[:, n_hi:]
    truths = sqrt_area * ctx.testset.matrix
    a_test = truths @ modes.T
    rest = truths - a_test @ modes
    c_rest = rest @ q
    out_of_span = np.sum((rest - c_rest @ q.T)**2, axis=1)
    test_norms = np.linalg.norm(truths, axis=1)
    # The cell-sized arrays would otherwise stay alive beside the fields
    # that `run_case` forms per n, raising its peak memory.
    del modes, q, truths, rest
    count, k, m = observations.shape
    stack = observations.reshape(count * k, m)
    a_off = np.empty((count, k, n_hi))
    for n in range(cfg.n_range[0], n_hi + 1):
        op = assemble(ctx.basis, n, ctx.sensors)
        if op.beta < BETA_FLOOR:
            flags.append({"n": n, "beta": op.beta,
                          "reason": f"beta below {BETA_FLOOR:g}"})
            return
        z, eta = reconstruct_coordinates(op, stack)
        a_off[...] = a_test
        a_off[:, :, :n] -= z.reshape(count, k, n)
        eta = eta.reshape(count, k, m)
        diff = c_rest + a_off @ r_modes.T - eta @ r_psi.T
        yield op, np.sqrt(np.sum(diff**2, axis=2) + out_of_span) / test_norms


def run_case(cfg: ExperimentConfig, case: int) -> ExperimentReport:
    """Run one reconstruction study and write its CSV report.

    Per reduced dimension n the report records the stability constant,
    the manifold approximation errors, the measured worst-case relative
    reconstruction error over the test set, the a priori bound, and the
    mean norm of the observation-space correction component.  Its
    numerics run BLAS on one thread (`_one_blas_thread`), so the report
    does not depend on the caller's thread count.
    """
    t_start = time.perf_counter()
    with _one_blas_thread():
        ctx = prepare_case(cfg, case)
        t_setup = time.perf_counter()

        psi_t = ctx.sensors.psi_matrix.T * ctx.mesh.cell_area
        rows = []
        flags = []
        interp_max = 0.0
        for op, errs in _reconstruct(cfg, ctx, ctx.y_psi[None], flags):
            # The fields, formed here only, check the interpolation
            # property.
            estimates, _, eta = reconstruct_batch(op, ctx.y_psi)
            obs_back = estimates @ psi_t
            interp_max = max(interp_max, float(
                np.max(np.linalg.norm(obs_back - ctx.y_psi, axis=1))))
            n, b = op.n, op.beta
            rows.append({
                "n": n,
                "beta": b,
                "delta_wc": float(ctx.delta_wc[n - 1]),
                "delta_ms": float(ctx.delta_ms[n - 1]),
                "err_wc": float(errs.max()),
                "bound": error_bound(b, float(ctx.delta_wc[n - 1])),
                "eta_norm_mean": float(np.mean(np.linalg.norm(eta, axis=1))),
            })

    run_info = {
        "case": case,
        "model_for_rom": "transport" if case == 1 else "diffusion",
        "model_for_truth": cfg.model_for_truth,
        "basis_rank": ctx.basis.n_max,
        "n_rows": len(rows),
        "flags": flags,
        "eps_model": ctx.eps_model,
        "interpolation_residual_max": interp_max,
        "k_eff": {"training": _keff_stats(ctx.train_manifest),
                  "test": _keff_stats(ctx.test_manifest)},
        "timings_s": {"setup": t_setup - t_start,
                      "reconstruction": time.perf_counter() - t_setup,
                      "total": time.perf_counter() - t_start},
        "n_range": list(cfg.n_range),
        "sensors": {"sx": cfg.sensor_grid[0], "sy": cfg.sensor_grid[1],
                    "m": cfg.sensor_grid[0] * cfg.sensor_grid[1]},
    }
    report = _write_report(cfg, case, f"case{case}_report", REPORT_COLUMNS,
                           rows, run_info, f"[case {case}]")
    save_observations(report.csv_path.with_name(
        f"case{case}_observations.csv"), ctx.y_psi)
    return report


def sweep_noise(cfg: ExperimentConfig, eps_list,
                n_seeds: int = 10) -> ExperimentReport:
    """Repeat the Case-2 reconstruction with perturbed observations.

    For every (n, eps, seed) the measured worst-case error is reported
    against the extended bound beta^-1 (delta_wc + eps + eps_model),
    with eps_model the measured distance of the test truths to the
    full-rank diffusion span.  eps = 0 rows reproduce the Case-2 report.
    Each nonzero level draws its n_seeds observation matrices in one
    `perturb_observations` call seeded with (cfg.seed, level index);
    they are stacked after the noiseless matrix, which serves every
    eps = 0 seed, and the stack is reconstructed in one pass per n.
    An empty `eps_list`, a negative or non-finite level or `n_seeds`
    below 1 raises `ValueError` before any snapshot set is read.  BLAS
    runs on one thread, as in `run_case`.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ValueError("the noise sweep needs at least one noise level")
    if not all(0 <= e < np.inf for e in eps_list):
        raise ValueError("noise levels must be finite and nonnegative")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    t_start = time.perf_counter()
    with _one_blas_thread():
        ctx = prepare_case(cfg, 2)
        t_setup = time.perf_counter()

        # Matrix 0 is ctx.y_psi, every eps = 0 sample; each nonzero level
        # appends its n_seeds matrices, drawn in one call.
        stack = [ctx.y_psi[None]]
        samples = []   # (eps, seed, index of its observation matrix)
        for eps_idx, eps in enumerate(eps_list):
            first = 1 + n_seeds * (len(stack) - 1)
            if eps != 0.0:
                stack.append(perturb_observations(
                    np.broadcast_to(ctx.y_psi, (n_seeds,) + ctx.y_psi.shape),
                    eps, (cfg.seed, eps_idx)))
            samples += [(eps, s, first + s if eps else 0)
                        for s in range(n_seeds)]
        observations = np.concatenate(stack)
        t_draws = time.perf_counter()

        rows = []
        flags = []
        for op, errs in _reconstruct(cfg, ctx, observations, flags):
            # Each matrix's worst error, given to every sample of it.
            worst = errs.max(axis=1).tolist()
            n, b = op.n, op.beta
            for eps, seed_idx, index in samples:
                rows.append({
                    "n": n, "eps": eps, "seed": seed_idx, "beta": b,
                    "err_wc": worst[index],
                    "bound": error_bound(b, float(ctx.delta_wc[n - 1]),
                                         eps_noise=eps,
                                         eps_model=ctx.eps_model),
                })

    run_info = {
        "eps_list": eps_list, "n_seeds": n_seeds,
        "eps_model": ctx.eps_model, "basis_rank": ctx.basis.n_max,
        "flags": flags,
        "timings_s": {"setup": t_setup - t_start,
                      "draws": t_draws - t_setup,
                      "reconstruction": time.perf_counter() - t_draws,
                      "total": time.perf_counter() - t_start},
    }
    return _write_report(cfg, 2, "noise_sweep", NOISE_COLUMNS, rows,
                         run_info, "[noise]")

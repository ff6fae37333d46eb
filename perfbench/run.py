"""corestate benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload transport_lattice --seed 1 \
        --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- transport_lattice: cold-cache transport snapshots of the 32-point test
  lattice.
- diffusion_lattice: cold-cache diffusion snapshots of the 243-point
  training lattice, then the test lattice.
- reconstruct_warm: the Case-2 report and the default noise sweep
  against a warm cache of diffusion snapshots.

Solves run serially (`threads = 1`) with BLAS pinned to one thread.
The timed part repeats passes until the next one would end after
`--seconds`; there is always at least one.  Every solve, report row and
noise row is checked (see checks.py), and within a run the snapshot
content hashes and the report CSVs must be byte-identical from pass to
pass.  A transport pass outlasts the default 20 s, so an untraced
transport_lattice run has one pass and nothing to compare; its traced
run (one untraced pass, then one traced pass) makes that check.  The
first pass's hashes are in the details line, so runs can also be
compared with each other.

End-to-end metrics (`--trace 0`), each defined on every workload:

- wall_s: median time of one timed pass.
- solve_s_p50: median time of each `bench.solve_power_map` call in the
  run.  The timed part of reconstruct_warm makes no solves, so there
  these are its set-up solves.
- setup_s: median of several set-ups.  For the lattice workloads a
  set-up is what corestate does before its first solve, timed inside a
  fresh interpreter that has already loaded numpy and scipy: importing
  the package and building the configuration, mesh, quadrature, cell
  cross sections and sensors.  For reconstruct_warm it is the cold
  generation of its 275 diffusion snapshots.
- peak_rss_mb: peak resident memory of the benchmark process.

The details line also holds solve_s_tail: per pass (or set-up), the
highest whole percentile of its solve times with at least ten calls
beyond it, and the median of those over the run.  It is not a metric:
it is made of the calls that met the machine's slow moments and
spreads too widely between runs.  Case and noise-sweep times exist on
reconstruct_warm only, and the failed fraction is zero when the program
is right, so they are details too; `failed` over `attempted` in the
result line is the failed fraction.

The end-to-end times are scaled to a fixed reference machine speed:
the run interleaves short calibration bursts between timed calls and
multiplies each timing by a reference burst time over the mean of the
bursts run during it, or of the last one before it (see speed.py).  On
a shared machine whose speed switches by tens of percent this narrows
the spread between runs.  The raw medians and the factors are in the
details line.

With `--trace 0` the last stdout line holds the end-to-end metrics.
With `--trace 1` the run makes untraced passes for half the time, then
traced passes for the other half, and reports the per-layer metrics of
the traced passes plus the tracing overhead (median traced pass minus
median untraced pass), all in raw seconds.  The line before the last
one holds details: the environment, every pass time, the tail
percentile used and its sample count, case and noise-sweep times, the
first pass's hashes and the first failures.
Results and spans are also written under `.perfbench_out/`.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import common

common.bootstrap()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from corestate import bench  # noqa: E402
from corestate.geometry import build_mesh  # noqa: E402
from corestate.sensing import build_sensors, observe  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

OUT_DIR = common.ROOT / ".perfbench_out"
WORKLOADS = ("transport_lattice", "diffusion_lattice", "reconstruct_warm")
NOISE_EPS = (0.0, 1e-3, 1e-2)
NOISE_SEEDS = 10
#: Run by a fresh interpreter: load the third-party dependencies
#: untimed, run a speed burst, then time what corestate does before its
#: first solve; print that time and the burst's.  argv[1] is the scale.
SETUP_SCRIPT = """\
import sys, time
import numpy, scipy.sparse.linalg, multiprocessing
import speed
probe = speed.SpeedProbe()
probe.burst()
t0 = time.perf_counter()
import checks
from corestate.geometry import build_mesh
from corestate.materials import cell_arrays
from corestate.sensing import build_sensors
from corestate.transport import build_quadrature
cfg = checks.make_config(sys.argv[1], ".")
mesh = build_mesh(cfg.geometry)
build_quadrature(cfg.sn_order)
cell_arrays(cfg.cross_sections, mesh)
build_sensors(mesh, cfg.sensor_grid)
print(time.perf_counter() - t0, probe.bursts[-1][1])
"""


@dataclass
class Pass:
    """One timed pass and the outcome of its checks."""

    wall: float
    parts: dict = field(default_factory=dict)
    scale: float = 1.0    # speed factor for its timings
    attempted: int = 0
    failures: list = field(default_factory=list)


class Workload:
    """Shared bookkeeping: the checks, the determinism baseline of the
    run's first pass, the speed probe, and the run's working directory.

    Speed-probe bursts run only between timed calls, and the time they
    take is subtracted from every timed pass.
    """

    #: Set-ups per untraced run; setup_s is their median.
    setup_repeats = 3

    def __init__(self, name, scale, seed, work, probe):
        self.name = name
        self.scale = scale
        self.work = work
        self.probe = probe
        self.reference = checks.load_reference(scale)
        truth = "diffusion" if name == "reconstruct_warm" else "transport"
        self.cfg = checks.make_config(scale, work, seed=seed, truth=truth)
        self.sensors = build_sensors(build_mesh(self.cfg.geometry),
                                     self.cfg.sensor_grid)
        self.first_hashes = {}
        self.compared = 0
        self.setup_checks = Pass(wall=0.0)

    def same_as_first(self, key, digest) -> bool:
        """True when `digest` equals what the run's first pass produced."""
        if key in self.first_hashes:
            self.compared += 1
        return self.first_hashes.setdefault(key, digest) == digest

    def check_set(self, model, lattice, snaps, manifest) -> Pass:
        """Check every solve of one snapshot set against the reference,
        and its content hash against the run's first pass."""
        failures = checks.solve_failures(
            self.reference["sets"][f"{model}_{lattice}"], manifest["k_eff"],
            [observe(f, self.sensors) for f in snaps.fields],
            self.cfg.tolerances.k_tol, self.cfg.tolerances.flux_tol)
        count = len(manifest["k_eff"])
        if not self.same_as_first(f"{model}_{lattice}",
                                  manifest["content_hash"]):
            failures = [f"{model}/{lattice}: content_hash differs from the "
                        "first pass"] * count
        return Pass(wall=0.0, attempted=count, failures=failures)

    def generate(self, cfg, sets) -> Pass:
        """Cold-generate the given (model, lattice) sets under
        `cfg.output_dir` and check them; only generation is timed."""
        outputs = []
        spent = self.probe.spent
        t0 = time.perf_counter()
        for model, lattice in sets:
            outputs.append(bench.generate_snapshots(cfg, model, lattice))
        result = Pass(wall=time.perf_counter() - t0
                      - (self.probe.spent - spent))
        for (model, lattice), (snaps, manifest) in zip(sets, outputs):
            checked = self.check_set(model, lattice, snaps, manifest)
            result.attempted += checked.attempted
            result.failures += checked.failures
        return result


class LatticeWorkload(Workload):
    """Cold-cache snapshot generation; each pass writes into a fresh
    directory that is removed once its outputs are checked.

    Set-up is what corestate does before its first solve (see
    SETUP_SCRIPT); interpreter and numpy/scipy start-up are left out.
    """

    SETS = {"transport_lattice": (("transport", "test"),),
            "diffusion_lattice": (("diffusion", "training"),
                                  ("diffusion", "test"))}
    setup_repeats = 5

    def setup(self, index: int) -> float:
        env = dict(os.environ, PYTHONPATH=f"{common.SRC}{os.pathsep}"
                   f"{common.HERE}")
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, self.scale], env=env,
            capture_output=True, text=True, check=True, timeout=120)
        seconds, burst = (float(v) for v in proc.stdout.split()[-2:])
        # The child may run on another vCPU than this process, so its
        # own burst is what measures the speed of its set-up.
        self.probe.record(burst)
        return seconds

    def run_pass(self, index: int) -> Pass:
        directory = self.work / f"pass_{index}"
        result = self.generate(replace(self.cfg, output_dir=directory),
                               self.SETS[self.name])
        shutil.rmtree(directory)
        return result


class ReconstructWorkload(Workload):
    """Case 2 and the noise sweep on a warm diffusion snapshot cache.

    Set-up is the cold generation of that cache; the last set-up's
    directory is the one the passes read.
    """

    SETS = (("diffusion", "training"), ("diffusion", "test"))

    def setup(self, index: int) -> float:
        previous = self.cfg.output_dir
        self.cfg = replace(self.cfg, output_dir=self.work / f"setup_{index}")
        result = self.generate(self.cfg, self.SETS)
        self.setup_checks.attempted += result.attempted
        self.setup_checks.failures += result.failures
        if index:
            shutil.rmtree(previous)
        return result.wall

    def run_pass(self, index: int) -> Pass:
        t0 = time.perf_counter()
        report = bench.run_case(self.cfg, 2)
        t1 = time.perf_counter()
        noise = bench.sweep_noise(self.cfg, NOISE_EPS, NOISE_SEEDS)
        t2 = time.perf_counter()
        result = Pass(wall=t2 - t0, parts={"case_s": t1 - t0,
                                           "noise_sweep_s": t2 - t1})
        for label, rep in (("report", report), ("noise", noise)):
            failures = checks.row_failures(rep.rows)
            if not rep.rows:
                failures = [f"{label}: no rows"]
            digest = hashlib.sha256(rep.csv_path.read_bytes()).hexdigest()
            if not self.same_as_first(label, digest):
                failures = [f"{label}: {rep.csv_path.name} differs from "
                            "the first pass"] * max(len(rep.rows), 1)
            result.attempted += max(len(rep.rows), 1)
            result.failures += failures
        return result


def make_workload(name, scale, seed, work, probe) -> Workload:
    cls = ReconstructWorkload if name == "reconstruct_warm" \
        else LatticeWorkload
    return cls(name, scale, seed, work, probe)


def timed_passes(workload, seconds, first_index, tracer,
                 probe=None) -> list:
    """Passes until the next one would end after `seconds` (at least
    one), each recorded under its own pass id, and each given its speed
    factor when a probe is given."""
    passes = []
    t_start = time.perf_counter()
    while True:
        index = first_index + len(passes)
        tracer.pass_id = index
        if probe is not None:
            probe.tick()
        t_pass = time.perf_counter()
        try:
            passes.append(workload.run_pass(index))
        except Exception as exc:  # counted as failed, reported below
            passes.append(Pass(wall=time.perf_counter() - t_pass,
                               attempted=1,
                               failures=[f"pass {index}: "
                                         f"{type(exc).__name__}: {exc}"]))
            return passes
        if probe is not None:
            passes[-1].scale = probe.factor(t_pass, time.perf_counter())
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p.wall for p in passes)
        if elapsed + typical > seconds:
            return passes


def tail(samples):
    """The highest whole percentile with at least ten samples beyond
    it, and its value."""
    pct = math.floor(100 * (1 - 10 / len(samples))) if len(samples) > 10 \
        else 50
    return pct, float(np.percentile(samples, pct))


def median_tail(groups):
    """Per group of samples (one pass or set-up), its tail; the median
    of those tails, the percentiles used and the group sizes.

    A run-wide p99 would hinge on a dozen calls that hit a pause of the
    machine; a tail per pass (p68 of 32 calls, p96 of 275) and the
    median over passes drops such a pass.
    """
    tails = [tail(g) for g in groups]
    return (statistics.median(value for _, value in tails),
            sorted({pct for pct, _ in tails}), [len(g) for g in groups])


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in common.BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def measure(args, workload, tracer) -> tuple[dict, dict, list]:
    """The untraced run: set-ups, then timed passes, with one clock
    pair per pass, per set-up and per `solve_power_map` call."""
    probe = workload.probe
    probe.burst()
    with tracer.installed({"bench.solve_power_map"},
                          before={"bench.solve_power_map": probe.tick}):
        setups = []   # (seconds, speed factor)
        for i in range(workload.setup_repeats):
            tracer.pass_id = -1 - i  # set-up solves group apart from passes
            t0 = time.perf_counter()
            seconds = workload.setup(i)
            setups.append((seconds,
                           probe.factor(t0, time.perf_counter())))
        passes = timed_passes(workload, args.seconds, 0, tracer, probe)

    def medians(scaled: bool) -> dict:
        def k(factor):
            return factor if scaled else 1.0
        groups = tracer.durations_by_pass("bench.solve_power_map",
                                          probe.factor if scaled else None)
        out = {"wall_s": statistics.median(p.wall * k(p.scale)
                                           for p in passes),
               "solve_s_p50": statistics.median(d for g in groups for d in g),
               "solve_s_tail": median_tail(groups)[0],
               "setup_s": statistics.median(t * k(f) for t, f in setups)}
        for part in ("case_s", "noise_sweep_s"):
            values = [p.parts[part] * k(p.scale) for p in passes
                      if part in p.parts]
            if values:
                out[part] = statistics.median(values)
        return out

    raw, scaled = medians(False), medians(True)
    _, pcts, sizes = median_tail(
        tracer.durations_by_pass("bench.solve_power_map"))
    metrics = {name: (scaled[name], "s")
               for name in ("wall_s", "solve_s_p50", "setup_s")}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    details = {"raw_s": raw, "speed_bursts": len(probe.bursts),
               "speed_factors": {"setups": [f for _, f in setups],
                                 "passes": [p.scale for p in passes]},
               "setup_times_raw_s": [t for t, _ in setups],
               "pass_walls_raw_s": [p.wall for p in passes],
               "solve_samples": sizes, "solve_tail_percentiles": pcts,
               "solves_timed_in": ("set-up" if args.workload
                                   == "reconstruct_warm" else "passes")}
    details.update({part: scaled[part]
                    for part in ("solve_s_tail", "case_s", "noise_sweep_s")
                    if part in scaled})
    return metrics, details, passes


def measure_traced(args, workload, tracer) -> tuple[dict, dict, list]:
    """Untraced passes for half the time, then traced ones, in raw
    seconds: the per-layer metrics have no bound, and the two halves
    are adjacent in time, so no speed scaling."""
    workload.setup(0)
    plain = timed_passes(workload, args.seconds / 2, 0, tracer)
    with tracer.installed():
        traced = timed_passes(workload, args.seconds / 2, len(plain), tracer)

    per_pass = tracing.layer_metrics(tracer.spans)
    rows = []
    for p_index in range(len(plain), len(plain) + len(traced)):
        if p_index not in per_pass:
            raise RuntimeError(f"traced pass {p_index} recorded no spans")
        values, count = per_pass[p_index]
        tracing.check_active(args.workload, count, values)
        rows.append(values)
    metrics = {name: (statistics.median(r[name] for r in rows),
                      tracing.unit(name)) for name in rows[0]}
    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    details = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
               "untraced_pass_walls_s": [p.wall for p in plain],
               "traced_pass_walls_s": [p.wall for p in traced],
               "spans": len(tracer.spans)}
    return metrics, details, plain + traced


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one corestate benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the noise draws (cfg.seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="15 x 10 mesh, S2, 3 x 2 sensors")
    args = parser.parse_args(argv)

    env = environment()
    scale = "smoke" if args.smoke else "default"
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    try:
        workload = make_workload(args.workload, scale, args.seed, work,
                                 speed.SpeedProbe())
        run = measure_traced if args.trace else measure
        metrics, details, passes = run(args, workload, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [workload.setup_checks] + passes
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl", t0)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "scale": scale,
            "environment": env, "passes": len(passes) - 1,
            "failed_frac": len(failures) / attempted,
            "first_pass_hashes": workload.first_hashes,
            "hashes_compared": workload.compared,
            "first_failures": failures[:10], **details}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

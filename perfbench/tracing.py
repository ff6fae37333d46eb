"""Spans around the calls into each corestate module, recorded from
outside the package.

`corestate.bench` imports its collaborators by name (`from .pbdw import
assemble`), so a call is wrapped where `bench` looks the name up:
`corestate.bench.<name>`.  The transport sweep is wrapped on its class.
Spans stay in memory until the run ends; self time is a span's duration
minus the time its child spans cover.
"""

import functools
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from corestate import bench, transport


def _iterations(result):
    return result.iterations


#: (span name, owner, attribute, value taken from the result)
TARGETS = (
    ("bench.generate_snapshots", bench, "generate_snapshots", None),
    ("bench.solve_power_map", bench, "solve_power_map", None),
    ("bench.run_case", bench, "run_case", None),
    ("bench.sweep_noise", bench, "sweep_noise", None),
    ("materials.map_alpha", bench, "map_alpha_to_mu", None),
    ("transport.solve", bench, "solve_transport", _iterations),
    ("transport.sweep", transport._GroupSweeper, "sweep", None),
    ("transport.power_map", bench, "power_map_transport", None),
    ("diffusion.solve", bench, "solve_diffusion", _iterations),
    ("diffusion.power_map", bench, "power_map_diffusion", None),
    ("rom.pod", bench, "pod", None),
    ("rom.delta_curves", bench, "delta_curves", None),
    ("sensing.observe", bench, "observe", None),
    ("sensing.perturb", bench, "perturb_observations", None),
    ("pbdw.assemble", bench, "assemble", None),
    ("pbdw.reconstruct_batch", bench, "reconstruct_batch", None),
)
SPAN_NAMES = tuple(t[0] for t in TARGETS)

#: Spans each workload's timed passes must produce; every other span
#: must stay at zero.  A refactor that moves a call out of reach of its
#: wrapper therefore fails the traced run instead of zeroing a metric.
ACTIVE = {
    "transport_lattice": {
        "bench.generate_snapshots", "bench.solve_power_map",
        "materials.map_alpha", "transport.solve", "transport.sweep",
        "transport.power_map"},
    "diffusion_lattice": {
        "bench.generate_snapshots", "bench.solve_power_map",
        "materials.map_alpha", "diffusion.solve", "diffusion.power_map"},
    "reconstruct_warm": {
        "bench.generate_snapshots", "bench.run_case", "bench.sweep_noise",
        "rom.pod", "rom.delta_curves", "sensing.observe", "sensing.perturb",
        "pbdw.assemble", "pbdw.reconstruct_batch"},
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent
    span, pass id and an optional value (the outer count of a solve)."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, pass_id, value]
        self._stack = []
        self.pass_id = 0

    def wrap(self, name, fn, value_of=None, before=None):
        """`fn`, recording a span per call; `before` runs ahead of each
        call, outside the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.pass_id, None]
            if value_of is not None:
                spans[index][5] = value_of(result)
            return result
        return wrapper

    @contextmanager
    def installed(self, names=SPAN_NAMES, before=None):
        """Wrap the named targets for the duration of the block.
        `before` maps a span name to a callable run ahead of each of
        its calls, outside the span."""
        before = before or {}
        saved = []
        try:
            for name, owner, attr, value_of in TARGETS:
                if name not in names:
                    continue
                if attr not in vars(owner):
                    raise RuntimeError(
                        f"traced name {owner.__name__}.{attr} ({name}) is "
                        "missing; update perfbench/tracing.py")
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, value_of,
                                               before.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations_by_pass(self, name, scale=None) -> list[list[float]]:
        """Durations of the named spans, one list per pass id, each
        times `scale(start, end)` when that is given."""
        groups = defaultdict(list)
        for s in self.spans:
            if s[0] == name:
                groups[s[4]].append((s[2] - s[1])
                                    * (scale(s[1], s[2]) if scale else 1.0))
        return list(groups.values())

    def write(self, path, t0):
        """Write the spans as JSON lines, times relative to `t0`."""
        with open(path, "w") as fh:
            for name, start, end, parent, pass_id, value in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "pass": pass_id, "value": value}))
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's
    intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[1]
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append((s[2] - s[1]) - covered)
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of each pass, keyed by pass id, and the span
    counts they came from."""
    selfs = self_times(spans)
    # A cold generate_snapshots call solves; a cache hit does not.
    solving = {s[3] for s in spans if s[0] == "bench.solve_power_map"}
    per_pass = defaultdict(lambda: {
        "count": defaultdict(int), "total": defaultdict(float),
        "self": defaultdict(float), "value": defaultdict(int),
        "sweeps": [], "misses": 0})
    for i, (s, own) in enumerate(zip(spans, selfs)):
        name, acc = s[0], per_pass[s[4]]
        acc["count"][name] += 1
        acc["total"][name] += s[2] - s[1]
        acc["self"][name] += own
        acc["value"][name] += s[5] or 0
        if name == "transport.sweep":
            acc["sweeps"].append(s[2] - s[1])
        if name == "bench.generate_snapshots" and i in solving:
            acc["misses"] += 1
    return {pass_id: (_metrics(acc), acc["count"])
            for pass_id, acc in per_pass.items()}


def _metrics(acc) -> dict:
    count, total, own, value = (acc["count"], acc["total"], acc["self"],
                                acc["value"])
    outers, sweeps = value["transport.solve"], acc["sweeps"]
    return {
        "transport.outers": outers,
        "transport.sweeps": count["transport.sweep"],
        "transport.sweeps_per_outer":
            count["transport.sweep"] / outers if outers else 0.0,
        "transport.sweep_s": statistics.median(sweeps) if sweeps else 0.0,
        "transport.solve_self_s": own["transport.solve"],
        "transport.power_map_s": total["transport.power_map"],
        "diffusion.solve_s": total["diffusion.solve"],
        "diffusion.outers": value["diffusion.solve"],
        "diffusion.power_map_s": total["diffusion.power_map"],
        "materials.map_alpha_s": total["materials.map_alpha"],
        "bench.generate_snapshots_self_s": own["bench.generate_snapshots"],
        "bench.cache_hits": count["bench.generate_snapshots"] - acc["misses"],
        "bench.cache_misses": acc["misses"],
        "bench.run_case_self_s": own["bench.run_case"],
        "bench.sweep_noise_self_s": own["bench.sweep_noise"],
        "rom.pod_calls": count["rom.pod"],
        "rom.pod_s": total["rom.pod"],
        "rom.delta_curves_s": total["rom.delta_curves"],
        "sensing.perturb_calls": count["sensing.perturb"],
        "sensing.perturb_s": total["sensing.perturb"],
        "sensing.observe_s": total["sensing.observe"],
        "pbdw.assemble_calls": count["pbdw.assemble"],
        "pbdw.assemble_s": total["pbdw.assemble"],
        "pbdw.reconstruct_batch_calls": count["pbdw.reconstruct_batch"],
        "pbdw.reconstruct_batch_s": total["pbdw.reconstruct_batch"],
    }


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_per_outer") else "count"


def check_active(workload: str, count, metrics) -> None:
    """Raise unless exactly the workload's active spans occurred, and
    every solve reported its outer iterations."""
    active = ACTIVE[workload]
    missing = sorted(n for n in active if not count[n])
    stray = sorted(n for n in SPAN_NAMES if n not in active and count[n])
    for model in ("transport", "diffusion"):
        if count[f"{model}.solve"] and not metrics[f"{model}.outers"]:
            missing.append(f"{model}.outers")
    if missing or stray:
        raise RuntimeError(
            f"traced {workload}: expected counts are zero {missing}, "
            f"unexpected spans recorded {stray}")

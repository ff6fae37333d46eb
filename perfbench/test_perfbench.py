"""The benchmark's own test: every workload in smoke mode, traced and
untraced, and the output checks rejecting wrong answers."""

import json
import subprocess
import sys
from collections import defaultdict

import pytest

import common

if str(common.SRC) not in sys.path:
    sys.path.insert(0, str(common.SRC))

import checks  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run_smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    result = run_smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    on = {"transport_lattice": "transport.sweeps",
          "reconstruct_warm": "pbdw.assemble_calls"}
    for workload_on, metric in on.items():
        assert (values[metric] > 0) == (workload == workload_on)


def test_solve_check_rejects_shifted_keff():
    ref = checks.load_reference("smoke")
    tol = checks.make_config("smoke", ".").tolerances
    ref_set = ref["sets"]["transport_test"]
    k = list(ref_set["k_eff"])
    obs = ref_set["observations"]
    assert checks.solve_failures(ref_set, k, obs, tol.k_tol,
                                 tol.flux_tol) == []
    k[3] += 100 * tol.k_tol
    failures = checks.solve_failures(ref_set, k, obs, tol.k_tol,
                                     tol.flux_tol)
    assert len(failures) == 1 and failures[0].startswith("solve 3:")


def test_solve_check_rejects_shifted_observations():
    ref = checks.load_reference("smoke")
    tol = checks.make_config("smoke", ".").tolerances
    ref_set = ref["sets"]["diffusion_test"]
    obs = [list(row) for row in ref_set["observations"]]
    obs[0][0] *= 1 + 100 * tol.flux_tol
    failures = checks.solve_failures(ref_set, ref_set["k_eff"], obs,
                                     tol.k_tol, tol.flux_tol)
    assert len(failures) == 1 and failures[0].startswith("solve 0:")


def test_row_check_rejects_error_above_bound():
    rows = [{"n": 1, "err_wc": 0.1, "bound": 0.2},
            {"n": 2, "err_wc": 0.2, "bound": 0.2},
            {"n": 3, "err_wc": 0.3, "bound": 0.2}]
    failures = checks.row_failures(rows)
    assert len(failures) == 1 and failures[0].startswith("row n=3:")


def test_self_time_excludes_children():
    # parent [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6]
    spans = [["a", 0.0, 10.0, -1, 0, None],
             ["b", 1.0, 3.0, 0, 0, None],
             ["c", 4.0, 8.0, 0, 0, None],
             ["d", 5.0, 6.0, 2, 0, None]]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_traced_run_fails_on_missing_name(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("bench.gone", tracing.bench, "no_such_function", None),))
    with pytest.raises(RuntimeError, match="no_such_function"):
        with tracing.Tracer().installed({"bench.gone"}):
            pass


def test_traced_run_fails_on_zero_or_stray_counts():
    active = tracing.ACTIVE["reconstruct_warm"]
    count = defaultdict(int, {name: 1 for name in active})
    metrics = {"transport.outers": 0, "diffusion.outers": 0}
    tracing.check_active("reconstruct_warm", count, metrics)
    count["pbdw.assemble"] = 0
    with pytest.raises(RuntimeError, match="pbdw.assemble"):
        tracing.check_active("reconstruct_warm", count, metrics)
    count["pbdw.assemble"] = 1
    count["transport.sweep"] = 1
    with pytest.raises(RuntimeError, match="transport.sweep"):
        tracing.check_active("reconstruct_warm", count, metrics)

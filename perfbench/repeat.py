"""Run the benchmark several times and summarise each metric.

    python3 perfbench/repeat.py --runs 10 --out perfbench/baseline/e2e.json
    python3 perfbench/repeat.py --runs 2 --trace 1 --workload reconstruct_warm

Run i gets seed i (1..N).  For every workload and metric the summary
gives the values, their median and quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance
between the quartiles as a share of the median.  Untraced runs also get
the same summary of their raw, unscaled times (`raw_s` in the details
line), so the effect of the speed scaling is visible on the same runs.
"""

import argparse
import json
import statistics
import subprocess
import sys

import common

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, timeout=900, check=True,
        cwd=common.ROOT)
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["info"],
            "result": json.loads(lines[-1])}


def summarise(values, unit) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    summary = {}
    for workload in workloads:
        results = [run_once(workload, seed, SPEC["run_seconds"], args.trace)
                   for seed in range(1, args.runs + 1)]
        metrics = {name: summarise(
            [r["result"]["metrics"][name]["value"] for r in results],
            m["unit"]) for name, m in results[0]["result"]["metrics"].items()}
        summary[workload] = {
            "correct": all(r["result"]["correct"] for r in results),
            "failed": sum(r["result"]["failed"] for r in results),
            "attempted": sum(r["result"]["attempted"] for r in results),
            "passes": [r["info"]["passes"] for r in results],
            "hashes_compared": [r["info"]["hashes_compared"]
                                for r in results],
            "distinct_first_pass_hashes": len({
                json.dumps(r["info"]["first_pass_hashes"], sort_keys=True)
                for r in results}),
            "environment": results[0]["info"]["environment"],
            "metrics": metrics}
        if "raw_s" in results[0]["info"]:
            summary[workload]["raw_s"] = {
                name: summarise([r["info"]["raw_s"][name] for r in results],
                                "s") for name in results[0]["info"]["raw_s"]}
        for label, group in (("", metrics),
                             ("raw ", summary[workload].get("raw_s", {}))):
            for name, m in group.items():
                spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
                print(f"{workload:18s} {label + name:34s} median "
                      f"{m['median']:.6g} {m['unit']:5s} spread {spread}",
                      flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": args.runs, "trace": args.trace,
                       "run_seconds": SPEC["run_seconds"],
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()

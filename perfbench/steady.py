#!/usr/bin/env python3
"""Repeat the benchmark over seeds and write perfbench/baseline.json.

    python3 perfbench/steady.py

For each workload: two sets of ten untraced runs (seeds 1-10 and
11-20), then one traced run with seed 1.  For every end-to-end metric
and set it records the values, their median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median beside the
metric's bound from BENCHMARK.json, and how much worse the second set's
median is than the first's.  The traced run gives the per-layer table
and the tracing overhead, 1 - traced ops_per_s / untraced median
ops_per_s.

The output also records each workload's reason and input sizes, the
command, the seed arguments and the environment, so the file is the
baseline a later change is compared with.  It is rewritten after each
workload.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
SETS = 2
RUNS = 10
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, tier1_env   # noqa: E402


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd),
                                                  proc.returncode,
                                                  proc.stderr))
    lines = proc.stdout.splitlines()
    env = dict(kv.split("=", 1) for kv in lines[1].split()[1:])
    return json.loads(lines[-1]), env


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "spread_below_third_of_bound": spread < bound / 3,
            "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {
        "command": bench["command"] + ["--workload", "NAME", "--seed", "N",
                                       "--seconds", str(seconds),
                                       "--trace", "0|1"],
        "tier1_env": {"PYTHONPATH": tier1_env()["PYTHONPATH"],
                      "build": "none"},
        "loop": "closed, one caller, one process",
        "workloads": {},
    }

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    for name, cls in WORKLOADS.items():
        entry = {"why": cls.why, "sizes": cls.sizes, "seconds": seconds,
                 "sets": []}
        for k in range(SETS):
            seeds = list(range(1 + k * RUNS, 1 + (k + 1) * RUNS))
            results = []
            for seed in seeds:
                result, env = run(name, seed, seconds, 0)
                results.append(result)
                print("%s seed %d: %s" % (name, seed, " ".join(
                    "%s=%.4g" % (key, m["value"])
                    for key, m in result["metrics"].items())), flush=True)
            summary = {
                metric: dict(summarize(
                    [r["metrics"][metric]["value"] for r in results],
                    bounds[metric]),
                    unit=results[0]["metrics"][metric]["unit"])
                for metric in bounds}
            for metric, s in summary.items():
                print("  %-12s median %10.4f  q1 %10.4f  q3 %10.4f  spread "
                      "%.4f  bound %.2f" % (metric, s["median"], s["q1"],
                                            s["q3"], s["spread"], s["bound"]))
            entry["env"] = env
            entry["sets"].append({
                "seeds": seeds,
                "attempted": [r["attempted"] for r in results],
                "failed": [r["failed"] for r in results],
                "end_to_end": summary})
        # how much worse the second set's median is than the first's
        first, last = entry["sets"]
        entry["agreement"] = {}
        for metric, bound in bounds.items():
            a = first["end_to_end"][metric]["median"]
            b = last["end_to_end"][metric]["median"]
            worse = (b - a) / a if better[metric] == "lower" \
                else (a - b) / a
            entry["agreement"][metric] = {
                "worse_by": worse, "bound": bound,
                "within_bound": worse <= bound}
            print("  %-12s second set worse by %+.4f (bound %.2f)"
                  % (metric, worse, bound))
        # the per-layer table and the tracing overhead
        seed = entry["sets"][0]["seeds"][0]
        traced, _ = run(name, seed, seconds, 1)
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        untraced = entry["sets"][0]["end_to_end"]["ops_per_s"]["median"]
        entry["trace"] = {
            "seed": seed, "per_layer": layers,
            "overhead": 1 - layers["traced.ops_per_s"] / untraced,
            "overhead_base": "untraced median ops_per_s %.4f" % untraced,
        }
        print("  tracing overhead %.1f%%"
              % (100 * entry["trace"]["overhead"]))
        doc["workloads"][name] = entry
        with open(OUT, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

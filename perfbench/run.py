#!/usr/bin/env python3
"""minflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N        # every workload, one after another

Runs from the root of a source checkout the way Tier-1 runs:
PYTHONPATH=src, no build step, on whichever kernels that gives.  One
process, one caller, closed loop: each op starts when the previous one
returns.  Inputs come from --seed.  Every op is checked against a
reference from theory; a failed op is counted and the run goes on.
Op latencies and rates are in reference time (see latency_metrics):
ref-ms and ops/ref-s.

Each metric is printed as a line "name value unit", then the last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from spans around each layer's public functions, and
the spans are written to perfbench/out/.
"""

import argparse
import gc
import importlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPS = 3
MIN_OPS = 100     # so that at least ten ops lie beyond op_ms.p90

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/ref-s", "op_ms.p50": "ref-ms",
              "op_ms.p90": "ref-ms", "peak_rss_mb": "MB"}

# The calibration loop: fixed pure-Python work (string slices, dict
# updates) that touches no minflow code, timed before every op.  Its
# time says how fast this machine runs Python at that moment.
CAL_WORD = "".join(str(bin(i).count("1") & 1) for i in range(3072))
# Its time on the 2-core Xeon (KVM) the benchmark was tuned on, in the
# machine's fast state (best of 3000 calls): one ref-ms is a millisecond
# on that machine running uncontended.
REF_CAL_MS = 0.48
# Workloads whose every op is a fresh interpreter calibrate with a fresh
# `python -c pass` instead: start-up is mostly page faults, file reads and
# unmarshalling, which a contended core slows less than the loop.  40 ms
# is about its time on the same machine in the fast state.
REF_SPAWN_MS = 40.0


def calibrate():
    """Seconds one pass of the calibration loop takes now."""
    t0 = time.perf_counter()
    seen = {}
    word = CAL_WORD
    for i in range(len(word) - 7):
        w = word[i:i + 8]
        seen[w] = seen.get(w, 0) + 1
    return time.perf_counter() - t0


def calibrate_spawn():
    """Seconds a fresh `python -c pass` under the Tier-1 environment
    takes now."""
    from workloads import python
    t0 = time.perf_counter()
    python(["-c", "pass"])
    return time.perf_counter() - t0


def calibration(workload):
    """A workload's calibration pass and its reference time in ms."""
    if workload.fresh_processes:
        return calibrate_spawn, REF_SPAWN_MS
    return calibrate, REF_CAL_MS


def reference_seconds(fn, cal=calibrate, ref_ms=REF_CAL_MS):
    """Run fn() between two calibration passes; return its result, its
    time in reference seconds and its plain time in seconds."""
    before = cal()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    local = (before + cal()) / 2
    return result, elapsed / local * ref_ms / 1e3, elapsed


def import_minflow():
    """Import the package from ./src (Tier-1's PYTHONPATH=src); return
    the import's time in reference seconds."""
    sys.path.insert(0, SRC)
    # minflow.joins pulls in every layer but the CLI
    _, import_s, _ = reference_seconds(
        lambda: importlib.import_module("minflow.joins"))
    where = os.path.dirname(os.path.abspath(
        sys.modules["minflow"].__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError("minflow imported from %s, not from %s"
                          % (where, SRC))
    return import_s


def environment():
    import minflow
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "backend": minflow.BACKEND,
            "pythonpath": "src"}


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def stream(workload, rng, state, seconds):
    """Whole cycles of ops until `seconds` have passed and MIN_OPS ops
    have run, but not past 2 * `seconds`, so that a run on a slowed-down
    machine still ends in time.  `seconds` 0 is a smoke run of the
    fewest cycles.

    Returns one (kind, seconds, problem) record per op, the calibration
    times (one before every op and one after the last), the wall time and
    the number of cycles; `problem` is None for a verified op.
    """
    cal, _ = calibration(workload)
    records, cals = [], []
    start = time.perf_counter()
    deadline = start + seconds
    min_ops = MIN_OPS if seconds > 0 else 0
    cycles = 0
    while (cycles < workload.min_cycles
           or time.perf_counter() < deadline
           or (len(records) < min_ops
               and time.perf_counter() < deadline + seconds)):
        for kind, call, check in workload.cycle(rng, state):
            cals.append(cal())
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:     # a failed op, not a failed run
                records.append((kind, time.perf_counter() - t0,
                                "%s raised %r" % (kind, exc)))
                continue
            elapsed = time.perf_counter() - t0
            try:
                problem = check(result)
            except Exception as exc:
                problem = "%s check raised %r" % (kind, exc)
            records.append((kind, elapsed, problem))
        cycles += 1
        # garbage from one cycle does not raise the next one's peak RSS
        gc.collect()
    wall = time.perf_counter() - start
    cals.append(cal())
    return records, cals, wall, cycles


def latency_metrics(records, cals, ref_ms):
    """ops_per_s, op_ms.p50 and op_ms.p90 in reference time, from the
    reference cost of every op (op_costs)."""
    costs = op_costs(records, cals, ref_ms)
    ordered = sorted(costs)
    verified = sum(1 for _, _, problem in records if problem is None)
    return {"ops_per_s": verified / (sum(costs) / 1e3),
            "op_ms.p50": statistics.median(ordered),
            "op_ms.p90": percentile(ordered, 0.9)}


def op_costs(records, cals, ref_ms):
    """Reference-time cost (ms) of each op.

    This machine's speed swings by up to 2x in spells of seconds to
    minutes (contention from outside the process), and a spell can cover
    a whole run.  An op's cost relative to the calibration pass timed
    around it does not swing: an op costs elapsed / local calibration
    time * ref_ms, the local calibration time being the median of the
    two passes before the op and the two after it.
    """
    return [elapsed / statistics.median(cals[max(0, i - 1):i + 3])
            * ref_ms for i, (_, elapsed, _) in enumerate(records)]


def run_workload(cls, import_s, seed, seconds, trace):
    name = cls.name
    # one CPU for the run and the processes it starts, so that the
    # calibration pass times the core the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = random.Random(seed)
    workload = cls(rng)
    tracer = None
    trace_dir = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        if workload.fresh_processes:
            trace_dir = os.path.join(OUT_DIR,
                                     "%s-seed%d.children" % (name, seed))
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            workload.trace_dir = trace_dir

    cal, ref_ms = calibration(workload)
    setups, plain_setups = [], []
    for _ in range(SETUP_REPS):
        state, ref_s, plain_s = reference_seconds(workload.setup, cal, ref_ms)
        setups.append(ref_s)
        plain_setups.append(plain_s)
    # an in-process workload imports once; a fresh-process one pays the
    # import inside every set-up
    setup_s = statistics.median(setups)
    if not workload.fresh_processes:
        setup_s += import_s

    if tracer:
        tracer.phase = "stream"
    records, cals, wall, cycles = stream(workload, rng, state, seconds)
    who = (resource.RUSAGE_CHILDREN if workload.fresh_processes
           else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    failures = [problem for _, _, problem in records if problem]
    attempted, failed = len(records), len(failures)
    raw = sorted(elapsed for _, elapsed, _ in records)
    env = environment()
    print("workload %s  seed %d  seconds %g  trace %d" % (name, seed, seconds,
                                                          trace))
    print("env %s" % " ".join("%s=%s" % kv for kv in env.items()))
    print("ops %d in %d cycles over %.3f s; %d ranked beyond p90"
          % (attempted, cycles, wall, attempted - math.ceil(0.9 * attempted)))
    print("plain time: %.3f ops/s, p50 %.3f ms, p90 %.3f ms, set-up "
          "median %.4f s; calibration median %.4f ms (%.4f ms at 1 ref-ms "
          "per ms)" % ((attempted - failed) / wall,
                       statistics.median(raw) * 1e3,
                       percentile(raw, 0.9) * 1e3,
                       statistics.median(plain_setups),
                       statistics.median(cals) * 1e3, ref_ms))
    by_kind = {}
    for (kind, elapsed, _), cost in zip(records,
                                        op_costs(records, cals, ref_ms)):
        by_kind.setdefault(kind, []).append((elapsed * 1e3, cost))
    typical = {kind: [statistics.median(c) for c in zip(*ops)]
               for kind, ops in by_kind.items()}
    for kind in sorted(typical, key=lambda k: typical[k][1]):
        print("  %-24s %5d ops  median %10.3f ms %10.3f ref-ms"
              % ((kind, len(by_kind[kind])) + tuple(typical[kind])))
    for problem in failures[:5]:
        print("FAILED %s" % problem, file=sys.stderr)

    measured = dict(setup_s=setup_s,
                    **latency_metrics(records, cals, ref_ms),
                    peak_rss_mb=peak_rss_mb)
    print("fail_ratio %d/%d failed/attempted" % (failed, attempted))
    if trace:
        metrics = layer_metrics(workload, tracer, name, seed, env,
                                trace_dir, measured)
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in measured.items()}
    for key, (value, unit) in metrics.items():
        print("%-44s %14.6f %s" % (key, value, unit))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def layer_metrics(workload, tracer, name, seed, env, trace_dir, measured):
    """Per-layer metrics of a traced run; writes the spans out."""
    import_times, interpreter = [], []
    children = []
    if workload.fresh_processes:
        from workloads import python
        for path in workload.child_traces:
            with open(path) as fh:
                doc = json.load(fh)
            tracer.merge(doc)
            import_times.append(doc.pop("import_s"))
            children.append(doc)
        shutil.rmtree(trace_dir)
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            python(["-c", "pass"])
            interpreter.append(time.perf_counter() - t0)
    metrics = tracer.metrics()
    metrics["cli.interpreter_s"] = (
        statistics.median(interpreter) if interpreter else 0.0, "s")
    metrics["cli.import_s"] = (
        statistics.median(import_times) if import_times else 0.0, "s")
    metrics["traced.ops_per_s"] = (measured["ops_per_s"], "ops/ref-s")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (name, seed)),
                 {"workload": name, "seed": seed, "env": env,
                  "traced_end_to_end": measured, "children": children})
    return metrics


def run_all(names, seed, seconds, trace):
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = metric
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="workload name (default: every workload)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="measure whole op cycles for this long and "
                             "for at least %d ops (0: a smoke run of the "
                             "fewest cycles)" % MIN_OPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = import_minflow()
    except ImportError as exc:
        print("run.py: cannot import minflow from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload is None:
        return run_all(list(WORKLOADS), args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (known: %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    return run_workload(WORKLOADS[args.workload], import_s, args.seed,
                        args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

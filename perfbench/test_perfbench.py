"""Self-test of the benchmark: python3 -m pytest perfbench -q

Smoke runs (--seconds 0, the fewest op cycles) of every workload must
print every metric BENCHMARK.json names, with its unit, and a reference
mismatch must be counted as a failed op rather than end the run.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import run

run.import_minflow()
import workloads  # noqa: E402  (needs minflow on the path)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    lines = smoke(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: m["unit"] for k, m in result["metrics"].items()}
    for m in wanted:
        # the human-readable line: name, value, unit
        assert any(line.split()[0] == m["name"]
                   and line.split()[-1] == m["unit"] for line in lines[:-1])


def test_reference_mismatch_is_a_failed_op(monkeypatch):
    # every census reference now disagrees with the program's answer
    monkeypatch.setattr(workloads, "census_cardinality",
                        lambda value, level, resolution: 3)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    out = io.StringIO()
    # run_workload pins the process to one CPU; later tests must not be
    affinity = os.sched_getaffinity(0)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = run.run_workload(workloads.AddressStream, 0.0, 7, 0, 0)
    finally:
        os.sched_setaffinity(0, affinity)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert status == 0
    assert result["attempted"] == 17            # 16 addresses + 1 census
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["metrics"]["ops_per_s"]["value"] > 0


def test_raising_op_is_a_failed_op():
    def boom():
        raise ValueError("injected")

    class Fake(workloads.Workload):
        def cycle(self, rng, state):
            return [("fine", lambda: 1, lambda r: None),
                    ("raises", boom, lambda r: None),
                    ("wrong", lambda: 2, lambda r: "2 is not 1")]

    records, cals, wall, cycles = run.stream(Fake(random.Random(0)),
                                             random.Random(0), None, 0)
    assert (len(records), len(cals), cycles) == (3, 4, 1)
    problems = [problem for _, _, problem in records]
    assert problems[0] is None
    assert problems[1] == "raises raised ValueError('injected')"
    assert problems[2] == "2 is not 1"
    assert run.latency_metrics(records, cals,
                               run.REF_CAL_MS)["ops_per_s"] > 0

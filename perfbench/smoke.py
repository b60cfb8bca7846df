#!/usr/bin/env python3
"""Smoke test of the calperf benchmark at a tiny size.

    python3 perfbench/smoke.py

Run it from the root of the repository. For every workload, untraced and
traced, it runs perfbench/run.py for one second at a tiny scale and checks
that the result line is well formed, that the workloads listed in
BENCHMARK.json pass every output check, and that the result names exactly
the end-to-end (--trace 0) or per-layer (--trace 1) metrics of
BENCHMARK.json, with their units. On the live workloads it also checks, on
a traced run at full size, that window_growth is reported and that the
reader's spans cover at least 90% of the time to the verdict.

elimstack_live and pq_batch are not listed in BENCHMARK.json
(perfbench/README.md): the first because its history shape does not repeat
on a busy host, the second because the bucket priority queue fails its
linearizability check under contention. Their metrics are checked here, and
their verdicts are printed, not asserted.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = "0.02"
# At the tiny scale the reader mostly waits for the workers and checks
# fewer than ten windows, so span coverage and window_growth are checked on
# traced live runs at full size, which are checker-bound.
FULL_SCALE = "1"


def run(workload, trace, scale=SCALE):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--scale", scale],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("# calperf "), lines[0]
    assert lines[1].startswith("# host nproc="), lines[1]
    assert any(l.startswith("# failed_frac = ") for l in lines), "no failed_frac line"
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = [w["name"] for w in spec["workloads"]]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in listed + ["elimstack_live", "pq_batch"]:
        for trace in (0, 1):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            units = {name: m["unit"] for name, m in metrics.items()}
            if units != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ "
                                f"from BENCHMARK.json")
            for name, m in metrics.items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{workload}: {name} is not a number")
            if trace == 0 and any(m["value"] <= 0 for m in metrics.values()):
                problems.append(f"{workload}: an end-to-end metric is not positive")
            verdict = "correct" if result["correct"] else "FAILED"
            print(f"{workload} trace={trace}: {verdict}, "
                  f"{result['failed']} of {result['attempted']} failed")
            if workload in listed and (not result["correct"] or result["failed"]):
                problems.append(f"{workload} trace={trace}: output check failed")
            if trace == 1 and workload.endswith("_live"):
                full = run(workload, 1, FULL_SCALE)["metrics"]
                if full["incremental.window_growth"]["value"] <= 0:
                    problems.append(f"{workload}: no window_growth")
                coverage = full["trace.reader_coverage"]["value"]
                print(f"{workload}: reader spans cover {coverage:.3f}")
                if coverage < 0.9:
                    problems.append(f"{workload}: reader spans cover < 90%")
    for p in problems:
        print("FAIL:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny Walker shell (130 satellites).

    python3 benchmarks/selftest.py

Runs the three workload shapes untraced and traced, and asserts that every
metric name is present and that no op fails.  Then it corrupts one output
file of each shape and asserts that the output check counts a failed op.
Last, it checks that a traced ``simulate`` (the run_scenario chain, which
no workload runs) writes the same bytes as an untraced one.
Finishes in well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from verify import digest_outputs
from workloads import WORKLOADS, make_workload

SEED = 7


def _corrupt(out_dir: str, kind: str) -> None:
    """Change one value so that the file still parses."""
    if kind == "attack":
        path = os.path.join(out_dir, "attack.json")
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data["delta_mean_ms"] += 0.25
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return
    path = os.path.join(out_dir, "sweep.csv" if kind == "sweep" else "report_onorbit.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = len(lines) - 1 if kind == "sweep" else 1  # sweep: the fraction-1.0 row
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) + 0.25)
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> int:
    for name in WORKLOADS:
        for trace, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
            record = run.measure(name, SEED, seconds=1.0, trace=trace, tiny=True)
            result = record["result"]
            assert set(result["metrics"]) == set(units), (name, trace, sorted(result["metrics"]))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, (name, trace, record["failures"])
            print(f"ok   {name} trace={int(trace)}: {result['attempted']} ops, all metrics present")

        shutil.rmtree(run.WORK, ignore_errors=True)
        workload = make_workload(name, SEED, os.path.join(run.WORK, "inputs"), tiny=True)
        rounds, setup = run.collect(workload, seconds=0.0, trace=False)
        _corrupt(os.path.join(run.WORK, "round0", "cmd000"), workload.commands[0].kind)
        result = run.evaluate(workload, rounds, setup, trace=False)["result"]
        assert result["failed"] >= 1 and not result["correct"], (name, result)
        print(f"ok   {name}: corrupted output counted, failed_frac="
              f"{result['failed'] / result['attempted']:.4f}")
    # No workload runs `simulate`, so check the traced run_scenario chain here.
    shutil.rmtree(run.WORK, ignore_errors=True)
    workload = make_workload("sweep-starlink", SEED, os.path.join(run.WORK, "inputs"), tiny=True)
    argv = workload.commands[0].crosscheck[0]
    outs = []
    for mode in ("plain", "traced"):
        out = os.path.join(run.WORK, mode, "out")
        result = run.run_child(mode, [argv + ["--out", out]], os.path.join(run.WORK, mode))
        assert result is not None and result["errors"] == [None], (mode, result)
        outs.append(digest_outputs(out, workload.inputs_dir))
    assert outs[0] == outs[1] and len(outs[0]) == 2, outs
    print("ok   simulate: traced run byte-identical")
    shutil.rmtree(run.WORK, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the ldpcsim benchmark.

    python3 bench/selftest.py

Runs every workload once at a tiny size, untraced and traced, and checks
that the printed metric names and units are exactly those BENCHMARK.json
declares, that every output passed the correctness gate, and that the
tracer put back every function it wrapped.  It also checks that the gate
rejects a wrong golden value and that the benchmark refuses to run, without
printing a result, in a directory that holds only the benchmark.  Exit code
0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

from run import HERE, ROOT, WORKLOADS, import_package


def declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def check_workloads(problems: list[str]) -> None:
    import harness
    from tracer import check_restored

    e2e, layer = declared()
    for workload in WORKLOADS:
        for trace in (False, True):
            tag = f"{workload} trace={int(trace)}"
            result, detail = harness.run_workload(
                workload, harness.DEFAULT_SEED, 0.0, trace, sizes=harness.TINY
            )
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            want = layer if trace else e2e
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                extra = sorted(set(got) - set(want))
                missing = sorted(set(want) - set(got))
                units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
                problems.append(f"{tag}: undeclared {extra}, missing {missing}, "
                                f"unit mismatch {units}")
            bad = [k for k, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{tag}: non-numeric values for {bad}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: gate failed: {detail['errors']}")
            left = check_restored()
            if left:
                problems.append(f"{tag}: tracer left wrappers on {left}")
            print(f"ok  {tag}: {len(got)} metrics, {result['attempted']} operations",
                  flush=True)


def check_gate_rejects(problems: list[str]) -> None:
    import harness

    gate = harness.Gate({"calibrated_point": [1.0, 2.0, 3.0]}, harness.DEFAULT_SEED,
                        harness.FULL, harness.SHORT_N)
    if gate.same("calibrate", [2859.75, 0.0, 3255.0], [1.0, 2.0, 3.0]):
        problems.append("gate accepted a value that differs from its golden value")
    if gate.same("x", 1) and not gate.same("x", 2) and len(gate.errors) == 2:
        print("ok  gate rejects golden and run-to-run mismatches", flush=True)
    else:
        problems.append(f"gate run-to-run check misbehaved: {gate.errors}")


def check_refuses_without_package(problems: list[str]) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, f"{tmp}/{HERE.name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"ran without the package: exit {proc.returncode}, "
                        f"stdout {proc.stdout[:200]!r}")
    else:
        print(f"ok  refuses to run without the package (exit {proc.returncode})",
              flush=True)


def main() -> int:
    import_package()
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    problems: list[str] = []
    check_gate_rejects(problems)
    check_refuses_without_package(problems)
    check_workloads(problems)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
